"""Tests for the parallel sweep executor (repro.harness.parallel).

The executor's contract is *bit-identical output*: a sweep fanned out
over worker processes must produce the same RunResult rows, in the same
order, as the serial loop of run_load_point calls it replaced. These
tests pin that field-for-field on a small Fig-3-style point (WAN
colocated leaders — the figure 3 scenario — at reduced scale so the
pool round trip stays fast).
"""

from dataclasses import replace

import pytest

import repro.harness.parallel as parallel_mod
from repro.harness.experiments import sweep
from repro.harness.parallel import PointSpec, SweepExecutor, expand_sweep
from repro.harness.runner import RunResult, run_load_point
from repro.sim.costs import zero_cost_model
from repro.workload.scenarios import Scenario, lan_scenario, wan_colocated_leaders

PROTOCOLS = ("primcast", "whitebox")
LOADS = (1, 2)


def small_fig3_scenario():
    """Figure 3's geometry (WAN, colocated leaders) at reduced scale."""
    return wan_colocated_leaders(n_groups=2, group_size=3)


def serial_reference(scenario, keep_samples=False):
    """The historical serial path: a plain loop of run_load_point."""
    return [
        run_load_point(
            protocol,
            scenario,
            2,
            outstanding,
            seed=1,
            warmup_ms=40.0,
            measure_ms=80.0,
            keep_samples=keep_samples,
        )
        for protocol in PROTOCOLS
        for outstanding in LOADS
    ]


def specs_for(scenario, keep_samples=False):
    return expand_sweep(
        PROTOCOLS,
        scenario,
        2,
        LOADS,
        seed=1,
        warmup_ms=40.0,
        measure_ms=80.0,
        keep_samples=keep_samples,
    )


def assert_field_for_field(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.protocol == w.protocol
        assert g.scenario == w.scenario
        assert g.n_dest_groups == w.n_dest_groups
        assert g.outstanding == w.outstanding
        assert g.throughput == w.throughput
        assert g.latency == w.latency
        assert g.samples == w.samples
        assert g.message_counts == w.message_counts
        assert g.events == w.events


def test_parallel_jobs2_equals_serial_field_for_field():
    scenario = small_fig3_scenario()
    want = serial_reference(scenario)
    got = SweepExecutor(jobs=2).run(specs_for(scenario))
    assert_field_for_field(got, want)


def test_parallel_keeps_spec_order_with_more_jobs_than_points():
    scenario = small_fig3_scenario()
    specs = specs_for(scenario)
    results = SweepExecutor(jobs=8).run(specs)
    assert [(r.protocol, r.outstanding) for r in results] == [
        (s.protocol, s.outstanding) for s in specs
    ]


def test_parallel_preserves_samples():
    scenario = small_fig3_scenario()
    want = serial_reference(scenario, keep_samples=True)
    got = SweepExecutor(jobs=2).run(specs_for(scenario, keep_samples=True))
    assert_field_for_field(got, want)
    assert got[0].samples, "keep_samples must survive the pool round trip"


def test_sweep_routes_through_executor_identically():
    """sweep(executor=jobs2) == sweep() == the seed-era serial loop."""
    scenario = lan_scenario(n_groups=2, group_size=3)
    kwargs = dict(
        n_dest_groups=2,
        loads=(1, 2),
        warmup_ms=20,
        measure_ms=40,
    )
    default = sweep(PROTOCOLS, scenario, **kwargs)
    parallel = sweep(PROTOCOLS, scenario, executor=SweepExecutor(jobs=2), **kwargs)
    assert_field_for_field(parallel, default)


def test_expand_sweep_matches_serial_grid_order():
    specs = expand_sweep(PROTOCOLS, small_fig3_scenario(), 2, LOADS, seed=7)
    assert [(s.protocol, s.outstanding) for s in specs] == [
        ("primcast", 1),
        ("primcast", 2),
        ("whitebox", 1),
        ("whitebox", 2),
    ]
    assert all(s.seed == 7 for s in specs)


def test_point_spec_round_trips_scenario_and_epsilon():
    import json

    scenario = replace(small_fig3_scenario(), epsilon_ms=9.0)
    (spec,) = expand_sweep(("primcast-hc",), scenario, 2, (4,))
    # the spec carries the scenario itself, customized skew bound included
    assert spec.scenario is scenario
    # and its canonical JSON rebuilds the same scenario
    payload = json.loads(json.dumps(spec.canonical()))
    assert Scenario(**payload["scenario"]) == scenario
    assert len(payload) == 8


def test_point_keywords_are_declared_on_point_spec_only(monkeypatch):
    scenario = small_fig3_scenario()
    # a typo fails loudly at spec construction
    with pytest.raises(TypeError, match="warmup"):
        expand_sweep(PROTOCOLS, scenario, 2, LOADS, warmup=5.0)
    # the options a sweep never sets are gone
    with pytest.raises(TypeError, match="cost_model"):
        expand_sweep(PROTOCOLS, scenario, 2, LOADS, cost_model=zero_cost_model())
    # run() hands run_load_point every field by name, unchanged
    calls = []
    monkeypatch.setattr(
        parallel_mod, "run_load_point", lambda **kw: calls.append(kw)
    )
    (spec,) = expand_sweep(("primcast",), scenario, 2, (1,), keep_samples=True)
    spec.run()
    (sent,) = calls
    assert sent.pop("scenario") is scenario
    want = spec.canonical()
    del want["scenario"]
    assert sent == want and sent["keep_samples"] is True


def test_scenario_rejects_unknown_geometry():
    with pytest.raises(ValueError, match="unknown geometry"):
        replace(lan_scenario(2, 3), geometry="bespoke")


def test_customized_scenario_has_its_own_cache_key():
    from repro.harness.cache import spec_key

    def key(scenario):
        (spec,) = expand_sweep(("primcast",), scenario, 2, (1,))
        return spec_key(spec)

    base = lan_scenario(2, 3)
    keys = {
        key(base),
        key(replace(base, name="bespoke")),
        key(replace(base, cross_group_rtt_ms=5.0)),
        key(replace(base, epsilon_ms=9.0)),
        key(replace(base, geometry="distributed")),
    }
    assert len(keys) == 5


def test_point_spec_runs_customized_registry_scenario():
    import pickle

    # same registry name, different geometry: the spec carries the
    # customization itself, so a worker runs it, not the registry default
    custom = replace(lan_scenario(2, 3), geometry="distributed")
    point = dict(seed=1, warmup_ms=100.0, measure_ms=300.0, keep_samples=False)
    (spec,) = expand_sweep(("primcast",), custom, 2, (1,), **point)
    shipped = pickle.loads(pickle.dumps(spec))
    assert shipped == spec and shipped.scenario == custom
    want = run_load_point("primcast", custom, 2, 1, **point)
    assert want.latency["count"] > 0
    assert_field_for_field([shipped.run()], [want])
    default = run_load_point("primcast", lan_scenario(2, 3), 2, 1, **point)
    assert default.latency != want.latency


def test_point_spec_sweep_batches_when_its_scenario_does():
    # Batching is a property of the deployment: a sweep turns it on by
    # customizing its scenario, with no run_load_point keyword.
    batched = replace(lan_scenario(2, 3), batching_ms=5.0)
    point = dict(seed=1, warmup_ms=20.0, measure_ms=40.0)
    specs = expand_sweep(("primcast",), batched, 2, (2,), **point)
    specs += expand_sweep(("primcast",), lan_scenario(2, 3), 2, (2,), **point)
    on, off = SweepExecutor(jobs=1).run(specs)
    assert on.message_counts["batch"] > 0
    assert "batch" not in off.message_counts
    assert sum(on.message_counts.values()) < sum(off.message_counts.values())


def test_sweep_runs_customized_scenario_on_workers(tmp_path):
    from repro.harness.cache import ResultCache

    # A customized Table 2 scenario sweeps like the original: workers
    # and the cache see the scenario itself, not a registry key.
    custom = replace(lan_scenario(2, 3), epsilon_ms=9.0)
    point = dict(seed=1, warmup_ms=20.0, measure_ms=40.0, keep_samples=False)
    want = [run_load_point("primcast-hc", custom, 2, 1, **point)]
    # the customization shows: the registry default runs differently
    assert want != [run_load_point("primcast-hc", lan_scenario(2, 3), 2, 1, **point)]
    kwargs = dict(n_dest_groups=2, loads=(1,), warmup_ms=20.0, measure_ms=40.0)
    for executor in (
        SweepExecutor(jobs=2),
        SweepExecutor(jobs=1, cache=ResultCache(tmp_path / "c")),
        None,
    ):
        got = sweep(("primcast-hc",), custom, executor=executor, **kwargs)
        assert_field_for_field(got, want)
        assert got == want


def test_executor_total_stats_accumulate_across_runs():
    scenario = small_fig3_scenario()
    specs = specs_for(scenario)
    executor = SweepExecutor()
    executor.run(specs[:1])
    executor.run(specs[1:3])
    assert executor.last_stats == {"points": 2, "hits": 0, "ran": 2}
    assert executor.total_stats == {"points": 3, "hits": 0, "ran": 3}


def test_executor_rejects_bad_jobs():
    with pytest.raises(ValueError):
        SweepExecutor(jobs=0)


def test_run_result_dict_round_trip():
    result = run_load_point(
        "primcast", lan_scenario(2, 3), 2, 1,
        seed=1, warmup_ms=20.0, measure_ms=40.0, keep_samples=True,
    )
    back = RunResult.from_dict(result.to_dict())
    assert back == result
    # and through actual JSON text, as the cache stores it
    import json

    back2 = RunResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert back2 == result


def test_spec_canonical_is_json_safe_and_stable():
    import json

    spec = PointSpec("primcast", small_fig3_scenario(), 2, 4)
    text = json.dumps(spec.canonical(), sort_keys=True)
    again = json.dumps(
        PointSpec("primcast", small_fig3_scenario(), 2, 4).canonical(),
        sort_keys=True,
    )
    assert text == again
    payload = json.loads(text)
    payload["scenario"] = Scenario(**payload["scenario"])
    assert PointSpec(**payload) == spec
