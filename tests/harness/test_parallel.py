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
from repro.harness.parallel import (
    PointSpec,
    SweepExecutor,
    build_scenario,
    cost_model_from_spec,
    cost_model_spec,
    expand_sweep,
    point_spec,
    scenario_matches_registry,
)
from repro.harness.runner import RunResult, run_load_point
from repro.sim.costs import default_cost_model, zero_cost_model
from repro.workload.scenarios import lan_scenario, wan_colocated_leaders

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
        cost_model=zero_cost_model(),
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
    scenario = small_fig3_scenario()
    spec = point_spec("primcast-hc", scenario, 2, 4, epsilon_ms=None)
    assert spec.scenario == scenario.name
    assert spec.n_groups == 2 and spec.group_size == 3
    # scenario epsilon is captured explicitly so worker reconstruction
    # cannot drift from a caller-customized skew bound
    assert spec.epsilon_ms == scenario.epsilon_ms
    rebuilt = build_scenario(spec.scenario, spec.n_groups, spec.group_size)
    assert rebuilt.name == scenario.name
    assert rebuilt.n_groups == scenario.n_groups


def test_point_keywords_are_declared_on_point_spec_only(monkeypatch):
    scenario = small_fig3_scenario()
    # a typo fails loudly at spec construction, through either entry point
    with pytest.raises(TypeError, match="warmup"):
        point_spec("primcast", scenario, 2, 1, warmup=5.0)
    with pytest.raises(TypeError, match="warmup"):
        expand_sweep(PROTOCOLS, scenario, 2, LOADS, warmup=5.0)
    # seed used to be the fifth positional; it must not become cost_model
    with pytest.raises(TypeError):
        point_spec("primcast", scenario, 2, 1, 7)
    # run() hands run_load_point every field by name, scenario rebuilt
    calls = []
    monkeypatch.setattr(
        parallel_mod, "run_load_point", lambda **kw: calls.append(kw)
    )
    spec = point_spec(
        "primcast", scenario, 2, 1, cost_model=zero_cost_model(), batching_ms=2.0
    )
    spec.run()
    (sent,) = calls
    assert sent.pop("scenario").name == scenario.name
    assert sent.pop("cost_model").default_recv == 0.0
    want = spec.canonical()
    for rebuilt in ("scenario", "n_groups", "group_size", "cost_model"):
        del want[rebuilt]
    assert sent == want and sent["batching_ms"] == 2.0


def test_point_spec_rejects_unknown_scenario():
    scenario = lan_scenario(2, 3)
    custom = type(scenario)(
        name="bespoke",
        description="",
        n_groups=2,
        group_size=3,
        cross_group_rtt_ms=1.0,
        intra_group_rtt_ms="1ms",
        _latency_builder=scenario._latency_builder,
    )
    with pytest.raises(ValueError, match="unknown scenario"):
        point_spec("primcast", custom, 2, 1)
    with pytest.raises(ValueError, match="unknown scenario"):
        build_scenario("bespoke", 2, 3)


def test_point_spec_rejects_customized_registry_scenario():
    # same registry name, different geometry: workers would silently
    # rebuild the registry default, so the spec layer must refuse
    custom = replace(lan_scenario(2, 3), cross_group_rtt_ms=5.0)
    with pytest.raises(ValueError, match="does not match"):
        point_spec("primcast", custom, 2, 1)


def test_scenario_matches_registry_detects_customization():
    assert scenario_matches_registry(lan_scenario())
    assert scenario_matches_registry(wan_colocated_leaders(2, 3))
    assert not scenario_matches_registry(replace(lan_scenario(), name="bespoke"))
    assert not scenario_matches_registry(
        replace(lan_scenario(), cross_group_rtt_ms=5.0)
    )
    # a customized epsilon still round-trips (captured in the spec)
    assert scenario_matches_registry(replace(lan_scenario(), epsilon_ms=9.0))


def test_sweep_rejects_custom_scenario_with_parallel_or_cache(tmp_path):
    from repro.harness.cache import ResultCache

    # A customized or unknown scenario cannot be rebuilt from a spec, so
    # sweep() refuses it with any executor, the default serial one too.
    custom = replace(lan_scenario(2, 3), cross_group_rtt_ms=5.0)
    bespoke = replace(lan_scenario(2, 3), name="bespoke-lan")
    for executor in (
        SweepExecutor(jobs=2),
        SweepExecutor(jobs=1, cache=ResultCache(tmp_path / "c")),
        None,
    ):
        with pytest.raises(ValueError, match="does not match"):
            sweep(PROTOCOLS, custom, n_dest_groups=2, loads=(1,), executor=executor)
        with pytest.raises(ValueError, match="unknown scenario"):
            sweep(PROTOCOLS, bespoke, n_dest_groups=2, loads=(1,), executor=executor)


def test_executor_total_stats_accumulate_across_runs():
    scenario = small_fig3_scenario()
    specs = specs_for(scenario)
    executor = SweepExecutor()
    executor.run(specs[:1])
    executor.run(specs[1:3])
    assert executor.last_stats == {"points": 2, "hits": 0, "ran": 2}
    assert executor.total_stats == {"points": 3, "hits": 0, "ran": 3}


def test_cost_model_spec_round_trip():
    for model in (None, zero_cost_model(), default_cost_model(scale=2.0)):
        spec = cost_model_spec(model)
        back = cost_model_from_spec(spec)
        if model is None:
            assert back is None
        else:
            assert back.recv_costs == model.recv_costs
            assert back.send_costs == model.send_costs
            assert back.default_recv == model.default_recv
            assert back.default_send == model.default_send


def test_custom_cost_model_survives_worker_round_trip():
    scenario = lan_scenario(2, 3)
    model = default_cost_model(scale=3.0)
    serial = [
        run_load_point(
            "primcast", scenario, 2, 2, seed=1, warmup_ms=20.0, measure_ms=40.0,
            cost_model=model, keep_samples=False,
        )
    ]
    specs = expand_sweep(
        ("primcast",), scenario, 2, (2,), seed=1, warmup_ms=20.0, measure_ms=40.0,
        cost_model=model,
    )
    got = SweepExecutor(jobs=2).run(specs)
    assert_field_for_field(got, serial)


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

    spec = point_spec(
        "primcast", small_fig3_scenario(), 2, 4, cost_model=zero_cost_model()
    )
    text = json.dumps(spec.canonical(), sort_keys=True)
    again = json.dumps(
        point_spec(
            "primcast", small_fig3_scenario(), 2, 4, cost_model=zero_cost_model()
        ).canonical(),
        sort_keys=True,
    )
    assert text == again
    assert PointSpec(**json.loads(text)) == spec
