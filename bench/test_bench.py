"""Tests of the benchmark itself. Not in tier-1 ``testpaths``; run with

    PYTHONPATH=src python -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest

from bench import run, simbench, workloads
from bench.check import check_logs
from repro.harness.runner import run_load_point
from repro.workload.scenarios import wan_colocated_leaders

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NET = [name for name, w in workloads.WORKLOADS.items() if w.backend == "net"]


def test_spec_and_workload_table_agree():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why


@pytest.mark.parametrize("name", NET)
def test_plan_is_a_function_of_workload_and_seed(name):
    workload = workloads.WORKLOADS[name]

    def plan(seed):
        if workload.loop == "open":
            ops = workloads.open_plan(workload, seed, 5.0)
        else:
            ops = [list(itertools.islice(workloads.closed_plan(workload, seed, pid), 50))
                   for pid in range(workloads.N_PIDS)]
        return ops, workloads.payload_base(workload, seed)

    assert plan(3) == plan(3)
    assert plan(3) != plan(4)
    if workload.loop == "open":
        dues = [due for due, _, _ in plan(3)[0]]
        assert dues == sorted(dues) and len(dues) == round(workload.rate_hz * 5.0)
    assert len(workloads.payload(plan(3)[1], 7)) == workload.payload_bytes


@pytest.fixture(scope="module")
def smoke():
    """Every workload once untraced and once traced, a second or so each:
    ~200 messages per net workload, a 150 ms simulator point (a WAN
    message needs ~100 simulated ms to reach its last destination)."""
    run._bootstrap()
    results = {}
    for name, trace in itertools.product(workloads.WORKLOADS, (False, True)):
        if workloads.WORKLOADS[name].backend == "net":
            results[name, trace] = run.run_workload(name, seed=5, seconds=1.5, trace=trace)
        else:
            results[name, trace] = run._run_sim(5, 0.0, trace, warmup_ms=100.0, measure_ms=150.0)
    return results


def test_smoke_runs_are_correct(smoke):
    for (name, trace), result in smoke.items():
        assert result["attempted"] >= 100, (name, trace)
        assert result["failed"] == 0 and not result["violations"], (name, trace, result["violations"])
        if name in NET:
            assert result["values"]["core.epoch_changes"] == 0
            assert result["values"]["election.suspicions"] == 0


def test_emitted_names_are_the_declared_names(smoke):
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for name in NET:  # the set-up and memory metrics are added by run_workload
        assert end_to_end <= set(smoke[name, False]["values"]), name
    emitted = set().union(*(result["values"] for result in smoke.values()))
    assert emitted == end_to_end | per_layer


def test_genuineness_and_batching_show_in_the_counters(smoke):
    local = smoke["net_local_16k_open", True]["values"]
    assert local["transport.cross_group_frames"] == 0
    assert smoke["net_global_open", True]["values"]["transport.cross_group_frames"] > 0
    assert smoke["net_global_open", True]["values"]["rmcast.envelopes_per_batch"] == 0
    assert smoke["net_mixed_closed", True]["values"]["rmcast.envelopes_per_batch"] > 1
    sim = smoke["sim_wan_d2", True]["values"]
    assert not any(k.startswith(("codec.encode_self", "transport.", "host.drain")) for k in sim)


def test_simbench_is_run_load_point():
    ours = simbench.run_once(2, warmup_ms=20.0, measure_ms=50.0)
    theirs = run_load_point("primcast", wan_colocated_leaders(), 2, 32, seed=2, warmup_ms=20.0,
                            measure_ms=50.0, keep_samples=False, compaction_interval_ms=0)
    assert ours.events == theirs.events
    assert ours.wire_messages == sum(theirs.message_counts.values())
    assert ours.delivered_throughput == pytest.approx(theirs.throughput)


def test_checker_accepts_the_run_and_rejects_a_swap():
    run_ = simbench.run_once(5, warmup_ms=100.0, measure_ms=150.0)
    out = simbench.outputs(run_, 100.0)
    config = run_.system.config
    assert check_logs(out.logs, out.dests_of, config).ok

    pid, log = max(out.logs.items(), key=lambda item: len(item[1]))
    swapped = dict(out.logs)
    swapped[pid] = log[:10] + [log[11], log[10]] + log[12:]
    report = check_logs(swapped, out.dests_of, config)
    assert {log[10][0], log[11][0]} <= report.failed

    missing = dict(out.logs)
    missing[pid] = log[:10] + log[11:]
    assert log[10][0] in check_logs(missing, out.dests_of, config).failed

    twice = dict(out.logs)
    twice[pid] = log[:11] + [log[10]] + log[11:]
    assert log[10][0] in check_logs(twice, out.dests_of, config).failed
