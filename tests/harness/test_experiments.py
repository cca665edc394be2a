"""Tests for the per-figure experiment definitions (tiny scale)."""

import pytest

from repro.harness.experiments import sweep
from repro.harness.runner import PROTOCOLS, run_load_point
from repro.workload.scenarios import lan_scenario, wan_colocated_leaders


def tiny():
    return lan_scenario(n_groups=2, group_size=3)


def test_sweep_grid_shape():
    results = sweep(
        ("primcast", "whitebox"),
        tiny(),
        n_dest_groups=2,
        loads=(1, 2),
        warmup_ms=20,
        measure_ms=40,
    )
    assert len(results) == 4
    assert [(r.protocol, r.outstanding) for r in results] == [
        ("primcast", 1),
        ("primcast", 2),
        ("whitebox", 1),
        ("whitebox", 2),
    ]


def test_sweep_throughput_grows_with_load_before_saturation():
    # WAN: the default cost model leaves the CPUs far from saturation.
    results = sweep(
        ("primcast",),
        wan_colocated_leaders(2, 3),
        n_dest_groups=2,
        loads=(1, 4),
        warmup_ms=300,
        measure_ms=400,
    )
    assert results[1].throughput > results[0].throughput


def test_figure_protocols_are_the_papers_four():
    # The protocol table is the figures' curve list, in curve order.
    assert tuple(PROTOCOLS) == ("whitebox", "fastcast", "primcast", "primcast-hc")


def test_samples_dropped_when_not_kept():
    results = sweep(
        ("primcast",),
        tiny(),
        n_dest_groups=1,
        loads=(1,),
        warmup_ms=20,
        measure_ms=40,
        keep_samples=False,
    )
    assert results[0].samples == []
    assert results[0].latency["count"] > 0


@pytest.mark.parametrize("scenario", [tiny], ids=["registry"])
def test_sweep_forwards_every_point_field(scenario):
    point = dict(seed=3, warmup_ms=20, measure_ms=40, keep_samples=True)
    (row,) = sweep(("primcast",), scenario(), n_dest_groups=2, loads=(4,), **point)
    assert row.samples
    assert row == run_load_point("primcast", scenario(), 2, 4, **point)


@pytest.mark.parametrize("scenario", [tiny], ids=["registry"])
def test_sweep_rejects_a_misspelt_point_field(scenario):
    with pytest.raises(TypeError, match="batching_msec"):
        sweep(("primcast",), scenario(), n_dest_groups=2, loads=(1,), batching_msec=5.0)
