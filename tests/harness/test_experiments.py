"""Tests for the per-figure experiment definitions (tiny scale)."""

from dataclasses import replace

import pytest

from repro.harness.experiments import FIGURE_PROTOCOLS, sweep
from repro.sim.costs import default_cost_model, zero_cost_model
from repro.workload.scenarios import lan_scenario


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
        cost_model=zero_cost_model(),
    )
    assert len(results) == 4
    assert [(r.protocol, r.outstanding) for r in results] == [
        ("primcast", 1),
        ("primcast", 2),
        ("whitebox", 1),
        ("whitebox", 2),
    ]


def test_sweep_throughput_grows_with_load_before_saturation():
    results = sweep(
        ("primcast",),
        tiny(),
        n_dest_groups=2,
        loads=(1, 4),
        warmup_ms=20,
        measure_ms=60,
        cost_model=zero_cost_model(),
    )
    assert results[1].throughput > results[0].throughput


def test_figure_protocols_are_the_papers_four():
    assert set(FIGURE_PROTOCOLS) == {
        "whitebox",
        "fastcast",
        "primcast",
        "primcast-hc",
    }


def test_samples_dropped_when_not_kept():
    results = sweep(
        ("primcast",),
        tiny(),
        n_dest_groups=1,
        loads=(1,),
        warmup_ms=20,
        measure_ms=40,
        cost_model=zero_cost_model(),
        keep_samples=False,
    )
    assert results[0].samples == []
    assert results[0].latency["count"] > 0


def bespoke():
    """Not a registry scenario: ``sweep`` runs it inline."""
    return replace(tiny(), name="bespoke-lan")


@pytest.mark.parametrize("scenario", [tiny, bespoke], ids=["registry", "inline"])
def test_sweep_forwards_every_point_field(scenario):
    # batching_ms: a PointSpec field that no figure passes.
    (row,) = sweep(
        ("primcast",), scenario(), n_dest_groups=2, loads=(4,),
        warmup_ms=20, measure_ms=40, batching_ms=5.0,
    )
    assert row.message_counts["batch"] > 0
    assert row.samples == []


@pytest.mark.parametrize("scenario", [tiny, bespoke], ids=["registry", "inline"])
def test_sweep_rejects_a_misspelt_point_field(scenario):
    with pytest.raises(TypeError, match="batching_msec"):
        sweep(("primcast",), scenario(), n_dest_groups=2, loads=(1,), batching_msec=5.0)


def test_cost_model_scale_validation():
    model = default_cost_model(scale=2.0)
    base = default_cost_model(scale=1.0)

    class M:
        kind = "start"

    assert model.recv_cost(M()) == pytest.approx(2 * base.recv_cost(M()))
    with pytest.raises(ValueError):
        default_cost_model(scale=0.0)
