"""Figure 5 — latency CDFs at low and high load (distributed leaders).

Regenerates the two CDF plots (2 destination groups; 2 vs 128
outstanding messages per client) including the extra "White-Box Leaders"
series that isolates deliveries at group primaries. Asserts:

* 5a (low load): PrimCast's CDF is left of (below) every other
  protocol's at the median — it "consistently delivers lower latencies
  at every replica";
* White-Box-at-leaders is faster than White-Box overall (followers pay
  one more step), but still behind PrimCast (§7.5's observation that
  PrimCast wins even against leader-only White-Box deliveries);
* 5b (high load): every protocol's median shifts right vs low load —
  the convoy affects most messages once it kicks in.
"""

from conftest import full_mode

from repro.harness.experiments import figure5
from repro.harness.report import format_table


def _median(curve):
    # curve: [(latency, cum_fraction)] sorted
    for lat, frac in curve:
        if frac >= 0.5:
            return lat
    return curve[-1][0]


def _p(curve, q):
    for lat, frac in curve:
        if frac >= q:
            return lat
    return curve[-1][0]


def test_fig5_latency_cdfs():
    loads = (2, 128) if full_mode() else (2, 64)
    curves_by_load = figure5(full=full_mode(), loads=loads)

    for load, curves in curves_by_load.items():
        rows = []
        for name, curve in sorted(curves.items()):
            rows.append(
                [
                    name,
                    f"{_p(curve, 0.10):.1f}",
                    f"{_median(curve):.1f}",
                    f"{_p(curve, 0.90):.1f}",
                    f"{_p(curve, 0.99):.1f}",
                ]
            )
        print(f"\n== Figure 5: latency CDF, 2 dest groups, {load} outstanding ==")
        print(format_table(["series", "p10 (ms)", "p50 (ms)", "p90 (ms)", "p99 (ms)"], rows))

    low, high = min(curves_by_load), max(curves_by_load)
    low_curves, high_curves = curves_by_load[low], curves_by_load[high]

    # 5a: PrimCast left of everything, including White-Box leaders-only.
    pc = _median(low_curves["primcast"])
    assert pc < _median(low_curves["whitebox"])
    assert pc < _median(low_curves["whitebox-leaders"])
    assert pc < _median(low_curves["fastcast"])
    # Leaders-only White-Box beats all-replica White-Box.
    assert _median(low_curves["whitebox-leaders"]) < _median(low_curves["whitebox"])

    # 5b: the convoy shifts every protocol's median right at high load.
    for proto in ("primcast", "whitebox", "fastcast"):
        assert _median(high_curves[proto]) > _median(low_curves[proto]), proto
