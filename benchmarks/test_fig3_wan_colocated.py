"""Figure 3 — WAN with colocated leaders: 1, 2, 4 and 8 destinations.

Regenerates the four subfigures (throughput vs p95 latency per number of
destination groups) and asserts the paper's claims for this deployment:

* PrimCast and FastCast share the same latency floor until saturation
  (FastCast delivers quickly at non-leader replicas with n=3), while
  White-Box pays an extra intra-group step at followers — visible in
  the all-client p95;
* PrimCast's peak throughput is a multiple of FastCast's (paper: 1.6x
  at 1 destination up to 5x at 2);
* the convoy effect is negligible here (it scales with cross-group
  latency, which is LAN-like), so hybrid clocks change nothing.
"""

import pytest
from conftest import full_mode

from repro.harness.experiments import figure3
from repro.harness.report import max_throughput_by_protocol, print_results


def test_fig3_wan_colocated():
    dest_counts = (1, 2, 4, 8) if full_mode() else (1, 2, 4)
    by_dest = figure3(full=full_mode(), dest_counts=dest_counts)
    for d, results in by_dest.items():
        print_results(f"Figure 3: WAN colocated leaders, {d} destination group(s)", results)

    for d, results in by_dest.items():
        peak = max_throughput_by_protocol(results)
        # PrimCast sustains more load than FastCast at every dest count
        # (paper: 1.6x at 1 dest, up to 5x at 2).
        factor = 1.5 if d == 1 else 2.0
        assert peak["primcast"] >= factor * peak["fastcast"], f"d={d}"
        assert peak["primcast"] >= peak["whitebox"], f"d={d}"

        by_key = {(r.protocol, r.outstanding): r for r in results}
        low = min(r.outstanding for r in results)
        # White-Box p95 (all replicas) sits above PrimCast's: followers
        # pay one extra intra-group step (tens of ms here).
        if d >= 2:
            assert (
                by_key[("whitebox", low)].latency["p95"]
                > by_key[("primcast", low)].latency["p95"] + 5.0
            ), f"d={d}"
        # Hybrid clocks: no effect with colocated leaders.
        assert by_key[("primcast-hc", low)].latency["p95"] == pytest.approx(
            by_key[("primcast", low)].latency["p95"], rel=0.5
        )
