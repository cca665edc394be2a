"""Ablation — the ack-merging cost assumption (§7.1).

The paper credits PrimCast's throughput, despite its quadratic ack
pattern, to acknowledgements being tiny and mergeable. Our cost model
encodes this as control messages costing a fraction of payload messages.
This ablation re-runs a LAN load point with that assumption removed
(acks as expensive as payloads): PrimCast's throughput advantage over
White-Box should shrink or invert, showing the headline throughput
result really does hinge on cheap acks — exactly the claim of §7.3.
"""

from repro.harness.report import format_table
from repro.harness.runner import run_load_point
from repro.sim.costs import CostModel, PAYLOAD_COST_MS, default_cost_model
from repro.workload.scenarios import lan_scenario


def expensive_ack_model() -> CostModel:
    """Every message costs like a payload message (no merging)."""
    kinds = [
        "start", "ack", "bump",
        "wb-accept", "wb-ack", "wb-deliver",
        "fc-soft", "fc-hard", "fc-2a", "fc-2b",
    ]
    recv = {k: PAYLOAD_COST_MS for k in kinds}
    send = {k: PAYLOAD_COST_MS / 2 for k in kinds}
    return CostModel(recv, send, PAYLOAD_COST_MS, PAYLOAD_COST_MS / 2)


def _peak(protocol, cost_model):
    best = 0.0
    for outstanding in (8, 32):
        r = run_load_point(
            protocol,
            lan_scenario(),
            2,
            outstanding,
            warmup_ms=80,
            measure_ms=150,
            cost_model=cost_model,
            keep_samples=False,
        )
        best = max(best, r.throughput)
    return best


def test_ack_merging_drives_throughput():
    cheap = default_cost_model()
    expensive = expensive_ack_model()

    results = {}
    for proto in ("primcast", "whitebox"):
        results[(proto, "cheap-acks")] = _peak(proto, cheap)
        results[(proto, "expensive-acks")] = _peak(proto, expensive)

    rows = [
        [variant, proto, f"{tput / 1000:.1f}k"]
        for (proto, variant), tput in sorted(results.items(), key=lambda x: x[0][1])
    ]
    print("\n== Ablation: ack cost (LAN, 2 destinations, peak throughput) ==")
    print(format_table(["cost model", "protocol", "peak tput"], rows))

    cheap_ratio = results[("primcast", "cheap-acks")] / results[("whitebox", "cheap-acks")]
    expensive_ratio = (
        results[("primcast", "expensive-acks")]
        / results[("whitebox", "expensive-acks")]
    )
    # With mergeable acks PrimCast wins clearly; pricing acks like
    # payloads erodes most of that advantage (quadratic ack pattern).
    assert cheap_ratio > 1.5
    assert expensive_ratio < cheap_ratio * 0.7
