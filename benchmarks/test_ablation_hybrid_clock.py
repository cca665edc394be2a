"""Ablation — hybrid clocks vs clock skew (§6).

Sweeps the clock-skew bound ε and measures the worst-case convoy latency
of PrimCast HC in the crafted §3.2 scenario, against the analytic bound
``min(5Δ, 4Δ + 2ε)``. Plain PrimCast (no synchronized clocks) is the
``ε → ∞`` end of the curve. This is the controlled-experiment version of
the Fig 4/5 convoy claim: one step (2ε ≪ Δ) of failure-free latency is
recovered by loosely synchronized clocks, and badly synchronized clocks
can never make things worse than plain PrimCast.
"""

import pytest

from repro.harness.analytic import hybrid_clock_failure_free_ms
from repro.harness.report import format_table
from repro.harness.steps import measure_primcast_convoy

DELTA_MS = 10.0
EPSILONS = (0.25, 0.5, 1.0, 2.0, 4.0)


def test_hybrid_clock_epsilon_sweep():
    plain = measure_primcast_convoy(hybrid=False, delta_ms=DELTA_MS)
    rows = [
        [
            "plain (no sync clocks)",
            "-",
            f"{plain['analytic_steps']:.2f}",
            f"{plain['measured_steps']:.2f}",
        ]
    ]
    results = {}
    for eps in EPSILONS:
        r = measure_primcast_convoy(hybrid=True, delta_ms=DELTA_MS, epsilon_ms=eps)
        results[eps] = r
        bound_steps = hybrid_clock_failure_free_ms(DELTA_MS, eps) / DELTA_MS
        rows.append(
            [
                f"HC eps={eps}ms",
                f"{2 * eps / DELTA_MS:.2f} steps pairwise skew",
                f"{bound_steps:.2f}",
                f"{r['measured_steps']:.2f}",
            ]
        )
    print("\n== Ablation: hybrid-clock skew sweep (worst-case convoy, steps of delta) ==")
    print(
        format_table(
            ["variant", "skew", "bound min(5, 4+2e/d)", "measured"], rows
        )
    )

    # Monotone in epsilon, always within the bound, never above plain.
    prev = 0.0
    for eps in EPSILONS:
        measured = results[eps]["measured_steps"]
        bound = hybrid_clock_failure_free_ms(DELTA_MS, eps) / DELTA_MS
        assert measured <= bound + 0.01
        assert measured <= plain["measured_steps"] + 0.01
        assert measured >= prev - 0.01
        prev = measured
    # With 2*eps an order of magnitude below delta, almost a full step
    # of the convoy is recovered.
    assert results[0.5]["measured_steps"] < plain["measured_steps"] - 0.7
