"""Table 1's failure-free bounds as a per-message property.

Random concurrent workloads run on the exact-Δ, free-CPU network
Table 1 is measured on (``build_bare_system``). At every destination,
each message's delivery time minus its submit time must stay within
the paper's failure-free bound for its protocol; ``hypothesis.target``
steers the search towards the slowest message.
"""

import pytest
from hypothesis import HealthCheck, given, settings, target
from hypothesis import strategies as st

from repro.harness.steps import build_bare_system

DELTA_MS = 10.0
N_GROUPS = 3
GROUP_SIZE = 3
N_MESSAGES = 60
#: Float slack on a bound, in ms: HC's worst case sits exactly on 4Δ.
TOLERANCE_MS = 1e-6

#: Failure-free bound in Δ at an initial leader and at any other
#: destination. PrimCast HC's is 4Δ + 2ε, and ε = 0 on this network.
BOUNDS = {
    "primcast": (5.0, 5.0),
    "primcast-hc": (4.0, 4.0),
    "fastcast": (8.0, 8.0),
    "whitebox": (5.0, 6.0),
}

workload_st = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=N_GROUPS * GROUP_SIZE - 1),  # sender
        st.sets(st.integers(min_value=0, max_value=N_GROUPS - 1), min_size=1),
        st.floats(min_value=0.0, max_value=10 * DELTA_MS, allow_nan=False),
    ),
    min_size=N_MESSAGES,
    max_size=N_MESSAGES,
)


@pytest.mark.parametrize("protocol", sorted(BOUNDS))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(workload=workload_st)
def test_every_delivery_is_within_table1_bound(protocol, workload):
    system = build_bare_system(protocol, N_GROUPS, GROUP_SIZE, delta_ms=DELTA_MS)
    sched, config, processes = system.scheduler, system.config, system.processes
    submitted = {}

    def submit(sender, dest):
        multicast = processes[sender].a_multicast(dest)
        submitted[multicast.mid] = (sched.now, config.dest_pids(multicast.dest))

    for sender, dest, when in workload:
        sched.call_at(when, submit, sender, frozenset(dest))
    sched.run()

    leaders = {config.initial_leader(gid) for gid in range(config.n_groups)}
    delivered = {
        pid: {mid: at for mid, _ts, at in proc.delivery_log}
        for pid, proc in processes.items()
    }
    worst = [0.0, 0.0]  # in Δ: at an initial leader, elsewhere
    for mid, (sent, dest_pids) in submitted.items():
        for pid in dest_pids:
            elsewhere = pid not in leaders
            latency_ms = delivered[pid][mid] - sent
            bound_ms = BOUNDS[protocol][elsewhere] * DELTA_MS
            assert latency_ms <= bound_ms + TOLERANCE_MS, (pid, mid, latency_ms / DELTA_MS)
            worst[elsewhere] = max(worst[elsewhere], latency_ms / DELTA_MS)
    target(worst[0], label=f"{protocol}: worst latency at an initial leader, in Δ")
    target(worst[1], label=f"{protocol}: worst latency elsewhere, in Δ")
