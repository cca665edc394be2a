"""Randomized crash-injection fuzzing with invariant monitors attached.

Random workloads run while primaries (and followers) crash at random
times, within each group's quorum budget. After quiescence we assert
the safety properties over every process's log, a crashed process's
prefix included — integrity, acyclic, prefix and timestamp order — and
agreement among *correct* processes. The invariant
monitors additionally fail fast on any structural violation during the
run. Validity is checked too: every multicast is recorded at
submission, and every correct destination of one whose sender stayed
correct must deliver it.
"""

import random

import pytest

from repro.core import PrimCastProcess, uniform_groups
from repro.election import attach_omegas
from repro.sim import (
    ConstantLatency,
    FailureInjector,
    JitteredLatency,
    Network,
    Scheduler,
    child_rng,
    max_failures,
)
from repro.verify import attach_monitors, collect_violations


def run_fuzz(seed: int, n_groups: int = 2, group_size: int = 3, crashes: int = 2):
    rng = random.Random(seed)
    config = uniform_groups(n_groups, group_size)
    sched = Scheduler()
    net = Network(sched, JitteredLatency(1.0, 0.2), child_rng(seed, "fuzz"))
    procs = {
        pid: PrimCastProcess(pid, config, sched, net) for pid in config.all_pids
    }
    monitors = attach_monitors(procs)
    attach_omegas(procs, suspect_ms=100.0)
    injector = FailureInjector(sched, procs)

    logs = {pid: proc.delivery_log for pid, proc in procs.items()}
    # Recorded at submission, so integrity can see a delivery nobody
    # multicast and validity a multicast nobody delivered.
    multicasts = {}

    def submit(sender, dest, payload):
        m = procs[sender].a_multicast(dest, payload)
        multicasts[m.mid] = m

    # Crash within the quorum budget of each group.
    budget = {g: max_failures(group_size) for g in range(n_groups)}
    crashed = []
    for _ in range(crashes):
        g = rng.randrange(n_groups)
        if budget[g] == 0:
            continue
        budget[g] -= 1
        candidates = [p for p in config.members(g) if p not in crashed]
        victim = rng.choice(candidates)
        crashed.append(victim)
        injector.crash_at(victim, rng.uniform(1.0, 40.0))

    # Random workload; senders that crash mid-run are fine (non-uniform
    # reliable multicast may lose their in-flight messages).
    senders = []
    for i in range(40):
        sender = rng.choice(config.all_pids)
        dest = frozenset(rng.sample(range(n_groups), rng.randint(1, n_groups)))
        when = rng.uniform(0.0, 45.0)
        sched.call_at(when, submit, sender, dest, f"p{i}")
        senders.append((sender, dest, when))

    sched.run(until=3000.0)

    correct = {pid for pid, p in procs.items() if not p.crashed}
    dest_pids = {
        mid: set(config.dest_pids(m.dest)) for mid, m in multicasts.items()
    }
    # Crashes stay within every group's budget and the run quiesces
    # well before its horizon, so validity is owed too.
    assert (
        collect_violations(logs, set(multicasts), dest_pids, correct, validity=True)
        == []
    )
    return logs, crashed, monitors


@pytest.mark.parametrize("seed", range(8))
def test_crash_fuzz_two_groups(seed):
    logs, crashed, monitors = run_fuzz(seed)
    assert any(logs.values())


@pytest.mark.parametrize("seed", [100, 101, 102])
def test_crash_fuzz_five_replicas(seed):
    """Groups of 5 tolerate two crashes each."""
    logs, crashed, monitors = run_fuzz(seed, n_groups=2, group_size=5, crashes=4)
    assert any(logs.values())


@pytest.mark.parametrize("seed", [200, 201])
def test_crash_fuzz_three_groups(seed):
    logs, crashed, monitors = run_fuzz(seed, n_groups=3, crashes=3)
    assert any(logs.values())
