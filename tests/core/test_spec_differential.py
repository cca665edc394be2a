"""Differential tests: incremental predicates vs the literal Algorithm 1.

A :class:`SpecRecorder` mirrors every r-delivered tuple of selected
processes into a literal M set; after random executions we assert the
process's incremental trackers (AckTracker, ClockTracker, final-ts cache)
computed exactly the values the paper's scan-based definitions give.
"""

import random

import pytest

from helpers import MiniSystem, random_workload
from repro.core.spec import attach_spec_recorder
from repro.sim.latency import JitteredLatency


def _attach_all(sys_):
    return {pid: attach_spec_recorder(p) for pid, p in sys_.processes.items()}


def _assert_equivalent(sys_, recorders):
    config = sys_.config
    for pid, proc in sys_.processes.items():
        rec = recorders[pid]
        # min-clock for every group member
        for q in config.members(proc.gid):
            assert proc.min_clock(q) == rec.min_clock(config, proc.e_cur, q), (
                f"min-clock({q}) mismatch at {pid}"
            )
        # quorum-clock
        assert proc.quorum_clock() == rec.quorum_clock(config, proc.e_cur), (
            f"quorum-clock mismatch at {pid}"
        )
        # local-ts and final-ts for every message the process knows
        for mid, m in list(proc.started.items()):
            for gid in m.dest:
                assert proc.local_ts(mid, gid) == rec.local_ts(config, mid, gid), (
                    f"local-ts({mid},{gid}) mismatch at {pid}"
                )
            assert proc.final_ts(mid) == rec.final_ts(config, mid), (
                f"final-ts({mid}) mismatch at {pid}"
            )
        # min-ts for pending messages
        for mid in proc.queue.pending:
            assert proc.min_ts(mid) == rec.min_ts(config, proc.e_cur, mid), (
                f"min-ts({mid}) mismatch at {pid}"
            )


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_predicates_match_spec_on_random_runs(seed):
    sys_ = MiniSystem(n_groups=3, group_size=3)
    recorders = _attach_all(sys_)
    random_workload(sys_, 30, seed=seed, spread_ms=20)
    # Compare at several intermediate points and at quiescence.
    for checkpoint in (5.0, 12.0, 21.0, 35.0):
        sys_.run(until=checkpoint)
        _assert_equivalent(sys_, recorders)
    sys_.run_to_quiescence()
    _assert_equivalent(sys_, recorders)


@pytest.mark.parametrize("seed", [7, 8])
def test_predicates_match_spec_with_jitter(seed):
    sys_ = MiniSystem(
        n_groups=2, group_size=5, latency=JitteredLatency(2.0, 0.3), seed=seed
    )
    recorders = _attach_all(sys_)
    random_workload(sys_, 40, seed=seed, spread_ms=15)
    sys_.run(until=9.0)
    _assert_equivalent(sys_, recorders)
    sys_.run_to_quiescence()
    _assert_equivalent(sys_, recorders)


def test_spec_local_ts_requires_single_epoch_quorum():
    """Acks for the same message from different epochs must not be
    combined into one quorum (Algorithm 1, line 10)."""
    sys_ = MiniSystem(n_groups=2)
    rec = attach_spec_recorder(sys_.processes[0])
    from repro.core.epoch import Epoch
    from repro.core.messages import Ack, Multicast

    m = Multicast((9, 0), frozenset({0}))
    rec.record(1, Ack(m, 0, Epoch(0, 0), 3, 1))
    rec.record(2, Ack(m, 0, Epoch(1, 2), 3, 2))
    assert rec.local_ts(sys_.config, (9, 0), 0) is None
    rec.record(1, Ack(m, 0, Epoch(1, 2), 3, 1))
    assert rec.local_ts(sys_.config, (9, 0), 0) == 3
