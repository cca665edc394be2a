"""Tests for delivered-state compaction."""

import pytest

from helpers import MiniSystem, random_workload


def test_compaction_frees_delivered_state():
    sys_ = MiniSystem(n_groups=2)
    for _ in range(10):
        sys_.multicast(1, {0, 1})
    sys_.run_to_quiescence()
    proc = sys_.processes[0]
    assert len(proc.acks) == 10
    freed = proc.compact_delivered()
    assert freed == 10
    assert not proc.acks
    assert not proc._final_cache
    assert len(proc.delivered) == 10  # dedup state kept
    assert len(proc.t_list) == 10  # epoch-change state kept


def test_periodic_compaction_does_not_change_results():
    def run(compact):
        sys_ = MiniSystem(n_groups=3, seed=4)
        if compact:
            for proc in sys_.processes.values():
                proc.post_job(
                    lambda p=proc: _compact_loop(p), delay=5.0
                )
        random_workload(sys_, 60, seed=12)
        sys_.run_to_quiescence()
        return {
            pid: [(mid, ts) for mid, ts, _ in log]
            for pid, log in sys_.logs.items()
        }, sys_

    def _compact_loop(proc):
        proc.compact_delivered()
        if not proc.crashed:
            proc.post_job(lambda: _compact_loop(proc), delay=5.0)

    plain, _ = run(compact=False)
    compacted, sys_ = run(compact=True)
    assert plain == compacted
    assert sys_.violations() == []


def test_straggler_ack_after_compaction_is_harmless():
    sys_ = MiniSystem(n_groups=2)
    m = sys_.multicast(4, {0, 1})
    sys_.run_to_quiescence()
    proc = sys_.processes[0]
    proc.compact_delivered()
    from repro.core.messages import Ack

    # A duplicate-ish late ack (e.g. resent after an epoch change).
    proc._on_ack(5, Ack(sys_.multicasts[m.mid], 1, proc.e_cur, 1, 5))
    assert m.mid in proc.delivered
    assert len(proc.delivery_log) == 1  # no re-delivery


def _compact_all(sys_):
    for proc in sys_.processes.values():
        proc.compact_delivered()


def test_watermark_truncates_t_after_reports_refresh():
    """Delivered-prefix reports piggyback on acks, so they lag deliveries
    by the in-flight window: after one quiescent round the watermark is
    still behind, and a second round of traffic (whose acks carry the
    round-1 deliveries) unlocks truncation of the round-1 prefix."""
    sys_ = MiniSystem(n_groups=2)
    round1 = [sys_.multicast(1, {0, 1}) for _ in range(10)]
    sys_.run(until=1000.0)
    _compact_all(sys_)
    # Round 2 refreshes every member's report past the round-1 prefix.
    for _ in range(3):
        sys_.multicast(1, {0, 1})
    sys_.run(until=2000.0)
    _compact_all(sys_)
    for proc in sys_.processes.values():
        assert proc._t_base >= 10, f"pid {proc.pid} t_base {proc._t_base}"
        assert len(proc.t_list) <= 3
        dropped = {m.mid for m in round1}
        assert not dropped & set(proc.t_by_mid)
        # my_acks tuples of truncated entries are pruned with them...
        assert not {t for t in proc.my_acks if t[0] in dropped}
        # ...while the delivered dedupe set keeps every mid.
        assert dropped <= proc.delivered


def test_daemon_stop_cancels_the_armed_tick_and_is_idempotent():
    from repro.core.gc import attach_compaction

    sys_ = MiniSystem(n_groups=1)
    daemon = attach_compaction(sys_.scheduler, sys_.processes, 5.0)
    sys_.run(until=12.0)
    assert daemon.runs == 2 and sys_.scheduler.pending() == 1
    daemon.stop()
    daemon.stop()
    assert sys_.scheduler.pending() == 0
    sys_.run(until=100.0)
    assert daemon.runs == 2


def test_straggler_rebuilt_tracker_is_swept_by_next_compaction():
    sys_ = MiniSystem(n_groups=2)
    m = sys_.multicast(4, {0, 1})
    sys_.run_to_quiescence()
    proc = sys_.processes[0]
    proc.compact_delivered()
    assert m.mid not in proc.acks
    from repro.core.messages import Ack

    # The straggler ack rebuilds an ack tracker for the delivered mid
    # (observing its clock value must keep feeding the protocol)...
    proc._on_ack(5, Ack(sys_.multicasts[m.mid], 1, proc.e_cur, 1, 5))
    assert m.mid in proc.acks
    # ...and the next sweep reclaims it instead of leaking it forever.
    proc.compact_delivered()
    assert m.mid not in proc.acks
