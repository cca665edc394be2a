"""Watermark-based state GC: truncation safety across epoch changes,
O(suffix) epoch-change payloads, and the bounded-memory steady state."""

from helpers import MiniSystem, random_workload
from repro.core.gc import attach_compaction


def _epoch_change_heavy_run(compaction_interval_ms):
    """Traffic spanning a primary crash, with the periodic state GC for
    an interval > 0; returns (system, daemon or None)."""
    sys_ = MiniSystem(suspect_ms=100.0)
    daemon = None
    if compaction_interval_ms > 0.0:
        daemon = attach_compaction(sys_.scheduler, sys_.processes, compaction_interval_ms)
    for i, (sender, when) in enumerate(
        [(4, 0.0), (1, 2.0), (5, 4.0), (2, 6.0)]
        + [(1 + (i % 2) * 3, 10.0 + 4.0 * i) for i in range(25)]
    ):
        sys_.scheduler.call_at(when, sys_.multicast, sender, frozenset({0, 1}), f"m{i}")
    sys_.injector.crash_at(0, 30.0)
    sys_.scheduler.run(until=600.0)
    return sys_, daemon


def test_gc_on_off_delivery_logs_bit_identical_across_epoch_change():
    """The tentpole legality bar: with the compaction daemon running
    through a primary crash and re-proposal, every process's delivery log
    (mids, final timestamps, delivery times) is bit-identical to the
    GC-off run — truncation never changes what the protocol does."""
    plain, _ = _epoch_change_heavy_run(0.0)
    sys_, daemon = _epoch_change_heavy_run(5.0)
    assert plain.deliveries == sys_.deliveries
    assert sys_.violations() == []
    # The comparison is only meaningful if GC actually truncated state:
    # group 1 saw no epoch change, so its members' reports stay fresh
    # and their T prefixes shrink.
    assert any(
        sys_.processes[pid]._t_base > 0 for pid in sys_.config.members(1)
    )
    assert daemon.freed > 0


def test_watermark_freezes_for_group_with_stale_member_report():
    """After group 0's epoch change, the crashed member's report is
    forever stale, so the survivors' watermark pins at the installed
    base — conservative, never unsafe."""
    sys_, _ = _epoch_change_heavy_run(5.0)
    for pid in (1, 2):
        proc = sys_.processes[pid]
        assert proc._stable_watermark() == proc._t_base


def test_epoch_promise_carries_only_live_suffix():
    """A promise sent after sustained delivered traffic reports
    ``t_base > 0`` and a t_seq of only the untruncated tail — the
    primary change is O(undelivered), not O(messages ever ordered)."""
    sys_ = MiniSystem(n_groups=1, suspect_ms=100.0)
    attach_compaction(sys_.scheduler, sys_.processes, 5.0)
    n = 40
    for i in range(n):
        sys_.scheduler.call_at(
            2.0 * i, sys_.processes[1].a_multicast, frozenset({0}), f"m{i}"
        )
    promises = []

    def trace(src, dst, msg, depart):
        payload = getattr(msg, "payload", None)
        if payload is not None and getattr(payload, "kind", None) == "promise":
            promises.append(payload)
        return depart

    sys_.network.add_transmit_interceptor(trace)
    sys_.injector.crash_at(0, 120.0)
    sys_.scheduler.run(until=300.0)
    assert promises, "no epoch promise observed after the crash"
    for promise in promises:
        assert promise.t_base > 0
        assert promise.t_base + len(promise.t_seq) == n
        assert len(promise.t_seq) < n // 2
    # The epoch change completed and the system still works end-to-end.
    m = sys_.processes[2].a_multicast(frozenset({0}), "after")
    sys_.scheduler.run(until=400.0)
    for pid in (1, 2):
        assert m.mid in [mid for mid, _, _ in sys_.deliveries[pid]]


def test_steady_state_t_list_stays_bounded():
    """Structural memory bound: after a sustained workload plus a report
    refresh round, each process's live T suffix is a small fraction of
    what it delivered (the delivered dedupe set keeps every mid)."""
    sys_ = MiniSystem(n_groups=2, seed=4)
    daemon = attach_compaction(sys_.scheduler, sys_.processes, 5.0)
    random_workload(sys_, 80, seed=12, spread_ms=400.0)
    sys_.run(until=1000.0)
    # Refresh round: acks of these messages carry the workload's
    # deliveries in their dp reports, unlocking truncation of it.
    for _ in range(3):
        sys_.multicast(1, {0, 1})
    sys_.run(until=2000.0)
    assert daemon.freed > 0
    for proc in sys_.processes.values():
        delivered = len(proc.delivered)
        assert delivered > 20
        assert proc._t_base > 0
        assert len(proc.t_list) <= 10, (
            f"pid {proc.pid}: t_list {len(proc.t_list)} after "
            f"{delivered} deliveries"
        )
    assert sys_.violations() == []
