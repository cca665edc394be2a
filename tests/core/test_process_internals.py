"""White-box tests of PrimCastProcess internals and edge cases."""

import pytest

from helpers import MiniSystem
from repro.core.epoch import Epoch
from repro.core.messages import Ack, Bump, Multicast, Start
from repro.core.process import FOLLOWER, PRIMARY, PROMISED


def make_multicast(mid, dest):
    return Multicast(mid, frozenset(dest))


class TestAckHandling:
    def test_follower_ignores_ack_from_wrong_epoch_leader(self):
        """Line 42: only acks from the *current* epoch's leader are
        echoed."""
        sys_ = MiniSystem(n_groups=1)
        follower = sys_.processes[1]
        m = make_multicast((9, 0), {0})
        stale_epoch = Epoch(1, 2)  # p2 owns it; not follower's E_cur
        follower._on_ack(2, Ack(m, 0, stale_epoch, 5, 2))
        assert m.mid not in follower.t_by_mid

    def test_follower_echoes_current_primary_ack(self):
        sys_ = MiniSystem(n_groups=1)
        follower = sys_.processes[1]
        m = make_multicast((9, 0), {0})
        follower._on_ack(0, Ack(m, 0, follower.e_cur, 1, 0))
        assert follower.t_by_mid[m.mid] == (follower.e_cur, 1)
        assert (m.mid, follower.e_cur, 1) in follower.my_acks

    def test_primary_does_not_echo_its_own_ack(self):
        sys_ = MiniSystem(n_groups=1)
        primary = sys_.processes[0]
        m = make_multicast((9, 0), {0})
        primary._on_start(9, Start(m))
        acks_before = len(primary.my_acks)
        # Self-delivery of its own ack must not create a second one.
        primary._on_ack(0, Ack(m, 0, primary.e_cur, 1, 0))
        assert len(primary.my_acks) == acks_before

    def test_remote_ack_carries_start(self):
        """Line 47: a remote ack acts as the start tuple, so a primary
        can propose without ever seeing the start message."""
        sys_ = MiniSystem(n_groups=2)
        primary0 = sys_.processes[0]
        m = make_multicast((9, 0), {0, 1})
        remote_epoch = Epoch(0, 3)
        primary0._on_ack(3, Ack(m, 1, remote_epoch, 4, 3))
        assert m.mid in primary0.started
        assert m.mid in primary0.t_by_mid  # proposed immediately

    def test_remote_ack_bumps_clock_and_emits_bump(self):
        sys_ = MiniSystem(n_groups=2)
        follower = sys_.processes[1]
        m = make_multicast((9, 0), {0, 1})
        sent_before = sys_.network.messages_sent
        follower._on_ack(3, Ack(m, 1, Epoch(0, 3), 7, 3))
        sys_.run(until=0.1)
        assert follower.clock == 7
        assert sys_.network.counts_by_kind.get("bump", 0) >= 1

    def test_remote_ack_below_clock_no_bump(self):
        sys_ = MiniSystem(n_groups=2)
        follower = sys_.processes[1]
        follower.clock = 10
        m = make_multicast((9, 0), {0, 1})
        follower._on_ack(3, Ack(m, 1, Epoch(0, 3), 7, 3))
        sys_.run(until=0.1)
        assert sys_.network.counts_by_kind.get("bump", 0) == 0


class TestDeliveryGating:
    def test_promised_process_does_not_deliver(self):
        """Line 53: delivery only in primary/follower roles. Build a
        fully deliverable message by hand, then flip the role."""
        sys_ = MiniSystem(n_groups=1)
        follower = sys_.processes[1]
        m = make_multicast((9, 0), {0})
        follower._on_ack(0, Ack(m, 0, follower.e_cur, 1, 0))  # echo + T
        follower.role = PROMISED
        follower._on_ack(2, Ack(m, 0, follower.e_cur, 1, 2))
        follower._on_ack(1, Ack(m, 0, follower.e_cur, 1, 1))  # own echo
        assert m.mid not in follower.delivered  # gated by the role
        follower.role = FOLLOWER
        follower._try_deliver()
        assert m.mid in follower.delivered

    def test_quorum_clock_gates_delivery(self):
        """A message whose final ts exceeds quorum-clock stays pending."""
        sys_ = MiniSystem(n_groups=2)
        p1 = sys_.processes[1]
        m = make_multicast((9, 0), {0, 1})
        # Feed p1 everything except clock evidence: quorums of acks with
        # a high remote timestamp.
        p1._on_ack(0, Ack(m, 0, Epoch(0, 0), 1, 0))
        for sender in (3, 4):
            p1._on_ack(sender, Ack(m, 1, Epoch(0, 3), 9, sender))
        p1._on_ack(2, Ack(m, 0, Epoch(0, 0), 1, 2))
        assert p1.final_ts(m.mid) == 9
        assert m.mid not in p1.delivered  # quorum-clock still below 9
        # Bumps from a quorum of group members push quorum-clock past 9.
        p1._on_bump(0, Bump(Epoch(0, 0), 9, 0))
        p1._on_bump(2, Bump(Epoch(0, 0), 9, 2))
        p1.clock = 9
        p1._try_deliver()
        assert m.mid in p1.delivered

    def test_min_ts_uses_t_entry(self):
        sys_ = MiniSystem(n_groups=1)
        primary = sys_.processes[0]
        m = make_multicast((9, 0), {0})
        primary._on_start(9, Start(m))
        # Proposed with ts 1; nothing else known.
        assert primary.min_ts(m.mid) == 1

    def test_min_ts_lower_bound_without_proposal(self):
        sys_ = MiniSystem(n_groups=2)
        p1 = sys_.processes[1]
        m = make_multicast((9, 0), {0, 1})
        p1.started[m.mid] = m
        # No T entry: bound comes from 1 + min(leader clock, quorum clock).
        assert p1.min_ts(m.mid) == 1


class TestEpochBookkeeping:
    def test_deferred_clock_tuples_fold_on_install(self):
        sys_ = MiniSystem(n_groups=1)
        follower = sys_.processes[2]
        future = Epoch(1, 1)
        m = make_multicast((9, 0), {0})
        # Ack from a future epoch: ignored by min-clock for now.
        follower._on_ack(1, Ack(m, 0, future, 6, 1))
        assert follower.min_clock(1) == 0
        # Promise + install the future epoch.
        from repro.core.messages import NewEpoch, NewState

        follower._on_new_epoch(1, NewEpoch(future))
        follower._on_new_state(1, NewState(future, [(future, m, 6)], 6))
        assert follower.e_cur == future
        assert follower.min_clock(1) == 6

    def test_new_state_rebuilds_pending_and_heaps(self):
        sys_ = MiniSystem(n_groups=1)
        follower = sys_.processes[1]
        from repro.core.messages import NewEpoch, NewState

        m1 = make_multicast((9, 0), {0})
        m2 = make_multicast((9, 1), {0})
        epoch = Epoch(1, 2)
        follower._on_new_epoch(2, NewEpoch(epoch))
        follower._on_new_state(
            2, NewState(epoch, [(epoch, m1, 1), (epoch, m2, 2)], 2)
        )
        assert follower.queue.pending == {m1.mid, m2.mid}
        assert follower.t_by_mid[m2.mid] == (epoch, 2)

    def test_promise_rejected_below_promised_epoch(self):
        sys_ = MiniSystem(n_groups=1)
        follower = sys_.processes[1]
        from repro.core.messages import NewEpoch

        follower._on_new_epoch(2, NewEpoch(Epoch(5, 2)))
        assert follower.e_prom == Epoch(5, 2)
        sent_before = sys_.network.messages_sent
        follower._on_new_epoch(0, NewEpoch(Epoch(1, 0)))  # stale
        assert follower.e_prom == Epoch(5, 2)

    def test_candidate_selects_longest_t_from_highest_epoch(self):
        sys_ = MiniSystem(n_groups=1, group_size=5)
        candidate = sys_.processes[1]
        from repro.core.messages import EpochPromise, NewEpoch

        candidate._start_epoch_change()
        epoch = candidate.e_prom
        e_old, e_new = Epoch(0, 0), Epoch(1, 4)
        m1, m2 = make_multicast((9, 0), {0}), make_multicast((9, 1), {0})
        long_old = [(e_old, m1, 1), (e_old, m2, 2)]
        short_new = [(e_new, m1, 3)]
        candidate._on_epoch_promise(2, EpochPromise(epoch, 2, 5, e_old, long_old))
        candidate._on_epoch_promise(3, EpochPromise(epoch, 3, 2, e_new, short_new))
        candidate._on_epoch_promise(4, EpochPromise(epoch, 4, 9, e_old, []))
        # Quorum (3 of 5) reached: new-state must carry the T of the
        # HIGHEST e_cur (short_new), not the longest overall, and the
        # max clock over all promises (9).
        assert epoch in candidate._new_state_sent
        sys_.run(until=10)
        assert candidate.t_list == short_new
        assert candidate.clock >= 9


class TestProbeSubscriptions:
    def test_a_hook_sees_only_the_events_it_subscribed_to(self):
        sys_ = MiniSystem(n_groups=2)
        seen = {"all": [], "some": []}
        for proc in sys_.processes.values():
            proc.add_probe_hook(lambda p, event, data: seen["all"].append(event))
            proc.add_probe_hook(lambda p, event, data: seen["some"].append(event), ("deliver",))
        sys_.multicast(0, {0, 1})
        sys_.run_to_quiescence()
        assert set(seen["all"]) == {"start", "propose", "ack_quorum", "deliver"}
        assert seen["some"] == ["deliver"] * 6

    def test_a_step_no_hook_reads_does_not_probe(self, monkeypatch):
        sys_ = MiniSystem(n_groups=2)
        assert all(p.probe_hooks is None and not p.probed for p in sys_.processes.values())
        calls = []
        for proc in sys_.processes.values():
            proc.add_probe_hook(lambda p, event, data: None, ("epoch_change", "truncate"))
            monkeypatch.setattr(proc, "_probe", lambda event, data: calls.append(event))
        sys_.multicast(0, {0, 1})
        sys_.run_to_quiescence()
        assert len(sys_.deliveries[0]) == 1 and calls == []

    def test_an_event_the_protocol_never_fires_is_refused(self):
        proc = MiniSystem(n_groups=1).processes[0]
        with pytest.raises(ValueError, match="unknown probe events"):
            proc.add_probe_hook(lambda p, event, data: None, ("epoch-change",))
        assert proc.probe_hooks is None
        fastcast = MiniSystem(protocol="fastcast", n_groups=1).processes[0]
        with pytest.raises(ValueError, match="truncate"):
            fastcast.add_probe_hook(lambda p, event, data: None, ("truncate",))
