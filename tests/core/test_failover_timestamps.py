"""Timestamp preservation across primary changes (Algorithm 3, line 79).

After an epoch change, the new primary re-sends the acks for every tuple
in the inherited T with the *original* epoch and timestamp, so quorums
formed partially under the old primary complete consistently.
"""

from helpers import MiniSystem
from repro.core.epoch import Epoch


def test_inherited_tuples_keep_original_epoch_and_ts():
    sys_ = MiniSystem(suspect_ms=100.0)
    # Propose a batch, then crash the primary after its acks left but
    # before delivery completes at the remote group.
    mids = []
    for i in range(5):
        sys_.scheduler.call_at(i * 0.1, lambda: mids.append(sys_.multicast(4, {0, 1}).mid))
    sys_.injector.crash_at(0, 1.3)  # after the proposals were acked out
    sys_.run(until=400)

    new_primary = sys_.processes[1]
    assert new_primary.e_cur.number >= 1
    # Messages the dead primary proposed keep their epoch-0 tuples in
    # the inherited T; messages it never got to propose are re-proposed
    # under the new primary's epoch. No other epochs appear.
    old_epoch = Epoch(0, 0)
    epochs = [e for e, m, ts in new_primary.t_list if m.mid in set(mids)]
    assert len(epochs) == len(mids)
    assert set(epochs) <= {old_epoch, new_primary.e_cur}
    assert old_epoch in epochs, "no tuple was inherited"
    # Inherited tuples appear before re-proposed ones (T order, line 79).
    first_new = min(
        (i for i, e in enumerate(epochs) if e == new_primary.e_cur),
        default=len(epochs),
    )
    assert all(e == old_epoch for e in epochs[:first_new])

    # Deliveries at the surviving members agree on final timestamps.
    finals = {}
    for pid in (1, 2, 3, 4, 5):
        for mid, ts, _ in sys_.logs[pid]:
            assert finals.setdefault(mid, ts) == ts
    assert set(finals) == set(mids)


def test_resent_acks_complete_old_quorums():
    """A follower that saw only the dead primary's ack still decides the
    same local timestamp once survivors re-send theirs."""
    sys_ = MiniSystem(suspect_ms=100.0)
    m = sys_.multicast(4, {0, 1})
    sys_.injector.crash_at(0, 1.4)
    sys_.run(until=400)
    # All survivors decided local-ts(m, g0) = 1 (the dead primary's
    # proposal), not a re-proposed value.
    for pid in (1, 2, 3, 4, 5):
        assert sys_.processes[pid].local_ts(m.mid, 0) == 1, f"pid {pid}"


def test_unproposed_message_reproposed_in_new_epoch():
    """A message the old primary never proposed gets a fresh proposal
    from the new primary, in the new epoch."""
    sys_ = MiniSystem(suspect_ms=100.0)
    sys_.injector.crash_at(0, 0.5)  # dies before the start arrives
    m = sys_.multicast(4, {0, 1})
    sys_.run(until=400)
    epoch, ts = sys_.processes[1].t_by_mid[m.mid]
    assert epoch.leader == 1
    assert epoch.number >= 1
    assert sys_.violations() == []
