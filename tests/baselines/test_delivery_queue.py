"""Unit tests for the timestamp-order delivery queue PrimCast and the
three baselines share."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.delivery import DeliveryQueue

A, B, C = ("a", 1), ("b", 1), ("c", 1)


class Bounds:
    """Mutable monotone bound provider."""

    def __init__(self):
        self.values = {}

    def set(self, mid, value):
        assert value >= self.values.get(mid, 0), "bounds must be monotone"
        self.values[mid] = value

    def __call__(self, mid):
        return self.values.get(mid, 0)


@pytest.fixture
def bounds():
    return Bounds()


def test_commit_then_pop(bounds):
    q = DeliveryQueue(bounds)
    q.add_pending(A)
    q.commit(A, 5)
    assert q.pop_deliverable(clock=10) == (A, 5)
    assert q.pop_deliverable(clock=10) is None
    assert A not in q.pending


def test_clock_guard(bounds):
    q = DeliveryQueue(bounds)
    q.add_pending(A)
    q.commit(A, 5)
    assert q.pop_deliverable(clock=4) is None
    assert q.pop_deliverable(clock=5) == (A, 5)


def test_blocked_by_pending_with_smaller_bound(bounds):
    q = DeliveryQueue(bounds)
    q.add_pending(A)
    q.add_pending(B)
    q.commit(A, 5)
    bounds.set(B, 3)
    assert q.pop_deliverable(clock=10) is None  # B may end below 5
    bounds.set(B, 6)
    assert q.pop_deliverable(clock=10) == (A, 5)


def test_equal_bound_ties_break_by_id(bounds):
    q = DeliveryQueue(bounds)
    q.add_pending(A)
    q.add_pending(B)
    q.commit(A, 5)
    bounds.set(B, 5)
    # (5, A) < (5, B): A may go first.
    assert q.pop_deliverable(clock=10) == (A, 5)
    # But B committed at 5 cannot pass a pending (5, A): id order.
    q2 = DeliveryQueue(bounds)
    bounds.values = {}
    q2.add_pending(A)
    q2.add_pending(B)
    q2.commit(B, 5)
    bounds.set(A, 5)
    assert q2.pop_deliverable(clock=10) is None


def test_delivery_in_final_order(bounds):
    q = DeliveryQueue(bounds)
    for mid in (A, B, C):
        q.add_pending(mid)
    for mid, final in ((C, 9), (A, 7), (B, 8)):
        bounds.set(mid, final)
        q.commit(mid, final)
    out = []
    while True:
        popped = q.pop_deliverable(clock=100)
        if popped is None:
            break
        out.append(popped)
    assert out == [(A, 7), (B, 8), (C, 9)]


def test_commit_is_idempotent(bounds):
    q = DeliveryQueue(bounds)
    q.add_pending(A)
    q.commit(A, 5)
    q.commit(A, 99)  # ignored
    assert q.pop_deliverable(clock=100) == (A, 5)
    assert q.pop_deliverable(clock=100) is None


def test_add_pending_idempotent(bounds):
    q = DeliveryQueue(bounds)
    q.add_pending(A)
    q.add_pending(A)
    q.commit(A, 1)
    assert q.pop_deliverable(clock=10) == (A, 1)
    assert q.pop_deliverable(clock=10) is None


def test_stale_bound_refreshed_lazily(bounds):
    q = DeliveryQueue(bounds)
    q.add_pending(A)
    q.add_pending(B)
    q.commit(A, 5)
    # B's heap entry is stale (0); its true bound is already 8.
    bounds.set(B, 8)
    assert q.pop_deliverable(clock=10) == (A, 5)


def test_excluded_entry_restored(bounds):
    """The candidate's own bound entry must survive a failed pop."""
    q = DeliveryQueue(bounds)
    q.add_pending(A)
    q.add_pending(B)
    bounds.set(B, 4)
    q.commit(B, 4)
    bounds.set(A, 2)  # A blocks B
    assert q.pop_deliverable(clock=10) is None
    # Later A commits at 2 and must still be tracked as a blocker/pending.
    q.commit(A, 2)
    assert q.pop_deliverable(clock=10) == (A, 2)
    assert q.pop_deliverable(clock=10) == (B, 4)


def test_many_messages_scale(bounds):
    q = DeliveryQueue(bounds)
    n = 2000
    mids = [("m", i) for i in range(n)]
    for mid in mids:
        q.add_pending(mid)
    for i, mid in enumerate(reversed(mids)):
        q.commit(mid, n - i)
        bounds.set(mid, n - i)
    out = []
    while True:
        popped = q.pop_deliverable(clock=10 * n)
        if popped is None:
            break
        out.append(popped[1])
    assert out == sorted(out)
    assert len(out) == n


def test_delivered_mids_leave_no_state(bounds):
    """The queue holds only pending mids: after 1,000 deliveries, the
    committed set and both heaps name none of the delivered ones."""
    q = DeliveryQueue(bounds)
    delivered = 0
    for i in range(1_010):
        bounds.set(("m", i), i)
        q.add_pending(("m", i))
        if i >= 10:  # the last ten stay pending
            q.commit(("m", i - 10), i - 10)
            while q.pop_deliverable(clock=i) is not None:
                delivered += 1
    assert delivered == 1_000
    assert q.pending == {("m", i) for i in range(1_000, 1_010)}
    assert q._committed == set() and q._commit_heap == []
    assert sorted(mid for _, mid in q._bound_heap) == sorted(q.pending)


def _brute_force(pending, bound, final, clock):
    """The rule scanned literally: the smallest committed ``(final,
    mid)`` goes if it is at or below the clock and strictly below every
    other pending ``(bound, mid)``. Returns (popped, at_clock_guard)."""
    committed = sorted((final[mid], mid) for mid in pending if mid in final)
    if not committed:
        return None, False
    f, mid = committed[0]
    if f > clock:
        return None, True
    if all((f, mid) < (bound[o], o) for o in pending if o != mid):
        return (mid, f), False
    return None, False


OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "commit", "raise", "pop"]),
        st.integers(0, 7),
        st.integers(0, 12),
    ),
    max_size=80,
)


@settings(max_examples=300, deadline=None)
@given(OPS)
def test_pop_deliverable_matches_a_brute_force_scan(ops):
    """Random add_pending / commit / monotone bound raises / pops at
    random clocks: every pop agrees with :func:`_brute_force`, and the
    queue holds state for pending mids only."""
    bound, final, pending, delivered = {}, {}, set(), set()
    q = DeliveryQueue(lambda mid: bound[mid])
    for op, i, n in ops:
        mid = ("m", i)
        if op == "add" and mid not in delivered:
            bound.setdefault(mid, n)
            q.add_pending(mid, bound[mid] // 2)  # any lower bound seeds it
            pending.add(mid)
        elif op == "commit":
            q.commit(mid, bound.get(mid, 0) + n)
            if mid in pending and mid not in final:
                final[mid] = bound[mid] + n
        elif op == "raise" and mid in bound:
            # Monotone, and never above a committed final.
            bound[mid] = min(bound[mid] + n, final.get(mid, bound[mid] + n))
        elif op == "pop":
            want, at_guard = _brute_force(pending, bound, final, clock=n)
            assert q.pop_deliverable(clock=n) == want
            assert q.at_clock_guard == at_guard
            if want is not None:
                pending.discard(want[0])
                delivered.add(want[0])
        assert q.pending == pending
        assert q._committed == {m for m in final if m in pending}
        assert {m for _, m in q._commit_heap} == q._committed
        assert sorted(m for _, m in q._bound_heap) == sorted(pending)
