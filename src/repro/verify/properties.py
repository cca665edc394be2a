"""Checkers for the atomic multicast properties of §2.2.

These run over per-process delivery logs collected after a simulation:

* **Integrity** — every message delivered at most once per process, and
  only if it was multicast.
* **Uniform agreement** — at quiescence, every correct destination
  process delivered every message any process delivered.
* **Validity** — at quiescence, every correct destination process
  delivered every message a correct process a-multicast.
* **Global total order** — the ≺ relation (m ≺ m' iff some process
  delivers m before m') is acyclic. ≺ is the transitive closure of the
  union of the per-process delivery orders, and a cycle in a closure
  exists iff one exists in the base graph, so we cycle-check the union of
  consecutive-delivery edges (linear time).
* **Uniform prefix order** — for processes p, q both in the destinations
  of m and m', if p delivered m and q delivered m', then p delivered m'
  before m or q delivered m before m'. (O(pairs²); meant for the
  moderate-size runs of the test suite.)
* **Timestamp order** — per-process deliveries happen in non-decreasing
  ``(final_ts, mid)`` order, and all processes agree on each message's
  final timestamp (protocol-level sanity, stronger than required).
* **Genuineness** — only the sender and the destinations of m take
  steps for it (judged over the run's wire traffic, not its logs).

Each checker raises :class:`PropertyViolation` with a counterexample;
:func:`collect_violations` returns them as :class:`Violation` records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..core.messages import MessageId

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.trace import Flight

# One process's log: [(mid, final_ts, time), ...] in delivery order.
DeliveryLog = List[Tuple[MessageId, int, float]]


class PropertyViolation(AssertionError):
    """An atomic multicast property does not hold; message explains.

    Besides the human-readable message, a violation carries structured
    fields so tooling (the chaos explorer, campaign reports) can
    aggregate violations as data instead of parsing strings:

    * ``prop`` — short property name (``"integrity"``,
      ``"uniform-agreement"``, ``"acyclic-order"``, ``"prefix-order"``,
      ``"timestamp-order"``, ``"truncation-safety"``,
      ``"genuineness"``, ``"validity"``, or ``"invariant"`` for
      runtime monitors);
    * ``mids`` — the offending message id(s), possibly empty.
    """

    def __init__(
        self,
        message: str,
        prop: str = "",
        mids: Sequence[MessageId] = (),
    ) -> None:
        super().__init__(message)
        self.prop = prop
        self.mids: Tuple[MessageId, ...] = tuple(mids)


@dataclass(frozen=True)
class Violation:
    """One property violation as a structured record."""

    prop: str
    message: str
    mids: Tuple[MessageId, ...] = field(default=())

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict (message ids become ``[pid, seq]`` lists)."""
        return {
            "prop": self.prop,
            "message": self.message,
            "mids": [list(mid) for mid in self.mids],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Violation":
        """Inverse of :meth:`to_dict` (cache/replay round trip)."""
        return cls(
            prop=str(payload["prop"]),
            message=str(payload["message"]),
            mids=tuple(
                (int(mid[0]), int(mid[1])) for mid in payload.get("mids", [])
            ),
        )

    @classmethod
    def from_exception(cls, exc: PropertyViolation) -> "Violation":
        return cls(prop=exc.prop or "unknown", message=str(exc), mids=exc.mids)


def check_integrity(
    logs: Dict[int, DeliveryLog], multicast_mids: Set[MessageId]
) -> None:
    """No duplicate deliveries; nothing delivered that was not sent."""
    for pid, log in logs.items():
        seen: Set[MessageId] = set()
        for mid, _, _ in log:
            if mid in seen:
                raise PropertyViolation(
                    f"process {pid} delivered {mid} twice",
                    prop="integrity",
                    mids=(mid,),
                )
            seen.add(mid)
            if mid not in multicast_mids:
                raise PropertyViolation(
                    f"process {pid} delivered {mid} which was never a-multicast",
                    prop="integrity",
                    mids=(mid,),
                )


def check_uniform_agreement(
    logs: Dict[int, DeliveryLog],
    dest_pids_of: Dict[MessageId, Set[int]],
    correct_pids: Set[int],
) -> None:
    """If anyone delivered m, every correct destination delivered m.

    Only sound after the run has quiesced (all protocol messages
    processed).
    """
    delivered_by: Dict[int, Set[MessageId]] = {
        pid: {mid for mid, _, _ in log} for pid, log in logs.items()
    }
    anyone: Set[MessageId] = set()
    for mids in delivered_by.values():
        anyone |= mids
    for mid in anyone:
        # A mid that was never a-multicast has no destinations; it is
        # integrity's counterexample, not agreement's.
        for pid in dest_pids_of.get(mid, ()):
            if pid in correct_pids and mid not in delivered_by.get(pid, set()):
                raise PropertyViolation(
                    f"{mid} was delivered somewhere but not at correct "
                    f"destination {pid}",
                    prop="uniform-agreement",
                    mids=(mid,),
                )


def check_validity(
    logs: Dict[int, DeliveryLog],
    multicast_mids: Set[MessageId],
    dest_pids_of: Dict[MessageId, Set[int]],
    correct_pids: Set[int],
) -> None:
    """If a correct process a-multicast m, every correct destination
    delivered m. A mid's origin is its first field.

    Only sound after the run has quiesced, and only where every
    destination group kept a quorum of correct processes.
    """
    delivered_by: Dict[int, Set[MessageId]] = {
        pid: {mid for mid, _, _ in log} for pid, log in logs.items()
    }
    for mid in sorted(multicast_mids):
        if mid[0] not in correct_pids:
            continue
        for pid in sorted(dest_pids_of.get(mid, set())):
            if pid in correct_pids and mid not in delivered_by.get(pid, set()):
                raise PropertyViolation(
                    f"{mid} from correct process {mid[0]} was never "
                    f"delivered at correct destination {pid}",
                    prop="validity",
                    mids=(mid,),
                )


def check_acyclic_order(logs: Dict[int, DeliveryLog]) -> None:
    """Global total order: the union of per-process delivery orders has
    no cycle (iterative three-color DFS)."""
    edges: Dict[MessageId, Set[MessageId]] = {}
    nodes: Set[MessageId] = set()
    for log in logs.values():
        for (a, _, _), (b, _, _) in zip(log, log[1:]):
            edges.setdefault(a, set()).add(b)
            nodes.add(a)
            nodes.add(b)
        if log:
            nodes.add(log[0][0])
    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[MessageId, int] = {n: WHITE for n in nodes}
    for root in nodes:
        if color[root] != WHITE:
            continue
        stack: List[Tuple[MessageId, Optional[Iterator[MessageId]]]] = [
            (root, None)
        ]
        while stack:
            node, it = stack[-1]
            if it is None:
                color[node] = GRAY
                it = iter(edges.get(node, ()))
                stack[-1] = (node, it)
            advanced = False
            for nxt in it:
                if color[nxt] == GRAY:
                    raise PropertyViolation(
                        f"delivery order cycle involving {node} -> {nxt}",
                        prop="acyclic-order",
                        mids=(node, nxt),
                    )
                if color[nxt] == WHITE:
                    stack.append((nxt, None))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()


def check_prefix_order(
    logs: Dict[int, DeliveryLog],
    dest_pids_of: Dict[MessageId, Set[int]],
) -> None:
    """Uniform prefix order (§2.2), checked literally over all pairs."""
    positions: Dict[int, Dict[MessageId, int]] = {
        pid: {mid: i for i, (mid, _, _) in enumerate(log)}
        for pid, log in logs.items()
    }
    pids = sorted(logs)
    no_dests: Set[int] = set()  # a never-multicast mid: integrity's case
    for i, p in enumerate(pids):
        for q in pids[i + 1 :]:
            pos_p, pos_q = positions[p], positions[q]
            for m in pos_p:
                dests = dest_pids_of.get(m, no_dests)
                if p not in dests or q not in dests:
                    continue
                for m2 in pos_q:
                    if m2 == m:
                        continue
                    dests2 = dest_pids_of.get(m2, no_dests)
                    if p not in dests2 or q not in dests2:
                        continue
                    # p delivered m, q delivered m2; one of them must
                    # have delivered the other message first.
                    p_first = m2 in pos_p and pos_p[m2] < pos_p[m]
                    q_first = m in pos_q and pos_q[m] < pos_q[m2]
                    if not (p_first or q_first):
                        raise PropertyViolation(
                            f"prefix order violated: {p} delivered {m}, "
                            f"{q} delivered {m2}, neither saw the other first",
                            prop="prefix-order",
                            mids=(m, m2),
                        )


def check_truncation_safety(
    truncated: Dict[int, Dict[MessageId, float]],
    logs: Dict[int, DeliveryLog],
    dest_pids_of: Dict[MessageId, Set[int]],
    correct_pids: Set[int],
) -> None:
    """State GC only discards messages whose delivery is settled.

    ``truncated`` maps each pid to ``{mid: time}``: the T entries that
    process truncated and when (the ``"truncate"`` probe events of
    ``PrimCastProcess.compact_delivered``, or a net node's
    ``truncate-*.jsonl``), on the clock its delivery log is stamped
    with. Truncation is legal only for the group-stable delivered
    prefix, so every truncated mid must have been a-delivered (1) at
    the truncating process itself, no later than the truncation — its
    log cut at that time — and (2) at quiescence, at every correct
    destination of the message. A violation means the watermark ran
    ahead of delivery and the GC may have destroyed state the protocol
    still needed.
    """
    delivered_by: Dict[int, Set[MessageId]] = {
        pid: {mid for mid, _, _ in log} for pid, log in logs.items()
    }
    for pid in sorted(truncated):
        delivered_at = {mid: t for mid, _, t in logs.get(pid, [])}
        for mid, at in sorted(truncated[pid].items()):
            when = delivered_at.get(mid)
            if when is None or when > at:
                raise PropertyViolation(
                    f"process {pid} truncated {mid} without delivering it",
                    prop="truncation-safety",
                    mids=(mid,),
                )
            for dest in dest_pids_of.get(mid, set()):
                if dest in correct_pids and mid not in delivered_by.get(dest, set()):
                    raise PropertyViolation(
                        f"process {pid} truncated {mid} but correct "
                        f"destination {dest} never delivered it",
                        prop="truncation-safety",
                        mids=(mid,),
                    )


def check_timestamp_order(logs: Dict[int, DeliveryLog]) -> None:
    """Deliveries in non-decreasing (final_ts, mid); consistent finals."""
    finals: Dict[MessageId, Tuple[int, int]] = {}
    for pid, log in logs.items():
        prev: Optional[Tuple[int, MessageId]] = None
        for mid, final, _ in log:
            key = (final, mid)
            if prev is not None and key < prev:
                raise PropertyViolation(
                    f"process {pid} delivered {key} after {prev}",
                    prop="timestamp-order",
                    mids=(prev[1], mid),
                )
            prev = key
            if mid in finals and finals[mid][0] != final:
                raise PropertyViolation(
                    f"{mid} has final ts {final} at {pid} but "
                    f"{finals[mid][0]} at {finals[mid][1]}",
                    prop="timestamp-order",
                    mids=(mid,),
                )
            finals.setdefault(mid, (final, pid))


def check_genuineness(
    flights: Sequence["Flight"],
    dest_pids_of: Dict[MessageId, Set[int]],
    group_of: Dict[int, int],
) -> None:
    """Only the sender and the destinations of m take steps for it: a
    flight (see :func:`repro.sim.trace.record_flights`) carrying a mid
    travels only between members of ``dest(m) ∪ {mid[0]}``, and a
    mid-less one (a bump, epoch-change traffic, a heartbeat) stays
    inside one group. Self-sends are no traffic."""
    for flight in flights:
        src, dst, mid = flight.src, flight.dst, flight.mid
        if src == dst:
            continue
        if mid is None:
            if group_of.get(src) != group_of.get(dst):
                raise PropertyViolation(
                    f"cross-group housekeeping message {flight.kind}: {src} -> {dst}",
                    prop="genuineness",
                )
            continue
        # A mid nobody a-multicast has only its origin to talk to.
        allowed = dest_pids_of.get(mid, set()) | {mid[0]}
        if src not in allowed or dst not in allowed:
            raise PropertyViolation(
                f"non-genuine {flight.kind} traffic for {mid}: {src} -> {dst} "
                f"(allowed: {sorted(allowed)})",
                prop="genuineness",
                mids=(mid,),
            )


def collect_violations(
    logs: Dict[int, DeliveryLog],
    multicast_mids: Set[MessageId],
    dest_pids_of: Dict[MessageId, Set[int]],
    correct_pids: Set[int],
    prefix: bool = True,
    truncated: Optional[Dict[int, Dict[MessageId, float]]] = None,
    flights: Optional[Sequence["Flight"]] = None,
    group_of: Optional[Dict[int, int]] = None,
    validity: bool = False,
) -> List[Violation]:
    """Run every checker; return the violations as :class:`Violation`
    records, one per failing property (each checker stops at its first
    counterexample). An empty list means every property holds.

    ``logs`` holds every process's log, a crashed or killed process's
    prefix included: integrity and the order properties are uniform
    (§2.2) and bind it too, while only ``correct_pids`` carry the
    agreement obligation. Prefix order is optional (it is quadratic).
    ``truncated`` (pid -> {mid: time}, see
    :func:`check_truncation_safety`) adds the state-GC check, and
    ``flights`` with the run's ``group_of`` (pid -> group, see
    :func:`check_genuineness`) the genuineness check. ``validity`` adds
    :func:`check_validity`, owed only at quiescence.
    """
    checkers: List[Callable[[], None]] = [
        lambda: check_integrity(logs, multicast_mids),
        lambda: check_uniform_agreement(logs, dest_pids_of, correct_pids),
        lambda: check_acyclic_order(logs),
        lambda: check_timestamp_order(logs),
    ]
    if prefix:
        checkers.append(lambda: check_prefix_order(logs, dest_pids_of))
    if truncated is not None:
        timed = truncated
        checkers.append(
            lambda: check_truncation_safety(timed, logs, dest_pids_of, correct_pids)
        )
    if flights is not None:
        if group_of is None:
            raise ValueError("judging flights for genuineness needs group_of")
        traffic, groups = flights, group_of
        checkers.append(lambda: check_genuineness(traffic, dest_pids_of, groups))
    if validity:
        checkers.append(
            lambda: check_validity(logs, multicast_mids, dest_pids_of, correct_pids)
        )
    violations: List[Violation] = []
    for checker in checkers:
        try:
            checker()
        except PropertyViolation as exc:
            violations.append(Violation.from_exception(exc))
    return violations
