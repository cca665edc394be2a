"""The seeded workload of a net cluster and the client that drives it.

The paper has one workload shape (§7.2): a client colocated with a
replica keeps a fixed number of multicasts outstanding and issues the
next when its own replica a-delivers one. :class:`PlanClient` is that
client on a :class:`~repro.net.host.NetNode`, written against the
process seam only (``post_job`` / ``a_multicast`` / ``add_deliver_hook``
/ ``scheduler.call_after`` / ``scheduler.now``), so the differential's
sim reference runs the same object. The simulator's load points run
:class:`repro.workload.generator.Client`, which submits inline in the
deliver hook where ``PlanClient`` posts a job; merging the two would
move every sim golden.

*What* it submits is a destination plan (:func:`make_client_plans`): a
pure function of the seed, so every node can compute how many messages
its group will deliver — which is what the shutdown barrier needs — and
the sim reference runs the very sequence the cluster ran.

The **sequential shape** — one client, window 1, no arrival process — is
the one whose per-group delivery order the protocol *determines*,
independent of wall-clock timing (DESIGN.md §12): message ``i+1`` is
only proposed after the client's process delivered message ``i``, and
the client's home group is in every destination set, so
``final(i+1) >= ts_home(i+1) > final(i)`` — final timestamps strictly
increase in submission order, even across epoch changes. Each group
therefore delivers exactly the submission-order subsequence addressed to
it, on every backend, every run. Any wider shape (more clients, a wider
window, Poisson arrivals) makes the interleaving timing-dependent, and
the statistical per-group order/agreement checks (:mod:`repro.verify`)
replace the exact differential.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from ..sim.rng import child_rng

MessageId = Tuple[int, int]

#: Retry delay (ms) of a pump that found the transport overloaded.
BACKPRESSURE_RETRY_MS = 5.0

#: Chance that a planned message also goes to each group besides its
#: client's home group.
EXTRA_GROUP_P = 0.5


def make_client_plans(
    n_groups: int,
    n_messages: int,
    seed: int,
    home_gids: List[int],
) -> List[List[FrozenSet[int]]]:
    """Per-client destination plans, one client per ``home_gids`` entry.

    ``n_messages`` total messages are dealt round-robin over the
    clients. Each destination set pins the submitting client's *home*
    group (the group of the node the client runs on) plus every other
    group with probability :data:`EXTRA_GROUP_P`. The pin is load-bearing,
    not cosmetic: a PrimCast submitter only a-delivers messages
    addressed to its own group, and the client frees a window slot
    exactly when the submitter observes its own delivery. A message
    that skipped the home group would occupy its slot forever and wedge
    the client. A pure function of the arguments: every node derives
    the same plans and can count its group's expected deliveries
    without any runtime coordination.
    """
    if n_groups < 1:
        raise ValueError("need at least one group")
    if not home_gids:
        raise ValueError("need at least one client")
    rng = child_rng(seed, "net-open-workload")
    plans: List[List[FrozenSet[int]]] = [[] for _ in home_gids]
    for i in range(n_messages):
        cid = i % len(home_gids)
        home = home_gids[cid]
        d = {home}
        for g in range(n_groups):
            if g != home and rng.random() < EXTRA_GROUP_P:
                d.add(g)
        plans[cid].append(frozenset(d))
    return plans


def plans_expected_count(plans: List[List[FrozenSet[int]]], gid: int) -> int:
    """How many planned messages a member of ``gid`` must deliver."""
    return sum(1 for plan in plans for dests in plan if gid in dests)


@dataclass(eq=False)
class PlanClient:
    """One client on one process: works through ``plan`` keeping at most
    ``window`` of its multicasts outstanding; its own process
    a-delivering one frees the slot.

    * ``rate_hz > 0``: submissions additionally wait for the arrivals of
      a Poisson process drawn from ``rng`` (an arrival that finds the
      window full queues); ``0`` is the closed loop — the whole plan has
      arrived at :meth:`start`.
    * ``blocked``: asked before every submission; ``True`` defers the
      pump by :data:`BACKPRESSURE_RETRY_MS` (the net host passes its
      transport's ``overloaded``).
    * ``hold_after`` / ``on_hold``: once that many of its messages have
      come back, the client stops submitting and calls
      ``on_hold(self)``; it resumes at :meth:`release` (the cluster's
      kill point: nothing new enters the system while the coordinator
      kills a node).
    * ``on_submit(mid, dests, now)``: called for every submission.

    Submissions never run re-entrantly inside another handler (a
    deliver hook, a timer callback): every pump is its own job on the
    process's CPU queue — the handler-atomicity discipline of
    DESIGN.md §10.
    """

    proc: Any
    scheduler: Any
    cid: int
    plan: List[FrozenSet[int]]
    window: int = 1
    rate_hz: float = 0.0
    rng: Any = None
    blocked: Optional[Callable[[], bool]] = None
    hold_after: Optional[int] = None
    on_hold: Optional[Callable[["PlanClient"], None]] = None
    on_submit: Optional[Callable[[MessageId, FrozenSet[int], float], None]] = None
    next: int = field(default=0, init=False)  # next plan index to submit
    backlog: int = field(default=0, init=False)  # arrived but not yet submitted
    held: bool = field(default=False, init=False)
    #: Submit → own delivery, ms, one per message that came back.
    latencies: List[float] = field(default_factory=list, init=False)
    _inflight: Dict[MessageId, float] = field(default_factory=dict, init=False)

    def start(self) -> None:
        self.proc.add_deliver_hook(self._on_deliver)
        if self.rate_hz > 0:
            self._arm_arrival()
        else:
            self.backlog = len(self.plan)
            self._schedule_pump()

    def release(self) -> None:
        """Resume after the hold point."""
        self.held = False
        self._schedule_pump()

    def _arm_arrival(self) -> None:
        # next + backlog = arrivals so far; the rest of the plan still
        # needs an arrival scheduled.
        if self.next + self.backlog < len(self.plan):
            gap_ms = self.rng.expovariate(self.rate_hz) * 1000.0
            self.scheduler.call_after(gap_ms, self._arrival)

    def _arrival(self) -> None:
        self.backlog += 1
        self._arm_arrival()
        self._schedule_pump()

    def _schedule_pump(self, delay: float = 0.0) -> None:
        self.proc.post_job(self._pump, delay)

    def _pump(self) -> None:
        """Submit backlog while the window, the hold point and the
        transport allow."""
        inflight = self._inflight
        while self.backlog > 0 and len(inflight) < self.window and not self.held:
            if self.blocked is not None and self.blocked():
                self._schedule_pump(BACKPRESSURE_RETRY_MS)
                return
            dests = self.plan[self.next]
            mc = self.proc.a_multicast(dests, payload={"c": self.cid, "i": self.next})
            now = self.scheduler.now
            inflight[mc.mid] = now
            self.next += 1
            self.backlog -= 1
            if self.on_submit is not None:
                self.on_submit(mc.mid, dests, now)

    def _on_deliver(self, proc: Any, multicast: Any, final_ts: int) -> None:
        submitted = self._inflight.pop(multicast.mid, None)
        if submitted is None:
            return  # not this client's message
        self.latencies.append(self.scheduler.now - submitted)
        if len(self.latencies) == self.hold_after:
            self.held = True
            if self.on_hold is not None:
                self.on_hold(self)
        else:
            self._schedule_pump()
