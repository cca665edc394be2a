"""The endpoint surface every atomic multicast protocol exposes.

PrimCast and the baselines it is evaluated against share one duck-typed
surface, so the workload harness, the chaos explorer and the net host
can swap them freely:

* ``a_multicast(dest_groups, payload) -> Multicast``
* ``add_deliver_hook(hook)`` with ``hook(process, multicast, final_ts)``
* ``add_probe_hook(hook, events=None)`` with ``hook(process, event,
  data)``, for the named events (default: all of ``PROBE_EVENTS``)
* ``delivery_log`` — ``[(mid, final_ts, time), ...]``
* ``delivered`` — set of delivered mids
* ``gid`` / ``group_members`` — the process's group and its members

The substrate is the structural seam of :mod:`repro.net.runtime`, as
for :class:`~repro.rmcast.fifo.RMcastProcess`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..rmcast.fifo import RMcastProcess
from ..sim.costs import CostModel
from .config import GroupConfig
from .delivery import DeliveryQueue
from .messages import MessageId, Multicast

if TYPE_CHECKING:
    from ..net.runtime import SchedulerAPI, TransportAPI

#: ``hook(process, multicast, final_ts)``; the process parameter is
#: ``Any`` so a hook may annotate the concrete protocol class it serves.
DeliverHook = Callable[[Any, Multicast, int], None]

#: Probe hooks observe protocol step boundaries: ``hook(process, event,
#: data)`` where ``data`` is the message id (or, for PrimCast's
#: ``"epoch_change"``, the new epoch). Every protocol fires ``"deliver"``;
#: PrimCast's further events are listed in ``repro.core.process``.
ProbeHook = Callable[[Any, str, Any], None]


class GroupProtocolProcess(RMcastProcess):
    """Base for group-based atomic multicast processes.

    Subclasses implement :meth:`a_multicast_m`, the bound their
    :attr:`queue` orders by (:meth:`_min_bound`) and :meth:`_deliver`,
    and end every a-delivery in :meth:`_record_delivery`.
    """

    #: The events this protocol's probe hooks can subscribe to.
    PROBE_EVENTS: Tuple[str, ...] = ("deliver",)

    def __init__(
        self,
        pid: int,
        config: GroupConfig,
        scheduler: "SchedulerAPI",
        network: "TransportAPI",
        cost_model: Optional[CostModel] = None,
        batching_ms: float = 0.0,
    ) -> None:
        super().__init__(pid, scheduler, network, cost_model, batching_ms=batching_ms)
        if pid not in config.group_of:
            raise ValueError(f"pid {pid} is not a member of any group")
        self.config = config
        self.gid = config.group_of[pid]
        self.group_members = config.members(self.gid)
        self.delivered: Set[MessageId] = set()  # D
        self.delivery_log: List[Tuple[MessageId, int, float]] = []
        self.deliver_hooks: List[DeliverHook] = []
        # Probe hooks (each with the events it subscribed to) stay None
        # unless installed; ``probed`` is every event some hook reads, so
        # a step boundary no hook reads costs one membership test.
        self.probe_hooks: Optional[List[Tuple[ProbeHook, FrozenSet[str]]]] = None
        self.probed: FrozenSet[str] = frozenset()
        self._next_seq = 0
        self.queue = DeliveryQueue(self._min_bound)

    def a_multicast(self, dest: Iterable[int], payload: Any = None) -> Multicast:
        """Atomically multicast ``payload`` to the destination groups.

        Returns the multicast handle; delivery is signalled through the
        deliver hooks. An unknown destination group is a ``ValueError``.
        """
        groups = frozenset(dest)
        for gid in sorted(groups):
            if not 0 <= gid < self.config.n_groups:
                raise ValueError(f"unknown destination group {gid}")
        mid = (self.pid, self._next_seq)
        self._next_seq += 1
        multicast = Multicast(mid, groups, payload)
        self.a_multicast_m(multicast)
        return multicast

    def a_multicast_m(self, multicast: Multicast) -> None:
        """Protocol-specific submission; override."""
        raise NotImplementedError

    def _min_bound(self, mid: MessageId) -> int:
        """The :class:`~repro.core.delivery.DeliveryQueue` bound: a
        monotone lower bound on pending ``mid``'s final timestamp;
        override."""
        raise NotImplementedError

    def _deliver(self, mid: MessageId, final: int) -> None:
        """a-deliver ``mid``, which :attr:`queue` released; override."""
        raise NotImplementedError

    def _deliver_ready(self, clock: int) -> None:
        """a-deliver, in ``(final-ts, mid)`` order, every message
        :attr:`queue` releases at ``clock``; the queue keeps where it
        stopped (``at_clock_guard``, ``blocker``)."""
        queue = self.queue
        popped = queue.pop_deliverable(clock)
        while popped is not None:
            self._deliver(*popped)
            popped = queue.pop_deliverable(clock)

    def add_deliver_hook(self, hook: DeliverHook) -> None:
        """Register ``hook(process, multicast, final_ts)`` on a-deliver."""
        self.deliver_hooks.append(hook)

    def add_probe_hook(self, hook: ProbeHook, events: Optional[Iterable[str]] = None) -> None:
        """Register ``hook(process, event, data)`` at the protocol step
        boundaries named by ``events`` (default: every one of
        :attr:`PROBE_EVENTS`); an event the protocol does not fire is a
        ``ValueError``."""
        subscribed = frozenset(self.PROBE_EVENTS if events is None else events)
        unknown = subscribed.difference(self.PROBE_EVENTS)
        if unknown:
            raise ValueError(f"unknown probe events {sorted(unknown)}")
        if self.probe_hooks is None:
            self.probe_hooks = []
        self.probe_hooks.append((hook, subscribed))
        self.probed |= subscribed

    def _probe(self, event: str, data: Any) -> None:
        for hook, events in self.probe_hooks or ():
            if event in events:
                hook(self, event, data)

    def _record_delivery(self, multicast: Multicast, final_ts: int) -> None:
        """a-deliver: log it, fire the ``deliver`` probe, then the hooks."""
        mid = multicast.mid
        self.delivered.add(mid)
        self.delivery_log.append((mid, final_ts, self.scheduler.now))
        if "deliver" in self.probed:
            self._probe("deliver", mid)
        for hook in self.deliver_hooks:
            hook(self, multicast, final_ts)
