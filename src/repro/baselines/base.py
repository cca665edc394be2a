"""Shared plumbing for the baseline protocols.

All protocols in this repo (PrimCast and the baselines it is evaluated
against) expose the same duck-typed endpoint surface, so the workload
harness can swap them freely:

* ``a_multicast(dest_groups, payload) -> Multicast``
* ``add_deliver_hook(hook)`` with ``hook(process, multicast, final_ts)``
* ``delivery_log`` — ``[(mid, final_ts, sim_time), ...]``
* ``delivered`` — set of delivered mids
* ``gid`` — the process's group id
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Set, Tuple

from ..core.config import GroupConfig
from ..core.messages import MessageId, Multicast
from ..rmcast.fifo import RMcastProcess
from ..sim.costs import CostModel
from ..sim.events import Scheduler
from ..sim.network import Network

DeliverHook = Callable[["GroupProtocolProcess", Multicast, int], None]


class GroupProtocolProcess(RMcastProcess):
    """Base for group-based atomic multicast processes."""

    def __init__(
        self,
        pid: int,
        config: GroupConfig,
        scheduler: Scheduler,
        network: Network,
        cost_model: Optional[CostModel] = None,
        batching_ms: float = 0.0,
    ):
        super().__init__(pid, scheduler, network, cost_model, batching_ms=batching_ms)
        if pid not in config.group_of:
            raise ValueError(f"pid {pid} is not a member of any group")
        self.config = config
        self.gid = config.group_of[pid]
        self.group_members = config.members(self.gid)
        self.delivered: Set[MessageId] = set()
        self.delivery_log: List[Tuple[MessageId, int, float]] = []
        self.deliver_hooks: List[DeliverHook] = []
        self._next_seq = 0

    def add_deliver_hook(self, hook: DeliverHook) -> None:
        """Register ``hook(process, multicast, final_ts)`` on a-deliver."""
        self.deliver_hooks.append(hook)

    def a_multicast(self, dest: Iterable[int], payload: Any = None) -> Multicast:
        """Atomically multicast ``payload`` to destination groups."""
        mid = (self.pid, self._next_seq)
        self._next_seq += 1
        multicast = Multicast(mid, frozenset(dest), payload)
        self.a_multicast_m(multicast)
        return multicast

    def a_multicast_m(self, multicast: Multicast) -> None:
        """Protocol-specific submission; override."""
        raise NotImplementedError

    def _record_delivery(self, multicast: Multicast, final_ts: int) -> None:
        self.delivered.add(multicast.mid)
        self.delivery_log.append((multicast.mid, final_ts, self.scheduler.now))
        for hook in self.deliver_hooks:
            hook(self, multicast, final_ts)
