"""Closed-loop client workload (§7.2).

One client is colocated with each replica. Every client keeps a fixed
number of *outstanding* multicasts: it issues them through its replica,
and each time one of its messages is a-delivered at that replica, it
records the end-to-end latency and immediately issues the next one.
System load is swept by raising the outstanding count uniformly.

Destination choice follows the paper: the client's own group is always a
destination; the remaining ``n_dest - 1`` groups are drawn uniformly at
random from the others.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Set, Tuple

from ..core.messages import MessageId, Multicast

#: A latency sample: (client pid == replica pid, deliver time ms, latency ms)
Sample = Tuple[int, float, float]


class Client:
    """A closed-loop client attached to one replica.

    Args:
        replica: the protocol process this client submits through (any
            object with ``a_multicast`` / ``add_deliver_hook`` / ``gid``).
        n_dest_groups: destinations per message (own group included).
        n_groups: total groups in the system.
        outstanding: how many multicasts to keep in flight.
        rng: destination-choice randomness.

    Every completed message appends one :data:`Sample` to ``samples``.
    """

    def __init__(
        self,
        replica: Any,
        n_dest_groups: int,
        n_groups: int,
        outstanding: int,
        rng: random.Random,
    ):
        if not 1 <= n_dest_groups <= n_groups:
            raise ValueError(
                f"n_dest_groups must be in [1, {n_groups}], got {n_dest_groups}"
            )
        if outstanding < 1:
            raise ValueError("need at least one outstanding message")
        self.replica = replica
        self.n_dest_groups = n_dest_groups
        self.n_groups = n_groups
        self.outstanding = outstanding
        self.rng = rng
        self.samples: List[Sample] = []
        self.issued = 0
        self.completed = 0
        self.stopped = False
        self._in_flight: Dict[MessageId, float] = {}
        self._other_groups = [g for g in range(n_groups) if g != replica.gid]
        replica.add_deliver_hook(self._on_deliver)

    def start(self) -> None:
        """Issue the initial window of outstanding messages.

        Submission happens on the replica's CPU (clients are colocated
        with their replica, §7.2).
        """
        self.replica.post_job(self._issue_window)

    def _issue_window(self) -> None:
        for _ in range(self.outstanding):
            self._issue_one()

    def _pick_dest(self) -> Set[int]:
        dest = {self.replica.gid}
        if self.n_dest_groups > 1:
            dest.update(self.rng.sample(self._other_groups, self.n_dest_groups - 1))
        return dest

    def _issue_one(self) -> None:
        if self.stopped:
            return
        multicast = self.replica.a_multicast(self._pick_dest())
        self._in_flight[multicast.mid] = self.replica.scheduler.now
        self.issued += 1

    def _on_deliver(self, proc: Any, multicast: Multicast, final_ts: int) -> None:
        sent_at = self._in_flight.pop(multicast.mid, None)
        if sent_at is None:
            return
        now = proc.scheduler.now
        self.samples.append((self.replica.pid, now, now - sent_at))
        self.completed += 1
        self._issue_one()

    def stop(self) -> None:
        """Stop issuing new messages (in-flight ones may still complete)."""
        self.stopped = True


def make_clients(
    replicas: List[Any],
    n_dest_groups: int,
    n_groups: int,
    outstanding: int,
    rng: random.Random,
) -> List[Client]:
    """One client per replica, each with its own derived RNG stream."""
    clients = []
    for replica in replicas:
        client_rng = random.Random(rng.getrandbits(64))
        clients.append(
            Client(replica, n_dest_groups, n_groups, outstanding, client_rng)
        )
    return clients
