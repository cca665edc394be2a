"""A partitioned, replicated key-value store over atomic multicast.

The application class the paper's introduction motivates: state sharded
across replica groups, atomic multicast as the ordering layer for both
single-partition commands and cross-partition transactions — the role
ad-hoc timestamping schemes play in Spanner/Granola ([12, 13] in the
paper) and atomic multicast plays in [18, 39].

Design:

* one **partition** per replica group; keys are sharded by hash;
* commands are a-multicast to the partitions they touch: GET/PUT/DELETE
  are *local* messages, multi-key transactions are *global*;
* every replica of a destination partition applies the command at
  a-delivery, in delivery order — atomic multicast's partial order makes
  the partition replicas identical and cross-partition transactions
  atomic (every involved partition orders them the same way relative to
  all other commands);
* results are produced at the replica the client is attached to, when
  that replica delivers the command.

Transactions are deterministic multi-key read-modify-writes (set /
increment); conditions are evaluated against the partition-local state
at apply time, which is consistent everywhere because delivery order is.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from ..core.messages import MessageId, Multicast

ResultCallback = Callable[[Any], None]


def partition_of(key: str, n_partitions: int) -> int:
    """Stable key → partition mapping (sharding)."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % n_partitions


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


class Command:
    """Base class; subclasses define which keys they touch."""

    def keys(self) -> List[str]:
        raise NotImplementedError

    def partitions(self, n_partitions: int) -> FrozenSet[int]:
        return frozenset(partition_of(k, n_partitions) for k in self.keys())


class Put(Command):
    """Set ``key`` to ``value``; returns the previous value."""

    __slots__ = ("key", "value")

    def __init__(self, key: str, value: Any):
        self.key = key
        self.value = value

    def keys(self) -> List[str]:
        return [self.key]


class Get(Command):
    """Linearizable read of ``key`` (ordered like any other command)."""

    __slots__ = ("key",)

    def __init__(self, key: str):
        self.key = key

    def keys(self) -> List[str]:
        return [self.key]


class Delete(Command):
    """Remove ``key``; returns whether it existed."""

    __slots__ = ("key",)

    def __init__(self, key: str):
        self.key = key

    def keys(self) -> List[str]:
        return [self.key]


class Increment(Command):
    """Add ``amount`` to an integer key (missing = 0)."""

    __slots__ = ("key", "amount")

    def __init__(self, key: str, amount: int = 1):
        self.key = key
        self.amount = amount

    def keys(self) -> List[str]:
        return [self.key]


class Transaction(Command):
    """A deterministic multi-key write batch, atomic across partitions.

    ``ops`` is a list of ("set", key, value) / ("incr", key, amount)
    tuples. Every involved partition applies its slice of the ops at the
    transaction's single position in the global partial order.
    """

    __slots__ = ("ops",)

    def __init__(self, ops: List[Tuple]):
        if not ops:
            raise ValueError("transaction needs at least one operation")
        for op in ops:
            if op[0] not in ("set", "incr"):
                raise ValueError(f"unknown transaction op {op[0]!r}")
        self.ops = list(ops)

    def keys(self) -> List[str]:
        return [op[1] for op in self.ops]


# ----------------------------------------------------------------------
# replica-side state machine
# ----------------------------------------------------------------------


class KvReplica:
    """Applies delivered commands to one partition's state.

    Attach to any protocol process exposing the common endpoint surface
    (``a_multicast`` / ``add_deliver_hook`` / ``gid`` / ``scheduler``) —
    PrimCast or any baseline, on any backend. The replica reads time
    from the process's scheduler (simulated ms or real wall ms,
    whichever the backend speaks) to measure per-command submit→apply
    latency.
    """

    def __init__(self, process: Any, n_partitions: int):
        self.process = process
        self.partition = process.gid
        self.n_partitions = n_partitions
        self.state: Dict[str, Any] = {}
        self.applied_log: List[MessageId] = []
        #: submit→apply latency (ms in the scheduler's clock) for
        #: commands submitted at this replica.
        self.latencies_ms: List[float] = []
        self._submit_times: Dict[MessageId, float] = {}
        self._callbacks: Dict[MessageId, ResultCallback] = {}
        process.add_deliver_hook(self._on_deliver)

    # -- client side -----------------------------------------------------

    def submit(self, command: Command, on_done: Optional[ResultCallback] = None) -> Multicast:
        """a-multicast ``command`` to the partitions it touches.

        ``on_done(result)`` fires when *this* replica delivers and
        applies the command; this replica's partition must be one of the
        command's destinations (clients talk to a replica of a partition
        they touch, as in the paper's workload).
        """
        dests = command.partitions(self.n_partitions)
        if self.partition not in dests:
            raise ValueError(
                f"command touches partitions {sorted(dests)} but this "
                f"replica serves partition {self.partition}; route the "
                f"command to a replica of one of its partitions"
            )
        multicast = self.process.a_multicast(dests, payload=command)
        self._submit_times[multicast.mid] = self.process.scheduler.now
        if on_done is not None:
            self._callbacks[multicast.mid] = on_done
        return multicast

    # -- replica side ----------------------------------------------------

    def _on_deliver(self, proc: Any, multicast: Multicast, final_ts: int) -> None:
        command = multicast.payload
        result = self._apply(command)
        self.applied_log.append(multicast.mid)
        submitted = self._submit_times.pop(multicast.mid, None)
        if submitted is not None:
            self.latencies_ms.append(self.process.scheduler.now - submitted)
        callback = self._callbacks.pop(multicast.mid, None)
        if callback is not None:
            callback(result)

    def _mine(self, key: str) -> bool:
        return partition_of(key, self.n_partitions) == self.partition

    def _apply(self, command: Command) -> Any:
        if isinstance(command, Put):
            if self._mine(command.key):
                previous = self.state.get(command.key)
                self.state[command.key] = command.value
                return previous
            return None
        if isinstance(command, Get):
            if self._mine(command.key):
                return self.state.get(command.key)
            return None
        if isinstance(command, Delete):
            if self._mine(command.key):
                return self.state.pop(command.key, None) is not None
            return False
        if isinstance(command, Increment):
            if self._mine(command.key):
                value = self.state.get(command.key, 0) + command.amount
                self.state[command.key] = value
                return value
            return None
        if isinstance(command, Transaction):
            applied = 0
            for op in command.ops:
                kind, key = op[0], op[1]
                if not self._mine(key):
                    continue
                if kind == "set":
                    self.state[key] = op[2]
                else:  # incr
                    self.state[key] = self.state.get(key, 0) + op[2]
                applied += 1
            return applied
        raise TypeError(f"unknown command {command!r}")
