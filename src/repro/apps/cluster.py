"""Convenience cluster wiring for the KV store.

Bundles a protocol deployment built by
:func:`~repro.harness.steps.build_bare_system` (an exact 1 ms network,
free CPUs, static leaders) with one :class:`~repro.apps.kvstore.KvReplica`
per process, and key-based routing for client commands. Primarily a
demonstration vehicle (examples and tests).
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..harness.steps import build_bare_system
from .kvstore import Command, KvReplica, partition_of


class KvCluster:
    """A simulated KV deployment: partitions × replicas + routing."""

    def __init__(
        self,
        n_partitions: int = 3,
        replicas_per_partition: int = 3,
        protocol: str = "primcast",
    ):
        self.n_partitions = n_partitions
        self.scheduler, self.network, self.config, self.processes = build_bare_system(
            protocol, n_partitions, replicas_per_partition, delta_ms=1.0
        )
        self.replicas: Dict[int, KvReplica] = {
            pid: KvReplica(proc, n_partitions) for pid, proc in self.processes.items()
        }

    def replica_for(self, command: Command, index: int = 0) -> KvReplica:
        """A replica serving one of the command's partitions."""
        target = min(command.partitions(self.n_partitions))
        pid = self.config.members(target)[index]
        return self.replicas[pid]

    def submit(self, command: Command, on_done=None) -> None:
        """Route ``command`` to an appropriate replica and submit it."""
        self.replica_for(command).submit(command, on_done)

    def run(self, until: float = 1000.0) -> None:
        """Advance simulated time to ``until`` ms."""
        self.scheduler.run(until=until)

    # -- verification helpers ---------------------------------------------

    def partition_states(self, partition: int) -> List[Dict[str, Any]]:
        """Every replica's state for one partition."""
        return [
            r.state for r in self.replicas.values() if r.partition == partition
        ]

    def assert_replicas_converged(self) -> None:
        """All replicas of each partition hold identical state."""
        for partition in range(self.n_partitions):
            states = self.partition_states(partition)
            first = states[0]
            for state in states[1:]:
                if state != first:
                    raise AssertionError(
                        f"partition {partition} replicas diverged: "
                        f"{state} != {first}"
                    )
