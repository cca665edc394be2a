#!/usr/bin/env python3
"""A partitioned, replicated key-value store on top of atomic multicast.

This is the application the paper's introduction motivates: state is
sharded across replica groups (one group per partition), single-
partition operations are *local* multicasts ordered only within their
partition, and cross-partition transactions are *global* multicasts that
atomic multicast orders consistently at every involved partition — no
ad-hoc timestamping or two-phase commit required.

The demo runs a little bank on :class:`repro.apps.cluster.KvCluster`:
accounts are sharded by key across 3 partitions (x 3 replicas), clients
issue deposits (an ``Increment``, local) and transfers (a two-op
``Transaction``, cross-partition when the accounts live apart), and at
the end we check that

* all replicas of a partition hold identical state (replication), and
* the total balance across partitions matches deposits (transfers
  neither create nor destroy money — atomicity across partitions).

Run:
    python examples/partitioned_kv.py
"""

from __future__ import annotations

import random

from repro.apps.cluster import KvCluster
from repro.apps.kvstore import Increment, Transaction

N_PARTITIONS = 3
REPLICAS_PER_PARTITION = 3
N_ACCOUNTS = 30
N_OPS = 120


def main() -> None:
    cluster = KvCluster(N_PARTITIONS, REPLICAS_PER_PARTITION)

    rng = random.Random(1234)
    total_deposited = 0
    n_transfers = 0
    for i in range(N_OPS):
        if rng.random() < 0.5:
            account = rng.randrange(N_ACCOUNTS)
            amount = rng.randint(1, 100)
            total_deposited += amount
            command = Increment(f"acct{account}", amount)
        else:
            # Each partition applies its side of the transfer; atomic
            # multicast orders both sides consistently relative to every
            # other operation.
            src, dst = rng.sample(range(N_ACCOUNTS), 2)
            amount = rng.randint(1, 20)
            command = Transaction(
                [("incr", f"acct{src}", -amount), ("incr", f"acct{dst}", amount)]
            )
            if len(command.partitions(N_PARTITIONS)) > 1:
                n_transfers += 1
        cluster.system.scheduler.call_at(i * 0.4, cluster.submit, command)

    cluster.run(until=5000.0)

    # Replication: all replicas of a partition hold identical state.
    cluster.assert_replicas_converged()

    # Atomicity: money is conserved across partitions.
    total = sum(
        sum(cluster.partition_states(gid)[0].values()) for gid in range(N_PARTITIONS)
    )
    applied = sorted({len(r.applied_log) for r in cluster.replicas.values()})
    print(f"partitions: {N_PARTITIONS} x {REPLICAS_PER_PARTITION} replicas")
    print(f"operations applied per replica: {applied}")
    print(f"cross-partition transfers: {n_transfers}")
    print(f"total deposited: {total_deposited}, total held: {total}")
    assert total == total_deposited, "transfers must conserve money"
    print("OK: replicas converged and cross-partition atomicity held")


if __name__ == "__main__":
    main()
