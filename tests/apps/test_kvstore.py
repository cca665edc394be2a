"""Tests for the partitioned KV store application."""

import random

import pytest

from repro.apps import (
    Delete,
    Get,
    Increment,
    KvCluster,
    Put,
    Transaction,
    partition_of,
)


@pytest.fixture
def cluster():
    return KvCluster(n_partitions=3, replicas_per_partition=3)


class TestSharding:
    def test_partition_of_stable(self):
        assert partition_of("alice", 3) == partition_of("alice", 3)

    def test_partition_of_in_range(self):
        for i in range(200):
            assert 0 <= partition_of(f"k{i}", 5) < 5

    def test_all_partitions_used(self):
        hit = {partition_of(f"k{i}", 3) for i in range(100)}
        assert hit == {0, 1, 2}


class TestBasicOps:
    def test_put_then_get(self, cluster):
        results = []
        cluster.submit(Put("alice", 10))
        cluster.submit(Get("alice"), results.append)
        cluster.run()
        assert results == [10]

    def test_put_returns_previous(self, cluster):
        results = []
        cluster.submit(Put("k", "v1"))
        cluster.submit(Put("k", "v2"), results.append)
        cluster.run()
        assert results == ["v1"]

    def test_get_missing_is_none(self, cluster):
        results = []
        cluster.submit(Get("nope"), results.append)
        cluster.run()
        assert results == [None]

    def test_delete(self, cluster):
        results = []
        cluster.submit(Put("k", 1))
        cluster.submit(Delete("k"), results.append)
        cluster.submit(Delete("k"), results.append)
        cluster.run()
        assert results == [True, False]

    def test_increment(self, cluster):
        results = []
        cluster.submit(Increment("ctr", 5), results.append)
        cluster.submit(Increment("ctr", 2), results.append)
        cluster.run()
        assert results == [5, 7]


class TestReplication:
    def test_all_replicas_converge(self, cluster):
        for i in range(30):
            cluster.submit(Put(f"key-{i}", i))
        cluster.run()
        cluster.assert_replicas_converged()

    def test_divergence_detected(self, cluster):
        cluster.submit(Put("k", 1))
        cluster.run()
        some_replica = next(iter(cluster.replicas.values()))
        some_replica.state["poison"] = 1
        with pytest.raises(AssertionError, match="diverged"):
            cluster.assert_replicas_converged()


class TestTransactions:
    def test_cross_partition_transfer_conserves_total(self, cluster):
        # Find two keys on different partitions.
        keys = [f"acct-{i}" for i in range(50)]
        a = next(k for k in keys if partition_of(k, 3) == 0)
        b = next(k for k in keys if partition_of(k, 3) == 1)
        cluster.submit(Put(a, 100))
        cluster.submit(Put(b, 100))
        cluster.run()
        cluster.submit(Transaction([("incr", a, -30), ("incr", b, +30)]))
        cluster.run(until=2000)
        results = {}
        cluster.submit(Get(a), lambda v: results.__setitem__("a", v))
        cluster.submit(Get(b), lambda v: results.__setitem__("b", v))
        cluster.run(until=3000)
        assert results == {"a": 70, "b": 130}
        cluster.assert_replicas_converged()

    def test_transactions_ordered_against_local_ops(self, cluster):
        """A transaction and a local increment on a shared key are
        applied in the same order at every replica of the partition."""
        keys = [f"x-{i}" for i in range(50)]
        a = next(k for k in keys if partition_of(k, 3) == 0)
        b = next(k for k in keys if partition_of(k, 3) == 2)
        for _ in range(10):
            cluster.submit(Transaction([("incr", a, 1), ("incr", b, 1)]))
            cluster.submit(Increment(a, 1))
        cluster.run(until=5000)
        cluster.assert_replicas_converged()
        states = cluster.partition_states(partition_of(a, 3))
        assert states[0][a] == 20

    def test_empty_transaction_rejected(self):
        with pytest.raises(ValueError):
            Transaction([])

    def test_bad_op_rejected(self):
        with pytest.raises(ValueError):
            Transaction([("mul", "k", 2)])


class TestRouting:
    def test_submit_through_wrong_partition_rejected(self, cluster):
        key = next(f"k{i}" for i in range(50) if partition_of(f"k{i}", 3) == 1)
        wrong = cluster.replicas[cluster.system.config.members(0)[0]]
        with pytest.raises(ValueError, match="route the"):
            wrong.submit(Put(key, 1))

    def test_replica_for_picks_touching_partition(self, cluster):
        cmd = Put("somekey", 1)
        replica = cluster.replica_for(cmd)
        assert replica.partition in cmd.partitions(3)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            KvCluster(protocol="zab")


class TestAcrossProtocols:
    @pytest.mark.parametrize("protocol", ["primcast", "whitebox", "fastcast"])
    def test_random_workload_converges(self, protocol):
        cluster = KvCluster(protocol=protocol)
        rng = random.Random(42)
        total = 0
        for i in range(60):
            if rng.random() < 0.6:
                amount = rng.randint(1, 9)
                total += amount
                cluster.submit(Increment(f"acct-{rng.randrange(20)}", amount))
            else:
                src = f"acct-{rng.randrange(20)}"
                dst = f"acct-{rng.randrange(20)}"
                if src != dst:
                    cluster.submit(
                        Transaction([("incr", src, -1), ("incr", dst, 1)])
                    )
        cluster.run(until=20000)
        cluster.assert_replicas_converged()
        held = sum(
            sum(states[0].values())
            for states in (
                cluster.partition_states(p) for p in range(3)
            )
        )
        assert held == total
