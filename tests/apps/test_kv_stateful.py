"""Stateful property-based testing of the KV store (hypothesis).

A rule-based state machine drives a KvCluster with random puts,
increments, deletes and cross-partition transactions, mirroring them
into a plain-dict model. After every burst the simulation quiesces and
the rules assert that the replicated state matches the model exactly and
that all replicas of each partition converged — end-to-end evidence that
atomic multicast linearizes the command stream.
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.apps import Delete, Increment, KvCluster, Put, Transaction, partition_of

KEYS = [f"key-{i}" for i in range(12)]
key_st = st.sampled_from(KEYS)
value_st = st.integers(min_value=-100, max_value=100)


class KvModelMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cluster = None
        self.model = {}

    @initialize()
    def setup(self):
        self.cluster = KvCluster(n_partitions=3, replicas_per_partition=3)
        self.model = {}

    def _settle(self):
        # Commands complete within a handful of steps; quiesce fully.
        self.cluster.run(until=self.cluster.system.scheduler.now + 100.0)

    @rule(key=key_st, value=value_st)
    def put(self, key, value):
        self.cluster.submit(Put(key, value))
        self.model[key] = value
        self._settle()

    @rule(key=key_st, amount=st.integers(min_value=-5, max_value=5))
    def increment(self, key, amount):
        self.cluster.submit(Increment(key, amount))
        self.model[key] = self.model.get(key, 0) + amount
        self._settle()

    @rule(key=key_st)
    def delete(self, key):
        self.cluster.submit(Delete(key))
        self.model.pop(key, None)
        self._settle()

    @rule(src=key_st, dst=key_st, amount=st.integers(min_value=1, max_value=9))
    def transfer(self, src, dst, amount):
        if src == dst:
            return
        self.cluster.submit(
            Transaction([("incr", src, -amount), ("incr", dst, amount)])
        )
        self.model[src] = self.model.get(src, 0) - amount
        self.model[dst] = self.model.get(dst, 0) + amount
        self._settle()

    @invariant()
    def replicated_state_matches_model(self):
        if self.cluster is None:
            return
        merged = {}
        for partition in range(3):
            states = self.cluster.partition_states(partition)
            for state in states[1:]:
                assert state == states[0], f"partition {partition} diverged"
            merged.update(states[0])
        assert merged == self.model


KvModelMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=12, deadline=None
)
TestKvModel = KvModelMachine.TestCase
