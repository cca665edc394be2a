"""Tests for the endpoint surface every protocol shares."""

import pytest

from helpers import MiniSystem
from repro.core import GroupProtocolProcess, uniform_groups
from repro.core.messages import Multicast
from repro.sim import ConstantLatency, Network, Scheduler, child_rng


class Dummy(GroupProtocolProcess):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.submitted = []

    def a_multicast_m(self, multicast):
        self.submitted.append(multicast)


def build():
    config = uniform_groups(2, 3)
    sched = Scheduler()
    net = Network(sched, ConstantLatency(1.0), child_rng(1, "b"))
    return config, sched, net


def test_pid_must_belong_to_a_group():
    config, sched, net = build()
    with pytest.raises(ValueError, match="not a member"):
        Dummy(99, config, sched, net)


def test_mids_are_sequential_per_process():
    config, sched, net = build()
    proc = Dummy(0, config, sched, net)
    m1 = proc.a_multicast({0})
    m2 = proc.a_multicast({0, 1})
    assert m1.mid == (0, 0)
    assert m2.mid == (0, 1)


def test_record_delivery_fires_hooks_and_logs():
    config, sched, net = build()
    proc = Dummy(0, config, sched, net)
    seen = []
    proc.add_deliver_hook(lambda p, m, ts: seen.append((m.mid, ts)))
    m = Multicast((9, 9), frozenset({0}))
    proc._record_delivery(m, 42)
    assert seen == [((9, 9), 42)]
    assert proc.delivered == {(9, 9)}
    assert proc.delivery_log[0][:2] == ((9, 9), 42)


def test_gid_matches_config():
    config, sched, net = build()
    assert Dummy(4, config, sched, net).gid == 1


@pytest.mark.parametrize("protocol", ["primcast", "whitebox", "fastcast", "classic"])
def test_unknown_destination_group_is_a_value_error(protocol):
    system = MiniSystem(protocol, n_groups=2)
    with pytest.raises(ValueError, match="unknown destination group 5"):
        system.processes[0].a_multicast({5})
