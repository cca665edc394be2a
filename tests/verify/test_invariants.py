"""Tests for the runtime invariant monitor."""

import pytest

from helpers import MiniSystem, random_workload
from repro.core.epoch import Epoch
from repro.verify import PropertyViolation, attach_monitors
from repro.verify.invariants import InvariantMonitor
from repro.sim.latency import JitteredLatency


def test_monitors_pass_on_clean_runs():
    sys_ = MiniSystem(n_groups=3, latency=JitteredLatency(1.0, 0.2))
    monitors = attach_monitors(sys_.processes)
    assert len(monitors) == 9
    random_workload(sys_, 50, seed=2)
    sys_.run_to_quiescence()
    assert all(m.checks_run > 0 for m in monitors)


def test_monitors_pass_during_failover():
    sys_ = MiniSystem(suspect_ms=100.0)
    monitors = attach_monitors(sys_.processes)
    for i in range(20):
        sys_.scheduler.call_at(i * 1.0, sys_.processes[4].a_multicast, {0, 1}, None)
    sys_.injector.crash_at(0, 3.0)
    sys_.run(until=300)
    # No PropertyViolation raised and the survivors kept making checks.
    assert all(m.checks_run > 0 for m in monitors if m.proc.pid != 0)


def test_clock_regression_detected():
    sys_ = MiniSystem(n_groups=2)
    monitor = InvariantMonitor(sys_.processes[0])
    sys_.multicast(0, {0})
    sys_.run(until=10)
    sys_.processes[0].clock = -1
    with pytest.raises(PropertyViolation, match="backwards"):
        monitor.check()


def test_epoch_regression_detected():
    sys_ = MiniSystem(n_groups=2)
    monitor = InvariantMonitor(sys_.processes[1])
    sys_.processes[1].e_prom = Epoch(3, 1)
    monitor.check()
    sys_.processes[1].e_prom = Epoch(0, 0)
    sys_.processes[1].e_cur = Epoch(0, 0)
    with pytest.raises(PropertyViolation, match="backwards"):
        monitor.check()


def test_role_inconsistency_detected():
    sys_ = MiniSystem(n_groups=2)
    monitor = InvariantMonitor(sys_.processes[1])
    sys_.processes[1].role = "primary"  # but epoch owned by pid 0
    with pytest.raises(PropertyViolation, match="primary"):
        monitor.check()


def test_pending_not_in_t_detected():
    sys_ = MiniSystem(n_groups=2)
    monitor = InvariantMonitor(sys_.processes[0])
    sys_.processes[0].queue.pending.add(("ghost", 0))
    with pytest.raises(PropertyViolation, match="not in T"):
        monitor.check()


def test_bad_delivery_final_detected():
    sys_ = MiniSystem(n_groups=2)
    proc = sys_.processes[0]
    monitor = InvariantMonitor(proc)
    from repro.core.messages import Multicast

    with pytest.raises(PropertyViolation, match="above own clock"):
        proc._deliver_probe = None
        monitor._on_deliver(proc, Multicast((9, 9), frozenset({0})), proc.clock + 10)


# ----------------------------------------------------------------------
# wrapper composition (monitors + spec recorder)
# ----------------------------------------------------------------------


def _drive(sys_):
    sys_.multicast(0, {0, 1})
    sys_.multicast(3, {0, 1})
    sys_.run_to_quiescence()


def test_monitor_then_spec_recorder_composes():
    from repro.core.spec import attach_spec_recorder

    sys_ = MiniSystem(n_groups=2)
    proc = sys_.processes[0]
    monitor = InvariantMonitor(proc)
    recorder = attach_spec_recorder(proc)
    _drive(sys_)
    assert monitor.checks_run > 0
    assert recorder.acks  # the recorder saw protocol traffic


def test_spec_recorder_then_monitor_composes():
    from repro.core.spec import attach_spec_recorder

    sys_ = MiniSystem(n_groups=2)
    proc = sys_.processes[0]
    recorder = attach_spec_recorder(proc)
    monitor = InvariantMonitor(proc)
    _drive(sys_)
    assert monitor.checks_run > 0
    assert recorder.acks


def _count_r_deliveries(proc):
    """Wrap ``proc``'s dispatch table to list every r-delivered payload."""
    seen = []
    for cls, handler in list(proc._r_dispatch.items()):
        def run(origin, payload, handler=handler):
            seen.append(payload)
            handler(origin, payload)
        proc._r_dispatch[cls] = run
    return seen


def test_monitor_wrap_is_idempotent():
    """Wrapping leaves the process as it was: with two monitors on it, a
    process r-delivers and delivers what an unmonitored one does, and each
    monitor checks once per r-delivery."""
    runs = []
    for n_monitors in (0, 2):
        sys_ = MiniSystem(n_groups=2)
        proc = sys_.processes[0]
        seen = _count_r_deliveries(proc)
        monitors = [InvariantMonitor(proc) for _ in range(n_monitors)]
        _drive(sys_)
        assert [m.checks_run for m in monitors] == [len(seen)] * n_monitors
        kinds = [(type(p).__name__, getattr(p, "mid", None)) for p in seen]
        runs.append((kinds, list(proc.delivery_log)))
    assert runs[0] == runs[1]


def test_second_monitor_after_recorder_still_joins_existing_wrapper():
    """A monitor stacked on a recorder that sits on another monitor runs
    its check as often as the first one: once per r-delivery."""
    from repro.core.spec import attach_spec_recorder

    sys_ = MiniSystem(n_groups=2)
    proc = sys_.processes[0]
    seen = _count_r_deliveries(proc)
    m1 = InvariantMonitor(proc)
    recorder = attach_spec_recorder(proc)
    m2 = InvariantMonitor(proc)
    _drive(sys_)
    assert m1.checks_run == m2.checks_run == len(seen) > 0
    assert recorder.acks


@pytest.mark.parametrize("recorder_at", [0, 2], ids=["recorder-first", "recorder-last"])
def test_recorder_and_two_monitors_stack_in_any_order(recorder_at):
    """Instrumentation wraps dispatch-table entries, so it stacks in any
    order and every layer runs once per r-delivery."""
    from repro.core.messages import Ack, Bump, Start
    from repro.core.spec import attach_spec_recorder

    sys_ = MiniSystem(n_groups=2)
    proc = sys_.processes[0]
    seen = _count_r_deliveries(proc)
    layers = ["monitor", "monitor"]
    layers.insert(recorder_at, "recorder")
    monitors = []
    for layer in layers:
        if layer == "recorder":
            recorder = attach_spec_recorder(proc)
        else:
            monitors.append(InvariantMonitor(proc))
    _drive(sys_)
    assert len(seen) > 10
    assert [m.checks_run for m in monitors] == [len(seen), len(seen)]
    assert len(recorder.acks) == sum(isinstance(p, Ack) for p in seen)
    assert len(recorder.bumps) == sum(isinstance(p, Bump) for p in seen)
    assert recorder.starts == {p.mid for p in seen if isinstance(p, Start)}
