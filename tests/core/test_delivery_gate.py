"""The delivery gate and the one-loop Batch path change no delivery.

``PrimCastProcess._order_blocked`` lets the clock-only call sites of
``_try_deliver`` (a clock that moved in ``_on_ack``, ``_on_bump``) skip
an attempt that cannot succeed. Three angles on "it never withholds a
delivery": the literal ``deliverable`` predicate of Algorithm 1 (built
from :mod:`repro.core.spec`) holds for no pending message after any
r-delivery; a process that always attempts produces the same log; and
the chaos campaign still catches the seeded ordering bug. Then: a
``Batch`` through the one receive loop r-delivers each new envelope once.
"""

import sys

import pytest

from helpers import MiniSystem, random_workload
from repro.chaos.explorer import CaseSpec, run_campaign, run_case
from repro.core.epoch import Epoch
from repro.core.messages import Ack, Bump, Multicast, Start
from repro.core.process import FOLLOWER, PRIMARY, PrimCastProcess
from repro.core.spec import SpecRecorder, attach_spec_recorder
from repro.harness.runner import run_load_point
from repro.rmcast.fifo import Batch, Envelope
from repro.sim.latency import JitteredLatency
from repro.verify import attach_monitors
from repro.workload.scenarios import lan_scenario

#: Chaos cases of (i) and (ii): crashes, partitions and delay spikes from
#: the seed, Ω on, compaction on (``build_system``'s default). Eleven of
#: them change epoch, all but one truncate T; ``lan-sustained`` is the
#: long one (400 messages, truncation throughout).
CHAOS_CASES = (
    [("lan-small", seed) for seed in (0, 1, 2, 3, 4, 5, 8, 10, 13)]
    + [("fig3-reduced", seed) for seed in (0, 2, 3)]
    + [("lan-sustained", 0)]
)


def literally_deliverable(proc, rec):
    """Pending messages for which lines 26-30 hold, by scans over M."""
    config, e_cur = proc.config, proc.e_cur
    leader_clock = rec.min_clock(config, e_cur, e_cur.leader)
    qclock = rec.quorum_clock(config, e_cur)
    found = []
    for mid in sorted(proc.pending):
        final = rec.final_ts(config, mid)
        if final is None or final > leader_clock or final > qclock:
            continue
        if all(
            (final, mid) < (rec.min_ts(config, e_cur, other), other)
            for other in proc.pending
            if other != mid
        ):
            found.append(mid)
    return found


class Tracked(PrimCastProcess):
    """Keeps its instances: ``run_case`` builds the system out of reach."""

    instances = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        type(self).instances.append(self)


class Gated(Tracked):
    pass


class Ungated(Tracked):
    """The clock-only sites always attempt: the flag reads False."""

    _order_blocked = property(lambda self: False, lambda self, value: None)


class Checked(Tracked):
    """Mirrors every r-delivered tuple into a literal M and, after each
    handler, requires that nothing pending is literally deliverable."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.spec = SpecRecorder(self)
        self.checks = 0
        self.epochs = 0
        self.truncated = 0
        self.add_probe_hook(self._count)
        for cls, handler in list(self._r_dispatch.items()):
            self._r_dispatch[cls] = self._checked(handler)

    def _count(self, proc, event, data):
        self.epochs += event == "epoch_change"
        self.truncated += len(data) if event == "truncate" else 0

    def _checked(self, handler):
        def run(origin, payload):
            self.spec.record(origin, payload)
            handler(origin, payload)
            if self.role in (PRIMARY, FOLLOWER) and not self._chaos_no_quorum_wait:
                self.checks += 1
                left = literally_deliverable(self, self.spec)
                assert not left, f"pid {self.pid} withheld {left} after {payload!r}"

        return run


def _mini(cls, monkeypatch, **kwargs):
    monkeypatch.setattr("helpers.PrimCastProcess", cls)
    return MiniSystem(**kwargs)


def _chaos(cls, monkeypatch, scenario, seed):
    cls.instances = []
    monkeypatch.setattr("repro.harness.runner.PrimCastProcess", cls)
    result = run_case(CaseSpec(scenario=scenario, seed=seed))
    return result, cls.instances


# -- (i) nothing deliverable is left pending ----------------------------


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_nothing_pending_is_deliverable_after_any_r_delivery(seed, monkeypatch):
    sys_ = _mini(Checked, monkeypatch, n_groups=3, group_size=3)
    random_workload(sys_, 30, seed=seed, spread_ms=20)
    sys_.run_to_quiescence()
    procs = sys_.processes.values()
    assert all(not p.pending and p.delivery_log for p in procs)
    assert sum(p.checks for p in procs) > 1000


@pytest.mark.parametrize("seed", [7, 8])
def test_nothing_pending_is_deliverable_with_jitter(seed, monkeypatch):
    sys_ = _mini(Checked, monkeypatch, n_groups=2, group_size=5,
                 latency=JitteredLatency(2.0, 0.3), seed=seed)
    random_workload(sys_, 40, seed=seed, spread_ms=15)
    sys_.run_to_quiescence()
    assert all(not p.pending and p.delivery_log for p in sys_.processes.values())


def test_nothing_pending_is_deliverable_under_chaos(monkeypatch):
    with_epoch_change = with_truncation = 0
    for scenario, seed in CHAOS_CASES:
        result, procs = _chaos(Checked, monkeypatch, scenario, seed)
        assert not result.violations, (scenario, seed, result.violations)
        assert sum(p.checks for p in procs) > 200
        with_epoch_change += any(p.epochs for p in procs)
        with_truncation += any(p.truncated for p in procs)
    # The cases did exercise what the gate must survive.
    assert with_epoch_change >= 8 and with_truncation >= 8


# -- (ii) always attempting changes nothing -----------------------------


def _logs(procs):
    return {p.pid: list(p.delivery_log) for p in procs}


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_gated_and_ungated_logs_are_identical_on_random_runs(seed, monkeypatch):
    logs = {}
    for cls in (Gated, Ungated):
        sys_ = _mini(cls, monkeypatch, n_groups=3, group_size=3)
        random_workload(sys_, 30, seed=seed, spread_ms=20)
        sys_.run_to_quiescence()
        logs[cls] = (_logs(sys_.processes.values()), sys_.scheduler.events_processed)
    assert logs[Gated] == logs[Ungated]


@pytest.mark.parametrize("scenario,seed", CHAOS_CASES)
def test_gated_and_ungated_logs_are_identical_under_chaos(scenario, seed, monkeypatch):
    gated, gated_procs = _chaos(Gated, monkeypatch, scenario, seed)
    ungated, ungated_procs = _chaos(Ungated, monkeypatch, scenario, seed)
    assert _logs(gated_procs) == _logs(ungated_procs)
    assert gated.to_dict() == ungated.to_dict()  # events, crashes, violations
    assert any(log for log in _logs(gated_procs).values())


def test_the_gate_closes_and_saves_attempts(monkeypatch):
    # Not vacuous: on the same run the gated process attempts less.
    attempts = {Gated: 0, Ungated: 0}

    def counted(self):
        attempts[type(self)] += 1
        PrimCastProcess._try_deliver(self)

    monkeypatch.setattr(Tracked, "_try_deliver", counted)
    for cls in attempts:
        sys_ = _mini(cls, monkeypatch, n_groups=3, group_size=3)
        random_workload(sys_, 30, seed=1, spread_ms=20)
        sys_.run_to_quiescence()
    assert 0 < attempts[Gated] < 0.8 * attempts[Ungated]


# -- (iii) the seeded ordering bug is still found -----------------------


def test_no_quorum_wait_mutation_is_still_caught_by_the_ci_campaign():
    report = run_campaign("fig3-reduced", list(range(8)), mutation="no-quorum-wait")
    props = {v.prop for case in report.failing_cases for v in case.violations}
    assert props & {"acyclic-order", "timestamp-order", "prefix-order"}


# -- (iv) a Batch through the one loop ----------------------------------


def _batch():
    """From pid 0 (the primary of group 0) to follower 1: a start and the
    primary's ack for it, a duplicate seq, a bump, an ack from group 1's
    primary, and a straggler below pid 0's watermark."""
    m1 = Multicast((0, 0), frozenset({0}), "a")
    m2 = Multicast((0, 1), frozenset({0, 1}), "b")
    e0 = Epoch(0, 0)
    dests = (0, 1, 2)
    return Batch((
        Envelope(0, 0, Start(m1), dests),
        Envelope(0, 1, Ack(m1, 0, e0, 1, 0, (e0, 0)), dests),
        Envelope(0, 1, Ack(m1, 0, e0, 1, 0, (e0, 0)), dests),  # duplicate seq
        Envelope(0, 2, Bump(e0, 5, 0, (e0, 0)), dests),
        Envelope(3, 0, Ack(m2, 1, Epoch(0, 3), 4, 3), dests),
        Envelope(0, 1, Bump(e0, 9, 0), dests),  # below the watermark by now
    ))


def _record_dispatch(proc):
    seen = []
    for cls, handler in list(proc._r_dispatch.items()):
        def run(origin, payload, handler=handler):
            seen.append((origin, payload))
            handler(origin, payload)
        proc._r_dispatch[cls] = run
    return seen


def _state(proc):
    return (
        [(e, m.mid, ts) for e, m, ts in proc.t_list], proc.clock, dict(proc.clocks.values),
        dict(proc.rm._dedupe_high), sorted(proc.pending), sorted(proc.my_acks),
        list(proc.delivery_log), dict(proc.network.counts_by_kind),
    )


def _follower():
    return MiniSystem(n_groups=2, group_size=3).processes[1]


def test_batch_r_delivers_each_new_envelope_once_in_order():
    batch = _batch()
    envs = batch.envelopes
    proc = _follower()
    got = _record_dispatch(proc)
    proc.on_message(0, batch)
    assert got == [
        (0, envs[0].payload),  # start
        (0, envs[1].payload),  # ack; its duplicate is dropped
        (0, envs[3].payload),  # bump
        (3, envs[4].payload),  # group 1's ack; the straggler is dropped
    ]
    assert proc.rm._dedupe_high == {0: 2, 3: 0}

    # One envelope at a time: the same loop, the same outcome.
    single = _follower()
    got_single = _record_dispatch(single)
    for env in envs:
        single.on_message(0, env)
    assert got_single == got and _state(single) == _state(proc)


@pytest.mark.parametrize("order", ["recorder-first", "monitor-first"])
def test_batch_honours_on_r_deliver_wrapped_on_the_instance(order):
    """Instrumentation attached to one process (a spec recorder and an
    invariant monitor wrapping its ``_r_dispatch`` entries) sees every
    r-delivery of a ``Batch`` once and leaves the outcome unchanged."""
    batch = _batch()
    plain = _follower()
    want = _record_dispatch(plain)
    plain.on_message(0, batch)

    proc = _follower()
    got = _record_dispatch(proc)
    if order == "recorder-first":
        recorder = attach_spec_recorder(proc)
        (monitor,) = attach_monitors([proc])
    else:
        (monitor,) = attach_monitors([proc])
        recorder = attach_spec_recorder(proc)
    proc.on_message(0, batch)
    assert got == want and _state(proc) == _state(plain)
    assert monitor.checks_run == len(want) == 4
    assert len(recorder.acks) == 2 and len(recorder.bumps) == 1
    assert recorder.starts == {(0, 0), (0, 1)}


# -- pins: calls per Batch, blocker scans per delivery ------------------


def _python_calls(fn) -> int:
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return count


def _convoy_follower(n=14):
    """Follower 1 of group 0 at saturation: ``n`` global messages in T,
    their group-0 timestamps decided; all but the first also have their
    final, and wait at line 30 behind that first one. Returns it and the
    Batch that arrives next: group-mate 2's ``n`` late acks, each of
    which moves 2's clock and decides nothing."""
    proc = MiniSystem(n_groups=2, group_size=3).processes[1]
    e0, e1 = Epoch(0, 0), Epoch(0, 3)
    everyone = (0, 1, 2, 3, 4, 5)
    ms = [Multicast((0, i), frozenset({0, 1}), "x" * 64) for i in range(n)]
    for i, m in enumerate(ms):
        for sender in (0, 1):
            proc.on_message(sender, Envelope(sender, i, Ack(m, 0, e0, i + 1, sender), everyone))
    for i, m in enumerate(ms[1:], 1):
        for sender in (3, 4):
            proc.on_message(sender, Envelope(sender, i, Ack(m, 1, e1, 1, sender), everyone))
    assert len(proc.pending) == n and len(proc._finals_heap) == n - 1 and not proc.delivery_log
    late = (Envelope(2, i, Ack(m, 0, e0, i + 1, 2), everyone) for i, m in enumerate(ms))
    return proc, Batch(tuple(late))


def test_call_count_to_handle_a_14_ack_batch_at_a_follower():
    """Python-level calls for one ``on_message(Batch of 14 acks)``.

    Parent: 129 — per envelope ``handle`` → ``on_r_deliver`` → ``_on_ack``
    → ``add_ack``, then a delivery attempt (``_try_deliver``,
    ``quorum_clock``, ``quorum_clock_value``, ``_pending_min_excluding``)
    that re-finds the same line-30 blocker. Now: 30 — one loop, and no
    attempt while the gate is closed. Ceiling = the new count + 10 %.
    """
    proc, batch = _convoy_follower()
    assert _python_calls(lambda: proc.on_message(2, batch)) <= 33
    assert proc.clocks.values[2] == 14 and len(proc.pending) == 14  # all handled, none delivered
    # The gate opens with the decision the convoy waited for.
    m0 = proc.started[(0, 0)]
    for sender in (3, 4):
        proc.on_message(sender, Envelope(sender, 14, Ack(m0, 1, Epoch(0, 3), 1, sender), (0, 1, 2, 3, 4, 5)))
    assert [mid for mid, _, _ in proc.delivery_log] == [(0, i) for i in range(14)]


def test_call_count_blocker_scans_per_delivered_message():
    """``_pending_min_excluding`` calls per delivered message on a fixed
    sim point (LAN 8x3, d=2, 16 outstanding, seed 1, 20 + 60 ms; 205,528
    events, 12,470 deliveries).

    Parent: 53,542 calls = 4.29 per delivery; now 34,458 = 2.76 (ratio
    0.64). Ceiling 3.0.
    """
    calls = deliveries = 0
    scan = PrimCastProcess._pending_min_excluding
    deliver = PrimCastProcess._deliver

    def counted_scan(self, exclude):
        nonlocal calls
        calls += 1
        return scan(self, exclude)

    def counted_deliver(self, mid, final):
        nonlocal deliveries
        deliveries += 1
        deliver(self, mid, final)

    PrimCastProcess._pending_min_excluding = counted_scan
    PrimCastProcess._deliver = counted_deliver
    try:
        result = run_load_point("primcast", lan_scenario(), 2, 16, seed=1,
                                warmup_ms=20.0, measure_ms=60.0)
    finally:
        PrimCastProcess._pending_min_excluding = scan
        PrimCastProcess._deliver = deliver
    assert result.events == 205_528 and deliveries == 12_470  # the point did not move
    assert calls / deliveries <= 3.0
