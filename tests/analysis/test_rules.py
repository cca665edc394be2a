"""Per-rule fixtures: one known-good and one known-bad snippet per rule.

Every rule must *fire* on its bad fixture (proving the pass can catch
the hazard) and stay silent on the good fixture (proving it will not
drown real findings in noise). Snippets are analysed under fake module
names inside the determinism scope.
"""

import ast
import textwrap

import pytest

from repro.analysis import DEFAULT_CONFIG, RULES, AnalysisConfig, ModuleInfo
from repro.analysis.engine import analyze_module


def run_rule(rule_id, source, module="repro.core.fixture", config=DEFAULT_CONFIG):
    src = textwrap.dedent(source)
    mod = ModuleInfo(
        path=f"<{module}>", module=module, tree=ast.parse(src), source=src
    )
    return analyze_module(mod, config, [RULES[rule_id]])


def rules_fired(findings):
    return sorted({f.rule for f in findings})


# ----------------------------------------------------------------------
# DET001 — ambient nondeterminism
# ----------------------------------------------------------------------

DET001_BAD = """
    import random
    import time
    import uuid

    def jitter():
        return random.random() + time.time()

    def stamp():
        return uuid.uuid4()
"""

DET001_GOOD = """
    import random

    from repro.sim.rng import child_rng

    def jitter(rng: random.Random) -> float:
        return rng.uniform(0.0, 1.0)

    def make(seed: int) -> random.Random:
        return random.Random(seed)
"""


def test_det001_fires_on_ambient_randomness_and_wall_clock():
    findings = run_rule("DET001", DET001_BAD)
    assert rules_fired(findings) == ["DET001"]
    messages = " ".join(f.message for f in findings)
    assert "random.random()" in messages
    assert "time.time()" in messages
    assert "uuid" in messages


def test_det001_allows_seeded_child_rngs():
    assert run_rule("DET001", DET001_GOOD) == []


def test_det001_out_of_scope_module_is_ignored():
    # The asyncio transport reads real clocks by design; it is outside
    # the determinism scope.
    assert run_rule("DET001", DET001_BAD, module="repro.net.transport") == []


# ----------------------------------------------------------------------
# DET002 — unsorted set iteration on emission paths
# ----------------------------------------------------------------------

DET002_BAD = """
    class Proc:
        def __init__(self):
            self.peers = set()

        def broadcast(self, msg, table):
            for pid in self.peers:           # set iteration, emits
                self.send(pid, msg)
            for key in table.keys():         # dict.keys() view, emits
                self.send(key, msg)
"""

DET002_GOOD = """
    class Proc:
        def __init__(self):
            self.peers = set()
            self.log = []

        def broadcast(self, msg):
            for pid in sorted(self.peers):   # explicit ordering fence
                self.send(pid, msg)

        def audit(self):
            total = 0
            for pid in self.peers:           # no emission in this scope
                total += pid
            self.log.append(total)
"""


def test_det002_fires_on_unsorted_set_iteration_where_emitting():
    findings = run_rule("DET002", DET002_BAD)
    assert len(findings) == 2
    assert rules_fired(findings) == ["DET002"]


def test_det002_allows_sorted_and_non_emission_scopes():
    assert run_rule("DET002", DET002_GOOD) == []


def test_det002_known_set_attrs_cover_cross_module_frozensets():
    # ``dest`` is set-typed by config even with no local inference.
    source = """
        def fan_out(self, multicast):
            for gid in multicast.dest:
                self.r_multicast(multicast, gid)
    """
    findings = run_rule("DET002", source)
    assert len(findings) == 1
    assert ".dest" in findings[0].message


def test_det002_sorted_provenance_through_locals_is_clean():
    """Flow sensitivity, good direction: a local proven sorted no
    longer needs an allowlist entry (or a sorted() at the loop)."""
    source = """
        class Proc:
            def broadcast(self, msg):
                order = sorted(self.pending)
                targets = list(order)
                for pid in targets:
                    self.send(pid, msg)
    """
    assert run_rule("DET002", source) == []


def test_det002_unsorted_provenance_through_locals_fires():
    """Flow sensitivity, bad direction: raw set contents flowing
    through a local are caught even though the local itself is never
    annotated as a set."""
    source = """
        class Proc:
            def broadcast(self, msg):
                targets = self.pending
                for pid in targets:
                    self.send(pid, msg)
    """
    findings = run_rule("DET002", source)
    assert len(findings) == 1
    assert "local 'targets'" in findings[0].message


def test_det002_ordered_on_one_path_only_degrades_at_the_merge():
    """Provenance is a dataflow fact: sorted on one branch but raw on
    the other must still fire at the merged loop."""
    source = """
        class Proc:
            def broadcast(self, msg, fast):
                if fast:
                    targets = self.pending
                else:
                    targets = sorted(self.pending)
                for pid in targets:
                    self.send(pid, msg)
    """
    findings = run_rule("DET002", source)
    assert len(findings) == 1


# ----------------------------------------------------------------------
# DET003 — ordering by id()/hash()
# ----------------------------------------------------------------------

DET003_BAD = """
    def order(pending):
        return sorted(pending, key=id)

    def pick(pending):
        return min(pending, key=lambda m: hash(m))
"""

DET003_GOOD = """
    def order(pending):
        return sorted(pending, key=lambda m: m.mid)
"""


def test_det003_fires_on_identity_ordering():
    findings = run_rule("DET003", DET003_BAD)
    assert len(findings) == 2
    assert rules_fired(findings) == ["DET003"]


def test_det003_allows_stable_protocol_keys():
    assert run_rule("DET003", DET003_GOOD) == []


# ----------------------------------------------------------------------
# DET004 — float == on simulated timestamps
# ----------------------------------------------------------------------

DET004_BAD = """
    def expired(self, deadline):
        return self.scheduler.now == deadline

    def same_arrival(arrival, other):
        return arrival != other
"""

DET004_GOOD = """
    def expired(self, deadline):
        return self.scheduler.now >= deadline
"""


def test_det004_fires_on_float_timestamp_equality():
    findings = run_rule("DET004", DET004_BAD)
    assert len(findings) == 2
    assert rules_fired(findings) == ["DET004"]


def test_det004_allows_ordered_comparisons():
    assert run_rule("DET004", DET004_GOOD) == []


# ----------------------------------------------------------------------
# PROTO101 — class-level kind on wire messages
# ----------------------------------------------------------------------

PROTO101_BAD = """
    class Probe:
        __slots__ = ("ts",)

        def __init__(self, ts):
            self.ts = ts

    class Computed:
        __slots__ = ()
        kind = "pr" + "obe"
"""

PROTO101_GOOD = """
    class Probe:
        __slots__ = ("ts",)
        kind = "probe"

        def __init__(self, ts):
            self.ts = ts

    class _Internal:
        __slots__ = ("x",)

    class NotSlotted:
        pass
"""


def test_proto101_fires_on_missing_or_computed_kind():
    findings = run_rule("PROTO101", PROTO101_BAD, module="repro.core.messages")
    assert len(findings) == 2
    assert rules_fired(findings) == ["PROTO101"]


def test_proto101_allows_declared_kind_and_skips_private():
    assert run_rule("PROTO101", PROTO101_GOOD, module="repro.core.messages") == []


def test_proto101_default_allowlist_exempts_multicast():
    source = """
        class Multicast:
            __slots__ = ("mid", "dest", "payload")
    """
    assert run_rule("PROTO101", source, module="repro.core.messages") == []
    # Without the allowlist the same snippet is a violation.
    bare = AnalysisConfig(allow={})
    assert len(run_rule("PROTO101", source, "repro.core.messages", bare)) == 1


# ----------------------------------------------------------------------
# PROTO102 — dispatch tables bind existing methods in __init__
# ----------------------------------------------------------------------

PROTO102_BAD = """
    class Proc:
        def __init__(self):
            self._r_dispatch = {
                Ack: self._on_ack,
                Start: self._on_strat,   # typo: no such method
            }

        def _on_ack(self, origin, ack):
            pass

        def rebind(self):
            self._r_dispatch = {Ack: self._on_ack}   # not __init__
"""

PROTO102_GOOD = """
    class Proc:
        def __init__(self):
            self._r_dispatch = {
                Ack: self._on_ack,
                Start: self._on_start,
            }

        def _on_ack(self, origin, ack):
            pass

        def _on_start(self, origin, start):
            pass
"""


def test_proto102_fires_on_missing_handler_and_late_binding():
    findings = run_rule("PROTO102", PROTO102_BAD)
    assert rules_fired(findings) == ["PROTO102"]
    messages = " ".join(f.message for f in findings)
    assert "_on_strat" in messages
    assert "__init__" in messages
    assert len(findings) == 2


def test_proto102_allows_complete_tables():
    assert run_rule("PROTO102", PROTO102_GOOD) == []


# ----------------------------------------------------------------------
# PROTO103 — protocol-state conformance map
# ----------------------------------------------------------------------

PROTO103_BAD = """
    class Meddler:
        def poke(self, ts):
            self.clock = ts
            self.e_cur = self.e_prom

        def bump(self):
            self.clock += 1
"""

PROTO103_GOOD = """
    class Proc:
        def __init__(self):
            self.clock = 0
            self.e_cur = None
            self.e_prom = None
"""


def test_proto103_fires_outside_conformance_map():
    findings = run_rule("PROTO103", PROTO103_BAD, module="repro.core.fixture")
    assert len(findings) == 3
    assert rules_fired(findings) == ["PROTO103"]


def test_proto103_allows_mutations_in_conformant_module():
    # repro.core.process is the module Algorithms 1–3 map onto.
    assert run_rule("PROTO103", PROTO103_GOOD, module="repro.core.process") == []


def test_proto103_exempts_wire_message_field_capture():
    """A wire-message class (class-level string ``kind`` in a wire
    module) capturing the sender's clock/E_cur as message fields is
    payload capture, not protocol mutation — proven by the rule itself,
    with no allowlist entry (the old EpochPromise entry is gone)."""
    source = """
        class EpochPromise:
            __slots__ = ("clock", "e_cur")
            kind = "epoch-promise"

            def __init__(self, clock, e_cur):
                self.clock = clock
                self.e_cur = e_cur
    """
    bare = AnalysisConfig(allow={})
    assert run_rule("PROTO103", source, "repro.core.messages", bare) == []
    assert "PROTO103" not in DEFAULT_CONFIG.allow


def test_proto103_wire_exemption_needs_kind_and_init():
    # No class-level kind -> not a wire message -> still a violation …
    kindless = """
        class EpochPromise:
            def __init__(self, clock, e_cur):
                self.clock = clock
                self.e_cur = e_cur
    """
    assert len(run_rule("PROTO103", kindless, module="repro.core.messages")) == 2
    # … and writes outside __init__ fire even on a real wire message.
    mutator = """
        class EpochPromise:
            kind = "epoch-promise"

            def __init__(self, clock):
                self.clock = clock

            def rewrite(self, clock):
                self.clock = clock
    """
    findings = run_rule("PROTO103", mutator, module="repro.core.messages")
    assert len(findings) == 1
    assert findings[0].context.endswith("EpochPromise.rewrite")


# ----------------------------------------------------------------------
# RACE201 — shared state mutated outside scheduler/handler context
# ----------------------------------------------------------------------

RACE201_BAD = """
    class Proc:
        def on_r_deliver(self, origin, payload):
            self._apply(payload)

        def _apply(self, payload):
            self.pending.add(payload.mid)

        def reset_epoch(self):
            self.e_cur = None
            self.pending.clear()
"""

RACE201_GOOD = """
    class Proc:
        def on_r_deliver(self, origin, payload):
            self.pending.add(payload.mid)

        def _drain(self):
            self.pending.clear()

        def stats(self):
            return len(self.pending)

    class DeliveryQueue:
        def add_pending(self, mid):
            self.pending.add(mid)
"""


def test_race201_fires_on_public_nonhandler_mutation():
    findings = run_rule("RACE201", RACE201_BAD)
    assert len(findings) == 1
    assert rules_fired(findings) == ["RACE201"]
    assert "reset_epoch" in findings[0].message
    assert "e_cur" in findings[0].message and "pending" in findings[0].message


def test_race201_allows_handlers_private_helpers_and_plain_containers():
    # Handlers and private helpers are scheduler context; DeliveryQueue
    # defines no handlers, so it is a helper container, not a process.
    assert run_rule("RACE201", RACE201_GOOD) == []


def test_race201_scheduler_context_api_is_reviewed_exempt():
    source = """
        class Proc:
            def on_message(self, src, msg):
                pass

            def a_multicast(self, dest, payload):
                self.clock += 1
    """
    assert run_rule("RACE201", source) == []


# ----------------------------------------------------------------------
# RACE202 — protocol variable mutated after a send on the same path
# ----------------------------------------------------------------------

RACE202_BAD = """
    class Proc:
        def on_timer(self):
            self.send(self.peer, Ack(self.clock))
            self.clock += 1
"""

RACE202_TRANSITIVE_BAD = """
    class Proc:
        def on_ack(self, origin, ack):
            self.r_multicast(Bump(self.clock), self.group)
            self._advance()

        def _advance(self):
            self.clock += 1
"""

RACE202_GOOD = """
    class Proc:
        def on_timer(self):
            self.clock += 1
            self.send(self.peer, Ack(self.clock))

        def on_branchy(self, flag):
            if flag:
                self.send(self.peer, Ack(self.clock))
            else:
                self.clock += 1
"""


def test_race202_fires_on_write_after_send():
    findings = run_rule("RACE202", RACE202_BAD)
    assert len(findings) == 1
    assert "'clock'" in findings[0].message


def test_race202_sees_transitive_writes_through_self_calls():
    findings = run_rule("RACE202", RACE202_TRANSITIVE_BAD)
    assert len(findings) == 1
    assert findings[0].context.endswith("Proc.on_ack")


def test_race202_allows_mutate_then_send_and_disjoint_paths():
    # Writing first is the contract; a send and a write on *different*
    # branches never share a path, so neither may fire.
    assert run_rule("RACE202", RACE202_GOOD) == []


# ----------------------------------------------------------------------
# RACE203 — stale epoch read across a suspension point
# ----------------------------------------------------------------------

RACE203_BAD = """
    class Proc:
        async def run_epoch(self):
            epoch = self.e_cur
            await self.transport.flush()
            self.begin(epoch)
"""

RACE203_GOOD = """
    class Proc:
        async def fresh_after_await(self):
            epoch = self.e_cur
            self.prepare(epoch)
            await self.transport.flush()
            self.begin(self.e_cur)

        async def revalidated(self):
            epoch = self.e_cur
            await self.transport.flush()
            if epoch != self.e_cur:
                return
            self.begin(epoch)
"""


def test_race203_fires_on_stale_epoch_use_after_await():
    findings = run_rule("RACE203", RACE203_BAD)
    assert len(findings) == 1
    assert "'epoch'" in findings[0].message


def test_race203_allows_pre_await_use_and_revalidation():
    # Use before the await is fine; comparing the cached copy against a
    # fresh read is the sanctioned re-validation idiom. The line after a
    # passed re-validation check is accepted (the guard dominates it).
    assert run_rule("RACE203", RACE203_GOOD) == []


# ----------------------------------------------------------------------
# EFF301 — declared-pure functions must be write-free
# ----------------------------------------------------------------------

EFF301_BAD = """
    from repro.analysis.markers import pure

    class Proc:
        @pure
        def quorum_clock(self):
            self._cache = self._compute()
            return self._cache
"""

EFF301_TRANSITIVE_BAD = """
    from repro.analysis.markers import pure

    class Proc:
        @pure
        def min_ts(self, mid):
            return self._refresh(mid)

        def _refresh(self, mid):
            self.t_by_mid[mid] = 0
            return 0
"""

EFF301_GOOD = """
    from repro.analysis.markers import pure

    class Proc:
        @pure
        def local_ts(self, mid):
            entry = self.t_by_mid.get(mid)
            return None if entry is None else entry[1]
"""


def test_eff301_fires_on_declared_pure_with_writes():
    findings = run_rule("EFF301", EFF301_BAD)
    assert len(findings) == 1
    assert "_cache" in findings[0].message


def test_eff301_sees_transitive_writes():
    findings = run_rule("EFF301", EFF301_TRANSITIVE_BAD)
    assert len(findings) == 1
    assert findings[0].context.endswith("Proc.min_ts")


def test_eff301_allows_read_only_pure_functions():
    assert run_rule("EFF301", EFF301_GOOD) == []


def test_eff301_config_declared_pure_is_enforced():
    # The repo's own declared-pure set is checked without decorators.
    source = """
        class SpecRecorder:
            def local_ts(self, config, mid, group):
                self.acks.append(mid)
                return None
    """
    findings = run_rule("EFF301", source, module="repro.core.spec")
    assert len(findings) == 1


# ----------------------------------------------------------------------
# EFF302 — observers are read-only on foreign protocol state
# ----------------------------------------------------------------------

EFF302_BAD = """
    class Monitor:
        def check(self, proc):
            proc.clock += 1
            self.proc.pending.add("mid")
"""

EFF302_GOOD = """
    class Monitor:
        def __init__(self, proc):
            self.proc = proc
            self.acks = []

        def check(self):
            self.acks.append(self.proc.clock)
            self.proc.on_r_deliver = self._wrap(self.proc.on_r_deliver)
"""


def test_eff302_fires_on_observer_writing_protocol_state():
    findings = run_rule("EFF302", EFF302_BAD, module="repro.verify.fixture")
    assert len(findings) == 2
    assert rules_fired(findings) == ["EFF302"]


def test_eff302_allows_own_bookkeeping_and_hook_wrapping():
    assert run_rule("EFF302", EFF302_GOOD, module="repro.verify.fixture") == []


def test_eff302_out_of_scope_module_is_ignored():
    assert run_rule("EFF302", EFF302_BAD, module="repro.core.fixture") == []


# ----------------------------------------------------------------------
# PERF001 — classes in hot modules declare __slots__
# ----------------------------------------------------------------------

PERF001_BAD = """
    class Tracker:
        def __init__(self):
            self.count = 0
"""

PERF001_GOOD = """
    from typing import NamedTuple


    class Tracker:
        __slots__ = ("count",)

        def __init__(self):
            self.count = 0


    class Point(NamedTuple):
        x: int
        y: int


    class TrackerError(ValueError):
        pass
"""


def test_perf001_fires_on_unslotted_hot_class():
    findings = run_rule("PERF001", PERF001_BAD, module="repro.core.state")
    assert rules_fired(findings) == ["PERF001"]


def test_perf001_silent_on_slotted_namedtuple_and_exception():
    assert run_rule("PERF001", PERF001_GOOD, module="repro.core.state") == []


def test_perf001_out_of_scope_module_is_ignored():
    """Only the hot modules are in scope — the harness, the
    baselines and the chaos layer may use plain classes freely."""
    assert run_rule("PERF001", PERF001_BAD, module="repro.harness.runner") == []


def test_perf001_allowlist_spares_the_dynamic_process_lineage():
    findings = run_rule("PERF001", PERF001_BAD, module="repro.sim.process")
    assert findings  # a new unslotted class in the module still fires
    lineage = PERF001_BAD.replace("class Tracker:", "class SimProcess:")
    assert run_rule("PERF001", lineage, module="repro.sim.process") == []


def test_every_registered_rule_has_a_firing_fixture():
    """Names in this test module must cover the whole registry, so a new
    rule cannot land without a known-bad fixture."""
    covered = {
        "DET001",
        "DET002",
        "DET003",
        "DET004",
        "EFF301",
        "EFF302",
        "PERF001",
        "PROTO101",
        "PROTO102",
        "PROTO103",
        "RACE201",
        "RACE202",
        "RACE203",
    }
    assert set(RULES) == covered


def test_severity_override_is_applied():
    config = AnalysisConfig(severity_overrides={"DET003": "warning"})
    findings = run_rule("DET003", DET003_BAD, config=config)
    assert findings and all(f.severity == "warning" for f in findings)
