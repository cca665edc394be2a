"""Per-rule fixtures: one known-good and one known-bad snippet per rule.

Every rule must *fire* on its bad fixture (proving the pass can catch
the hazard) and stay silent on the good fixture (proving it will not
drown real findings in noise). Snippets are analysed under fake module
names inside the determinism scope.
"""

import ast
import textwrap

from repro.analysis import RULES, ModuleInfo
from repro.analysis.engine import analyze_module


def run_rule(rule_id, source, module="repro.core.fixture"):
    src = textwrap.dedent(source)
    mod = ModuleInfo(
        path=f"<{module}>", module=module, tree=ast.parse(src), source=src
    )
    return analyze_module(mod, [RULES[rule_id]])


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
    """Flow sensitivity, good direction: a local proven sorted needs no
    sorted() at the loop."""
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


def test_every_registered_rule_has_a_firing_fixture():
    """Names in this test module must cover the whole registry, so a new
    rule cannot land without a known-bad fixture."""
    covered = {"DET001", "DET002", "DET003", "DET004"}
    assert set(RULES) == covered

