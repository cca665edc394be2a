"""Unit tests for the per-function effect summaries.

These pin the write-detection shapes the protocol core actually uses
(plain/augmented/item assignment, mutator methods, heapq-style mutating
functions), the transitive closure over self/local calls, and the
memoisation that lets RACE201 and RACE202 share one computation.
"""

import ast
import textwrap

from repro.analysis.base import ModuleInfo
from repro.analysis.config import DEFAULT_CONFIG
from repro.analysis.effects import (
    EMPTY_EFFECTS,
    compute_module_effects,
)


def _effects(source, module="repro.core.fixture"):
    src = textwrap.dedent(source)
    mod = ModuleInfo(
        path="fixture.py", module=module, tree=ast.parse(src), source=src
    )
    return compute_module_effects(mod, DEFAULT_CONFIG)


def test_direct_write_shapes():
    mod = _effects(
        """
        class P:
            def m(self):
                self.clock = 1
                self.e_cur += 1
                self.t_by_mid[k] = v
                del self.t_list[:n]
                self.pending.add(x)
                heapq.heappush(self._min_heap, (ts, mid))
                (self.a, self.b) = (1, 2)
        """
    )
    eff = mod.functions["P.m"].effects
    assert eff.writes == {
        "clock",
        "e_cur",
        "t_by_mid",
        "t_list",
        "pending",
        "_min_heap",
        "a",
        "b",
    }
    assert not eff.sends


def test_emission_flag():
    mod = _effects(
        """
        class P:
            def a(self):
                self.r_multicast(msg, self.group_members)

            def b(self):
                self.clock += 1
        """
    )
    assert mod.functions["P.a"].effects.sends
    assert not mod.functions["P.b"].effects.sends


def test_transitive_closure_over_self_calls():
    # The shape from repro.core.process (handler -> stamp -> emit), with
    # neutral names so no link is itself a configured emission call: the
    # handler inherits both the clock write and the send transitively.
    mod = _effects(
        """
        class P:
            def _emit(self, m, e, ts):
                self.r_multicast(m, self.group_members)

            def _stamp(self, m):
                self.clock += 1
                self._emit(m, self.e_cur, self.clock)

            def _on_ack(self, m):
                self._stamp(m)
        """
    )
    direct = mod.functions["P._on_ack"].direct
    assert direct.writes == frozenset() and not direct.sends
    eff = mod.functions["P._on_ack"].effects
    assert "clock" in eff.writes
    assert eff.sends


def test_transitive_closure_over_free_function_calls():
    mod = _effects(
        """
        def helper(proc):
            send(proc, 1)

        def top(proc):
            helper(proc)
        """
    )
    assert not mod.functions["top"].direct.sends
    assert mod.functions["top"].effects.sends


def test_mutual_recursion_reaches_a_fixpoint():
    mod = _effects(
        """
        class P:
            def a(self):
                self.x = 1
                self.b()

            def b(self):
                self.y = 2
                self.a()
        """
    )
    assert mod.functions["P.a"].effects.writes == {"x", "y"}
    assert mod.functions["P.b"].effects.writes == {"x", "y"}


def test_unresolvable_calls_contribute_nothing():
    mod = _effects(
        """
        class P:
            def m(self, other):
                other.mutate_everything()
                imported_helper()
        """
    )
    assert mod.functions["P.m"].effects == EMPTY_EFFECTS.union(
        mod.functions["P.m"].direct
    )
    assert mod.functions["P.m"].effects.writes == frozenset()


def test_nested_scopes_are_opaque():
    mod = _effects(
        """
        class P:
            def m(self):
                def inner():
                    self.clock = 1
                f = lambda: self.pending.add(1)
        """
    )
    # The nested bodies get their own summaries; m itself is clean.
    assert mod.functions["P.m"].effects.writes == frozenset()
    assert mod.functions["P.m.inner"].effects.writes == {"clock"}


def test_method_lookup_is_per_class():
    mod = _effects(
        """
        class A:
            def m(self):
                self.x = 1

        class B:
            def m(self):
                self.y = 2

            def call(self):
                self.m()
        """
    )
    # B.call resolves self.m() to B.m, not A.m.
    assert mod.functions["B.call"].effects.writes == {"y"}
    info = mod.method("A", "m")
    assert info is not None and info.effects.writes == {"x"}


def test_module_effects_are_memoised_per_tree():
    src = textwrap.dedent(
        """
        class P:
            def m(self):
                self.clock = 1
        """
    )
    mod = ModuleInfo(
        path="fixture.py",
        module="repro.core.fixture",
        tree=ast.parse(src),
        source=src,
    )
    first = compute_module_effects(mod, DEFAULT_CONFIG)
    second = compute_module_effects(mod, DEFAULT_CONFIG)
    assert first is second
    # A different tree with identical source is a different computation.
    other = ModuleInfo(
        path="fixture.py",
        module="repro.core.fixture",
        tree=ast.parse(src),
        source=src,
    )
    assert compute_module_effects(other, DEFAULT_CONFIG) is not first
