"""Unit tests for the forward dataflow engine.

The client analyses here are tiny on purpose: a may-have-called-send
boolean and an assigned-names set. They exercise the
engine's contract — joins at merges, loop convergence, the replay order
of :func:`walk`, and the all-blocks-seeded worklist (a regression test:
a block whose transfer generates facts must be processed even when its
entry state never changes from bottom).
"""

import ast
import textwrap

import pytest

from repro.analysis.cfg import build_cfg, iter_child_expressions, iter_functions
from repro.analysis.dataflow import ForwardAnalysis, analyze, fixpoint, walk


def _cfg(source):
    tree = ast.parse(textwrap.dedent(source))
    return build_cfg(iter_functions(tree)[0][1])


def _calls(entry):
    return {
        n.func.id
        for n in iter_child_expressions(entry)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
    }


class SentAnalysis(ForwardAnalysis):
    """May-have-called-send(): a boolean lattice."""

    def initial(self):
        return False

    def bottom(self):
        return False

    def join(self, a, b):
        return a or b

    def transfer(self, entry, state):
        return state or "send" in _calls(entry)


class AssignedNames(ForwardAnalysis):
    """Set of local names assigned on some path (a may-analysis)."""

    def initial(self):
        return frozenset()

    def bottom(self):
        return frozenset()

    def join(self, a, b):
        return a | b

    def transfer(self, entry, state):
        if isinstance(entry, ast.Assign):
            names = {
                t.id for t in entry.targets if isinstance(t, ast.Name)
            }
            return state | names
        return state


def _state_at(source, marker, analysis):
    """The state observed right before the call ``<marker>()``."""
    cfg = _cfg(source)
    seen = []
    analyze(
        cfg,
        analysis,
        lambda entry, state: seen.append(state)
        if marker in _calls(entry)
        else None,
    )
    assert seen, f"no entry calling {marker}()"
    return seen


def test_straight_line_fact_propagates():
    (state,) = _state_at(
        """
        def f(self):
            send()
            probe()
        """,
        "probe",
        SentAnalysis(),
    )
    assert state is True


def test_fact_before_its_own_statement_is_absent():
    (state,) = _state_at(
        """
        def f(self):
            probe()
            send()
        """,
        "probe",
        SentAnalysis(),
    )
    assert state is False


def test_join_at_if_merge_is_may():
    # send() on one arm only: after the merge, may-sent is True.
    (state,) = _state_at(
        """
        def f(self, x):
            if x:
                send()
            probe()
        """,
        "probe",
        SentAnalysis(),
    )
    assert state is True


def test_branch_local_fact_does_not_leak_to_the_other_arm():
    (state,) = _state_at(
        """
        def f(self, x):
            if x:
                send()
            else:
                probe()
        """,
        "probe",
        SentAnalysis(),
    )
    assert state is False


def test_loop_body_fact_reaches_the_code_after_the_loop():
    """Regression: the worklist must seed *every* block. A send inside
    a loop body generates a fact even though the body block's entry
    state never changes from bottom (False); with only the entry block
    seeded, the post-loop block stayed False, so a fact generated in a
    loop body never reached the code after the loop."""
    (state,) = _state_at(
        """
        def f(self, xs):
            for x in xs:
                send()
            probe()
        """,
        "probe",
        SentAnalysis(),
    )
    assert state is True


def test_loop_back_edge_carries_the_fact_to_the_header():
    # Second iteration sees the first iteration's send: the state at
    # the body entry (via the back edge join) must be True.
    cfg = _cfg(
        """
        def f(self, xs):
            for x in xs:
                probe()
                send()
        """
    )
    states = fixpoint(cfg, SentAnalysis())
    seen = []
    walk(
        cfg,
        SentAnalysis(),
        states,
        lambda entry, state: seen.append(state)
        if "probe" in _calls(entry)
        else None,
    )
    assert seen == [True]


def test_set_lattice_union_at_merge():
    (state,) = _state_at(
        """
        def f(x):
            if x:
                a = 1
            else:
                b = 2
            probe()
        """,
        "probe",
        AssignedNames(),
    )
    assert state == {"a", "b"}


def test_unreachable_code_keeps_bottom_state():
    (state,) = _state_at(
        """
        def f(self):
            send()
            return
            probe()
        """,
        "probe",
        SentAnalysis(),
    )
    # Dead code is replayed from bottom: no facts, no findings.
    assert state is False


def test_walk_replays_blocks_in_rpo_with_intrablock_transfer():
    cfg = _cfg(
        """
        def f(x):
            a = 1
            b = 2
        """
    )
    analysis = AssignedNames()
    states = fixpoint(cfg, analysis)
    observed = []
    walk(cfg, analysis, states, lambda entry, state: observed.append(set(state)))
    assert observed == [set(), {"a"}]


def test_non_monotone_transfer_hits_the_budget():
    class Diverging(ForwardAnalysis):
        def initial(self):
            return 0

        def bottom(self):
            return 0

        def join(self, a, b):
            return max(a, b)

        def transfer(self, entry, state):
            return state + 1  # grows forever around the loop

    cfg = _cfg(
        """
        def f(x):
            while x:
                body()
        """
    )
    with pytest.raises(RuntimeError, match="did not converge"):
        fixpoint(cfg, Diverging())


def test_fixpoint_is_deterministic():
    source = """
        def f(self, x):
            if x:
                send()
            else:
                for i in x:
                    send()
            probe()
    """
    results = set()
    for _ in range(5):
        cfg = _cfg(source)
        states = fixpoint(cfg, SentAnalysis())
        results.add(tuple(sorted(states.items())))
    assert len(results) == 1
