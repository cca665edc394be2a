"""The shipped source tree must analyse clean — and the analysis must
be able to prove it would notice if it weren't.

This is the wiring of the lint pass into the tier-1 suite: any commit
that introduces a determinism or scheduler-context hazard in
``src/repro`` fails here, with the same findings ``python -m
repro.analysis`` would print. On top of the clean-tree check, this file
pins the allowlist discipline (every exemption justified and still
real) and the keep-list (DESIGN.md §6): every kept rule has a bug
planted in the real module's source that it must catch.
"""

import ast
from pathlib import Path

import pytest

from repro.analysis import DEFAULT_CONFIG, RULES, AnalysisConfig, analyze_paths
from repro.analysis.engine import analyze_module, load_module

REPO = Path(__file__).resolve().parents[2]
SRC_REPRO = REPO / "src" / "repro"
CONFIG_PY = SRC_REPRO / "analysis" / "config.py"

#: One planted bug per kept rule: (rule, module path under src/repro,
#: source text, its replacement, context the finding must name). These
#: are rows of the DESIGN.md §6 mutation table.
PLANTED_BUGS = [
    pytest.param(
        "DET001",
        "sim/network.py",
        "value = self._gauss(ch.mean, stddev)",
        "value = random.gauss(ch.mean, stddev)",
        "repro.sim.network::Network.transmit",
        id="DET001",
    ),
    pytest.param(
        # Multicast hashes by id(), so set(T) iterates in an order that
        # changes from run to run — only DET002 catches this one.
        "DET002",
        "core/process.py",
        "for epoch, multicast, ts in self.t_list:\n"
        "            if (multicast.mid, epoch, ts) not in self.my_acks:",
        "for epoch, multicast, ts in set(self.t_list):\n"
        "            if (multicast.mid, epoch, ts) not in self.my_acks:",
        "repro.core.process::PrimCastProcess._check_epoch_activation",
        id="DET002",
    ),
    pytest.param(
        "DET003",
        "core/process.py",
        "for multicast in list(self.started.values()):",
        "for multicast in sorted(self.started.values(), key=id):",
        "repro.core.process::PrimCastProcess._check_epoch_activation",
        id="DET003",
    ),
    pytest.param(
        "DET004",
        "sim/network.py",
        "if arrival <= ch.last:",
        "if arrival == ch.last:",
        "repro.sim.network::Network.transmit",
        id="DET004",
    ),
    pytest.param(
        "RACE201",
        "core/process.py",
        "def _propose(self",
        "def propose(self",
        "repro.core.process::PrimCastProcess.propose",
        id="RACE201",
    ),
    pytest.param(
        # _propose is not an allowlisted context, so the suppression of
        # the three reviewed sites cannot mask a fresh bug.
        "RACE202",
        "core/process.py",
        "        self._send_ack(multicast, self.e_cur, self.clock)\n",
        "        self._send_ack(multicast, self.e_cur, self.clock)\n"
        "        self.clock += 1\n",
        "repro.core.process::PrimCastProcess._propose",
        id="RACE202",
    ),
    pytest.param(
        "RACE203",
        "core/process.py",
        "    def _on_accept_epoch(self",
        "    def _unacked(self):\n"
        "        e_cur = self.e_cur\n"
        "        for epoch, multicast, ts in self.t_list:\n"
        "            yield min(epoch, e_cur), multicast, ts\n\n"
        "    def _on_accept_epoch(self",
        "repro.core.process::PrimCastProcess._unacked",
        id="RACE203",
    ),
]

KEPT_RULES = {param.values[0] for param in PLANTED_BUGS}


def test_source_tree_exists():
    assert (SRC_REPRO / "core" / "process.py").is_file()


def test_shipped_tree_is_clean():
    findings = analyze_paths([SRC_REPRO], DEFAULT_CONFIG)
    assert findings == [], "\n".join(f.format() for f in findings)


def test_whole_tree_analyzes_without_crashes():
    """Every module under src/repro must run through every rule without
    an internal error — even with the allowlist off (AnalysisError would
    propagate out of analyze_paths and fail this test)."""
    analyze_paths([SRC_REPRO], AnalysisConfig(allow={}))


def test_all_rules_were_in_play():
    """The registry holds exactly the keep-list: a dropped registration
    (or a rule added without a planted-bug row) fails here."""
    assert set(RULES) == KEPT_RULES


@pytest.mark.parametrize("rule_id, relpath, old, new, context", PLANTED_BUGS)
def test_planted_bug_is_caught(tmp_path, rule_id, relpath, old, new, context):
    """Plant the bug into a copy of the real module and check the rule
    fires on it under the *default* config (allowlist included)."""
    source = (SRC_REPRO / relpath).read_text(encoding="utf-8")
    assert old in source, f"planted-bug anchor drifted in {relpath}"
    # Keep the repro/<package>/ layout so module naming (and therefore
    # the rule scopes and the allowlist contexts) match the real tree.
    target = tmp_path / "repro" / relpath
    target.parent.mkdir(parents=True)
    target.write_text(source.replace(old, new, 1), encoding="utf-8")

    findings = analyze_module(load_module(target), DEFAULT_CONFIG, [RULES[rule_id]])
    assert any(f.context == context for f in findings), (
        f"planted {rule_id} bug not caught; findings:\n"
        + "\n".join(f.format() for f in findings)
    )


def test_known_violations_exist_without_the_reviewed_allowlist():
    """The built-in allowlist is load-bearing: without it, the reviewed
    exemptions (the standing-proposal-rule RACE202 sites in
    PrimCastProcess and ClassicProcess) surface as findings. This pins that the exemptions
    are still real code, so stale allowlist entries get noticed."""
    findings = analyze_paths([SRC_REPRO], AnalysisConfig(allow={}))
    contexts = {f.context for f in findings}
    # Algorithm 1 line 35 / Algorithm 3 lines 75-81 mandate
    # propose-after-ack; the three suppressed send-then-mutate sites
    # must keep existing or the RACE202 allow entries are stale.
    assert "repro.core.process::PrimCastProcess._on_ack" in contexts
    assert "repro.core.process::PrimCastProcess._on_new_state" in contexts
    assert "repro.core.process::PrimCastProcess._check_epoch_activation" in contexts
    # Classic's slot-apply loop stamps the clock for each applied slot
    # after the previous slot's ClTimestamp went out.
    assert "repro.baselines.classic::ClassicProcess._on_accepted" in contexts
    # And nothing else: every finding is a reviewed exemption.
    for finding in findings:
        assert DEFAULT_CONFIG.is_allowed(finding.rule, finding.context), (
            finding.format()
        )


def _comment_gaps_ok(source_lines, anchors, region_start):
    """Each anchor line must have at least one comment line between it
    and the previous anchor (or the region start). Returns the anchors
    that lack one."""
    missing = []
    prev_end = region_start
    for start, end, label in anchors:
        gap = source_lines[prev_end : start - 1]
        if not any(line.lstrip().startswith("#") for line in gap):
            missing.append(label)
        prev_end = end
    return missing


def test_every_allowlist_entry_is_justified():
    """Allowlist discipline: each DEFAULT_ALLOW rule entry and each
    SCHEDULER_CONTEXT_API pattern must carry a justification comment
    directly above it in config.py. An exemption nobody can explain is
    an exemption that should not exist."""
    source = CONFIG_PY.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)

    allow_node = None
    sched_node = None
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            target = node.targets[0] if isinstance(node, ast.Assign) else node.target
            if isinstance(target, ast.Name):
                if target.id == "DEFAULT_ALLOW":
                    allow_node = node
                elif target.id == "SCHEDULER_CONTEXT_API":
                    sched_node = node
    assert allow_node is not None and sched_node is not None

    allow_dict = allow_node.value
    assert isinstance(allow_dict, ast.Dict)
    anchors = [
        (key.lineno, value.end_lineno, f"DEFAULT_ALLOW[{key.value!r}]")
        for key, value in zip(allow_dict.keys, allow_dict.values)
    ]
    missing = _comment_gaps_ok(lines, anchors, allow_dict.lineno)

    sched_tuple = sched_node.value
    assert isinstance(sched_tuple, ast.Tuple)
    anchors = [
        (elt.lineno, elt.end_lineno, f"SCHEDULER_CONTEXT_API[{elt.value!r}]")
        for elt in sched_tuple.elts
    ]
    missing += _comment_gaps_ok(lines, anchors, sched_tuple.lineno)

    assert missing == [], f"allowlist entries without a justification comment: {missing}"
