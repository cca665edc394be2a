"""The shipped source tree must analyse clean — and the analysis must
be able to prove it would notice if it weren't.

This is the wiring of the lint pass into the tier-1 suite: any commit
that introduces a determinism hazard in ``src/repro`` fails here, with
the same findings ``python -m repro.analysis`` would print. On top of
the clean-tree check, this file pins the keep-list (DESIGN.md §6):
every kept rule has a bug planted in the real module's source that it
must catch.
"""

from pathlib import Path

import pytest

from repro.analysis import RULES, analyze_paths
from repro.analysis.engine import analyze_module, load_module

REPO = Path(__file__).resolve().parents[2]
SRC_REPRO = REPO / "src" / "repro"

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
]

KEPT_RULES = {param.values[0] for param in PLANTED_BUGS}


def test_source_tree_exists():
    assert (SRC_REPRO / "core" / "process.py").is_file()


def test_shipped_tree_is_clean():
    findings = analyze_paths([SRC_REPRO])
    assert findings == [], "\n".join(f.format() for f in findings)


def test_whole_tree_analyzes_without_crashes():
    """Every module under src/repro must run through every rule without
    an internal error (AnalysisError would propagate out of
    analyze_paths and fail this test)."""
    analyze_paths([SRC_REPRO])


def test_all_rules_were_in_play():
    """The registry holds exactly the keep-list: a dropped registration
    (or a rule added without a planted-bug row) fails here."""
    assert set(RULES) == KEPT_RULES


@pytest.mark.parametrize("rule_id, relpath, old, new, context", PLANTED_BUGS)
def test_planted_bug_is_caught(tmp_path, rule_id, relpath, old, new, context):
    """Plant the bug into a copy of the real module and check the rule
    fires on it."""
    source = (SRC_REPRO / relpath).read_text(encoding="utf-8")
    assert old in source, f"planted-bug anchor drifted in {relpath}"
    # Keep the repro/<package>/ layout so module naming (and therefore
    # the rule scopes and the finding contexts) match the real tree.
    target = tmp_path / "repro" / relpath
    target.parent.mkdir(parents=True)
    target.write_text(source.replace(old, new, 1), encoding="utf-8")

    findings = analyze_module(load_module(target), [RULES[rule_id]])
    assert any(f.context == context for f in findings), (
        f"planted {rule_id} bug not caught; findings:\n"
        + "\n".join(f.format() for f in findings)
    )
