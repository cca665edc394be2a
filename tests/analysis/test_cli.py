"""CLI behaviour of ``python -m repro.analysis``."""

from repro.analysis.base import RULES
from repro.analysis.cli import main
from repro.analysis.engine import module_name_for

BAD_SOURCE = """\
import random


def jitter(self):
    value = random.random()
    self.send(0, value)
    return value
"""

GOOD_SOURCE = """\
def double(x):
    return 2 * x
"""


def _write_scoped(tmp_path, name, source):
    """Write a fixture under a ``repro/core`` directory so the module
    name lands inside the determinism scope."""
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True, exist_ok=True)
    path = pkg / name
    path.write_text(source)
    return path


def test_clean_file_exits_zero(tmp_path, capsys):
    path = _write_scoped(tmp_path, "good.py", GOOD_SOURCE)
    assert main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_violation_exits_one_with_location(tmp_path, capsys):
    path = _write_scoped(tmp_path, "bad.py", BAD_SOURCE)
    assert main([str(path)]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out
    assert f"{path}:5:" in out


def test_rule_filter_limits_the_run(tmp_path, capsys):
    path = _write_scoped(tmp_path, "bad.py", BAD_SOURCE)
    # DET003 alone does not fire on this fixture.
    assert main([str(path), "--rule", "DET003"]) == 0
    capsys.readouterr()


def test_unknown_rule_is_usage_error(tmp_path, capsys):
    path = _write_scoped(tmp_path, "good.py", GOOD_SOURCE)
    assert main([str(path), "--rule", "DET999"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_missing_path_is_usage_error(tmp_path, capsys):
    assert main([str(tmp_path / "nope.py")]) == 2
    assert "error" in capsys.readouterr().err


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert listed == sorted(RULES)


def test_module_name_derivation():
    from pathlib import Path

    assert (
        module_name_for(Path("src/repro/core/process.py")) == "repro.core.process"
    )
    assert module_name_for(Path("src/repro/sim/__init__.py")) == "repro.sim"
    assert module_name_for(Path("elsewhere/tool.py")) == "tool"


# -- internal errors ------------------------------------------------------


class _CrashingRule:
    rule_id = "CRASH999"
    title = "deliberately crashing test rule"

    def applies_to(self, module):
        return True

    def check(self, mod):
        raise ZeroDivisionError("rule bug")


def test_internal_rule_error_exits_two_naming_the_file(
    tmp_path, capsys, monkeypatch
):
    path = _write_scoped(tmp_path, "good.py", GOOD_SOURCE)
    monkeypatch.setitem(RULES, "CRASH999", _CrashingRule())
    assert main([str(path)]) == 2
    err = capsys.readouterr().err
    # Exit 2 (not 1): this is a bug in the analysis, not a finding —
    # and the message names the file and rule for diagnosis.
    assert str(path) in err
    assert "CRASH999" in err
    assert "ZeroDivisionError" in err
