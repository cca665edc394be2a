"""Differential-harness unit tests.

The cross-backend *golden* comparisons live in
``tests/harness/test_determinism_golden.py``; here we test the
machinery itself: fingerprint diffing, the backend subprocess protocol
(including the REPRO_COMPILED=0 escape hatch) and the CLI exit codes.
"""

import subprocess
import sys

from repro._backend import COMPILED_MODULES
from repro.harness.differential import (
    SCENARIOS,
    diff_fingerprints,
    run_backend,
    run_scenario,
)


def test_diff_fingerprints_reports_each_divergent_field():
    ref = {"events": 100, "throughput": 1.5, "sample_checksum": "1.0"}
    same = dict(ref)
    assert diff_fingerprints(ref, same) == []
    cand = {"events": 101, "throughput": 1.5, "sample_checksum": "2.0"}
    mismatches = diff_fingerprints(ref, cand)
    assert len(mismatches) == 2
    assert any(m.startswith("events:") for m in mismatches)
    assert any(m.startswith("sample_checksum:") for m in mismatches)


def test_diff_fingerprints_catches_missing_fields():
    assert diff_fingerprints({"a": 1}, {}) == ["a: reference=1 candidate=None"]


def test_run_scenario_rejects_nothing_but_known_protocols():
    assert set(SCENARIOS) == {"primcast", "primcast-hc", "whitebox", "fastcast"}


def test_worker_roundtrip_and_escape_hatch():
    """The reference worker must run pure python even when the parent
    requested the compiled backend — REPRO_COMPILED=0 is authoritative."""
    payload = run_backend("primcast", compiled=False)
    assert payload["backend_info"]["backend"] == "pure-python"
    assert payload["backend_info"]["requested"] == "pure-python"
    fp = payload["fingerprint"]
    assert fp["protocol"] == "primcast"
    # The worker pins the seed schedule (compaction off).
    assert fp["events"] == 67744
    # And matches an in-process run bit for bit.
    assert diff_fingerprints(fp, run_scenario("primcast")) == []


def test_backend_info_covers_the_compilation_unit():
    import repro

    info = repro.backend_info()
    assert info["eligible_modules"] == list(COMPILED_MODULES)
    assert info["backend"] in ("pure-python", "compiled", "mixed")
    # Whatever this environment is, every eligible module is imported
    # by `import repro`, so the report is complete.
    assert set(info["compiled_modules"]) <= set(info["eligible_modules"])


def test_cli_exit_codes():
    """Exit 0 on identical-or-skipped, 2 under --require-compiled with
    no extensions, 1 only on a real mismatch (not constructible here)."""
    out = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.harness.differential",
            "--scenario",
            "primcast",
        ],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    compiled_available = "skipped" not in out.stdout
    if not compiled_available:
        strict = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.harness.differential",
                "--require-compiled",
                "--scenario",
                "primcast",
            ],
            capture_output=True,
            text=True,
        )
        assert strict.returncode == 2
