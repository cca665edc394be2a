"""Tests for the content-addressed result cache (repro.harness.cache).

Covers the three load-bearing behaviours:

* a hit returns an *identical* RunResult without invoking the simulator
  (asserted by monkeypatching the runner away and via the stored events
  counter);
* the code fingerprint covers every ``.py`` file under ``src/repro``,
  and any change to one invalidates every entry automatically;
* stale generations are retained up to ``KEEP_GENERATIONS`` (LRU), so
  bisects sharing a cache directory keep each other warm;
* corrupt entries are discarded and re-run, never fatal.
"""

import json
import os
from pathlib import Path

import pytest

import repro.harness.parallel as parallel_mod
from repro.harness.cache import KEEP_GENERATIONS, ResultCache, code_fingerprint, spec_key
from repro.harness.parallel import SweepExecutor, expand_sweep, point_spec
from repro.sim.costs import default_cost_model
from repro.workload.scenarios import lan_scenario, wan_colocated_leaders

SRC_REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"


def tiny_specs(keep_samples=False):
    return expand_sweep(
        ("primcast",),
        lan_scenario(2, 3),
        2,
        (1, 2),
        seed=1,
        warmup_ms=20.0,
        measure_ms=40.0,
        keep_samples=keep_samples,
    )


def no_simulation(monkeypatch):
    """After this, any attempt to actually simulate explodes."""

    def boom(*args, **kwargs):
        raise AssertionError("simulation ran on what should be a cache hit")

    monkeypatch.setattr(parallel_mod, "run_load_point", boom)


# ----------------------------------------------------------------------
# hits
# ----------------------------------------------------------------------


def test_cache_hit_returns_identical_result_without_simulating(
    tmp_path, monkeypatch
):
    specs = tiny_specs(keep_samples=True)
    cold = SweepExecutor(jobs=1, cache=ResultCache(tmp_path / "c"))
    want = cold.run(specs)
    assert cold.last_stats == {"points": 2, "hits": 0, "ran": 2}

    no_simulation(monkeypatch)
    warm = SweepExecutor(jobs=1, cache=ResultCache(tmp_path / "c"))
    got = warm.run(specs)
    assert warm.last_stats == {"points": 2, "hits": 2, "ran": 0}
    assert got == want
    # the events counter is the stored simulation's, not a fresh run's
    assert [r.events for r in got] == [r.events for r in want]
    assert all(r.events > 0 for r in got)


def test_cache_counters_and_partial_hits(tmp_path):
    specs = tiny_specs()
    cache = ResultCache(tmp_path / "c")
    executor = SweepExecutor(jobs=1, cache=cache)
    executor.run(specs[:1])
    assert (cache.misses, cache.stores, cache.hits) == (1, 1, 0)
    executor.run(specs)
    assert executor.last_stats == {"points": 2, "hits": 1, "ran": 1}
    # total_stats aggregates over the executor's lifetime (the CLI
    # reports it across the one-sweep-per-dest-count figure commands)
    assert executor.total_stats == {"points": 3, "hits": 1, "ran": 2}


def test_cache_key_separates_distinct_specs():
    a = point_spec("primcast", lan_scenario(2, 3), 2, 1, seed=1)
    b = point_spec("primcast", lan_scenario(2, 3), 2, 1, seed=2)
    c = point_spec("whitebox", lan_scenario(2, 3), 2, 1, seed=1)
    assert len({spec_key(a), spec_key(b), spec_key(c)}) == 3


def test_cache_keys_are_pinned():
    """Keys computed at e8bd2e0, before PointSpec became the single
    declaration of a point's parameters: the field set, field names and
    defaults feed every cache key, so none of them may drift."""
    defaults = point_spec(
        "primcast", wan_colocated_leaders(), 2, 8, seed=1, warmup_ms=300, measure_ms=400
    )
    assert spec_key(defaults) == (
        "4b5c8f4ffd0bbe7a0b1f4d0601d4db9af56371020153496096696872b354c753"
    )
    every_field = point_spec(
        "primcast-hc",
        lan_scenario(2, 3),
        2,
        4,
        seed=7,
        cost_model=default_cost_model(),
        epsilon_ms=0.5,
        keep_samples=True,
        batching_ms=2.0,
        compaction_interval_ms=0.0,
    )
    assert spec_key(every_field) == (
        "8dd324bf7ab7c3d04200346fcd6fc420deaf02b60cf1f5e7a3f7ab33332d37ad"
    )
    assert [spec_key(s) for s in tiny_specs()] == [
        "13145385fc57321b914f4962e22c47665e303eeb7087ca46979b0f967d480fcb",
        "ec60704b0576271c070fdbbcfc37408f07562ff5f4bc796724e05f0fa45b8b6a",
    ]


# ----------------------------------------------------------------------
# invalidation by code fingerprint
# ----------------------------------------------------------------------


#: A few packages of a synthetic source tree, including one no load
#: point imports (``analysis``): the fingerprint covers the whole tree.
FAKE_PACKAGES = ("core", "rmcast", "election", "consensus", "analysis")


def fake_tree(root: Path) -> Path:
    src = root / "src" / "repro"
    for package in FAKE_PACKAGES:
        (src / package).mkdir(parents=True)
        (src / package / "mod.py").write_text(f"x = '{package}'\n")
    (src / "__init__.py").write_text("")
    return src


def test_fingerprint_covers_every_simulation_package(tmp_path):
    src = fake_tree(tmp_path)
    base = code_fingerprint(src)
    for target in sorted(src.rglob("*.py")):
        original = target.read_text()
        target.write_text(original + "# touched\n")
        assert code_fingerprint(src) != base, (
            f"editing {target.relative_to(src)} must change the fingerprint"
        )
        target.write_text(original)
    assert code_fingerprint(src) == base


def test_fingerprint_ignores_non_fingerprinted_files(tmp_path):
    src = fake_tree(tmp_path)
    base = code_fingerprint(src)
    (src / "core" / "notes.md").write_text("not python\n")
    (src / "core" / "__pycache__").mkdir()
    (src / "core" / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"\0")
    assert code_fingerprint(src) == base


def test_real_tree_fingerprint_is_stable():
    assert code_fingerprint(SRC_REPRO) == code_fingerprint(SRC_REPRO)


@pytest.mark.parametrize("package", ["core", "rmcast", "election", "consensus"])
def test_touching_simulation_package_invalidates_all_entries(
    tmp_path, package
):
    src = fake_tree(tmp_path)
    root = tmp_path / "cache"
    specs = tiny_specs()
    executor = SweepExecutor(jobs=1, cache=ResultCache(root, src_root=src))
    executor.run(specs)
    assert executor.last_stats["ran"] == 2

    # same code -> hits
    warm = SweepExecutor(jobs=1, cache=ResultCache(root, src_root=src))
    warm.run(specs)
    assert warm.last_stats == {"points": 2, "hits": 2, "ran": 0}

    # change a file under the package -> new fingerprint, forced re-run;
    # the previous generation stays on disk (retained for bisects)
    (src / package / "mod.py").write_text(f"x = '{package}-v2'\n")
    stale = ResultCache(root, src_root=src)
    invalidated = SweepExecutor(jobs=1, cache=stale)
    invalidated.run(specs)
    assert invalidated.last_stats == {"points": 2, "hits": 0, "ran": 2}
    generations = {p.name for p in root.iterdir() if p.is_dir()}
    assert stale.fingerprint in generations
    assert len(generations) == 2


def test_bisect_between_two_fingerprints_keeps_both_warm(tmp_path):
    src = fake_tree(tmp_path)
    root = tmp_path / "cache"
    specs = tiny_specs()
    original = (src / "core" / "mod.py").read_text()
    SweepExecutor(jobs=1, cache=ResultCache(root, src_root=src)).run(specs)

    (src / "core" / "mod.py").write_text("x = 'core-v2'\n")
    SweepExecutor(jobs=1, cache=ResultCache(root, src_root=src)).run(specs)

    # hop back to the first checkout: its generation survived -> all hits
    (src / "core" / "mod.py").write_text(original)
    back = SweepExecutor(jobs=1, cache=ResultCache(root, src_root=src))
    back.run(specs)
    assert back.last_stats == {"points": 2, "hits": 2, "ran": 0}


def test_prune_keeps_newest_generations_up_to_budget(tmp_path):
    src = fake_tree(tmp_path)
    root = tmp_path / "cache"
    root.mkdir()
    for i in range(5):
        d = root / f"gen{i}"
        d.mkdir()
        os.utime(d, (1000 + i, 1000 + i))
    ResultCache(root, src_root=src)
    kept = sorted(p.name for p in root.iterdir() if p.is_dir())
    # one slot for the current generation + the newest others
    assert KEEP_GENERATIONS == 4
    assert kept == ["gen2", "gen3", "gen4"]


# ----------------------------------------------------------------------
# corruption
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "corruption",
    [
        "not json at all {{{",
        json.dumps({"wrong": "schema"}),
        json.dumps({"spec": {}, "result": {"protocol": "primcast"}}),
        "",
    ],
)
def test_corrupt_entries_are_discarded_not_fatal(tmp_path, corruption):
    specs = tiny_specs()
    cache = ResultCache(tmp_path / "c")
    executor = SweepExecutor(jobs=1, cache=cache)
    want = executor.run(specs)

    entry = cache.entry_path(specs[0])
    assert entry.is_file()
    entry.write_text(corruption)

    fresh = ResultCache(tmp_path / "c")
    assert fresh.get(specs[0]) is None
    assert not entry.exists(), "corrupt entry must be deleted"
    # the other entry is untouched and still hits
    assert fresh.get(specs[1]) == want[1]

    # a rerun repopulates the discarded slot
    repair = SweepExecutor(jobs=1, cache=ResultCache(tmp_path / "c"))
    got = repair.run(specs)
    assert got == want
    assert repair.last_stats == {"points": 2, "hits": 1, "ran": 1}


def test_clear_removes_everything(tmp_path):
    cache = ResultCache(tmp_path / "c")
    executor = SweepExecutor(jobs=1, cache=cache)
    specs = tiny_specs()
    executor.run(specs)
    cache.clear()
    assert not (tmp_path / "c").exists()
    fresh = ResultCache(tmp_path / "c")
    assert fresh.get(specs[0]) is None


def test_case_spec_results_round_trip_through_cache(tmp_path):
    """The cache decodes entries through the spec's own result decoder:
    a chaos CaseSpec entry must come back as a CaseResult, losslessly
    (the campaign checkpoint/resume path depends on this)."""
    from repro.chaos.explorer import CaseResult, CaseSpec

    cache = ResultCache(tmp_path / "c")
    spec = CaseSpec(scenario="lan-small", seed=1)
    result = spec.run()
    cache.put(spec, result)
    back = cache.get(spec)
    assert isinstance(back, CaseResult)
    assert back.to_dict() == result.to_dict()
    # PointSpec and CaseSpec entries coexist in one generation dir.
    point = tiny_specs()[0]
    cache.put(point, point.run())
    assert cache.get(point).to_dict() is not None
    assert cache.get(spec).to_dict() == result.to_dict()
