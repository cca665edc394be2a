"""Content-addressed on-disk cache for sweep results.

The simulation is a pure function of a :class:`~repro.harness.parallel.
PointSpec` and the simulator's source code — so its result can be
memoized under a key derived from exactly those two inputs:

* the **spec key**: SHA-256 of the spec's canonical (sorted-keys) JSON;
* the **code fingerprint**: SHA-256 over the per-file content hashes of
  every ``.py`` file under ``src/repro`` — a superset of whatever a load
  point or a chaos case can reach, so no import can escape it.

Layout::

    .repro-cache/
        <code-fingerprint>/
            <spec-key>.json     # {"spec": {...}, "result": RunResult dict}

Any edit to a source file changes the fingerprint, which changes the
directory every lookup goes through — the whole cache is invalidated
automatically. Old generation directories are retained up to a small
budget (:data:`KEEP_GENERATIONS`, least recently used evicted first)
so two checkouts or a bisect sharing one cache directory keep each
other's warm entries instead of destroying them.
Corrupt or unreadable entries are treated as misses and deleted, never
raised.

The cache never touches the wall clock and derives nothing from ambient
randomness (it is inside the DET001 static-analysis scope); entry writes
go through ``os.replace`` so concurrent executors can share a cache
directory without torn reads.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import Any, Optional

from .parallel import WorkSpec

#: Default cache directory (relative to the invoking process's cwd).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Generation directories (the current one included) a cache keeps;
#: older ones are evicted least-recently-used first. Keeping a few lets
#: two checkouts or a bisect share one cache directory without
#: repeatedly destroying each other's warm entries.
KEEP_GENERATIONS = 4

#: Where ``src/repro`` lives, resolved from this file.
_DEFAULT_SRC_ROOT = Path(__file__).resolve().parents[1]


def code_fingerprint(src_root: Optional[Path] = None) -> str:
    """SHA-256 over (relative path, content hash) of every ``.py`` file
    under ``src_root`` (default: ``src/repro``).

    Files are visited in sorted relative-path order so the digest is
    stable across platforms and filesystems.
    """
    root = Path(src_root) if src_root is not None else _DEFAULT_SRC_ROOT
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        digest.update(rel.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def spec_key(spec: WorkSpec) -> str:
    """SHA-256 of the spec's canonical JSON."""
    canonical = json.dumps(spec.canonical(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """Content-addressed store mapping a :class:`WorkSpec` to its result.

    Args:
        root: cache directory (created lazily on the first store).
        src_root: override for the fingerprinted source tree — tests
            point this at synthetic trees to exercise invalidation.

    Attributes:
        hits / misses / stores: lookup counters for this instance. A
            warm sweep shows ``misses == 0`` — no simulation ran.
    """

    def __init__(self, root: Optional[Path] = None, src_root: Optional[Path] = None) -> None:
        self.root = Path(root) if root is not None else Path(DEFAULT_CACHE_DIR)
        self.fingerprint = code_fingerprint(src_root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self._touch_current_generation()
        self._prune_stale_generations()

    # -- layout ---------------------------------------------------------

    @property
    def generation_dir(self) -> Path:
        """Directory holding entries for the current code fingerprint."""
        return self.root / self.fingerprint

    def entry_path(self, spec: WorkSpec) -> Path:
        return self.generation_dir / f"{spec_key(spec)}.json"

    def _touch_current_generation(self) -> None:
        """Mark the current generation as most recently used, so a
        bisect hopping between two fingerprints keeps both warm."""
        gen = self.generation_dir
        if gen.is_dir():
            try:
                os.utime(gen)
            except OSError:
                pass

    def _prune_stale_generations(self) -> None:
        """Evict generation directories beyond the retention budget.

        The current generation always survives; other fingerprints'
        directories are kept newest-first (by directory mtime, name as
        a deterministic tie-break) up to :data:`KEEP_GENERATIONS` total.
        """
        if not self.root.is_dir():
            return
        others = []
        for child in sorted(self.root.iterdir()):
            if child.is_dir() and child.name != self.fingerprint:
                try:
                    mtime = child.stat().st_mtime
                except OSError:
                    mtime = 0.0
                others.append((mtime, child.name, child))
        others.sort(reverse=True)
        # One retention slot is always the current generation's.
        for _, _, stale in others[KEEP_GENERATIONS - 1:]:
            shutil.rmtree(stale, ignore_errors=True)

    # -- lookup / store -------------------------------------------------

    def get(self, spec: WorkSpec) -> Optional[Any]:
        """Cached result for ``spec``, or None. Corrupt entries are
        discarded (deleted) and reported as misses, never raised.
        The spec decodes its own result (``WorkSpec.result_from_dict``).
        """
        path = self.entry_path(spec)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            result = spec.result_from_dict(payload["result"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, KeyError, TypeError, OSError):
            # Truncated write, hand-edited file, schema drift: treat as
            # absent and clear the slot so the re-run can repopulate it.
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, spec: WorkSpec, result: Any) -> Path:
        """Store ``result`` under ``spec``'s key (atomic replace)."""
        path = self.entry_path(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"spec": spec.canonical(), "result": result.to_dict()}
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)
        self.stores += 1
        return path

    def clear(self) -> None:
        """Delete every entry (all generations)."""
        if self.root.is_dir():
            shutil.rmtree(self.root, ignore_errors=True)
