"""Linear-time output check for a benchmark run.

Every workload's delivery logs go through :func:`check_logs`:

* **integrity** — each message at most once per process, only at its
  destination processes, only if it was submitted;
* **agreement** — every destination process delivered it (the caller
  drains before collecting logs, so a missing delivery is a failure);
* **order** — per process, ``(final_ts, mid)`` strictly increases and
  every process reports the same final timestamp for a message. Equal
  finals plus increasing keys put every log in one global total order,
  which implies prefix and acyclic order.

Each message failing one of these counts once in ``failed``. The same
logs then go through the library's own linear checkers
(``repro.verify.properties``), and its literal — quadratic —
``check_prefix_order`` runs on a small window of messages only: on a
10k-message log the full check does not finish in minutes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.core.config import GroupConfig
from repro.verify.properties import (
    PropertyViolation,
    check_prefix_order,
    collect_violations,
)

MessageId = Tuple[int, int]
DeliveryLog = List[Tuple[MessageId, int, float]]

#: Messages in the literal prefix-order check, and the budget of inner
#: steps (process pairs x window^2) that shrinks it on large clusters.
PREFIX_WINDOW = 300
PREFIX_BUDGET = 2_000_000


@dataclass
class CheckReport:
    failed: Set[MessageId] = field(default_factory=set)
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failed and not self.violations


def check_logs(
    logs: Dict[int, DeliveryLog],
    dests_of: Dict[MessageId, FrozenSet[int]],
    config: GroupConfig,
) -> CheckReport:
    """Check per-process delivery ``logs`` against the submitted
    messages ``dests_of`` (mid -> destination group ids)."""
    report = CheckReport()
    failed = report.failed
    pids_of_dests: Dict[FrozenSet[int], Set[int]] = {}
    dest_pids_of: Dict[MessageId, Set[int]] = {}
    for mid, dests in dests_of.items():
        pids = pids_of_dests.get(dests)
        if pids is None:
            pids = pids_of_dests[dests] = set(config.dest_pids(dests))
        dest_pids_of[mid] = pids

    finals: Dict[MessageId, int] = {}
    delivered_at: Dict[MessageId, int] = {}
    for pid, log in logs.items():
        seen: Set[MessageId] = set()
        prev = None
        for mid, final, _ in log:
            pids = dest_pids_of.get(mid)
            if mid in seen or pids is None or pid not in pids:
                failed.add(mid)
            else:
                delivered_at[mid] = delivered_at.get(mid, 0) + 1
            seen.add(mid)
            key = (final, mid)
            if prev is not None and key <= prev:
                failed.add(mid)
                failed.add(prev[1])
            prev = key
            if finals.setdefault(mid, final) != final:
                failed.add(mid)
    for mid, pids in dest_pids_of.items():
        if delivered_at.get(mid, 0) != len(pids):
            failed.add(mid)

    # The library's checkers over the same logs: an independent
    # implementation of the above plus the acyclic-order DFS.
    known = {pid: [e for e in log if e[0] in dest_pids_of] for pid, log in logs.items()}
    for violation in collect_violations(
        known, set(dests_of), dest_pids_of, set(logs), prefix=False
    ):
        report.violations.append(f"{violation.prop}: {violation.message}")
        failed.update(violation.mids)

    pairs = max(1, len(logs) * (len(logs) - 1) // 2)
    window = min(PREFIX_WINDOW, int((PREFIX_BUDGET / pairs) ** 0.5))
    longest = max(known.values(), key=len, default=[])
    start = max(0, len(longest) // 2 - window // 2)
    chosen = {mid for mid, _, _ in longest[start : start + window]}
    try:
        check_prefix_order(
            {pid: [e for e in log if e[0] in chosen] for pid, log in known.items()},
            dest_pids_of,
        )
    except PropertyViolation as exc:
        report.violations.append(f"{exc.prop}: {exc}")
        failed.update(exc.mids)
    return report
