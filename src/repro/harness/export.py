"""Result export: CSV serialization of experiment runs.

The benches print human-readable tables; this module writes the same
data in machine-readable form so results can be archived, diffed across
runs, or plotted with external tooling (the repository itself stays
dependency-free).
"""

from __future__ import annotations

import csv
from typing import Dict, Iterable, List, Tuple

from .runner import RunResult

#: Column order for CSV export.
CSV_FIELDS = (
    "protocol",
    "scenario",
    "n_dest_groups",
    "outstanding",
    "throughput",
    "mean_ms",
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "samples",
    "events",
)


def result_row(result: RunResult) -> Dict[str, object]:
    """Flatten one RunResult into a CSV-friendly dict.

    Built on :meth:`RunResult.to_dict` (the shared full serialization,
    also used by the result cache); this view keeps only the flat,
    plot-ready columns of :data:`CSV_FIELDS`.
    """
    data = result.to_dict()
    latency = data["latency"]
    return {
        "protocol": data["protocol"],
        "scenario": data["scenario"],
        "n_dest_groups": data["n_dest_groups"],
        "outstanding": data["outstanding"],
        "throughput": data["throughput"],
        "mean_ms": latency.get("mean", 0.0),
        "p50_ms": latency.get("p50", 0.0),
        "p95_ms": latency.get("p95", 0.0),
        "p99_ms": latency.get("p99", 0.0),
        "samples": int(latency.get("count", 0)),
        "events": data["events"],
    }


def write_csv(path: str, results: Iterable[RunResult]) -> None:
    """Write a sweep's results to ``path`` as CSV."""
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for result in results:
            writer.writerow(result_row(result))


def write_cdf_csv(
    path: str, curves: Dict[str, List[Tuple[float, float]]]
) -> None:
    """Write Figure 5-style CDF curves: series, latency_ms, fraction."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["series", "latency_ms", "fraction"])
        for series in sorted(curves):
            for latency, fraction in curves[series]:
                writer.writerow([series, latency, fraction])
