"""Evaluation harness: runners, metrics, analytic model, experiments."""

from .analytic import (
    COMPLEXITY_FORMULAS,
    LATENCY_PROFILES,
    LatencyProfile,
    exact_message_count,
    hybrid_clock_failure_free_ms,
    message_complexity,
    table1_rows,
)
from .cache import ResultCache, code_fingerprint, spec_key
from .diagnostics import ConvoyProbe, attach_probes, merged_summary
from .experiments import figure2, figure3, figure4, figure5, sweep
from .export import result_row, write_cdf_csv, write_csv, write_json
from .metrics import cdf_points, percentile, summarize
from .parallel import (
    PointSpec,
    SweepExecutor,
    expand_sweep,
    point_spec,
    scenario_matches_registry,
)
from .report import (
    THROUGHPUT_HEADERS,
    format_table,
    max_throughput_by_protocol,
    print_results,
    throughput_latency_rows,
)
from .runner import PROTOCOLS, RunResult, System, build_system, make_processes, run_load_point
from .steps import build_bare_system, measure_collision_free, measure_primcast_convoy

__all__ = [
    "PROTOCOLS",
    "System",
    "RunResult",
    "build_system",
    "make_processes",
    "run_load_point",
    "sweep",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "percentile",
    "summarize",
    "cdf_points",
    "LatencyProfile",
    "LATENCY_PROFILES",
    "COMPLEXITY_FORMULAS",
    "message_complexity",
    "exact_message_count",
    "hybrid_clock_failure_free_ms",
    "table1_rows",
    "measure_collision_free",
    "measure_primcast_convoy",
    "build_bare_system",
    "format_table",
    "print_results",
    "throughput_latency_rows",
    "THROUGHPUT_HEADERS",
    "max_throughput_by_protocol",
    "ConvoyProbe",
    "attach_probes",
    "merged_summary",
    "write_csv",
    "write_json",
    "write_cdf_csv",
    "result_row",
    "PointSpec",
    "SweepExecutor",
    "expand_sweep",
    "point_spec",
    "scenario_matches_registry",
    "ResultCache",
    "code_fingerprint",
    "spec_key",
]
