"""Property checkers for atomic multicast runs (§2.2 properties), all
judged by one :func:`collect_violations` call (genuineness over the
flights of :func:`repro.sim.trace.record_flights`), and runtime
invariant monitors."""

from .invariants import InvariantMonitor, attach_monitors
from .properties import (
    PropertyViolation,
    Violation,
    check_acyclic_order,
    check_genuineness,
    check_integrity,
    check_prefix_order,
    check_timestamp_order,
    check_truncation_safety,
    check_uniform_agreement,
    check_validity,
    collect_violations,
)

__all__ = [
    "PropertyViolation",
    "Violation",
    "check_integrity",
    "check_uniform_agreement",
    "check_acyclic_order",
    "check_prefix_order",
    "check_timestamp_order",
    "check_truncation_safety",
    "check_genuineness",
    "check_validity",
    "collect_violations",
    "InvariantMonitor",
    "attach_monitors",
]
