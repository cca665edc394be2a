"""Property checkers for atomic multicast runs (§2.2 properties)."""

from .genuineness import GenuinenessTracer
from .invariants import InvariantMonitor, attach_monitors
from .properties import (
    PropertyViolation,
    Violation,
    check_acyclic_order,
    check_integrity,
    check_prefix_order,
    check_timestamp_order,
    check_truncation_safety,
    check_uniform_agreement,
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
    "collect_violations",
    "GenuinenessTracer",
    "InvariantMonitor",
    "attach_monitors",
]
