"""Unit tests for the property checkers themselves (positive + negative)."""

import pytest

from helpers import MiniSystem
from repro.core import Multicast
from repro.verify.properties import (
    PropertyViolation,
    check_acyclic_order,
    check_integrity,
    check_prefix_order,
    check_timestamp_order,
    check_truncation_safety,
    check_uniform_agreement,
    check_validity,
    collect_violations,
)

A, B, C = ("a", 1), ("b", 1), ("c", 1)


def log(*entries):
    return [(mid, ts, float(i)) for i, (mid, ts) in enumerate(entries)]


class TestIntegrity:
    def test_ok(self):
        check_integrity({0: log((A, 1), (B, 2))}, {A, B})

    def test_duplicate_delivery_caught(self):
        with pytest.raises(PropertyViolation, match="twice"):
            check_integrity({0: log((A, 1), (A, 1))}, {A})

    def test_phantom_message_caught(self):
        with pytest.raises(PropertyViolation, match="never"):
            check_integrity({0: log((A, 1))}, set())

    def test_mini_system_reports_a_forged_delivery(self):
        # A MiniSystem records multicasts at submission only, so a
        # delivery nobody a-multicast is judged, not whitelisted.
        sys_ = MiniSystem(n_groups=1)
        sys_.multicast(0, {0})
        sys_.run(until=50)
        forged = Multicast((9, 0), frozenset({0}))
        sys_.processes[1]._record_delivery(forged, 99)
        violations = collect_violations(
            sys_.logs, set(sys_.multicasts), sys_.dest_pids_of(), sys_.correct_pids()
        )
        integrity = [v for v in violations if v.prop == "integrity"]
        assert [v.mids for v in integrity] == [(forged.mid,)]


class TestUniformAgreement:
    def test_ok_when_all_correct_dests_deliver(self):
        logs = {0: log((A, 1)), 1: log((A, 1))}
        check_uniform_agreement(logs, {A: {0, 1}}, {0, 1})

    def test_missing_delivery_caught(self):
        logs = {0: log((A, 1)), 1: []}
        with pytest.raises(PropertyViolation):
            check_uniform_agreement(logs, {A: {0, 1}}, {0, 1})

    def test_crashed_processes_excused(self):
        logs = {0: log((A, 1)), 1: []}
        check_uniform_agreement(logs, {A: {0, 1}}, {0})

    def test_non_destinations_excused(self):
        logs = {0: log((A, 1)), 1: []}
        check_uniform_agreement(logs, {A: {0}}, {0, 1})


class TestValidity:
    # Validity reads a mid's origin from its first field: M is process
    # 0's, N process 2's.
    M, N = (0, 1), (2, 1)

    def test_ok_when_every_correct_destination_delivers(self):
        logs = {0: log((self.M, 1)), 1: log((self.M, 1))}
        check_validity(logs, {self.M}, {self.M: {0, 1}}, {0, 1})

    def test_message_of_a_correct_origin_must_be_delivered(self):
        logs = {0: log((self.M, 1)), 1: []}
        with pytest.raises(PropertyViolation, match="correct destination 1"):
            check_validity(logs, {self.M}, {self.M: {0, 1}}, {0, 1})

    def test_crashed_origin_and_destinations_excused(self):
        logs = {0: log((self.M, 1)), 1: []}
        check_validity(logs, {self.M}, {self.M: {0, 1}}, {0})
        check_validity({0: [], 1: []}, {self.N}, {self.N: {0, 1}}, {0, 1})


class TestAcyclicOrder:
    def test_consistent_orders_pass(self):
        logs = {0: log((A, 1), (B, 2)), 1: log((A, 1), (B, 2), (C, 3))}
        check_acyclic_order(logs)

    def test_two_process_cycle_caught(self):
        logs = {0: log((A, 1), (B, 2)), 1: log((B, 2), (A, 1))}
        with pytest.raises(PropertyViolation, match="cycle"):
            check_acyclic_order(logs)

    def test_three_process_cycle_caught(self):
        # a<b at 0, b<c at 1, c<a at 2: cycle via transitivity.
        logs = {
            0: log((A, 1), (B, 2)),
            1: log((B, 2), (C, 3)),
            2: log((C, 3), (A, 1)),
        }
        with pytest.raises(PropertyViolation, match="cycle"):
            check_acyclic_order(logs)

    def test_disjoint_logs_pass(self):
        logs = {0: log((A, 1)), 1: log((B, 1))}
        check_acyclic_order(logs)

    def test_empty_logs_pass(self):
        check_acyclic_order({0: [], 1: []})


class TestPrefixOrder:
    def test_ok(self):
        logs = {0: log((A, 1), (B, 2)), 1: log((A, 1), (B, 2))}
        check_prefix_order(logs, {A: {0, 1}, B: {0, 1}})

    def test_violation_caught(self):
        # 0 delivered only A, 1 delivered only B; both messages destined
        # to both -> neither saw the other first.
        logs = {0: log((A, 1)), 1: log((B, 2))}
        with pytest.raises(PropertyViolation, match="prefix"):
            check_prefix_order(logs, {A: {0, 1}, B: {0, 1}})

    def test_disjoint_destinations_not_constrained(self):
        logs = {0: log((A, 1)), 1: log((B, 2))}
        check_prefix_order(logs, {A: {0}, B: {1}})


class TestTimestampOrder:
    def test_ok(self):
        check_timestamp_order({0: log((A, 1), (B, 1), (C, 5))})

    def test_decreasing_ts_caught(self):
        with pytest.raises(PropertyViolation):
            check_timestamp_order({0: log((A, 5), (B, 1))})

    def test_tie_must_respect_id_order(self):
        # (b,1) before (a,1): ids out of order at equal ts.
        with pytest.raises(PropertyViolation):
            check_timestamp_order({0: log((B, 1), (A, 1))})

    def test_inconsistent_finals_across_processes_caught(self):
        logs = {0: log((A, 1)), 1: log((A, 2))}
        with pytest.raises(PropertyViolation, match="final"):
            check_timestamp_order(logs)


class TestCollectViolations:
    """collect_violations runs every checker and reports as data."""

    def test_clean_logs_collect_nothing(self):
        logs = {0: log((A, 1), (B, 2)), 1: log((A, 1), (B, 2))}
        args = (logs, {A, B}, {A: {0, 1}, B: {0, 1}}, {0, 1})
        assert collect_violations(*args) == []

    def test_violation_carries_the_checker_exception(self):
        # Duplicate delivery: integrity is the first checker.
        logs = {0: log((A, 1), (A, 1))}
        args = (logs, {A}, {A: {0}}, {0})
        with pytest.raises(PropertyViolation) as excinfo:
            check_integrity(logs, {A})
        violations = collect_violations(*args)
        assert violations
        assert violations[0].prop == excinfo.value.prop
        assert violations[0].message == str(excinfo.value)
        assert violations[0].mids == tuple(excinfo.value.mids)

    def test_collects_multiple_properties(self):
        # Cyclic order also breaks timestamp consistency across logs.
        logs = {0: log((A, 1), (B, 2)), 1: log((B, 1), (A, 2))}
        args = (logs, {A, B}, {A: {0, 1}, B: {0, 1}}, {0, 1})
        violations = collect_violations(*args)
        props = [v.prop for v in violations]
        assert "acyclic-order" in props
        assert len(props) == len(set(props)), "one violation per property"

    def test_structured_fields_are_populated(self):
        logs = {0: log((A, 1), (A, 1))}
        violations = collect_violations(logs, {A}, {A: {0}}, {0})
        v = violations[0]
        assert v.prop == "integrity"
        assert A in v.mids
        d = v.to_dict()
        assert d["prop"] == "integrity"
        assert d["mids"] == [list(mid) for mid in v.mids]

    def test_prefix_flag_respected(self):
        logs = {0: log((A, 1)), 1: log((B, 1))}
        dests = {A: {0, 1}, B: {0, 1}}
        # Uniform agreement fails either way; prefix order only when on.
        with_prefix = {v.prop for v in collect_violations(logs, {A, B}, dests, {0, 1})}
        without = {
            v.prop
            for v in collect_violations(logs, {A, B}, dests, {0, 1}, prefix=False)
        }
        assert "prefix-order" in with_prefix
        assert "prefix-order" not in without

    def test_crashed_process_log_is_held_to_uniform_order(self):
        # Process 1 crashed after delivering B before A; correct process
        # 0 delivered A before B. Agreement does not bind 1, order does.
        logs = {0: log((A, 1), (B, 2)), 1: log((B, 2), (A, 1))}
        props = {
            v.prop for v in collect_violations(logs, {A, B}, {A: {0, 1}, B: {0, 1}}, {0})
        }
        assert {"acyclic-order", "prefix-order", "timestamp-order"} <= props
        # a crashed process's clean prefix is no violation
        logs[1] = log((A, 1))
        assert collect_violations(logs, {A, B}, {A: {0, 1}, B: {0, 1}}, {0}) == []

    def test_truncations_are_judged_only_when_given(self):
        logs = {0: log((A, 1), (B, 2))}  # A at t=0.0, B at t=1.0
        args = (logs, {A, B}, {A: {0}, B: {0}}, {0})
        assert collect_violations(*args, truncated={0: {A: 0.0, B: 1.0}}) == []
        # B truncated before it was delivered: only the timed form sees it
        early = {0: {B: 0.5}}
        assert collect_violations(*args) == []
        (v,) = collect_violations(*args, truncated=early)
        assert (v.prop, v.mids) == ("truncation-safety", (B,))

    def test_validity_is_judged_only_when_asked(self):
        # Nothing delivered holds every safety property.
        mid = (0, 1)
        args = ({0: [], 1: []}, {mid}, {mid: {0, 1}}, {0, 1})
        assert collect_violations(*args) == []
        (v,) = collect_violations(*args, validity=True)
        assert (v.prop, v.mids) == ("validity", (mid,))


class TestTruncationSafety:
    def test_truncation_after_delivery_passes(self):
        logs = {0: log((A, 1)), 1: log((A, 1))}
        check_truncation_safety({0: {A: 5.0}}, logs, {A: {0, 1}}, {0, 1})

    def test_truncation_of_undelivered_message_caught(self):
        logs = {0: log((A, 1)), 1: log((A, 1))}
        with pytest.raises(PropertyViolation, match="without delivering"):
            check_truncation_safety({0: {B: 5.0}}, logs, {A: {0, 1}, B: {0}}, {0, 1})

    def test_truncation_is_judged_against_the_log_at_that_time(self):
        logs = {0: log((A, 1), (B, 2))}  # B delivered at t=1.0
        with pytest.raises(PropertyViolation, match="without delivering"):
            check_truncation_safety({0: {B: 0.5}}, logs, {B: {0}}, {0})
        check_truncation_safety({0: {B: 1.0}}, logs, {B: {0}}, {0})

    def test_correct_destination_must_deliver(self):
        logs = {0: log((A, 1)), 1: []}
        with pytest.raises(PropertyViolation, match="correct destination 1"):
            check_truncation_safety({0: {A: 5.0}}, logs, {A: {0, 1}}, {0, 1})
        # a crashed destination owes nothing
        check_truncation_safety({0: {A: 5.0}}, logs, {A: {0, 1}}, {0})
