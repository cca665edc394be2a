"""Unit tests for group/quorum configuration."""

import pytest

from repro.core.config import GroupConfig, uniform_groups


class TestGroupConfig:
    def test_n_groups_is_a_plain_slot(self):
        # Read for every new mid at every process: a slot, not a property.
        cfg = uniform_groups(3, 2)
        assert cfg.n_groups == 3 and "n_groups" in GroupConfig.__slots__
        assert not isinstance(vars(GroupConfig).get("n_groups"), property)

    def test_group_of_mapping(self):
        config = GroupConfig([[0, 1, 2], [3, 4]])
        assert config.group_of[0] == 0
        assert config.group_of[4] == 1
        assert config.n_groups == 2
        assert config.all_pids == [0, 1, 2, 3, 4]

    def test_groups_must_be_disjoint(self):
        with pytest.raises(ValueError, match="disjoint"):
            GroupConfig([[0, 1], [1, 2]])

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            GroupConfig([[0], []])

    def test_no_groups_rejected(self):
        with pytest.raises(ValueError):
            GroupConfig([])

    def test_initial_leader_is_first_member(self):
        config = GroupConfig([[5, 1, 2]])
        assert config.initial_leader(0) == 5

    def test_majority_quorum_sizes(self):
        assert GroupConfig([[0]]).quorum_size(0) == 1
        assert GroupConfig([[0, 1]]).quorum_size(0) == 2
        assert GroupConfig([[0, 1, 2]]).quorum_size(0) == 2
        assert GroupConfig([list(range(5))]).quorum_size(0) == 3

    def test_dest_pids_sorted_by_group(self):
        config = GroupConfig([[0, 1], [2, 3], [4, 5]])
        assert config.dest_pids({2, 0}) == [0, 1, 4, 5]

    def test_has_quorum_majority(self):
        config = GroupConfig([[0, 1, 2]])
        assert not config.has_quorum(0, [0])
        assert config.has_quorum(0, [0, 2])
        assert config.has_quorum(0, [0, 1, 2])

    def test_has_quorum_ignores_foreign_pids(self):
        config = GroupConfig([[0, 1, 2], [3, 4, 5]])
        assert not config.has_quorum(0, [0, 3, 4])


class TestExplicitQuorums:
    def test_explicit_quorums_accepted(self):
        quorums = {0: [frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})]}
        config = GroupConfig([[0, 1, 2]], quorum_sets=quorums)
        assert config.has_quorum(0, [0, 1])
        assert not config.has_quorum(0, [0])

    def test_non_intersecting_quorums_rejected(self):
        with pytest.raises(ValueError, match="intersect"):
            GroupConfig(
                [[0, 1, 2, 3]],
                quorum_sets={0: [frozenset({0, 1}), frozenset({2, 3})]},
            )

    def test_quorum_outside_group_rejected(self):
        with pytest.raises(ValueError):
            GroupConfig([[0, 1]], quorum_sets={0: [frozenset({0, 9})]})

    def test_weighted_style_quorum_clock(self):
        """quorum-clock with an asymmetric quorum system: {0} alone is a
        quorum (e.g. a 'super node'), so its clock alone sets the bound."""
        quorums = {0: [frozenset({0}), frozenset({0, 1, 2})]}
        config = GroupConfig([[0, 1, 2]], quorum_sets=quorums)
        assert config.quorum_clock_value(0, {0: 7, 1: 1, 2: 1}) == 7


class TestQuorumClockValue:
    def test_majority_is_qth_largest(self):
        config = GroupConfig([[0, 1, 2, 3, 4]])
        clocks = {0: 1, 1: 2, 2: 3, 3: 4, 4: 5}
        # The paper's example (§5.2.3): quorum {3,4,5} -> value 3.
        assert config.quorum_clock_value(0, clocks) == 3

    def test_missing_members_count_as_zero(self):
        config = GroupConfig([[0, 1, 2]])
        assert config.quorum_clock_value(0, {0: 9}) == 0
        assert config.quorum_clock_value(0, {0: 9, 1: 4}) == 4

    def test_all_equal(self):
        config = GroupConfig([[0, 1, 2]])
        assert config.quorum_clock_value(0, {0: 5, 1: 5, 2: 5}) == 5


class TestUniformGroups:
    def test_layout(self):
        config = uniform_groups(3, 4)
        assert config.groups == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]]

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            uniform_groups(0, 3)
        with pytest.raises(ValueError):
            uniform_groups(3, 0)
