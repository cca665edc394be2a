"""Group and quorum configuration (§2.1).

Process groups are disjoint and their union is the whole server set Π.
Each group has a quorum system: any two quorums intersect and at least
one quorum must contain no faulty process. The default is majority
quorums (``floor(n/2) + 1``); arbitrary quorum systems can be supplied
explicitly and are validated for pairwise intersection.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Optional, Sequence


class GroupConfig:
    """Static system membership.

    Args:
        groups: one list of pids per group (group ids are positional).
        quorum_sets: optional explicit quorum system per group id; when
            omitted, majority quorums are used.
    """

    __slots__ = (
        "groups",
        "n_groups",
        "group_of",
        "quorum_sets",
        "_member_sets",
        "_majority_sizes",
        "_dest_pids_cache",
        "_member_bits",
        "_quorum_masks",
    )

    def __init__(
        self,
        groups: Sequence[Sequence[int]],
        quorum_sets: Optional[Dict[int, List[FrozenSet[int]]]] = None,
    ) -> None:
        if not groups:
            raise ValueError("need at least one group")
        self.groups: List[List[int]] = [list(g) for g in groups]
        # A plain slot, not a property: ``groups`` never changes after
        # construction, and every new mid at every process reads this.
        self.n_groups = len(self.groups)
        self.group_of: Dict[int, int] = {}
        for gid, members in enumerate(self.groups):
            if not members:
                raise ValueError(f"group {gid} is empty")
            for pid in members:
                if pid in self.group_of:
                    raise ValueError(f"pid {pid} appears in two groups (groups are disjoint)")
                self.group_of[pid] = gid
        self.quorum_sets: Dict[int, List[FrozenSet[int]]] = {}
        if quorum_sets:
            for gid, quorums in quorum_sets.items():
                self._validate_quorums(gid, quorums)
                self.quorum_sets[gid] = [frozenset(q) for q in quorums]
        # Precomputed per-group member sets and majority sizes: the
        # quorum predicates run on every ack of every run, so they must
        # not rebuild these on each call.
        self._member_sets: List[FrozenSet[int]] = [frozenset(g) for g in self.groups]
        self._majority_sizes: List[int] = [len(g) // 2 + 1 for g in self.groups]
        # dest_pids() is called for every multicast submission and every
        # protocol fan-out; destination sets repeat constantly, so the
        # sorted-flattened pid list is memoised per destination set.
        self._dest_pids_cache: Dict[FrozenSet[int], List[int]] = {}
        # Bitmask view of membership, read directly by the
        # allocation-free AckTracker.add_ack: pid -> single-bit mask of
        # the pid's position within its group (0 for non-members), plus
        # each explicit quorum as a mask over the same positions.
        # Majority quorums reduce to a popcount compare.
        self._member_bits: List[Dict[int, int]] = [
            {pid: 1 << i for i, pid in enumerate(g)} for g in self.groups
        ]
        self._quorum_masks: Dict[int, List[int]] = {}
        for gid, quorums in self.quorum_sets.items():
            bits = self._member_bits[gid]
            self._quorum_masks[gid] = [
                sum(bits[pid] for pid in q) for q in quorums
            ]

    def _validate_quorums(self, gid: int, quorums: List[FrozenSet[int]]) -> None:
        if not 0 <= gid < len(self.groups):
            raise ValueError(f"unknown group {gid}")
        members = set(self.groups[gid])
        if not quorums:
            raise ValueError(f"group {gid}: quorum system is empty")
        for q in quorums:
            if not set(q) <= members:
                raise ValueError(f"group {gid}: quorum {set(q)} not within the group")
        for i, a in enumerate(quorums):
            for b in quorums[i:]:
                if not set(a) & set(b):
                    raise ValueError(
                        f"group {gid}: quorums {set(a)} and {set(b)} do not intersect"
                    )

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    @property
    def all_pids(self) -> List[int]:
        """Every server pid, in group order."""
        return [pid for members in self.groups for pid in members]

    def members(self, gid: int) -> List[int]:
        """Members of group ``gid``."""
        return self.groups[gid]

    def initial_leader(self, gid: int) -> int:
        """The leader of every group's initial epoch (first member)."""
        return self.groups[gid][0]

    def quorum_size(self, gid: int) -> int:
        """Majority quorum size for group ``gid`` (when no explicit
        quorum system is configured)."""
        return len(self.groups[gid]) // 2 + 1

    def dest_pids(self, dest: Iterable[int]) -> List[int]:
        """All pids in the union of the destination groups, sorted by
        group then position (deterministic send order).

        The returned list is memoised and shared between calls with the
        same destination set — callers must not mutate it.
        """
        key = dest if isinstance(dest, frozenset) else frozenset(dest)
        cached = self._dest_pids_cache.get(key)
        if cached is None:
            pids: List[int] = []
            for gid in sorted(key):
                pids.extend(self.groups[gid])
            cached = self._dest_pids_cache[key] = pids
        return cached

    # ------------------------------------------------------------------
    # quorum predicates
    # ------------------------------------------------------------------

    def has_quorum(self, gid: int, pids: Iterable[int]) -> bool:
        """True when ``pids`` contains a quorum of group ``gid``."""
        pid_set: AbstractSet[int] = (
            pids if isinstance(pids, (set, frozenset)) else set(pids)
        )
        quorums = self.quorum_sets.get(gid)
        if quorums is None:
            need = self._majority_sizes[gid]
            if len(pid_set) < need:
                return False
            members = self._member_sets[gid]
            count = 0
            for pid in pid_set:
                if pid in members:
                    count += 1
                    if count >= need:
                        return True
            return False
        return any(q <= pid_set for q in quorums)

    def quorum_clock_value(self, gid: int, min_clocks: Dict[int, int]) -> int:
        """quorum-clock() (Algorithm 1, line 17): the largest ``ts`` such
        that some quorum of the group has ``min-clock(q) >= ts`` for all
        its members. Missing members count as clock 0.

        For majority quorums this is the q-th largest clock value; for
        explicit quorum systems it is computed directly as
        ``max over quorums of (min over quorum)``.
        """
        members = self.groups[gid]
        quorums = self.quorum_sets.get(gid)
        if quorums is None:
            get = min_clocks.get
            values = [get(pid, 0) for pid in members]
            q = self._majority_sizes[gid]
            n = len(values)
            if n == q:  # e.g. singleton groups: quorum = whole group
                return min(values)
            values.sort()
            return values[n - q]
        return max(min(min_clocks.get(pid, 0) for pid in q) for q in quorums)

    def __repr__(self) -> str:
        sizes = [len(g) for g in self.groups]
        return f"GroupConfig({len(self.groups)} groups, sizes={sizes})"


def uniform_groups(n_groups: int, group_size: int) -> GroupConfig:
    """Convenience: ``n_groups`` disjoint groups of ``group_size`` with
    consecutive pids (group g holds pids ``[g*size, (g+1)*size)``)."""
    if n_groups < 1 or group_size < 1:
        raise ValueError("need at least one group of at least one process")
    groups = [
        list(range(g * group_size, (g + 1) * group_size)) for g in range(n_groups)
    ]
    return GroupConfig(groups)
