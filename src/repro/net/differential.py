"""Differential harness: the sim and net backends must agree.

The same :class:`~repro.core.process.PrimCastProcess` code runs over
two substrates — the deterministic simulator and real asyncio sockets —
driven by the same :class:`~repro.net.workload.PlanClient`. In the
sequential shape (one client, window 1) the protocol *determines* the
observable outcome regardless of timing: final timestamps strictly
increase in submission order, so every group delivers exactly the
submission-order subsequence addressed to it. Agreement is therefore an
exact check, not a statistical one:

* per pid, the **delivered set** must be identical across backends
  (killed nodes excepted — theirs must be a prefix of their group's
  order), and
* per group, every member's **delivery order** must be identical, and
  identical across backends.

A violation means one backend reordered or dropped an a-delivery the
other performed — a safety bug in the transport port, not noise.

Any wider shape gives up the exact check on purpose: concurrent
clients or a wider window make the interleaving timing-dependent, so no
sim run defines *the* reference order. What
must still hold are the protocol's safety properties themselves —
integrity, uniform agreement, acyclic order, timestamp order, prefix
order — which :mod:`repro.verify` already checks over per-node
delivery logs. :func:`verify_cluster_logs` reconstructs the ground
truth (which mids exist, who they were addressed to) from the
``submit-*.jsonl`` logs every node writes, merges the per-node
``delivery-*.jsonl`` logs, and runs the statistical checks — plus
truncation safety over the ``truncate-*.jsonl`` logs of the state GC
every node runs. ``python -m repro.net diff`` runs it after the exact
comparison too, kill runs included.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..core.config import GroupConfig
from ..harness.steps import build_bare_system
from ..verify.properties import Violation, collect_violations
from .cluster import ClusterResult, read_jsonl
from .host import DRIVER_PID, ClusterSpec
from .workload import PlanClient

MessageId = Tuple[int, int]
DeliveryMap = Dict[int, List[Tuple[MessageId, int]]]


def run_sim_reference(topology: ClusterSpec) -> DeliveryMap:
    """Run the topology's plan on the simulator (exact 1 ms links, free
    CPUs), one client with one outstanding message on :data:`DRIVER_PID`;
    pid -> deliveries.

    Failure-free (the kill, if any, happens only on the net side; the
    sim reference defines the full no-failure outcome that survivors
    must still produce). No oracle and no state-GC daemon are attached,
    so the event heap drains when the protocol quiesces and the run
    terminates on its own.
    """
    if topology.clients != 1:
        raise ValueError("the sim reference is defined for one client only")
    system = build_bare_system(
        "primcast", topology.n_groups, topology.group_size, delta_ms=1.0
    )
    (plan,) = topology.client_plans()
    PlanClient(system.processes[DRIVER_PID], system.scheduler, 0, plan).start()
    system.scheduler.run(until=10_000_000.0)
    return {
        pid: [(mid, final) for mid, final, _t in proc.delivery_log]
        for pid, proc in system.processes.items()
    }


def compare_deliveries(
    reference: DeliveryMap,
    observed: DeliveryMap,
    config: GroupConfig,
    killed: Optional[int] = None,
) -> List[str]:
    """Mismatch descriptions (empty = the backends agree).

    ``observed`` rows for a killed pid are held only to the prefix
    property; every other pid must match the reference exactly.
    """
    problems: List[str] = []
    for pid, ref_rows in sorted(reference.items()):
        obs_rows = observed.get(pid)
        if obs_rows is None:
            problems.append(f"pid {pid}: no observed deliveries")
            continue
        ref_order = [mid for mid, _f in ref_rows]
        obs_order = [mid for mid, _f in obs_rows]
        if pid == killed:
            if obs_order != ref_order[: len(obs_order)]:
                problems.append(
                    f"pid {pid} (killed): delivered order is not a prefix "
                    f"of the reference ({obs_order!r} vs {ref_order!r})"
                )
            continue
        if set(obs_order) != set(ref_order):
            missing = sorted(set(ref_order) - set(obs_order))
            extra = sorted(set(obs_order) - set(ref_order))
            problems.append(
                f"pid {pid}: delivered set differs "
                f"(missing {missing!r}, extra {extra!r})"
            )
            continue
        if obs_order != ref_order:
            problems.append(
                f"pid {pid}: delivery order differs "
                f"({obs_order!r} vs {ref_order!r})"
            )
    # Cross-member agreement inside each backend: every member of a
    # group must see the group's messages in one order.
    for name, rows_by_pid in (("reference", reference), ("observed", observed)):
        for gid in range(config.n_groups):
            orders = {}
            for pid in config.members(gid):
                if pid == killed and name == "observed":
                    continue
                rows = rows_by_pid.get(pid)
                if rows is not None:
                    orders[pid] = [mid for mid, _f in rows]
            if len(set(map(tuple, orders.values()))) > 1:
                problems.append(
                    f"{name}: group {gid} members disagree on order: {orders!r}"
                )
    return problems


def diff_cluster_result(result: ClusterResult) -> List[str]:
    """Differential check for a finished cluster run (either runner)."""
    reference = run_sim_reference(result.topology)
    observed: DeliveryMap = {
        pid: outcome.delivered for pid, outcome in result.outcomes.items()
    }
    killed = next(
        (pid for pid, o in result.outcomes.items() if o.killed), None
    )
    config = result.topology.make_config()
    return compare_deliveries(reference, observed, config, killed=killed)


# ----------------------------------------------------------------------
# statistical verification (open-loop driver)
# ----------------------------------------------------------------------


def verify_cluster_logs(result: ClusterResult) -> List[Violation]:
    """Run the statistical safety checks over a cluster's on-disk logs.

    Ground truth comes from the run itself, not the seed: the merged
    ``submit-*.jsonl`` logs say which mids were a-multicast and to
    which groups. Delivery logs are read back *with* local delivery
    times — the (mid, final, t) triple shape ``repro.verify``'s
    checkers consume. Killed nodes stay in the logs (their prefix is
    checked) but drop out of ``correct_pids``, exactly the paper's
    uniform-agreement obligation. A run ends only after every live node
    delivered all it expected, so validity is owed too: a mid a correct
    node submitted reached every correct destination. The
    ``truncate-*.jsonl`` logs feed the same call's truncation-safety
    check: the state GC may only have dropped T entries its node had
    already delivered and every correct destination delivers. This is
    the battery the chaos explorer runs on the simulator, called the
    same way.
    """
    rundir = result.rundir
    config = result.topology.make_config()
    pids = sorted(config.group_of)

    multicast_mids: Set[Tuple[int, int]] = set()
    dest_pids_of: Dict[Tuple[int, int], Set[int]] = {}
    for pid in pids:
        for row in read_jsonl(rundir / f"submit-{pid}.jsonl"):
            multicast_mids.add(row["mid"])
            dest_pids_of[row["mid"]] = set(config.dest_pids(frozenset(row["dest"])))

    logs = {
        pid: [
            (row["mid"], row["final"], row["t"])
            for row in read_jsonl(rundir / f"delivery-{pid}.jsonl")
        ]
        for pid in pids
    }
    # State GC: each truncation, stamped on the node clock its delivery
    # log uses, is judged against that log as it stood at that moment.
    # No truncate log means nothing was truncated.
    truncated: Dict[int, Dict[MessageId, float]] = {}
    for pid in pids:
        first = truncated[pid] = {}
        for row in read_jsonl(rundir / f"truncate-{pid}.jsonl"):
            for mid in row["mids"]:
                first.setdefault(mid, row["t"])
    killed = {pid for pid, o in result.outcomes.items() if o.killed}
    correct_pids = {pid for pid in pids if pid not in killed}
    return collect_violations(
        logs, multicast_mids, dest_pids_of, correct_pids, truncated=truncated,
        validity=True,
    )
