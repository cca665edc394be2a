"""Localhost cluster launcher: one OS process per protocol process.

Two runners share the same file-based coordination protocol (see
:class:`~repro.net.host.NetNode` for the lifecycle):

* :func:`launch_cluster` — the real thing: spawns one
  ``python -m repro.net node`` subprocess per pid from a JSON topology,
  operates the readiness barrier (``ready-*`` → ``GO``), optionally
  SIGKILLs one node mid-run (once every node's mesh is up, ``up-*``),
  then the shutdown barrier (``done-*`` → ``STOP``), and collects
  per-node summaries and delivery logs.
* :func:`run_cluster_inprocess` — every node on one event loop with
  real sockets, used by the tier-1 tests (no subprocess spawn cost);
  "kill" cancels the node's coroutine, marks its scheduler dead and
  closes its sockets — listening, dialed and accepted — so the
  surviving peers see EOF on their connections to it and go redialing,
  as they do when the OS reaps a SIGKILLed process.

Ports are allocated by binding to port 0 and releasing — adequate for
single-host test clusters.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from .host import NetNode, NodeResult, Topology

MessageId = Tuple[int, int]


# ----------------------------------------------------------------------
# spec / topology construction
# ----------------------------------------------------------------------


@dataclass
class ClusterSpec:
    """What to run: uniform groups, a seeded workload, an optional kill."""

    n_groups: int = 2
    group_size: int = 3
    n_messages: int = 16
    seed: int = 1
    extra_group_p: float = 0.5
    #: SIGKILL this pid once the driver has delivered ``kill_after``
    #: messages. Must not be the driver, and its group must keep a
    #: quorum without it.
    kill_pid: Optional[int] = None
    kill_after: int = 4
    hb_interval_ms: float = 50.0
    suspect_ms: float = 500.0
    hb_grace_ms: Optional[float] = None
    run_timeout_s: float = 60.0
    #: Wire encoding: "json" or "binary" (host.Topology.codec).
    codec: str = "json"
    coalesce: bool = True
    batching_ms: float = 0.0
    #: "seq" (exact differential) or "open" (concurrent clients,
    #: statistical verification).
    driver_mode: str = "seq"
    clients: int = 4
    window: int = 4
    rate_hz: float = 0.0

    def validate(self) -> None:
        if self.n_groups < 1 or self.group_size < 1:
            raise ValueError("need at least one group of at least one member")
        if self.codec not in ("json", "binary"):
            raise ValueError(f"unknown codec {self.codec!r}")
        if self.driver_mode not in ("seq", "open"):
            raise ValueError(f"unknown driver mode {self.driver_mode!r}")
        if self.driver_mode == "open":
            if self.clients < 1 or self.window < 1:
                raise ValueError("open-loop driver needs clients >= 1, window >= 1")
            if self.kill_pid is not None:
                raise ValueError(
                    "kill injection requires the sequential driver (the "
                    "kill point is defined by the driver's delivery count)"
                )
        if self.kill_pid is not None:
            if self.kill_pid == 0:
                raise ValueError("cannot kill the driver (pid 0)")
            if self.kill_pid >= self.n_groups * self.group_size:
                raise ValueError(f"kill_pid {self.kill_pid} not in the cluster")
            if self.group_size < 3:
                raise ValueError(
                    "killing a node needs group_size >= 3 so the group "
                    "keeps a majority quorum"
                )


def allocate_ports(n: int, host: str = "127.0.0.1") -> List[int]:
    """Reserve ``n`` distinct free ports by binding then releasing."""
    socks = []
    try:
        for _ in range(n):
            s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            s.bind((host, 0))
            socks.append(s)
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


def make_topology(spec: ClusterSpec, host: str = "127.0.0.1") -> Topology:
    spec.validate()
    n = spec.n_groups * spec.group_size
    groups = [
        list(range(g * spec.group_size, (g + 1) * spec.group_size))
        for g in range(spec.n_groups)
    ]
    ports = allocate_ports(n, host)
    return Topology(
        groups=groups,
        addresses={pid: (host, ports[pid]) for pid in range(n)},
        seed=spec.seed,
        n_messages=spec.n_messages,
        driver_pid=0,
        extra_group_p=spec.extra_group_p,
        hb_interval_ms=spec.hb_interval_ms,
        suspect_ms=spec.suspect_ms,
        hb_grace_ms=spec.hb_grace_ms,
        run_timeout_s=spec.run_timeout_s,
        codec=spec.codec,
        coalesce=spec.coalesce,
        batching_ms=spec.batching_ms,
        driver_mode=spec.driver_mode,
        clients=spec.clients,
        window=spec.window,
        rate_hz=spec.rate_hz,
        # With a kill configured, the driver pauses after kill_after
        # deliveries until the coordinator writes RELEASE — so the kill
        # lands at a deterministic point in the workload instead of
        # racing the coordinator's file polling.
        hold_after=spec.kill_after if spec.kill_pid is not None else None,
    )


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------


@dataclass
class NodeOutcome:
    pid: int
    exit_code: Optional[int]
    killed: bool
    delivered: List[Tuple[MessageId, int]] = field(default_factory=list)
    summary: Optional[Dict[str, Any]] = None


@dataclass
class ClusterResult:
    topology: Topology
    outcomes: Dict[int, NodeOutcome]
    wall_s: float
    #: Where the run's logs live (submit/delivery jsonl, summaries) —
    #: the statistical verifier reads them from here.
    rundir: Optional[Path] = None

    @property
    def survivors(self) -> List[int]:
        return sorted(pid for pid, o in self.outcomes.items() if not o.killed)

    @property
    def ok(self) -> bool:
        """Every surviving node exited 0 having delivered its quota."""
        config = self.topology.make_config()
        for pid in self.survivors:
            o = self.outcomes[pid]
            if o.exit_code != 0:
                return False
            if len(o.delivered) != self.topology.expected_for(config.group_of[pid]):
                return False
        return True

    def delivered_orders(self) -> Dict[int, List[MessageId]]:
        return {
            pid: [mid for mid, _final in o.delivered]
            for pid, o in self.outcomes.items()
        }


def read_delivery_log(path: Path) -> List[Tuple[MessageId, int]]:
    """Parse one node's ``delivery-<pid>.jsonl`` into (mid, final) rows."""
    rows: List[Tuple[MessageId, int]] = []
    if not path.exists():
        return rows
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        rows.append(((obj["mid"][0], obj["mid"][1]), obj["final"]))
    return rows


def read_delivery_log_full(path: Path) -> List[Tuple[MessageId, int, float]]:
    """Like :func:`read_delivery_log`, keeping the local delivery time —
    the (mid, final, t) triple shape ``repro.verify`` checks expect."""
    rows: List[Tuple[MessageId, int, float]] = []
    if not path.exists():
        return rows
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        rows.append(((obj["mid"][0], obj["mid"][1]), obj["final"], obj["t"]))
    return rows


def read_submit_log(path: Path) -> List[Tuple[MessageId, FrozenSet[int], float]]:
    """Parse one node's ``submit-<pid>.jsonl`` into (mid, dests, t)."""
    rows: List[Tuple[MessageId, FrozenSet[int], float]] = []
    if not path.exists():
        return rows
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        rows.append(
            ((obj["mid"][0], obj["mid"][1]), frozenset(obj["dest"]), obj["t"])
        )
    return rows


# ----------------------------------------------------------------------
# subprocess launcher
# ----------------------------------------------------------------------


def _await_files(paths: List[Path], timeout_s: float, what: str) -> None:
    deadline = time.monotonic() + timeout_s
    while True:
        missing = [p for p in paths if not p.exists()]
        if not missing:
            return
        if time.monotonic() >= deadline:
            names = ", ".join(p.name for p in missing)
            raise TimeoutError(f"timed out waiting for {what}: {names}")
        time.sleep(0.02)


def _await_jsonl_lines(path: Path, n: int, timeout_s: float) -> None:
    deadline = time.monotonic() + timeout_s
    while True:
        if path.exists():
            lines = [l for l in path.read_text().splitlines() if l.strip()]
            if len(lines) >= n:
                return
        if time.monotonic() >= deadline:
            raise TimeoutError(f"timed out waiting for {n} lines in {path.name}")
        time.sleep(0.02)


def launch_cluster(
    spec: ClusterSpec,
    rundir: Path,
    python: Optional[str] = None,
) -> ClusterResult:
    """Run a full multi-process cluster under ``rundir`` and collect it.

    Blocking; raises :class:`TimeoutError` if a barrier is not reached
    within the spec's ``run_timeout_s``. Always reaps every subprocess
    it spawned, even on failure paths.
    """
    rundir = Path(rundir)
    rundir.mkdir(parents=True, exist_ok=True)
    topology = make_topology(spec)
    topo_path = rundir / "topology.json"
    topo_path.write_text(json.dumps(topology.to_json(), indent=2) + "\n")

    src_root = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_root + (os.pathsep + existing if existing else "")

    pids = [pid for group in topology.groups for pid in group]
    procs: Dict[int, subprocess.Popen[bytes]] = {}
    logs = []
    started = time.monotonic()
    timeout = spec.run_timeout_s
    try:
        for pid in pids:
            log = open(rundir / f"node-{pid}.log", "wb")
            logs.append(log)
            procs[pid] = subprocess.Popen(
                [
                    python or sys.executable,
                    "-m",
                    "repro.net",
                    "node",
                    "--topology",
                    str(topo_path),
                    "--pid",
                    str(pid),
                    "--rundir",
                    str(rundir),
                ],
                stdout=log,
                stderr=subprocess.STDOUT,
                env=env,
            )
        _await_files(
            [rundir / f"ready-{pid}" for pid in pids], timeout, "ready barrier"
        )
        (rundir / "GO").write_text("go\n")

        killed: Optional[int] = None
        if spec.kill_pid is not None:
            _await_jsonl_lines(
                rundir / f"delivery-{topology.driver_pid}.jsonl",
                spec.kill_after,
                timeout,
            )
            # A survivor still dialing the victim could never finish
            # connect_all once its listener is gone. The driver is held
            # at hold_after until RELEASE, so waiting here cannot let
            # the workload run past the kill point.
            _await_files([rundir / f"up-{pid}" for pid in pids], timeout, "up barrier")
            procs[spec.kill_pid].kill()
            procs[spec.kill_pid].wait(timeout=10.0)
            killed = spec.kill_pid
            (rundir / "RELEASE").write_text("release\n")

        alive = [pid for pid in pids if pid != killed]
        _await_files(
            [rundir / f"done-{pid}" for pid in alive], timeout, "done barrier"
        )
        (rundir / "STOP").write_text("stop\n")
        for pid in alive:
            procs[pid].wait(timeout=timeout)
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)
        for log in logs:
            log.close()

    outcomes: Dict[int, NodeOutcome] = {}
    for pid in pids:
        summary_path = rundir / f"summary-{pid}.json"
        summary = (
            json.loads(summary_path.read_text()) if summary_path.exists() else None
        )
        outcomes[pid] = NodeOutcome(
            pid=pid,
            exit_code=procs[pid].returncode,
            killed=pid == spec.kill_pid,
            delivered=read_delivery_log(rundir / f"delivery-{pid}.jsonl"),
            summary=summary,
        )
    return ClusterResult(
        topology=topology,
        outcomes=outcomes,
        wall_s=time.monotonic() - started,
        rundir=rundir,
    )


# ----------------------------------------------------------------------
# in-process runner (tier-1 tests)
# ----------------------------------------------------------------------


async def _await_files_async(paths: List[Path], poll_s: float = 0.02) -> None:
    while any(not p.exists() for p in paths):
        await asyncio.sleep(poll_s)


async def _await_jsonl_lines_async(path: Path, n: int, poll_s: float = 0.02) -> None:
    while True:
        if path.exists():
            lines = [l for l in path.read_text().splitlines() if l.strip()]
            if len(lines) >= n:
                return
        await asyncio.sleep(poll_s)


async def run_cluster_inprocess(
    topology: Topology,
    rundir: Path,
    kill_pid: Optional[int] = None,
    kill_after: int = 0,
) -> ClusterResult:
    """All nodes on the calling event loop, real sockets, same barriers."""
    rundir = Path(rundir)
    rundir.mkdir(parents=True, exist_ok=True)
    pids = [pid for group in topology.groups for pid in group]
    nodes = {pid: NetNode(topology, pid, rundir) for pid in pids}
    tasks = {pid: asyncio.create_task(nodes[pid].run()) for pid in pids}
    started = asyncio.get_running_loop().time()

    async def coordinate() -> Dict[int, NodeResult]:
        await _await_files_async([rundir / f"ready-{pid}" for pid in pids])
        (rundir / "GO").write_text("go\n")
        if kill_pid is not None:
            await _await_jsonl_lines_async(
                rundir / f"delivery-{topology.driver_pid}.jsonl", kill_after
            )
            # same up barrier as launch_cluster
            await _await_files_async([rundir / f"up-{pid}" for pid in pids])
            tasks[kill_pid].cancel()
            try:
                await tasks[kill_pid]
            except asyncio.CancelledError:
                pass
            await nodes[kill_pid].kill()
            (rundir / "RELEASE").write_text("release\n")
        alive = [pid for pid in pids if pid != kill_pid]
        await _await_files_async([rundir / f"done-{pid}" for pid in alive])
        (rundir / "STOP").write_text("stop\n")
        return {pid: await tasks[pid] for pid in alive}

    try:
        results = await asyncio.wait_for(
            coordinate(), timeout=topology.run_timeout_s + 10.0
        )
    finally:
        for pid, task in tasks.items():
            if not task.done():
                task.cancel()
        for pid, node in nodes.items():
            if node._transport is not None and (
                pid == kill_pid or not tasks[pid].done()
            ):
                try:
                    await node.kill()
                except Exception:
                    pass

    def read_summary(pid: int) -> Optional[Dict[str, Any]]:
        path = rundir / f"summary-{pid}.json"
        return json.loads(path.read_text()) if path.exists() else None

    outcomes = {
        pid: NodeOutcome(
            pid=pid,
            exit_code=result.exit_code,
            killed=False,
            delivered=result.delivered,
            summary=read_summary(pid),
        )
        for pid, result in results.items()
    }
    if kill_pid is not None:
        outcomes[kill_pid] = NodeOutcome(
            pid=kill_pid,
            exit_code=None,
            killed=True,
            delivered=read_delivery_log(rundir / f"delivery-{kill_pid}.jsonl"),
            summary=None,
        )
    return ClusterResult(
        topology=topology,
        outcomes=outcomes,
        wall_s=asyncio.get_running_loop().time() - started,
        rundir=rundir,
    )
