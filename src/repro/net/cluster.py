"""Localhost cluster runs: one barrier coordinator, two ways to host a node.

:func:`_coordinate` operates the file-based coordination protocol (see
:class:`~repro.net.host.NetNode` for the lifecycle): the readiness
barrier (``ready-*`` → ``GO``), optionally one kill mid-run (once the
driver reached the kill mark and every node's mesh is up, ``up-*``;
then ``RELEASE``), the shutdown barrier (``done-*`` → ``STOP``), and the
collection of per-node summaries and delivery logs. Every wait fails at
once, naming the node, when a node it is waiting on has already ended.
It is parameterised only by how a node is started, killed and reaped:

* :func:`launch_cluster` — the real thing: one
  ``python -m repro.net node`` subprocess per pid from a JSON topology;
  "kill" is SIGKILL.
* :func:`run_cluster_inprocess` — every node a task on the calling
  event loop with real sockets, used by the tier-1 tests (no subprocess
  spawn cost); "kill" cancels the node's coroutine, which marks its
  scheduler dead and closes its sockets — listening, dialed and
  accepted — so the surviving peers see EOF on their connections to it
  and go redialing, as they do when the OS reaps a SIGKILLed process.

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
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from .host import DRIVER_PID, ClusterSpec, NetNode, NodeResult

MessageId = Tuple[int, int]


# ----------------------------------------------------------------------
# binding a spec
# ----------------------------------------------------------------------


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


def make_topology(spec: ClusterSpec, host: str = "127.0.0.1") -> ClusterSpec:
    """The validated ``spec`` with a port bound per node; the sequential
    shape ("seq") is spelt out as ``clients=1, window=1, rate_hz=0``."""
    spec.validate()
    ports = allocate_ports(spec.n_groups * spec.group_size, host)
    shape: Dict[str, Any] = {}
    if spec.driver_mode == "seq":
        shape = dict(clients=1, window=1, rate_hz=0.0)
    return replace(
        spec, addresses={pid: (host, port) for pid, port in enumerate(ports)}, **shape
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
    topology: ClusterSpec
    outcomes: Dict[int, NodeOutcome]
    wall_s: float
    #: Where the run's logs live (submit/delivery jsonl, summaries) —
    #: the statistical verifier reads them from here.
    rundir: Path

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


def read_jsonl(path: Path) -> List[Dict[str, Any]]:
    """The rows of one node's ``delivery-<pid>.jsonl``,
    ``submit-<pid>.jsonl`` or ``truncate-<pid>.jsonl`` (none if the node
    never opened it), each ``mid`` — and each of ``mids`` — a
    :data:`MessageId` tuple again."""
    if not path.exists():
        return []
    rows = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    for row in rows:
        if "mids" in row:
            row["mids"] = [tuple(mid) for mid in row["mids"]]
        else:
            row["mid"] = tuple(row["mid"])
    return rows


# ----------------------------------------------------------------------
# hosting a node: OS process or task on this loop
# ----------------------------------------------------------------------

#: ``poll(pid)``: None while the node runs, else its exit code or the
#: exception its task ended with.
Ended = Union[None, int, BaseException]


class _Subprocesses:
    """Nodes as ``python -m repro.net node`` OS processes."""

    def __init__(self, topology: ClusterSpec, rundir: Path, python: Optional[str]) -> None:
        self.rundir = rundir
        self.python = python or sys.executable
        self.topo_path = rundir / "topology.json"
        self.topo_path.write_text(json.dumps(topology.to_json(), indent=2) + "\n")
        src_root = str(Path(__file__).resolve().parents[2])
        self.env = dict(os.environ)
        existing = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src_root + (os.pathsep + existing if existing else "")
        self.procs: Dict[int, "subprocess.Popen[bytes]"] = {}

    def start(self, pid: int) -> None:
        # The child inherits the log's descriptor; ours closes at once.
        with open(self.rundir / f"node-{pid}.log", "wb") as log:
            self.procs[pid] = subprocess.Popen(
                [
                    self.python,
                    "-m",
                    "repro.net",
                    "node",
                    "--topology",
                    str(self.topo_path),
                    "--pid",
                    str(pid),
                    "--rundir",
                    str(self.rundir),
                ],
                stdout=log,
                stderr=subprocess.STDOUT,
                env=self.env,
            )

    def poll(self, pid: int) -> Ended:
        return self.procs[pid].poll()

    async def kill(self, pid: int) -> None:
        self.procs[pid].kill()
        self.procs[pid].wait(timeout=10.0)


class _Tasks:
    """Nodes as tasks on the running loop."""

    def __init__(self, topology: ClusterSpec, rundir: Path) -> None:
        self.topology = topology
        self.rundir = rundir
        self.tasks: Dict[int, "asyncio.Task[NodeResult]"] = {}

    def start(self, pid: int) -> None:
        node = NetNode(self.topology, pid, self.rundir)
        self.tasks[pid] = asyncio.create_task(node.run())

    def poll(self, pid: int) -> Ended:
        task = self.tasks[pid]
        if not task.done():
            return None
        if task.cancelled():
            return asyncio.CancelledError()
        return task.exception() or task.result().exit_code

    async def kill(self, pid: int) -> None:
        # NetNode.run() closes the node on its way out.
        self.tasks[pid].cancel()
        await asyncio.gather(self.tasks[pid], return_exceptions=True)


# ----------------------------------------------------------------------
# the coordinator
# ----------------------------------------------------------------------


async def _coordinate(
    topology: ClusterSpec, rundir: Path, nodes: Union[_Subprocesses, _Tasks]
) -> ClusterResult:
    """Run the cluster through its barriers, with the topology's kill if
    it has one, and collect it.

    Raises :class:`RuntimeError` as soon as a node a barrier is waiting
    on has ended, and :class:`TimeoutError` if a barrier is not reached
    within the topology's ``run_timeout_s``. Every node it started has
    ended when it returns or raises.
    """
    pids = [pid for group in topology.groups for pid in group]
    kill_pid, kill_after = topology.kill_pid, topology.kill_after
    began = time.monotonic()

    async def wait_for(
        what: str, missing: Callable[[], List[str]], watch: Iterable[int]
    ) -> None:
        deadline = time.monotonic() + topology.run_timeout_s
        while True:
            names = missing()
            if not names:
                return
            for pid in watch:
                ended = nodes.poll(pid)
                if ended is not None:
                    how = (
                        f"exited with code {ended}"
                        if isinstance(ended, int)
                        else f"raised {ended!r}"
                    )
                    raise RuntimeError(f"node {pid} {how} before the {what}")
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"timed out waiting for the {what}: {', '.join(names)}"
                )
            await asyncio.sleep(0.02)

    def files(prefix: str, of: List[int]) -> Callable[[], List[str]]:
        return lambda: [
            f"{prefix}-{pid}" for pid in of if not (rundir / f"{prefix}-{pid}").exists()
        ]

    started: List[int] = []
    try:
        for pid in pids:
            nodes.start(pid)
            started.append(pid)
        await wait_for("ready barrier", files("ready", pids), pids)
        (rundir / "GO").write_text("go\n")

        alive = pids
        if kill_pid is not None:
            # Lines are counted, not parsed: the driver is still writing.
            mark = rundir / f"delivery-{DRIVER_PID}.jsonl"
            await wait_for(
                "kill mark",
                lambda: []
                if mark.exists() and mark.read_text().count("\n") >= kill_after
                else [f"{kill_after} lines in {mark.name}"],
                pids,
            )
            # A survivor still dialing the victim could never finish
            # connect_all once its listener is gone. The driver is held
            # at hold_after until RELEASE, so waiting here cannot let
            # the workload run past the kill point.
            await wait_for("up barrier", files("up", pids), pids)
            await nodes.kill(kill_pid)
            (rundir / "RELEASE").write_text("release\n")
            alive = [pid for pid in pids if pid != kill_pid]

        await wait_for("done barrier", files("done", alive), alive)
        (rundir / "STOP").write_text("stop\n")
        await wait_for(
            "nodes' exit",
            lambda: [f"node {pid}" for pid in alive if nodes.poll(pid) is None],
            (),
        )
    finally:
        for pid in started:
            if nodes.poll(pid) is None:
                await nodes.kill(pid)

    outcomes: Dict[int, NodeOutcome] = {}
    for pid in pids:
        summary_path = rundir / f"summary-{pid}.json"
        ended = nodes.poll(pid)
        outcomes[pid] = NodeOutcome(
            pid=pid,
            exit_code=ended if isinstance(ended, int) else None,
            killed=pid == kill_pid,
            delivered=[
                (row["mid"], row["final"])
                for row in read_jsonl(rundir / f"delivery-{pid}.jsonl")
            ],
            summary=(
                json.loads(summary_path.read_text()) if summary_path.exists() else None
            ),
        )
    return ClusterResult(
        topology=topology,
        outcomes=outcomes,
        wall_s=time.monotonic() - began,
        rundir=rundir,
    )


def launch_cluster(
    spec: ClusterSpec,
    rundir: Path,
    python: Optional[str] = None,
) -> ClusterResult:
    """Run a full multi-process cluster under ``rundir`` and collect it
    (blocking; the coordinator runs on a loop of its own)."""
    rundir = Path(rundir)
    rundir.mkdir(parents=True, exist_ok=True)
    topology = make_topology(spec)
    return asyncio.run(
        _coordinate(topology, rundir, _Subprocesses(topology, rundir, python))
    )


async def run_cluster_inprocess(topology: ClusterSpec, rundir: Path) -> ClusterResult:
    """All nodes on the calling event loop, real sockets, same barriers."""
    rundir = Path(rundir)
    rundir.mkdir(parents=True, exist_ok=True)
    return await _coordinate(topology, rundir, _Tasks(topology, rundir))
