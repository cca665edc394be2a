"""State GC on the real wire: every NetNode runs the compaction daemon,
and the cluster's own logs judge each truncation.

Each node writes ``truncate-<pid>.jsonl`` (mids, new ``t_base``, node
time) and ``verify_cluster_logs`` holds every line to
``check_truncation_safety``: a truncated mid was delivered by its node
*before* the truncation, and by every correct destination. The cluster
runs are in-process (every node a task on one loop, real sockets).
"""

from __future__ import annotations

import asyncio

import pytest

import repro.net.cluster as cluster_module
from repro.core.process import PrimCastProcess
from repro.net.cluster import (
    ClusterResult,
    ClusterSpec,
    make_topology,
    read_jsonl,
    run_cluster_inprocess,
)
from repro.net.differential import diff_cluster_result, verify_cluster_logs
from repro.net.host import NetNode


def _record_nodes(monkeypatch):
    """pid -> NetNode of every node the in-process runner starts from
    now on (filled as they are built)."""
    nodes = {}

    class Recorded(NetNode):
        def __init__(self, topology, pid, rundir):
            super().__init__(topology, pid, rundir)
            nodes[pid] = self

    monkeypatch.setattr(cluster_module, "NetNode", Recorded)
    return nodes


def _run(spec, rundir):
    return asyncio.run(run_cluster_inprocess(make_topology(spec), rundir))


@pytest.mark.parametrize("truncated_at, clean", [(6.0, True), (5.0, True), (4.0, False)])
def test_a_truncation_counts_only_deliveries_made_before_it(tmp_path, truncated_at, clean):
    # One message, delivered by all three members at node time 5 ms;
    # pid 1 truncated it at `truncated_at`. Pids 0 and 2 wrote no
    # truncate log at all (nothing truncated).
    topology = make_topology(ClusterSpec(n_groups=1, group_size=3))
    (tmp_path / "submit-0.jsonl").write_text('{"mid": [0, 0], "dest": [0], "t": 1.0}\n')
    for pid in range(3):
        (tmp_path / f"delivery-{pid}.jsonl").write_text(
            '{"mid": [0, 0], "final": 1, "t": 5.0}\n'
        )
    (tmp_path / "truncate-1.jsonl").write_text(
        f'{{"mids": [[0, 0]], "t_base": 1, "t": {truncated_at}}}\n'
    )
    violations = verify_cluster_logs(ClusterResult(topology, {}, 0.0, tmp_path))
    if clean:
        assert violations == []
    else:
        assert [(v.prop, v.mids) for v in violations] == [("truncation-safety", ((0, 0),))]
        assert "process 1 truncated (0, 0) without delivering it" in violations[0].message


def test_every_node_holds_only_in_flight_state_after_an_open_run(tmp_path, monkeypatch):
    # 4 Poisson clients at 100 msg/s each: 800 messages are ~2 s of
    # node time, eight 250 ms ticks.
    nodes = _record_nodes(monkeypatch)
    spec = ClusterSpec(
        n_messages=800, driver_mode="open", clients=4, window=3, rate_hz=100.0,
        codec="binary",
    )
    result = _run(spec, tmp_path)
    assert result.ok and verify_cluster_logs(result) == []
    for pid, node in sorted(nodes.items()):
        proc = node.proc
        delivered = len(proc.delivery_log)
        assert node.compaction.runs >= 4, pid
        assert proc._t_base > 0, pid
        residue = {
            name: len(getattr(proc, name))
            for name in ("t_list", "started", "acks", "_final_cache", "my_acks")
        }
        assert max(residue.values()) <= delivered // 20, (pid, delivered, residue)
        # What stays O(messages) by design: D, the at-most-once guard,
        # and delivery_log, which bench/ reads after the run.
        assert len(proc.delivered) == delivered
        summary = result.outcomes[pid].summary["compaction"]
        assert summary["t_base"] == proc._t_base and summary["freed"] > 0


def test_truncation_check_catches_a_watermark_ahead_of_delivery(tmp_path, monkeypatch):
    # Closed-loop clients keep 32 messages outstanding, so every tick
    # finds undelivered entries in T.
    def spec(**kw):
        return ClusterSpec(
            n_messages=600, driver_mode="open", clients=4, window=8, codec="binary", **kw
        )

    twin = _run(spec(), tmp_path / "twin")
    assert twin.ok and verify_cluster_logs(twin) == []
    assert read_jsonl(tmp_path / "twin" / "truncate-1.jsonl")  # there was GC to judge

    honest = PrimCastProcess._stable_watermark

    def ahead_of_delivery(self):
        if self.pid == 1:
            return self._t_base + len(self.t_list)  # all of T, delivered or not
        return honest(self)

    monkeypatch.setattr(PrimCastProcess, "_stable_watermark", ahead_of_delivery)
    topology = make_topology(spec(run_timeout_s=3.0))
    try:
        asyncio.run(run_cluster_inprocess(topology, tmp_path / "mutant"))
    except (RuntimeError, TimeoutError):
        pass  # the mutant wrecks its own node's state; its logs are judged anyway
    judged = verify_cluster_logs(ClusterResult(topology, {}, 0.0, tmp_path / "mutant"))
    assert "truncation-safety" in {v.prop for v in judged}, judged


def test_a_kill_freezes_only_the_victims_group_watermark(tmp_path, monkeypatch):
    # Sequential 400 messages are ~0.5 s of node time; the first tick
    # already truncates most of them. Then group 1 loses its leader.
    nodes = _record_nodes(monkeypatch)
    at_kill = {}
    kill = cluster_module._Tasks.kill

    async def snapshot_then_kill(self, pid):
        if not at_kill:
            at_kill.update(
                {p: (n.proc._t_base, n.runtime.net_scheduler.now) for p, n in nodes.items()}
            )
        await kill(self, pid)

    monkeypatch.setattr(cluster_module._Tasks, "kill", snapshot_then_kill)
    after_epoch_change = {}
    install = PrimCastProcess._on_new_state

    def recorded_install(self, origin, msg):
        install(self, origin, msg)
        after_epoch_change[self.pid] = self._t_base

    monkeypatch.setattr(PrimCastProcess, "_on_new_state", recorded_install)

    spec = ClusterSpec(n_messages=600, kill_pid=3, kill_after=400, codec="binary")
    result = _run(spec, tmp_path)
    assert result.ok, [(o.pid, o.exit_code) for o in result.outcomes.values()]
    assert diff_cluster_result(result) == []
    assert verify_cluster_logs(result) == []  # truncation safety included
    assert any(
        row["t"] < at_kill[pid][1]
        for pid in result.survivors
        for row in read_jsonl(tmp_path / f"truncate-{pid}.jsonl")
    )
    final = {pid: result.outcomes[pid].summary["compaction"]["t_base"] for pid in result.survivors}
    # Group 0 lost nobody: every member still reports, the watermark moves.
    for pid in (0, 1, 2):
        assert final[pid] > at_kill[pid][0], (pid, at_kill[pid], final[pid])
    # Group 1's new epoch waits for a report from the dead member, which
    # never comes: the watermark stays where NewState installed it while
    # T grows above it (DESIGN.md §8, "Conservatism").
    assert sorted(after_epoch_change) == [4, 5]
    for pid in (4, 5):
        assert final[pid] == after_epoch_change[pid], (pid, after_epoch_change, final)
        assert nodes[pid].proc.t_list
