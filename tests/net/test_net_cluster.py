"""In-process asyncio cluster tests: differential vs sim + kill failover.

These run the *real* asyncio backend — real sockets on loopback, real
monotonic clocks, the same ``PrimCastProcess`` objects as the simulator
— inside a single OS process (every node is a task on one event loop),
which keeps them fast enough for tier-1. The multi-OS-process variant
of exactly this workload runs in CI's ``net-smoke`` job via
``python -m repro.net diff``.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time
from dataclasses import replace

import pytest

import repro.net.cluster as cluster_module
from repro.harness.steps import build_bare_system
from repro.net.cluster import (
    ClusterResult,
    ClusterSpec,
    launch_cluster,
    make_topology,
    read_jsonl,
    run_cluster_inprocess,
)
from repro.net.differential import (
    diff_cluster_result,
    run_sim_reference,
    verify_cluster_logs,
)
from repro.net.__main__ import main
from repro.net.host import EXIT_ERROR, EXIT_TIMEOUT, NetNode, _wake
from repro.net.transport import PeerConnection, Transport
from repro.net.workload import PlanClient, make_client_plans, plans_expected_count


def _run(spec: ClusterSpec, tmp_path):
    return asyncio.run(run_cluster_inprocess(make_topology(spec), tmp_path))


async def _await_lines(path, n):
    while not path.exists() or len(path.read_text().splitlines()) < n:
        await asyncio.sleep(0.02)


def test_workload_is_deterministic_and_rooted_in_group_zero():
    # The sequential shape: one plan, on the driver, whose group (0) is
    # in every destination set.
    def topology(seed):
        return make_topology(ClusterSpec(n_groups=3, n_messages=20, seed=seed))

    (a,) = topology(9).client_plans()
    assert topology(9).client_plans() == [a]
    assert all(0 in dest for dest in a)
    assert topology(10).client_plans() != [a]
    assert topology(9).client_hosts() == [0]
    assert topology(9).expected_for(0) == 20


def test_asyncio_cluster_matches_sim_reference(tmp_path):
    spec = ClusterSpec(n_groups=2, group_size=3, n_messages=8, seed=5)
    result = _run(spec, tmp_path)
    assert result.ok, [(o.pid, o.exit_code) for o in result.outcomes.values()]
    problems = diff_cluster_result(result)
    assert problems == []
    # Sanity: the sim reference itself delivered the full workload.
    reference = run_sim_reference(result.topology)
    for pid in range(spec.group_size):  # group 0 sees every message
        assert len(reference[pid]) == spec.n_messages


def test_asyncio_cluster_survives_killed_leader(tmp_path):
    # Kill group 1's initial leader (pid 3) after 2 driver deliveries:
    # the survivors must elect a new leader, resume delivery, finish the
    # whole workload, and still agree with the failure-free simulator.
    spec = ClusterSpec(
        n_groups=2,
        group_size=3,
        n_messages=8,
        seed=5,
        kill_pid=3,
        kill_after=2,
        suspect_ms=300.0,
    )
    result = _run(spec, tmp_path)
    assert 3 not in result.survivors
    config = result.topology.make_config()
    for pid in result.survivors:
        outcome = result.outcomes[pid]
        assert outcome.exit_code == 0, (pid, outcome.exit_code)
        assert len(outcome.delivered) == result.topology.expected_for(
            config.group_of[pid]
        )
    assert diff_cluster_result(result) == []
    # At least one survivor in the victim's group observed the epoch
    # change that failover requires.
    epochs = [
        (result.outcomes[pid].summary or {}).get("epochs_seen", 0)
        for pid in result.survivors
        if config.group_of[pid] == 1
    ]
    assert any(e > 0 for e in epochs), epochs
    # The kill looked like SIGKILL to the survivors: the victim's end of
    # every connection closed, theirs to it saw EOF and went redialing.
    reconnects = {
        pid: result.outcomes[pid].summary["transport"]["reconnects"]
        for pid in result.survivors
    }
    assert all(n >= 1 for n in reconnects.values()), reconnects


def test_kill_waits_until_every_survivor_has_dialed_the_victim(tmp_path, monkeypatch):
    # The kill race: pid 4's dial to the victim is held until after the
    # driver's kill_after-th delivery, the moment the coordinator used
    # to kill at. Killed then, the victim's listener is gone for good,
    # pid 4 never gets out of connect_all and the run times out; the
    # up-* barrier makes the coordinator wait for that last link.
    dial = PeerConnection._run

    async def late_dial(conn):
        if (conn.own_pid, conn.peer_pid) == (4, 3):
            await _await_lines(tmp_path / "delivery-0.jsonl", 2)
            await asyncio.sleep(0.3)  # many coordinator polls (20 ms) later
        await dial(conn)

    monkeypatch.setattr(PeerConnection, "_run", late_dial)
    spec = ClusterSpec(
        n_groups=2,
        group_size=3,
        n_messages=8,
        seed=5,
        kill_pid=3,
        kill_after=2,
        suspect_ms=300.0,
        run_timeout_s=8.0,
    )
    result = _run(spec, tmp_path)
    assert result.survivors == [0, 1, 2, 4, 5]
    assert result.ok, [(o.pid, o.exit_code) for o in result.outcomes.values()]
    assert diff_cluster_result(result) == []
    assert sorted(p.name for p in tmp_path.glob("up-*")) == [
        f"up-{pid}" for pid in range(6)
    ]


def test_unreachable_peer_is_an_error_naming_it_not_a_silent_timeout(
    tmp_path, monkeypatch, capsys
):
    # Node 1 never starts. Node 0's dial phase must end in EXIT_ERROR
    # with the missing peer on stderr (the launcher sends stderr to
    # node-<pid>.log), not in the watchdog's EXIT_TIMEOUT.
    connect_all = Transport.connect_all
    monkeypatch.setattr(
        Transport, "connect_all", lambda self: connect_all(self, timeout_s=0.2)
    )
    topology = make_topology(ClusterSpec(n_groups=1, group_size=2, n_messages=1))
    (tmp_path / "GO").write_text("go\n")
    result = asyncio.run(NetNode(topology, 0, tmp_path).run())
    assert result.exit_code == EXIT_ERROR
    assert capsys.readouterr().err == (
        "node 0: no connection to peer(s) [1] after 0.2 s; giving up\n"
    )
    assert not (tmp_path / "up-0").exists()


def test_asyncio_cluster_binary_codec_matches_sim_reference(tmp_path):
    # The exact sequential differential must hold bit-identically under
    # the binary codec + write coalescing: the wire encoding is
    # transport plumbing, invisible to the protocol.
    spec = ClusterSpec(
        n_groups=2, group_size=3, n_messages=8, seed=5, codec="binary"
    )
    result = _run(spec, tmp_path)
    assert result.ok, [(o.pid, o.exit_code) for o in result.outcomes.values()]
    assert diff_cluster_result(result) == []
    # The nodes really spoke binary: coalescing stats show multi-frame
    # writes and binary frames are far smaller than the JSON baseline.
    stats = [
        (o.summary or {}).get("transport", {}) for o in result.outcomes.values()
    ]
    assert all(s.get("frames_sent", 0) > 0 for s in stats)
    total_frames = sum(s["frames_sent"] for s in stats)
    total_bytes = sum(s["bytes_sent"] for s in stats)
    assert total_bytes / total_frames < 150  # JSON averages ~270 B/frame


def test_seq_is_the_one_client_window_one_shape(tmp_path):
    # "seq" is not a second driver: it names the shape clients=1,
    # window=1, rate_hz=0, and spelling that shape out runs the same
    # thing — which the sim reference, the same client class on the
    # simulator, reproduces exactly.
    seq = _run(ClusterSpec(n_messages=8, seed=5), tmp_path / "seq")
    spelt = ClusterSpec(
        n_messages=8, seed=5, driver_mode="open", clients=1, window=1, rate_hz=0.0
    )
    one = _run(spelt, tmp_path / "open")
    assert seq.ok and one.ok

    def orders(rows_by_pid):
        return {pid: [mid for mid, _final in rows] for pid, rows in rows_by_pid.items()}

    reference = orders(run_sim_reference(seq.topology))
    assert run_sim_reference(one.topology) == run_sim_reference(seq.topology)
    for result in (seq, one):
        delivered = {pid: o.delivered for pid, o in result.outcomes.items()}
        assert orders(delivered) == reference
    assert len(reference[0]) == 8 and 0 < len(reference[3]) < 8


def test_plan_client_issues_the_same_plan_in_the_same_order_on_both_backends(tmp_path):
    result = _run(ClusterSpec(n_messages=8, seed=5), tmp_path)
    topology = result.topology
    (plan,) = topology.client_plans()
    system = build_bare_system(
        "primcast", topology.n_groups, topology.group_size, delta_ms=1.0
    )
    on_sim = []
    client = PlanClient(
        system.processes[0], system.scheduler, 0, plan,
        on_submit=lambda mid, dests, now: on_sim.append((mid, dests)),
    )
    client.start()
    system.scheduler.run(until=10_000_000.0)
    on_net = [
        (row["mid"], frozenset(row["dest"]))
        for row in read_jsonl(tmp_path / "submit-0.jsonl")
    ]
    assert on_sim == on_net == [((0, i), dests) for i, dests in enumerate(plan)]
    assert len(client.latencies) == 8 and client.next == 8
    # One outstanding: message i+1 left only after message i came back.
    payloads = [m.payload for _mid, m, _final in system.processes[0].t_list]
    assert payloads == [{"c": 0, "i": i} for i in range(8)]


def _cluster_with_a_node_that_cannot_bind(monkeypatch):
    """Make pid 1's port one that is already listened on: its node
    raises at start-up (EADDRINUSE), before ``ready-1``."""
    taken = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    taken.bind(("127.0.0.1", 0))
    taken.listen()
    free = cluster_module.allocate_ports(1)
    monkeypatch.setattr(
        cluster_module, "allocate_ports",
        lambda n, host="127.0.0.1": [free[0], taken.getsockname()[1]],
    )
    return taken, ClusterSpec(n_groups=1, group_size=2, n_messages=1)


@pytest.mark.parametrize("runner", ["inprocess", "subprocess"])
def test_a_barrier_fails_at_once_when_a_node_it_waits_on_has_ended(
    tmp_path, monkeypatch, runner
):
    # Not after run_timeout_s (60 s) with a bare TimeoutError.
    taken, spec = _cluster_with_a_node_that_cannot_bind(monkeypatch)
    began = time.monotonic()
    try:
        with pytest.raises(RuntimeError, match=r"node 1 .* before the ready barrier"):
            if runner == "subprocess":
                launch_cluster(spec, tmp_path)
            else:
                _run(spec, tmp_path)
    finally:
        taken.close()
    assert time.monotonic() - began < 2.0
    assert not (tmp_path / "GO").exists()


def test_a_node_that_times_out_leaves_no_listener_behind(tmp_path):
    # GO never comes: the watchdog ends the node, and its transport
    # (listener, redial tasks) and oracle end with it.
    async def scenario():
        spec = ClusterSpec(n_groups=1, group_size=2, n_messages=1, run_timeout_s=0.3)
        topology = make_topology(spec)
        node = NetNode(topology, 0, tmp_path)
        result = await node.run()
        assert result.exit_code == EXIT_TIMEOUT
        assert node.runtime.net_scheduler.dead
        assert node.compaction is None  # armed only once the mesh is up
        with pytest.raises(ConnectionRefusedError):
            await asyncio.open_connection(*topology.addresses[0])

    asyncio.run(scenario())


async def _serve(topology, rundir, scenario):
    """Every node of ``topology`` on this loop, its built-in driver idle
    (``n_messages=0``), through NetNode's own file barriers; runs
    ``scenario(nodes)`` while they serve, then stops them."""

    async def barrier(prefix):
        async def all_there():
            while not all((rundir / f"{prefix}-{pid}").exists() for pid in nodes):
                await asyncio.sleep(0.005)

        await asyncio.wait_for(all_there(), 20.0)

    nodes = {pid: NetNode(topology, pid, rundir) for pid in sorted(topology.make_config().group_of)}
    tasks = [asyncio.create_task(node.run()) for node in nodes.values()]
    try:
        await barrier("ready")
        (rundir / "GO").write_text("go\n")
        await barrier("done")
        await scenario(nodes)
    finally:
        (rundir / "STOP").write_text("stop\n")
        results = await asyncio.wait_for(asyncio.gather(*tasks), 20.0)
    assert [r.exit_code for r in results] == [0] * len(nodes)


@pytest.mark.parametrize("batching_ms", [0.0, 5.0])
def test_delivered_payloads_are_the_submitted_ones(tmp_path, batching_ms):
    # The differential compares ids and order; this compares *content*,
    # through the binary codec: local and global messages, small values
    # and texts past 16 KiB, with and without §7.1 batching.
    spec = ClusterSpec(
        n_groups=2, group_size=3, n_messages=0, driver_mode="open", codec="binary",
        batching_ms=batching_ms, suspect_ms=5000.0,
    )
    topology = make_topology(spec)
    config = topology.make_config()
    payloads = [
        "local", {"k": 1, "v": [1, 2.5, None, ("t", frozenset({3}))]}, "g" * 20_000,
        -(2**70), "l" * 16_384, None,
    ]

    async def scenario(nodes):
        submitted, delivered = {}, []
        for node in nodes.values():
            node.proc.add_deliver_hook(lambda proc, multicast, final: delivered.append((proc.pid, multicast)))

        def submit(proc, dests, payload):
            submitted[proc.a_multicast(dests, payload).mid] = (dests, payload)

        for i, payload in enumerate(payloads * 3):
            proc = nodes[(0, 4, 2)[i % 3]].proc  # a primary, a follower of each group
            dests = frozenset({proc.gid}) if i % 2 else frozenset({0, 1})
            proc.post_job(lambda proc=proc, dests=dests, payload=payload: submit(proc, dests, payload))
        expected = 9 * 6 + 9 * 3  # nine global, nine local messages

        async def all_delivered():
            while len(delivered) < expected:
                await asyncio.sleep(0.01)

        await asyncio.wait_for(all_delivered(), 30.0)
        assert len(delivered) == expected and len(submitted) == len(payloads) * 3
        for pid, multicast in delivered:
            dests, payload = submitted[multicast.mid]
            assert config.group_of[pid] in dests
            assert multicast.dest == dests
            assert multicast.payload == payload and type(multicast.payload) is type(payload)
            # One decoded copy per message and process: what ``started``
            # holds is T's object, not a second one from the start.
            proc = nodes[pid].proc
            in_t = [m for _, m, _ in proc.t_list if m.mid == multicast.mid]
            assert len(in_t) == 1 and proc.started[multicast.mid] is in_t[0] is multicast
        assert {(pid, m.mid) for pid, m in delivered} == {
            (pid, mid) for mid, (dests, _) in submitted.items() for pid in config.dest_pids(dests)
        }

    asyncio.run(_serve(topology, tmp_path, scenario))


def test_open_loop_cluster_passes_statistical_checks(tmp_path):
    # K concurrent windowed clients over real sockets: the exact
    # differential no longer applies (interleaving is timing-dependent)
    # but every safety property must hold over the merged logs.
    spec = ClusterSpec(
        n_groups=2,
        group_size=3,
        n_messages=24,
        seed=7,
        driver_mode="open",
        clients=4,
        window=3,
        rate_hz=200.0,
        codec="binary",
    )
    result = _run(spec, tmp_path)
    assert result.ok, [(o.pid, o.exit_code) for o in result.outcomes.values()]
    assert verify_cluster_logs(result) == []
    summaries = [o.summary for o in result.outcomes.values() if o.summary]
    assert sum(s["submitted"] for s in summaries) == spec.n_messages
    # Submitters measured their own end-to-end latencies.
    assert any(s["latencies_ms"] for s in summaries)


def test_client_plans_are_deterministic_and_home_rooted():
    homes = [0, 1, 0, 1]
    a = make_client_plans(2, 20, 3, home_gids=homes)
    b = make_client_plans(2, 20, 3, home_gids=homes)
    assert a == b
    assert make_client_plans(2, 20, 4, home_gids=homes) != a
    # Round-robin deal: 20 messages over 4 clients = 5 each.
    assert [len(plan) for plan in a] == [5, 5, 5, 5]
    # The pin: every destination set includes the client's home group
    # (the submitter must observe its own deliveries to free its
    # window slot).
    for cid, plan in enumerate(a):
        assert all(homes[cid] in dests for dests in plan)
    assert sum(plans_expected_count(a, g) for g in (0, 1)) >= 20


def test_cluster_spec_validation():
    with pytest.raises(ValueError):
        ClusterSpec(n_groups=2, group_size=3, n_messages=4, kill_pid=0).validate()
    with pytest.raises(ValueError):
        ClusterSpec(n_groups=2, group_size=2, n_messages=4, kill_pid=3).validate()
    with pytest.raises(ValueError):
        ClusterSpec(n_groups=2, group_size=3, n_messages=4, kill_pid=99).validate()
    with pytest.raises(ValueError, match="kill_pid -1 not in the cluster"):
        ClusterSpec(n_groups=2, group_size=3, n_messages=4, kill_pid=-1).validate()
    ClusterSpec(n_groups=2, group_size=3, n_messages=4, kill_pid=3).validate()
    # The kill mark is one of the driver's n_messages deliveries; without
    # a kill, kill_after is not read.
    for kill_after in (0, 4):
        ClusterSpec(n_messages=4, kill_pid=3, kill_after=kill_after).validate()
    for kill_after in (-2, 5):
        with pytest.raises(ValueError, match="kill_after must be in"):
            ClusterSpec(n_messages=4, kill_pid=3, kill_after=kill_after).validate()
    ClusterSpec(n_messages=4, kill_after=5).validate()
    # Open-driver validation: needs clients/window >= 1, no kill.
    with pytest.raises(ValueError):
        ClusterSpec(
            n_groups=2, group_size=3, n_messages=4, driver_mode="open", clients=0
        ).validate()
    with pytest.raises(ValueError):
        ClusterSpec(
            n_groups=2, group_size=3, n_messages=4, driver_mode="open", kill_pid=3
        ).validate()
    with pytest.raises(ValueError):
        ClusterSpec(n_groups=2, group_size=3, n_messages=4, codec="msgpack").validate()
    ClusterSpec(
        n_groups=2, group_size=3, n_messages=4, driver_mode="open", clients=2
    ).validate()
    # A kill needs the sequential shape, however it is spelt.
    one = dict(n_groups=2, group_size=3, kill_pid=3, driver_mode="open", clients=1)
    ClusterSpec(window=1, rate_hz=0.0, **one).validate()
    with pytest.raises(ValueError):
        ClusterSpec(window=2, rate_hz=0.0, **one).validate()
    with pytest.raises(ValueError):
        ClusterSpec(window=1, rate_hz=50.0, **one).validate()


def test_cluster_spec_rejects_nan_and_infinite_durations():
    # NaN fails every comparison a node makes, so each check must be
    # spelt to reject it.
    nan, inf = float("nan"), float("inf")
    for field, values in (
        ("suspect_ms", (0.0, -1.0, nan, inf)),
        ("batching_ms", (-1.0, nan, inf)),
        ("run_timeout_s", (0.0, nan)),
    ):
        for value in values:
            with pytest.raises(ValueError, match=field):
                ClusterSpec(**{field: value}).validate()


def test_cluster_spec_rejects_negative_counts_and_rates():
    # n_messages=0 stays a valid spec: a bench cluster boots its nodes
    # with no built-in workload and drives them itself.
    ClusterSpec(n_groups=2, group_size=3, n_messages=0).validate()
    with pytest.raises(ValueError, match="n_messages must be non-negative, got -1"):
        ClusterSpec(n_groups=2, group_size=3, n_messages=-1).validate()
    for rate in (-5.0, float("nan")):
        with pytest.raises(ValueError, match="rate_hz must be non-negative"):
            ClusterSpec(
                n_groups=2, group_size=3, n_messages=4, driver_mode="open", rate_hz=rate
            ).validate()


@pytest.mark.parametrize(
    "argv",
    [
        ["diff", "--groups", "0"], ["diff", "--kill", "-1"], ["open", "--clients", "0"],
        ["diff", "--suspect-ms", "0"], ["diff", "--batching-ms", "-1"],
        ["open", "--timeout", "0"],
        # A run that checks nothing must not pass.
        ["diff", "--messages", "0"], ["diff", "--messages", "-3"],
        ["cluster", "--messages", "-1"], ["open", "--rate", "-5"],
        # Values the run cannot honour: a kill mark past the last
        # delivery, and NaNs that fail every comparison a node makes.
        ["diff", "--kill", "3", "--kill-after", "17"],
        ["diff", "--kill", "3", "--kill-after", "-2"],
        ["diff", "--suspect-ms", "nan", "--kill", "3", "--kill-after", "2"],
        ["diff", "--timeout", "nan"], ["diff", "--batching-ms", "nan"],
    ],
    ids=[
        "groups-0", "kill-minus-1", "open-clients-0",
        "suspect-ms-0", "batching-ms-minus-1", "timeout-0",
        "diff-messages-0", "diff-messages-minus-3", "cluster-messages-minus-1",
        "open-rate-minus-5", "kill-after-17", "kill-after-minus-2",
        "suspect-ms-nan", "timeout-nan", "batching-ms-nan",
    ],
)
def test_an_invalid_spec_exits_2_before_any_node_starts(tmp_path, capsys, argv):
    # Exit 1 means a run or a check failed; a spec error is a usage error.
    assert main(argv + ["--rundir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []  # no barrier file, no node log


def test_cluster_spec_round_trips_through_topology_json():
    # The launcher writes topology.json, every node process reads it
    # back: every field must survive, and a missing one is an error.
    open_spec = make_topology(ClusterSpec(
        n_groups=3, group_size=1, n_messages=5, seed=7, suspect_ms=300.0,
        run_timeout_s=9.0, codec="binary", coalesce=False, batching_ms=5.0,
        driver_mode="open", clients=2, window=3, rate_hz=50.0,
    ))
    kill_spec = make_topology(ClusterSpec(n_messages=5, kill_pid=4, kill_after=2))
    for spec in (open_spec, kill_spec):
        assert ClusterSpec.from_json(json.loads(json.dumps(spec.to_json()))) == spec
    assert open_spec.groups == [[0], [1], [2]]
    assert sorted(open_spec.addresses) == [0, 1, 2]
    assert (open_spec.clients, open_spec.window, open_spec.rate_hz) == (2, 3, 50.0)
    data = kill_spec.to_json()
    del data["suspect_ms"]
    with pytest.raises(KeyError):
        ClusterSpec.from_json(data)
    # "seq" spells the sequential shape out, whatever the fields said.
    seq = make_topology(ClusterSpec(clients=4, window=4, rate_hz=20.0))
    assert (seq.clients, seq.window, seq.rate_hz) == (1, 1, 0.0)
    # The driver holds at the kill mark only when a kill is configured.
    assert (kill_spec.hold_after, seq.hold_after) == (2, None)
    assert replace(kill_spec, kill_pid=None).hold_after is None


# ----------------------------------------------------------------------
# delivery / submit logs: flushed once per loop iteration that wrote
# ----------------------------------------------------------------------


def _lone_node(tmp_path, **spec):
    """A one-node cluster (its own quorum) with the sequential driver:
    three messages, each submitted, ordered and delivered in one drain."""
    topology = make_topology(ClusterSpec(n_groups=1, group_size=1, n_messages=3, **spec))
    (tmp_path / "GO").write_text("go\n")
    return NetNode(topology, 0, tmp_path)


def _lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_hold_point_releases_only_after_RELEASE(tmp_path):
    async def scenario():
        node = _lone_node(tmp_path)
        # A kill configured (the pid is never used here) holds the
        # driver after its first message.
        node.topology = replace(node.topology, kill_pid=1, kill_after=1)
        task = asyncio.create_task(node.run())
        await asyncio.wait_for(_await_lines(tmp_path / "delivery-0.jsonl", 1), 10.0)
        await asyncio.sleep(0.2)  # many loop iterations, nothing new submitted
        assert len(_lines(tmp_path / "submit-0.jsonl")) == 1
        assert len(_lines(tmp_path / "delivery-0.jsonl")) == 1
        assert not (tmp_path / "done-0").exists()
        (tmp_path / "RELEASE").write_text("release\n")
        await asyncio.wait_for(_await_lines(tmp_path / "done-0", 1), 10.0)
        assert len(_lines(tmp_path / "delivery-0.jsonl")) == 3
        (tmp_path / "STOP").write_text("stop\n")
        assert (await task).exit_code == 0

    asyncio.run(scenario())


def test_a_delivery_line_is_on_disk_one_loop_iteration_later(tmp_path):
    # The launcher's kill mark polls delivery-<pid>.jsonl while the
    # driver holds: a line may wait for the end of the iteration that
    # wrote it, not for the next event.
    async def scenario():
        loop = asyncio.get_running_loop()
        node = _lone_node(tmp_path)
        log = tmp_path / "delivery-0.jsonl"
        at_hook, one_iteration_later = [], []

        def hook(proc, multicast, final):
            at_hook.append(len(_lines(log)))
            loop.call_soon(lambda: one_iteration_later.append(len(_lines(log))))

        task = asyncio.create_task(node.run())
        while node.proc is None:
            await asyncio.sleep(0)
        node.proc.add_deliver_hook(hook)  # after the node's own: its call_soon is queued later
        await _await_lines(tmp_path / "done-0", 1)
        assert at_hook == [0, 1, 2]  # buffered when written ...
        assert one_iteration_later == [1, 2, 3]  # ... on disk right after
        assert [row["mid"] for row in _lines(tmp_path / "submit-0.jsonl")] == [[0, 0], [0, 1], [0, 2]]
        (tmp_path / "STOP").write_text("stop\n")
        assert (await task).exit_code == 0

    asyncio.run(scenario())


@pytest.mark.parametrize("ending", ["exit", "timeout", "kill"])
def test_every_delivery_line_survives_however_the_node_ends(tmp_path, ending):
    async def scenario():
        node = _lone_node(tmp_path, run_timeout_s=1.0 if ending == "timeout" else 60.0)
        kills = []

        def kill_at_once(proc, multicast, final):
            # In the iteration of the third write, before its flush ran.
            if multicast.mid == (0, 2):
                kills.append(asyncio.get_running_loop().create_task(node.close()))

        if ending == "exit":
            (tmp_path / "STOP").write_text("stop\n")
        task = asyncio.create_task(node.run())
        if ending == "kill":
            while node.proc is None:
                await asyncio.sleep(0)
            node.proc.add_deliver_hook(kill_at_once)
            await _await_lines(tmp_path / "delivery-0.jsonl", 3)
            await kills[0]
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
            await asyncio.sleep(0.05)  # the flush the third write scheduled finds closed logs
        else:
            assert (await task).exit_code == {"exit": 0, "timeout": 3}[ending]
        assert [row["mid"] for row in _lines(tmp_path / "delivery-0.jsonl")] == [[0, 0], [0, 1], [0, 2]]
        assert len(_lines(tmp_path / "submit-0.jsonl")) == 3
        # No state-GC tick outlives the node: its armed timer is cancelled.
        assert node.compaction._handle is None
        if ending == "timeout":
            assert node.compaction.runs >= 1  # it ticked for 1 s first

    asyncio.run(scenario())


class _CountingLog:
    """A log file that notes the loop iteration of every flush."""

    def __init__(self, fh, tick):
        self.fh, self.tick = fh, tick
        self.lines, self.flushes = 0, []

    def write(self, text):
        self.lines += 1
        return self.fh.write(text)

    def flush(self):
        self.flushes.append(self.tick[0])
        self.fh.flush()

    def close(self):
        self.fh.close()


def test_call_count_at_most_one_flush_per_log_per_loop_iteration(tmp_path):
    # 100 open-loop messages over 2x3 nodes on one loop: a node writes
    # many lines in one iteration (a drain delivers a run of messages)
    # and flushes each log at most once per iteration.
    spec = ClusterSpec(
        n_groups=2, group_size=3, n_messages=0, driver_mode="open", codec="binary",
        batching_ms=5.0, suspect_ms=5000.0,
    )
    topology = make_topology(spec)

    async def scenario(nodes):
        loop = asyncio.get_running_loop()
        tick = [0]

        def next_iteration():
            tick[0] += 1
            if tick[0] >= 0:
                loop.call_soon(next_iteration)

        loop.call_soon(next_iteration)
        logs = {}
        for pid, node in nodes.items():
            node._log_fh = logs[pid, "delivery"] = _CountingLog(node._log_fh, tick)
            node._submit_fh = logs[pid, "submit"] = _CountingLog(node._submit_fh, tick)
        for i in range(100):
            node = nodes[i % 6]
            dests = frozenset({0, 1}) if i % 2 else frozenset({node.gid})
            node.proc.post_job(
                lambda node=node, dests=dests, i=i: node._log_submit(
                    node.proc.a_multicast(dests, i).mid, dests, node.runtime.net_scheduler.now
                )
            )
        expected = 50 * 6 + 50 * 3

        async def all_delivered():
            while sum(log.lines for (_, kind), log in logs.items() if kind == "delivery") < expected:
                await asyncio.sleep(0.005)

        await asyncio.wait_for(all_delivered(), 30.0)
        await asyncio.sleep(0.01)
        tick[0] = -(10**9)  # stop spinning the loop
        for (pid, kind), log in logs.items():
            assert len(set(log.flushes)) == len(log.flushes), (pid, kind)
            assert 0 < len(log.flushes) <= log.lines
            assert len(_lines(tmp_path / f"{kind}-{pid}.jsonl")) == log.lines  # all on disk
        assert sum(log.lines for (_, kind), log in logs.items() if kind == "submit") == 100
        # Batched in practice, not just in principle.
        delivery = [log for (_, kind), log in logs.items() if kind == "delivery"]
        assert sum(len(log.flushes) for log in delivery) < 0.8 * sum(log.lines for log in delivery)

    asyncio.run(_serve(topology, tmp_path, scenario))


# ----------------------------------------------------------------------
# housekeeping: one wakeup per grid point, heartbeats implied by traffic
# ----------------------------------------------------------------------


def _armed_by(loop, sched):
    """Loop timers still armed whose callback is bound to ``sched``."""
    return [
        h for h in loop._scheduled
        if not h.cancelled() and getattr(h._callback, "__self__", None) is sched
    ]


def test_no_timer_of_a_closed_node_stays_armed(tmp_path):
    # close() on a serving node (the in-process kill): Ω's armed round
    # (which also looks for STOP) and the GC tick are cancelled with it,
    # and no task of the node sleeps on the loop.
    async def scenario():
        loop = asyncio.get_running_loop()
        node = _lone_node(tmp_path)
        task = asyncio.create_task(node.run())
        await asyncio.wait_for(_await_lines(tmp_path / "done-0", 1), 10.0)
        sched = node.runtime.net_scheduler
        assert len(_armed_by(loop, sched)) == 2  # the Ω round and the GC tick
        await node.close()
        assert _armed_by(loop, sched) == []
        task.cancel()
        await asyncio.gather(task, return_exceptions=True)
        assert not [h for h in loop._scheduled if not h.cancelled() and h._callback is _wake]

    asyncio.run(scenario())


def test_an_idle_cluster_shares_one_wakeup_per_grid_point(tmp_path, monkeypatch):
    # ~1 s of an idle 2x3 cluster on one loop. The six epochs agree
    # modulo the grid; the six Ω rounds due at one grid point run in one
    # loop iteration, within 1 ms (~0.4 ms here; a preempted iteration
    # can stretch one, so the bound is on the median round); every GC
    # tick is due on its 250 ms grid and fires late by the loop's lag.
    from repro.core.gc import CompactionDaemon
    from repro.election import HB_INTERVAL_MS, HeartbeatOmega

    rounds, gc_ticks, iteration = [], [], [0, False]
    omega_tick, gc_tick = HeartbeatOmega._tick, CompactionDaemon._tick

    def next_iteration():
        iteration[0] += 1
        iteration[1] = False

    def record_round(self):
        # The firing handle is still ``_handle``: the tick re-arms last.
        loop = asyncio.get_running_loop()
        if not iteration[1]:  # a marker that runs in the next iteration
            iteration[1] = True
            loop.call_soon(next_iteration)
        rounds.append((self._handle.when(), loop.time(), iteration[0]))
        omega_tick(self)

    def record_gc(self):
        now = self.scheduler.now
        lag_ms = (asyncio.get_running_loop().time() - self._handle.when()) * 1000.0
        gc_ticks.append((now, lag_ms))
        gc_tick(self)

    monkeypatch.setattr(HeartbeatOmega, "_tick", record_round)
    monkeypatch.setattr(CompactionDaemon, "_tick", record_gc)
    topology = make_topology(ClusterSpec(n_groups=2, group_size=3, n_messages=0, driver_mode="open"))
    epochs = []

    async def scenario(nodes):
        epochs.extend(node.runtime.net_scheduler._t0 * 1000.0 for node in nodes.values())
        await asyncio.sleep(1.0)

    asyncio.run(_serve(topology, tmp_path, scenario))

    def on_grid(ms, period):
        return abs(ms / period - round(ms / period)) < 1e-6

    assert len(epochs) == 6 and all(on_grid(t0 - epochs[0], HB_INTERVAL_MS) for t0 in epochs)
    by_round = {}
    for when, fired, it in rounds:
        assert on_grid(when * 1000.0, HB_INTERVAL_MS)
        by_round.setdefault(round(when * 1000.0 / HB_INTERVAL_MS), []).append((fired, it))
    full = [ticks for ticks in by_round.values() if len(ticks) == 6]
    assert len(full) >= 15, sorted(by_round)
    assert all(len({it for _, it in ticks}) == 1 for ticks in full)
    spreads = sorted(
        (max(f for f, _ in ticks) - min(f for f, _ in ticks)) * 1000.0 for ticks in full
    )
    assert spreads[len(spreads) // 2] < 1.0, spreads
    assert len(gc_ticks) >= 6 * 3
    for now, lag_ms in gc_ticks:
        assert now % 250.0 <= lag_ms + 1e-6, (now, lag_ms)


def test_no_false_suspicion_and_few_heartbeats_under_steady_global_traffic(tmp_path, monkeypatch):
    # Every message to both groups, 4 Poisson clients at 50 msg/s each
    # for ~1.6 s, a 300 ms suspicion timeout: the protocol's own frames
    # keep every link alive, so heartbeats are rare and no epoch moves.
    monkeypatch.setattr("repro.net.workload.EXTRA_GROUP_P", 1.0)
    spec = ClusterSpec(
        n_groups=2, group_size=3, n_messages=320, seed=3, driver_mode="open",
        clients=4, window=4, rate_hz=50.0, codec="binary", suspect_ms=300.0,
    )
    result = _run(spec, tmp_path)
    assert result.ok and verify_cluster_logs(result) == []
    summaries = [o.summary for o in result.outcomes.values()]
    submits = read_jsonl(tmp_path / "submit-0.jsonl")
    assert all(len(row["dest"]) == 2 for row in submits)
    assert submits[-1]["t"] - submits[0]["t"] >= 1000.0
    assert [s["epochs_seen"] for s in summaries] == [0] * 6
    heartbeats = sum(s["heartbeats_sent"] for s in summaries)
    frames = sum(s["transport"]["frames_sent"] for s in summaries)
    assert heartbeats < 0.1 * frames, (heartbeats, frames)


def test_a_message_a_correct_node_submitted_must_reach_every_correct_destination(tmp_path):
    # Node 0 submitted (0, 0) to its own group and only node 1 delivered
    # it: the drained run owes it to every correct destination.
    topology = make_topology(ClusterSpec(n_groups=1, group_size=3))
    (tmp_path / "submit-0.jsonl").write_text('{"mid": [0, 0], "dest": [0], "t": 1.0}\n')
    (tmp_path / "delivery-1.jsonl").write_text('{"mid": [0, 0], "final": 1, "t": 5.0}\n')
    violations = verify_cluster_logs(ClusterResult(topology, {}, 0.0, tmp_path))
    assert [(v.prop, v.mids) for v in violations] == [
        ("uniform-agreement", ((0, 0),)), ("validity", ((0, 0),)),
    ]
    # Delivered nowhere: agreement holds vacuously, validity does not.
    (tmp_path / "delivery-1.jsonl").write_text("")
    violations = verify_cluster_logs(ClusterResult(topology, {}, 0.0, tmp_path))
    assert [(v.prop, v.mids) for v in violations] == [("validity", ((0, 0),))]
