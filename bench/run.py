"""The benchmark command.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--aa [--repeats N]]

(or ``PYTHONPATH=src python -m bench.run ...``). With ``--workload`` it
runs that workload in this process and prints every metric by name with
its unit, then — as the last line — one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1`` (the traced run; end-to-end numbers never come from it).
Without ``--workload`` it runs every workload, one subprocess each so
that peak memory does not leak across, untraced and then traced.
``--aa [--repeats N]`` runs the untraced set twice, N seeds per workload
each time, and compares the two against the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: Set-ups timed per run (the reported ``setup_s`` is their median).
SETUP_REPEATS = 3
#: Length of a measured segment of a net run: short, because each
#: segment is scaled by the box's speed while it ran (bench/speed.py) and
#: the box changes speed within seconds. A run reports the median segment.
SEGMENT_S = 1.0
#: Fewest timed runs of the simulator, however slow the box.
MIN_SIM_RUNS = 3

#: What a fresh interpreter must import before a workload can start.
IMPORTS = {
    "net": "import repro.net.cluster, repro.net.host",
    "sim": "import repro.harness.runner, repro.workload.scenarios",
}


def _bootstrap() -> None:
    """Make ``repro`` and ``bench`` importable however we were started."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: the program is not here: {SRC}/repro is missing")
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def time_import(backend: str) -> float:
    """Seconds (at the reference speed) for a fresh interpreter to start
    and import the backend's modules — the part of set-up this process
    can pay only once."""
    from bench import speed

    env = dict(os.environ, PYTHONPATH=str(SRC))
    with speed.Stopwatch() as watch:
        subprocess.run([sys.executable, "-c", IMPORTS[backend]], env=env, check=True)
    return watch.seconds


def environment(seed: int) -> Dict[str, Any]:
    from repro._backend import backend_info

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "backend": backend_info()["backend"],
        "commit": commit,
        "seed": seed,
    }


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------

Rows = List[Dict[str, float]]


def _median_of(rows: Rows) -> Tuple[Dict[str, float], Dict[str, Tuple[float, float]]]:
    """Per metric: the median over segments (or runs), and (min, max)."""
    values = {k: statistics.median(row[k] for row in rows) for k in rows[0]}
    spread = {k: (min(row[k] for row in rows), max(row[k] for row in rows)) for k in rows[0]}
    return values, spread


def _run_net(workload: Any, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    from bench import layers, netbench, speed
    from bench.check import check_logs
    from bench.trace import Tracer

    rundir = OUT / f"run-{workload.name}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    boots: List[float] = []

    async def session(tag: str, n_boots: int, span_s: float, tracer: Optional[Tracer]) -> Any:
        for r in range(n_boots):
            cluster = netbench.Cluster(workload, seed, rundir / f"{tag}{r}")
            with speed.Stopwatch() as boot:
                await cluster.boot()
            boots.append(boot.seconds)
            if r < n_boots - 1:
                await cluster.stop()
        try:
            n_segments = max(1, round(span_s / SEGMENT_S))
            return await netbench.measure(cluster, workload, seed, span_s, n_segments, tracer)
        finally:
            await cluster.stop()

    def rows(m: Any) -> Rows:
        if m.backlog:
            raise RuntimeError(f"{workload.name}: more than {netbench.MAX_OUTSTANDING} "
                               "messages outstanding — a growing backlog, not a latency")
        out = [row for row in (netbench.segment_metrics(m, a, b) for a, b in m.segments) if row]
        if not out:
            raise RuntimeError(f"{workload.name}: no message completed in the measured window")
        for row in out:
            row["driver.loop_lag_max_ms"] = m.loop_lag_max_ms
            row["driver.gc_gen2_pause_max_ms"] = m.gc_pause_max_ms
        return out

    try:
        if not trace:
            measured = [asyncio.run(session("boot", SETUP_REPEATS, seconds, None))]
            values, spread = _median_of(rows(measured[0]))
        else:
            # Untraced half first (its cost is the overhead ratio's base),
            # then the wrappers go in before the second cluster is built.
            plain = asyncio.run(session("plain", 1, seconds / 2, None))
            tracer = Tracer()
            tracer.install()
            try:
                traced = asyncio.run(session("traced", 1, seconds / 2, tracer))
            finally:
                tracer.uninstall()
            measured = [plain, traced]
            base, _ = _median_of(rows(plain))
            with_spans, spread = _median_of(rows(traced))
            values = {**with_spans, **base}
            spread = {k: v for k, v in spread.items() if k not in base}
            values["driver.trace_overhead_ratio"] = (
                with_spans["cpu_ms_per_msg"] / base["cpu_ms_per_msg"]
            )
            values.update(layers.measure(seed))
            first = traced.segments[0][0].trace[2]
            n_spans = tracer.dump(OUT / f"trace-{workload.name}.jsonl", first)
            print(f"# {n_spans} spans -> {OUT.name}/trace-{workload.name}.jsonl")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    attempted, failed, violations = 0, 0, []
    for m in measured:
        report = check_logs(m.logs, m.dests_of, m.config)
        attempted += m.posted
        # A submission still in its process's job queue when the drain
        # deadline passed never got a mid: it failed too.
        failed += len(report.failed) + m.posted - len(m.dests_of)
        violations += report.violations
    values["peak_rss_mb"] = measured[-1].rss_kb / 1024.0
    return {"attempted": attempted, "failed": failed, "violations": violations,
            "values": values, "spread": spread, "setups": boots}


def _run_sim(seed: int, seconds: float, trace: bool,
             warmup_ms: Optional[float] = None, measure_ms: Optional[float] = None) -> Dict[str, Any]:
    from bench import layers, simbench, workloads
    from bench.check import check_logs
    from bench.trace import Tracer

    default_point = warmup_ms is None and measure_ms is None
    warmup_ms = workloads.SIM_WARMUP_MS if warmup_ms is None else warmup_ms
    measure_ms = workloads.SIM_MEASURE_MS if measure_ms is None else measure_ms

    def once() -> Any:
        gc.collect()  # the previous run's system, outside the timed region
        return simbench.run_once(seed, warmup_ms, measure_ms)

    simbench.run_once(seed, warmup_ms / 10, measure_ms / 10)  # warm-up, discarded
    runs = []
    values: Dict[str, float]
    spread: Dict[str, Tuple[float, float]] = {}
    if not trace:
        deadline = time.perf_counter() + seconds
        while len(runs) < MIN_SIM_RUNS or time.perf_counter() < deadline:
            if runs:
                runs[-1].system = runs[-1].clients = None
            runs.append(once())
        out = simbench.outputs(runs[-1], warmup_ms)
        _, spread = _median_of([simbench.run_metrics(run, out) for run in runs])
        values = simbench.run_metrics(simbench.median_run(runs), out)
    else:
        plain = once()
        plain.system = plain.clients = None
        tracer = Tracer()
        tracer.install()
        try:
            traced = once()
        finally:
            tracer.uninstall()
        runs = [plain, traced]
        out = simbench.outputs(traced, warmup_ms)
        values = simbench.run_metrics(plain, out)
        values.update(simbench.trace_metrics(tracer.totals, traced, out.n_delivered_all))
        values["driver.trace_overhead_ratio"] = traced.cpu_s / plain.cpu_s
        values.update(layers.measure(seed))
        n_spans = tracer.dump(OUT / "trace-sim_wan_d2.jsonl")
        print(f"# {n_spans} spans -> {OUT.name}/trace-sim_wan_d2.jsonl")

    violations = []
    counts = {(run.events, run.wire_messages, run.delivered_throughput) for run in runs}
    if len(counts) != 1:
        violations.append(f"determinism: runs of one seed differ: {sorted(counts)}")
    if default_point and seed == 1 and counts != {workloads.SIM_SEED1_COUNTS}:
        violations.append(f"counts {sorted(counts)} != seed-1 constants {workloads.SIM_SEED1_COUNTS}")
    last = runs[-1]
    report = check_logs(out.logs, out.dests_of, last.system.config)
    attempted = sum(client.issued for client in last.clients)
    # A message its own submitter never delivered is in no log at all.
    failed = len(report.failed) + attempted - len(out.dests_of)
    return {"attempted": attempted, "failed": failed,
            "violations": violations + report.violations,
            "values": values, "spread": spread, "setups": [run.build_s for run in runs]}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Run one workload here; returns the full result (every metric computed)."""
    from bench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    imports = [] if trace else [time_import(workload.backend) for _ in range(SETUP_REPEATS)]
    if workload.backend == "net":
        result = _run_net(workload, seed, seconds, trace)
    else:
        result = _run_sim(seed, seconds, trace)
    values = result["values"]
    if not trace:
        # One set-up = a fresh interpreter's imports + one boot (net) or
        # build_system (sim); several are timed, the median is reported.
        setups = [i + s for i, s in zip(imports, result["setups"])]
        values["setup_s"] = statistics.median(setups)
        result["spread"]["setup_s"] = (min(setups), max(setups))
    values.setdefault("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result["correct"] = result["failed"] == 0 and not result["violations"]
    return result


def emit(name: str, seed: int, seconds: float, trace: bool, result: Dict[str, Any]) -> None:
    """Every metric by name with its unit, then the JSON result line."""
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    declared = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    values, spread = result["values"], result["spread"]
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {unknown}")
    env = " ".join(f"{k}={v}" for k, v in environment(seed).items())
    print(f"== {name} seconds={seconds:g} trace={int(trace)} {env}")
    print(f"{'ops_attempted':42s} {result['attempted']} count")
    print(f"{'ops_failed':42s} {result['failed']} count")
    for metric in sorted(values, key=lambda k: (k not in declared, "." in k, k)):
        line = f"{metric:42s} {values[metric]:.6g} {units[metric]}"
        if metric in spread:
            low, high = spread[metric]
            line += f"   [min {low:.6g}, max {high:.6g}]"
        print(line)
    for violation in result["violations"]:
        print(f"VIOLATION {violation}")
    if trace:
        # A per-layer metric that does not exist on this backend is 0.
        metrics = {m: {"value": values.get(m, 0.0), "unit": units[m]} for m in declared}
    else:
        metrics = {m: {"value": values[m], "unit": units[m]} for m in declared}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


# ----------------------------------------------------------------------
# every workload, one subprocess each
# ----------------------------------------------------------------------


def run_in_subprocess(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(int(trace))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        raise RuntimeError(f"{name} (trace={int(trace)}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_set(seed: int, seconds: float, traces: List[bool]) -> Dict[str, Any]:
    results: Dict[str, Any] = {}
    for name in (w["name"] for w in load_spec()["workloads"]):
        for trace in traces:
            one = run_in_subprocess(name, seed, seconds, trace)
            merged = results.setdefault(name, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}})
            merged["correct"] = merged["correct"] and one["correct"]
            merged["attempted"] += one["attempted"]
            merged["failed"] += one["failed"]
            merged["metrics"].update(one["metrics"])
    return results


def run_aa(seed: int, seconds: float, repeats: int) -> int:
    """The benchmark's own acceptance test: two untraced sets of the same
    code, each ``repeats`` runs per workload on seeds ``seed``,
    ``seed + 1``, ... Per end-to-end metric the second set's median may
    not be worse than the first's by more than the bound, and (from four
    runs per set, ``setup_s`` excepted) the quartile distance of a set's
    values, as a share of their median, may not exceed it either."""
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    sets: List[Dict[str, Dict[str, List[float]]]] = []
    incorrect = set()
    for _ in range(2):
        one = {}
        for name in names:
            runs = [run_in_subprocess(name, seed + r, seconds, False) for r in range(repeats)]
            incorrect.update(name for run in runs if not run["correct"])
            one[name] = {m["name"]: [run["metrics"][m["name"]]["value"] for run in runs]
                         for m in spec["end_to_end"]}
        sets.append(one)

    def spread(values: List[float]) -> float:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / statistics.median(values)

    print(f"\nA/A seeds={seed}..{seed + repeats - 1} seconds={seconds:g}: second set against first")
    print(f"{'workload':20s} {'metric':20s} {'first':>11s} {'second':>11s} {'worse by':>9s} "
          f"{'spread':>13s} {'bound':>6s}")
    outside = 0
    for name in names:
        for metric in spec["end_to_end"]:
            first, second = (one[name][metric["name"]] for one in sets)
            a, b = statistics.median(first), statistics.median(second)
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            spreads = [spread(first), spread(second)] if repeats >= 4 else []
            gated = spreads if metric["name"] != "setup_s" else []
            bad = worse > metric["bound"] or any(x > metric["bound"] for x in gated)
            outside += bad
            print(f"{name:20s} {metric['name']:20s} {a:11.5g} {b:11.5g} {worse:+9.1%} "
                  f"{' '.join(f'{x:6.1%}' for x in spreads):>13s} {metric['bound']:6.0%}"
                  f"{'  OUTSIDE' if bad else ''}")
    print(f"{outside} metric(s) outside their bound; incorrect workloads: {sorted(incorrect) or 'none'}")
    return 1 if outside or incorrect else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured seconds per run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                        help="1: the traced run (per-layer metrics); 0: end-to-end only")
    parser.add_argument("--aa", action="store_true", help="run the untraced set twice and compare")
    parser.add_argument("--repeats", type=int, default=1,
                        help="with --aa: runs per workload and set, on consecutive seeds")
    args = parser.parse_args(argv)
    _bootstrap()
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    if args.workload is not None:
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            parser.error(f"unknown workload {args.workload!r}")
        trace = bool(args.trace)
        emit(args.workload, args.seed, seconds, trace,
             run_workload(args.workload, args.seed, seconds, trace))
        return 0
    if args.aa:
        return run_aa(args.seed, seconds, args.repeats)
    traces = [False, True] if args.trace is None else [bool(args.trace)]
    results = run_set(args.seed, seconds, traces)
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
