"""relaydof benchmark: one workload, one seed, one closed-loop caller.

    python3 relaybench/run.py --workload {cli-cold,plan-ladder,exact-core,all}
                              --seed N --seconds S --trace {0,1}

Run from the root of a relaydof checkout; relaydof is imported from its
``src/``, never from an installed copy.  Prints every metric by name with
its unit and sample count, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).
``--workload all`` runs the three workloads in turn and also writes
``relaybench/out/BENCH_seed<N>.json``.  The end-to-end times are calibrated
to a reference host speed (see calib.py).

Workloads (see relaybench/README.md for the op mix and size ladders):
  cli-cold     one ``python -m relaydof.cli`` process per operation
  plan-ladder  integer_schedule -> verify_schedule -> serialize, in process
  exact-core   parse -> analyze -> report, region check/scale, classify
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import calib
import docs
import exact

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
WORKLOADS = ("cli-cold", "plan-ladder", "exact-core")
SETUP_SPAWNS = 15
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("hops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

_PLAN_USE = (
    ("model.parse.calls", "count"),
    ("model.parse.busy_s", "s"),
    ("model.parse.doc_bytes", "bytes"),
    ("schedule.build.calls", "count"),
    ("schedule.build.busy_s", "s"),
    ("schedule.build.edges", "count"),
    ("schedule.build.nodes", "count"),
    ("schedule.build.alloc_peak_mb", "MB"),
    ("schedule.verify.busy_s", "s"),
    ("schedule.verify.failures", "count"),
    ("schedule.serialize.{fmt}.busy_s", "s"),
    ("schedule.serialize.{fmt}.bytes", "bytes"),
    ("schedule.serialize.{fmt}.alloc_peak_mb", "MB"),
    ("schedule.t0_digits", "digits"),
    ("schedule.padding_share", "ratio"),
)
PER_LAYER = (
    ("cli.interpreter_s", "s"),
    ("cli.import_s", "s"),
    ("cli.import_numpy_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.busy_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("cli.model.parse.busy_s", "s"),
    ("cli.analysis.analyze.busy_s", "s"),
    ("cli.region.check.busy_s", "s"),
    ("cli.schedule.build.busy_s", "s"),
    ("cli.schedule.verify.busy_s", "s"),
    ("cli.schedule.serialize.busy_s", "s"),
    ("cli.scaling.classify.busy_s", "s"),
    *((f"uniform.{name.format(fmt='json')}", unit) for name, unit in _PLAN_USE),
    *((f"demand.{name.format(fmt='dot')}", unit) for name, unit in _PLAN_USE),
    ("analyze.model.parse.calls", "count"),
    ("analyze.model.parse.busy_s", "s"),
    ("analyze.model.parse.doc_bytes", "bytes"),
    ("analyze.analysis.analyze.calls", "count"),
    ("analyze.analysis.analyze.busy_s", "s"),
    ("analyze.analysis.analyze.hops", "count"),
    ("analyze.analysis.report.busy_s", "s"),
    ("check.model.parse.calls", "count"),
    ("check.model.parse.busy_s", "s"),
    ("check.model.parse.doc_bytes", "bytes"),
    ("check.region.check.calls", "count"),
    ("check.region.check.busy_s", "s"),
    ("check.region.check.constraints", "count"),
    ("check.region.scale.busy_s", "s"),
    ("classify.model.parse.calls", "count"),
    ("classify.model.parse.busy_s", "s"),
    ("classify.model.parse.doc_bytes", "bytes"),
    ("classify.scaling.classify.calls", "count"),
    ("classify.scaling.classify.busy_s", "s"),
    ("classify.scaling.classify.samples", "count"),
    ("classify.scaling.sweep.busy_s", "s"),
    ("bench.check_s", "s"),
    ("bench.trace_overhead", "ratio"),
)
# per-layer names whose value sits on a differently named span field
ALIASES = {
    "cli.stdout_bytes": "cli.main.bytes",
    "uniform.schedule.t0_digits": "uniform.schedule.build.t0_digits",
    "uniform.schedule.padding_share": "uniform.schedule.build.padding_share",
    "demand.schedule.t0_digits": "demand.schedule.build.t0_digits",
    "demand.schedule.padding_share": "demand.schedule.build.padding_share",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], cwd: Path, out_path: Path, err_path: Path) -> tuple[float, int, float]:
    """Run one process to completion: (wall seconds, exit code, max RSS in MB).

    ``os.wait4`` gives the child's own resource usage, which ``subprocess``
    does not expose.
    """
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        began = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - began
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024


def spawn_times(code: str, scratch: Path, count: int, name: str = "spawn") -> list[float]:
    """Wall times of ``python -c code`` in fresh interpreters; their output
    goes to ``name``.out and ``name``.err in ``scratch``."""
    times = []
    out, err = scratch / f"{name}.out", scratch / f"{name}.err"
    for _ in range(count):
        elapsed, status, _ = spawn([sys.executable, "-c", code], ROOT, out, err)
        if status != 0:
            raise BenchError(f"python -c {code!r} failed: {err.read_text()[-400:]}")
        times.append(elapsed)
    return times


def median_spawn(code: str, scratch: Path) -> float:
    return statistics.median(spawn_times(code, scratch, SETUP_SPAWNS))


def start_clock(scratch: Path) -> calib.Clock:
    """Calibrates spawned processes against a bare interpreter start (see calib)."""
    return calib.Clock(lambda: spawn_times("pass", scratch, 1, "start")[0], calib.REF_START_S)


def setup_times(scratch: Path, count: int) -> list[float]:
    """setup_s samples: a fresh interpreter importing relaydof from the
    working tree, each calibrated against the bare starts around it."""
    clock = start_clock(scratch)
    times = []
    for _ in range(count):
        times += spawn_times("import relaydof, sys; sys.stdout.write(relaydof.__file__)", scratch, 1)
        times[-1] *= clock.factor()
    where = Path((scratch / "spawn.out").read_text()).resolve()
    if not where.is_relative_to(ROOT / "src"):
        raise BenchError(f"relaydof resolves to {where}, not under {ROOT / 'src'}")
    return times


# -- cli-cold: one process per operation ---------------------------------------------


def run_cli_cold(seed: int, seconds: float, scratch: Path) -> dict:
    rng = docs.rng_for("cli-cold", seed)
    result = {"ops": [], "attempted": 0, "failed": 0, "failures": [], "check_s": 0.0, "peak_rss_mb": 0.0}
    out, err = scratch / "stdout", scratch / "stderr"
    clock = start_clock(scratch)
    start = time.perf_counter()
    passes = iter(lambda: docs.cli_pass(rng), None)
    for op in docs.timed_ops(passes, start, seconds, whole_passes=True):
        docs.stage_files(op, scratch)
        argv = [sys.executable, "-m", "relaydof.cli", *op["argv"]]
        elapsed, code, rss = spawn(argv, scratch, out, err)
        scale = clock.factor()
        began = time.perf_counter()
        try:
            error = docs.check_cli(
                op, code, out.read_text(), err.read_text(), lambda name: (scratch / name).read_text()
            )
        except exact.UNREADABLE as exc:
            error = f"unreadable output: {exc!r}"
        result["check_s"] += time.perf_counter() - began
        result["attempted"] += 1
        if error:
            result["failed"] += 1
            if len(result["failures"]) < 5:
                result["failures"].append(f"{' '.join(op['argv'])}: {error}")
        result["ops"].append([op["kind"], elapsed * scale, op["hops"], 0, result["attempted"], elapsed])
        result["peak_rss_mb"] = max(result["peak_rss_mb"], rss)
    result["wall_s"] = time.perf_counter() - start
    return result


def run_worker(workload: str, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    """One in-process workload run in its own fresh interpreter."""
    spans_path = OUT / f"trace-{workload}-seed{seed}.json"
    argv = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(seconds), str(int(trace)), str(spans_path)]
    out, err = scratch / "worker.out", scratch / "worker.err"
    _, code, _ = spawn(argv, ROOT, out, err)
    if code != 0:
        raise BenchError(f"{workload} worker exited with {code}: {err.read_text()[-2000:]}")
    result = json.loads(out.read_text().strip().splitlines()[-1])
    if trace:
        result["spans_path"] = str(spans_path.relative_to(ROOT))
    return result


# -- metrics -------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (statistics' inclusive method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_quantile(n: int) -> float:
    """Highest percentile, in whole percent, with at least ten samples beyond it."""
    return max(0.5, math.floor(100 * (1 - 10 / n)) / 100) if n > 20 else 0.5


def documents(result: dict) -> list[tuple]:
    """(use, latency, hops, edges, raw latency) per document.  Latencies are
    medians over the passes that replayed the document (documents that are
    not replayed have one); ``latency`` is calibrated to the reference host
    for in-process workloads (see calib), ``raw latency`` is wall time."""
    slots = {}
    for use, latency, hops, edges, slot, raw in result["ops"]:
        slots.setdefault(slot, (use, hops, edges, [], []))
        slots[slot][3].append(latency)
        slots[slot][4].append(raw)
    return [
        (use, statistics.median(times), hops, edges, statistics.median(raws))
        for use, hops, edges, times, raws in slots.values()
    ]


def end_to_end(rows: list[tuple], peak_rss_mb: float, setup_s: float) -> dict:
    latencies = [row[1] for row in rows]
    busy = sum(latencies)
    return {
        "setup_s": setup_s,
        "op_p50_ms": 1000 * percentile(latencies, 0.5),
        "op_p90_ms": 1000 * percentile(latencies, 0.9),
        "ops_per_s": len(latencies) / busy,
        "hops_per_s": sum(row[2] for row in rows) / busy,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(result: dict, scratch: Path) -> dict:
    trace = dict(result["trace"])
    bare = median_spawn("pass", scratch)
    trace["cli.interpreter_s"] = bare
    trace["cli.import_s"] = median_spawn("import relaydof", scratch) - bare
    trace["cli.import_numpy_s"] = median_spawn("import numpy", scratch) - bare
    return {name: trace.get(ALIASES.get(name, name), 0) for name, _ in PER_LAYER}


def report(workload: str, seed: int, seconds: float, trace: bool, result: dict, metrics: dict) -> dict:
    """Print the human-readable table and return the final JSON object."""
    rows = documents(result)
    n = len(rows)
    units = dict(PER_LAYER if trace else END_TO_END)
    print(f"relaybench {workload} seed={seed} seconds={seconds:g} trace={int(trace)} documents={n} "
          f"timed_ops={len(result['ops'])} wall={result['wall_s']:.1f}s check={result['check_s']:.2f}s")
    samples = {
        "setup_s": f"median of {SETUP_SPAWNS} spawns",
        "peak_rss_mb": f"largest of {n} processes" if workload == "cli-cold" else "max RSS of the workload process",
    }
    for name, value in metrics.items():
        if trace and not value:
            continue  # a layer this workload does not use
        print(f"  {name:<44} {value:>14.6g} {units[name]:<7} {'' if trace else samples.get(name, f'n={n}')}")
    if not trace:
        for use in sorted({row[0] for row in rows}):
            times = [row[1] for row in rows if row[0] == use]
            print(f"  {'  ' + use + ' op_p50_ms':<44} {1000 * percentile(times, 0.5):>14.6g} ms      n={len(times)}")
        q = tail_quantile(n)
        print(f"  {'op_tail_ms (p%g, >=10 samples beyond)' % (100 * q):<44} "
              f"{1000 * percentile([row[1] for row in rows], q):>14.6g} ms      n={n}")
        raw = [row[4] for row in rows]
        print(f"  {'op_p50_ms, raw wall time':<44} {1000 * percentile(raw, 0.5):>14.6g} ms      n={n}")
        print(f"  {'host speed (calibrated / raw op time)':<44} {sum(row[1] for row in rows) / sum(raw):>14.6g} ratio")
        edges = sum(row[3] for row in rows)
        if edges:
            print(f"  {'edges_per_s':<44} {edges / sum(row[1] for row in rows):>14.6g} 1/s     edges={edges}")
        if result.get("warmup_s"):
            print(f"  {'warmup_s (untimed)':<44} {result['warmup_s']:>14.6g} s       {result['warmup_ops']} ops")
    else:
        print(f"  spans written to {result['spans_path']}")
        for point in result.get("curves", []):
            print("  curve " + " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in point.items()))
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':<44} {rate:>14.6g}         {result['failed']}/{result['attempted']} failed")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    # set-up samples are split around the run, so one slow moment of a shared
    # machine does not set the whole median
    setup = [] if trace else setup_times(scratch, SETUP_SPAWNS // 2 + 1)
    if trace or workload != "cli-cold":
        result = run_worker(workload, seed, seconds, trace, scratch)
    else:
        result = run_cli_cold(seed, seconds, scratch / "cli")
    if trace:
        metrics = per_layer(result, scratch)
    else:
        setup += setup_times(scratch, SETUP_SPAWNS // 2)
        metrics = end_to_end(documents(result), result["peak_rss_mb"], statistics.median(setup))
    return report(workload, seed, seconds, trace, result, metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "relaydof" / "__init__.py").is_file():
        print(f"error: no relaydof working tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        with tempfile.TemporaryDirectory(dir=OUT) as scratch:
            (Path(scratch) / "cli").mkdir()
            for workload in workloads:
                results[workload] = run_one(workload, args.seed, args.seconds, bool(args.trace), Path(scratch))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        bench = OUT / f"BENCH_seed{args.seed}{'_trace' if args.trace else ''}.json"
        bench.write_text(json.dumps({"seed": args.seed, "seconds": args.seconds, "python": sys.version.split()[0],
                                     "workloads": results}, indent=2))
        print(f"wrote {bench.relative_to(ROOT)}")
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
