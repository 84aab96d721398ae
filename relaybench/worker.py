"""Runs one workload in process, in a fresh interpreter, and reports as JSON.

    python worker.py WORKLOAD SEED SECONDS TRACE SPANS_PATH

``run.py`` starts one worker per in-process workload run, so the peak RSS
and relaydof's ``lru_cache`` state belong to that workload alone.  The
worker draws its documents from ``docs`` with the given seed, feeds them to
relaydof one at a time (one caller, closed loop), calibrates each
operation's time to a reference host speed (``calib``), checks every output
with ``exact`` outside the timed interval, and prints one JSON object on its
last stdout line.

With TRACE=1 every operation runs twice, untraced and then with spans, so
the tracing overhead is measured on the same documents; plan-ladder
operations run a third time under ``tracemalloc`` for allocation peaks.
Spans are written to SPANS_PATH when the run ends.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc
import traceback
from pathlib import Path

import calib
import docs
import exact
import spans

ROOT = Path(__file__).resolve().parent.parent

import relaydof  # noqa: E402  (must come from the working tree, checked below)

if not Path(relaydof.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"relaydof imported from {relaydof.__file__}, not from {ROOT / 'src'}")

from relaydof import cli  # noqa: E402
from relaydof.analysis import analyze, report_to_obj  # noqa: E402
from relaydof.model import parse_demand, parse_topology, topology_to_obj, virtual_node_map  # noqa: E402
from relaydof.region import check_demand, max_uniform_scale  # noqa: E402
from relaydof.scaling import classify, parse_family, sweep_rows  # noqa: E402
from relaydof.schedule import (  # noqa: E402
    integer_schedule,
    plan_to_dot,
    recurrence_sum_dof,
    schedule_to_obj,
    verify_schedule,
)

NULL = spans.NullTracer()
MB = 1024 * 1024


# -- plan-ladder -----------------------------------------------------------------


def serialize(topology, sched, report, fmt: str) -> str:
    """Schedule text exactly as ``relaydof schedule`` writes it (cmd_schedule)."""
    if fmt == "dot":
        return plan_to_dot(sched.split_plan)
    obj = {"topology": topology_to_obj(topology)}
    obj.update(schedule_to_obj(sched))
    obj["split_plan"]["source_node_map"] = [i + 1 for i in virtual_node_map(topology.source_layer)]
    obj["split_plan"]["destination_node_map"] = [j + 1 for j in virtual_node_map(topology.destination_layer)]
    obj["verified"] = [c.name for c in report.checks]
    return json.dumps(obj, indent=2)


def _plan_inputs(op):
    topology = parse_topology(op["topology"].text)
    demand = parse_demand(op["demand_text"]) if "demand_text" in op else None
    return topology, demand


def plan_op(op: dict, tr) -> dict:
    """uniform: no demand, JSON out; demand: antenna twin + sparse demand, DOT out."""
    use = op["use"]
    fmt = "json" if use == "uniform" else "dot"
    with tr.span(f"{use}.model.parse", doc_bytes=len(op["topology"].text) + len(op.get("demand_text", ""))):
        topology, demand = _plan_inputs(op)
    with tr.span(f"{use}.schedule.build") as build:
        sched = integer_schedule(topology, demand)
    plan = sched.split_plan
    build["edges"] = len(plan.edges)
    build["nodes"] = len(plan.sources) + len(plan.paddings) + len(plan.transfers) + len(plan.sinks)
    build["t0_digits"] = len(str(plan.bits_per_dof))
    build["padding_share"] = float(plan.padding_bits / plan.total_bits)
    with tr.span(f"{use}.schedule.verify") as verify:
        report = verify_schedule(sched)
    verify["failures"] = len(report.failures())
    with tr.span(f"{use}.schedule.serialize.{fmt}") as ser:
        text = serialize(topology, sched, report, fmt)
    ser["bytes"] = len(text)
    return {"edges": len(plan.edges), "sched": sched, "report": report, "text": text, "topology": topology}


def plan_check(op: dict, out: dict) -> str | None:
    if not out["report"].ok:
        return "; ".join(f"{c.name}: {c.detail}" for c in out["report"].failures())
    topo, sched = op["topology"], out["sched"]
    if op["use"] == "uniform":
        return exact.check_schedule_json(topo.sizes, len(topo.src), len(topo.dst), out["text"])
    return exact.check_rate(topo.sizes, sched.sum_dof, sched.total_bits, sched.total_delay) or (
        exact.check_schedule_dot(out["text"], sched.total_bits)
    )


def plan_memory(op: dict, out: dict) -> tuple[float, float]:
    """tracemalloc peaks (MB) of the build and of the serialization."""
    topology, demand = _plan_inputs(op)
    tracemalloc.start()
    try:
        sched = integer_schedule(topology, demand)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        serialize(topology, sched, out["report"], "json" if op["use"] == "uniform" else "dot")
        serialize_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    return build_peak / MB, serialize_peak / MB


# -- exact-core ------------------------------------------------------------------


def exact_op(op: dict, tr) -> dict:
    """analyze (+ check when the endpoints are finite), or classify a family."""
    if op["use"] == "classify":
        with tr.span("classify.model.parse", doc_bytes=len(op["text"])):
            family = parse_family(op["text"])
        with tr.span("classify.scaling.classify") as rec:
            verdict = classify(family)
        rec["samples"] = len(verdict.samples)
        with tr.span("classify.scaling.sweep"):
            rows = sweep_rows(verdict)
        return {"edges": 0, "verdict": verdict, "rows": rows}
    topo = op["topology"]
    with tr.span("analyze.model.parse", doc_bytes=len(topo.text)):
        topology = parse_topology(topo.text)
    with tr.span("analyze.analysis.analyze", hops=topo.hops):
        report = analyze(topology)
    with tr.span("analyze.analysis.report") as rec:
        text = json.dumps(report_to_obj(report))
    rec["bytes"] = len(text)
    out = {"edges": 0, "report": report, "text": text}
    if "demand_text" in op:
        with tr.span("check.model.parse", doc_bytes=len(op["demand_text"])):
            demand = parse_demand(op["demand_text"])
        with tr.span("check.region.check", constraints=1 + len(topo.src) + len(topo.dst)):
            out["verdict"] = check_demand(topology, demand)
        with tr.span("check.region.scale"):
            out["scale"] = max_uniform_scale(topology, demand)
    return out


def exact_check(op: dict, out: dict) -> str | None:
    if op["use"] == "classify":
        error = exact.check_class(op["family"], out["verdict"].classification)
        if error or [row[0] for row in out["rows"]] == list(exact.SAMPLE_GRID):
            return error
        return "sweep rows do not cover the sample grid"
    topo = op["topology"]
    obj = json.loads(out["text"])
    error = exact.check_report(topo.sizes, obj["achievable"], obj["cutset"], obj["inverse_gap"], obj["optimal"])
    if error:
        return error
    if exact.INF not in topo.sizes and len(topo.sizes) >= 3:
        if recurrence_sum_dof(topo.sizes) != out["report"].achievable:
            return "recurrence_sum_dof differs from the achievable bound"
    if "verdict" not in out:
        return None
    v, scale = out["verdict"], out["scale"]
    constraints = exact.region(topo.sizes, topo.src, topo.dst, op["pattern"])
    error = exact.check_verdict(constraints, v.feasible, [x.constraint for x in v.violations], v.binding)
    if error:
        return error
    if not (scale.verdict.feasible and scale.verdict.binding):
        return "max_uniform_scale's own verdict is not a binding feasible point"
    return exact.check_scale(topo.sizes, topo.src, topo.dst, op["pattern"], str(scale.t_star))


# -- cli-cold, in process (traced runs only) ---------------------------------------

# names relaydof.cli looks up at call time -> the span each call is recorded as
CLI_CALLS = {
    "parse_topology": "model.parse",
    "parse_demand": "model.parse",
    "parse_family": "model.parse",
    "analyze": "analysis.analyze",
    "report_to_obj": "analysis.report",
    "check_demand": "region.check",
    "integer_schedule": "schedule.build",
    "verify_schedule": "schedule.verify",
    "schedule_to_obj": "schedule.serialize",
    "plan_to_dot": "schedule.serialize",
    "classify": "scaling.classify",
    "sweep_rows": "scaling.sweep",
}
_CLI_ORIGINALS = {name: getattr(cli, name) for name in CLI_CALLS}


def _spanned(tr, stage: str, fn):
    def call(*args, **kwargs):
        with tr.span(f"cli.{stage}"):
            return fn(*args, **kwargs)

    return call


@contextlib.contextmanager
def _cli_spans(tr):
    """Record cli.main's calls into the other modules as child spans."""
    if isinstance(tr, spans.NullTracer):
        yield
        return
    for name, stage in CLI_CALLS.items():
        setattr(cli, name, _spanned(tr, stage, _CLI_ORIGINALS[name]))
    try:
        yield
    finally:
        for name, fn in _CLI_ORIGINALS.items():
            setattr(cli, name, fn)


def cli_main_op(op: dict, tr) -> dict:
    docs.stage_files(op, Path.cwd())
    out, err = io.StringIO(), io.StringIO()
    with _cli_spans(tr), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with tr.span("cli.main") as rec:
            try:
                code = cli.main(op["argv"])
            except SystemExit as exc:
                code = exc.code
            except Exception:  # the real CLI would die with a traceback
                traceback.print_exc()
                code = None
    stdout = out.getvalue()
    rec["bytes"] = len(stdout.encode())
    return {"edges": 0, "code": code, "stdout": stdout, "stderr": err.getvalue()}


def cli_main_check(op: dict, out: dict) -> str | None:
    return docs.check_cli(op, out["code"], out["stdout"], out["stderr"], lambda name: Path(name).read_text())


# -- the closed loop ---------------------------------------------------------------


def _batches(workload: str, seed: int, stream: str = "timed"):
    rng = docs.rng_for(workload, seed, stream)
    if workload == "plan-ladder":
        # one pass, replayed: a run reports each document's median latency
        # over its passes, so a few seconds of a slow shared machine do not
        # move the figures (the schedule layer keeps no cache between calls)
        ops = docs.plan_pass(rng)
        while True:
            yield ops
    elif workload == "cli-cold":
        while True:
            yield docs.cli_pass(rng)
    else:  # every pass draws fresh documents: none is replayed
        yield from docs.exact_passes(rng)


PIPELINES = {
    "plan-ladder": (plan_op, plan_check),
    "exact-core": (exact_op, exact_check),
    "cli-cold": (cli_main_op, cli_main_check),
}


def run(workload: str, seed: int, seconds: float, trace: bool, spans_path: str) -> dict:
    pipeline = PIPELINES[workload][0]
    result = {"ops": [], "attempted": 0, "failed": 0, "failures": [], "check_s": 0.0, "warmup_s": 0.0}
    if workload == "exact-core":
        # fill hop_*_dof's lru_cache the way a long-lived library user has it
        start = time.perf_counter()
        warm = next(_batches(workload, seed, "warmup"))
        for op in warm:
            pipeline(op, NULL)
        result["warmup_s"] = time.perf_counter() - start
        result["warmup_ops"] = len(warm)
    tracer = spans.Tracer()
    overhead = [0.0, 0.0]  # untraced, traced operation time
    checked = {}  # slot -> (output digest, verdict) of replayed documents
    start = time.perf_counter()
    clock = calib.Clock()
    for op in docs.timed_ops(_batches(workload, seed), start, seconds, workload != "plan-ladder"):
        gc.collect()  # start every operation on a clean heap: no inherited collection
        result["attempted"] += 1
        tracer.op = result["attempted"]
        try:
            _operation(workload, op, result, tracer if trace else None, overhead, checked, clock)
        except Exception:  # a relaydof defect: count the operation as failed, go on
            _fail(result, op, traceback.format_exc(limit=-1).strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        result["trace"] = spans.summarize(tracer.spans)
        result["trace"]["bench.check_s"] = result["check_s"]
        result["trace"]["bench.trace_overhead"] = overhead[1] / overhead[0] - 1
        result["curves"] = curves(workload, tracer.spans)
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"workload": workload, "seed": seed, "spans": tracer.spans, "curves": result["curves"]}, handle)
    return result


def _digest(out: dict) -> bytes:
    """Fingerprint of everything plan_check looks at."""
    sched = out["sched"]
    facts = f"{out['report'].ok} {sched.sum_dof} {sched.total_bits} {sched.total_delay}\n"
    return hashlib.blake2b((facts + out["text"]).encode()).digest()


def _operation(workload: str, op: dict, result: dict, tracer, overhead: list, checked: dict, clock) -> None:
    """Time one operation untraced, calibrate its time to the reference host
    (see ``calib``) and check its output.  With a tracer, run it once more
    with spans, first on odd operations and last on even ones, so neither run
    always finds relaydof's caches filled by the other."""
    pipeline, check = PIPELINES[workload]
    if tracer and tracer.op % 2:
        overhead[1] += _timed(pipeline, op, tracer)
    began = time.perf_counter()
    out = pipeline(op, NULL)
    latency = time.perf_counter() - began
    scale = clock.factor()
    began = time.perf_counter()
    digest = _digest(out) if "slot" in op else None
    if digest is not None and checked.get(op["slot"], (None,))[0] == digest:
        error = checked[op["slot"]][1]  # the same output as a replay already checked
    else:
        try:
            error = check(op, out)
        except exact.UNREADABLE as exc:
            error = f"unreadable output: {exc!r}"
        if digest is not None:
            checked[op["slot"]] = (digest, error)
    result["check_s"] += time.perf_counter() - began
    if error:
        _fail(result, op, error)
    slot = op.get("slot", result["attempted"])
    result["ops"].append([op.get("use", op.get("kind")), latency * scale, op["hops"], out["edges"], slot, latency])
    if tracer:
        overhead[0] += latency
        if not tracer.op % 2:
            overhead[1] += _timed(pipeline, op, tracer)
        if workload == "plan-ladder":
            _attach_memory(tracer, op, plan_memory(op, out))


def _fail(result: dict, op: dict, error: str) -> None:
    result["failed"] += 1
    if len(result["failures"]) < 5:
        result["failures"].append(f"{op.get('use') or ' '.join(op['argv'])}: {error}")


def _timed(pipeline, op, tracer) -> float:
    began = time.perf_counter()
    pipeline(op, tracer)
    return time.perf_counter() - began


def _attach_memory(tracer, op, peaks) -> None:
    use = op["use"]
    for s in reversed(tracer.spans):
        if s["op"] != tracer.op:
            break
        if s["name"] == f"{use}.schedule.build":
            s["alloc_peak_mb"] = peaks[0]
        elif s["name"].startswith(f"{use}.schedule.serialize."):
            s["alloc_peak_mb"] = peaks[1]


def curves(workload: str, all_spans: list) -> list:
    """Median stage time and output bytes against edge count (plan-ladder) or
    chain length in hops (exact-core), in power-of-two buckets."""
    by_op = {}
    for s in all_spans:
        by_op.setdefault(s["op"], {})[s["name"].split(".", 1)[1]] = s
    points = {}
    for stages in by_op.values():
        if workload == "plan-ladder":
            build = stages["schedule.build"]
            key = (next(iter(stages.values()))["name"].split(".")[0], 1 << (build["edges"].bit_length() - 1))
            ser = next(v for k, v in stages.items() if k.startswith("schedule.serialize."))
            row = {
                "build_s": build["end"] - build["start"],
                "verify_s": stages["schedule.verify"]["end"] - stages["schedule.verify"]["start"],
                "serialize_s": ser["end"] - ser["start"],
                "bytes": ser["bytes"],
            }
        elif workload == "exact-core" and "analysis.analyze" in stages:
            span = stages["analysis.analyze"]
            key = ("analyze", 1 << (span["hops"].bit_length() - 1))
            row = {"analyze_s": span["end"] - span["start"], "bytes": stages["analysis.report"]["bytes"]}
        else:
            continue
        points.setdefault(key, []).append(row)
    out = []
    for (use, size), rows in sorted(points.items()):
        point = {"use": use, "edges_from" if workload == "plan-ladder" else "hops_from": size, "ops": len(rows)}
        point.update({k: statistics.median(r[k] for r in rows) for k in rows[0]})
        out.append(point)
    return out


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, spans_path = argv
    with tempfile.TemporaryDirectory(dir=Path(spans_path).parent) as scratch:
        os.chdir(scratch)  # cli-cold documents and sweep CSVs live here
        result = run(workload, int(seed), float(seconds), trace == "1", spans_path)
        os.chdir(ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
