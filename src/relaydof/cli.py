"""Command-line front end.

Reads topology / demand / family documents, writes machine-readable
results to standard output, and signals outcomes through exit codes:

    0  success (and, for ``check``, a feasible demand)
    1  negative verdict (infeasible demand, unclassifiable scaling slope)
    2  input error (missing file, bad document, failed validation, or a
       result too large to print)
    3  internal failure (a schedule that fails its own checks or breaks a
       construction invariant)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import import_module

# The modules each subcommand uses.  main() binds every public name
# (``__all__``) of a command's modules as a global here just before running
# it, and __getattr__ binds them on first access, so a command imports only
# its own modules.  A bound name is never rebound: cmd_* look names up here
# at call time, so a name that a caller patched on this module is the one
# that runs.
_COMMAND_MODULES = {
    "analyze": ("model", "analysis"),
    "check": ("model", "analysis", "region"),
    "schedule": ("model", "analysis", "schedule"),
    "classify": ("model", "analysis", "scaling"),
    "sweep": ("model", "analysis", "scaling"),
}

__all__ = ["main", "build_parser"]


def _bind(module: str) -> None:
    """Import one submodule and bind its public names as globals here; a
    name that is already bound keeps its value."""
    namespace = globals()
    source = import_module(f"{__package__}.{module}")
    for name in source.__all__:
        namespace.setdefault(name, getattr(source, name))


def __getattr__(name: str):
    if not name.startswith("_"):
        for module in dict.fromkeys(m for ms in _COMMAND_MODULES.values() for m in ms):
            _bind(module)
            if name in globals():
                return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _fmt(value, decimal: bool) -> str:
    """Render an exact value; --decimal switches to 6 significant digits."""
    if value is None:
        return "-"
    if decimal:
        f = float(value)
        return "inf" if f == float("inf") else f"{f:.6g}"
    return str(value)


def _print_table(rows: list[tuple[str, str]]) -> None:
    width = max(len(name) for name, _ in rows)
    color = sys.stdout.isatty() and not os.environ.get("NO_COLOR")
    bold, reset = ("\033[1m", "\033[0m") if color else ("", "")
    for name, value in rows:
        print(f"{bold}{name.ljust(width)}{reset}  {value}")


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


# -- subcommands ---------------------------------------------------------------


def _report_rows(report: AnalysisReport, decimal: bool) -> list[tuple[str, str]]:
    join = lambda xs: ", ".join(_fmt(x, decimal) for x in xs)
    rows = [
        ("achievable sum DoF", _fmt(report.achievable, decimal)),
        ("achievable per hop", join(report.achievable_per_hop)),
        ("cut-set bound", _fmt(report.cutset, decimal)),
        ("cut-set per hop", join(report.cutset_per_hop)),
        ("inverse gap", _fmt(report.inverse_gap, decimal)),
        ("absolute gap", _fmt(report.absolute_gap, decimal)),
        ("fractional gap bound", _fmt(report.fractional_gap_bound, decimal)),
        ("bounding hops", ", ".join(str(k) for k in sorted(report.bounding_set)) or "-"),
        ("optimal", "yes" if report.optimal else "no"),
        ("ultimate capacity", _fmt(report.ultimate_capacity, decimal)),
        ("relay loss factor", _fmt(report.relay_loss_factor, decimal)),
    ]
    return rows


def _csv_cell(value, decimal: bool):
    """One report field as a CSV cell: sequences space-separated, hop
    indices sorted, booleans as Python writes them."""
    if isinstance(value, tuple):
        return " ".join(_fmt(x, decimal) for x in value)
    if isinstance(value, frozenset):
        return " ".join(map(str, sorted(value)))
    if isinstance(value, bool):
        return value
    return _fmt(value, decimal)


def _note_json_stays_exact(args) -> None:
    if args.decimal:
        print("note: --decimal does not apply to --format json; JSON values stay exact", file=sys.stderr)


def cmd_analyze(args) -> int:
    topology = parse_topology(_read(args.topology))
    report = analyze(topology)
    if args.format == "json":
        _note_json_stays_exact(args)
        obj = {"topology": topology_to_obj(topology)}
        obj.update(report_to_obj(report))
        print(json.dumps(obj, indent=2))
    elif args.format == "csv":
        import csv

        names = AnalysisReport._fields
        # the row is rendered before anything is written, so a value that
        # cannot be rendered leaves no partial output
        row = [" ".join(map(str, topology.effective_sizes()))]
        row += (_csv_cell(getattr(report, name), args.decimal) for name in names)
        writer = csv.writer(sys.stdout)
        writer.writerow(["sizes", *names])
        writer.writerow(row)
    else:
        _print_table(_report_rows(report, args.decimal))
    return 0


def cmd_check(args) -> int:
    topology = parse_topology(_read(args.topology))
    demand = parse_demand(_read(args.demand))
    verdict = check_demand(topology, demand)
    if args.format == "table":
        rows = [("feasible", "yes" if verdict.feasible else "no")]
        for v in verdict.violations:
            rows.append((f"violated {v.constraint}", f"{_fmt(v.lhs, args.decimal)} > {_fmt(v.rhs, args.decimal)}"))
        rows.append(("binding", ", ".join(verdict.binding) or "-"))
        _print_table(rows)
    else:
        _note_json_stays_exact(args)
        print(json.dumps(verdict_to_obj(verdict), indent=2))
    return 0 if verdict.feasible else 1


def cmd_schedule(args) -> int:
    topology = parse_topology(_read(args.topology))
    demand = parse_demand(_read(args.demand)) if args.demand else None
    sched = integer_schedule(topology, demand)
    report = verify_schedule(sched)
    if not report.ok:
        for failure in report.failures():
            print(f"verification failed: {failure.name}: {failure.detail}", file=sys.stderr)
        return 3
    if args.format == "dot":
        print(plan_to_dot(sched.split_plan))
    else:
        obj = {"topology": topology_to_obj(topology)}
        obj.update(schedule_to_obj(sched))
        # physical node behind each virtual endpoint of the plan
        obj["split_plan"]["source_node_map"] = [
            i + 1 for i in virtual_node_map(topology.source_layer)
        ]
        obj["split_plan"]["destination_node_map"] = [
            j + 1 for j in virtual_node_map(topology.destination_layer)
        ]
        obj["verified"] = [c.name for c in report.checks]
        print(json.dumps(obj, indent=2))
    return 0


def _verdict_line(verdict) -> str:
    name = verdict.classification or "Unclassified"
    return f"{name} (slope≈{verdict.slope_estimate:.1f})"


def cmd_classify(args) -> int:
    family = parse_family(_read(args.family))
    verdict = classify(family)
    print(_verdict_line(verdict))
    return 0 if verdict.classification else 1


def cmd_sweep(args) -> int:
    import csv

    family = parse_family(_read(args.family))
    verdict = classify(family)
    with open(args.out, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["n", "alpha_num", "alpha_den", "log_n", "log_alpha"])
        for row in sweep_rows(verdict):
            writer.writerow([row[0], row[1], row[2], f"{row[3]:.12g}", f"{row[4]:.12g}"])
    print(_verdict_line(verdict))
    return 0 if verdict.classification else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaydof",
        description="Exact DoF bounds, demand checks, and decode-and-forward "
        "schedules for layered relay networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="bounds, gaps, and optimality for a topology")
    p.add_argument("topology", help="topology document (JSON)")
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.add_argument("--decimal", action="store_true", help="render rationals as decimals")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("check", help="test a demand matrix against the achievable region")
    p.add_argument("topology")
    p.add_argument("demand", help="demand document (JSON)")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--decimal", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("schedule", help="construct the integer phase schedule and split plan")
    p.add_argument("topology")
    p.add_argument("--demand", help="optional demand document; default is the uniform boundary demand")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("classify", help="classify a topology family's scaling law")
    p.add_argument("family", help="family document (JSON)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sweep", help="classify a family and write its samples as CSV")
    p.add_argument("family")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for module in _COMMAND_MODULES[args.command]:
        _bind(module)
    try:
        return args.func(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        # ValueError: a bad document, or an exact value past the int-string
        # limit; ArithmeticError: one too large for a float or to expand per
        # node.  Each writer renders its whole output before printing any.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
