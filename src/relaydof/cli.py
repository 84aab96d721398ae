"""Command-line front end.

Reads topology / demand / family documents, writes machine-readable
results to standard output, and signals outcomes through exit codes:

    0  success (and, for ``check``, a feasible demand)
    1  negative verdict (infeasible demand, unclassifiable scaling slope)
    2  input error (missing file, bad document, failed validation, a
       result too large to print, or an input that needs more memory or
       deeper recursion than the process has)
    3  internal failure (a schedule that fails its own checks or breaks a
       construction invariant)

The five commands' arguments are stated once, in ``_ARGUMENTS``.  ``main``
reads a well-formed argv from that table itself (``_read_argv``), so a
command runs without importing argparse.  Any argv the reader does not
fully accept goes to ``build_parser()``, the argparse parser of the same
table, unchanged: every help, usage and error text is argparse's.
"""

from __future__ import annotations

import json
import os
import sys
from importlib import import_module
from types import SimpleNamespace

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

# The five commands' arguments, stated once: command -> (help, ((name,
# add_argument keywords), ...)).  build_parser() hands them to argparse, and
# _read_argv reads well-formed argv from them without importing it.
_ARGUMENTS = {
    "analyze": (
        "bounds, gaps, and optimality for a topology",
        (
            ("topology", {"help": "topology document (JSON)"}),
            ("--format", {"choices": ("table", "json", "csv"), "default": "table"}),
            ("--decimal", {"action": "store_true", "help": "render rationals as decimals"}),
        ),
    ),
    "check": (
        "test a demand matrix against the achievable region",
        (
            ("topology", {}),
            ("demand", {"help": "demand document (JSON)"}),
            ("--format", {"choices": ("json", "table"), "default": "json"}),
            ("--decimal", {"action": "store_true"}),
        ),
    ),
    "schedule": (
        "construct the integer phase schedule and split plan",
        (
            ("topology", {}),
            ("--demand", {"help": "optional demand document; default is the uniform boundary demand"}),
            ("--format", {"choices": ("json", "dot"), "default": "json"}),
        ),
    ),
    "classify": ("classify a topology family's scaling law", (("family", {"help": "family document (JSON)"}),)),
    "sweep": (
        "classify a family and write its samples as CSV",
        (("family", {}), ("--out", {"required": True, "help": "CSV output path"})),
    ),
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
    """The argparse parser of ``_ARGUMENTS``: it reads any argv that
    ``_read_argv`` declines, and writes every help, usage and error text."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="relaydof",
        description="Exact DoF bounds, demand checks, and decode-and-forward "
        "schedules for layered relay networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, arguments) in _ARGUMENTS.items():
        p = sub.add_parser(command, help=text)
        for name, spec in arguments:
            p.add_argument(name, **spec)
        p.set_defaults(func=globals()[f"cmd_{command}"])
    return parser


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace ``build_parser().parse_args(argv)`` makes, read without
    argparse, or None for an argv whose reading could differ from argparse's.

    Read: an exact command name, then that command's positionals and full
    option names in any order, each option with a value that does not start
    with ``-`` and is one of its choices.  Declined: every other token that
    starts with ``-`` (``-h``, ``--``, ``--form``, ``--format=json``), a
    missing or extra positional and a missing required option.
    """
    if not argv or set(map(type, argv)) != {str} or argv[0] not in _ARGUMENTS:
        return None
    arguments = _ARGUMENTS[argv[0]][1]
    options = {name: spec for name, spec in arguments if name[0] == "-"}
    given, words = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            words.append(token)
        elif token not in options:
            return None
        elif options[token].get("action") == "store_true":
            given[token] = True
        else:
            value = next(tokens, "-")
            if value.startswith("-") or value not in options[token].get("choices", (value,)):
                return None
            given[token] = value
    positionals = [name for name, _ in arguments if name[0] != "-"]
    if len(words) != len(positionals) or any(s.get("required") and n not in given for n, s in options.items()):
        return None
    args = SimpleNamespace(command=argv[0], func=globals()[f"cmd_{argv[0]}"], **dict(zip(positionals, words)))
    for name, spec in options.items():
        default = False if spec.get("action") == "store_true" else spec.get("default")
        setattr(args, name[2:], given.get(name, default))
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv) or build_parser().parse_args(argv)
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
    except (MemoryError, RecursionError) as exc:
        # str() of a MemoryError is empty, so the line names the error
        print(f"error: {type(exc).__name__}: input too large to process", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
