"""Each entry point loads only the modules it uses.

``import relaydof`` resolves its public names on first use, and
``relaydof.cli`` imports a subcommand's modules just before running it.
The subprocess tests start a fresh interpreter, because the test process
has long since imported every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import relaydof
from relaydof import cli

SRC = str(Path(relaydof.__file__).resolve().parents[1])

# the public names of relaydof, by the submodule that defines them
PUBLIC = {
    "model": [
        "INFINITY",
        "DemandError",
        "DemandMatrix",
        "DocumentError",
        "ExtRational",
        "Infinity",
        "LayerSpec",
        "NetworkTopology",
        "TopologyError",
        "antenna_split",
        "parse_demand",
        "parse_topology",
        "scale_antennas",
        "serialize_demand",
        "serialize_topology",
        "validate_demand",
    ],
    "analysis": [
        "AnalysisError",
        "AnalysisReport",
        "absolute_and_fractional_gap",
        "achievable_sum_dof",
        "analyze",
        "bounding_set",
        "cutset_sum_dof",
        "hop_achievable_dof",
        "hop_cutset_dof",
        "inverse_gap",
        "is_optimal",
        "relay_loss_factor",
        "ultimate_capacity",
    ],
    "region": ["RegionVerdict", "ScaleResult", "Violation", "check_demand", "max_uniform_scale"],
    "schedule": [
        "PhasePlan",
        "Schedule",
        "SplitPlan",
        "VerificationReport",
        "integer_schedule",
        "phase_ratios",
        "recurrence_sum_dof",
        "splitting_plan",
        "verify_schedule",
    ],
    "scaling": [
        "FamilyError",
        "FamilySpec",
        "ScalingVerdict",
        "antenna_scale_check",
        "classify",
        "evaluate_family",
        "parse_family",
    ],
}

# the names cli looks up at call time, by the module that defines them;
# a tracer patches them on the cli module to time each stage
CLI_CALLS = {
    "parse_topology": "model",
    "parse_demand": "model",
    "parse_family": "scaling",
    "analyze": "analysis",
    "report_to_obj": "analysis",
    "check_demand": "region",
    "integer_schedule": "schedule",
    "verify_schedule": "schedule",
    "schedule_to_obj": "schedule",
    "plan_to_dot": "schedule",
    "classify": "scaling",
    "sweep_rows": "scaling",
}

TOPOLOGY = '{"layers":[{"nodes":3},{"nodes":3},{"nodes":3},{"nodes":3}]}'
DEMAND = '{"demands":[{"dst":1,"src":1,"dof":"1/5"}]}'
FAMILY = '{"kind":"ProportionalFixedK","base":[1,1,1]}'


@pytest.fixture
def files(tmp_path):
    for name, text in [("t.json", TOPOLOGY), ("d.json", DEMAND), ("f.json", FAMILY)]:
        (tmp_path / name).write_text(text, encoding="utf-8")
    return tmp_path


def run_fresh(code: str, cwd) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON object last."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


LOADED = "sorted(m for m in sys.modules if m.startswith('relaydof.'))"


def loaded_by(statement: str, cwd) -> list[str]:
    return run_fresh(f"import json, sys\n{statement}\nprint(json.dumps({LOADED}))", cwd)


def loaded_by_main(argv: list[str], cwd) -> tuple[int, list[str]]:
    code = (
        "import contextlib, io, json, sys\n"
        "from relaydof import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        f"print(json.dumps([code, {LOADED}]))"
    )
    return tuple(run_fresh(code, cwd))


# -- import isolation ------------------------------------------------------------


def test_import_relaydof_loads_no_submodule(files):
    assert loaded_by("import relaydof", files) == []


def test_import_analysis_leaves_region_schedule_and_scaling_out(files):
    assert loaded_by("import relaydof.analysis", files) == ["relaydof.analysis", "relaydof.model"]


def test_analyze_leaves_region_schedule_and_scaling_out(files):
    code, loaded = loaded_by_main(["analyze", "t.json"], files)
    assert code == 0
    assert loaded == ["relaydof.analysis", "relaydof.cli", "relaydof.model"]


def test_check_leaves_schedule_and_scaling_out(files):
    code, loaded = loaded_by_main(["check", "t.json", "d.json"], files)
    assert code == 0
    assert loaded == ["relaydof.analysis", "relaydof.cli", "relaydof.model", "relaydof.region"]


def test_invariant_error_is_one_class():
    from relaydof import model, schedule

    assert schedule.InvariantError is model.InvariantError


# -- the public surface ------------------------------------------------------------


@pytest.mark.parametrize("module, name", [(m, n) for m, names in PUBLIC.items() for n in names])
def test_public_name_is_the_submodule_object(module, name):
    submodule = __import__(f"relaydof.{module}", fromlist=[name])
    assert getattr(relaydof, name) is getattr(submodule, name)


def test_star_import_yields_exactly_the_public_names():
    namespace = {}
    exec("from relaydof import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == {n for names in PUBLIC.values() for n in names}
    assert sorted(relaydof.__all__) == sorted(namespace)


def test_package_keeps_its_version_and_lists_its_names():
    assert relaydof.__version__ == "0.1.0"
    assert set(relaydof.__all__) <= set(dir(relaydof))
    assert relaydof.schedule is sys.modules["relaydof.schedule"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        relaydof.no_such_name
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name


# -- the tracing contract ---------------------------------------------------------


def test_cli_call_names_resolve_before_any_command(files):
    code = (
        "import json, sys\n"
        "from relaydof import cli\n"
        f"before = {LOADED}\n"
        f"calls = {CLI_CALLS!r}\n"
        "same = {n: getattr(cli, n) is getattr(sys.modules['relaydof.' + m], n) for n, m in calls.items()}\n"
        "print(json.dumps([before, same]))"
    )
    before, same = run_fresh(code, files)
    assert before == ["relaydof.cli"]
    assert same == {name: True for name in CLI_CALLS}


@pytest.mark.parametrize(
    "name, argv",
    [
        ("parse_topology", ["analyze", "t.json"]),
        ("parse_demand", ["check", "t.json", "d.json"]),
        ("parse_family", ["classify", "f.json"]),
        ("analyze", ["analyze", "t.json"]),
        ("report_to_obj", ["analyze", "t.json", "--format", "json"]),
        ("check_demand", ["check", "t.json", "d.json"]),
        ("integer_schedule", ["schedule", "t.json"]),
        ("verify_schedule", ["schedule", "t.json"]),
        ("schedule_to_obj", ["schedule", "t.json"]),
        ("plan_to_dot", ["schedule", "t.json", "--format", "dot"]),
        ("classify", ["classify", "f.json"]),
        ("sweep_rows", ["sweep", "f.json", "--out", "rows.csv"]),
    ],
)
def test_a_patched_cli_name_is_the_one_that_runs(files, monkeypatch, capsys, name, argv):
    monkeypatch.chdir(files)
    calls = 0
    original = getattr(cli, name)

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, counting)
    assert cli.main(argv) == 0
    assert calls == 1


# -- standard-library modules a command leaves out ----------------------------------

# what `import dataclasses` pulls in, plus `typing` and `csv`
HEAVY = ("ast", "csv", "dataclasses", "dis", "inspect", "tokenize", "typing")


def stdlib_loaded_by_main(argv: list[str], cwd, names: tuple[str, ...]) -> tuple[int, list[str]]:
    """Exit code and which of ``names`` ``cli.main(argv)`` loads in a fresh
    interpreter started without ``site``, which can import ``typing`` itself
    through a ``.pth`` file.  The streams are swapped by hand, since
    ``contextlib`` is one of the modules asked about."""
    code = (
        "import io, json, sys\n"
        "from relaydof import cli\n"
        "out, sys.stdout, sys.stderr = sys.stdout, io.StringIO(), io.StringIO()\n"
        f"code = cli.main({argv!r})\n"
        f"print(json.dumps([code, sorted(set(sys.modules) & set({names!r}))]), file=out)"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-S", "-c", code], cwd=cwd, env=env, capture_output=True, text=True, check=True)
    return tuple(json.loads(out.stdout.splitlines()[-1]))


def heavy_loaded_by_main(argv: list[str], cwd) -> tuple[int, list[str]]:
    """Exit code and the HEAVY modules loaded by ``cli.main(argv)``."""
    return stdlib_loaded_by_main(argv, cwd, HEAVY)


@pytest.fixture
def bad_files(files):
    (files / "bad_t.json").write_text('{"layers":[{"nodes":0},{"nodes":2}]}', encoding="utf-8")
    (files / "bad_d.json").write_text('{"demands":[{"dst":1}]}', encoding="utf-8")
    (files / "bad_f.json").write_text('{"kind":"ProportionalFixedK"', encoding="utf-8")
    return files


# every command, well-formed and malformed, with its exit code
COMMANDS = pytest.mark.parametrize(
    "argv, code",
    [
        (["analyze", "t.json"], 0),
        (["analyze", "t.json", "--format", "json"], 0),
        (["analyze", "t.json", "--decimal"], 0),
        (["check", "t.json", "d.json"], 0),
        (["check", "t.json", "d.json", "--format", "table"], 0),
        (["classify", "f.json"], 0),
        (["schedule", "t.json"], 0),
        (["schedule", "t.json", "--format", "dot"], 0),
        (["schedule", "t.json", "--demand", "d.json"], 0),
        (["analyze", "bad_t.json"], 2),
        (["check", "t.json", "bad_d.json"], 2),
        (["schedule", "t.json", "--demand", "bad_d.json"], 2),
        (["classify", "bad_f.json"], 2),
        (["analyze", "missing.json"], 2),
    ],
)


@COMMANDS
def test_command_loads_no_dataclasses_typing_or_csv(bad_files, argv, code):
    assert heavy_loaded_by_main(argv, bad_files) == (code, [])


@COMMANDS
def test_command_loads_no_contextlib(bad_files, argv, code):
    assert stdlib_loaded_by_main(argv, bad_files, ("contextlib",)) == (code, [])


@pytest.mark.parametrize(
    "argv",
    [["analyze", "t.json", "--format", "csv"], ["sweep", "f.json", "--out", "rows.csv"]],
)
def test_csv_output_adds_only_csv(files, argv):
    assert heavy_loaded_by_main(argv, files) == (0, ["csv"])
