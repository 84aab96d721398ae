"""The exit-code contract across the five commands: any document ends in
exit 0-3, never a traceback or an unbounded run.

Documents come from a small grammar of valid and broken topologies, demands
and families.  Each command runs in a child process, one at a time, under an
address-space limit set in that child only and a wall-clock timeout.  The
contract:

    0  success
    1  only with a negative verdict on stdout: an infeasible ``check`` or an
       ``Unclassified`` ``classify`` or ``sweep``
    2  an input error, with an ``error: `` line on stderr
    3  an internal failure, with an ``internal error: `` or
       ``verification failed: `` line on stderr

and no ``Traceback`` on stderr.  ``schedule`` draws stay within the sizes of
the benchmark's plan ladder, since its output grows with the edge count.
"""

import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import relaydof

from support import invocations

SRC = str(Path(relaydof.__file__).resolve().parents[1])
MEMORY_BYTES = 1 << 30  # address space of one child
TIMEOUT_S = 30  # wall clock of one child


def _limit_child():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def run_child(argv, cwd):
    """(exit code, stdout, stderr) of ``relaydof <argv>`` in a child process.
    ``-S`` skips the site hooks, which only cost start-up time here."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONIOENCODING="utf-8")
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "relaydof.cli", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        timeout=TIMEOUT_S,
        preexec_fn=_limit_child,
    )
    decode = lambda b: b.decode("utf-8", errors="replace")
    return proc.returncode, decode(proc.stdout), decode(proc.stderr)


def _negative_verdict(command, out):
    if command == "check":
        if out.startswith("{"):
            return json.loads(out)["feasible"] is False
        return out.partition("\n")[0].split() == ["feasible", "no"]
    return command in ("classify", "sweep") and out.startswith("Unclassified ")


def assert_contract(command, code, out, err):
    assert code in (0, 1, 2, 3), (code, err[-2000:])
    assert "Traceback" not in err, err[-2000:]
    lines = err.splitlines()
    if code == 1:
        assert _negative_verdict(command, out), (out[:2000], err[-2000:])
    elif code == 2:
        assert any(line.startswith("error: ") for line in lines), err[-2000:]
    elif code == 3:
        assert any(line.startswith(("internal error: ", "verification failed: ")) for line in lines), err[-2000:]


# -- the grammar ---------------------------------------------------------------------

# Each document is valid (drawn from the grammar in ``support``), valid but for
# one fault, or text that is not JSON.
# PAST_LIMIT marks a literal one digit past the int-string limit, which
# json.dumps cannot write, so _text splices it into the document text.
PAST_LIMIT = "@past-the-int-string-limit@"
BAD_NUMBERS = [0, -1, -(10**6), 2.0, 2.5, True, False, None, "2", "-inf", "nan", [], {}, PAST_LIMIT]


def _text(obj) -> str:
    return json.dumps(obj).replace(json.dumps(PAST_LIMIT), "9" * 4301)


# not JSON, or nested past the parser's recursion limit
MALFORMED = st.one_of(
    st.sampled_from(["", "{", '{"layers": [', "nul", "[1,]", "\ufeff{}", "{'layers': []}"]),
    st.integers(1_000, 200_000).map(lambda depth: "[" * depth + "]" * depth),
)


@st.composite
def _broken_topology(draw, topology):
    layers = list(topology["layers"])
    k = draw(st.integers(0, len(layers) - 1))
    fault = draw(st.sampled_from(["nodes", "antennas", "keys", "layer", "top", "few"]))
    if fault == "nodes":
        layers[k] = {"nodes": draw(st.sampled_from(BAD_NUMBERS))}
    elif fault == "antennas":
        layers[k] = {"antennas": draw(st.sampled_from([[], [0], [2.0], [True], ["inf"], [1, -1], 3, [PAST_LIMIT]]))}
    elif fault == "keys":
        layers[k] = draw(st.sampled_from([{"node": 2}, {"nodes": 2, "antennas": [2]}, {}, {"nodes": 2, "x": 1}]))
    elif fault == "layer":
        layers[k] = draw(st.sampled_from([2, "2", None, [2], True]))
    elif fault == "top":
        return draw(st.sampled_from([{"layer": layers}, {"layers": {"0": layers[0]}}, layers, None, "layers"]))
    else:
        layers = layers[: draw(st.integers(0, 1))]
    return {"layers": layers}


@st.composite
def _broken_demand(draw, demand):
    entries = list(demand["demands"])
    fault = draw(st.sampled_from(["dof", "index", "entry", "top"] if entries else ["entry", "top"]))
    if fault == "top":
        return draw(st.sampled_from([{}, [], {"demands": {}}, {"demand": entries}]))
    if fault == "entry":
        bad = [{"dst": 1, "src": 1}, {"dst": 1, "src": 1, "dof": "1", "x": 0}, [1, 1, "1"], None]
        return {"demands": [*entries, draw(st.sampled_from(bad))]}
    k = draw(st.integers(0, len(entries) - 1))
    if fault == "dof":
        bad = ["inf", "-1/2", -1, 0.5, True, None, "1/0", "x", "1e-20000000", "1" * 500, PAST_LIMIT]
        entries[k] = {**entries[k], "dof": draw(st.sampled_from(bad))}
    else:
        name = draw(st.sampled_from(["dst", "src"]))
        entries[k] = {**entries[k], name: draw(st.sampled_from([0, -1, True, 1.0, "1", 9, 10**300]))}
    return {"demands": entries}


@st.composite
def _broken_family(draw, family):
    fault = draw(st.sampled_from(["base", "pinned", "field", "topology"]))
    if fault == "base" and "base" in family:
        base = list(family["base"])
        bad = ["inf", "0", "-1/2", 0, -3, 1.5, True, None, "x", "1e-20000000", PAST_LIMIT]
        base[draw(st.integers(0, len(base) - 1))] = draw(st.sampled_from(bad))
        return {**family, "base": draw(st.sampled_from([base, [], "1,1"]))}
    if fault == "pinned" and "pinned" in family:
        key = draw(st.sampled_from(["0", "01", "9", "x", "-1", "1" * 5000]))
        size = draw(st.sampled_from([3, 0, -2, 2.0, "2", True, None, 10**300]))
        return {**family, "pinned": draw(st.sampled_from([{**family["pinned"], key: size}, {}, [[1, 2]]]))}
    if fault == "topology" and "topology" in family:
        infinite = {"layers": [{"nodes": 1}, {"nodes": "inf"}]}
        return {**family, "topology": draw(_broken_topology(family["topology"]) | st.just(infinite))}
    # a field the kind does not take, an unknown field or kind, no kind, no object
    fields = [("base", [1, 1]), ("pinned", {"0": 1}), ("n", 4), ("kind", "Quadratic"), ("kind", ["x"])]
    name, value = draw(st.sampled_from(fields))
    kindless = {k: v for k, v in family.items() if k != "kind"}
    return draw(st.sampled_from([{**family, name: value}, kindless, [family]]))


BROKEN = {"topology": _broken_topology, "demand": _broken_demand, "family": _broken_family}


def _document(valid, kind):
    """Document texts of one kind: half valid objects, a quarter the same
    with one fault, a quarter not JSON."""
    return st.one_of(valid.map(_text), st.one_of(valid.flatmap(BROKEN[kind]).map(_text), MALFORMED))


COMMANDS = ["analyze", "check", "schedule", "classify", "sweep"]


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=40, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_document_ends_in_an_exit_of_the_contract(command, data):
    files, argv = data.draw(invocations(command, _document))
    with tempfile.TemporaryDirectory() as cwd:
        for name, text in files.items():
            Path(cwd, name).write_text(text, encoding="utf-8")
        assert_contract(command, *run_child(argv, cwd))


@pytest.mark.parametrize(
    "command, code, out, err",
    [
        ("analyze", 1, "", ""),  # exit 1 with no verdict
        ("check", 1, '{"feasible": true}', ""),
        ("classify", 1, "Linear (slope≈1.0)\n", ""),
        ("analyze", 2, "", "bad document\n"),  # exit 2 with no error line
        ("schedule", 3, "", "error: x\n"),
        ("analyze", 0, "", "Traceback (most recent call last):\n"),
        ("sweep", 137, "", ""),  # killed
    ],
)
def test_the_contract_check_rejects_a_broken_exit(command, code, out, err):
    with pytest.raises(AssertionError):
        assert_contract(command, code, out, err)


@pytest.mark.parametrize(
    "command, out",
    [("check", '{"feasible": false}'), ("check", "feasible  no\nbinding   -\n"), ("sweep", "Unclassified (slope≈0.3)\n")],
)
def test_the_contract_check_takes_a_negative_verdict(command, out):
    assert_contract(command, 1, out, "")
