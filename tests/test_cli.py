"""End-to-end command-line behaviour: outputs, formats, exit codes."""

import csv
import json

import pytest

from relaydof import cli
from relaydof.cli import main
from relaydof.model import parse_demand, parse_topology

from support import primes_from


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return {
        "t222": write("t222.json", '{"layers":[{"nodes":2},{"nodes":2},{"nodes":2}]}'),
        "t3333": write("t3333.json", '{"layers":' + json.dumps([{"nodes": 3}] * 4) + "}"),
        "s124": write("s124.json", '{"layers":[{"nodes":1},{"nodes":2},{"nodes":4}]}'),
        "ultimate": write("ultimate.json", '{"layers":[{"nodes":1},{"nodes":"inf"},{"nodes":1}]}'),
        "bad": write("bad.json", '{"layers":[{"nodes":0},{"nodes":2}]}'),
        "relayless": write("relayless.json", '{"layers":[{"nodes":2},{"nodes":2}]}'),
        "good_demand": write(
            "good_demand.json",
            '{"demands":[{"dst":1,"src":1,"dof":"1/5"},{"dst":2,"src":2,"dof":"1/5"},{"dst":3,"src":3,"dof":"1/5"}]}',
        ),
        "fat_demand": write("fat_demand.json", '{"demands":[{"dst":1,"src":1,"dof":"1/4"}]}'),
        "family": write("family.json", '{"kind":"ProportionalFixedK","base":[1,1,1]}'),
        "pinned": write("pinned.json", '{"kind":"PinnedLayerFixedK","base":[1,1,1],"pinned":{"1":2}}'),
        "growing": write("growing.json", '{"kind":"FixedSizesGrowingK","base":[2]}'),
        "tmp": tmp_path,
    }


# -- analyze --------------------------------------------------------------------


def test_analyze_table(files, capsys):
    assert main(["analyze", files["t222"]]) == 0
    out = capsys.readouterr().out
    assert "2/3" in out and "cut-set bound" in out
    assert "\033[" not in out  # no styling when not a tty


def test_analyze_ultimate_chain(files, capsys):
    assert main(["analyze", files["ultimate"]]) == 0
    out = capsys.readouterr().out
    assert "1/2" in out and "optimal" in out and "yes" in out


def test_analyze_bad_topology_exits_2(files, capsys):
    assert main(["analyze", files["bad"]]) == 2
    err = capsys.readouterr().err
    assert "layer 0: zero nodes" in err


def test_analyze_json_round_trips(files, capsys):
    assert main(["analyze", files["t222"], "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["achievable"] == "2/3"
    assert obj["cutset"] == "1"
    assert parse_topology(json.dumps(obj["topology"])).effective_sizes() == (2, 2, 2)


def test_analyze_csv_and_decimal(files, capsys):
    assert main(["analyze", files["t222"], "--format", "csv", "--decimal"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    header, values = rows
    record = dict(zip(header, values))
    assert record["achievable"] == "0.666667"
    assert record["optimal"] == "False"


def test_analyze_json_decimal_notes_that_json_stays_exact(files, capsys):
    assert main(["analyze", files["t222"], "--format", "json"]) == 0
    exact = capsys.readouterr()
    assert main(["analyze", files["t222"], "--format", "json", "--decimal"]) == 0
    captured = capsys.readouterr()
    assert captured.out == exact.out
    assert exact.err == ""
    assert captured.err == "note: --decimal does not apply to --format json; JSON values stay exact\n"


def test_analyze_missing_file_exits_2(files, capsys):
    assert main(["analyze", str(files["tmp"] / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


# -- check ----------------------------------------------------------------------


def test_check_feasible_demand(files, capsys):
    assert main(["check", files["t3333"], files["good_demand"]]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["feasible"] is True
    assert "src:1" in obj["binding"]


def test_check_infeasible_demand(files, capsys):
    assert main(["check", files["t3333"], files["fat_demand"]]) == 1
    obj = json.loads(capsys.readouterr().out)
    assert obj["feasible"] is False
    assert {"constraint": "src:1", "lhs": "1/4", "rhs": "1/5"} in obj["violations"]


@pytest.mark.parametrize("demand, code", [("good_demand", 0), ("fat_demand", 1)])
def test_check_json_decimal_notes_that_json_stays_exact(files, capsys, demand, code):
    assert main(["check", files["t3333"], files[demand]]) == code
    exact = capsys.readouterr()
    assert main(["check", files["t3333"], files[demand], "--decimal"]) == code
    captured = capsys.readouterr()
    assert captured.out == exact.out
    assert exact.err == ""
    assert captured.err == "note: --decimal does not apply to --format json; JSON values stay exact\n"


def test_check_missing_demand_file(files, capsys):
    assert main(["check", files["t3333"], str(files["tmp"] / "nope.json")]) == 2


def test_check_demand_on_wrong_topology(files, capsys):
    # index 3 does not exist on a 2x2 endpoint pair
    assert main(["check", files["t222"], files["good_demand"]]) == 2
    assert "out of range" in capsys.readouterr().err


# -- schedule --------------------------------------------------------------------


def test_schedule_json(files, capsys):
    assert main(["schedule", files["s124"]]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert [p["block_length"] for p in obj["phases"]] == [8, 5]
    assert obj["sum_dof"] == "8/13"
    assert obj["total_bits"] == 8
    assert obj["split_plan"]["source_node_map"] == [1]
    assert obj["verified"] == ["phase-recurrence", "bit-conservation", "sum-dof", "demand-shares"]
    assert parse_demand(json.dumps(obj["split_plan"]["demand"])) is not None


def test_schedule_dot(files, capsys):
    assert main(["schedule", files["s124"], "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert '"ph1[2->4]"' in out


def test_schedule_with_demand(files, tmp_path, capsys):
    demand = tmp_path / "d.json"
    demand.write_text('{"demands":[{"dst":1,"src":1,"dof":"2/13"}]}', encoding="utf-8")
    assert main(["schedule", files["s124"], "--demand", str(demand)]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["split_plan"]["padding_bits"] == "6"


def test_schedule_infinite_layer_exits_2(files, capsys):
    assert main(["schedule", files["ultimate"]]) == 2
    assert "finite" in capsys.readouterr().err


def test_schedule_without_relay_exits_2(files, capsys):
    assert main(["schedule", files["relayless"]]) == 2


def test_schedule_infeasible_demand_exits_2(files, tmp_path, capsys):
    demand = tmp_path / "d.json"
    demand.write_text('{"demands":[{"dst":1,"src":1,"dof":"9"}]}', encoding="utf-8")
    assert main(["schedule", files["s124"], "--demand", str(demand)]) == 2


# -- classify and sweep ------------------------------------------------------------


def test_classify_families(files, capsys):
    assert main(["classify", files["family"]]) == 0
    assert capsys.readouterr().out.startswith("Linear")
    assert main(["classify", files["pinned"]]) == 0
    assert capsys.readouterr().out.startswith("Constant")
    assert main(["classify", files["growing"]]) == 0
    assert capsys.readouterr().out.startswith("Inverse")


def test_sweep_writes_csv(files, tmp_path, capsys):
    out_path = tmp_path / "samples.csv"
    assert main(["sweep", files["family"], "--out", str(out_path)]) == 0
    assert capsys.readouterr().out.startswith("Linear (slope≈1.0)")
    rows = list(csv.reader(out_path.read_text().splitlines()))
    assert rows[0] == ["n", "alpha_num", "alpha_den", "log_n", "log_alpha"]
    assert len(rows) == 10
    assert rows[1][0] == "16"


def test_sweep_bad_family_exits_2(files, tmp_path, capsys):
    bad = tmp_path / "bad_family.json"
    bad.write_text('{"kind":"Nonsense"}', encoding="utf-8")
    assert main(["sweep", str(bad), "--out", str(tmp_path / "x.csv")]) == 2


# -- documents that json.loads cannot read --------------------------------------------

_HUGE = "1" + "0" * 4400  # past CPython's 4,300-digit int-string limit


@pytest.mark.parametrize(
    "argv, name, text, kind",
    [
        (["analyze", "{}"], "t.json", '{"layers":[{"nodes":%s},{"nodes":2}]}' % _HUGE, "topology"),
        (["check", "{t222}", "{}"], "d.json", '{"demands":[{"dst":1,"src":1,"dof":%s}]}' % _HUGE, "demand"),
        (["classify", "{}"], "f.json", '{"kind":"ProportionalFixedK","base":[%s,1,1]}' % _HUGE, "family"),
    ],
    ids=["analyze", "check", "classify"],
)
def test_huge_integer_literal_exits_2(files, capsys, argv, name, text, kind):
    path = files["tmp"] / name
    path.write_text(text, encoding="utf-8")
    assert main([a.format(str(path), t222=files["t222"]) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {kind} document cannot be read: Exceeds the limit") and "Traceback" not in err


def test_deeply_nested_document_exits_2(files, capsys):
    path = files["tmp"] / "deep.json"
    path.write_text('{"layers":' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: topology document cannot be read: maximum recursion depth")


@pytest.mark.parametrize("error", [MemoryError, RecursionError])
def test_out_of_memory_or_recursion_exits_2(files, capsys, monkeypatch, error):
    def schedule(topology, demand):
        raise error()

    monkeypatch.setattr(cli, "integer_schedule", schedule)
    assert main(["schedule", files["t222"]]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err == f"error: {error.__name__}: input too large to process\n"


# -- results past the int-string limit ------------------------------------------------


@pytest.fixture(scope="module")
def prime_chain(tmp_path_factory):
    """1,000 distinct 7-digit primes: every bound has about 6,000 digits."""
    path = tmp_path_factory.mktemp("primes") / "primes.json"
    path.write_text(json.dumps({"layers": [{"nodes": p} for p in primes_from(10**6, 1000)]}), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{t}"],
        ["analyze", "{t}", "--format", "json"],
        ["analyze", "{t}", "--format", "csv"],
        ["check", "{t}", "{d}", "--format", "table"],
        ["check", "{t}", "{d}"],
    ],
    ids=["analyze-table", "analyze-json", "analyze-csv", "check-table", "check-json"],
)
def test_result_past_the_int_string_limit_exits_2(files, capsys, prime_chain, argv):
    demand = files["tmp"] / "half.json"
    demand.write_text('{"demands":[{"dst":1,"src":1,"dof":"1/2"}]}', encoding="utf-8")
    assert main([a.format(t=prime_chain, d=demand) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Exceeds the limit (4300 digits)") and "Traceback" not in captured.err
