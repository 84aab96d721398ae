"""``relaydof.cli.main`` against ``reference.main`` on the same drawn documents:
every command exits with the same code and writes the same stdout bytes, and
``sweep`` writes the same CSV.  Run it alone with
``PYTHONPATH=src python -m pytest tests/test_reference_cli.py``."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import reference
from support import PRIME_TOPOLOGIES, SMALL_DOFS, TOPOLOGIES, invocations, run_cli, topologies

_SUPPRESSED = [HealthCheck.function_scoped_fixture, HealthCheck.too_slow]
# sizes 1..64 take the multiply route of the chain sums; sizes up to 10**6
# and huge sizes mostly the count route, 7-digit primes always; some layers
# are unbounded or antenna lists
ANALYZED = st.one_of(topologies((2, 64), st.integers(0, 64).map(lambda n: n or "inf")), TOPOLOGIES, PRIME_TOPOLOGIES)


# every output of every command
RUNS = [
    *(["analyze", "--format", name, *decimal] for name in ("table", "json", "csv") for decimal in ([], ["--decimal"])),
    *(["check", "--format", name, *decimal] for name in ("json", "table") for decimal in ([], ["--decimal"])),
    *(["schedule", "--format", name, *demand] for name in ("json", "dot") for demand in ([], ["--demand", "d.json"])),
    ["classify"],
    ["sweep"],
]


@pytest.mark.parametrize("run", RUNS, ids=" ".join)
@settings(max_examples=12, deadline=None, derandomize=True, database=None, suppress_health_check=_SUPPRESSED)
@given(data=st.data())
def test_the_cli_prints_what_the_reference_prints(run, data, tmp_path):
    command, *options = run
    document = lambda valid, kind: valid.map(json.dumps)
    files, argv = data.draw(invocations(command, document, ANALYZED, SMALL_DOFS, options))
    folder = Path(tempfile.mkdtemp(dir=tmp_path))
    for name, text in files.items():
        (folder / name).write_text(text, encoding="utf-8")
    argv = [str(folder / word) if word.endswith((".json", ".csv")) else word for word in argv]
    code, out, _ = run_cli(*argv)
    expected_code, expected = reference.main([word.replace("out.csv", "ref.csv") for word in argv])
    # by lines with their ends, so that a failure names the first line that differs
    assert (code, out.encode().splitlines(True)) == (expected_code, expected.encode().splitlines(True))
    written = [path.read_bytes() if path.exists() else None for path in (folder / "out.csv", folder / "ref.csv")]
    assert written[0] == written[1]
