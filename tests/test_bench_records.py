"""The committed performance records: every ``BENCH_*.json`` at the root of
the repository parses and names the command and the machine it measured,
and every record the source cites is one of them."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_parses_and_names_its_command_and_machine(path):
    record = json.loads(path.read_text())
    assert isinstance(record, dict)
    for key in ("command", "machine"):
        assert record.get(key), f"{path.name} has no {key!r}"


CITED = sorted({name for path in (ROOT / "src").rglob("*.py")
                for name in re.findall(r"BENCH_\w+\.json", path.read_text())})


def test_the_source_cites_records():
    assert CITED


@pytest.mark.parametrize("name", CITED)
def test_every_record_the_source_cites_exists_and_parses(name):
    path = ROOT / name
    assert path.is_file(), f"{name} is cited under src/ but missing at the root"
    assert isinstance(json.loads(path.read_text()), dict)


def test_step_sums_record_holds_the_golden_step_digests():
    from test_neurons import STEP_DIGESTS

    record = json.loads((ROOT / "BENCH_step_sums.json").read_text())
    recorded = {(d["kind"], d["batch"], d["channels"]): d["sha256"]
                for d in record["step_digests"]}
    assert recorded == STEP_DIGESTS
