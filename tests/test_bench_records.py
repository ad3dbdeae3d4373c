"""The committed performance records: every ``BENCH_*.json`` at the root of
the repository parses and names the command and the machine it measured."""

import json
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
