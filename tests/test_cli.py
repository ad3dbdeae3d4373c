import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from spikescan import cli as cli_module
from spikescan.cli import cli
from spikescan.numerics import Tape
from spikescan.serialize import load_tensors


@pytest.fixture
def runner():
    return CliRunner()


def _files_identical(a: Path, b: Path) -> bool:
    return a.read_bytes() == b.read_bytes()


def test_gen_data_b_writes_800_sequences(runner, tmp_path):
    out = tmp_path / "b"
    res = runner.invoke(cli, ["gen-data", "--dataset", "b", "--out", str(out)])
    assert res.exit_code == 0, res.output
    tensors = load_tensors(out / "dataset_b.spkn")
    assert tensors["data"].shape == (800, 1, 128)
    assert tensors["kind_codes"].shape == (800,)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "gen-data"
    assert set(manifest["outputs"]) == {"dataset_b.spkn", "dataset.json"}


def test_rerun_is_byte_identical(runner, tmp_path):
    first = tmp_path / "first"
    res = runner.invoke(cli, ["gen-data", "--dataset", "a", "--n", "32",
                              "--out", str(first)])
    assert res.exit_code == 0, res.output
    second = tmp_path / "second"
    res = runner.invoke(cli, ["rerun", str(first / "manifest.json"),
                              "--out", str(second)])
    assert res.exit_code == 0, res.output
    for name in ("dataset_a.spkn", "dataset.json"):
        assert _files_identical(first / name, second / name)
    m1 = json.loads((first / "manifest.json").read_text())
    m2 = json.loads((second / "manifest.json").read_text())
    assert m1["outputs"] == m2["outputs"]  # same hashes; timings may differ


def test_props_expected_failure_exits_zero(runner, tmp_path):
    out = tmp_path / "p"
    res = runner.invoke(cli, ["props", "--neuron", "if-soft", "--property",
                              "long-control", "--trials", "100",
                              "--out", str(out)])
    assert res.exit_code == 0, res.output
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["holds"] is False
    assert verdict["matches_expected"] is True


def test_props_short_control_hard_reset(runner, tmp_path):
    out = tmp_path / "p2"
    res = runner.invoke(cli, ["props", "--neuron", "lif-hard", "--property",
                              "short-control", "--delta", "8",
                              "--trials", "500", "--out", str(out)])
    assert res.exit_code == 0, res.output


def test_props_conditions_table_dsn(runner, tmp_path):
    out = tmp_path / "p3"
    res = runner.invoke(cli, ["props", "--neuron", "dsn", "--property",
                              "conditions-table", "--out", str(out)])
    assert res.exit_code == 0, res.output
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["conditions"] == {"condition1": True, "condition2": True,
                                     "condition3": True}


def test_props_unknown_property_usage_error(runner, tmp_path):
    res = runner.invoke(cli, ["props", "--neuron", "dsn", "--property",
                              "telepathy"])
    assert res.exit_code == 2


def test_energy_command_reconciles(runner, tmp_path):
    out = tmp_path / "e"
    res = runner.invoke(cli, ["energy", "--out", str(out)])
    assert res.exit_code == 0, res.output
    rows = (out / "energy.csv").read_text().strip().splitlines()
    assert len(rows) == 5  # header + four neurons
    mirror = json.loads((out / "energy.json").read_text())
    for kind in ("lif", "psn", "sliding-psn", "dsn"):
        assert abs(mirror[kind]["deviation_pct"]) <= 10.0


def test_energy_rerun_byte_identical(runner, tmp_path):
    first = tmp_path / "e1"
    runner.invoke(cli, ["energy", "--out", str(first)])
    second = tmp_path / "e2"
    res = runner.invoke(cli, ["rerun", str(first / "manifest.json"),
                              "--out", str(second)])
    assert res.exit_code == 0, res.output
    assert _files_identical(first / "energy.csv", second / "energy.csv")
    assert _files_identical(first / "energy.json", second / "energy.json")


def test_bench_smoke_row_and_digest_stability(runner, tmp_path):
    args = ["bench", "--neurons", "dsn", "--lengths", "64", "--batch", "2",
            "--channels", "4", "--reps", "1", "--seed", "3"]
    out1 = tmp_path / "b1"
    res = runner.invoke(cli, args + ["--out", str(out1)])
    assert res.exit_code == 0, res.output
    lines = (out1 / "bench.csv").read_text().strip().splitlines()
    assert lines[0].startswith("neuron,length,fwd_ms,bwd_ms")
    assert len(lines) == 2
    out2 = tmp_path / "b2"
    runner.invoke(cli, args + ["--out", str(out2)])
    d1 = json.loads((out1 / "bench.json").read_text())["digests"]
    d2 = json.loads((out2 / "bench.json").read_text())["digests"]
    assert d1 == d2  # identical seed -> identical numerics


def test_extrapolate_locked_neuron_exits_with_documented_code(runner, tmp_path):
    out = tmp_path / "x"
    res = runner.invoke(cli, ["extrapolate", "--neuron", "psn",
                              "--train-t", "32", "--eval-t", "32,64",
                              "--epochs", "1", "--out", str(out)])
    assert res.exit_code == 3, res.output  # EXIT_LENGTH_MISMATCH
    payload = json.loads((out / "extrapolate.json").read_text())
    assert "LengthMismatch" in payload["eval_errors"]["64"]


def test_approx_untrained_baseline(runner, tmp_path):
    out = tmp_path / "a"
    res = runner.invoke(cli, ["approx", "--dataset", "a", "--scale", "smoke",
                              "--mode", "binary", "--epochs", "0",
                              "--out", str(out)])
    assert res.exit_code == 0, res.output
    payload = json.loads((out / "approx.json").read_text())
    assert "binary" in payload
    assert 0.0 <= payload["binary"]["average_accuracy"] <= 1.0
    csv = (out / "approx.csv").read_text()
    assert csv.startswith("mode,channel,reset,tau_m,accuracy_pct")


# spike digests of ``bench --lengths 16,64 --batch 2 --channels 4 --seed 3``,
# recorded before the neurons moved behind the registry interface
BENCH_DIGESTS = {
    "dsn": ("fe419bddf6da3b3d0da126160c5cd6bc0cf11c59a458f857c62e22258ba5e0b6",
            "444e9093c50761bdc762579e1ee67e448fff407af65d31b4d1d68ab9a2cde6c6"),
    "psn": ("d78bc8588441bfbe94262e6b9861683736914cec56907b04abae7cf7d0c780ce",
            "227e9f68bfdaa017564e9f6957aa298cb380d8ac9259c68f822771b98a68d76d"),
    "masked-psn": ("d78bc8588441bfbe94262e6b9861683736914cec56907b04abae7cf7d0c780ce",
                   "227e9f68bfdaa017564e9f6957aa298cb380d8ac9259c68f822771b98a68d76d"),
    "sliding-psn": ("d78bc8588441bfbe94262e6b9861683736914cec56907b04abae7cf7d0c780ce",
                    "227e9f68bfdaa017564e9f6957aa298cb380d8ac9259c68f822771b98a68d76d"),
    "lif": ("94bc762b432a105514c331b77aa303bdf96ee3f2a1a63a9cb547b7a48505ee09",
            "45e5d9ce3b06e48413c79cec0ad375281f5dcce08bd557479b33aba21d555174"),
}


@pytest.mark.parametrize("kind", list(BENCH_DIGESTS))
def test_bench_digests_match_golden(runner, tmp_path, kind):
    res = runner.invoke(cli, ["bench", "--neurons", kind, "--lengths", "16,64",
                              "--batch", "2", "--channels", "4", "--reps", "1",
                              "--seed", "3", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    digests = json.loads((tmp_path / "bench.json").read_text())["digests"][kind]
    assert (digests["16"], digests["64"]) == BENCH_DIGESTS[kind]


def test_bench_unknown_neuron_is_a_usage_error(runner, tmp_path):
    res = runner.invoke(cli, ["bench", "--neurons", "telepathic", "--lengths", "8",
                              "--out", str(tmp_path)])
    assert res.exit_code == 2


def test_lif_bench_pass_tape_size_is_independent_of_length(monkeypatch):
    tapes = []

    class RecordingTape(Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr(cli_module, "Tape", RecordingTape)
    for length in (16, 64):
        x, neuron = cli_module._bench_inputs("lif", length, 2, 4, 0)
        cli_module._bench_pass(neuron, x)
    assert len(tapes) == 2
    assert len(tapes[0]) == len(tapes[1])
