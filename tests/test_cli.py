import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from spikescan import cli as cli_module
from spikescan import numerics as nm
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


@pytest.mark.parametrize("kind,prop", [("psn", "short-control"),
                                       ("sliding-psn", "long-control"),
                                       ("if-hard", "conditions-table"),
                                       ("lif-none", "short-control")])
def test_props_without_expectation_is_usage_error(runner, tmp_path, kind, prop):
    # no checker runs: the pair is refused before a verdict is written
    out = tmp_path / "none"
    res = runner.invoke(cli, ["props", "--neuron", kind, "--property", prop,
                              "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert f"Error: no expected {prop} outcome for neuron '{kind}'" in res.output
    assert not (out / "verdict.json").exists()


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


@pytest.mark.parametrize("args", [
    ["props", "--neuron", "psn", "--property", "short-control"],
    ["bench", "--neurons", "nosuch", "--lengths", "8"]], ids=["props", "bench"])
def test_usage_error_leaves_no_new_out_directory(runner, tmp_path, args):
    out = tmp_path / "new" / "out"
    res = runner.invoke(cli, args + ["--out", str(out)])
    assert res.exit_code == 2, res.output
    assert not (tmp_path / "new").exists()
    # a directory that existed before stays, with what it held
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "note.txt").write_text("mine")
    res = runner.invoke(cli, args + ["--out", str(kept)])
    assert res.exit_code == 2, res.output
    assert [p.name for p in kept.iterdir()] == ["note.txt"]


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


def test_bench_digests_past_one_chunk_match_the_step_fold(runner, tmp_path):
    # 300 and 1024 steps span 2 and 4 scan chunks, so the chunk carries shape
    # every spike after step 256
    res = runner.invoke(cli, ["bench", "--neurons", "dsn,lif-none", "--lengths",
                              "300,1024", "--batch", "2", "--channels", "4",
                              "--reps", "1", "--seed", "3", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    digests = json.loads((tmp_path / "bench.json").read_text())["digests"]
    for kind in ("dsn", "lif-none"):
        for length in (300, 1024):
            x, neuron = cli_module._bench_inputs(kind, length, 2, 4, 3)
            want = hashlib.sha256(neuron.serial_fold(x).tobytes()).hexdigest()
            assert digests[kind][str(length)] == want, (kind, length)


# sha256 of the spikes and of the input, kernel and bias gradients of one
# taped DSN bench pass (mean spike loss) at batch 2, 8 channels, seed 3,
# recorded with the scan that folded on whole-array moveaxis copies; 300
# and 1024 steps span 2 and 4 scan chunks, so the forward and adjoint
# carries reach every digest
BENCH_GRAD_DIGESTS = {
    300: ("f26c3dfb861874f1d4a8f49ca2be6d59e3cc9fcc936ce492d6651cc649cfe013",
          "239bd97691c26d57a72a166a983ae560ed3b0036498d7c99a1c4a9a1c8eb9f31",
          "02c8f316efcd9fe0e77630d9e0295269ed4adfee09d4a02858371bee36186de2",
          "cf5486d2c75dc61baa773c9838e9c803553c12233005b846545975d7989bbf80"),
    1024: ("8bc24fcc9af93293566fc4c819e2f4f13b6366933a3fa3c4207792d70b074e6e",
           "3605146af6e7e5a7f737b132a88597769f62250bd1d91549c1671e314b3c91d0",
           "fe7273e94927da9f3b217131242e6625c9c5647b43690cd93809e8d37610d0e9",
           "842c7e22c4f68e2e32a742fc654853daa1d6a82b9841fa5f194a9716ccf22577"),
}


@pytest.mark.parametrize("length", list(BENCH_GRAD_DIGESTS))
def test_dsn_bench_pass_gradient_digests_match_golden(length):
    x, neuron = cli_module._bench_inputs("dsn", length, 2, 8, 3)
    tape = Tape()
    leaves = {name: tape.leaf(w.data) for name, w in neuron.weights().items()}
    xt = tape.leaf(x)
    s = neuron.with_weights(leaves).forward(xt)
    tape.backward(nm.mean_all(s))
    arrays = (s.data, tape.grad(xt), tape.grad(leaves["kernel"]),
              tape.grad(leaves["bias"]))
    got = tuple(hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
                for a in arrays)
    assert got == BENCH_GRAD_DIGESTS[length]


@pytest.mark.parametrize("flags", [
    ["--lengths", "0"], ["--batch", "0"], ["--channels", "0"],
    ["--lengths", "-5"], ["--lengths", "1,a"], ["--lengths", "1,1"],
    ["--reps", "0"], ["--seed", "-1"]],
    ids=lambda flags: " ".join(flags))
def test_bench_malformed_config_is_a_usage_error(runner, tmp_path, flags):
    out = tmp_path / "new" / "out"
    args = ["bench", "--neurons", "dsn", "--lengths", "8", "--batch", "1",
            "--channels", "2", "--reps", "1"]
    res = runner.invoke(cli, args + flags + ["--out", str(out)])
    assert res.exit_code == 2, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Error: bench --" in res.output
    assert not (tmp_path / "new").exists()


def test_bench_unknown_kind_is_refused_before_any_pass(runner, tmp_path,
                                                     monkeypatch):
    passes = []
    real = cli_module._bench_pass

    def counting(*args):
        passes.append(args)
        return real(*args)

    monkeypatch.setattr(cli_module, "_bench_pass", counting)
    out = tmp_path / "new" / "out"
    res = runner.invoke(cli, ["bench", "--neurons", "dsn,nosuch", "--lengths", "8",
                              "--batch", "1", "--channels", "2", "--reps", "1",
                              "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "unknown neuron kind 'nosuch'" in res.output
    assert passes == []
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("args", [
    ["approx", "--scale", "smoke", "--epochs", "1"],
    ["extrapolate", "--neuron", "dsn", "--train-t", "32", "--eval-t", "32,64",
     "--epochs", "1"]], ids=["approx", "extrapolate"])
def test_task_rerun_is_byte_identical(runner, tmp_path, args):
    first = tmp_path / "first"
    res = runner.invoke(cli, args + ["--out", str(first)])
    assert res.exit_code == 0, res.output
    second = tmp_path / "second"
    res = runner.invoke(cli, ["rerun", str(first / "manifest.json"),
                              "--out", str(second)])
    assert res.exit_code == 0, res.output
    outputs = json.loads((first / "manifest.json").read_text())["outputs"]
    assert len(outputs) == 2
    for name in outputs:
        assert _files_identical(first / name, second / name), name
    assert json.loads((second / "manifest.json").read_text())["outputs"] == outputs


def test_bench_json_is_strict_json_with_one_length(runner, tmp_path):
    res = runner.invoke(cli, ["bench", "--neurons", "dsn,lif", "--lengths", "16",
                              "--batch", "1", "--channels", "2", "--reps", "1",
                              "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert "log-log slope of fwd+bwd vs length = n/a" in res.output

    def refuse(token):
        raise ValueError(f"non-JSON constant {token}")

    payload = json.loads((tmp_path / "bench.json").read_text(),
                         parse_constant=refuse)
    assert payload["slopes"] == {"dsn": None, "lif": None}
