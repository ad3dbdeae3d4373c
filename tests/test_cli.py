import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from oracles import step_fold
from spikescan import cli as cli_module
from spikescan import numerics as nm
from spikescan.cli import cli
from spikescan.errors import OutOfMemory, SpikescanError
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


def test_props_short_control_dsn_names_violating_channel(runner, tmp_path):
    out = tmp_path / "p4"
    res = runner.invoke(cli, ["props", "--neuron", "dsn", "--property",
                              "short-control", "--out", str(out)])
    assert res.exit_code == 0, res.output
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["holds"] is False
    assert verdict["matches_expected"] is True
    witness = verdict["witness"]
    assert witness["channel"] == 2
    assert witness["note"].startswith("channel 2: ")
    assert len(witness["inputs"]) == 3  # the lane's (C, T) input


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


def test_manifest_records_peak_rss_and_outputs_stay_identical(runner, tmp_path):
    first, second = tmp_path / "m1", tmp_path / "m2"
    res = runner.invoke(cli, ["energy", "--out", str(first)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(cli, ["rerun", str(first / "manifest.json"),
                              "--out", str(second)])
    assert res.exit_code == 0, res.output
    for out in (first, second):
        peak = json.loads((out / "manifest.json").read_text())["peak_rss_mb"]
        assert isinstance(peak, float) and peak > 0.0
    for name in ("energy.csv", "energy.json"):
        assert _files_identical(first / name, second / name), name


def _out_of_memory_at(length):
    # the error numpy raises for an allocation it cannot make, with no
    # gigabytes allocated
    def bench_pass(neuron, x):
        if x.shape[-1] == length:
            raise np._core._exceptions._ArrayMemoryError((16384, 16384),
                                                         np.dtype(np.float64))
        return real(neuron, x)

    real = cli_module._bench_pass
    return bench_pass


def test_bench_out_of_memory_exits_with_one_line(runner, tmp_path, monkeypatch):
    monkeypatch.setattr(cli_module, "_bench_pass", _out_of_memory_at(16))
    out = tmp_path / "new" / "out"
    res = runner.invoke(cli, ["bench", "--neurons", "dsn", "--lengths", "8,16",
                              "--batch", "1", "--channels", "2", "--reps", "1",
                              "--out", str(out)])
    assert res.exit_code == cli_module.EXIT_OUT_OF_MEMORY == 4, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.output.splitlines() == [
        "Error: bench: the dsn pass at length 16, B x C = 1 x 2, ran out of "
        "memory: Unable to allocate 2.00 GiB for an array with shape "
        "(16384, 16384) and data type float64"]
    assert not (tmp_path / "new").exists()


def test_bench_out_of_memory_is_a_documented_error(tmp_path, monkeypatch):
    monkeypatch.setattr(cli_module, "_bench_pass", _out_of_memory_at(8))
    config = {"neurons": ["sliding-psn"], "lengths": [8], "batch": 3,
              "channels": 2, "reps": 1, "seed": 0}
    with pytest.raises(OutOfMemory, match="sliding-psn pass at length 8, "
                                          "B x C = 3 x 2") as err:
        cli_module._core_bench(config, tmp_path)
    assert isinstance(err.value, SpikescanError)
    assert isinstance(err.value, MemoryError)
    assert isinstance(err.value.__cause__, MemoryError)
    assert list(tmp_path.iterdir()) == []


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
            want = hashlib.sha256(step_fold(neuron, x)[0].tobytes()).hexdigest()
            assert digests[kind][str(length)] == want, (kind, length)


# sha256 of the spikes and of the input, kernel and bias gradients of one
# taped DSN bench pass (mean spike loss) at batch 2, 8 channels, seed 3:
# the spikes as recorded with the scan that folded on whole-array moveaxis
# copies, the gradients as recorded with the time-major serial fold and its
# reverse adjoint (within 1.6e-15 of the scan's, relative to the largest);
# at 16 lanes both lengths fit one 2,048-frame sub-block
BENCH_GRAD_DIGESTS = {
    300: ("f26c3dfb861874f1d4a8f49ca2be6d59e3cc9fcc936ce492d6651cc649cfe013",
          "d98b9bdd22c5cb08e70bde4010d559c2319e77265e5b7215a01f32865f21191f",
          "b6b22d6ee8060bc58127a500ec8c77e65dfd1eaa0994b0faf86cf887c9f0ff58",
          "7087ba03f35150ecd44f3294eb65e85970204d335bcfb6060fad8a9f051a214c"),
    1024: ("8bc24fcc9af93293566fc4c819e2f4f13b6366933a3fa3c4207792d70b074e6e",
           "9d93e0437c8d305d2c2df8a0b9ea2b33a6af674257e7479d87783a642648a417",
           "d0e03a798d0380f3f39cbeea844e5d72213c5f3e0365c7369d1318ec6ae54129",
           "8e3a89bbb541939946dd136026292a95278e97f22a5b95e69157d1b5f30d5dee"),
}


# the same for the spikes and input gradient of the classical neurons at
# batch 2, 4 channels, seed 3, recorded with the charge-fire-reset fold that
# wrote (B, C, T) arrays frame by frame (lif-none and if-hard: with the fold
# of ``LifNeuron.step`` that the block kernel replaced); 300 steps carry the
# reset through a long backward recurrence
LIF_GRAD_DIGESTS = {
    ("lif-hard", 16): ("94bc762b432a105514c331b77aa303bdf96ee3f2a1a63a9cb547b7a48505ee09",
                       "eae9f70d5a13f6b99398e9f91191d39cd39c476721b73b495c402e3549f52dc1"),
    ("lif-hard", 300): ("d4d98ceb7539bfd35d7c17cf88d8a38d76acff11f705f3df5aa067b26acdc043",
                        "686735285c133cb5266ab615f60728c27a04988afa57dc6200046fc84113dbd8"),
    ("lif-none", 16): ("d78bc8588441bfbe94262e6b9861683736914cec56907b04abae7cf7d0c780ce",
                       "db100566507a3922ef7d02a04de9046c126e65cf0d9141a9ef22e52843a3c416"),
    ("lif-none", 300): ("97a135e9a3e11e261252f06b5bd5ad4b3b5ce84f1cf9c9457286687dc283c007",
                        "bd72e7357866af2c5b30676cdb4bc2a80f3a99b96276808625f0b4a2494e79c2"),
    ("if-hard", 16): ("4f57595652e36835dea58c89c1901fe285ce95d87aaed0e1b3670fb2f520cb38",
                      "529217084bc1edc06f5c36c80d1ebe473da3679aa4a92b64bd785ddbdef1329f"),
    ("if-hard", 300): ("a0fa7eb1fe5fba725db5471ee3ffee9d590fd9b9c12618d15dbffaa6500b19a4",
                       "610f76360599ea19a4d93985f70d8d2733fc3826778afc905d4b1ad6a1d1c30e"),
    ("lif-soft", 16): ("94bc762b432a105514c331b77aa303bdf96ee3f2a1a63a9cb547b7a48505ee09",
                       "4856a4195f4b6b3de11735d99a5f8a0961530838012796f925635be2d1a3cb80"),
    ("lif-soft", 300): ("d4d98ceb7539bfd35d7c17cf88d8a38d76acff11f705f3df5aa067b26acdc043",
                        "af91474b0dde298863b8fbcd6d46287ebd7f16fa84bb4491e63d190fe6f0bb05"),
    ("if-soft", 16): ("fb28f0654490ace77468fce42ea53f75c2b93c53cb65e53237cec81ad5cfd6b9",
                      "e089c33fee2275cf6414ca82dc8540d8ec75b22ed76799ae95262f57cbdd841b"),
    ("if-soft", 300): ("c77b1ea5e5cebbd6f18ed230096c1a210de9665f99bc70ffdffd61cbba89e267",
                       "887ae1bc1a5c248fdb5e770aa1776d2f68768bb62f07ef6c46e8a36c72aa5853"),
    ("if-none", 16): ("db3859ad44fd43bafd3770af872f90cd14314a90b3b4f1c936359334bbaf8989",
                      "c7829fc628b8329881a42765961be01e9c1c1d1cdc1a1d58da049918251e37cb"),
    ("if-none", 300): ("923a311ab66bf51b4f4d5e5a14295b6e283afefab15cd53fff1a4b17c32a1557",
                       "1d3d7b9562a0043808825ed2ee6e0df84985a5d8635310372a43c3a2e7640240"),
}


def _bench_pass_digests(kind: str, length: int, channels: int,
                        weights: tuple[str, ...] = ()) -> tuple[str, ...]:
    """sha256 of the spikes, dL/dx and dL/dw for each named weight of one
    taped bench pass (mean spike loss) at batch 2, seed 3."""
    x, neuron = cli_module._bench_inputs(kind, length, 2, channels, 3)
    tape = Tape()
    leaves = {name: tape.leaf(w.data) for name, w in neuron.weights().items()}
    xt = tape.leaf(x)
    s = neuron.with_weights(leaves).forward(xt)
    tape.backward(nm.mean_all(s))
    arrays = (s.data, tape.grad(xt)) + tuple(tape.grad(leaves[n]) for n in weights)
    return tuple(hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
                 for a in arrays)


@pytest.mark.parametrize("length", list(BENCH_GRAD_DIGESTS))
def test_dsn_bench_pass_gradient_digests_match_golden(length):
    got = _bench_pass_digests("dsn", length, 8, ("kernel", "bias"))
    assert got == BENCH_GRAD_DIGESTS[length]


@pytest.mark.parametrize("kind, length", list(LIF_GRAD_DIGESTS))
def test_lif_bench_pass_gradient_digests_match_golden(kind, length):
    assert _bench_pass_digests(kind, length, 4) == LIF_GRAD_DIGESTS[kind, length]


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


@pytest.mark.parametrize("args", [
    ["props", "--neuron", "dsn", "--property", "short-control", "--delta", "0"],
    ["props", "--neuron", "dsn", "--property", "long-control", "--t", "0"],
    ["props", "--neuron", "dsn", "--property", "long-control", "--trials", "0"],
    ["props", "--neuron", "dsn", "--property", "long-control", "--c-bound", "nan"],
    ["extrapolate", "--neuron", "dsn", "--eval-t", "32,abc"],
    ["extrapolate", "--neuron", "dsn", "--eval-t", "1"],
    ["extrapolate", "--neuron", "dsn", "--eval-t", "0"],
    ["extrapolate", "--neuron", "dsn", "--train-t", "1"],
    ["extrapolate", "--neuron", "dsn", "--train-t", "0"],
    ["extrapolate", "--neuron", "dsn", "--epochs", "-1"],
    ["approx", "--epochs", "-1"],
    ["approx", "--seed", "-1"],
    ["gen-data", "--dataset", "a", "--n", "0"],
    ["gen-data", "--dataset", "b", "--t", "0"],
    ["energy", "--neurons", "nosuch"],
    ["rerun", "lacks-t.json"], ["rerun", "list.json"], ["rerun", "text.json"],
    ["rerun", "props-channels.json"], ["rerun", "bench-warmup.json"]],
    ids=lambda args: " ".join(args))
def test_malformed_config_is_a_usage_error(runner, tmp_path, args):
    # manifests: a config that lacks a key the command reads, a JSON list,
    # a file that is not JSON, and configs with a key no flag sets (which
    # once reached the cores unchecked)
    manifests = {"lacks-t.json": json.dumps({"command": "gen-data", "config": {
                     "dataset": "a", "n": 4, "seed": 0}}),
                 "list.json": "[1, 2]", "text.json": "not json",
                 "props-channels.json": json.dumps({"command": "props", "config": {
                     "neuron": "dsn", "property": "long-control", "delta": 4,
                     "trials": 10, "c_bound": 2.0, "t": 8, "seed": 0, "channels": 0}}),
                 "bench-warmup.json": json.dumps({"command": "bench", "config": {
                     "neurons": ["dsn"], "lengths": [8], "batch": 1, "channels": 2,
                     "reps": 1, "seed": 0, "warmup": "x"}})}
    for name, text in manifests.items():
        (tmp_path / name).write_text(text)
    args = [str(tmp_path / a) if a in manifests else a for a in args]
    out = tmp_path / "new" / "out"
    res = runner.invoke(cli, args + ["--out", str(out)])
    assert res.exit_code == 2, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
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
