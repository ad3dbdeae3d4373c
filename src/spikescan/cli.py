"""Command-line front end.

Every command writes its tabular results as CSV, a JSON mirror, and a run
manifest capturing the full configuration, seed, library version, wall-clock
timings and the SHA-256 of every output file.  ``spikescan rerun MANIFEST``
replays a manifest; all CSV/JSON outputs are byte-identical across reruns
(wall-clock fields live only in the manifest, and the benchmark's timing CSV
is inherently measurement -- its deterministic artifact is the numerics
digest in the JSON).

Exit codes: 0 = every expected-outcome assertion passed (including cases
that are supposed to fail the way the analysis predicts); 1 = an expectation
was violated; 2 = usage error; 3 = a length-locked neuron rejected an
off-length sequence (EXIT_LENGTH_MISMATCH, the documented outcome for
full/masked PSN extrapolation).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import __version__
from . import numerics as nm
from .neurons import NEURON_KINDS, make_neuron
from .numerics import Tape
from .energy import (REFERENCE_ENERGY_TOTALS, REFERENCE_FIRING_RATES,
                     reference_energy_report)
from .props import (EXPECTED_CONDITIONS, EXPECTED_CONTROL,
                    check_conditions_table, check_long_control,
                    check_short_control)
from .serialize import save_tensors
from .tasks import TrainConfig, gen_dataset_a, gen_dataset_b
from .tasks.approx import run_approx_experiment
from .tasks.extrapolate import EXTRAP_KINDS, run_extrapolation

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_LENGTH_MISMATCH = 3


# ---------------------------------------------------------------------------
# manifest plumbing


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _write_text(path: Path, text: str) -> None:
    _atomic_write(path, text.encode("utf-8"))


def _write_json(path: Path, obj) -> None:
    # strict JSON: a NaN or infinity raises instead of writing a bare token
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True,
                                 allow_nan=False) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, command: str, config: dict,
                    outputs: list[Path], wall_s: float) -> Path:
    manifest = {
        "command": command,
        "config": config,
        "seed": config.get("seed"),
        "version": __version__,
        "timings": {"wall_s": wall_s},
        "outputs": {p.name: _sha256(p) for p in outputs},
    }
    path = out_dir / "manifest.json"
    _write_json(path, manifest)
    return path


def _csv(rows: list[dict], columns: list[str]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(c, "")) for c in columns))
    return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _run_command(name: str, config: dict, out_dir: Path) -> int:
    # the directories this call creates, deepest first; a core that refuses
    # its config (UsageError) leaves them as they were: absent
    created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    try:
        outputs, code = _CORES[name](config, out_dir)
    except click.UsageError:
        for d in created:
            if any(d.iterdir()):
                break
            d.rmdir()
        raise
    _write_manifest(out_dir, name, config, outputs, time.perf_counter() - t0)
    return code


# ---------------------------------------------------------------------------
# bench


def _bench_inputs(kind: str, length: int, batch: int, channels: int, seed: int):
    x = np.random.default_rng(seed).normal(size=(batch, channels, length))
    return x, make_neuron(kind, channels=channels, t_train=length, seed=seed)


def _bench_pass(neuron, x: np.ndarray):
    """One taped forward+backward; returns (fwd_s, bwd_s, output digest)."""
    tape = Tape()
    leaves = {name: tape.leaf(w.data) for name, w in neuron.weights().items()}
    xt = tape.leaf(x)
    t0 = time.perf_counter()
    s = neuron.with_weights(leaves).forward(xt)
    t1 = time.perf_counter()
    loss = nm.mean_all(s)
    t2 = time.perf_counter()
    tape.backward(loss)
    t3 = time.perf_counter()
    digest = hashlib.sha256(s.data.tobytes()).hexdigest()
    return t1 - t0, t3 - t2, digest


def _fit_slope(lengths: list[int], seconds: list[float]) -> float | None:
    if len(lengths) < 2:
        return None
    logs = np.log2(np.asarray(lengths, dtype=float))
    logt = np.log2(np.asarray(seconds, dtype=float))
    coeffs = np.polyfit(logs, logt, 1)
    return float(coeffs[0])


def _check_bench_config(config: dict) -> None:
    lengths = config["lengths"]
    unknown = [k for k in config["neurons"] if k.lower() not in ("lif", *NEURON_KINDS)]
    if unknown:
        raise click.UsageError(f"bench neuron: unknown neuron kind {unknown[0]!r}")
    for key in ("batch", "channels", "reps"):
        if config[key] < 1:
            raise click.UsageError(f"bench --{key} must be at least 1, "
                                   f"got {config[key]}")
    if not lengths or min(lengths) < 1:
        raise click.UsageError(f"bench --lengths must be positive, "
                               f"got {lengths}")
    if len(set(lengths)) != len(lengths):
        raise click.UsageError(f"bench --lengths must be distinct, "
                               f"got {lengths}")
    if config["seed"] < 0:
        raise click.UsageError(f"bench --seed must be non-negative, "
                               f"got {config['seed']}")


def _core_bench(config: dict, out_dir: Path):
    _check_bench_config(config)
    neurons = config["neurons"]
    lengths = config["lengths"]
    reps = config["reps"]
    warmup = config.get("warmup", 3)
    rows = []
    digests: dict[str, dict[str, str]] = {}
    slopes: dict[str, float] = {}
    for kind in neurons:
        totals = []
        for length in lengths:
            x, neuron = _bench_inputs(kind, length, config["batch"],
                                      config["channels"], config["seed"])
            fwd, bwd = [], []
            digest = ""
            for rep in range(warmup + reps):
                f, b, digest = _bench_pass(neuron, x)
                if rep >= warmup:
                    fwd.append(f)
                    bwd.append(b)
            digests.setdefault(kind, {})[str(length)] = digest
            rows.append({
                "neuron": kind, "length": length,
                "fwd_ms": float(np.median(fwd) * 1e3),
                "bwd_ms": float(np.median(bwd) * 1e3),
                "fwd_ms_mean": float(np.mean(fwd) * 1e3),
                "bwd_ms_mean": float(np.mean(bwd) * 1e3),
            })
            totals.append(np.median(fwd) + np.median(bwd))
        slope = slopes[kind] = _fit_slope(lengths, totals)
        click.echo(f"{kind}: log-log slope of fwd+bwd vs length = "
                   + ("n/a" if slope is None else f"{slope:.3f}"))
    csv_path = out_dir / "bench.csv"
    _write_text(csv_path, _csv(rows, ["neuron", "length", "fwd_ms", "bwd_ms",
                                      "fwd_ms_mean", "bwd_ms_mean"]))
    json_path = out_dir / "bench.json"
    _write_json(json_path, {"slopes": slopes, "digests": digests})
    return [csv_path, json_path], EXIT_OK


@click.group()
@click.version_option(__version__)
def cli():
    """Spiking-neuron recurrences: benchmarks, property checks, experiments."""


@cli.command("bench")
@click.option("--neurons", default="dsn,psn", show_default=True,
              help="comma list of neuron kinds: lif (short for lif-hard), "
                   + ", ".join(NEURON_KINDS))
@click.option("--lengths", default="1024,2048,4096,8192", show_default=True)
@click.option("--batch", default=16, show_default=True)
@click.option("--channels", default=512, show_default=True)
@click.option("--reps", default=100, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_dir", default="bench-out", show_default=True)
def cmd_bench(neurons, lengths, batch, channels, reps, seed, out_dir):
    """Time forward/backward per neuron per length; fit log-log slopes.

    Full/masked PSN cost grows quadratically in length -- budget accordingly
    at the default batch/channel sizes.
    """
    try:
        lengths = sorted(int(v) for v in lengths.split(","))
    except ValueError:
        raise click.UsageError(f"bench --lengths must be a comma list of "
                               f"integers, got {lengths!r}") from None
    config = {"neurons": [n.strip() for n in neurons.split(",")],
              "lengths": lengths, "batch": batch, "channels": channels,
              "reps": reps, "seed": seed}
    sys.exit(_run_command("bench", config, Path(out_dir)))


# ---------------------------------------------------------------------------
# props

_PROPERTIES = ("short-control", "long-control", "conditions-table")


def _core_props(config: dict, out_dir: Path):
    kind = config["neuron"]
    prop = config["property"]
    if prop not in _PROPERTIES:
        raise click.UsageError(f"unknown property {prop!r}")
    if prop == "conditions-table":
        expected = EXPECTED_CONDITIONS.get(kind)
    else:
        expected = EXPECTED_CONTROL.get(kind, {}).get(prop)
    if expected is None:
        raise click.UsageError(f"no expected {prop} outcome for neuron {kind!r}")
    neuron = make_neuron(kind, channels=config.get("channels", 3),
                         t_train=config.get("t_train", 32))
    if prop == "conditions-table":
        table = check_conditions_table(neuron, rng_seed=config["seed"])
        matched = table == expected
        payload = {"neuron": kind, "property": prop, "conditions": table,
                   "expected": expected}
    else:
        if prop == "short-control":
            verdict = check_short_control(neuron, config["delta"],
                                          config["trials"], config["seed"])
        else:
            verdict = check_long_control(neuron, config["c_bound"],
                                         T=config.get("t", 128),
                                         trials=config["trials"],
                                         rng_seed=config["seed"])
        payload = verdict.to_dict()
        matched = verdict.holds == expected
    payload["matches_expected"] = matched
    path = out_dir / "verdict.json"
    _write_json(path, payload)
    click.echo(f"{kind} / {prop}: "
               f"{'as expected' if matched else 'UNEXPECTED OUTCOME'}")
    return [path], EXIT_OK if matched else EXIT_UNEXPECTED


@cli.command("props")
@click.option("--neuron", required=True)
@click.option("--property", "prop", required=True,
              type=click.Choice(_PROPERTIES))
@click.option("--delta", default=4, show_default=True)
@click.option("--trials", default=10000, show_default=True)
@click.option("--c-bound", default=2.0, show_default=True)
@click.option("--t", default=128, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_dir", default="props-out", show_default=True)
def cmd_props(neuron, prop, delta, trials, c_bound, t, seed, out_dir):
    """Run one property checker; exit 0 iff the verdict matches the
    analysis-predicted outcome (a predicted failure counts as a match).
    A neuron/property pair with no predicted outcome is a usage error."""
    config = {"neuron": neuron, "property": prop, "delta": delta,
              "trials": trials, "c_bound": c_bound, "t": t, "seed": seed}
    sys.exit(_run_command("props", config, Path(out_dir)))


# ---------------------------------------------------------------------------
# approx


_APPROX_SCALES = {"smoke": (400, 100, 5), "desk": (2000, 200, 30),
                  "full": (10000, 1000, 100)}


def _core_approx(config: dict, out_dir: Path):
    n_train, n_test, default_epochs = _APPROX_SCALES[config["scale"]]
    epochs = config["epochs"] if config["epochs"] is not None else default_epochs
    cfg = TrainConfig(epochs=epochs, seed=config["seed"])
    rows = []
    metrics: dict = {"task": "approx", "dataset": config["dataset"],
                     "scale": config["scale"], "seed": config["seed"]}
    for integer in ([False, True] if config["mode"] == "both"
                    else [config["mode"] == "integer"]):
        res = run_approx_experiment(config["dataset"], cfg=cfg,
                                    n_train=n_train, n_test=n_test,
                                    integer=integer)
        label = "integer" if integer else "binary"
        metrics[label] = res.to_dict()
        for i, ((reset, tau_m), acc) in enumerate(
                zip(res.channel_specs, res.per_channel_accuracy), start=1):
            rows.append({"mode": label, "channel": i, "reset": reset,
                         "tau_m": tau_m, "accuracy_pct": acc * 100.0})
        rows.append({"mode": label, "channel": "average", "reset": "",
                     "tau_m": "", "accuracy_pct": res.average_accuracy * 100.0})
        click.echo(f"{label}: average spike accuracy "
                   f"{res.average_accuracy * 100:.2f}%")
    csv_path = out_dir / "approx.csv"
    _write_text(csv_path, _csv(rows, ["mode", "channel", "reset", "tau_m",
                                      "accuracy_pct"]))
    json_path = out_dir / "approx.json"
    _write_json(json_path, metrics)
    return [csv_path, json_path], EXIT_OK


@cli.command("approx")
@click.option("--dataset", type=click.Choice(["a", "b"]), default="a",
              show_default=True)
@click.option("--scale", type=click.Choice(list(_APPROX_SCALES)),
              default="desk", show_default=True)
@click.option("--mode", type=click.Choice(["binary", "integer", "both"]),
              default="both", show_default=True)
@click.option("--epochs", default=None, type=int,
              help="override the scale's epoch count (0 = untrained baseline)")
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_dir", default="approx-out", show_default=True)
def cmd_approx(dataset, scale, mode, epochs, seed, out_dir):
    """Fit the dynamic-decay bank to the classical neuron channels."""
    config = {"dataset": dataset, "scale": scale, "mode": mode,
              "epochs": epochs, "seed": seed}
    sys.exit(_run_command("approx", config, Path(out_dir)))


# ---------------------------------------------------------------------------
# extrapolate


def _core_extrapolate(config: dict, out_dir: Path):
    cfg = TrainConfig(lr=2e-3, epochs=config["epochs"], batch_size=32,
                      seed=config["seed"])
    res = run_extrapolation(config["neuron"], train_T=config["train_t"],
                            eval_Ts=tuple(config["eval_ts"]), cfg=cfg)
    rows = [{"eval_T": t, "loss": res.eval_losses.get(t, ""),
             "error": res.eval_errors.get(t, "")}
            for t in config["eval_ts"]]
    csv_path = out_dir / "extrapolate.csv"
    _write_text(csv_path, _csv(rows, ["eval_T", "loss", "error"]))
    json_path = out_dir / "extrapolate.json"
    _write_json(json_path, res.to_dict())
    for row in rows:
        outcome = row["error"] if row["error"] else f"loss={row['loss']}"
        click.echo(f"T={row['eval_T']}: {outcome}")
    code = EXIT_LENGTH_MISMATCH if res.eval_errors else EXIT_OK
    return [csv_path, json_path], code


@cli.command("extrapolate")
@click.option("--neuron", type=click.Choice(list(EXTRAP_KINDS)), required=True)
@click.option("--train-t", default=256, show_default=True)
@click.option("--eval-t", "eval_ts", default="256,512,1024,2048,4096",
              show_default=True)
@click.option("--epochs", default=15, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_dir", default="extrapolate-out", show_default=True)
def cmd_extrapolate(neuron, train_t, eval_ts, epochs, seed, out_dir):
    """Train short, evaluate long.  Exits 3 (EXIT_LENGTH_MISMATCH) when the
    neuron rejected an off-length sequence -- the documented outcome for
    full/masked PSN."""
    config = {"neuron": neuron, "train_t": train_t,
              "eval_ts": [int(v) for v in eval_ts.split(",")],
              "epochs": epochs, "seed": seed}
    sys.exit(_run_command("extrapolate", config, Path(out_dir)))


# ---------------------------------------------------------------------------
# energy


def _core_energy(config: dict, out_dir: Path):
    dataset = config["dataset"]
    rows = []
    mirror = {}
    all_within = True
    for kind in config["neurons"]:
        rep = reference_energy_report(kind, dataset)
        ref = REFERENCE_ENERGY_TOTALS[dataset][kind]
        rates = REFERENCE_FIRING_RATES[dataset][kind]
        dev = 100.0 * (rep.total_mj - ref) / ref
        all_within &= abs(dev) <= 10.0
        row = {"neuron": kind}
        row.update({k: rates[k] for k in ("conv2", "conv3", "conv4", "conv5",
                                          "conv6", "fc1", "fc2", "average")})
        row.update({"energy_total": rep.total_mj, "reference_total": ref,
                    "deviation_pct": dev})
        rows.append(row)
        mirror[kind] = {"report": rep.to_dict(), "reference_total": ref,
                        "deviation_pct": dev}
        click.echo(f"{kind:12s} estimated {rep.total_mj:8.2f} "
                   f"(reference {ref:8.2f}, {dev:+.2f}%)")
    csv_path = out_dir / "energy.csv"
    _write_text(csv_path, _csv(rows, ["neuron", "conv2", "conv3", "conv4",
                                      "conv5", "conv6", "fc1", "fc2",
                                      "average", "energy_total",
                                      "reference_total", "deviation_pct"]))
    json_path = out_dir / "energy.json"
    _write_json(json_path, mirror)
    return [csv_path, json_path], EXIT_OK if all_within else EXIT_UNEXPECTED


@cli.command("energy")
@click.option("--dataset", type=click.Choice(list(REFERENCE_ENERGY_TOTALS)),
              default="s-cifar10", show_default=True)
@click.option("--neurons", default="lif,psn,sliding-psn,dsn", show_default=True)
@click.option("--out", "out_dir", default="energy-out", show_default=True)
def cmd_energy(dataset, neurons, out_dir):
    """Recompute the reference energy table from layer specs and firing
    rates; exit 0 iff every row lands within 10% of the published total."""
    config = {"dataset": dataset, "seed": 0,
              "neurons": [n.strip() for n in neurons.split(",")]}
    sys.exit(_run_command("energy", config, Path(out_dir)))


# ---------------------------------------------------------------------------
# gen-data


_B_KIND_CODES = {"sine": 0, "sigmoid": 1, "step": 2, "poisson": 3}


def _core_gen_data(config: dict, out_dir: Path):
    seed = config["seed"]
    if config["dataset"] == "a":
        data = gen_dataset_a(config["n"], T=config["t"], seed=seed)
        tensors = {"data": data.data}
        count = config["n"]
    else:
        data, kinds = gen_dataset_b(seed=seed, T=config["t"])
        codes = np.asarray([_B_KIND_CODES[k] for k in kinds], dtype=np.float64)
        tensors = {"data": data.data, "kind_codes": codes}
        count = data.shape[0]
    path = out_dir / f"dataset_{config['dataset']}.spkn"
    save_tensors(path, tensors)
    meta_path = out_dir / "dataset.json"
    _write_json(meta_path, {"dataset": config["dataset"], "sequences": count,
                            "t": config["t"], "seed": seed,
                            "kind_codes": _B_KIND_CODES
                            if config["dataset"] == "b" else None})
    click.echo(f"wrote {count} sequences to {path}")
    return [path, meta_path], EXIT_OK


@cli.command("gen-data")
@click.option("--dataset", type=click.Choice(["a", "b"]), required=True)
@click.option("--n", default=2200, show_default=True,
              help="sample count (dataset a only; b is the fixed 800 grid)")
@click.option("--t", default=128, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_dir", default="data-out", show_default=True)
def cmd_gen_data(dataset, n, t, seed, out_dir):
    """Generate a dataset into the binary tensor container."""
    config = {"dataset": dataset, "n": n, "t": t, "seed": seed}
    sys.exit(_run_command("gen-data", config, Path(out_dir)))


# ---------------------------------------------------------------------------
# rerun


_CORES = {"bench": _core_bench, "props": _core_props, "approx": _core_approx,
          "extrapolate": _core_extrapolate, "energy": _core_energy,
          "gen-data": _core_gen_data}


@cli.command("rerun")
@click.argument("manifest", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", required=True,
              help="directory for the replayed outputs")
def cmd_rerun(manifest, out_dir):
    """Replay a manifest; outputs are byte-identical to the original run."""
    spec = json.loads(Path(manifest).read_text())
    name = spec["command"]
    if name not in _CORES:
        raise click.UsageError(f"manifest names unknown command {name!r}")
    sys.exit(_run_command(name, spec["config"], Path(out_dir)))
