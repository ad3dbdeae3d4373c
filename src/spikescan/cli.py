"""Command-line front end.

Every command writes its tabular results as CSV, a JSON mirror, and a run
manifest capturing the full configuration, seed, library version, wall-clock
timings, the process's peak RSS and the SHA-256 of every output file.
``spikescan rerun MANIFEST`` replays a manifest; all CSV/JSON outputs are
byte-identical across reruns (wall-clock and memory fields live only in the
manifest, and the benchmark's timing CSV is inherently measurement -- its
deterministic artifact is the numerics digest in the JSON).

Exit codes: 0 = every expected-outcome assertion passed (including cases
that are supposed to fail the way the analysis predicts); 1 = an expectation
was violated; 2 = usage error; 3 = a length-locked neuron rejected an
off-length sequence (EXIT_LENGTH_MISMATCH, the documented outcome for
full/masked PSN extrapolation); 4 = the run ran out of memory
(EXIT_OUT_OF_MEMORY: ``bench`` names the pass that did, on one line, and
writes no outputs).
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import __version__
from . import numerics as nm
from .errors import OutOfMemory
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
EXIT_OUT_OF_MEMORY = 4

BENCH_WARMUP = 3  # untimed passes before the timed ones, per neuron and length
PROPS_CHANNELS = 3  # the width of the neuron every props check builds
PROPS_T_TRAIN = 32  # the one length its full and masked PSN accept


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
        # the process's own peak resident set so far (Linux counts KiB)
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
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


class _OutOfMemoryExit(click.ClickException):
    """Ends the command with a one-line message and EXIT_OUT_OF_MEMORY."""

    exit_code = EXIT_OUT_OF_MEMORY


def _run_command(name: str, config: dict, out_dir: Path) -> int:
    _check_config(name, config)
    # the directories this call creates, deepest first; a core that refuses
    # its config (UsageError) or runs out of memory leaves them as they
    # were: absent
    created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    try:
        outputs, code = _CORES[name](config, out_dir)
    except (click.UsageError, OutOfMemory) as exc:
        for d in created:
            if any(d.iterdir()):
                break
            d.rmdir()
        if isinstance(exc, OutOfMemory):
            raise _OutOfMemoryExit(str(exc)) from None
        raise
    _write_manifest(out_dir, name, config, outputs, time.perf_counter() - t0)
    return code


# ---------------------------------------------------------------------------
# bench


def _bench_inputs(kind: str, length: int, batch: int, channels: int, seed: int):
    x = np.random.default_rng(seed).normal(size=(batch, channels, length))
    return x, make_neuron(kind, channels=channels, t_train=length, seed=seed)


def _bench_pass(neuron, x: np.ndarray):
    """One taped forward+backward; returns (fwd_s, bwd_s, spikes)."""
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
    return t1 - t0, t3 - t2, s.data


def _fit_slope(lengths: list[int], seconds: list[float]) -> float | None:
    if len(lengths) < 2:
        return None
    logs = np.log2(np.asarray(lengths, dtype=float))
    logt = np.log2(np.asarray(seconds, dtype=float))
    coeffs = np.polyfit(logs, logt, 1)
    return float(coeffs[0])


def _core_bench(config: dict, out_dir: Path):
    neurons = config["neurons"]
    lengths = config["lengths"]
    reps = config["reps"]
    rows = []
    digests: dict[str, dict[str, str]] = {}
    slopes: dict[str, float] = {}
    for kind in neurons:
        totals = []
        for length in lengths:
            x, neuron = _bench_inputs(kind, length, config["batch"],
                                      config["channels"], config["seed"])
            fwd, bwd = [], []
            for rep in range(BENCH_WARMUP + reps):
                spikes = None  # the last pass's spikes go before the next pass
                try:
                    f, b, spikes = _bench_pass(neuron, x)
                except MemoryError as exc:
                    raise OutOfMemory(
                        f"bench: the {kind} pass at length {length}, "
                        f"B x C = {config['batch']} x {config['channels']}, "
                        f"ran out of memory: {exc}") from exc
                if rep >= BENCH_WARMUP:
                    fwd.append(f)
                    bwd.append(b)
            digest = hashlib.sha256(spikes.tobytes()).hexdigest()
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


def _int_list(flag: str, text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise click.UsageError(f"{flag} must be a comma list of integers, "
                               f"got {text!r}") from None


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
    at the default batch/channel sizes.  Exits 4 (EXIT_OUT_OF_MEMORY),
    naming the pass, when one runs out of memory.
    """
    config = {"neurons": [n.strip() for n in neurons.split(",")],
              "lengths": sorted(_int_list("bench --lengths", lengths)),
              "batch": batch, "channels": channels, "reps": reps, "seed": seed}
    sys.exit(_run_command("bench", config, Path(out_dir)))


# ---------------------------------------------------------------------------
# props

_PROPERTIES = ("short-control", "long-control", "conditions-table")


def _core_props(config: dict, out_dir: Path):
    kind = config["neuron"]
    prop = config["property"]
    expected = _props_expectation(kind, prop)
    neuron = make_neuron(kind, channels=PROPS_CHANNELS, t_train=PROPS_T_TRAIN)
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
                                         T=config["t"],
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


def _props_expectation(kind: str, prop: str):
    if prop == "conditions-table":
        return EXPECTED_CONDITIONS.get(kind)
    return EXPECTED_CONTROL.get(kind, {}).get(prop)


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
              "eval_ts": _int_list("extrapolate --eval-t", eval_ts),
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


def _is_int(v, lo: int) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= lo


# A rule maps a config value to what is wrong with it, or None.

def _integer(lo: int):
    return lambda v: None if _is_int(v, lo) else f"must be an integer >= {lo}"


def _integers(lo: int):
    def rule(v):
        if (isinstance(v, list) and v and len(set(v)) == len(v)
                and all(_is_int(i, lo) for i in v)):
            return None
        return f"must be distinct integers >= {lo}"
    return rule


def _one_of(choices):
    return lambda v: None if v in choices else "must be one of " + ", ".join(choices)


def _kinds(choices, fold=str):
    def rule(v):
        if not isinstance(v, list) or not v:
            return "must be a comma list of neuron kinds"
        unknown = [k for k in v if not isinstance(k, str) or fold(k) not in choices]
        return f"names an unknown neuron kind {unknown[0]!r}" if unknown else None
    return rule


_SEED = _integer(0)

# each command's config keys and their rules; the command's flags and a
# replayed manifest both pass through these
_CONFIG_RULES = {
    # make_neuron takes a kind in any case
    "bench": {"neurons": _kinds(("lif", *NEURON_KINDS), fold=str.lower),
              "lengths": _integers(1), "batch": _integer(1),
              "channels": _integer(1), "reps": _integer(1), "seed": _SEED},
    "props": {"neuron": _one_of(NEURON_KINDS), "property": _one_of(_PROPERTIES),
              "delta": _integer(1), "trials": _integer(1), "t": _integer(1),
              "c_bound": lambda v: (None if isinstance(v, (int, float)) and 0 <= v < np.inf
                                    else "must be a finite number >= 0"),
              "seed": _SEED},
    "approx": {"dataset": _one_of(("a", "b")), "scale": _one_of(tuple(_APPROX_SCALES)),
               "mode": _one_of(("binary", "integer", "both")),
               "epochs": lambda v: None if v is None else _integer(0)(v),
               "seed": _SEED},
    # each step is predicted from the one before it, so a length needs two
    "extrapolate": {"neuron": _one_of(EXTRAP_KINDS), "train_t": _integer(2),
                    "eval_ts": _integers(2), "epochs": _integer(0), "seed": _SEED},
    # "neurons" is checked against the table of the dataset, below
    "energy": {"dataset": _one_of(tuple(REFERENCE_ENERGY_TOTALS)), "seed": _SEED},
    "gen-data": {"dataset": _one_of(("a", "b")), "n": _integer(1), "t": _integer(1),
                 "seed": _SEED},
}


def _require(name: str, config: dict, key: str, rule) -> None:
    if key not in config:
        raise click.UsageError(f"{name} config lacks {key!r}")
    problem = rule(config[key])
    if problem:
        raise click.UsageError(f"{name} --{key.replace('_', '-')} {problem}, "
                               f"got {config[key]!r}")


def _check_config(name: str, config: dict) -> None:
    """Refuse a config its command cannot run with click.UsageError (exit 2),
    before anything is written: a key without a rule, as well as a missing
    or malformed one."""
    rules = _CONFIG_RULES[name]
    unknown = [k for k in config if k not in rules and (name, k) != ("energy", "neurons")]
    if unknown:
        raise click.UsageError(f"{name} config has unknown key {unknown[0]!r}")
    for key, rule in rules.items():
        _require(name, config, key, rule)
    if name == "energy":
        _require(name, config, "neurons",
                 _kinds(tuple(REFERENCE_ENERGY_TOTALS[config["dataset"]])))
    if name == "props" and _props_expectation(config["neuron"],
                                              config["property"]) is None:
        raise click.UsageError(f"no expected {config['property']} outcome for "
                               f"neuron {config['neuron']!r}")


@cli.command("rerun")
@click.argument("manifest", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", required=True,
              help="directory for the replayed outputs")
def cmd_rerun(manifest, out_dir):
    """Replay a manifest; outputs are byte-identical to the original run."""
    try:
        spec = json.loads(Path(manifest).read_text())
    except ValueError as exc:  # not UTF-8 or not JSON
        raise click.UsageError(f"manifest is not JSON: {exc}") from None
    if not isinstance(spec, dict) or not isinstance(spec.get("config"), dict):
        raise click.UsageError("manifest is not an object with a config object")
    name = spec.get("command")
    if name not in _CORES:
        raise click.UsageError(f"manifest names unknown command {name!r}")
    sys.exit(_run_command(name, spec["config"], Path(out_dir)))
