"""spikescan benchmark: one workload in one process.

    python3 spikebench/run.py --workload wide|long --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The process builds its inputs from the
seed, runs the check round (every correctness check once, each a counted
operation), then times rounds of every phase until the time budget is
spent.  Set-up is timed in fresh interpreters (``--setup-probe``), started
one at a time and waited for.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``; with ``--trace 1`` the rounds run traced and the
per-layer metrics are printed instead.  See README.md for the metrics.
"""

import os
import sys
import time

_START = time.perf_counter()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: one BLAS thread

import argparse
import gc
import json
import resource
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# the numerics ops reported per layer; the forward function of an op is
# named after it except where mapped here
FORWARD_FN = {"pow": "power", "mean": "mean_all"}
NUMERIC_OPS = ("depthwise_causal_conv", "causal_conv", "sigmoid", "pow",
               "unit_interval_clamp", "clip_round", "spike_threshold",
               "time_slice", "stack_time", "channel_mix", "add_channel_bias",
               "mean")
RSS_GROUPS = ("setup", "train", "eval", "infer", "approx", "extrapolate", "check")


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up only; print the seconds it took and the "
                        "digest of the inputs")
    return p.parse_args()


def import_program():
    if not (SRC / "spikescan" / "__init__.py").is_file():
        sys.exit(f"spikebench: no spikescan sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import numpy  # noqa: F401
    import spikescan
    from spikescan import cli, props  # noqa: F401
    from spikescan.tasks import approx, extrapolate  # noqa: F401
    if Path(spikescan.__file__).resolve().parent != (SRC / "spikescan").resolve():
        sys.exit(f"spikebench: imported spikescan from {spikescan.__file__}")


def rss_mib() -> float:
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def copy_bandwidth_gbps(mib: int = 64, reps: int = 5) -> float:
    """Median numpy copy rate over a ``mib``-MiB float64 array, bytes copied / s."""
    import numpy as np

    src = np.ones(mib * 2**20 // 8)
    dst = np.empty_like(src)
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - start)
    return src.nbytes / statistics.median(times) / 1e9


def build_phases(w, inputs, seed):
    from phases import (ApproxPhase, CheckPhase, EvalPhase, ExtrapolatePhase,
                        InferStream, SetupPhase, TrainPhase)

    phases = {"setup": SetupPhase(w, seed)}
    for kind, length in (("dsn", w.length), ("sliding-psn", w.length),
                         ("lif", w.lif_length)):
        out_dir = OUT / "cli" / f"{w.name}-{kind}"
        out_dir.mkdir(parents=True, exist_ok=True)
        phases[f"train.{kind}"] = TrainPhase(kind, length, w, seed, out_dir)
    phases["eval.dsn"] = EvalPhase(w, inputs)
    for kind in ("dsn", "sliding-psn", "lif-hard"):
        phases[f"infer.{kind}"] = InferStream(kind, w, inputs)
    phases["approx"] = ApproxPhase(w, seed)
    phases["extrapolate"] = ExtrapolatePhase(w, seed)
    phases["check"] = CheckPhase(w, seed)
    return phases


# one timed round: the short eval/infer samples run after every second long
# sample, so each of them gets three samples per round spread through it.
# Set-up times drift with the host over seconds (successive probes correlate
# at 0.6), so its two probes per round sit half a round apart.
ROUND = ("train.dsn", "train.sliding-psn", "short", "setup", "train.lif",
         "approx", "short", "extrapolate", "check", "short", "setup")
SHORT = ("eval.dsn", "infer.dsn", "infer.sliding-psn", "infer.lif-hard")


def timed_rounds(phases, seconds, tracer):
    """Whole rounds of samples, while the next round fits the budget."""
    schedule = [n for step in ROUND for n in (SHORT if step == "short" else (step,))
                if n in phases]
    samples = {name: [] for name in phases}
    rss = {g: 0.0 for g in RSS_GROUPS}
    all_ok = True
    rounds = 0
    start = time.perf_counter()
    flt0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    while True:
        round_start = time.perf_counter()
        for name in schedule:
            phase = phases[name]
            if tracer is not None:
                tracer.collect()
                tracer.phase = name
                value, ok = tracer.wrap(phase.sample, "phase." + name)()
            else:
                gc.collect()
                value, ok = phase.sample()
            group = name.split(".")[0]
            rss[group] = max(rss[group], rss_mib())
            samples[name].append(value)
            if not ok:
                all_ok = False
                print(f"sample of {name} in round {rounds} differs from the "
                      "check round", file=sys.stderr)
        rounds += 1
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt0
    return samples, rss, rounds, all_ok, minflt, now - start


def layer_metrics(tracer, phases, rounds, rss, minflt, copy_gbps):
    """The per-layer metrics of a traced run, per timed round."""
    import numpy as np

    s = tracer.summarize()
    ids = {name: i for i, name in enumerate(tracer.names)}
    incl, count = s["incl_by_name"], s["count_by_name"]

    def total_ms(name):
        return incl[ids[name]] * 1e3 / rounds if name in ids else 0.0

    def calls(name):
        return int(count[ids[name]]) / rounds if name in ids else 0.0

    m = {}
    for op in NUMERIC_OPS:
        fwd = "numerics." + FORWARD_FN.get(op, op)
        m[f"numerics.{op}.fwd_ms"] = (total_ms(fwd), "ms")
        m[f"numerics.{op}.bwd_ms"] = (total_ms("bwd." + op), "ms")
        m[f"numerics.{op}.calls"] = (calls(fwd), "count")
        m[f"numerics.{op}.out_mb"] = (tracer.out_bytes.get(op, 0) / 2**20 / rounds, "MiB")
    root_sid = s["sid"][s["root"]]

    def under(*phase_names):
        return np.isin(root_sid, [ids.get("phase." + p, -1) for p in phase_names])

    bwd_mask = s["sid"] == ids.get("numerics.Tape.backward", -1)
    dsn_bwd_mask = bwd_mask & under("train.dsn")
    dsn_passes = max(1, int(np.count_nonzero(dsn_bwd_mask)))
    m["numerics.tape.nodes"] = (tracer.tape_nodes.get("train.dsn", 0) / dsn_passes, "count")
    m["numerics.tape.saved_mb"] = (tracer.tape_saved.get("train.dsn", 0) / 2**20 / dsn_passes, "MiB")
    dsn_bwd = float(np.sum(s["dur"][dsn_bwd_mask]))
    m["numerics.tape.backward_ms"] = (dsn_bwd * 1e3 / dsn_passes, "ms")

    m["scan.fwd_ms"] = (total_ms("scan.scan"), "ms")
    m["scan.bwd_ms"] = (total_ms("bwd.scan"), "ms")
    m["scan.calls"] = (calls("scan.scan"), "count")
    m["scan.linear_scan_ms"] = (total_ms("scan.linear_scan"), "ms")
    m["scan.linear_scan.calls"] = (calls("scan.linear_scan"), "count")

    m["neurons.dsn_forward_parallel_ms"] = (total_ms("neurons.dsn_forward_parallel"), "ms")
    m["neurons.psn_forward_ms"] = (total_ms("neurons.psn_forward"), "ms")
    m["neurons.lif_step.calls"] = (calls("neurons.lif_step"), "count")
    m["neurons.lif_step_ms"] = (total_ms("neurons.lif_step"), "ms")
    for kind in ("dsn", "sliding-psn", "lif-hard"):
        mask = (s["sid"] == ids.get("neurons.step." + kind, -1)) & under("infer." + kind)
        n = int(np.count_nonzero(mask))
        m[f"neurons.step_us.{kind}"] = (float(np.sum(s["dur"][mask])) / max(n, 1) * 1e6, "us")
    m["neurons.trace_ms"] = (sum(total_ms(n) for n in ids if n.startswith("neurons.trace.")), "ms")

    in_tasks = under("approx", "extrapolate")
    m["tasks.fwd_ms"] = (total_ms("tasks.approx.ApproxModel.forward")
                         + total_ms("tasks.extrapolate.SequenceModel.forward"), "ms")
    m["tasks.bwd_ms"] = (float(np.sum(s["dur"][bwd_mask & in_tasks])) * 1e3 / rounds, "ms")
    m["tasks.adam_ms"] = (total_ms("tasks.training.Adam.step"), "ms")
    m["tasks.steps"] = (calls("tasks.training.Adam.step"), "count")
    m["tasks.eval_serial_ms"] = (total_ms("tasks.extrapolate.SequenceModel.eval_serial"), "ms")
    data_ids = [i for n, i in ids.items()
                if n.startswith("tasks.datasets.") or n == "tasks.approx.target_traces"]
    data_mask = np.isin(s["sid"], data_ids) & in_tasks
    m["tasks.data_ms"] = (float(np.sum(s["dur"][data_mask])) * 1e3 / rounds, "ms")

    m["props.short_control_ms"] = (total_ms("props.check_short_control"), "ms")
    m["props.long_control_ms"] = (total_ms("props.check_long_control"), "ms")
    m["props.conditions_ms"] = (total_ms("props.check_conditions_table"), "ms")
    m["props.lanes"] = (phases["check"].lanes, "count")

    m["runtime.gc_ms"] = (tracer.gc_s * 1e3 / rounds, "ms")
    m["runtime.gc_collections"] = (tracer.gc_collections / rounds, "count")
    m["runtime.minflt"] = (minflt / rounds, "count")
    for group in RSS_GROUPS:
        m[f"runtime.rss_mb.{group}"] = (rss[group], "MiB")
    m["runtime.copy_gbps"] = (copy_gbps, "GB/s")
    return {k: {"value": float(v[0]), "unit": v[1]} for k, v in m.items()}, s


def phase_accounts(tracer, s, phases):
    """Per phase: traced wall time and the sum of self times under it."""
    import numpy as np

    names = np.asarray(tracer.names)
    out = {}
    for name in phases:
        pid = tracer.names.index("phase." + name)
        roots = np.flatnonzero(s["sid"] == pid)
        under = np.isin(s["root"], roots)
        self_by = np.bincount(s["sid"][under], weights=s["self"][under],
                              minlength=len(names))
        top = np.argsort(self_by)[::-1][:8]
        out[name] = {
            "wall_ms": float(np.sum(s["dur"][roots])) * 1e3,
            "self_sum_ms": float(np.sum(s["self"][under])) * 1e3,
            "spans": int(np.count_nonzero(under)),
            "top_self_ms": {str(names[i]): float(self_by[i]) * 1e3
                            for i in top if self_by[i] > 0},
        }
    return out


def main():
    args = parse_args()
    import_program()

    from workloads import WORKLOADS, build_inputs, inputs_digest

    if args.workload not in WORKLOADS:
        sys.exit(f"spikebench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    inputs = build_inputs(w, args.seed)
    if args.setup_probe:
        print(time.perf_counter() - _START, inputs_digest(inputs))
        return
    setup_rss = rss_mib()

    from checks import check_round, excused
    from spans import Tracer, wrapper_cost_us

    phases = build_phases(w, inputs, args.seed)
    ledger = check_round(inputs, phases)
    failed = [op for op in ledger.ops if not op["ok"]]
    # a phase whose check round failed has no reference to compare its
    # samples with: it is left out of the timed rounds and of the metrics
    ready = {name: p for name, p in phases.items()
             if p.reference is not None and getattr(p, "passes", 1) is not None}
    for name in phases.keys() - ready.keys():
        print(f"spikebench: phase {name} has no reference; not timed",
              file=sys.stderr)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    samples, rss, rounds, samples_ok, minflt, measured_s = timed_rounds(
        ready, args.seconds, tracer)
    rss["setup"] = setup_rss
    if tracer is not None:
        tracer.uninstall()

    result = {"workload": w.name, "seed": args.seed, "trace": args.trace,
              "rounds": rounds, "measured_s": measured_s, "samples": samples,
              "ops": ledger.ops}
    if tracer is None:
        metrics = {}
        for name, phase in ready.items():
            unit = "s" if phase.metric.endswith("_s") else "Mstep/s"
            metrics[phase.metric] = {"value": statistics.median(samples[name]),
                                     "unit": unit}
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["peak_rss_mb"] = {"value": peak, "unit": "MiB"}
    else:
        metrics, summary = layer_metrics(tracer, phases, rounds, rss, minflt,
                                         copy_bandwidth_gbps())
        cost_us = wrapper_cost_us()
        result["phases"] = phase_accounts(tracer, summary, ready)
        result["spans"] = len(tracer.sid)
        result["span_cost_us"] = cost_us
        result["trace_overhead_ms_est"] = len(tracer.sid) * cost_us / 1e3
        trace_dir = OUT / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.save(trace_dir / f"{w.name}-seed{args.seed}.npz")
    result["metrics"] = metrics
    result["unscaled_samples"] = {name: phase.raw for name, phase in ready.items()
                                  if hasattr(phase, "raw")}

    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, default=str) + "\n")

    correct = (samples_ok and len(ready) == len(phases)
               and all(op["ok"] or excused(op) for op in ledger.ops))
    print(json.dumps({"correct": correct, "attempted": len(ledger.ops),
                      "failed": len(failed), "metrics": metrics}))


if __name__ == "__main__":
    main()
