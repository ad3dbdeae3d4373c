"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 spikebench/spread.py --workload long --seeds 0-9 --seconds 45

Runs ``run.py`` once per seed, one process at a time, and prints for every
end-to-end metric the median and the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"))
    p.add_argument("--seconds", type=int, default=45)
    args = p.parse_args()
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted="
              f"{result['attempted']} failed={result['failed']}", flush=True)
    print(f"{'metric':28s} {'median':>12s} {'iqr/median':>10s}  values")
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(f"{name:28s} {med:12.4f} {(q3 - q1) / med:10.3f}  "
              + " ".join(f"{v:.4g}" for v in values))


if __name__ == "__main__":
    main()
