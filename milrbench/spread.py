"""Run one workload over several seeds and report each metric's spread.

    python3 milrbench/spread.py --workload serve_faults --seeds 1 2 3 4 5

Runs ``milrbench/run.py`` once per seed, one after another, and prints per
metric the median and the quartile distance as a share of the median (the
steadiness figure ``BENCHMARK.json`` bounds are judged against), next to
the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from milrbench.stats import quartile_spread  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or config["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        command = config["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stdout}{done.stderr}")
            return 1
        result = json.loads(lines[-1])
        row = {name: m["value"] for name, m in result["metrics"].items()}
        print(f"seed {seed}: " + " ".join(f"{k}={v:.5g}" for k, v in row.items()), flush=True)
        for name, value in row.items():
            values.setdefault(name, []).append(value)
    if len(args.seeds) < 2:
        return 0
    for name, series in values.items():
        median = statistics.median(series)
        spread = quartile_spread(series) if any(series) else 0.0
        bound = bounds.get(name)
        print(f"{name:40s} median {median:<12.5g} spread {spread:.4f} bound {bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
