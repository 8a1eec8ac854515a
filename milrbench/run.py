"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 milrbench/run.py --workload serve_steady --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (spans go to ``.milrbench/``).  Human
readable lines come first; the last line is the JSON result.  The exit code
is 1 when the program's outputs were wrong and 2 when the checkout has no
``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("serve_steady", "serve_faults", "campaign")


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"milrbench: no src/repro under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from milrbench import metrics, offline, serve

    out_dir = ROOT / ".milrbench"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    # Nothing trained in one run may leak into the next through the
    # repository's default weight cache.
    os.environ["MILR_CACHE_DIR"] = str(workdir / "models")
    try:
        if args.workload == "campaign":
            outcome = offline.run_campaign(args.seed, args.seconds, bool(args.trace), workdir)
        elif args.workload == "serve_steady":
            outcome = serve.run_steady(args.seed, args.seconds, bool(args.trace))
        else:
            outcome = serve.run_faults(args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if outcome.recorder is not None:
        count = outcome.recorder.write_jsonl(out_dir / f"trace-{args.workload}.jsonl")
        print(f"{args.workload} wrote {count} spans to .milrbench/trace-{args.workload}.jsonl")
    for line in metrics.report_lines(args.workload, outcome, bool(args.trace)):
        print(line)
    print(json.dumps(metrics.result_line(outcome, bool(args.trace))))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
