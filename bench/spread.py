"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads md-wca md-free verify-core --seeds 10 \
        --out bench/baseline/spread.json

For every workload and end-to-end metric it prints the median and the
interquartile range as a share of the median (``statistics.quantiles`` with
n=4), next to the metric's bound from ``BENCHMARK.json``.  Runs are made one
at a time, each in a fresh interpreter through ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, help="write the spread summary here")
    args = parser.parse_args(argv)

    report = {}
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(workload, seed, args.seconds, 0)
            runs.append(result)
            print(workload, seed, json.dumps({k: round(v["value"], 5)
                                              for k, v in result["metrics"].items()}),
                  f"correct={result['correct']} failed={result['failed']}",
                  file=sys.stderr, flush=True)
        rows = {}
        for entry in spec["end_to_end"]:
            values = [r["metrics"][entry["name"]]["value"] for r in runs]
            rows[entry["name"]] = {"median": statistics.median(values),
                                   "spread": spread(values), "bound": entry["bound"],
                                   "values": values}
            print(f"{workload:12s} {entry['name']:24s} median {rows[entry['name']]['median']:.6g}"
                  f"  spread {rows[entry['name']]['spread']:.4f}  bound {entry['bound']}")
        report[workload] = {"seeds": list(range(args.first_seed, args.first_seed + args.seeds)),
                            "all_correct": all(r["correct"] for r in runs),
                            "failed": sum(r["failed"] for r in runs),
                            "attempted": sum(r["attempted"] for r in runs),
                            "metrics": rows}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
