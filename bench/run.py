"""treverse benchmark: one run of one workload, reported as one JSON line.

    python3 bench/run.py --workload md-wca --seed 42 --seconds 40 --trace 0

Run from the root of a checkout.  Each run starts fresh interpreters: one
worker measures the workload for ``--seconds`` (see ``worker.py``), and
set-up-only workers, half before and half after it, time interpreter start,
``import treverse`` and input construction (``setup_s``).  With ``--trace 0`` the last stdout line
carries the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it
carries the per-layer metrics from a run whose rounds alternate untraced
and traced.  ``--out PATH`` also writes the full record: run context, work
counts, output digests, physics facts and every layer's span stats.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
# set-up-only workers on each side of the measuring one: spreading them over
# the run lets the median average out the machine's drift in speed
SETUP_PROBES_EACH_SIDE = 6
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _spawn(args: list, deadline: float):
    """Start a worker; return (set-up seconds, remaining stdout, exit code)."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(0.0, deadline - perf_counter()), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup = perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY" or code != 0:
        raise BenchError(f"worker {' '.join(args)} failed with exit code {code}")
    return setup, rest, code


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    base = ["git", "--no-optional-locks", "-C", str(ROOT)]
    sha = subprocess.run(base + ["rev-parse", "HEAD"], capture_output=True,
                         text=True, timeout=30).stdout.strip()
    status = subprocess.run(base + ["status", "--porcelain"], capture_output=True,
                            text=True, timeout=30).stdout
    return {"sha": sha or None, "dirty": bool(status.strip())}


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "treverse" / "__init__.py").is_file():
        raise BenchError("src/treverse is missing: run from the root of a treverse checkout")
    deadline = perf_counter() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed)]
    def probe_setups():
        return [_spawn(common + ["--setup-only"], deadline)[0]
                for _ in range(SETUP_PROBES_EACH_SIDE)]

    setups = probe_setups()
    setup, out, _ = _spawn(common + ["--seconds", str(seconds), "--trace", str(trace)],
                           deadline)
    setups += [setup] + probe_setups()
    summary = json.loads(out.strip().splitlines()[-1])

    values = {
        "wall_s": (summary["wall_s"], "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (summary["maxrss_kb"] / 1024.0, "MB"),
        "md_particle_steps_per_s": (summary["md_particle_steps_per_s"], "1/s"),
        "ok_ops_frac": (summary["ok_ops_frac"], "ratio"),
    }
    if trace:
        values.update({k: tuple(v) for k, v in summary.pop("layers").items()})
        values["machine.numpy_probe_s"] = (summary["context"]["numpy_probe_s"], "s")
    section = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in section:
        value, _ = values.get(entry["name"], (0.0, entry["unit"]))
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}

    correct = (summary["failed"] == 0 and summary["deterministic"]
               and summary["counts_repeat"] and summary["md_particle_steps"] > 0)
    summary["context"].update(git_state())
    summary["context"]["nproc"] = os.cpu_count()
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "setup_samples_s": setups, "summary": summary,
              "all_metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()}}
    result = {"correct": correct, "attempted": summary["attempted"],
              "failed": summary["failed"], "metrics": metrics}
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("md-wca", "md-free", "verify-core"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the full run record here")
    args = parser.parse_args(argv)
    try:
        result, record = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
