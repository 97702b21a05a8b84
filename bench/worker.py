"""One benchmark run in a fresh interpreter: set up, signal, measure, report.

Started by ``run.py``.  The worker imports ``treverse`` from ``src/`` of the
checkout, builds the workload's configs and inputs, prints ``READY`` (the
parent times set-up up to that line), then runs rounds of the workload
until ``--seconds`` would be exceeded, and prints one JSON result line.

A round is one time-to-verdict unit of a workload and is made of one or
more operations.  A run makes at least two rounds.  Every round of a run
uses the same inputs, so the output digest and the work counts of each
round must repeat exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

from tracer import Probe, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# md-wca: criterion-7 quick shapes (N=16 WCA fluid, R=40 constant-z and R=24
# axial, 9 component pairs, stride 13, 2500 equilibration steps) with the
# production window cut from 20000 to 780 steps so that two rounds fit in
# one run.  At 61 samples per trajectory velocity_correlator runs each
# field as a single chunk (R=40 and R=24) where the criterion uses 27+13
# and 24; the traced run records the R of every step and forces call.
WCA_PRODUCTION_STEPS = 780
WCA_MAX_LAG = 0.78
WCA_STRIDE = 13
# relative energy drift over production beyond which an md-wca operation
# fails; velocity Verlet at dt=0.002 stays orders of magnitude below it
WCA_DRIFT_BOUND = 1e-2

VERIFY_CORE = ("check_counting", "check_structural", "check_compat_equivalence",
               "check_spin_lift", "check_kubo", "check_conjugacy",
               "check_angular_momentum")
SEEDLESS = {"check_counting"}


# ---------------------------------------------------------------------------
# work counters, called with (stats, args, kwargs, result)

def _shape_rn(array):
    return int(array.shape[0]), int(array.shape[1])


def count_forces(stats, args, kwargs, result):
    r, n = _shape_rn(args[0])
    stats.counts["pair_evals"] += r * n * (n - 1) // 2
    stats.counts["io_bytes_computed"] += 2 * args[0].nbytes
    stats.r_hist[r] += 1


def count_step(stats, args, kwargs, result):
    r, n = _shape_rn(args[0].pos)
    stats.counts["particle_steps"] += r * n
    stats.r_hist[r] += 1


def count_vectors(stats, args, kwargs, result):
    stats.counts["vectors"] += args[0].size // 3


def count_field_points(stats, args, kwargs, result):
    points = args[1] if len(args) > 1 else kwargs["x"]
    stats.counts["points"] += points.size // 3


def count_fft(stats, args, kwargs, result):
    a = args[0]
    stats.counts["points"] += a.size
    stats.counts["series"] += a.size // a.shape[-1]
    stats.counts["io_bytes_computed"] += a.nbytes + args[1].nbytes


def count_chunk(stats, args, kwargs, result):
    r = len(args[1])
    stats.counts["trajectories"] += r
    stats.r_hist[r] += 1


def count_correlator(stats, args, kwargs, result):
    cfg = args[0]
    stats.counts["particle_steps"] += (cfg.n_trajectories * cfg.n
                                       * (cfg.equilibration + cfg.steps))
    if result is not None:
        stats.notes.append({"energy_drift": result.energy_drift})


PROBES = (
    Probe("md.velocity_correlator", ("md.velocity_correlator",), count_correlator),
    Probe("md._chunk_correlators", ("md._chunk_correlators",), count_chunk),
    Probe("md.init_state", ("md.init_state",)),
    Probe("md.equilibrate", ("md.equilibrate",)),
    Probe("md.step", ("md.step",), count_step),
    Probe("md.forces", ("md.forces",), count_forces),
    Probe("md._boris_rotate", ("md._boris_rotate",), count_vectors),
    Probe("md._fft_correlate", ("md._fft_correlate",), count_fft),
    Probe("md.jackknife_se", ("md.jackknife_se",)),
    Probe("fields.eval_field", ("md.eval_field", "fields.eval_field", "spin.eval_field"),
          count_field_points),
    Probe("fields.field_scale", ("md.field_scale", "fields.field_scale")),
    Probe("fields.check_A_compat", ("fields.check_A_compat",)),
    Probe("fields.check_B_compat", ("fields.check_B_compat",)),
    Probe("spin.spin_coupling_residual", ("spin.spin_coupling_residual",)),
    Probe("kubo.canonical_correlator", ("kubo.canonical_correlator",)),
    Probe("phasespace.reverses_angular_momentum",
          ("verify.reverses_angular_momentum", "phasespace.reverses_angular_momentum")),
    Probe("verify._expm", ("verify._expm",)),
    Probe("verify._kubo_quadrature", ("verify._kubo_quadrature",)),
    Probe("verify.check_md_oracle", ("verify.check_md_oracle",)),
) + tuple(Probe(f"verify.{name}", (f"verify.{name}",)) for name in VERIFY_CORE)


# ---------------------------------------------------------------------------
# workloads

def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else
                 json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def _finite(*values) -> bool:
    import numpy as np
    return all(bool(np.all(np.isfinite(v))) for v in values)


class MdWca:
    """N=16 WCA fluid in the constant-z and axial fields (criterion 7 shapes)."""

    md_probe = "md.velocity_correlator"

    def setup(self, seed):
        from treverse import md, verify
        configs = []
        for offset, (name, field) in enumerate(verify.md_fields().items()):
            cfg = verify.diffusion_run_config(field, seed + 59 * offset, "quick")
            configs.append((name, replace(cfg, steps=WCA_PRODUCTION_STEPS)))
        self.configs = configs
        self.pairs = md.component_pairs()

    def round(self):
        from treverse import md
        ops = []
        for name, cfg in self.configs:
            corr = md.velocity_correlator(cfg, self.pairs, WCA_MAX_LAG, stride=WCA_STRIDE)
            tensor = md.diffusion_tensor(corr, float(corr.lags[-1]))
            verdict = md.antisymmetry_check(tensor)
            finite = _finite(corr.per_traj, tensor.d, tensor.se, verdict.value, verdict.se)
            drift = float(corr.energy_drift)
            ops.append({
                "name": name,
                "ok": finite and drift <= WCA_DRIFT_BOUND,
                "digest": _digest(corr.per_traj.tobytes(), tensor.d.tobytes(),
                                  tensor.se.tobytes(),
                                  [verdict.value, verdict.se, verdict.ratio]),
                "facts": {"energy_drift": drift, "antisymmetry_sum": verdict.value,
                          "antisymmetry_se": verdict.se, "antisymmetry_ratio": verdict.ratio,
                          "converged": bool(tensor.converged),
                          "trajectories": cfg.n_trajectories, "lags": int(corr.lags.size)},
            })
        return ops, None


class MdFree:
    """Criterion 6 at quick scale: N=1 free orbits against the cyclotron oracle."""

    md_probe = "md.velocity_correlator"

    def setup(self, seed):
        self.seed = seed

    def round(self):
        from treverse import verify
        record = verify.check_md_oracle(self.seed, "quick")
        sigmas = [record["sigma_xx"], record["sigma_xy"]]
        return [{
            "name": record["criterion"],
            "ok": bool(record["passed"]) and _finite(sigmas),
            "digest": _digest(record),
            "facts": {"sigma_xx": record["sigma_xx"], "sigma_xy": record["sigma_xy"],
                      "trajectories": record["trajectories"], "lags": record["lags"]},
        }], None


class VerifyCore:
    """The seven non-statistical criterion runners (1-5, 8, 9)."""

    md_probe = "md.step"

    def setup(self, seed):
        self.seed = seed

    def round(self):
        from treverse import verify
        ops = []
        md_seconds = None
        for name in VERIFY_CORE:
            runner = getattr(verify, name)
            t0 = perf_counter()
            record = runner() if name in SEEDLESS else runner(self.seed)
            if name == "check_conjugacy":
                md_seconds = perf_counter() - t0
            ops.append({"name": record["criterion"], "ok": bool(record["passed"]),
                        "digest": _digest(record), "facts": {"passed": bool(record["passed"])}})
        return ops, md_seconds


WORKLOADS = {"md-wca": MdWca, "md-free": MdFree, "verify-core": VerifyCore}


# ---------------------------------------------------------------------------
# measurement

def numpy_probe() -> float:
    """A short fixed numpy workload; its time tracks the machine's speed."""
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((96, 96))
    x = rng.standard_normal((32, 2048))
    t0 = perf_counter()
    for _ in range(40):
        a = a @ a
        a /= np.abs(a).max()
        np.fft.irfft(np.fft.rfft(x, axis=-1), axis=-1)
        np.einsum("ij,ij->i", x, x)
    return perf_counter() - t0


def context() -> dict:
    import numpy as np
    blas = {}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: info.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        pass
    env_keys = ("TREVERSE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_env": {k: os.environ.get(k) for k in env_keys},
    }


def layer_metrics(snap: dict) -> dict:
    """Flatten one round's span stats to ``name.field`` metrics with units."""
    out = {"trace.spans": (sum(s["calls"] for s in snap.values()), "count")}
    for name, s in snap.items():
        out[f"{name}.calls"] = (s["calls"], "count")
        out[f"{name}.total_s"] = (s["total_s"], "s")
        out[f"{name}.self_s"] = (s["self_s"], "s")
        for key, value in s["counts"].items():
            out[f"{name}.{key}"] = (value, "B" if key.endswith("bytes_computed") else "count")
    return out


def work_counts(snap: dict) -> dict:
    return {name: {"calls": s["calls"], "counts": s["counts"], "r_hist": s["r_hist"]}
            for name, s in snap.items()}


def measure(workload, seconds: float, trace: bool) -> dict:
    untraced = Tracer([p for p in PROBES if p.name == workload.md_probe])
    traced = Tracer(PROBES)
    rounds = []
    layer_rounds = []
    t_start = perf_counter()
    while True:
        use_trace = trace and len(rounds) % 2 == 1
        tracer = traced if use_trace else untraced
        tracer.reset()
        with tracer:
            t0 = perf_counter()
            ops, md_seconds = workload.round()
            wall = perf_counter() - t0
        snap = tracer.snapshot()
        probe = snap[workload.md_probe]
        md_steps = probe["counts"].get("particle_steps", 0)
        if md_seconds is None:
            md_seconds = probe["total_s"]
        rounds.append({"wall_s": wall, "traced": use_trace, "ops": ops,
                       "md_counts": work_counts({workload.md_probe: probe}),
                       "md_particle_steps": md_steps, "md_seconds": md_seconds,
                       "absent": list(tracer.absent), "notes": probe["notes"]})
        if use_trace:
            layer_rounds.append(snap)
        if len(rounds) < 2:
            continue
        # the slowest round so far bounds the next one, so a run rarely
        # overshoots --seconds and the driver's time budget holds
        if perf_counter() - t_start + max(r["wall_s"] for r in rounds) > min(seconds, 150.0):
            break
    return {"rounds": rounds, "layer_rounds": layer_rounds}


def summarize(result: dict) -> dict:
    rounds = result["rounds"]
    plain = [r for r in rounds if not r["traced"]]
    ops = [op for r in rounds for op in r["ops"]]
    failed = sum(not op["ok"] for op in ops)
    digests = ["".join(op["digest"] for op in r["ops"]) for r in rounds]
    deterministic = len(set(digests)) == 1
    md_seconds = sum(r["md_seconds"] for r in plain)
    # the MD probe is wrapped in every round, traced or not; a traced run
    # also compares the full work counts of its traced rounds
    counts = [work_counts(s) for s in result["layer_rounds"]]
    counts_repeat = (all(r["md_counts"] == rounds[0]["md_counts"] for r in rounds)
                     and all(c == counts[0] for c in counts))
    summary = {
        "attempted": len(ops),
        "failed": failed,
        "deterministic": deterministic,
        "counts_repeat": counts_repeat,
        "rounds": len(rounds),
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "round_wall_s": [r["wall_s"] for r in rounds],
        "round_md_seconds": [r["md_seconds"] for r in rounds],
        "md_particle_steps": plain[0]["md_particle_steps"],
        # a ratio of sums: criterion 8 in verify-core is only about 1 s per round
        "md_particle_steps_per_s": (sum(r["md_particle_steps"] for r in plain) / md_seconds
                                    if md_seconds else 0.0),
        "ok_ops_frac": (len(ops) - failed) / len(ops),
        "digest": _digest([op["digest"] for op in rounds[0]["ops"]]),
        "facts": {op["name"]: op["facts"] for op in rounds[0]["ops"]},
        "correlator_energy_drift": [n["energy_drift"] for n in rounds[0]["notes"]],
        "absent": sorted({site for r in rounds for site in r["absent"]}),
    }
    if result["layer_rounds"]:
        per_round = {}
        for snap in result["layer_rounds"]:
            for key, (value, unit) in layer_metrics(snap).items():
                per_round.setdefault(key, ([], unit))[0].append(value)
        layers = {key: (values[0] if len(set(values)) == 1 else statistics.fmean(values), unit)
                  for key, (values, unit) in per_round.items()}
        traced_wall = statistics.median(r["wall_s"] for r in rounds if r["traced"])
        layers["trace.wall_s"] = (traced_wall, "s")
        layers["trace.untraced_wall_s"] = (summary["wall_s"], "s")
        layers["trace.overhead_s"] = (traced_wall - summary["wall_s"], "s")
        summary["layers"] = layers
        summary["work_counts"] = counts[0]
    return summary


def import_treverse():
    sys.path.insert(0, str(SRC))
    import treverse
    if Path(treverse.__file__).resolve().parent != SRC / "treverse":
        raise ImportError("treverse was not imported from this checkout's src/")
    return treverse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if args.trace and int(os.environ.get("TREVERSE_THREADS", "1") or "1") > 1:
        # the tracer keeps one span stack, so spans on worker threads would
        # charge each other's time as child time
        parser.error("--trace 1 needs TREVERSE_THREADS unset or 1")
    import_treverse()
    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    ctx = context()
    ctx["numpy_probe_s"] = numpy_probe()
    summary = summarize(measure(workload, args.seconds, bool(args.trace)))
    summary["context"] = ctx
    summary["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if not all(math.isfinite(v) for v in (summary["wall_s"], summary["md_particle_steps_per_s"])):
        raise ValueError("non-finite timing")
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
