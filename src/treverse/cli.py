"""Command-line entry point.

Exit codes: 0 success, 2 verification failure (some verdict false),
1 usage or input error.  Outputs carry no timestamps, so identical
arguments and seed produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import enumeration as en
from . import fields as fl
from . import kubo as kb
from . import md
from . import spin as sp
from . import verify as vf
from .phasespace import TimeReversalOp

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _native(obj):
    if isinstance(obj, dict):
        return {str(k): _native(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_native(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _native(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _emit(payload, fmt: str, out: Path | None, name: str):
    if fmt == "json":
        text = json.dumps(_native(payload), indent=2, sort_keys=True) + "\n"
    else:
        text = _to_csv(payload)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{name}.{fmt}").write_text(text)
    sys.stdout.write(text)


def _to_csv(payload) -> str:
    lines = [",".join(payload["columns"])]
    lines += [",".join(_csv_cell(v) for v in row) for row in payload["rows"]]
    return "\n".join(lines) + "\n"


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def parse_op(text: str) -> TimeReversalOp:
    """diag:1,-1,1 | perm:swapxy[:s_pair,s_fixed] | theta:0.7853"""
    head, _, payload = text.partition(":")
    head = head.strip().lower()
    if head == "diag":
        values = [float(v) for v in payload.split(",")]
        if len(values) != 3 or any(abs(v) != 1.0 for v in values):
            raise ValueError("diag op needs three entries of +-1")
        return TimeReversalOp(np.diag(values), label=text)
    if head == "perm":
        name, _, signs_text = payload.partition(":")
        pairs = {"swapxy": (0, 1, 2), "swapyz": (1, 2, 0), "swapxz": (0, 2, 1)}
        if name not in pairs:
            raise ValueError(f"unknown permutation {name!r}")
        i, j, k = pairs[name]
        s_pair, s_fixed = 1.0, 1.0
        if signs_text:
            s_pair, s_fixed = (float(v) for v in signs_text.split(","))
        a = np.zeros((3, 3))
        a[i, j] = a[j, i] = s_pair
        a[k, k] = s_fixed
        return TimeReversalOp(a, label=text)
    if head == "theta":
        return fl.continuous_family(float(payload))
    raise ValueError(f"unknown operation syntax {text!r}")


def _read_entries(text: str, allowed) -> list[tuple[str, str]]:
    """The `key = value` lines of an input file, in order.

    '#' starts a comment and blank lines are skipped; keys are lowercased
    and must be in `allowed`.  Repeated keys are all kept.
    """
    entries = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in allowed:
            raise ValueError(f"unknown key {key!r}; expected one of {sorted(allowed)}")
        entries.append((key, value.strip()))
    return entries


def parse_sim_config(text: str) -> md.SimConfig:
    """Key-value simulation file mirroring the SimConfig fields.

    Recognized keys: n, dt, steps, temperature, mass, charge, box_half,
    wca_epsilon (or 'none'), wca_sigma, seed, n_trajectories, equilibration,
    thermostat_interval, field (inline field syntax).
    """
    ints = {"n", "steps", "seed", "n_trajectories", "equilibration",
            "thermostat_interval"}
    floats = {"dt", "temperature", "mass", "charge", "box_half", "wca_sigma"}
    kwargs = {}
    for key, value in _read_entries(text, ints | floats | {"field", "wca_epsilon"}):
        if key == "field":
            kwargs[key] = fl.parse_field(value)
        elif key == "wca_epsilon":
            kwargs[key] = None if value.lower() == "none" else float(value)
        elif key in ints:
            kwargs[key] = int(value)
        else:
            kwargs[key] = float(value)
    missing = {"n", "field", "dt", "steps"} - kwargs.keys()
    if missing:
        raise ValueError(f"config misses required keys: {sorted(missing)}")
    return md.SimConfig(**kwargs)


def parse_field_file(text: str) -> fl.FieldSpec:
    """Key-value field file: 'family = ...', optional 'box = ...' and the
    family's entries ('b = bx by bz', 'coeffs = c0 c1 ...' or repeated
    'term = j k c').
    """
    entries: dict[str, list[str]] = {}
    for key, value in _read_entries(text, {"family", "box", "b", "coeffs", "term"}):
        entries.setdefault(key, []).append(value)
    if "family" not in entries:
        raise ValueError("field file needs a 'family' entry")
    family = entries["family"][0].lower()
    box = float(entries["box"][0]) if "box" in entries else fl.DEFAULT_BOX
    data_key = {fl.FAMILY_CONSTANT: "b", fl.FAMILY_AXIAL: "coeffs",
                fl.FAMILY_PLANAR: "term"}.get(family)
    if data_key is None:
        raise ValueError(f"unknown field family {family!r}")
    if data_key not in entries:
        raise ValueError(f"{family} field file needs a {data_key!r} entry")
    # translate to the inline syntax; only planar fields take repeated terms
    values = [",".join(v.split()) for v in entries[data_key]]
    payload = ";".join(values) if family == fl.FAMILY_PLANAR else values[0]
    return replace(fl.parse_field(f"{family}:{payload}"), box=box)


def parse_system_file(text: str) -> kb.SpinSystem:
    """Key-value system file: 'site = bx by bz [q]' lines and 'exchange = j k J'."""
    fields_rows = []
    couplings = []
    exchange = {}
    for key, value in _read_entries(text, {"site", "exchange", "n"}):
        parts = value.split()
        if key == "site":
            if len(parts) not in (3, 4):
                raise ValueError("site lines need 'bx by bz' and optional q")
            fields_rows.append([float(v) for v in parts[:3]])
            couplings.append(float(parts[3]) if len(parts) == 4 else 1.0)
        elif key == "exchange":
            if len(parts) != 3:
                raise ValueError("exchange lines need 'j k J'")
            j, k, coupling = int(parts[0]), int(parts[1]), float(parts[2])
            exchange[(min(j, k), max(j, k))] = coupling
        # 'n' is accepted and ignored: the site count is implied by the site lines
    if not fields_rows:
        raise ValueError("system file has no site entries")
    return kb.SpinSystem(np.asarray(fields_rows), np.asarray(couplings), exchange)


def _load_field(args) -> fl.FieldSpec:
    if args.field is None:
        raise ValueError("--field is required")
    if Path(args.field).is_file():
        return parse_field_file(Path(args.field).read_text())
    return fl.parse_field(args.field)


def _matrix_rows(op: TimeReversalOp) -> list:
    return _native(op.matrix())


def cmd_count(args) -> int:
    if args.family == "antisymmetric":
        value = en.count_antisymmetric(args.dim)
    else:
        value = en.count_binary(args.dim)
    sys.stdout.write(f"{value}\n")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    report = en.enumeration_report(args.dim, args.family)
    if args.format == "csv":
        rows = []
        for op in report.ops:
            c = en.class_of(op)
            rows.append([op.label, c.r1, c.r2]
                        + [int(v) for v in op.A.flatten()])
        payload = {"columns": ["op", "r1", "r2"]
                   + [f"a{i}{j}" for i in range(args.dim) for j in range(args.dim)],
                   "rows": rows}
    else:
        payload = {
            "dim": args.dim, "family": args.family,
            "total": report.total, "formula_total": report.formula_total,
            "match": report.match,
            "class_counts": [{"r1": k[0], "r2": k[1], "count": v}
                             for k, v in report.class_counts],
            "ops": [{"label": op.label, "matrix": _matrix_rows(op)} for op in report.ops],
        }
    _emit(payload, args.format, args.out, f"enumerate-{args.family}-{args.dim}")
    return EXIT_OK if report.match else EXIT_VERIFICATION


def cmd_classes(args) -> int:
    rows = []
    for c, tableau, size in en.classes_for(args.dim):
        rows.append({"r1": c.r1, "r2": c.r2, "rows": list(tableau.rows),
                     "size": size, "signed_count": size * 2 ** (c.r1 + c.r2)})
    total = sum(r["signed_count"] for r in rows)
    payload = {"dim": args.dim, "classes": rows, "signed_total": total,
               "formula_total": en.count_binary(args.dim)}
    _emit(payload, "json", args.out, f"classes-{args.dim}")
    return EXIT_OK if total == en.count_binary(args.dim) else EXIT_VERIFICATION


def cmd_check_field(args) -> int:
    op = parse_op(args.op)
    spec = _load_field(args)
    rb = fl.check_B_compat(op, spec, tol=args.tol, seed=args.seed)
    ra = fl.check_A_compat(op, spec, seed=args.seed)
    payload = [rb.as_dict(), ra.as_dict()]
    _emit(payload, "json", args.out, "check-field")
    return EXIT_OK if rb.verdict and ra.verdict else EXIT_VERIFICATION


def cmd_find_symmetries(args) -> int:
    spec = _load_field(args)
    result = fl.find_compatible(spec, seed=args.seed)
    payload = {
        "field": spec.label,
        "compatible": [{"label": op.label, "matrix": _matrix_rows(op)}
                       for op in result.ops],
        "count": len(result.ops),
        "continuous_family_applies": result.continuous_family_applies,
    }
    _emit(payload, "json", args.out, "find-symmetries")
    return EXIT_OK


def cmd_spin_ops(args) -> int:
    payload = []
    for entry in sp.catalog_spin_ops():
        payload.append({
            "label": entry.label,
            "matrix_re": _native(entry.matrix.real),
            "matrix_im": _native(entry.matrix.imag),
            "valid": entry.valid,
            "preserves_su2": entry.verdict.preserves_su2,
            "t_squared": entry.verdict.t_squared,
        })
    _emit(payload, "json", args.out, "spin-ops")
    return EXIT_OK


def cmd_spin_lift(args) -> int:
    op = parse_op(args.op)
    us = sp.spin_lift(op)
    payload = {
        "op": op.label,
        "u_s_re": _native(us.real),
        "u_s_im": _native(us.imag),
        "t_squared": sp.t_squared_sign(us),
    }
    code = EXIT_OK
    if args.field is not None:
        spec = _load_field(args)
        resid = sp.spin_coupling_residual(op, us, spec, seed=args.seed)
        payload["field"] = spec.label
        payload["coupling_residual"] = resid
        payload["coupling_ok"] = resid <= args.tol
        code = EXIT_OK if resid <= args.tol else EXIT_VERIFICATION
    _emit(payload, "json", args.out, "spin-lift")
    return code


def _parse_times(text: str) -> np.ndarray:
    if ":" in text:
        t0, t1, n = text.split(":")
        return np.linspace(float(t0), float(t1), int(n))
    return np.array([float(v) for v in text.split(",")])


def _parse_observable(text: str, n: int) -> kb.Observable:
    kind, axis, site = text.split(":")
    if kind != "sigma":
        raise ValueError(f"unknown observable syntax {text!r}")
    return kb.Observable(kb.site_operator(sp.pauli(axis), int(site), n))


def cmd_kubo(args) -> int:
    system = parse_system_file(Path(args.system).read_text())
    phi = _parse_observable(args.phi, system.n)
    psi = _parse_observable(args.psi, system.n)
    times = _parse_times(args.times)
    if args.tr is not None:
        ops = tuple(sp.pauli(a) for a in args.tr.split(","))
        report = kb.verify_kubo_symmetry(system, kb.SpinTimeReversal(ops),
                                         phi, psi, times, beta=args.beta,
                                         tol=args.tol)
        payload = {
            "beta": args.beta, "eta_phi": report.eta_phi,
            "eta_psi": report.eta_psi,
            "max_deviation": report.max_deviation,
            "max_imag_residual": report.max_imag_residual,
            "passed": report.passed,
        }
        _emit(payload, "json", args.out, "kubo-symmetry")
        return EXIT_OK if report.passed else EXIT_VERIFICATION
    rows = []
    for t in times:
        value = kb.canonical_correlator(system, args.beta, phi, psi, float(t))
        rows.append([float(t), value.value, value.imag_residual])
    payload = {"columns": ["t", "value", "imag_residual"], "rows": rows}
    _emit(payload, "csv", args.out, "kubo")
    return EXIT_OK


def _correlator_payload(corr: md.CorrelatorEstimate) -> dict:
    mean, se = corr.mean(), corr.se()
    columns = ["lag"]
    for label in corr.labels():
        columns += [label, f"se({label})"]
    rows = []
    for k, lag in enumerate(corr.lags):
        row = [float(lag)]
        for p in range(len(corr.pairs)):
            row += [float(mean[p, k]), float(se[p, k])]
        rows.append(row)
    return {"columns": columns, "rows": rows}


def _parse_pairs(text: str):
    pairs = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) == 2:
            pairs.append((parts[0], parts[1]))
        elif len(parts) == 4:
            pairs.append((int(parts[0]), parts[1], int(parts[2]), parts[3]))
        else:
            raise ValueError(f"bad pair spec {chunk!r}")
    return pairs


def _sim_inputs(args) -> tuple[md.SimConfig, float]:
    """The config file under the --seed override, and --max-lag (default steps*dt/4)."""
    cfg = parse_sim_config(Path(args.config).read_text())
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg, (cfg.steps * cfg.dt / 4.0 if args.max_lag is None else args.max_lag)


def cmd_simulate(args) -> int:
    cfg, max_lag = _sim_inputs(args)
    pairs = _parse_pairs(args.pairs) if args.pairs else md.component_pairs()
    corr = md.velocity_correlator(cfg, pairs, max_lag, stride=args.stride)
    _emit(_correlator_payload(corr), "csv", args.out, "correlators")
    sys.stderr.write(f"energy drift {corr.energy_drift:.3e}\n")
    return EXIT_OK


def cmd_correlate(args) -> int:
    cfg, max_lag = _sim_inputs(args)
    report = md.diffusion_check(cfg, max_lag, args.stride, args.t_max)
    payload = {"antisymmetry": report.as_dict(), "d": report.tensor.d,
               "se": report.tensor.se, "t_max": report.tensor.t_max,
               "passed": report.passed}
    _emit(payload, "json", args.out, "diffusion")
    if args.out is not None:
        (args.out / "correlators.csv").write_text(_to_csv(_correlator_payload(report.corr)))
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def cmd_verify(args) -> int:
    records = vf.run_verify(seed=args.seed, scale=args.scale)
    for record in records:
        status = "PASS" if record["passed"] else "FAIL"
        sys.stdout.write(f"[{status}] {record['criterion']}\n")
    payload = {"seed": args.seed, "scale": args.scale, "criteria": records,
               "all_passed": all(r["passed"] for r in records)}
    _emit(payload, "json", args.out, "verify-report")
    return EXIT_OK if payload["all_passed"] else EXIT_VERIFICATION


def build_parser() -> _Parser:
    parser = _Parser(prog="treverse",
                     description="Generalized time-reversal toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="closed-form operation count")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--family", choices=("binary", "antisymmetric"), default="binary")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", help="list every operation of a family")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--family", choices=("binary", "antisymmetric"), default="binary")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("classes", help="cycle classes, tableaux and sizes")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("check-field", help="operation/field compatibility")
    p.add_argument("--op", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=fl.ANALYTIC_TOL)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_check_field)

    p = sub.add_parser("find-symmetries", help="catalog operations compatible with a field")
    p.add_argument("--field", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_find_symmetries)

    p = sub.add_parser("spin-ops", help="the nine spin-space candidates")
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_spin_ops)

    p = sub.add_parser("spin-lift", help="lift a spatial block to spin space")
    p.add_argument("--op", required=True)
    p.add_argument("--field", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_spin_lift)

    p = sub.add_parser("kubo", help="canonical correlator on a spin system")
    p.add_argument("--system", required=True)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--times", default="0:10:16")
    p.add_argument("--phi", required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--tr", default=None,
                   help="per-site pauli axes, e.g. 'x,x'; runs the symmetry check")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_kubo)

    p = sub.add_parser("simulate", help="run MD and write correlators")
    p.add_argument("--config", required=True)
    p.add_argument("--pairs", default=None)
    p.add_argument("--max-lag", type=float, default=None)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("correlate", help="MD + diffusion tensor + verdicts")
    p.add_argument("--config", required=True)
    p.add_argument("--max-lag", type=float, default=None)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("verify", help="run the aggregated verification suite")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--scale", choices=vf.SCALES, default="full")
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
