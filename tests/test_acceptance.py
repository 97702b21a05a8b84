"""Acceptance suite: every exit criterion at its stated tolerance, one
pass/fail line printed per criterion.

Criteria 6 and 7 run the full-scale simulations (about a minute
combined); criterion 10 invokes the CLI twice at the reduced scale to
check byte determinism of the reports.
"""

import subprocess
import sys
import time

from treverse import verify as vf

SEED = 42


def report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number}: {name} {detail}".rstrip())
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_counting():
    start = time.perf_counter()
    record = vf.check_counting()
    elapsed = time.perf_counter() - start
    report(1, "counting reproduction", record["passed"] and elapsed < 1.0,
           f"dim3={record['dim3']} runtime={elapsed:.2f}s")


def test_criterion_2_structural_invariants():
    start = time.perf_counter()
    record = vf.check_structural(SEED)
    elapsed = time.perf_counter() - start
    report(2, "structural invariants", record["passed"] and elapsed < 10.0,
           f"antisymplectic={record['antisymplectic_residual']:.2e} "
           f"roundtrip={record['involution_roundtrip']:.1e} runtime={elapsed:.1f}s")


def test_criterion_3_compatibility_equivalence():
    record = vf.check_compat_equivalence(SEED)
    report(3, "A/B compatibility equivalence", record["passed"],
           f"curl={record['worst_compatible_curl']:.2e} "
           f"theta-grid={record['continuous_family_worst']:.2e}")


def test_criterion_4_spin_lift():
    record = vf.check_spin_lift(SEED)
    report(4, "spin lift and sign table", record["passed"],
           f"worst-coupling={record['worst_coupling_residual']:.2e} "
           f"pairs={record['lifted_pairs']}")


def test_criterion_5_kubo_correlator():
    start = time.perf_counter()
    record = vf.check_kubo(SEED, n_random=200)
    elapsed = time.perf_counter() - start
    passed = (record["passed"] and record["worst_imag"] <= 1e-10
              and record["worst_quadrature"] <= 1e-8
              and record["symmetry_deviation"] <= 1e-8 and elapsed < 30.0)
    report(5, "Kubo correlator", passed,
           f"imag={record['worst_imag']:.1e} quad={record['worst_quadrature']:.1e} "
           f"symmetry={record['symmetry_deviation']:.1e} runtime={elapsed:.1f}s")


def test_criterion_6_md_oracle():
    record = vf.check_md_oracle(SEED, "full")
    report(6, "free-particle correlator oracle", record["passed"],
           f"sigma_xx={record['sigma_xx']:.2f} sigma_xy={record['sigma_xy']:.2f} "
           f"({record['trajectories']} trajectories, {record['lags']} lags)")


def test_criterion_7_diffusion_antisymmetry():
    start = time.perf_counter()
    record = vf.check_diffusion_antisymmetry(SEED, "full")
    elapsed = time.perf_counter() - start
    lines = []
    for name in ("constant-z", "axial-md"):
        d = record[name]
        lines.append(f"{name}: sum={d['sum']:+.4f}+-{d['se']:.4f} ratio={d['ratio']:.3f}")
    report(7, "diffusion tensor antisymmetry", record["passed"] and elapsed < 300.0,
           "; ".join(lines) + f" runtime={elapsed:.0f}s")


def test_criterion_8_conjugacy():
    record = vf.check_conjugacy(SEED)
    ratios = ", ".join(f"{r:.0f}" for r in record["halving_ratios"])
    report(8, "trajectory conjugacy", record["passed"],
           f"free={record['free_deviation']:.1e} halving-ratios=[{ratios}]")


def test_criterion_9_angular_momentum():
    record = vf.check_angular_momentum(SEED)
    report(9, "angular momentum reversal", record["passed"],
           f"catalog-residual={record['catalog_worst_residual']:.1e} "
           f"counterexample={record['cross_swap_counterexample']}")


def test_criterion_10_determinism(tmp_path):
    outputs = []
    for run_dir in ("a", "b"):
        out = tmp_path / run_dir
        proc = subprocess.run(
            [sys.executable, "-m", "treverse.cli", "verify", "--seed", "42",
             "--scale", "quick", "--out", str(out)],
            capture_output=True, text=False)
        assert proc.returncode in (0, 2)
        outputs.append((proc.stdout, (out / "verify-report.json").read_bytes()))
    passed = outputs[0] == outputs[1]
    all_green = outputs[0][0].count(b"[FAIL]") == 0
    report(10, "verify determinism", passed and all_green,
           f"stdout+report byte-identical={passed} quick-suite-green={all_green}")
