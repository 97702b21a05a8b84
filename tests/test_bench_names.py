"""The treverse names that bench/worker.py calls directly keep working.

The benchmark is not part of the test suite, so a rename or deletion of
one of these names would first show as a failed benchmark run.  The
names are read from the worker's source, which is not imported or run.
"""

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np

from treverse import md, verify

WORKER = Path(__file__).resolve().parents[1] / "bench" / "worker.py"

VERIFY_CORE = ("check_counting", "check_structural", "check_compat_equivalence",
               "check_spin_lift", "check_kubo", "check_conjugacy",
               "check_angular_momentum")
EXERCISED = {("md", "velocity_correlator"), ("md", "diffusion_tensor"),
             ("md", "antisymmetry_check"), ("md", "component_pairs"),
             ("verify", "md_fields"), ("verify", "diffusion_run_config"),
             ("verify", "check_md_oracle")} | {("verify", n) for n in VERIFY_CORE}


def worker_names() -> set[tuple[str, str]]:
    """(module, attribute) of each treverse module attribute the worker reads,
    plus the runners it looks up by name in its VERIFY_CORE tuple."""
    tree = ast.parse(WORKER.read_text())
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "treverse"
               for alias in node.names}
    names = {(node.value.id, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "VERIFY_CORE" for t in node.targets):
            names |= {("verify", name) for name in ast.literal_eval(node.value)}
    return names


def test_every_worker_name_is_exercised_here():
    names = worker_names()
    assert ("verify", "check_kubo") in names and ("md", "velocity_correlator") in names
    assert names <= EXERCISED


def test_md_wca_chain():
    # the md-wca round, at the criterion-7 shapes cut to two trajectories
    # and three samples
    for offset, (name, field) in enumerate(verify.md_fields().items()):
        cfg = verify.diffusion_run_config(field, 42 + 59 * offset, "quick")
        cfg = replace(cfg, steps=26, n_trajectories=2, equilibration=10)
        corr = md.velocity_correlator(cfg, md.component_pairs(), 0.026, stride=13)
        tensor = md.diffusion_tensor(corr, float(corr.lags[-1]))
        verdict = md.antisymmetry_check(tensor)
        assert corr.per_traj.shape == (2, 9, 2) and corr.energy_drift < 1e-2
        assert tensor.d.shape == tensor.se.shape == (3, 3)
        assert isinstance(tensor.converged, bool)
        assert np.isfinite([verdict.value, verdict.se, verdict.ratio]).all()


def test_verify_runners():
    record = verify.check_md_oracle(42, "quick")
    assert record["criterion"] == "6-md-oracle" and record["passed"]
    assert {"sigma_xx", "sigma_xy", "trajectories", "lags"} <= record.keys()
    for name in VERIFY_CORE:
        runner = getattr(verify, name)
        record = runner() if name == "check_counting" else runner(42)
        assert record["passed"], record["criterion"]
