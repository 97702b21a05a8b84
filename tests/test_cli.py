import json
import subprocess
import sys

import numpy as np
import pytest

from treverse import enumeration as en
from treverse import md
from treverse.cli import main, parse_op, parse_sim_config

TWO_SPIN_SYSTEM = """
site = 0.7 0.2 0  1.0
site = 0.7 0.2 0  1.0
exchange = 0 1 0.3
"""

TINY_SIM = """
n = 1
field = constant:0,0,1
dt = 0.05
steps = 400
temperature = 1.0
seed = 5
n_trajectories = 40
"""


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_dim3(capsys):
    code, out, _ = run_cli(["count", "--dim", "3"], capsys)
    assert code == 0
    assert out.strip() == "20"


def test_count_antisymmetric_even(capsys):
    code, out, _ = run_cli(["count", "--dim", "4", "--family", "antisymmetric"], capsys)
    assert code == 0 and out.strip() == "12"


def test_count_antisymmetric_odd_is_usage_error(capsys):
    code, out, err = run_cli(["count", "--dim", "3", "--family", "antisymmetric"], capsys)
    assert code == 1
    assert "error" in err


def test_unknown_subcommand_exit_code(capsys):
    code, *_ = run_cli(["frobnicate"], capsys)
    assert code == 1


def test_enumerate_json(capsys):
    code, out, _ = run_cli(["enumerate", "--dim", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == payload["formula_total"] == 6
    assert payload["match"] is True
    assert len(payload["ops"]) == 6


@pytest.mark.parametrize("family, fmt", [("binary", "json"), ("antisymmetric", "csv")])
def test_enumerate_enumerates_once(capsys, monkeypatch, family, fmt):
    calls = []
    original = getattr(en, f"enumerate_{family}")

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(en, f"enumerate_{family}", counted)
    code, *_ = run_cli(["enumerate", "--dim", "4", "--family", family,
                        "--format", fmt], capsys)
    assert code == 0 and len(calls) == 1


def test_enumerate_csv(capsys):
    code, out, _ = run_cli(["enumerate", "--dim", "2", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("op,r1,r2")
    assert len(lines) == 7


def test_csv_only_where_rows_exist(capsys, tmp_path):
    # classes has no tabular form, so it takes no --format
    code, *_ = run_cli(["classes", "--dim", "2", "--format", "csv",
                        "--out", str(tmp_path / "D")], capsys)
    assert code == 1
    assert not (tmp_path / "D").exists()


def test_classes_output(capsys):
    code, out, _ = run_cli(["classes", "--dim", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["signed_total"] == payload["formula_total"] == 20
    assert [c["signed_count"] for c in payload["classes"]] == [8, 12]


def test_check_field_compatible(capsys):
    code, out, _ = run_cli(["check-field", "--op", "diag:1,-1,1",
                            "--field", "constant:0,0,1"], capsys)
    assert code == 0
    reports = json.loads(out)
    assert all(r["compatible"] for r in reports)
    assert {r["condition"] for r in reports} == {"B-condition", "A-condition"}


def test_check_field_incompatible(capsys):
    code, out, _ = run_cli(["check-field", "--op", "diag:1,1,1",
                            "--field", "constant:0,0,1"], capsys)
    assert code == 2


def test_find_symmetries(capsys):
    code, out, _ = run_cli(["find-symmetries", "--field", "constant:0,0,1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 8
    assert payload["continuous_family_applies"] is True


def test_spin_ops_catalog(capsys):
    code, out, _ = run_cli(["spin-ops"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 9
    assert sum(1 for e in payload if e["valid"]) == 6
    assert all(e.keys() == {"label", "matrix_re", "matrix_im", "valid", "t_squared"}
               for e in payload)
    by_label = {e["label"]: e for e in payload}
    assert by_label["sigma_y"]["t_squared"] == -1


def test_spin_lift_with_field(capsys):
    code, out, _ = run_cli(["spin-lift", "--op", "perm:swapxy",
                            "--field", "constant:0,0,1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["coupling_ok"] is True
    assert payload["t_squared"] in (-1, 1)


def test_spin_lift_incompatible_field(capsys):
    code, out, _ = run_cli(["spin-lift", "--op", "diag:1,1,1",
                            "--field", "constant:0,0,1"], capsys)
    assert code == 2


def test_parse_op_forms():
    assert np.allclose(parse_op("diag:1,-1,1").matrix(), np.diag([1.0, -1, 1]))
    swap = parse_op("perm:swapxy")
    assert np.allclose(swap.matrix(), [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    signed = parse_op("perm:swapyz:-1,1")
    assert np.allclose(signed.matrix(), [[1, 0, 0], [0, 0, -1], [0, -1, 0]])
    theta = parse_op("theta:0")
    assert np.allclose(theta.matrix(), np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        parse_op("diag:2,0,0")


def test_kubo_correlator_csv(tmp_path, capsys):
    system = tmp_path / "system.txt"
    system.write_text(TWO_SPIN_SYSTEM)
    code, out, _ = run_cli(["kubo", "--system", str(system), "--beta", "1.3",
                            "--times", "0:2:5", "--phi", "sigma:x:0",
                            "--psi", "sigma:x:1"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,value,imag_residual"
    assert len(lines) == 6
    assert all(float(line.split(",")[2]) <= 1e-10 for line in lines[1:])


def test_kubo_symmetry_check(tmp_path, capsys):
    system = tmp_path / "system.txt"
    system.write_text(TWO_SPIN_SYSTEM)
    args = ["kubo", "--system", str(system), "--beta", "1.3", "--times", "0:10:16",
            "--phi", "sigma:x:0", "--psi", "sigma:x:1", "--tr", "x,x"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True and payload["max_deviation"] <= 1e-8
    # a zero tolerance is kept, not replaced by the default
    code, out, _ = run_cli(args + ["--tol", "0"], capsys)
    assert code == 2 and json.loads(out)["passed"] is False


@pytest.mark.parametrize("flags, message", [
    (["--phi", "sigma:x:5", "--psi", "sigma:x:1"], "site 5 outside 0..1"),
    (["--phi", "sigma:x:0", "--psi", "sigma:x:-1"], "site -1 outside 0..1"),
    (["--phi", "sigma:x:0", "--psi", "sigma:x:1", "--times", "0:10:0"],
     "the time grid is empty"),
])
def test_kubo_rejects_bad_site_and_empty_grid(tmp_path, capsys, flags, message):
    system = tmp_path / "system.txt"
    system.write_text(TWO_SPIN_SYSTEM)
    code, out, err = run_cli(["kubo", "--system", str(system), "--tr", "x,x", *flags],
                             capsys)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_kubo_rejects_a_site_count_key(tmp_path, capsys):
    # the site count is the number of site lines; an 'n' entry is not read
    system = tmp_path / "system.txt"
    system.write_text("n = 2\n" + TWO_SPIN_SYSTEM)
    code, out, err = run_cli(["kubo", "--system", str(system), "--phi", "sigma:x:0",
                              "--psi", "sigma:x:1"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: unknown key 'n'")


def test_kubo_noncommuting_tr_is_error(tmp_path, capsys):
    system = tmp_path / "system.txt"
    system.write_text(TWO_SPIN_SYSTEM)
    code, _, err = run_cli(["kubo", "--system", str(system), "--phi", "sigma:x:0",
                            "--psi", "sigma:x:1", "--tr", "y,y"], capsys)
    assert code == 1 and "error" in err


def test_simulate_writes_correlators(tmp_path, capsys):
    config = tmp_path / "sim.txt"
    config.write_text(TINY_SIM)
    out_dir = tmp_path / "out"
    code, out, err = run_cli(["simulate", "--config", str(config),
                              "--pairs", "x,x;x,y", "--max-lag", "4.0",
                              "--stride", "2", "--out", str(out_dir)], capsys)
    assert code == 0
    assert [p.name for p in out_dir.iterdir()] == ["correlators.csv"]
    header = (out_dir / "correlators.csv").read_text().splitlines()[0]
    assert header.startswith("lag,vx*vx,se(vx*vx)")


def test_correlate_diffusion_json(tmp_path, capsys):
    config = tmp_path / "sim.txt"
    config.write_text(TINY_SIM)
    code, out, _ = run_cli(["correlate", "--config", str(config),
                            "--max-lag", "4.0", "--stride", "2"], capsys)
    payload = json.loads(out)
    report = md.diffusion_check(parse_sim_config(TINY_SIM), 4.0, 2)
    assert payload["antisymmetry"] == report.as_dict()
    assert payload["d"] == report.tensor.d.tolist()
    assert payload["t_max"] == report.tensor.t_max == 4.0
    # D_xy = -D_yx holds within 3 SE, but the free particle's correlators
    # have not decayed by t_max, so the criterion-7 gate fails
    assert report.verdict.passed and not payload["antisymmetry"]["converged"]
    assert payload["passed"] is False and code == 2


def test_correlate_exits_0_when_the_gate_passes(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(md.DiffusionReport, "passed", property(lambda self: True))
    config = tmp_path / "sim.txt"
    config.write_text(TINY_SIM)
    code, out, _ = run_cli(["correlate", "--config", str(config),
                            "--max-lag", "4.0", "--stride", "2"], capsys)
    assert code == 0 and json.loads(out)["passed"] is True


def test_correlate_t_max_defaults_to_the_last_lag(tmp_path, capsys):
    # 0.54 is not on the 0.1 lag grid: the grid ends at 0.5
    config = tmp_path / "sim.txt"
    config.write_text(TINY_SIM)
    code, out, _ = run_cli(["correlate", "--config", str(config),
                            "--max-lag", "0.54", "--stride", "2"], capsys)
    assert code == 2 and json.loads(out)["t_max"] == 0.5


def test_correlate_out_keeps_stdout_json(tmp_path, capsys):
    config = tmp_path / "sim.txt"
    config.write_text(TINY_SIM)
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(["correlate", "--config", str(config), "--max-lag", "0.5",
                            "--stride", "2", "--out", str(out_dir)], capsys)
    assert code == 2 and "antisymmetry" in json.loads(out)
    assert sorted(p.name for p in out_dir.iterdir()) == ["correlators.csv", "diffusion.json"]
    assert (out_dir / "diffusion.json").read_text() == out
    header = (out_dir / "correlators.csv").read_text().splitlines()[0]
    assert header.startswith("lag,vx*vx,se(vx*vx)")


def sim_text(**entries):
    """TINY_SIM with entries replaced or added."""
    base = dict(line.split(" = ") for line in TINY_SIM.strip().splitlines())
    base.update({key: str(value) for key, value in entries.items()})
    return "".join(f"{key} = {value}\n" for key, value in base.items())


@pytest.mark.parametrize("entries, name", [
    (dict(mass=0), "mass"),
    (dict(thermostat_interval=0, equilibration=10), "thermostat_interval"),
    (dict(box_half=0, field="axial:1,0.1"), "box_half"),
    (dict(temperature=-1), "temperature"),
    (dict(wca_sigma=0), "wca_sigma"),
    (dict(wca_sigma=-1), "wca_sigma"),
    (dict(equilibration=-5), "equilibration"),
])
def test_simulate_rejects_non_physical_config(tmp_path, capsys, entries, name):
    config = tmp_path / "sim.txt"
    config.write_text(sim_text(**entries))
    code, out, err = run_cli(["simulate", "--config", str(config), "--pairs", "x,x",
                              "--max-lag", "0.5"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and name in err


@pytest.mark.parametrize("stride", ["0", "-2"])
def test_simulate_rejects_stride_below_one(tmp_path, capsys, stride):
    config = tmp_path / "sim.txt"
    config.write_text(TINY_SIM)
    code, _, err = run_cli(["simulate", "--config", str(config),
                            "--stride", stride], capsys)
    assert code == 1 and "stride" in err


def test_zero_max_lag_and_t_max_are_honoured(tmp_path, capsys):
    config = tmp_path / "sim.txt"
    config.write_text(TINY_SIM)
    code, out, _ = run_cli(["simulate", "--config", str(config), "--pairs", "x,x",
                            "--max-lag", "0"], capsys)
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 1 and rows[0].startswith("0.0,")
    code, out, _ = run_cli(["correlate", "--config", str(config),
                            "--max-lag", "0.5", "--t-max", "0"], capsys)
    assert json.loads(out)["t_max"] == 0.0


@pytest.mark.parametrize("command, flags, name", [
    ("simulate", ["--pairs", "x,x", "--max-lag", "-0.05"], "max_lag"),
    ("simulate", ["--pairs", "x,x", "--max-lag", "-0.2"], "max_lag"),
    ("correlate", ["--max-lag", "0.5", "--t-max", "-1"], "t_max"),
])
def test_negative_max_lag_and_t_max_are_rejected(tmp_path, capsys, command, flags, name):
    config = tmp_path / "sim.txt"
    config.write_text(TINY_SIM)
    code, out, err = run_cli([command, "--config", str(config), *flags], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and f"{name} must be non-negative" in err


@pytest.mark.parametrize("spec, message", [
    ("0,x,5,y", "particle index outside 0..0"),
    ("x,w", "components must be x, y or z"),
    ("-1,x,0,y", "particle index outside 0..0"),
])
def test_simulate_rejects_unusable_pairs_before_md(tmp_path, capsys, monkeypatch,
                                                    spec, message):
    def no_md(*args):
        raise AssertionError("MD ran for an unusable pair")

    monkeypatch.setattr(md, "init_state", no_md)
    config = tmp_path / "sim.txt"
    config.write_text(TINY_SIM)
    code, out, err = run_cli(["simulate", "--config", str(config), f"--pairs={spec}"],
                             capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err


def test_deterministic_outputs(tmp_path):
    # identical args and seed give byte-identical files
    config = tmp_path / "sim.txt"
    config.write_text(TINY_SIM)
    outputs = []
    for run_dir in ("a", "b"):
        out_dir = tmp_path / run_dir
        proc = subprocess.run(
            [sys.executable, "-m", "treverse.cli", "simulate", "--config",
             str(config), "--pairs", "x,y", "--max-lag", "4.0",
             "--stride", "2", "--out", str(out_dir)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        outputs.append((out_dir / "correlators.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_field_file_input(tmp_path, capsys):
    field = tmp_path / "field.txt"
    field.write_text("family = constant\nb = 0 0 1\n")
    code, out, _ = run_cli(["find-symmetries", "--field", str(field)], capsys)
    assert code == 0
    assert json.loads(out)["count"] == 8
