"""Smoke tests of the benchmark harness itself (seconds, not minutes).

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402
from tracer import Probe, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture
def fakepkg(tmp_path, monkeypatch):
    pkg = tmp_path / "benchfake"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "inner.py").write_text(
        "import time\n"
        "def leaf(x):\n    time.sleep(0.01)\n    return x + 1\n"
        "def outer(x):\n    time.sleep(0.02)\n    return leaf(x) + leaf(x)\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    yield "benchfake"
    for name in [m for m in sys.modules if m.startswith("benchfake")]:
        del sys.modules[name]


def test_self_time_excludes_children_and_uninstall_restores(fakepkg):
    import benchfake.inner as inner
    original = inner.outer
    seen = []
    tracer = Tracer([Probe("inner.outer", ("inner.outer",)),
                     Probe("inner.leaf", ("inner.leaf",),
                           lambda stats, args, kwargs, result: seen.append(result))],
                    package=fakepkg)
    with tracer:
        assert inner.outer(1) == 4
    assert inner.outer is original
    snap = tracer.snapshot()
    assert snap["inner.leaf"]["calls"] == 2 and seen == [2, 2]
    outer = snap["inner.outer"]
    assert outer["self_s"] == pytest.approx(outer["total_s"] - snap["inner.leaf"]["total_s"])
    assert 0.015 < outer["self_s"] < outer["total_s"]


def test_missing_names_are_recorded_absent(fakepkg):
    tracer = Tracer([Probe("gone", ("inner.deleted_helper", "nomodule.fn")),
                     Probe("inner.leaf", ("inner.leaf",))], package=fakepkg)
    with tracer:
        pass
    assert tracer.absent == ["inner.deleted_helper", "nomodule.fn"]
    assert tracer.snapshot()["gone"]["calls"] == 0


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"] and SPEC["command"][1].startswith("bench/")
    names = [w["name"] for w in SPEC["workloads"]]
    assert set(names) == set(worker.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert max(m["bound"] for m in e2e.values()) == e2e["setup_s"]["bound"] <= 0.25
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(all_names) == len(set(all_names))
    assert all(NAME.match(n) for n in all_names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    # 4 + 22 runs per workload in 3420 s; a run is the measured window plus
    # about 3 s of set-up and at most one round's noise past the window
    assert (4 + 22 * len(names)) * (SPEC["run_seconds"] + 8) <= 3420


def test_per_layer_names_map_to_probes():
    probes = {p.name for p in worker.PROBES}
    for entry in SPEC["per_layer"]:
        name = entry["name"]
        if name.startswith(("trace.", "machine.")):
            continue
        probe, _, field = name.rpartition(".")
        assert probe in probes, name
        assert entry["unit"] == ("s" if field.endswith("_s") else
                                 "B" if field.endswith("bytes_computed") else "count"), name


def test_traced_md_round_counts_work(monkeypatch):
    worker.import_treverse()
    from treverse import fields, md
    cfg = md.SimConfig(n=4, field=fields.FieldSpec.constant([0, 0, 1]), dt=0.01, steps=40,
                       box_half=1.5, wca_epsilon=1.0, n_trajectories=3, equilibration=10)
    tracer = Tracer(worker.PROBES)
    with tracer:
        md.velocity_correlator(cfg, [("x", "y")], 0.2, stride=2)
    snap = tracer.snapshot()
    assert tracer.absent == []
    assert snap["md.step"]["calls"] == 50
    assert snap["md.step"]["counts"]["particle_steps"] == 50 * 3 * 4
    assert snap["md.step"]["r_hist"] == {"3": 50}
    assert snap["md.forces"]["counts"]["pair_evals"] == 100 * 3 * 6
    assert snap["md.velocity_correlator"]["counts"]["particle_steps"] == 3 * 4 * 50
    assert snap["md._chunk_correlators"]["r_hist"] == {"3": 1}
    metrics = worker.layer_metrics(snap)
    assert metrics["md.forces.io_bytes_computed"][1] == "B"
    assert metrics["fields.eval_field.calls"][0] == 100


class _Toy:
    md_probe = "md.step"

    def round(self):
        return [{"name": "toy", "ok": True, "digest": "d", "facts": {}}], 1.0


def test_measure_alternates_traced_rounds_and_summarizes():
    worker.import_treverse()
    summary = worker.summarize(worker.measure(_Toy(), seconds=0.0, trace=True))
    assert summary["rounds"] == 2 and summary["attempted"] == 2
    assert summary["deterministic"] and summary["counts_repeat"]
    assert "trace.overhead_s" in summary["layers"]


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "md-free",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_md_counts_that_differ_between_rounds_do_not_repeat():
    worker.import_treverse()
    result = worker.measure(_Toy(), seconds=0.0, trace=False)
    assert worker.summarize(result)["counts_repeat"]
    result["rounds"][1]["md_counts"]["md.step"]["calls"] += 1
    assert not worker.summarize(result)["counts_repeat"]


def test_traced_run_refuses_worker_threads(monkeypatch):
    monkeypatch.setenv("TREVERSE_THREADS", "2")
    with pytest.raises(SystemExit) as exc:
        worker.main(["--workload", "md-free", "--trace", "1"])
    assert exc.value.code != 0
