"""Self-test of the benchmark: ``python -m pytest perfbench -q``.

Runs every workload at tiny sizes through the same gates, checks that
the gates reject wrong output, and that the benchmark refuses to run
without the sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from qrtw.cli import main as qrtw_main  # noqa: E402

# Layers each workload must exercise; every other layer must read zero.
EXERCISED = {
    "spectrum-1e6": {"qgraph.points", "qgraph.spectrum_scan_s", "qgraph.spectrum_scan.threads2_s"},
    "evolve-snapshots": {"evolution.steps", "scattering.profile_to_csv.calls"},
    "general-sweep": {"scattering.solve_general.calls", "series.t_series_limit_s"},
}


@pytest.fixture(scope="module")
def smoke():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_runs_every_workload_without_failures(smoke):
    assert smoke["correct"] is True
    assert smoke["failed"] == 0
    # spectrum and evolve: 1 end-to-end + 2 traced-mode operations each
    solves = len(wl.sweep_cases(0, wl.SMOKE))
    assert smoke["attempted"] == 3 + 3 + 3 * solves
    for name in run.WORKLOADS:
        for metric, unit in run.END_TO_END.items():
            entry = smoke["metrics"][f"{name}/{metric}"]
            assert entry["unit"] == unit and entry["value"] > 0


def test_layers_read_zero_where_bypassed(smoke):
    layered = set().union(*EXERCISED.values())
    for name, exercised in EXERCISED.items():
        for metric in layered:
            value = smoke["metrics"][f"{name}/{metric}"]["value"]
            if metric in exercised:
                assert value > 0, (name, metric)
            else:
                assert value == 0, (name, metric)
    assert smoke["metrics"]["evolve-snapshots/evolution.steps"]["value"] == wl.SMOKE.evolve_steps
    assert smoke["metrics"]["spectrum-1e6/qgraph.points"]["value"] == wl.SMOKE.spectrum_points


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units(wl.FULL)


def _run_cli(*argv) -> None:
    assert qrtw_main(list(argv)) == 0


def test_spectrum_gate_rejects_wrong_output(tmp_path):
    params = wl.spectrum_params(3, wl.SMOKE)
    _run_cli(*wl.spectrum_argv(params, tmp_path / "spectrum.csv"))
    assert wl.check_spectrum(params, tmp_path, "").failed == 0
    good = (tmp_path / "spectrum.csv").read_text()
    lines = good.splitlines()
    k, t = lines[1].split(",")
    for bad in (
        "\n".join(lines[:-1]) + "\n",  # a row missing
        good.replace(lines[1], f"{k},{float(t) + 1e-9!r}", 1),  # T off in row 0
        good.replace(lines[1], f"{math.nextafter(float(k), 1.0)!r},{t}", 1),  # k off by one ulp
    ):
        (tmp_path / "spectrum.csv").write_text(bad)
        assert wl.check_spectrum(params, tmp_path, "").failed == 1


def test_evolve_gate_rejects_wrong_output(tmp_path, capsys):
    params = wl.evolve_params(3, wl.SMOKE)
    capsys.readouterr()
    _run_cli(*wl.evolve_argv(params, tmp_path / "evolve.csv"))
    stdout = capsys.readouterr().out
    assert wl.check_evolve(params, tmp_path, stdout).failed == 0
    final = tmp_path / "evolve.csv"
    good = final.read_text()
    rows = good.splitlines()
    mid = len(rows) // 2
    x, *rest = rows[mid].split(",")
    rows[mid] = ",".join([x, repr(float(rest[0]) + 1e-5), *rest[1:]])
    final.write_text("\n".join(rows) + "\n")
    gate = wl.check_evolve(params, tmp_path, stdout)
    assert gate.failed == 1 and "closed form" in gate.note
    final.write_text(good)
    next(tmp_path.glob("evolve_n*.csv")).unlink()
    gate = wl.check_evolve(params, tmp_path, stdout)
    assert gate.failed == 1 and "snapshot" in gate.note


def test_sweep_gate_rejects_wrong_output(tmp_path):
    import sweep

    cases = wl.sweep_cases(3, wl.SMOKE)
    results = sweep.run_cases(cases)
    assert wl.check_sweep(cases, tmp_path, json.dumps(results)).failed == 0
    results[0]["R"] += 1e-9
    results[1]["error"] = "SingularSystem: injected"
    assert wl.check_sweep(cases, tmp_path, json.dumps(results)).failed == 2
    assert wl.check_sweep(cases, tmp_path, json.dumps(results[:-1])).failed == len(cases)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "general-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
