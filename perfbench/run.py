"""qrtw benchmark: fresh-process workloads with per-layer traces.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload spectrum-1e6 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py                       # every workload, untraced and traced
    python3 perfbench/run.py --smoke --seconds 1   # tiny sizes, same gates

Each operation is a fresh process (``python -m qrtw.cli ...`` or the
library runner ``perfbench/sweep.py``), one at a time: a closed loop
with one client.  ``--trace 0`` reports the end-to-end metrics, medians
over the operations of the run.  ``--trace 1`` alternates untraced
operations with traced ones (``perfbench/traced.py``) and reports the
per-layer metrics.  Every operation's output is checked, untimed.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a record with
the machine, the samples, exact counts and artifact digests is written
under ``.perfbench/records``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

CHILD_TIMEOUT_S = 100.0
# Thread-count knobs stripped from the child environment, so the
# program and BLAS run at their defaults.
THREAD_VARS = (
    "QRTW_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

WORKLOADS = ("spectrum-1e6", "evolve-snapshots", "general-sweep")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_units(sizes) -> dict[str, str]:
    """Every per-layer metric, in report order, with its unit."""
    units = {
        "cli.import_s": "s",
        "cli.parse_config_s": "s",
        "cli.self_s": "s",
        "cli.artifact_bytes": "bytes",
        "qgraph.spectrum_scan_s": "s",
        "qgraph.spectrum_scan.ns_per_point": "ns",
        "qgraph.spectrum_to_csv_s": "s",
        "qgraph.points": "count",
        "qgraph.spectrum_scan.threads2_s": "s",
        "evolution.init_lattice_s": "s",
        "evolution.run_to_convergence.self_s": "s",
        "evolution.ns_per_site_step": "ns",
        "evolution.steps": "count",
        "evolution.sites": "count",
        "scattering.profile_to_csv_s": "s",
        "scattering.profile_to_csv.calls": "count",
        "scattering.profile_to_csv.rows": "count",
        "scattering.solve_general_s": "s",
        "scattering.solve_general.calls": "count",
        "scattering.solve_general.failed": "count",
    }
    for hull in sizes.hulls:
        units[f"scattering.solve_general.hull{hull}_ms"] = "ms"
    for bucket in _defect_buckets(sizes):
        units[f"scattering.solve_general.defects{bucket}_s"] = "s"
    units.update({
        "scattering.solve_closed_form_s": "s",
        "scattering.build_profile_s": "s",
        "series.t_series_limit_s": "s",
        "trace.overhead_s": "s",
    })
    return units


def _defect_buckets(sizes) -> tuple[str, ...]:
    return ("2", str(sizes.interior_defects), "all")


def _defect_bucket(counts: dict) -> str:
    """A solve's defect-count bucket: the count, or "all" for a full hull."""
    return "all" if counts["defects"] == counts["hull"] else str(counts["defects"])


# -- child processes ---------------------------------------------------------


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


class Launcher:
    """Runs children through ``launcher.py``, a small process, so that
    their peak RSS is not inflated by this one's."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], cwd: Path, tag: str) -> Child:
        out_path, err_path = cwd / f"{tag}.stdout", cwd / f"{tag}.stderr"
        request = {
            "argv": argv, "cwd": str(cwd), "env": child_env(), "timeout": CHILD_TIMEOUT_S,
            "stdout": str(out_path), "stderr": str(err_path),
        }
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = json.loads(self._proc.stdout.readline())
        return Child(
            code=reply["code"],
            wall_s=reply["wall_s"],
            cpu_s=reply["cpu_s"],
            rss_mb=reply["maxrss_kib"] * 1024 / 1e6,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=CHILD_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


# -- workloads ---------------------------------------------------------------


@dataclass
class Workload:
    name: str
    params: dict
    ops_per_run: int  # operations one process performs
    setup_module: str  # what set-up imports
    gate: Callable  # (out_dir, stdout) -> workloads.Gate
    cli_args: Callable | None = None  # out_dir -> qrtw.cli argv, for the CLI workloads
    cases_path: Path | None = None

    def command(self, out_dir: Path) -> list[str]:
        if self.cli_args is not None:
            return [sys.executable, "-m", "qrtw.cli", *self.cli_args(out_dir)]
        return [sys.executable, str(HERE / "sweep.py"), str(self.cases_path)]

    def traced_spec(self, out_dir: Path) -> dict:
        if self.cli_args is not None:
            probe = self.params if self.name == "spectrum-1e6" else None
            return {"kind": "cli", "argv": self.cli_args(out_dir), "threads2": probe}
        return {"kind": "sweep", "cases": str(self.cases_path)}


def make_workload(name: str, seed: int, sizes, work: Path) -> Workload:
    import workloads as wl

    if name == "spectrum-1e6":
        params = wl.spectrum_params(seed, sizes)
        return Workload(
            name, params, 1, "qrtw.cli",
            cli_args=lambda out: wl.spectrum_argv(params, out / "spectrum.csv"),
            gate=lambda out, stdout: wl.check_spectrum(params, out, stdout),
        )
    if name == "evolve-snapshots":
        params = wl.evolve_params(seed, sizes)
        return Workload(
            name, params, 1, "qrtw.cli",
            cli_args=lambda out: wl.evolve_argv(params, out / "evolve.csv"),
            gate=lambda out, stdout: wl.check_evolve(params, out, stdout),
        )
    cases = wl.sweep_cases(seed, sizes)
    path = work / "cases.json"
    path.write_text(json.dumps(cases), encoding="utf-8")
    return Workload(
        name, {"seed": seed, "solves": len(cases)}, len(cases), "qrtw",
        cases_path=path,
        gate=lambda out, stdout: wl.check_sweep(cases, out, stdout),
    )


@dataclass
class Op:
    child: Child
    gate: "workloads.Gate"
    artifact_bytes: int
    spans: list | None = None


def run_op(workload: Workload, work: Path, launcher: Launcher, traced: bool) -> Op:
    import workloads as wl

    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir()
    spans_path = work / "spans.json"
    if traced:
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(workload.traced_spec(out_dir)), encoding="utf-8")
        spans_path.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "traced.py"), str(spec_path), str(spans_path)]
    else:
        argv = workload.command(out_dir)
    child = launcher.run(argv, work, "traced" if traced else "op")
    if child.code != 0:
        gate = wl.Gate(workload.ops_per_run)
        gate.fail(f"exit {child.code}: {child.stderr.strip()[-300:]}", workload.ops_per_run)
    else:
        try:
            gate = workload.gate(out_dir, child.stdout)
        except Exception as exc:  # malformed output is a failed operation
            gate = wl.Gate(workload.ops_per_run)
            gate.fail(f"{type(exc).__name__}: {exc}", workload.ops_per_run)
    artifact_bytes = sum(f.stat().st_size for f in out_dir.iterdir())
    spans = None
    if traced and child.code == 0:
        spans = json.loads(spans_path.read_text(encoding="utf-8"))
    return Op(child, gate, artifact_bytes, spans)


# -- per-layer metrics from spans -------------------------------------------


def layer_metrics(spans: list, sizes, artifact_bytes: int) -> dict[str, float]:
    """Span totals, self times (duration minus child spans) and counts."""
    dur = [(end - start) / 1e9 for _, start, end, _, _ in spans]
    self_time = list(dur)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent is not None:
            self_time[parent] -= dur[i]

    def total(name, values=dur, where=lambda counts: True):
        return sum(v for v, s in zip(values, spans) if s[0] == name and where(s[4]))

    def calls(name, where=lambda counts: True):
        return sum(1 for s in spans if s[0] == name and where(s[4]))

    def counted(name, key):
        return sum(s[4].get(key, 0) for s in spans if s[0] == name)

    points = counted("qgraph.spectrum_scan", "points")
    steps = counted("evolution.run_to_convergence", "steps")
    sites = counted("evolution.init_lattice", "sites")
    scan_s = total("qgraph.spectrum_scan")
    stepping_s = total("evolution.run_to_convergence", self_time)
    m = {
        "cli.import_s": total("cli.import"),
        "cli.parse_config_s": total("cli.parse_config"),
        "cli.self_s": sum(
            v for v, s in zip(self_time, spans) if s[0].startswith("cli.") and s[0] != "cli.import"
        ),
        "cli.artifact_bytes": artifact_bytes,
        "qgraph.spectrum_scan_s": scan_s,
        "qgraph.spectrum_scan.ns_per_point": scan_s / points * 1e9 if points else 0.0,
        "qgraph.spectrum_to_csv_s": total("qgraph.spectrum_to_csv"),
        "qgraph.points": points,
        "qgraph.spectrum_scan.threads2_s": total("qgraph.spectrum_scan.threads2"),
        "evolution.init_lattice_s": total("evolution.init_lattice"),
        "evolution.run_to_convergence.self_s": stepping_s,
        "evolution.ns_per_site_step": stepping_s / (steps * sites) * 1e9 if steps and sites else 0.0,
        "evolution.steps": steps,
        "evolution.sites": sites,
        "scattering.profile_to_csv_s": total("scattering.profile_to_csv"),
        "scattering.profile_to_csv.calls": calls("scattering.profile_to_csv"),
        "scattering.profile_to_csv.rows": counted("scattering.profile_to_csv", "rows"),
        "scattering.solve_general_s": total("scattering.solve_general"),
        "scattering.solve_general.calls": calls("scattering.solve_general"),
        "scattering.solve_general.failed": calls("scattering.solve_general", lambda c: "error" in c),
    }
    for hull in sizes.hulls:
        m[f"scattering.solve_general.hull{hull}_ms"] = 1e3 * total(
            "scattering.solve_general", where=lambda c, h=hull: c.get("hull") == h
        )
    for bucket in _defect_buckets(sizes):
        m[f"scattering.solve_general.defects{bucket}_s"] = total(
            "scattering.solve_general", where=lambda c, b=bucket: _defect_bucket(c) == b
        )
    m["scattering.solve_closed_form_s"] = total("scattering.solve_closed_form")
    m["scattering.build_profile_s"] = total("scattering.build_profile")
    m["series.t_series_limit_s"] = total("series.t_series_limit")
    return m


# -- one run -----------------------------------------------------------------


def machine_record() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


@dataclass
class RunResult:
    workload: str
    trace: bool
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    units: dict = field(default_factory=dict)
    record: dict = field(default_factory=dict)


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes) -> RunResult:
    result = RunResult(name, trace)
    work = WORK / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    load_before = os.getloadavg()
    launcher = Launcher()
    try:
        workload = make_workload(name, seed, sizes, work)
        setup_argv = [sys.executable, "-c", f"import {workload.setup_module}"]
        launcher.run(setup_argv, work, "warmup")  # untimed: fills the bytecode cache
        ops: list[tuple[bool, Op]] = []
        setup: list[float] = []
        deadline = time.perf_counter() + seconds
        while True:
            started = time.perf_counter()
            if trace:
                batch = [False, True]
            else:
                setup.append(launcher.run(setup_argv, work, "setup").wall_s)
                batch = [False]
            for traced in batch:
                ops.append((traced, run_op(workload, work, launcher, traced)))
            now = time.perf_counter()
            if now + (now - started) > deadline:  # the next round would overrun
                break
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)

    notes = []
    for _, op in ops:
        result.attempted += op.gate.attempted
        result.failed += op.gate.failed
        if op.gate.note:
            notes.append(op.gate.note)
    good = [(traced, op) for traced, op in ops if op.gate.failed == 0]
    digests = [op.gate.artifacts for _, op in good]
    if any(d != digests[0] for d in digests):
        result.failed += 1
        notes.append("artifacts differ between operations on the same inputs")
    plain = [op.child for traced, op in good if not traced]
    if trace:
        traced_ops = [op for traced, op in good if traced]
        per_op = [layer_metrics(op.spans, sizes, op.artifact_bytes) for op in traced_ops]
        units = per_layer_units(sizes)
        metrics = {k: _median([m[k] for m in per_op]) for k in units if k != "trace.overhead_s"}
        # The threads=2 probe runs after the operation, so it is not overhead.
        traced_walls = [
            op.child.wall_s - m["qgraph.spectrum_scan.threads2_s"] for op, m in zip(traced_ops, per_op)
        ]
        metrics["trace.overhead_s"] = _median(traced_walls) - _median([c.wall_s for c in plain])
        result.units = units
        counts = sorted({json.dumps({k: m[k] for k in units if units[k] in ("count", "bytes")}) for m in per_op})
    else:
        metrics = {
            "wall_s": _median([c.wall_s for c in plain]),
            "cpu_s": _median([c.cpu_s for c in plain]),
            "peak_rss_mb": _median([c.rss_mb for c in plain]),
            "setup_s": _median(setup),
        }
        result.units = END_TO_END
        counts = sorted({json.dumps({"artifact_bytes": op.artifact_bytes}) for _, op in good})
    result.metrics = metrics
    result.record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": asdict(sizes),
        "params": workload.params,
        "machine": machine_record(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "operations": len(ops),
        "samples": {
            "wall_s": [c.wall_s for c in plain],
            "cpu_s": [c.cpu_s for c in plain],
            "peak_rss_mb": [c.rss_mb for c in plain],
            "setup_s": setup,
            "traced_wall_s": [op.child.wall_s for traced, op in good if traced],
        },
        "exact_counts": [json.loads(c) for c in counts],
        "artifacts": digests[0] if digests else {},
        "attempted": result.attempted,
        "failed": result.failed,
        "failures": notes[:20],
    }
    return result


def write_record(result: RunResult) -> Path:
    path = WORK / "records" / f"{result.workload}-seed{result.record['seed']}-trace{int(result.trace)}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result.record, indent=1) + "\n", encoding="utf-8")
    return path


def report(result: RunResult, prefix: str = "") -> dict:
    """Print the metrics and return them in the result-line form."""
    print(f"{result.workload} ({'traced' if result.trace else 'end to end'}): "
          f"{result.record['operations']} processes, {result.attempted} operations, {result.failed} failed")
    out = {}
    for name, unit in result.units.items():
        value = result.metrics[name]
        print(f"  {name:<44s} {value:>16.6g} {unit}")
        out[prefix + name] = {"value": value, "unit": unit}
    for note in result.record["failures"][:3]:
        print(f"  FAILED: {note}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both with --workload all)")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "qrtw" / "cli.py").is_file():
        print(f"perfbench: no qrtw sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (False, True) if args.trace is None else (bool(args.trace),)
    sizes = wl.SMOKE if args.smoke else wl.FULL

    attempted = failed = 0
    metrics = {}
    for name in names:
        for trace in traces:
            result = run_workload(name, args.seed, args.seconds, trace, sizes)
            attempted += result.attempted
            failed += result.failed
            prefix = f"{name}/" if len(names) * len(traces) > 1 else ""
            metrics.update(report(result, prefix))
            print(f"  record: {write_record(result)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
