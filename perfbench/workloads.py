"""Workload inputs (drawn from the seed) and their correctness gates.

Every workload fixes its sizes; the seed draws only physical
parameters.  A gate reads what one operation produced and returns the
number of operations it covers, the number that failed, a note on the
first failure, and the sha256 of every artifact.  Gates are never timed.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qrtw import (
    GraphParams,
    TunnelingConfig,
    build_profile,
    half_wave_plate,
    profile_from_csv,
    profile_max_difference,
    solve_closed_form,
    transmission_at_k,
)

# Tolerances are the ones the acceptance criteria and `qrtw verify` use.
SPECTRUM_T_TOL = 1e-12
SPECTRUM_CHECKED_ROWS = 1000
PROFILE_TOL = 1e-6  # criterion 1: closed form vs evolved, over lo+2 .. hi-2
FLUX_TOL = 1e-10
PAIR_TOLS = {
    "t closed vs linear": 1e-10,
    "profile closed vs linear": 1e-10,
    "t closed vs series limit": 1e-12,
}


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the seed never changes them."""

    spectrum_points: int = 1_000_000
    k_min: float = 0.1
    k_max: float = 5.0
    evolve_m: int = 200
    dump_every: int = 200
    evolve_steps: int = 12_420
    hulls: tuple[int, ...] = (64, 128, 256, 384)
    interior_defects: int = 16


FULL = Sizes()
# Tiny sizes for the benchmark's self-test; the gates are the same.
SMOKE = Sizes(
    spectrum_points=2_000,
    evolve_m=8,
    dump_every=8,
    evolve_steps=516,
    hulls=(8, 24),
    interior_defects=4,
)


@dataclass
class Gate:
    attempted: int
    failed: int = 0
    note: str = ""
    artifacts: dict[str, str] = field(default_factory=dict)  # name -> sha256

    def fail(self, note: str, count: int = 1) -> None:
        """Count ``count`` failed operations; an operation fails once."""
        self.failed = min(self.attempted, self.failed + count)
        if not self.note:
            self.note = note


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- inputs ------------------------------------------------------------------


def spectrum_params(seed: int, sizes: Sizes) -> dict:
    rng = random.Random(seed)
    return {
        "alpha": rng.uniform(0.5, 4.0),
        "s": rng.uniform(0.5, 2.0),
        "m": rng.randint(1, 8),
        "k_min": sizes.k_min,
        "k_max": sizes.k_max,
        "n": sizes.spectrum_points,
    }


def evolve_params(seed: int, sizes: Sizes) -> dict:
    rng = random.Random(seed)
    return {
        "p": rng.uniform(-math.pi, math.pi),
        "q": rng.uniform(-math.pi, math.pi),
        "theta": math.pi / 8.0,
        "m": sizes.evolve_m,
        "dump_every": sizes.dump_every,
        "steps": sizes.evolve_steps,
    }


def _coin_entries(rng: random.Random, bc_mag: float) -> list[float]:
    """A coin from the general unitary family with ``|bc| = bc_mag``."""
    th = math.asin(math.sqrt(bc_mag))
    f1, f2, g = (rng.uniform(0.0, 2.0 * math.pi) for _ in range(3))
    entries = (
        cmath.exp(1j * f1) * math.cos(th),
        cmath.exp(1j * f2) * math.sin(th),
        -cmath.exp(1j * (g - f2)) * math.sin(th),
        cmath.exp(1j * (g - f1)) * math.cos(th),
    )
    return [x for z in entries for x in (z.real, z.imag)]


def sweep_cases(seed: int, sizes: Sizes) -> list[dict]:
    """Every hull crossed with 2, ``interior_defects`` and all sites,
    from both sides.  The identical pair has a strong barrier; the
    denser sets use weak coins, so a whole hull of them stays far from
    the solver's singularity limit and no solve fails."""
    rng = random.Random(seed)
    cases = []
    for hull in sizes.hulls:
        pair = _coin_entries(rng, rng.uniform(0.1, 0.8))
        interior = rng.sample(range(1, hull - 1), sizes.interior_defects - 2)
        layouts = {
            "2": [[0, pair], [hull - 1, pair]],
            str(sizes.interior_defects): [
                [pos, _coin_entries(rng, rng.uniform(0.0, 1e-3))]
                for pos in sorted([0, hull - 1, *interior])
            ],
            "all": [[pos, _coin_entries(rng, rng.uniform(0.0, 1e-4))] for pos in range(hull)],
        }
        for defects, coins in layouts.items():
            for injection in ("left", "right"):
                cases.append(
                    {
                        "hull": hull,
                        "defects": defects,
                        "injection": injection,
                        "p": rng.uniform(-math.pi, math.pi),
                        "q": rng.uniform(-math.pi, math.pi),
                        "coins": coins,
                    }
                )
    return cases


def spectrum_argv(params: dict, out: Path) -> list[str]:
    k = f"{params['k_min']!r}:{params['k_max']!r}:{params['n']}"
    return [
        "spectrum", "--alpha", repr(params["alpha"]), "--s", repr(params["s"]),
        "--m", str(params["m"]), "--k", k, "--out", str(out),
    ]


def evolve_argv(params: dict, out: Path) -> list[str]:
    barrier = json.dumps({"hwp": params["theta"]})
    return [
        "evolve", "--p", repr(params["p"]), "--q", repr(params["q"]),
        "--barrier", barrier, "--m", str(params["m"]),
        "--out", str(out), "--dump-every", str(params["dump_every"]),
    ]


# -- gates -------------------------------------------------------------------


def check_spectrum(params: dict, out_dir: Path, stdout: str) -> Gate:
    """Row count, exact ``k`` grid, and ``T`` on a strided sample."""
    gate = Gate(attempted=1)
    data = (out_dir / "spectrum.csv").read_bytes()
    gate.artifacts = {"spectrum.csv": sha256(data)}
    text = data.decode("ascii")
    n = params["n"]
    header, _, body = text.partition("\n")
    if header != "k,T" or body.count("\n") != n or body.count(",") != n:
        gate.fail(f"expected header k,T and {n} two-column rows")
        return gate
    table = np.array(body.replace("\n", ",").split(",")[:-1], dtype=float).reshape(n, 2)
    if not np.array_equal(table[:, 0], np.linspace(params["k_min"], params["k_max"], n)):
        gate.fail("k column does not round-trip np.linspace")
        return gate
    rows = sorted({*range(0, n, max(1, n // SPECTRUM_CHECKED_ROWS)), n - 1})
    worst = max(
        abs(table[i, 1] - transmission_at_k(GraphParams(params["alpha"], params["s"], params["m"], table[i, 0])))
        for i in rows
    )
    if not worst <= SPECTRUM_T_TOL:
        gate.fail(f"T differs from transmission_at_k by {worst:.3e}")
    return gate


def check_evolve(params: dict, out_dir: Path, stdout: str) -> Gate:
    """Criterion 1 on the final profile, the residual, the snapshots."""
    gate = Gate(attempted=1)
    files = sorted(out_dir.iterdir())
    gate.artifacts = {f.name: sha256(f.read_bytes()) for f in files}
    report = json.loads(stdout)
    if report["steps"] != params["steps"] or not report["residual"] < report["tol"]:
        gate.fail(f"steps {report['steps']}, residual {report['residual']} vs tol {report['tol']}")
    snapshots = [f for f in files if f.name.startswith("evolve_n")]
    expected = params["steps"] // params["dump_every"]
    if len(snapshots) != expected:
        gate.fail(f"{len(snapshots)} snapshot files, expected {expected}")
    final = profile_from_csv((out_dir / "evolve.csv").read_text(encoding="ascii"))
    cfg = TunnelingConfig(
        p=params["p"], q=params["q"], barrier=half_wave_plate(params["theta"]), m=params["m"]
    )
    ref = build_profile(solve_closed_form(cfg), cfg, final.window)
    lo, hi = final.window
    diff = profile_max_difference(final, ref, lo + 2, hi - 2)
    if not diff <= PROFILE_TOL:
        gate.fail(f"final profile differs from the closed form by {diff:.3e}")
    return gate


def check_sweep(cases: list[dict], out_dir: Path, stdout: str) -> Gate:
    """Flux balance for every solve, three-way agreement for each pair."""
    gate = Gate(attempted=len(cases))
    gate.artifacts = {"sweep.json": sha256(stdout.encode("utf-8"))}
    results = json.loads(stdout)
    if len(results) != len(cases):
        gate.fail(f"{len(results)} results for {len(cases)} solves", len(cases))
        return gate
    for case, res in zip(cases, results):
        where = f"hull {case['hull']}, {case['defects']} defects, {case['injection']}"
        if "error" in res:
            gate.fail(f"{where}: {res['error']}")
            continue
        bad = []
        if not abs(res["R"] + res["T"] - 1.0) <= FLUX_TOL:
            bad.append(f"|R+T-1| = {abs(res['R'] + res['T'] - 1.0):.3e}")
        for row, value in res.get("pair", {}).items():
            if not value <= PAIR_TOLS[row]:
                bad.append(f"{row} = {value:.3e}")
        if case["defects"] == "2" and case["injection"] == "left" and "pair" not in res:
            bad.append("pair cross-check missing")
        if bad:
            gate.fail(f"{where}: " + ", ".join(bad))
    return gate
