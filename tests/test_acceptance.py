"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single
``criterion N: PASS`` or ``criterion N: FAIL`` line (visible in the
captured-output sections of the test report).  Tolerances and sample
counts are part of the contract and must not be loosened.
"""

import cmath
import math
import time
from contextlib import contextmanager

import numpy as np

from conftest import random_config
from qrtw import (
    GraphParams,
    Injection,
    TunnelingConfig,
    build_profile,
    edge_wave,
    find_resonances,
    flux_balance,
    half_wave_plate,
    init_lattice,
    profile_max_difference,
    resonance_residual,
    run_to_convergence,
    solve_closed_form,
    solve_general,
    spectrum_scan,
    t_series,
    t_series_limit,
    to_tunneling_config,
    transmission_at_k,
    transmitted_tail_phase,
)

HADAMARD_PLATE = half_wave_plate(math.pi / 8.0)


@contextmanager
def _criterion(n: int):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"criterion {n}: {'PASS' if ok else 'FAIL'}")


def _closed_vs_evolved(cfg: TunnelingConfig, tol: float) -> float:
    profile, _ = run_to_convergence(init_lattice(cfg), tol=tol)
    ref = build_profile(solve_closed_form(cfg), cfg, profile.window)
    lo, hi = profile.window
    return profile_max_difference(profile, ref, lo + 2, hi - 2)


def test_criterion_1_closed_form_vs_evolution():
    """Stationary closed form reproduced by direct stepping."""
    with _criterion(1):
        preset = TunnelingConfig(p=0.0, q=0.0, barrier=HADAMARD_PLATE, m=3)
        start = time.perf_counter()
        assert _closed_vs_evolved(preset, 1e-8) < 1e-6
        assert time.perf_counter() - start < 1.0

        rng = np.random.default_rng(20240808)
        for _ in range(20):
            cfg = random_config(rng, max_bc=0.9, m_hi=8)
            start = time.perf_counter()
            assert _closed_vs_evolved(cfg, 1e-8) < 1e-6
            assert time.perf_counter() - start < 1.0


def test_criterion_2_residual_transparency_equivalence():
    """Zero loop residual exactly characterizes perfect transmission."""
    with _criterion(2):
        for m in (1, 2, 3, 5):
            for j in range(40):
                half = j * math.pi / 40.0
                for i in range(40):
                    theta = (2 * i + 1) * math.pi / 160.0
                    cfg = TunnelingConfig(
                        p=half, q=half, barrier=half_wave_plate(theta), m=m
                    )
                    resonant = resonance_residual(cfg) <= 1e-12
                    transparent = abs(solve_closed_form(cfg).T - 1.0) <= 1e-10
                    assert resonant == transparent


def test_criterion_3_identity_background_is_transparent():
    """A reflective plate pair with trivial background transmits fully."""
    with _criterion(3):
        for i in range(25):
            theta = (2 * i + 1) * math.pi / 101.0
            for m in range(1, 11):
                cfg = TunnelingConfig(
                    p=0.0, q=0.0, barrier=half_wave_plate(theta), m=m
                )
                assert abs(solve_closed_form(cfg).T - 1.0) <= 1e-12


def test_criterion_4_unitarity_and_flux():
    """R + T = 1 and stationary flux balance, drive included."""
    with _criterion(4):
        rng = np.random.default_rng(19)
        for _ in range(500):
            cfg = random_config(rng, max_bc=0.98, with_delta=bool(rng.integers(0, 2)))
            sol = solve_closed_form(cfg)
            assert abs(sol.R + sol.T - 1.0) <= 1e-10
            prof = build_profile(sol, cfg, (-6, cfg.m + 6))
            inflow, outflow = flux_balance(prof, (-1, cfg.m + 1))
            assert abs(inflow - outflow) <= 1e-10


def test_criterion_5_three_way_agreement():
    """Closed form, linear system, and series limit coincide."""
    with _criterion(5):
        rng = np.random.default_rng(23)
        start = time.perf_counter()
        for _ in range(100):
            cfg = random_config(rng, max_bc=0.9, with_delta=bool(rng.integers(0, 2)))
            t_closed = solve_closed_form(cfg).t
            lin_sol, _ = solve_general(
                {0: cfg.barrier, cfg.m: cfg.barrier},
                cfg.delta,
                Injection.LEFT,
                cfg.p,
                cfg.q,
                window=(-3, cfg.m + 3),
            )
            limit = t_series_limit(cfg)
            t_series_route = limit * transmitted_tail_phase(cfg).conjugate()
            assert abs(t_closed - lin_sol.t) <= 1e-12
            assert abs(t_closed - t_series_route) <= 1e-12
            partial = t_series(cfg, 48)
            assert abs(partial.partial_sum - limit) <= partial.remainder_bound * (
                1.0 + 1e-12
            ) + 1e-15
        assert time.perf_counter() - start < 0.1


def test_criterion_6_chain_formula_equals_walk_route():
    """Continuum transmission formula agrees with the walk solver."""
    with _criterion(6):
        rng = np.random.default_rng(29)
        for _ in range(100):
            gp = GraphParams(
                alpha=rng.uniform(0.0, 6.0),
                s=rng.uniform(0.1, 3.0),
                m=int(rng.integers(1, 8)),
                k=rng.uniform(0.05, 7.0),
            )
            walk_T = solve_closed_form(to_tunneling_config(gp)).T
            assert abs(transmission_at_k(gp) - walk_T) <= 1e-12


def _independent_first_root() -> float:
    def wrapped(k):
        y = 1.0 / k
        return cmath.phase(-cmath.exp(6j * k) * (2.0 - 1j * y) / (2.0 + 1j * y))

    lo, hi = 0.6, 0.8
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if wrapped(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_7_spectrum_peaks_at_resonances():
    """The 4096-point transmission scan peaks exactly at the located
    perfect-transmission wave numbers."""
    with _criterion(7):
        start = time.perf_counter()
        spec = spectrum_scan(1.0, 1.0, 3, 0.1, 5.0, 4096)
        roots = find_resonances(1.0, 1.0, 3, 0.1, 5.0)
        k, T = (a.tolist() for a in spec.block(0, len(spec)))
        spacing = k[1] - k[0]

        peaks = [
            i
            for i in range(1, len(k) - 1)
            if T[i] >= T[i - 1] and T[i] >= T[i + 1] and (T[i] > T[i - 1] or T[i] > T[i + 1])
        ]
        assert len(peaks) == len(roots) == 5
        for i, root in zip(peaks, roots):
            assert abs(k[i] - root) <= spacing
            assert abs(T[i] - 1.0) <= 1e-4
        for root in roots:
            gp = GraphParams(1.0, 1.0, 3, root)
            assert resonance_residual(to_tunneling_config(gp)) < 1e-12

        first = _independent_first_root()
        assert abs(first - 0.725) < 1e-3
        assert abs(roots[0] - first) < 1e-9
        assert time.perf_counter() - start < 5.0


def test_criterion_8_drive_generalization():
    """Half-period drive with quarter phases stays perfectly
    transmitting through every solution route."""
    with _criterion(8):
        cfg = TunnelingConfig(
            p=math.pi / 2.0,
            q=math.pi / 2.0,
            barrier=half_wave_plate(math.pi / 8.0),
            m=2,
            delta=math.pi,
        )
        assert resonance_residual(cfg) <= 1e-10
        sol = solve_closed_form(cfg)
        assert abs(sol.T - 1.0) <= 1e-10
        lin_sol, _ = solve_general(
            {0: cfg.barrier, cfg.m: cfg.barrier},
            cfg.delta,
            Injection.LEFT,
            cfg.p,
            cfg.q,
        )
        assert abs(lin_sol.T - 1.0) <= 1e-10
        assert _closed_vs_evolved(cfg, 1e-8) < 1e-6


def test_criterion_9_edge_boundary_conditions():
    """Rebuilt edge waves are continuous at the marked vertices and
    their derivative jump matches the potential strength."""
    with _criterion(9):
        resonant = find_resonances(1.0, 1.0, 3, 0.1, 2.0)[0]
        for k in (resonant, 1.0):
            gp = GraphParams(1.0, 1.0, 3, k)
            cfg = to_tunneling_config(gp)
            prof = build_profile(solve_closed_form(cfg), cfg, (-6, gp.m + 6))
            h = 1e-6 * gp.s
            vertices = [(0, gp.alpha), (gp.m, gp.alpha)]
            vertices += [(u, 0.0) for u in (-2, -1, 1, 2, gp.m + 1)]
            for u, strength in vertices:
                rw = edge_wave(prof, gp, u, "rightward")
                lw = edge_wave(prof, gp, u, "leftward")
                assert abs(rw.value(0.0) - lw.value(0.0)) <= 1e-10

                def slope(w):
                    one = (w.value(h) - w.value(0.0)) / h
                    two = (w.value(2.0 * h) - w.value(0.0)) / (2.0 * h)
                    return 2.0 * one - two

                jump = slope(rw) + slope(lw)
                assert abs(jump - strength * rw.value(0.0)) <= 1e-8
