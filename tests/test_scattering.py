"""Stationary solvers: closed form, linear system, and the profile
contracts they share."""

import cmath
import math

import numpy as np
import pytest

from conftest import random_config, random_unitary
from dense_oracle import dense_solve
from qrtw.scattering import MAX_WINDOW_SITES
from qrtw import (
    AmplitudeProfile,
    DegenerateResonance,
    FullReflector,
    Injection,
    MarginViolation,
    ModelError,
    SingularSystem,
    TrivialBarrier,
    TunnelingConfig,
    WindowTooSmall,
    build_profile,
    config_from_json,
    flux_balance,
    free_coin,
    hadamard,
    half_wave_plate,
    make_coin,
    profile_from_csv,
    profile_max_difference,
    profile_to_csv,
    resonance_residual,
    solve_closed_form,
    solve_general,
    t_magnitude_via_beta,
)

SQRT2 = math.sqrt(2.0)


def _site_coin(cfg, x):
    if x in (0, cfg.m):
        return cfg.barrier
    return free_coin(cfg.p, cfg.q_shifted)


def _recursion_residual(profile: AmplitudeProfile, cfg: TunnelingConfig) -> float:
    """Sup-norm violation of the stationarity recursions over the
    interior of the window.  Zero for any true steady state."""
    lo, hi = profile.window
    worst = 0.0
    for x in range(lo, hi):
        nxt = _site_coin(cfg, x + 1)
        l_here = profile.at(x)[0]
        l_pred = nxt.a * profile.at(x + 1)[0] + nxt.b * profile.at(x + 1)[1]
        worst = max(worst, abs(l_here - l_pred))
    for x in range(lo + 1, hi + 1):
        prev = _site_coin(cfg, x - 1)
        r_here = profile.at(x)[1]
        r_pred = prev.c * profile.at(x - 1)[0] + prev.d * profile.at(x - 1)[1]
        worst = max(worst, abs(r_here - r_pred))
    return worst


def test_hadamard_pair_at_zero_phases_is_transparent():
    # frozen values: t = 1, r = 0, entry amplitude -1, exit amplitude -sqrt(2)
    cfg = TunnelingConfig(p=0.0, q=0.0, barrier=half_wave_plate(math.pi / 8), m=3)
    sol = solve_closed_form(cfg)
    assert abs(sol.t - 1.0) < 1e-14
    assert abs(sol.r) < 1e-14
    assert abs(sol.r_tilde - (-1.0)) < 1e-14
    assert abs(sol.t_tilde - (-SQRT2)) < 1e-14

    profile = build_profile(sol, cfg, (-4, 7))
    assert abs(profile.at(-1)[0]) < 1e-14
    assert abs(profile.at(-1)[1] - 1.0) < 1e-14
    assert abs(profile.at(0)[0] - (-1.0)) < 1e-14
    assert abs(profile.at(0)[1] - 1.0) < 1e-14
    assert abs(profile.at(3)[1] - (-SQRT2)) < 1e-14
    assert abs(profile.at(4)[1] - 1.0) < 1e-14
    for x in (0, 3):
        l, r = profile.at(x)
        assert abs(l) ** 2 + abs(r) ** 2 == pytest.approx(2.0)


def test_hadamard_pair_quarter_phases():
    # frozen values: t = -1/3, r = i 2 sqrt(2)/3, T = 1/9
    cfg = TunnelingConfig(p=math.pi / 2, q=math.pi / 2, barrier=hadamard(), m=2)
    sol = solve_closed_form(cfg)
    assert abs(sol.t - (-1.0 / 3.0)) < 1e-14
    assert abs(sol.r - (2.0 * SQRT2 / 3.0) * 1j) < 1e-14
    assert sol.T == pytest.approx(1.0 / 9.0)
    assert sol.R == pytest.approx(8.0 / 9.0)


def test_closed_form_profile_satisfies_recursions():
    rng = np.random.default_rng(101)
    for _ in range(30):
        cfg = random_config(rng, with_delta=bool(rng.integers(0, 2)))
        sol = solve_closed_form(cfg)
        profile = build_profile(sol, cfg, (-6, cfg.m + 6))
        assert _recursion_residual(profile, cfg) < 1e-12


def test_unitarity_of_scattering_data():
    rng = np.random.default_rng(103)
    for _ in range(200):
        cfg = random_config(rng, with_delta=True)
        sol = solve_closed_form(cfg)
        assert abs(sol.R + sol.T - 1.0) < 1e-12


def test_closed_form_agrees_with_linear_system():
    rng = np.random.default_rng(107)
    for _ in range(60):
        cfg = random_config(rng, with_delta=bool(rng.integers(0, 2)))
        sol = solve_closed_form(cfg)
        gen_sol, gen_prof = solve_general(
            {0: cfg.barrier, cfg.m: cfg.barrier},
            cfg.delta,
            Injection.LEFT,
            cfg.p,
            cfg.q,
        )
        assert abs(sol.t - gen_sol.t) < 1e-10
        assert abs(sol.r - gen_sol.r) < 1e-10
        closed_prof = build_profile(sol, cfg, gen_prof.window)
        assert profile_max_difference(closed_prof, gen_prof) < 1e-10


def test_general_solver_handles_three_defects():
    rng = np.random.default_rng(109)
    coins = {0: random_unitary(rng, 0.3), 2: random_unitary(rng, 0.5), 5: random_unitary(rng, 0.2)}
    sol, prof = solve_general(coins, 0.0, Injection.LEFT, 0.4, -0.9)
    assert abs(sol.R + sol.T - 1.0) < 1e-12
    inflow, outflow = flux_balance(prof, (-1, 6))
    assert inflow == pytest.approx(1.0)
    assert abs(inflow - outflow) < 1e-12


def test_general_solver_right_injection():
    # mirror-symmetric arrangement: both injection sides see the same T
    cfg = TunnelingConfig(p=0.7, q=0.7, barrier=half_wave_plate(0.5), m=3)
    coins = {0: cfg.barrier, cfg.m: cfg.barrier}
    left_sol, _ = solve_general(coins, 0.0, Injection.LEFT, cfg.p, cfg.q)
    right_sol, right_prof = solve_general(coins, 0.0, Injection.RIGHT, cfg.p, cfg.q)
    assert abs(right_sol.R + right_sol.T - 1.0) < 1e-12
    assert abs(left_sol.T - right_sol.T) < 1e-12
    assert right_sol.injection is Injection.RIGHT
    assert _recursion_residual(right_prof, cfg) < 1e-12


def test_single_defect_reflection_formula():
    # one defect: r = b e^{ip} exactly and |t| = |d|
    rng = np.random.default_rng(113)
    for _ in range(20):
        u = random_unitary(rng)
        p, q = rng.uniform(-math.pi, math.pi, 2)
        sol, _ = solve_general({0: u}, 0.0, Injection.LEFT, p, q)
        assert abs(sol.r - u.b * cmath.exp(1j * p)) < 1e-12
        assert abs(abs(sol.t) - abs(u.d)) < 1e-12


def test_degenerate_resonance_raises():
    swap = make_coin(0.0, 1.0, 1.0, 0.0)
    cfg = TunnelingConfig(p=0.0, q=0.0, barrier=swap, m=2)
    with pytest.raises(DegenerateResonance):
        solve_closed_form(cfg)
    with pytest.raises(SingularSystem):
        solve_general({0: swap, 2: swap}, 0.0, Injection.LEFT, 0.0, 0.0)


def test_full_reflector_off_resonance_matches_general():
    # |bc| = 1 but the loop phase keeps the system regular: T = 0, |r| = 1
    swap = make_coin(0.0, 1.0, 1.0, 0.0)
    cfg = TunnelingConfig(p=math.pi / 3, q=math.pi / 3, barrier=swap, m=2)
    sol = solve_closed_form(cfg)
    assert sol.T == pytest.approx(0.0)
    assert abs(sol.r) == pytest.approx(1.0)
    prof = build_profile(sol, cfg, (-5, 7))
    assert _recursion_residual(prof, cfg) < 1e-12
    _, gen_prof = solve_general({0: swap, 2: swap}, 0.0, Injection.LEFT, cfg.p, cfg.q, window=(-5, 7))
    assert profile_max_difference(prof, gen_prof) < 1e-12


@pytest.mark.parametrize("a_mag", [1e-4, 1e-10, 1e-13])
def test_closed_form_profile_holds_precision_as_diagonal_vanishes(a_mag):
    # the interior amplitudes carry no quotient by a or d, so nothing is lost as |a| -> 0
    rng = np.random.default_rng(139)
    for _ in range(10):
        u = random_unitary(rng, a_mag=a_mag)
        p, q, delta = rng.uniform(-math.pi, math.pi, 3)
        cfg = TunnelingConfig(p=p, q=q, barrier=u, m=int(rng.integers(1, 9)), delta=delta)
        _, gen_prof = solve_general({0: u, cfg.m: u}, delta, Injection.LEFT, p, q)
        closed_prof = build_profile(solve_closed_form(cfg), cfg, gen_prof.window)
        assert profile_max_difference(closed_prof, gen_prof) < 1e-12


def test_build_profile_rejects_right_injection():
    cfg = TunnelingConfig(p=0.7, q=0.2, barrier=hadamard(), m=3)
    sol, _ = solve_general({0: cfg.barrier, 3: cfg.barrier}, 0.0, Injection.RIGHT, cfg.p, cfg.q)
    with pytest.raises(ModelError):
        build_profile(sol, cfg, (-5, 8))


def test_general_solver_matches_dense_oracle():
    # |bc| <= 0.9 as in random_config: stronger cavities amplify input rounding
    # in every solver alike, past 1e-12
    rng = np.random.default_rng(211)
    for k in range(200):
        hull = int(rng.integers(1, 41))
        x0 = int(rng.integers(-20, 21))
        inner = rng.integers(x0, x0 + hull, size=int(rng.integers(0, 7))).tolist()
        coins = {
            x: random_unitary(rng, rng.uniform(0.0, 0.9))
            for x in sorted({x0, x0 + hull - 1, *inner})
        }
        delta = rng.uniform(-math.pi, math.pi) if k % 2 else 0.0
        p, q = rng.uniform(-math.pi, math.pi, 2)
        for injection in Injection:
            r, t, psi_l, psi_r = dense_solve(coins, delta, injection, p, q)
            sol, prof = solve_general(coins, delta, injection, p, q)
            assert sol.injection is injection
            assert abs(sol.r - r) < 1e-12
            assert abs(sol.t - t) < 1e-12
            hull_sites = slice(x0 - prof.x_min, x0 - prof.x_min + hull)
            assert np.max(np.abs(prof.psi_l[hull_sites] - psi_l)) < 1e-12
            assert np.max(np.abs(prof.psi_r[hull_sites] - psi_r)) < 1e-12


def test_build_profile_window_too_small():
    cfg = TunnelingConfig(p=0.0, q=0.0, barrier=hadamard(), m=3)
    sol = solve_closed_form(cfg)
    with pytest.raises(WindowTooSmall):
        build_profile(sol, cfg, (0, 10))
    with pytest.raises(WindowTooSmall):
        build_profile(sol, cfg, (-5, 3))


def test_resonance_residual_zero_iff_transparent():
    m = 2
    hits = 0
    for j in range(12):
        for i in range(12):
            half = j * math.pi / 12.0
            theta = (2 * i + 1) * math.pi / 48.0
            cfg = TunnelingConfig(p=half, q=half, barrier=half_wave_plate(theta), m=m)
            res = resonance_residual(cfg)
            t_err = abs(solve_closed_form(cfg).T - 1.0)
            assert (res <= 1e-12) == (t_err <= 1e-10)
            hits += res <= 1e-12
    assert hits == 12  # j = 0 only, all 12 theta values


def test_resonance_residual_guards():
    free = free_coin(0.2, 0.3)
    with pytest.raises(TrivialBarrier):
        resonance_residual(TunnelingConfig(p=0.2, q=0.3, barrier=free, m=1))
    swap = make_coin(0.0, cmath.exp(0.3j), cmath.exp(0.9j), 0.0)
    with pytest.raises(FullReflector):
        resonance_residual(TunnelingConfig(p=0.0, q=0.0, barrier=swap, m=2))


def test_t_magnitude_via_beta_rejects_full_reflector_on_resonance():
    # the swap coin has |beta|**2 = 1, and at p = q = 0 its bounce loop has e^{i*theta} = 1
    swap = make_coin(0.0, 1.0, 1.0, 0.0)
    with pytest.raises(FullReflector):
        t_magnitude_via_beta(TunnelingConfig(p=0.0, q=0.0, barrier=swap, m=3))


def test_t_magnitude_via_beta_matches_closed_form():
    rng = np.random.default_rng(127)
    for _ in range(200):
        cfg = random_config(rng, with_delta=True)
        assert abs(t_magnitude_via_beta(cfg) - abs(solve_closed_form(cfg).t)) < 1e-12


def test_flux_balance_on_stationary_profile():
    rng = np.random.default_rng(131)
    for _ in range(40):
        cfg = random_config(rng, with_delta=True)
        sol = solve_closed_form(cfg)
        prof = build_profile(sol, cfg, (-8, cfg.m + 8))
        inflow, outflow = flux_balance(prof, (-1, cfg.m + 1))
        assert inflow == pytest.approx(1.0)
        assert abs(inflow - outflow) < 1e-12


def test_flux_balance_margin_checks():
    cfg = TunnelingConfig(p=0.0, q=0.0, barrier=hadamard(), m=2)
    prof = build_profile(solve_closed_form(cfg), cfg, (-4, 6))
    with pytest.raises(MarginViolation):
        flux_balance(prof, (-4, 3))
    with pytest.raises(MarginViolation):
        flux_balance(prof, (-1, 6))
    with pytest.raises(ModelError):
        flux_balance(prof, (2, 1))


def test_profile_accessors():
    cfg = TunnelingConfig(p=0.1, q=0.2, barrier=hadamard(), m=1)
    prof = build_profile(solve_closed_form(cfg), cfg, (-3, 4))
    assert prof.window == (-3, 4)
    assert len(prof.psi_l) == len(prof.psi_r) == len(range(prof.x_min, prof.x_max + 1)) == 8
    with pytest.raises(IndexError):
        prof.at(5)
    with pytest.raises(IndexError):
        prof.at(-4)


def test_profile_arrays_are_read_only():
    cfg = TunnelingConfig(p=0.1, q=0.2, barrier=hadamard(), m=1)
    prof = build_profile(solve_closed_form(cfg), cfg, (-3, 4))
    with pytest.raises(ValueError):
        prof.psi_l[0] = 1.0


def test_profile_csv_round_trip_is_exact():
    rng = np.random.default_rng(137)
    cfg = random_config(rng, with_delta=True)
    prof = build_profile(solve_closed_form(cfg), cfg, (-5, cfg.m + 5))
    again = profile_from_csv("".join(profile_to_csv(prof)))
    assert again.window == prof.window
    assert profile_max_difference(prof, again) == 0.0


def test_profile_csv_rejects_malformed():
    with pytest.raises(ModelError):
        profile_from_csv("x,psiL_re\n0,1\n")
    good = "x,psiL_re,psiL_im,psiR_re,psiR_im,mu\n"
    with pytest.raises(ModelError):
        profile_from_csv(good + "0,1,0,0,0\n")
    with pytest.raises(ModelError):
        profile_from_csv(good + "0,1,0,0,0,1\n2,1,0,0,0,1\n")
    for row in ("abc,1,1,1,1,1", "0,zz,1,1,1,1"):
        with pytest.raises(ModelError, match="malformed number: " + repr(row)):
            profile_from_csv(good + row + "\n")


def _zero_profile(lo, hi):
    return AmplitudeProfile(lo, hi, np.zeros(hi - lo + 1), np.zeros(hi - lo + 1))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: AmplitudeProfile(1, 0, [], []), "window is empty"),
        (lambda: AmplitudeProfile(0, 2, [0j] * 3, [0j] * 2), "psi_r has 2 entries for a window of 3 sites"),
        (lambda: solve_general({}, 0.0, Injection.LEFT, 0.1, 0.2), "at least one defect coin"),
        (lambda: solve_general({0.5: hadamard()}, 0.0, Injection.LEFT, 0.1, 0.2), "0.5 is not an integer"),
        (lambda: solve_general({0: "hadamard"}, 0.0, Injection.LEFT, 0.1, 0.2), "defect at 0 is not a Coin"),
        (lambda: profile_max_difference(_zero_profile(-3, 0), _zero_profile(1, 4)), "do not overlap"),
        (lambda: profile_from_csv("x,psiL_re,psiL_im,psiR_re,psiR_im,mu\n"), "no data rows"),
    ],
    ids=["empty-window", "wrong-length", "no-defects", "fractional-position", "not-a-coin",
         "disjoint-windows", "header-only"],
)
def test_malformed_library_input_is_model_error(call, message):
    with pytest.raises(ModelError, match=message):
        call()


def test_config_json_round_trip():
    cfg = TunnelingConfig(p=0.3, q=-0.7, barrier=hadamard(), m=4, delta=1.1)
    h = cfg.barrier
    barrier = {k: [z.real, z.imag] for k, z in zip("abcd", (h.a, h.b, h.c, h.d))}
    again = config_from_json({"p": cfg.p, "q": cfg.q, "barrier": barrier, "m": cfg.m, "delta": cfg.delta})
    assert (again.p, again.q, again.m, again.delta) == (cfg.p, cfg.q, cfg.m, cfg.delta)
    assert again.barrier.b == cfg.barrier.b


def test_config_validation():
    with pytest.raises(ModelError):
        TunnelingConfig(p=0.0, q=0.0, barrier=hadamard(), m=0)
    with pytest.raises(ModelError):
        TunnelingConfig(p=0.0, q=0.0, barrier="hadamard", m=1)


def test_solve_general_window_contract():
    cfg = TunnelingConfig(p=0.2, q=0.1, barrier=hadamard(), m=2)
    coins = {0: cfg.barrier, 2: cfg.barrier}
    _, prof = solve_general(coins, 0.0, Injection.LEFT, cfg.p, cfg.q, window=(-9, 11))
    assert prof.window == (-9, 11)
    assert _recursion_residual(prof, cfg) < 1e-12
    with pytest.raises(WindowTooSmall):
        solve_general(coins, 0.0, Injection.LEFT, cfg.p, cfg.q, window=(0, 11))


def test_solve_general_bounds_hull_and_window(no_window_arrays):
    u = hadamard()
    with pytest.raises(ModelError, match="defect hull .* limit of 10000000"):
        solve_general({0: u, MAX_WINDOW_SITES: u}, 0.0, Injection.LEFT, 0.3, 0.5)
    with pytest.raises(ModelError, match="window .* limit of 10000000"):
        solve_general({0: u, 3: u}, 0.0, Injection.RIGHT, 0.3, 0.5, window=(-MAX_WINDOW_SITES, 4))
