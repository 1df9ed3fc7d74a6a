"""Direct stepping: mechanics, conservation, and convergence to the
stationary solvers."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_config
from qrtw import (
    EvolutionState,
    ModelError,
    NoConvergence,
    TunnelingConfig,
    WindowTooSmall,
    build_profile,
    free_coin,
    hadamard,
    half_wave_plate,
    init_lattice,
    make_coin,
    norm_check,
    profile_max_difference,
    run_to_convergence,
    solve_closed_form,
    step,
)
from qrtw.evolution import MAX_SITE_STEPS, _compensated_residual, check_work, default_max_steps, default_window
from qrtw.scattering import MAX_WINDOW_SITES


def test_default_window_covers_barriers():
    for m in (1, 3, 8):
        cfg = TunnelingConfig(p=0.0, q=0.0, barrier=hadamard(), m=m)
        lo, hi = default_window(cfg)
        assert lo <= -2 and hi >= m + 2


def _rotation_with_bc(mag):
    theta = math.asin(math.sqrt(mag))
    return make_coin(
        math.cos(theta), math.sin(theta), -math.sin(theta), math.cos(theta)
    )


def test_default_max_steps_grows_with_bounce_strength():
    weak = TunnelingConfig(p=0.0, q=0.0, barrier=_rotation_with_bc(0.1), m=2)
    strong = TunnelingConfig(p=0.0, q=0.0, barrier=_rotation_with_bc(0.95), m=2)
    assert default_max_steps(strong) > default_max_steps(weak)


def test_init_lattice_plane_wave_tail():
    cfg = TunnelingConfig(p=0.3, q=0.7, barrier=hadamard(), m=2, delta=0.5)
    state = init_lattice(cfg, (-6, 6))
    for x in range(-6, 0):
        expect = cmath.exp(1j * cfg.q_shifted * x)
        assert abs(complex(state.psi_r[x - state.x_min]) - expect) < 1e-15
    assert np.all(state.psi_l == 0)
    assert np.all(state.psi_r[6:] == 0)


def test_window_must_cover_barriers():
    cfg = TunnelingConfig(p=0.0, q=0.0, barrier=hadamard(), m=3)
    with pytest.raises(WindowTooSmall):
        init_lattice(cfg, (-1, 10))
    with pytest.raises(WindowTooSmall):
        init_lattice(cfg, (-5, 4))


def test_free_transport_shifts_the_packet():
    # barrier equal to the free coin makes the lattice homogeneous, so a
    # lone right mover must march one site per step picking up e^{iq};
    # the plane wave injected at the left edge fills only the first three
    # sites in three steps, so the packet is checked past that front
    p, q = 0.4, -1.3
    cfg = TunnelingConfig(p=p, q=q, barrier=free_coin(p, q), m=1)
    lo, hi = -8, 8
    state = EvolutionState(cfg, lo, hi)
    state.psi_r[-5 - lo] = 1.0
    for _ in range(3):
        state = step(state)
    expect = cmath.exp(1j * q * 3)
    assert abs(complex(state.psi_r[-2 - lo]) - expect) < 1e-14
    assert np.count_nonzero(np.abs(state.psi_r[3:]) > 1e-14) == 1
    assert np.all(np.abs(state.psi_l) < 1e-14)


def test_stationary_profile_is_a_fixed_point():
    # one step through the full model, drive included, reproduces the
    # closed-form profile exactly
    rng = np.random.default_rng(307)
    for _ in range(10):
        cfg = random_config(rng, with_delta=True)
        sol = solve_closed_form(cfg)
        prof = build_profile(sol, cfg, (-7, cfg.m + 7))
        state = EvolutionState(cfg, *prof.window)
        state.psi_l[:] = prof.psi_l
        state.psi_r[:] = prof.psi_r
        after = step(state).profile()
        assert profile_max_difference(prof, after) < 1e-12


def test_norm_check_is_tight_during_transient():
    for delta in (0.0, 1.1):
        cfg = TunnelingConfig(
            p=0.2, q=-0.5, barrier=hadamard(), m=2, delta=delta
        )
        state = init_lattice(cfg, (-20, 22))
        assert norm_check(state) == 0.0
        for _ in range(50):
            state = step(state)
            assert abs(norm_check(state)) < 1e-12


def test_convergence_matches_closed_form():
    rng = np.random.default_rng(311)
    cfg = random_config(rng, max_bc=0.6, m_hi=3)
    profile, report = run_to_convergence(init_lattice(cfg), tol=1e-8)
    assert report.residual < 1e-8
    assert report.steps > 0
    ref = build_profile(solve_closed_form(cfg), cfg, profile.window)
    lo, hi = profile.window
    assert profile_max_difference(profile, ref, lo + 2, hi - 2) < 1e-6


def test_convergence_rate_tracks_bounce_strength():
    cfg = TunnelingConfig(p=0.9, q=0.4, barrier=hadamard(), m=2)
    _, report = run_to_convergence(init_lattice(cfg), tol=1e-10)
    assert report.round_trip_steps == 2 * cfg.m
    assert report.rate_per_round_trip == pytest.approx(abs(cfg.bc), rel=0.02)


def test_no_convergence_budget():
    cfg = TunnelingConfig(p=0.0, q=0.0, barrier=hadamard(), m=2)
    with pytest.raises(NoConvergence, match="7 steps"):
        run_to_convergence(init_lattice(cfg), tol=1e-12, max_steps=7)


def test_long_run_keeps_a_bounded_residual_history():
    # 5000 residuals held as floats would take about 160 kB; the rate fit
    # needs only the last 3 round trips of them
    cfg = TunnelingConfig(p=0.0, q=0.0, barrier=half_wave_plate(0.783), m=3)
    state = init_lattice(cfg, (-6, 9))
    tracemalloc.start()
    try:
        with pytest.raises(NoConvergence):
            run_to_convergence(state, tol=1e-300, max_steps=5000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32_000


def test_full_reflector_still_converges():
    # nothing enters the gap, so the reflected pattern settles exactly
    swap = make_coin(0.0, 1.0, 1.0, 0.0)
    cfg = TunnelingConfig(p=math.pi / 3, q=math.pi / 3, barrier=swap, m=2)
    profile, report = run_to_convergence(init_lattice(cfg, (-15, 17)), tol=1e-12)
    sol = solve_closed_form(cfg)
    ref = build_profile(sol, cfg, profile.window)
    lo, hi = profile.window
    assert profile_max_difference(profile, ref, lo + 2, hi - 2) < 1e-10
    assert abs(complex(profile.at(-3)[0])) == pytest.approx(1.0)


def test_tol_validation():
    cfg = TunnelingConfig(p=0.0, q=0.0, barrier=hadamard(), m=1)
    with pytest.raises(ValueError):
        run_to_convergence(init_lattice(cfg), tol=0.0)


def test_on_step_sees_every_state():
    cfg = TunnelingConfig(p=0.1, q=0.1, barrier=hadamard(), m=1)
    seen = []
    run_to_convergence(init_lattice(cfg), tol=1e-6, on_step=lambda s: seen.append(s.n))
    assert seen == list(range(1, len(seen) + 1))


def test_step_advances_the_state_in_place():
    cfg = TunnelingConfig(p=0.2, q=-0.5, barrier=hadamard(), m=2, delta=0.7)
    state = init_lattice(cfg, (-12, 14))
    front = (state.psi_l, state.psi_r)
    assert step(state) is state
    assert state.n == 1
    assert state.injection_phase == cmath.exp(0.7j)
    assert state.psi_l is not front[0] and state.psi_r is not front[1]
    assert step(state) is state
    assert state.n == 2
    assert state.injection_phase == cmath.exp(0.7j) * cmath.exp(0.7j)
    # two steps bring back the arrays of n = 0: no window array per step
    assert state.psi_l is front[0] and state.psi_r is front[1]


def test_profile_is_a_copy_of_the_moving_state():
    cfg = TunnelingConfig(p=0.2, q=-0.5, barrier=hadamard(), m=2)
    state = init_lattice(cfg, (-12, 14))
    before = state.profile()
    step(state)
    after = state.profile()
    assert profile_max_difference(before, after) > 0.1
    assert profile_max_difference(before, init_lattice(cfg, (-12, 14)).profile()) == 0.0


def test_oversize_window_is_refused_before_allocation(no_window_arrays):
    cfg = TunnelingConfig(p=0.0, q=0.0, barrier=hadamard(), m=3)
    with pytest.raises(ModelError, match="limit of 10000000"):
        init_lattice(cfg, (-MAX_WINDOW_SITES, 5))


def test_work_limit_admits_the_snapshot_run_and_refuses_past_it(no_window_arrays):
    cfg = TunnelingConfig(p=0.7, q=-1.3, barrier=half_wave_plate(math.pi / 8), m=200)
    check_work(cfg, None, None, "--m")  # the evolve-snapshots run: 4,241 sites for up to 40,200 steps
    sites = (-2, 9997)  # 10^4 sites
    check_work(cfg, sites, MAX_SITE_STEPS // 10**4, "--max-steps")
    with pytest.raises(ModelError, match=r"is 1\.0e\+10 site-steps, over the limit of 1e\+10; lower --max-steps"):
        check_work(cfg, sites, MAX_SITE_STEPS // 10**4 + 1, "--max-steps")


@pytest.mark.parametrize("delta", [0.0, 0.37])
def test_residual_equals_the_allocating_formula(delta):
    def reference(state):
        # the residual as written before it moved into the state's buffers
        undo = cmath.exp(-1j * state.cfg.delta)
        dl = np.max(np.abs(undo * state.psi_l[2:-2] - state._back_l[2:-2]))
        dr = np.max(np.abs(undo * state.psi_r[2:-2] - state._back_r[2:-2]))
        return float(max(dl, dr))

    cfg = TunnelingConfig(p=0.7, q=-1.3, barrier=_rotation_with_bc(0.5), m=20, delta=delta)
    state = init_lattice(cfg)
    for _ in range(1500):
        step(state)
        assert _compensated_residual(state) == reference(state)
