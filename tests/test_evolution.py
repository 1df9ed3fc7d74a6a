"""Direct stepping: mechanics, conservation, and convergence to the
stationary solvers."""

import cmath
import hashlib
import math
import tracemalloc
from collections import deque

import numpy as np
import pytest

from conftest import random_config
from qrtw import (
    ConvergenceReport,
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
from qrtw import evolution
from qrtw.evolution import MAX_SITE_STEPS, _full_pass, check_work, default_max_steps, default_window
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
    # the bounds the CLI's --tol and --max-steps hold, checked before the first step
    cfg = TunnelingConfig(p=0.7, q=-1.3, barrier=hadamard(), m=20)
    for tol in (math.nan, math.inf, -1e-8):
        state = init_lattice(cfg)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            run_to_convergence(state, tol=tol)
        assert state.n == 0
    for max_steps in (0, -3):
        state = init_lattice(cfg)
        with pytest.raises(ValueError, match="max_steps must be at least 1"):
            run_to_convergence(state, max_steps=max_steps)
        assert state.n == 0


def test_max_steps_must_be_an_integer():
    # 2.5 once raised a bare TypeError; the documented error is a ValueError
    state = init_lattice(TunnelingConfig(p=0.7, q=-1.3, barrier=hadamard(), m=20))
    with pytest.raises(ValueError, match="max_steps must be an integer"):
        run_to_convergence(state, max_steps=2.5)
    assert state.n == 0


def test_init_lattice_window_bounds_must_be_integers():
    cfg = TunnelingConfig(p=0.7, q=-1.3, barrier=hadamard(), m=3)
    with pytest.raises(ModelError, match="window bound must be an integer"):
        init_lattice(cfg, (math.nan, 20))


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
    assert not np.shares_memory(state.psi_l, front[0]) and not np.shares_memory(state.psi_r, front[1])
    assert step(state) is state
    assert state.n == 2
    assert state.injection_phase == cmath.exp(0.7j) * cmath.exp(0.7j)
    # two steps bring back the buffers of n = 0
    assert np.shares_memory(state.psi_l, front[0]) and np.shares_memory(state.psi_r, front[1])


def test_step_allocates_no_window_array():
    # the evolve-snapshots size: 4,241 sites, where one window array is 68 kB
    cfg = TunnelingConfig(p=0.7, q=-1.3, barrier=half_wave_plate(math.pi / 8), m=200, delta=0.3)
    state = init_lattice(cfg)
    for _ in range(10):
        step(state)
    tracemalloc.start()
    try:
        for _ in range(200):
            step(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(state.psi_l) == 4241
    assert peak < 4096


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
    # the evolve-snapshots run: 4,241 sites for up to 40,200 steps
    assert check_work(cfg, None, None, "--m") == (4241, 40200)
    sites = (-2, 9997)  # 10^4 sites
    check_work(cfg, sites, MAX_SITE_STEPS // 10**4, "--max-steps")
    with pytest.raises(ModelError, match=r"is 1\.0e\+10 site-steps, over the limit of 1e\+10; lower --max-steps"):
        check_work(cfg, sites, MAX_SITE_STEPS // 10**4 + 1, "--max-steps")


def _back(state):
    """The amplitudes ``(psi_l, psi_r)`` from before the last step."""
    return tuple(state._psi[1 - state._front])


def _allocating_residual(state):
    """The residual as written before it moved into the state's buffers."""
    undo = cmath.exp(-1j * state.cfg.delta)
    back_l, back_r = _back(state)
    dl = np.max(np.abs(undo * state.psi_l[2:-2] - back_l[2:-2]))
    dr = np.max(np.abs(undo * state.psi_r[2:-2] - back_r[2:-2]))
    return float(max(dl, dr))


@pytest.mark.parametrize("delta", [0.0, 0.37])
def test_residual_equals_the_allocating_formula(delta):
    cfg = TunnelingConfig(p=0.7, q=-1.3, barrier=_rotation_with_bc(0.5), m=20, delta=delta)
    state = init_lattice(cfg)
    for _ in range(1500):
        step(state)
        assert _full_pass(state)[0] == _allocating_residual(state)


def _reference_run(state, tol, max_steps, on_step=None):
    """run_to_convergence with a full residual every step and the rate
    read from a deque of the last three round trips of residuals."""
    round_trip = 2 * state.cfg.m
    span = 3 * round_trip
    history = deque(maxlen=span + 1)
    residual = math.inf
    for _ in range(max_steps):
        residual = _allocating_residual(step(state))
        history.append(residual)
        if on_step is not None:
            on_step(state)
        if residual < tol:
            break
    else:
        raise NoConvergence(
            f"no convergence after {max_steps} steps: residual {residual:.3e} above tol {tol:.3e}"
        )
    rate = None
    if len(history) > span and history[0] > 0 and history[-1] > 0:
        rate = (history[-1] / history[0]) ** (round_trip / span)
    return state.profile(), ConvergenceReport(state.n, residual, rate, round_trip)


def _outcome(run, cfg, window, tol, max_steps):
    """Everything a run leaves, as bytes and exact floats: the report or
    the NoConvergence text, the profile, every buffer of the final state,
    and a digest of what ``on_step`` saw at each step."""
    state = init_lattice(cfg, window)
    seen = hashlib.sha256()

    def on_step(s):
        seen.update(b"".join((s.n.to_bytes(8, "little"), repr(s.injection_phase).encode(), s.psi_l, s.psi_r)))

    try:
        profile, report = run(state, tol, max_steps, on_step)
    except NoConvergence as exc:
        result = str(exc)
    else:
        rate = report.rate_per_round_trip
        result = (
            report.steps,
            report.residual.hex(),
            None if rate is None else rate.hex(),
            report.round_trip_steps,
            profile.psi_l.tobytes(),
            profile.psi_r.tobytes(),
        )
    buffers = (state.psi_l, state.psi_r, *_back(state))
    return result, state.n, state.injection_phase, [b.tobytes() for b in buffers], norm_check(state), seen.hexdigest()


def _witness_cases():
    rng = np.random.default_rng(509)
    drawn = [
        pytest.param(random_config(rng, with_delta=driven), None, 1e-8, None, id=f"seeded-{i}-delta-{driven}")
        for i in range(3)
        for driven in (False, True)
    ]
    return drawn + [
        pytest.param(
            TunnelingConfig(p=0.0, q=0.0, barrier=half_wave_plate(math.pi / 8), m=3), None, 1e-8, None,
            id="corollary3",
        ),
        pytest.param(
            TunnelingConfig(p=0.7, q=-1.3, barrier=hadamard(), m=40, delta=0.4), None, 1e-8, None,
            id="driven-p-q",
        ),
        # no scattering: the front leaves a short window within 6m steps, so no rate
        pytest.param(
            TunnelingConfig(p=0.4, q=-1.3, barrier=free_coin(0.4, -1.3), m=20), (-4, 26), 1e-8, None,
            id="no-rate",
        ),
        # the budget runs out: at its last step the witness still shows a change
        pytest.param(
            TunnelingConfig(p=0.7, q=-1.3, barrier=hadamard(), m=40), None, 1e-8, 1000,
            id="budget",
        ),
        pytest.param(
            TunnelingConfig(p=0.7, q=-1.3, barrier=hadamard(), m=4, delta=-2.1), (-20, 30), 1e-300, 300,
            id="budget-driven",
        ),
    ]


@pytest.mark.parametrize("cfg, window, tol, max_steps", _witness_cases())
def test_witnessed_run_equals_a_full_residual_every_step(cfg, window, tol, max_steps):
    budget = max_steps if max_steps is not None else default_max_steps(cfg)
    reference = _outcome(_reference_run, cfg, window, tol, budget)
    ours = _outcome(run_to_convergence, cfg, window, tol, max_steps)
    assert ours == reference
    result = ours[0]
    if max_steps is not None:
        assert result.startswith(f"no convergence after {max_steps} steps")
    elif window is not None:
        assert result[0] <= 6 * cfg.m and result[2] is None
    else:
        assert result[0] > 6 * cfg.m and result[2] is not None


def test_snapshot_run_takes_few_full_passes(monkeypatch):
    # the evolve-snapshots size: 4,241 sites, 12,420 steps
    passes = []
    full_pass = evolution._full_pass

    def counted(state):
        passes.append(state.n)
        return full_pass(state)

    monkeypatch.setattr(evolution, "_full_pass", counted)
    cfg = TunnelingConfig(p=0.7, q=-1.3, barrier=half_wave_plate(math.pi / 8), m=200)
    _, report = run_to_convergence(init_lattice(cfg))
    assert report.steps == 12_420
    assert len(passes) <= report.steps // 100
