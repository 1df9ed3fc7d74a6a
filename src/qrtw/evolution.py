"""Direct time stepping of the walk on a finite window.

The window carries exact plane-wave boundary data: the right mover
entering at the left edge is set to its driven plane-wave value each
step, the left mover entering at the right edge to zero.  Both are
exact rather than absorbing because the free coin is diagonal, so the
channels decouple outside the defects and no boundary reflections
occur.

With a nonzero drive ``delta`` every step multiplies the field by
``exp(i*delta)`` on top of the coin action, and the injected boundary
value accumulates the same phase; convergence is judged on the
drive-compensated difference, and :meth:`EvolutionState.profile`
returns the compensated amplitudes so the limit is directly comparable
to the stationary solvers.
"""

from __future__ import annotations

import cmath
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError, NoConvergence, WindowTooSmall
from .scattering import AmplitudeProfile, TunnelingConfig, check_window_sites

__all__ = [
    "ConvergenceReport",
    "EvolutionState",
    "init_lattice",
    "norm_check",
    "run_to_convergence",
    "step",
]


def default_window(cfg: TunnelingConfig) -> tuple[int, int]:
    """Window wide enough that boundary effects stay negligible."""
    pad = 10 * cfg.m + 20
    return (-pad, cfg.m + pad)


def default_max_steps(cfg: TunnelingConfig) -> int:
    """Step budget scaled to the bounce decay rate."""
    return math.ceil(100.0 * (cfg.m + 1) / max(1.0 - abs(cfg.bc), 0.01))


MAX_SITE_STEPS = 10**10
"""The most evolution work :func:`check_work` admits: window sites times
the step budget, about three minutes of stepping at 17 ns a site-step."""


def check_work(
    cfg: TunnelingConfig, window: tuple[int, int] | None, max_steps: int | None, lower: str
) -> None:
    """ModelError, before anything is allocated, if the window (default
    :func:`default_window`) is refused by :func:`init_lattice` or if its
    sites times the step budget (default :func:`default_max_steps`) pass
    :data:`MAX_SITE_STEPS`; the message names the product and ``lower``,
    the inputs that shrink it."""
    lo, hi = _check_window(cfg, window if window is not None else default_window(cfg))
    steps = max_steps if max_steps is not None else default_max_steps(cfg)
    work = (hi - lo + 1) * steps
    if work > MAX_SITE_STEPS:
        raise ModelError(
            f"evolving {hi - lo + 1} sites for up to {steps} steps is {work:.1e} site-steps, "
            f"over the limit of {MAX_SITE_STEPS:.0e}; lower {lower}"
        )


def _check_window(cfg: TunnelingConfig, window: tuple[int, int]) -> tuple[int, int]:
    lo, hi = int(window[0]), int(window[1])
    if lo > -2 or hi < cfg.m + 2:
        raise WindowTooSmall(f"window [{lo}, {hi}] must contain [-2, {cfg.m + 2}]")
    check_window_sites(lo, hi)
    return lo, hi


def _site_coins(cfg: TunnelingConfig, x_min: int, x_max: int) -> np.ndarray:
    """Read-only ``(4, sites)`` array of the coin entries ``a, b, c, d``."""
    coins = np.zeros((4, x_max - x_min + 1), dtype=complex)
    coins[0] = cmath.exp(1j * cfg.p)
    coins[3] = cmath.exp(1j * cfg.q_shifted)
    u = cfg.barrier
    for pos in (0, cfg.m):
        coins[:, pos - x_min] = (u.a, u.b, u.c, u.d)
    coins.setflags(write=False)
    return coins


@dataclass(eq=False)
class EvolutionState:
    """The windowed walk at step ``n``, advanced in place by :func:`step`.

    ``psi_l``/``psi_r`` are the raw amplitudes (drive phase included),
    and ``injection_phase`` tracks the accumulated ``exp(i*delta*n)``
    of the plane wave injected at the left edge.  ``coins`` holds the
    site coins as rows ``a, b, c, d``.  A back pair of buffers keeps
    the amplitudes from before the last step (for :func:`norm_check`
    and the convergence residual); each step writes into it, with one
    scratch buffer for the second product, and swaps it to the front,
    so ``psi_l`` and ``psi_r`` alternate between two fixed arrays.  The
    convergence residual reuses the scratch buffer, with one real
    buffer ``_moduli``.  The state starts at zero amplitude on a window checked
    like :func:`init_lattice`'s; a caller may write ``psi_l``/``psi_r``
    before the first step.
    """

    cfg: TunnelingConfig
    x_min: int
    x_max: int
    n: int = field(default=0, init=False)
    injection_phase: complex = field(default=1.0 + 0j, init=False)
    psi_l: np.ndarray = field(init=False, repr=False)
    psi_r: np.ndarray = field(init=False, repr=False)
    coins: np.ndarray = field(init=False, repr=False)
    _back_l: np.ndarray = field(init=False, repr=False)
    _back_r: np.ndarray = field(init=False, repr=False)
    _scratch: np.ndarray = field(init=False, repr=False)
    _moduli: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.x_min, self.x_max = _check_window(self.cfg, (self.x_min, self.x_max))
        self.coins = _site_coins(self.cfg, self.x_min, self.x_max)
        sites = self.x_max - self.x_min + 1
        self.psi_l, self.psi_r, self._back_l, self._back_r, self._scratch = (
            np.zeros(sites, dtype=complex) for _ in range(5)
        )
        self._moduli = np.zeros(sites)

    def profile(self) -> AmplitudeProfile:
        """Drive-compensated copy of the amplitudes, ``psi * conj(injection_phase)``."""
        comp = self.injection_phase.conjugate()
        return AmplitudeProfile(
            self.x_min, self.x_max, self.psi_l * comp, self.psi_r * comp
        )


def init_lattice(
    cfg: TunnelingConfig, window: tuple[int, int] | None = None
) -> EvolutionState:
    """Initial driven state: unit right-moving plane wave left of 0.

    ``psi_r(x) = exp(i(q+delta)x)`` for ``x < 0``, everything else
    zero.  The default window is :func:`default_window`.
    """
    lo, hi = window if window is not None else default_window(cfg)
    state = EvolutionState(cfg, lo, hi)
    state.psi_r[: -state.x_min] = np.exp(1j * cfg.q_shifted * np.arange(state.x_min, 0))
    return state


def step(state: EvolutionState) -> EvolutionState:
    """Advance one time step in place and return the same state.

    Interior sites receive the usual coin-and-shift update; the whole
    field then picks up the drive phase ``exp(i*delta)``.  At the left
    edge the incoming right mover is set to the exact driven plane-wave
    value, at the right edge the incoming left mover to zero.  The new
    amplitudes overwrite the back pair, which then becomes the front
    one; no array is allocated.
    """
    cfg = state.cfg
    a, b, c, d = state.coins
    pl, pr = state.psi_l, state.psi_r
    nl, nr, tmp = state._back_l, state._back_r, state._scratch
    np.multiply(a[1:], pl[1:], out=nl[:-1])
    nl[:-1] += np.multiply(b[1:], pr[1:], out=tmp[:-1])
    nl[-1] = 0.0
    np.multiply(c[:-1], pl[:-1], out=nr[1:])
    nr[1:] += np.multiply(d[:-1], pr[:-1], out=tmp[:-1])
    drive = cmath.exp(1j * cfg.delta)
    if cfg.delta != 0.0:
        nl *= drive
        nr[1:] *= drive
    state.injection_phase *= drive
    nr[0] = state.injection_phase * cmath.exp(1j * cfg.q_shifted * state.x_min)
    state.psi_l, state._back_l = nl, pl
    state.psi_r, state._back_r = nr, pr
    state.n += 1
    return state


def _compensated_residual(state: EvolutionState) -> float:
    """Sup-norm change of the last step with the drive phase divided
    out, measured on the window interior (2-site margins excluded).

    The differences go into the scratch buffer and their moduli into
    ``_moduli``, so nothing is allocated.  ``undo`` multiplies the new
    amplitudes as its left operand, because numpy's complex multiply is
    not bitwise commutative; at zero drive ``undo`` is 1 and the
    multiply is skipped, which changes the sign of a zero at most.
    """
    diff, moduli = state._scratch[2:-2], state._moduli[2:-2]
    undo = cmath.exp(-1j * state.cfg.delta)
    sups = []
    for now, before in ((state.psi_l, state._back_l), (state.psi_r, state._back_r)):
        if state.cfg.delta != 0.0:
            np.multiply(undo, now[2:-2], out=diff)
            diff -= before[2:-2]
        else:
            np.subtract(now[2:-2], before[2:-2], out=diff)
        sups.append(np.abs(diff, out=moduli).max())
    return float(max(sups))


@dataclass(frozen=True, slots=True)
class ConvergenceReport:
    """Outcome of :func:`run_to_convergence`.

    ``rate_per_round_trip`` estimates the residual decay factor per
    gap round trip (``round_trip_steps = 2m`` lattice steps); it is
    None when the run was too short or too clean to fit one.
    """

    steps: int
    residual: float
    rate_per_round_trip: float | None
    round_trip_steps: int


def run_to_convergence(
    state: EvolutionState,
    tol: float = 1e-8,
    max_steps: int | None = None,
    on_step=None,
) -> tuple[AmplitudeProfile, ConvergenceReport]:
    """Step until the compensated per-step change drops below ``tol``.

    ``state`` is advanced in place.  Returns the compensated profile
    and a report.  ``on_step(state)`` is called after every step when
    given (the CLI uses it to dump snapshots).

    Raises
    ------
    NoConvergence
        When ``max_steps`` (default :func:`default_max_steps`) is
        exhausted first, with the final residual in the message.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_steps is None:
        max_steps = default_max_steps(state.cfg)
    round_trip = 2 * state.cfg.m
    span = 3 * round_trip
    history: deque[float] = deque(maxlen=span + 1)  # the rate fit reads both ends
    residual = math.inf
    for _ in range(max_steps):
        residual = _compensated_residual(step(state))
        history.append(residual)
        if on_step is not None:
            on_step(state)
        if residual < tol:
            break
    else:
        raise NoConvergence(
            f"no convergence after {max_steps} steps: "
            f"residual {residual:.3e} above tol {tol:.3e}"
        )
    rate = None
    if len(history) > span and history[0] > 0 and history[-1] > 0:
        rate = (history[-1] / history[0]) ** (round_trip / span)
    report = ConvergenceReport(
        steps=state.n,
        residual=residual,
        rate_per_round_trip=rate,
        round_trip_steps=round_trip,
    )
    return state.profile(), report


def norm_check(state: EvolutionState) -> float:
    """Interior mass change of the last step minus the boundary flux.

    Identically zero (up to roundoff) for a consistent step, whatever
    the transient looks like: unitarity moves probability around but
    only the window edges exchange it with the outside.  Returns 0.0
    before any step has been taken.
    """
    if state.n == 0:
        return 0.0
    pl, pr = state._back_l, state._back_r
    a, b, c, d = state.coins
    lo, hi = 2, len(pl) - 3

    def out_l(i: int) -> complex:
        return a[i] * pl[i] + b[i] * pr[i]

    def out_r(i: int) -> complex:
        return c[i] * pl[i] + d[i] * pr[i]

    mass_now = float(
        np.sum(np.abs(state.psi_l[lo : hi + 1]) ** 2)
        + np.sum(np.abs(state.psi_r[lo : hi + 1]) ** 2)
    )
    mass_prev = float(
        np.sum(np.abs(pl[lo : hi + 1]) ** 2) + np.sum(np.abs(pr[lo : hi + 1]) ** 2)
    )
    inflow = abs(out_r(lo - 1)) ** 2 + abs(out_l(hi + 1)) ** 2
    outflow = abs(out_l(lo)) ** 2 + abs(out_r(hi)) ** 2
    return (mass_now - mass_prev) - (inflow - outflow)
