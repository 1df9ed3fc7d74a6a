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
import copy
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .coin import integer_number, pair, real_number
from .errors import ModelError, NoConvergence
from .scattering import AmplitudeProfile, TunnelingConfig, check_hull_window

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
the step budget.  On a 2-vCPU Xeon that is about 75 s of
:func:`run_to_convergence` at the 7.5 ns a site-step of a run whose
steps mostly skip the full residual pass, and about three minutes at
the 17 ns of a run that takes it every step."""


def check_work(
    cfg: TunnelingConfig, window: tuple[int, int] | None, max_steps: int | None, lower: str
) -> tuple[int, int]:
    """ModelError, before anything is allocated, if the window (default
    :func:`default_window`) is refused by :func:`init_lattice` or if its
    sites times the step budget (default :func:`default_max_steps`) pass
    :data:`MAX_SITE_STEPS`; the message names the product and ``lower``,
    the inputs that shrink it.  Returns the sites and the budget."""
    lo, hi = check_hull_window(window if window is not None else default_window(cfg), -1, cfg.m + 1)
    steps = max_steps if max_steps is not None else default_max_steps(cfg)
    work = (hi - lo + 1) * steps
    if work > MAX_SITE_STEPS:
        raise ModelError(
            f"evolving {hi - lo + 1} sites for up to {steps} steps is {work:.1e} site-steps, "
            f"over the limit of {MAX_SITE_STEPS:.0e}; lower {lower}"
        )
    return hi - lo + 1, steps


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
    site coins as rows ``a, b, c, d``.  The amplitudes live in one
    ``(2, 2, sites)`` array ``_psi`` (buffer, channel, site): ``psi_l``
    and ``psi_r`` view buffer ``_front``, and the back buffer keeps the
    step before (for :func:`norm_check` and the convergence residual).
    The state starts at zero amplitude on a window that must contain
    ``[-2, m + 2]``; a caller may write into ``psi_l``/``psi_r`` before
    the first step.  ``_operands`` holds the slices :func:`step`
    reads and writes from each buffer, made once; ``_scratch`` and
    ``_moduli`` serve it and the residual.
    """

    cfg: TunnelingConfig
    x_min: int
    x_max: int
    n: int = field(default=0, init=False)
    injection_phase: complex = field(default=1.0 + 0j, init=False)
    coins: np.ndarray = field(init=False, repr=False)
    _psi: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.x_min, self.x_max = check_hull_window((self.x_min, self.x_max), -1, self.cfg.m + 1)
        self.coins = _site_coins(self.cfg, self.x_min, self.x_max)
        sites = self.x_max - self.x_min + 1
        self._psi = np.zeros((2, 2, sites), dtype=complex)
        self._front = 0
        self._scratch = np.zeros(sites, dtype=complex)
        self._moduli = np.zeros(sites)
        self._drive = cmath.exp(1j * self.cfg.delta)
        self._undo = cmath.exp(-1j * self.cfg.delta)
        self._edge = cmath.exp(1j * self.cfg.q_shifted * self.x_min)
        self._operands = _step_operands(self)

    psi_l = property(lambda self: self._psi[self._front, 0])
    psi_r = property(lambda self: self._psi[self._front, 1])

    def profile(self) -> AmplitudeProfile:
        """Drive-compensated copy of the amplitudes, ``psi * conj(injection_phase)``."""
        comp = self.injection_phase.conjugate()
        return AmplitudeProfile(self.x_min, self.x_max, self.psi_l * comp, self.psi_r * comp)


def init_lattice(
    cfg: TunnelingConfig, window: tuple[int, int] | None = None
) -> EvolutionState:
    """Initial driven state: unit right-moving plane wave left of 0.

    ``psi_r(x) = exp(i(q+delta)x)`` for ``x < 0``, everything else
    zero.  The default window is :func:`default_window`; another must
    be a pair that :class:`EvolutionState` accepts.
    """
    state = EvolutionState(cfg, *pair(window if window is not None else default_window(cfg), "window"))
    state.psi_r[: -state.x_min] = np.exp(1j * cfg.q_shifted * np.arange(state.x_min, 0))
    return state


def _step_operands(state: EvolutionState) -> tuple[tuple, tuple]:
    """The 1-D operands of :func:`step` from each buffer of ``state._psi``
    into the other, indexed by the buffer read: its two channels, then
    the other buffer's, then the coins and the shifted slices."""
    a, b, c, d = state.coins
    coins = (a[1:], b[1:], c[:-1], d[:-1])
    tmp = state._scratch[:-1]

    def operands(now, new):
        (pl, pr), (nl, nr) = state._psi[now], state._psi[new]
        return (pl, pr, nl, nr, *coins, pl[1:], pr[1:], pl[:-1], pr[:-1], nl[:-1], nr[1:], tmp)

    return operands(0, 1), operands(1, 0)


def step(state: EvolutionState) -> EvolutionState:
    """Advance one time step in place and return the same state.

    Interior sites receive the usual coin-and-shift update; the whole
    field then picks up the drive phase ``exp(i*delta)``.  At the left
    edge the incoming right mover is set to the exact driven plane-wave
    value, at the right edge the incoming left mover to zero.  The new
    amplitudes overwrite the back buffer, which then becomes the front
    one; no array is allocated.
    """
    pl, pr, nl, nr, a, b, c, d, pl_hi, pr_hi, pl_lo, pr_lo, nl_lo, nr_hi, tmp = state._operands[state._front]
    np.multiply(a, pl_hi, out=nl_lo)
    np.add(nl_lo, np.multiply(b, pr_hi, out=tmp), out=nl_lo)
    nl[-1] = 0.0
    np.multiply(c, pl_lo, out=nr_hi)
    np.add(nr_hi, np.multiply(d, pr_lo, out=tmp), out=nr_hi)
    drive = state._drive
    if state.cfg.delta != 0.0:
        np.multiply(nl, drive, out=nl)
        np.multiply(nr_hi, drive, out=nr_hi)
    state.injection_phase *= drive
    nr[0] = state.injection_phase * state._edge
    state._front ^= 1
    state.n += 1
    return state


def _full_pass(state: EvolutionState) -> tuple[float, int, int]:
    """The convergence residual: the sup-norm change of the last step
    with the drive phase divided out, measured on the window interior
    (2-site margins excluded).  Also the site of the largest change in
    ``psi_l`` and in ``psi_r``: the witnesses :func:`_witnessed` reads.

    The differences go into the scratch buffer and their moduli into
    ``_moduli``, so nothing is allocated.  ``_undo`` multiplies the new
    amplitudes as its left operand, because numpy's complex multiply is
    not bitwise commutative; at zero drive it is 1 and changes the sign
    of a zero at most, which no modulus sees.
    """
    now_l, now_r, before_l, before_r = state._operands[state._front][:4]
    diff, moduli = state._scratch[2:-2], state._moduli[2:-2]
    sups = []
    for now, before in ((now_l, before_l), (now_r, before_r)):
        np.multiply(state._undo, now[2:-2], out=diff)
        diff -= before[2:-2]
        site = int(np.abs(diff, out=moduli).argmax())
        sups.append((moduli.item(site), site + 2))
    (sup_l, site_l), (sup_r, site_r) = sups
    return max(sup_l, sup_r), site_l, site_r


_SLACK = 16 * sys.float_info.epsilon
"""Relative slack of :func:`_witnessed`: Python's complex ``abs`` and
product may differ from numpy's by an ulp or two, so 16 is ample."""

_TINY = 64 * math.ulp(0.0)
"""Absolute slack of :func:`_witnessed`, for a change among subnormals."""


def _witnessed(state: EvolutionState, site_l: int, site_r: int, tol: float) -> bool:
    """Whether the last step's change at ``site_l`` of ``psi_l`` or at
    ``site_r`` of ``psi_r`` alone proves the residual of :func:`_full_pass`
    at least ``tol``.  Each change is taken with Python scalars, so it
    must pass ``tol`` by :data:`_SLACK` of itself and of ``|psi|`` (the
    ``_undo`` product's rounding), and by :data:`_TINY`.  Sites off the
    interior prove nothing."""
    now_l, now_r, before_l, before_r = state._operands[state._front][:4]
    last = len(now_l) - 3
    for now, before, site in ((now_l, before_l, site_l), (now_r, before_r, site_r)):
        if 2 <= site <= last:
            z = now.item(site)
            change = abs(state._undo * z - before.item(site))
            if change > tol + _SLACK * (change + abs(z)) + _TINY:
                return True
    return False


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
    given (the CLI uses it to dump snapshots); it must not modify the
    state.

    The test is exact: the run stops at the first step whose
    :func:`_full_pass` residual is below ``tol``, and reports that
    residual.  Yet most steps skip that full-window pass.  Away from the
    two defects a change moves one site a step, left in ``psi_l`` and
    right in ``psi_r`` (the free coin is diagonal and unimodular), so
    the sites of the largest change at the last full pass, shifted by
    the steps since, usually still show a change of at least ``tol``
    (:func:`_witnessed`); only when they do not, and at the budget's
    last step, does the full pass run.  The rate compares the final
    residual with the one 3 round trips earlier, which is recomputed at
    the end by replaying from the older of the last two checkpoints,
    taken every 3 round trips into the two slots of one array like
    ``_psi``.

    Raises
    ------
    ModelError
        (a ValueError) unless ``0 < tol < inf`` and ``max_steps`` is an
        integer ``>= 1``.
    NoConvergence
        When ``max_steps`` (default :func:`default_max_steps`) is
        exhausted first, with the final residual in the message.
    """
    tol = real_number(tol, "tol")
    if not 0 < tol < math.inf:
        raise ModelError(f"tol must be positive and finite, got {tol!r}")
    if max_steps is None:
        max_steps = default_max_steps(state.cfg)
    max_steps = integer_number(max_steps, "max_steps")
    if max_steps < 1:
        raise ModelError(f"max_steps must be at least 1, got {max_steps!r}")
    round_trip = 2 * state.cfg.m
    span = 3 * round_trip
    saved = np.empty_like(state._psi) if max_steps > span else None  # a shorter run fits no rate
    marks = []  # (slot of saved, n, injection_phase) of the latest two checkpoints
    site_l, site_r = 0, len(state.psi_l) - 1  # off the interior: the first step takes a full pass
    residual = math.inf
    for k in range(1, max_steps + 1):
        if saved is not None and (k - 1) % span == 0:  # before steps 1, span + 1, 2 span + 1, ...
            slot = marks.pop(0)[0] if len(marks) == 2 else len(marks)  # the third overwrites the first
            saved[slot] = state._psi[state._front]
            marks.append((slot, state.n, state.injection_phase))
        step(state)
        site_l, site_r = site_l - 1, site_r + 1
        converged = False
        if k == max_steps or not _witnessed(state, site_l, site_r, tol):
            residual, site_l, site_r = _full_pass(state)
            converged = residual < tol
        if on_step is not None:
            on_step(state)
        if converged:
            break
    else:
        raise NoConvergence(
            f"no convergence after {max_steps} steps: "
            f"residual {residual:.3e} above tol {tol:.3e}"
        )
    rate = None
    if k > span and residual > 0:
        earlier = _replayed_residual(state, saved, marks[0], state.n - span)
        if earlier > 0:
            rate = (residual / earlier) ** (round_trip / span)
    return state.profile(), ConvergenceReport(state.n, residual, rate, round_trip)


def _replayed_residual(state: EvolutionState, saved: np.ndarray, mark: tuple, n: int) -> float:
    """The :func:`_full_pass` residual of step ``n``, stepped again from
    the older checkpoint ``mark`` over the buffers ``saved``, whose other
    slot, the newer checkpoint, becomes the back buffer; ``state`` is
    left as it is.  With checkpoints taken every ``span`` steps and ``n``
    at ``span`` before a last step past them both, the older one is at
    or before step ``n - 1`` and the newer one after it, so the replay
    takes at most ``span`` steps."""
    replay = copy.copy(state)  # shares the coins and the scratch buffers
    replay._psi, (replay._front, replay.n, replay.injection_phase) = saved, mark
    replay._operands = _step_operands(replay)
    while replay.n < n:
        step(replay)
    return _full_pass(replay)[0]


def norm_check(state: EvolutionState) -> float:
    """Interior mass change of the last step minus the boundary flux.

    Identically zero (up to roundoff) for a consistent step, whatever
    the transient looks like: unitarity moves probability around but
    only the window edges exchange it with the outside.  Returns 0.0
    before any step has been taken.
    """
    if state.n == 0:
        return 0.0
    now_l, now_r, pl, pr = state._operands[state._front][:4]
    a, b, c, d = state.coins
    lo, hi = 2, len(pl) - 3

    def out_l(i: int) -> complex:
        return a[i] * pl[i] + b[i] * pr[i]

    def out_r(i: int) -> complex:
        return c[i] * pl[i] + d[i] * pr[i]

    def mass(psi_l: np.ndarray, psi_r: np.ndarray) -> float:
        return float(np.sum(np.abs(psi_l[lo : hi + 1]) ** 2) + np.sum(np.abs(psi_r[lo : hi + 1]) ** 2))

    inflow = abs(out_r(lo - 1)) ** 2 + abs(out_l(hi + 1)) ** 2
    outflow = abs(out_l(lo)) ** 2 + abs(out_r(hi)) ** 2
    return (mass(now_l, now_r) - mass(pl, pr)) - (inflow - outflow)
