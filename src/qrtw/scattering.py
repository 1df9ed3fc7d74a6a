"""Stationary scattering of a two-channel lattice walk off a barrier pair.

The walk lives on the integers with a two-component amplitude per site,
a left-moving and a right-moving channel.  Away from defects every site
applies the diagonal coin ``diag(e^{ip}, e^{iq})``; a barrier coin sits
at site 0 and again at site ``m``.  Driving the system with a unit
right-moving plane wave from the left produces a bounded steady state
with a reflected amplitude ``r`` on the left, a transmitted amplitude
``t`` on the right, and interior amplitudes ``r_tilde``, ``t_tilde`` at
the two barrier sites.

Two independent solvers are provided: :func:`solve_closed_form`
evaluates the explicit formulas for the double-barrier arrangement, and
:func:`solve_general` solves the stationarity recursions across the
hull of an arbitrary finite set of defect coins, from either side, in
one backward and one forward sweep.  They must agree on the common
domain, which the test suite checks extensively.

The optional ``delta`` drives the injected wave so that the steady
state advances by ``exp(i*delta)`` per step under the evolution
module's convention.  In the stationary picture this shifts the
right-moving wave number from ``q`` to ``q + delta`` while left movers
keep ``p``; all formulas below carry that shift.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Mapping

import numpy as np

from .coin import Coin, beta_decompose, coin_from_json, determinant, finite_number, integer_number
from .errors import (
    DegenerateResonance,
    FullReflector,
    ModelError,
    SingularSystem,
    TrivialBarrier,
    WindowTooSmall,
    MarginViolation,
)

__all__ = [
    "AmplitudeProfile",
    "Injection",
    "StationarySolution",
    "TunnelingConfig",
    "build_profile",
    "config_from_json",
    "flux_balance",
    "profile_from_csv",
    "profile_max_difference",
    "profile_to_csv",
    "resonance_residual",
    "solve_closed_form",
    "solve_general",
    "t_magnitude_via_beta",
]

_DEGENERACY_EPS = 1e-12
_TRIVIAL_EPS = 1e-14
MAX_WINDOW_SITES = 10_000_000

_BLOCK = 1 << 14
"""Rows per text block of every streamed artifact (profile and spectrum,
CSV and JSON), and grid points per block of the T(k) kernel."""


class Injection(enum.Enum):
    """Which side the driving plane wave comes from."""

    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True, slots=True)
class TunnelingConfig:
    """Double-barrier arrangement: free phases, barrier coin, separation.

    ``p`` and ``q`` are the left- and right-channel phases of the free
    coin, ``barrier`` is the defect coin placed at sites 0 and ``m``
    (``m >= 1``), and ``delta`` is the per-step drive phase (default 0).
    The three phases must be finite, and small enough that every phase
    a window of up to :data:`MAX_WINDOW_SITES` sites past ``m`` reads,
    bounded by ``2*(|p|+|q|+|delta|)*(m + MAX_WINDOW_SITES)``, stays
    finite; otherwise, or when ``m`` has no float, it is a ModelError.
    """

    p: float
    q: float
    barrier: Coin
    m: int
    delta: float = 0.0

    def __post_init__(self):
        if not isinstance(self.barrier, Coin):
            raise ModelError("barrier must be a Coin")
        m = integer_number(self.m, "barrier separation m")
        if m < 1:
            raise ModelError(f"barrier separation m must be >= 1, got {m}")
        object.__setattr__(self, "m", m)
        for name in ("p", "q", "delta"):
            object.__setattr__(self, name, finite_number(getattr(self, name), name))
        try:
            span = float(m) + MAX_WINDOW_SITES
        except OverflowError:
            raise ModelError("barrier separation m is too large for the phase arithmetic") from None
        if not math.isfinite(2.0 * (abs(self.p) + abs(self.q) + abs(self.delta)) * span):
            raise ModelError(
                f"phases p={self.p!r}, q={self.q!r}, delta={self.delta!r} are too large "
                f"for the phase arithmetic at m={m}"
            )

    @property
    def bc(self) -> complex:
        """Product of the barrier's off-diagonal entries."""
        return self.barrier.b * self.barrier.c

    @property
    def q_shifted(self) -> float:
        """Right-channel wave number including the drive, ``q + delta``."""
        return self.q + self.delta

    @property
    def loop_det(self) -> complex:
        """Phase accumulated across the gap, ``exp(i(p+q+delta)(m-1))``.

        Equals the free-coin determinant raised to ``m - 1`` when
        ``delta`` is zero.
        """
        return cmath.exp(1j * (self.p + self.q + self.delta) * (self.m - 1))

    @property
    def round_trip_ratio(self) -> complex:
        """Amplitude factor per bounce between the barriers, ``bc * loop_det``."""
        return self.bc * self.loop_det


@dataclass(frozen=True, slots=True)
class StationarySolution:
    """Scattering data of one steady state.

    ``r`` and ``t`` are the reflected and transmitted amplitudes,
    ``r_tilde`` and ``t_tilde`` the interior amplitudes at the entry
    and exit barrier sites, ``T = |t|**2`` and ``R = |r|**2`` the
    probabilities.
    """

    r: complex
    t: complex
    r_tilde: complex
    t_tilde: complex
    T: float
    R: float
    injection: Injection


@dataclass(frozen=True, eq=False)
class AmplitudeProfile:
    """Two-channel amplitudes over a window of consecutive sites.

    ``psi_l[i]`` and ``psi_r[i]`` hold the left- and right-channel
    amplitude at position ``x_min + i``.  The arrays are copied on
    construction and frozen read-only.
    """

    x_min: int
    x_max: int
    psi_l: np.ndarray
    psi_r: np.ndarray

    def __post_init__(self):
        if self.x_max < self.x_min:
            raise ModelError("window is empty")
        n = self.x_max - self.x_min + 1
        for name in ("psi_l", "psi_r"):
            arr = np.array(getattr(self, name), dtype=complex)
            if arr.shape != (n,):
                raise ModelError(
                    f"{name} has {arr.shape[0] if arr.ndim == 1 else arr.shape} "
                    f"entries for a window of {n} sites"
                )
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def window(self) -> tuple[int, int]:
        return (self.x_min, self.x_max)

    def at(self, x: int) -> tuple[complex, complex]:
        """Amplitude pair ``(psi_l, psi_r)`` at position ``x``."""
        if not self.x_min <= x <= self.x_max:
            raise IndexError(f"position {x} outside window [{self.x_min}, {self.x_max}]")
        i = x - self.x_min
        return (complex(self.psi_l[i]), complex(self.psi_r[i]))


def solve_closed_form(cfg: TunnelingConfig) -> StationarySolution:
    """Evaluate the explicit double-barrier scattering amplitudes.

    With ``D`` the gap phase (``cfg.loop_det``) and ``U`` the barrier
    coin, the denominator is ``1 - bc*D`` and::

        t = d**2 * exp(-2i(q+delta)) / (1 - bc*D)
        r = b * exp(ip) * (1 + det(U)*D) / (1 - bc*D)

    The interior amplitudes follow from the driven recursions without
    dividing by a coin entry::

        t_tilde = d * exp(i(q+delta)(m-1)) / (1 - bc*D)
        r_tilde = b * exp(ip(m-1)) * t_tilde

    Raises
    ------
    DegenerateResonance
        When the denominator modulus falls below 1e-12 (a full
        reflector sitting exactly on the bounce resonance; the
        amplitudes are a genuine 0/0 there).
    """
    den = 1.0 - cfg.round_trip_ratio
    if abs(den) < _DEGENERACY_EPS:
        raise DegenerateResonance(
            f"resonance denominator modulus {abs(den):.3e} below {_DEGENERACY_EPS:.1e}; "
            "a unit-strength bounce loop makes the amplitudes undefined"
        )
    u = cfg.barrier
    qe = cfg.q_shifted
    t = u.d * u.d * cmath.exp(-2j * qe) / den
    r = u.b * cmath.exp(1j * cfg.p) * (1.0 + determinant(u) * cfg.loop_det) / den
    t_tilde = u.d * cmath.exp(1j * qe * (cfg.m - 1)) / den
    r_tilde = u.b * cmath.exp(1j * cfg.p * (cfg.m - 1)) * t_tilde
    return StationarySolution(
        r=r,
        t=t,
        r_tilde=r_tilde,
        t_tilde=t_tilde,
        T=abs(t) ** 2,
        R=abs(r) ** 2,
        injection=Injection.LEFT,
    )


def check_window_sites(lo: int, hi: int, what: str = "window") -> None:
    """ModelError if ``[lo, hi]`` spans more than :data:`MAX_WINDOW_SITES`
    sites; called before anything is allocated over the range."""
    if hi - lo + 1 > MAX_WINDOW_SITES:
        raise ModelError(
            f"{what} [{lo}, {hi}] spans {hi - lo + 1} sites, over the limit of {MAX_WINDOW_SITES}"
        )


def check_hull_window(window: tuple[int, int], x_lo: int, x_hi: int) -> tuple[int, int]:
    """``window`` as two ints; WindowTooSmall if it does not contain
    ``[x_lo-1, x_hi+1]`` and ModelError if it spans more than
    :data:`MAX_WINDOW_SITES` sites."""
    lo, hi = int(window[0]), int(window[1])
    if lo > x_lo - 1 or hi < x_hi + 1:
        raise WindowTooSmall(
            f"window [{lo}, {hi}] must contain [{x_lo - 1}, {x_hi + 1}]"
        )
    check_window_sites(lo, hi)
    return lo, hi


def _plane_wave_window(
    window: tuple[int, int], x_lo: int, x_hi: int, r: complex, t: complex,
    p: float, qe: float, injection: Injection,
) -> tuple[int, int, np.ndarray, np.ndarray]:
    """Window arrays ``(lo, hi, psi_l, psi_r)`` holding the free-region
    plane waves around the hull ``[x_lo, x_hi]``, whose sites stay zero
    for the caller to fill.  With ``qe = q + delta``, left injection is::

        x < x_lo:   [r*exp(-ip(x+2)),         exp(i*qe*x)]
        x > x_hi:   [0,                       t*exp(i*qe*x)]

    and right injection::

        x < x_lo:   [t*exp(-ip(x-x_lo+1)),    0]
        x > x_hi:   [exp(-ip(x-x_hi)),        r*exp(i*qe*(x-x_hi-1))]

    The left-channel exponents decrease with ``x`` because a stationary
    left mover in the free region must reproduce itself under the coin
    phase ``exp(ip)`` applied while moving leftward.  The window is
    checked by :func:`check_hull_window`.
    """
    lo, hi = check_hull_window(window, x_lo, x_hi)
    psi_l = np.zeros(hi - lo + 1, dtype=complex)
    psi_r = np.zeros(hi - lo + 1, dtype=complex)
    left = injection is Injection.LEFT
    for x in range(lo, x_lo):
        if left:
            psi_l[x - lo] = r * cmath.exp(-1j * p * (x + 2))
            psi_r[x - lo] = cmath.exp(1j * qe * x)
        else:
            psi_l[x - lo] = t * cmath.exp(-1j * p * (x - x_lo + 1))
    for x in range(x_hi + 1, hi + 1):
        if left:
            psi_r[x - lo] = t * cmath.exp(1j * qe * x)
        else:
            psi_l[x - lo] = cmath.exp(-1j * p * (x - x_hi))
            psi_r[x - lo] = r * cmath.exp(1j * qe * (x - x_hi - 1))
    return lo, hi, psi_l, psi_r


def build_profile(
    sol: StationarySolution, cfg: TunnelingConfig, window: tuple[int, int]
) -> AmplitudeProfile:
    """Lay a left-injection steady state onto a window of sites.

    Outside ``[0, m]`` the free-region plane waves of
    :func:`_plane_wave_window` apply; inside, with ``qe = q + delta``::

        x == 0:     [r_tilde,                1]
        0 < x < m:  [r_tilde*exp(-ipx),      t_tilde*exp(i*qe*(x-m))]
        x == m:     [0,                      t_tilde]

    Raises
    ------
    ModelError
        If ``sol`` came from right injection; :func:`solve_general`
        returns that profile itself.
    WindowTooSmall
        If the window does not contain ``[-1, m+1]``; ModelError if it
        spans more than :data:`MAX_WINDOW_SITES` sites.
    """
    if sol.injection is not Injection.LEFT:
        raise ModelError(
            "build_profile lays out left-injection solutions only; "
            "solve_general returns the right-injection profile"
        )
    m, qe = cfg.m, cfg.q_shifted
    lo, hi, psi_l, psi_r = _plane_wave_window(
        window, 0, m, sol.r, sol.t, cfg.p, qe, Injection.LEFT
    )
    psi_l[-lo] = sol.r_tilde
    psi_r[-lo] = 1.0
    for x in range(1, m):
        psi_l[x - lo] = sol.r_tilde * cmath.exp(-1j * cfg.p * x)
        psi_r[x - lo] = sol.t_tilde * cmath.exp(1j * qe * (x - m))
    psi_r[m - lo] = sol.t_tilde
    return AmplitudeProfile(x_min=lo, x_max=hi, psi_l=psi_l, psi_r=psi_r)


def solve_general(
    coins: Mapping[int, Coin],
    delta: float,
    injection: Injection,
    p: float,
    q: float,
    window: tuple[int, int] | None = None,
) -> tuple[StationarySolution, AmplitudeProfile]:
    """Solve the steady state for an arbitrary finite defect set.

    ``coins`` maps lattice positions to defect coins; every other site
    applies the free coin.  The stationarity recursions across the
    defect hull, driven by a unit plane wave from the injection side,
    are solved in two sweeps (the Redheffer star product taken one site
    at a time).  The backward pass builds the reflection seen from the
    left of each site from that of the site to its right, zero past the
    hull: ``refl = b + a*d*refl' / (1 - c*refl')``.  The forward pass
    carries the right mover, ``psi_r' = d*psi_r / (1 - c*refl')``, and
    reads off the left mover ``psi_l = refl'*psi_r'``.  Right injection
    runs the sweeps on the mirror image ``x -> -x``, which maps the coin
    entries ``(a, b, c, d)`` to ``(d, c, b, a)`` and swaps ``p`` with
    ``q + delta``.  ``delta`` is the drive phase of :class:`TunnelingConfig`.

    Returns the solution together with a profile on ``window``
    (default: the defect hull padded by 5 sites).

    Raises
    ------
    ModelError
        When the hull or the window spans more than
        :data:`MAX_WINDOW_SITES` sites.
    SingularSystem
        When a bounce denominator ``|1 - c*refl'|`` falls below 1e-12,
        which is how a degenerate resonance shows up here.
    """
    if not coins:
        raise ModelError("need at least one defect coin")
    for pos, u in coins.items():
        if int(pos) != pos:
            raise ModelError(f"defect position {pos!r} is not an integer")
        if not isinstance(u, Coin):
            raise ModelError(f"defect at {pos} is not a Coin")
    x_lo, x_hi = int(min(coins)), int(max(coins))
    check_window_sites(x_lo, x_hi, "defect hull")
    qe = q + delta
    if injection is Injection.LEFT:
        incoming = cmath.exp(1j * qe * x_lo)
        free = (cmath.exp(1j * p), 0j, 0j, cmath.exp(1j * qe))
        sites = [
            free if u is None else (u.a, u.b, u.c, u.d)
            for u in map(coins.get, range(x_lo, x_hi + 1))
        ]
    else:
        incoming = 1 + 0j
        free = (cmath.exp(1j * qe), 0j, 0j, cmath.exp(1j * p))
        sites = [
            free if u is None else (u.d, u.c, u.b, u.a)
            for u in map(coins.get, range(x_hi, x_lo - 1, -1))
        ]
    refl = [0j] * (len(sites) + 1)
    for i in range(len(sites) - 1, -1, -1):
        a, b, c, d = sites[i]
        den = 1.0 - c * refl[i + 1]
        if abs(den) < _DEGENERACY_EPS:
            raise SingularSystem(f"bounce denominator {abs(den):.3e} below {_DEGENERACY_EPS:.0e}")
        refl[i] = b + a * d * refl[i + 1] / den
    fwd_l, fwd_r = [], [incoming]
    for (_, _, c, d), rq in zip(sites, refl[1:]):
        fwd_r.append(d * fwd_r[-1] / (1.0 - c * rq))
        fwd_l.append(rq * fwd_r[-1])
    out_r = fwd_r.pop()
    if injection is Injection.LEFT:
        r = refl[0] * incoming * cmath.exp(1j * p * (x_lo + 1))
        t = out_r * cmath.exp(-1j * qe * (x_hi + 1))
        phi_l, phi_r = fwd_l, fwd_r
    else:
        r, t = refl[0], out_r
        phi_l, phi_r = fwd_r[::-1], fwd_l[::-1]

    if window is None:
        window = (x_lo - 5, x_hi + 5)
    lo, hi, psi_l, psi_r = _plane_wave_window(window, x_lo, x_hi, r, t, p, qe, injection)
    psi_l[x_lo - lo : x_hi - lo + 1] = phi_l
    psi_r[x_lo - lo : x_hi - lo + 1] = phi_r

    solution = StationarySolution(
        r=r,
        t=t,
        r_tilde=fwd_l[0],
        t_tilde=fwd_r[-1],
        T=abs(t) ** 2,
        R=abs(r) ** 2,
        injection=injection,
    )
    return solution, AmplitudeProfile(x_min=lo, x_max=hi, psi_l=psi_l, psi_r=psi_r)


def resonance_residual(cfg: TunnelingConfig) -> float:
    """Distance from the perfect-transmission condition.

    Returns ``|loop_det * det(barrier) + 1|``, which vanishes exactly
    when every reflected path interferes away and ``T = 1``.

    Raises
    ------
    TrivialBarrier
        When ``|bc| < 1e-14``: a reflectionless barrier makes the
        condition vacuous (``T = 1`` always).
    FullReflector
        When ``|bc| >= 1 - 1e-14``: nothing is transmitted through
        either barrier, so resonance is out of reach.
    """
    mod_bc = abs(cfg.bc)
    if mod_bc < _TRIVIAL_EPS:
        raise TrivialBarrier(
            f"|bc| = {mod_bc:.3e}: barrier does not couple the channels"
        )
    if mod_bc >= 1.0 - _TRIVIAL_EPS:
        raise FullReflector(f"|bc| = {mod_bc:.17g}: barrier transmits nothing")
    return abs(determinant(cfg.barrier) * cfg.loop_det + 1.0)


def flux_balance(
    profile: AmplitudeProfile, interval: tuple[int, int]
) -> tuple[float, float]:
    """Probability flow into and out of ``interval`` in one step.

    ``inflow`` counts the right mover just left of the interval and the
    left mover just right of it; ``outflow`` counts the two movers
    leaving.  For a steady profile whose margin sites carry the free
    coin the two agree; mid-transient they generally do not, and both
    numbers are returned without judgment.

    Raises
    ------
    MarginViolation
        If the one-site margins fall outside the profile window.
    """
    x_lo, x_hi = int(interval[0]), int(interval[1])
    if x_hi < x_lo:
        raise ModelError(f"interval [{x_lo}, {x_hi}] is empty")
    if x_lo - 1 < profile.x_min or x_hi + 1 > profile.x_max:
        raise MarginViolation(
            f"interval [{x_lo}, {x_hi}] needs margin sites {x_lo - 1} and "
            f"{x_hi + 1} inside window [{profile.x_min}, {profile.x_max}]"
        )
    l_left, r_left = profile.at(x_lo - 1)
    l_right, r_right = profile.at(x_hi + 1)
    inflow = abs(r_left) ** 2 + abs(l_right) ** 2
    outflow = abs(l_left) ** 2 + abs(r_right) ** 2
    return (inflow, outflow)


def t_magnitude_via_beta(cfg: TunnelingConfig) -> float:
    """Transmitted magnitude from the barrier's mixing weight alone.

    Uses ``|t| = (1 - |beta|**2) / |1 - e^{i*theta}*|beta|**2|`` where
    ``|beta|**2`` comes from :func:`qrtw.coin.beta_decompose` and
    ``e^{i*theta} = -det(barrier) * loop_det`` is the phase of one
    bounce loop (including the drive shift when ``delta`` is nonzero).
    Agrees with ``abs(solve_closed_form(cfg).t)`` wherever both are
    defined.

    Raises
    ------
    FullReflector
        When the denominator vanishes, which requires ``|beta| = 1``.
    """
    beta_sq = beta_decompose(cfg.barrier).beta_sq
    ei_theta = -determinant(cfg.barrier) * cfg.loop_det
    den = abs(1.0 - ei_theta * beta_sq)
    if den < _DEGENERACY_EPS:
        raise FullReflector(
            f"|beta|**2 = {beta_sq:.17g} with a vanishing denominator: "
            "full reflector on resonance"
        )
    return (1.0 - beta_sq) / den


def profile_max_difference(
    first: AmplitudeProfile,
    second: AmplitudeProfile,
    x_lo: int | None = None,
    x_hi: int | None = None,
) -> float:
    """Sup-norm difference of two profiles over overlapping positions.

    ``x_lo``/``x_hi`` further restrict the comparison range.  Raises
    ModelError if the effective range is empty.
    """
    lo = max(first.x_min, second.x_min)
    hi = min(first.x_max, second.x_max)
    if x_lo is not None:
        lo = max(lo, int(x_lo))
    if x_hi is not None:
        hi = min(hi, int(x_hi))
    if hi < lo:
        raise ModelError("profiles do not overlap on the requested range")
    s1 = slice(lo - first.x_min, hi - first.x_min + 1)
    s2 = slice(lo - second.x_min, hi - second.x_min + 1)
    dl = np.max(np.abs(first.psi_l[s1] - second.psi_l[s2]))
    dr = np.max(np.abs(first.psi_r[s1] - second.psi_r[s2]))
    return float(max(dl, dr))


# -- serialization -----------------------------------------------------------

_CSV_HEADER = "x,psiL_re,psiL_im,psiR_re,psiR_im,mu"


def _py_square(a: np.ndarray) -> np.ndarray:
    """``v ** 2`` of each value as Python computes it, by libm's ``pow``;
    numpy squares by ``v * v``, which differs on some values.  With
    ``np.hypot`` for ``abs``, the CSV ``mu`` column keeps the bytes of
    ``abs(l) ** 2 + abs(r) ** 2`` per row."""
    return np.fromiter(map(math.pow, memoryview(a), repeat(2.0)), np.float64, len(a))


def profile_to_csv(profile: AmplitudeProfile):
    """Yield a profile's CSV as text blocks: the header line
    ``x,psiL_re,psiL_im,psiR_re,psiR_im,mu``, then the rows, a few
    hundred at a time; ``"".join(...)`` gives the whole text.

    Floats are written as ``repr`` writes them (see
    :func:`qrtw._shortest.csv_rows`), so parsing the text back
    reproduces the amplitudes bit for bit.  Rows are formatted straight
    from the arrays, so a caller that writes each block as it comes
    never holds the whole CSV.
    """
    from ._shortest import INT_LIMIT, csv_rows  # loaded on first use: import qrtw stays lean

    yield _CSV_HEADER + "\n"
    for i in range(0, len(profile.psi_l), _BLOCK):
        psi_l, psi_r = profile.psi_l[i : i + _BLOCK], profile.psi_r[i : i + _BLOCK]
        mu = _py_square(np.hypot(psi_l.real, psi_l.imag)) + _py_square(np.hypot(psi_r.real, psi_r.imag))
        columns = [psi_l.real, psi_l.imag, psi_r.real, psi_r.imag, mu]
        x = range(profile.x_min + i, profile.x_min + i + len(psi_l))
        if -INT_LIMIT < x[0] and x[-1] < INT_LIMIT:
            yield from csv_rows(columns, index=np.arange(x.start, x.stop))
        else:  # positions past the kernel's integers: str writes them
            rows = "".join(csv_rows(columns)).splitlines()
            yield "".join([f"{pos},{row}\n" for pos, row in zip(x, rows)])


def profile_from_csv(text: str) -> AmplitudeProfile:
    """Parse :func:`profile_to_csv` output back into a profile.

    The ``mu`` column is redundant and ignored.  Positions must be
    consecutive integers in ascending order.
    """
    rows = [line for line in text.strip().splitlines() if line]
    if not rows or rows[0].strip() != _CSV_HEADER:
        raise ModelError(f"profile CSV must start with header {_CSV_HEADER!r}")
    xs: list[int] = []
    psi_l: list[complex] = []
    psi_r: list[complex] = []
    for line in rows[1:]:
        parts = line.split(",")
        if len(parts) != 6:
            raise ModelError(f"profile CSV row has {len(parts)} fields: {line!r}")
        try:
            xs.append(int(parts[0]))
            psi_l.append(complex(float(parts[1]), float(parts[2])))
            psi_r.append(complex(float(parts[3]), float(parts[4])))
        except ValueError:
            raise ModelError(f"profile CSV row has a malformed number: {line!r}") from None
    if not xs:
        raise ModelError("profile CSV has no data rows")
    for prev, cur in zip(xs, xs[1:]):
        if cur != prev + 1:
            raise ModelError("profile CSV positions must be consecutive ascending")
    return AmplitudeProfile(x_min=xs[0], x_max=xs[-1], psi_l=psi_l, psi_r=psi_r)


def config_from_json(data: dict) -> TunnelingConfig:
    """Read a config from its JSON object form, as in a ``--config`` file.

    ``barrier`` accepts anything :func:`qrtw.coin.coin_from_json`
    accepts, presets included.  ``delta`` defaults to 0 when absent.
    """
    if not isinstance(data, dict):
        raise ModelError(f"config must be a JSON object, got {type(data).__name__}")
    try:
        p, q, barrier, m = (data[name] for name in ("p", "q", "barrier", "m"))
    except KeyError as exc:
        raise ModelError(f"config is missing field {exc.args[0]!r}") from exc
    return TunnelingConfig(
        p=p, q=q, barrier=coin_from_json(barrier), m=m, delta=data.get("delta", 0.0)
    )
