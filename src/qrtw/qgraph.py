"""Delta-potential chain as a walk: coins from (alpha, k, s), the
transmission spectrum T(k), perfect-transmission wave numbers, and the
continuum wavefunction on edges rebuilt from a lattice profile.

A free particle at wave number ``k`` on edges of length ``s``, with
delta potentials of strength ``alpha`` at vertices 0 and ``m``, scatters
exactly like the lattice walk with ``p = q = ks`` and the barrier coin
of :func:`vertex_coin`.  Everything here either evaluates the continuum
formulas directly or routes through that correspondence.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .coin import Coin, finite_number, integer_number, make_coin, real_number
from .errors import EdgeOutOfWindow, InvalidWaveNumber, ModelError
from .scattering import AmplitudeProfile, TunnelingConfig

__all__ = [
    "EdgeWave",
    "GraphParams",
    "ResonanceSet",
    "Spectrum",
    "edge_wave",
    "find_resonances",
    "spectrum_scan",
    "to_tunneling_config",
    "transmission_at_k",
    "vertex_coin",
]

K_FLOOR = 1e-6
"""Smallest admissible wave number; alpha/k blows up below this."""

_PHASE_TOL = 1e-12

MAX_GRID_POINTS = 10_000_000
"""Largest spectrum grid; checked before anything is allocated."""

MAX_RESONANCES = 100_000
"""Largest root count ``find_resonances`` enumerates; checked before the first bisection."""


@dataclass(frozen=True, slots=True)
class GraphParams:
    """Chain parameters: potential strength, spacing, span, wave number.

    Besides the signs, a ModelError rejects an ``alpha/k`` whose square
    overflows and a round-trip phase ``2*k*s*m`` that does, ``m`` too
    large for a float included.
    """

    alpha: float
    s: float
    m: int
    k: float

    def __post_init__(self) -> None:
        alpha, s, k = _vertex_numbers(self.alpha, self.s, self.k)
        m = integer_number(self.m, "m")
        if m < 1:
            raise ModelError(f"m must be a positive integer, got {m}")
        for name, value in zip(("alpha", "s", "m", "k"), (alpha, s, m, k)):
            object.__setattr__(self, name, value)
        y = self.alpha / self.k
        if not math.isfinite(y * y):
            raise ModelError(f"alpha/k = {y!r} is too large: its square overflows")
        try:
            phase = 2.0 * self.k * self.s * self.m
        except OverflowError:  # an m with no float
            phase = math.inf
        if not math.isfinite(phase):
            raise ModelError(
                f"round-trip phase 2*k*s*m overflows at k={self.k}, s={self.s}, m={self.m}"
            )


def _vertex_numbers(alpha: float, s: float, k: float) -> tuple[float, float, float]:
    """``alpha``, ``s`` and ``k`` as floats: ModelError unless ``alpha``
    and ``s`` are finite numbers, ``alpha >= 0`` and ``s > 0``, and
    InvalidWaveNumber unless ``k`` is a positive finite number."""
    alpha, s = finite_number(alpha, "alpha"), finite_number(s, "edge length s")
    k = real_number(k, "wave number", InvalidWaveNumber)
    if alpha < 0:
        raise ModelError(f"alpha must be nonnegative, got {alpha}")
    if s <= 0:
        raise ModelError(f"edge length s must be positive, got {s}")
    if k <= 0 or not math.isfinite(k):
        raise InvalidWaveNumber(f"wave number must be positive, got {k}")
    return alpha, s, k


def vertex_coin(alpha_j: float, k: float, s: float) -> Coin:
    """Coin of a single vertex with delta strength ``alpha_j``.

    ``a = d = 2 e^{iks} / (2 + i alpha_j/k)`` and
    ``b = c = e^{iks} (2/(2 + i alpha_j/k) - 1)``.  With ``alpha_j = 0``
    this is the free diagonal coin at ``p = q = ks``.  The numbers are
    checked as :class:`GraphParams` checks them.
    """
    alpha_j, s, k = _vertex_numbers(alpha_j, s, k)
    z = 2.0 / (2.0 + 1j * (alpha_j / k))
    phase = cmath.exp(1j * k * s)
    return make_coin(phase * z, phase * (z - 1.0), phase * (z - 1.0), phase * z)


def to_tunneling_config(gp: GraphParams) -> TunnelingConfig:
    """Walk configuration equivalent to the chain at ``gp.k``."""
    return TunnelingConfig(
        p=gp.k * gp.s,
        q=gp.k * gp.s,
        barrier=vertex_coin(gp.alpha, gp.k, gp.s),
        m=gp.m,
        delta=0.0,
    )


def transmission_at_k(gp: GraphParams) -> float:
    """Transmission probability T(k), evaluated in closed form.

    With ``y = alpha/k`` and ``f = y^2/(4+y^2)``::

        T = ((1 - f) / |1 + e^{2iksm} (2-iy)/(2+iy) f|)^2

    Agrees with the walk route (``solve_closed_form`` on
    :func:`to_tunneling_config`) to roundoff.
    """
    y = gp.alpha / gp.k
    f = y * y / (4.0 + y * y)
    num = 1.0 - f
    den = abs(
        1.0
        + cmath.exp(2j * gp.k * gp.s * gp.m) * ((2.0 - 1j * y) / (2.0 + 1j * y)) * f
    )
    return (num / den) ** 2


def _transmission_grid(
    alpha: float, s: float, m: int, ks: np.ndarray
) -> np.ndarray:
    y = alpha / ks
    f = y * y / (4.0 + y * y)
    den = np.abs(1.0 + np.exp(2j * ks * s * m) * ((2.0 - 1j * y) / (2.0 + 1j * y)) * f)
    return ((1.0 - f) / den) ** 2


@dataclass(frozen=True, slots=True, eq=False)
class Spectrum:
    """T(k) on ``np.linspace(k_min, k_max, n)``, evaluated when read.

    :meth:`block` gives the ``k`` and ``T`` of any range of grid
    points, so a writer that renders block by block holds one block;
    ``block(0, len(spectrum))`` is the whole grid.  ``len()`` is ``n``.
    Construction checks what :func:`spectrum_scan` documents.
    """

    alpha: float
    s: float
    m: int
    k_min: float
    k_max: float
    n: int

    def __post_init__(self) -> None:
        n = integer_number(self.n, "the number of grid points")
        if n < 2:
            raise ModelError(f"need at least 2 grid points, got {n}")
        if n > MAX_GRID_POINTS:
            raise ModelError(f"{n} grid points exceed the limit of {MAX_GRID_POINTS}")
        checked = (*_check_bracket(self.alpha, self.s, self.m, self.k_min, self.k_max), n)
        for name, value in zip(("alpha", "s", "m", "k_min", "k_max", "n"), checked):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return self.n

    def k_block(self, start: int, stop: int) -> np.ndarray:
        """Grid points ``start`` up to ``stop``, by ``np.linspace``'s own
        elementwise arithmetic (index times ``(k_max - k_min) / (n - 1)``,
        plus ``k_min``; the last point ``k_max``), so each has the bits
        of the whole-grid linspace.  ModelError unless both are
        integers, IndexError unless ``0 <= start < stop <= n``."""
        start, stop = integer_number(start, "block start"), integer_number(stop, "block stop")
        if not 0 <= start < stop <= self.n:
            raise IndexError(f"block [{start}, {stop}) outside the grid of {self.n} points")
        k = np.arange(start, stop, dtype=np.float64)
        k *= (self.k_max - self.k_min) / (self.n - 1)
        k += self.k_min
        if stop == self.n:
            k[-1] = self.k_max
        return k

    def block(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """``k`` and ``T`` of grid points ``start`` up to ``stop``."""
        k = self.k_block(start, stop)
        return k, _transmission_grid(self.alpha, self.s, self.m, k)


def _check_bracket(
    alpha: float, s: float, m: int, k_min: float, k_max: float
) -> tuple[float, float, int, float, float]:
    """Validate the chain and a wave-number bracket ``[k_min, k_max]``
    by the chain's :class:`GraphParams` at each end; return the checked
    ``(alpha, s, m, k_min, k_max)``."""
    lo = real_number(k_min, "k_min", InvalidWaveNumber)
    hi = real_number(k_max, "k_max", InvalidWaveNumber)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidWaveNumber(f"wave-number range must be finite, got [{k_min}, {k_max}]")
    if not (lo < hi):
        raise InvalidWaveNumber(f"empty wave-number range [{k_min}, {k_max}]")
    if lo < K_FLOOR:
        raise InvalidWaveNumber(f"k_min must be at least {K_FLOOR}, got {k_min}")
    # alpha/k peaks at k_min and the phase 2ksm at k_max
    low, high = GraphParams(alpha, s, m, lo), GraphParams(alpha, s, m, hi)
    return low.alpha, low.s, low.m, low.k, high.k


def spectrum_scan(
    alpha: float,
    s: float,
    m: int,
    k_min: float,
    k_max: float,
    n_points: int,
    threads: int = 1,
) -> Spectrum:
    """T(k) on ``np.linspace(k_min, k_max, n_points)``, as a
    :class:`Spectrum` that evaluates its blocks when they are read.

    The kernel's ufuncs are elementwise, so a block's ``T`` is that of
    one whole-grid call.  ``threads`` is accepted and ignored: nothing
    is computed here to share out.

    A non-integral ``n_points``, fewer than 2 or more than
    :data:`MAX_GRID_POINTS` is a ModelError, as is a chain
    :class:`GraphParams` refuses at either end of the bracket; a
    bracket whose ends are text, bools or no numbers, or that is not
    finite, empty or below :data:`K_FLOOR` is an InvalidWaveNumber.
    """
    return Spectrum(alpha, s, m, k_min, k_max, n_points)


@dataclass(frozen=True, slots=True)
class ResonanceSet:
    """Perfect-transmission wave numbers in a bracket, ascending.

    ``all_resonant`` marks the degenerate ``alpha = 0`` case where
    T(k) = 1 identically and listing roots is meaningless.
    """

    roots: tuple[float, ...]
    all_resonant: bool = False

    def __iter__(self):
        return iter(self.roots)

    def __len__(self) -> int:
        return len(self.roots)

    def __getitem__(self, i):
        return self.roots[i]


def _loop_phase(alpha: float, s: float, m: int, k: float) -> float:
    """Accumulated round-trip phase; T = 1 exactly where this hits an
    odd multiple of pi.  Strictly increasing in k."""
    return 2.0 * k * s * m - 2.0 * math.atan(alpha / (2.0 * k))


def find_resonances(
    alpha: float, s: float, m: int, k_min: float, k_max: float
) -> ResonanceSet:
    """All perfect-transmission wave numbers in ``[k_min, k_max]``.

    The loop phase is strictly increasing, so every crossing of an odd
    multiple of pi is enumerated directly and refined by bisection to a
    phase error below 1e-12.  No roots in the bracket yields an empty
    set; ``alpha = 0`` yields an empty set flagged ``all_resonant``.
    More than :data:`MAX_RESONANCES` roots in the bracket is a
    ModelError, raised before any root is located.
    """
    alpha, s, m, k_min, k_max = _check_bracket(alpha, s, m, k_min, k_max)
    if alpha == 0.0:
        return ResonanceSet(roots=(), all_resonant=True)

    lo_phase = _loop_phase(alpha, s, m, k_min)
    hi_phase = _loop_phase(alpha, s, m, k_max)
    j_lo = math.ceil((lo_phase - math.pi) / (2.0 * math.pi))
    j_hi = math.floor((hi_phase - math.pi) / (2.0 * math.pi))
    count = j_hi - j_lo + 1
    if count > MAX_RESONANCES:
        raise ModelError(
            f"[{k_min}, {k_max}] holds {count:.3g} resonances, over the limit of {MAX_RESONANCES}"
        )
    return ResonanceSet(
        roots=tuple(
            _bisect_root(alpha, s, m, k_min, k_max, (2 * j + 1) * math.pi)
            for j in range(j_lo, j_hi + 1)
        )
    )


def _bisect_root(alpha: float, s: float, m: int, k_min: float, k_max: float, target: float) -> float:
    """The k in ``[k_min, k_max]`` where the loop phase equals ``target``."""
    lo, hi = k_min, k_max
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g = _loop_phase(alpha, s, m, mid) - target
        if abs(g) < _PHASE_TOL:
            return mid
        if g < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 2.0 * math.ulp(hi):
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True, slots=True)
class EdgeWave:
    """Wavefunction on one directed edge, parametrized by the distance
    ``x`` in ``[0, s]`` from the edge's terminal vertex.

    ``value(x) = gamma_a e^{-ikx} + gamma_abar e^{-ik(s-x)}``.
    """

    gamma_a: complex
    gamma_abar: complex
    k: float
    s: float

    def value(self, x: float) -> complex:
        x = finite_number(x, "x")
        if x < 0.0 or x > self.s:
            raise ModelError(f"x must lie in [0, {self.s}], got {x}")
        return self.gamma_a * cmath.exp(-1j * self.k * x) + self.gamma_abar * cmath.exp(
            -1j * self.k * (self.s - x)
        )


def edge_wave(
    profile: AmplitudeProfile, gp: GraphParams, terminus: int, direction: str
) -> EdgeWave:
    """Directed-edge wave read off a stationary walk profile.

    The edge is named by the vertex it ends at and its travel
    direction: ``"rightward"`` comes from ``terminus - 1``,
    ``"leftward"`` from ``terminus + 1``.  The two coefficients are the
    walk amplitudes at the edge's two ends (the co-moving component at
    the terminus, the counter-moving one at the far end).
    """
    terminus = integer_number(terminus, "terminus")
    if direction == "rightward":
        far = terminus - 1
    elif direction == "leftward":
        far = terminus + 1
    else:
        raise ModelError(f"direction must be 'rightward' or 'leftward', got {direction!r}")
    lo, hi = profile.window
    for site in (terminus, far):
        if site < lo or site > hi:
            raise EdgeOutOfWindow(
                f"edge ({far} -> {terminus}) needs site {site}, "
                f"window is [{lo}, {hi}]"
            )
    if direction == "rightward":
        gamma_a = profile.at(terminus)[1]
        gamma_abar = profile.at(far)[0]
    else:
        gamma_a = profile.at(terminus)[0]
        gamma_abar = profile.at(far)[1]
    return EdgeWave(gamma_a, gamma_abar, gp.k, gp.s)
