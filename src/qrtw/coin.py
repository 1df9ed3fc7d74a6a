"""Unitary 2x2 coins for a two-channel walk on the integer lattice.

A coin mixes the left-moving and right-moving amplitude at one site.
Entries are named row-major::

    U = | a  b |
        | c  d |

so ``a`` keeps a left mover in the left channel, ``b`` folds a right
mover into the left channel, ``c`` folds a left mover into the right
channel, and ``d`` keeps a right mover in the right channel.

Arbitrary matrices go through :func:`make_coin`, which rejects anything
that is not unitary within a small residual.  The named builders
(:func:`free_coin`, :func:`half_wave_plate`, :func:`hadamard`) are exact
by construction.  :func:`beta_decompose` reduces a coin to its real
mixing pair ``alpha``, ``|beta|``, which is how the transmitted
magnitude is expressed independently of the full solve.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Any

from .errors import ModelError, NotUnitary

__all__ = [
    "BetaDecomposition",
    "Coin",
    "beta_decompose",
    "coin_from_json",
    "determinant",
    "free_coin",
    "hadamard",
    "half_wave_plate",
    "identity_coin",
    "make_coin",
    "unitarity_residual",
]

UNITARITY_TOL = 1e-10
_ENTRY_EPS = 1e-14


@dataclass(frozen=True, slots=True)
class Coin:
    """One 2x2 unitary coin, stored entrywise.

    Attributes
    ----------
    a, b, c, d : complex
        Matrix entries in row-major order, ``[[a, b], [c, d]]``.
    """

    a: complex
    b: complex
    c: complex
    d: complex


def unitarity_residual(a: complex, b: complex, c: complex, d: complex) -> float:
    """Largest absolute entry of ``conj(U).T @ U - I`` for ``U = [[a,b],[c,d]]``.

    Zero for an exactly unitary matrix.  The three distinct entries are
    the two column norms and the column overlap (the 2,1 entry is the
    conjugate of the 1,2 entry and carries no extra information).  NaN
    when any of them is NaN, else ``inf`` when one overflows.
    """
    try:
        col1 = abs(a) ** 2 + abs(c) ** 2 - 1.0
        col2 = abs(b) ** 2 + abs(d) ** 2 - 1.0
        cross = a.conjugate() * b + c.conjugate() * d
    except OverflowError:
        return math.inf
    deviations = (abs(col1), abs(col2), abs(cross))
    return math.nan if any(map(math.isnan, deviations)) else max(deviations)


def make_coin(a: complex, b: complex, c: complex, d: complex) -> Coin:
    """Validate entries and build a :class:`Coin`.

    Parameters
    ----------
    a, b, c, d :
        Matrix entries, row-major.  Anything ``complex()`` accepts.

    Returns
    -------
    Coin
        With the entries stored exactly as given (complex-coerced,
        never renormalized).

    Raises
    ------
    NotUnitary
        If the :func:`unitarity_residual` is above :data:`UNITARITY_TOL`
        or not a number (a NaN or infinite entry), an entry too large to
        square included.  The message reports it.  The tolerance admits entries that went through text
        round-trips with rounded decimals; exactly constructed coins sit
        far below it.
    """
    a, b, c, d = complex(a), complex(b), complex(c), complex(d)
    residual = unitarity_residual(a, b, c, d)
    if not residual <= UNITARITY_TOL:
        raise NotUnitary(
            f"matrix is not unitary: residual {residual:.3e} (tol {UNITARITY_TOL:.1e})"
        )
    return Coin(a, b, c, d)


def free_coin(p: float, q: float) -> Coin:
    """Diagonal coin ``diag(e^{ip}, e^{iq})``.

    Leaves the two channels uncoupled, so walkers translate
    ballistically while picking up the phase ``p`` (left movers) or
    ``q`` (right movers) per step.  ModelError for a phase that is
    malformed or not finite.
    """
    p, q = (finite_number(x, "free coin phase") for x in (p, q))
    return Coin(cmath.exp(1j * p), 0j, 0j, cmath.exp(1j * q))


def half_wave_plate(theta: float) -> Coin:
    """Real reflection coin at plate angle ``theta``.

    The matrix is ``[[cos 2t, sin 2t], [sin 2t, -cos 2t]]`` with
    determinant exactly -1 for every angle.  ``theta = pi/8`` gives the
    Hadamard coin and ``theta = pi/4`` the pure swap.  ModelError for an
    angle that is malformed, not finite, or whose double overflows.
    """
    theta = finite_number(theta, "hwp angle")
    if not math.isfinite(2.0 * theta):
        raise ModelError(f"hwp angle {theta!r} is too large: its double overflows")
    co = math.cos(2.0 * theta)
    si = math.sin(2.0 * theta)
    return Coin(complex(co), complex(si), complex(si), complex(-co))


def identity_coin() -> Coin:
    """The do-nothing coin ``diag(1, 1)``."""
    return Coin(1.0 + 0j, 0j, 0j, 1.0 + 0j)


def hadamard() -> Coin:
    """The balanced reflection coin, equal to ``half_wave_plate(pi/8)``."""
    s = complex(math.sqrt(0.5))
    return Coin(s, s, s, -s)


def determinant(u: Coin) -> complex:
    """Determinant ``a*d - b*c``; modulus 1 for any unitary coin."""
    return u.a * u.d - u.b * u.c


@dataclass(frozen=True, slots=True)
class BetaDecomposition:
    """The real mixing pair of a coin.

    A unitary coin factors entrywise as ``a = u*alpha``,
    ``b = u*conj(beta)``, ``c = v*beta``, ``d = -v*alpha`` with
    ``alpha`` real and nonnegative and ``|u| = |v| = 1``.  Only the
    moduli are kept: ``alpha`` and the mixing weight ``beta_sq =
    |beta|**2``, a real number in [0, 1].
    """

    alpha: float
    beta_sq: float


def beta_decompose(u: Coin) -> BetaDecomposition:
    """The real mixing pair of ``u``: ``alpha >= 0`` and ``beta_sq``,
    with ``alpha**2 + beta_sq == 1`` up to roundoff.

    With ``d != 0`` the split takes ``alpha = |d|`` and
    ``beta = conj(b)*a/|d|``; when the diagonal vanishes (``|d|`` below
    1e-14, a pure swap) it takes ``alpha = 0`` and ``|beta| = |b|``.
    """
    mod_d = abs(u.d)
    if mod_d < _ENTRY_EPS:
        return BetaDecomposition(alpha=0.0, beta_sq=abs(u.b) ** 2)
    return BetaDecomposition(alpha=mod_d, beta_sq=abs(u.b.conjugate() * (u.a / mod_d)) ** 2)


_TEXT_OR_BOOL = (str, bytes, bytearray, bool)
"""What ``float()`` or ``int()`` reads as a number but no number input may be."""


def real_number(value: Any, what: str, error: type[ModelError] = ModelError) -> float:
    """``float(value)``, or ``error`` naming ``what`` if it is text, a
    bool or malformed; a number too large for a float reads as infinite."""
    try:
        if isinstance(value, _TEXT_OR_BOOL):
            raise TypeError
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf
    except (TypeError, ValueError):
        raise error(f"{what} must be a number, got {value!r}") from None


def finite_number(value: Any, what: str) -> float:
    """:func:`real_number`, or ModelError naming ``what`` if it is not finite."""
    number = real_number(value, what)
    if not math.isfinite(number):
        raise ModelError(f"{what} must be finite, got {number!r}")
    return number


def integer_number(value: Any, what: str) -> int:
    """``int(value)``, or ModelError naming ``what`` if it is text, a
    bool or not an integral number."""
    try:
        if isinstance(value, _TEXT_OR_BOOL):
            raise TypeError
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ModelError(f"{what} must be an integer, got {value!r}") from None
    if number != value:
        raise ModelError(f"{what} must be an integer, got {value!r}")
    return number


def checked_phases(p: Any, q: Any, delta: Any, reach: int, what: str) -> tuple[float, float, float]:
    """``p``, ``q`` and ``delta`` by :func:`finite_number`, or ModelError
    unless every phase read out to ``reach`` sites from the origin,
    bounded by ``2*(|p|+|q|+|delta|)*reach``, is finite; ``what`` names
    the input that set a ``reach`` with no float."""
    p, q, delta = (finite_number(value, name) for value, name in ((p, "p"), (q, "q"), (delta, "delta")))
    try:
        bound = 2.0 * (abs(p) + abs(q) + abs(delta)) * float(reach)
    except OverflowError:
        raise ModelError(f"{what} is too large for the phase arithmetic") from None
    if not math.isfinite(bound):
        raise ModelError(
            f"phases p={p!r}, q={q!r}, delta={delta!r} are too large "
            f"for the phase arithmetic {reach} sites from the origin"
        )
    return p, q, delta


def coin_from_json(data: Any) -> Coin:
    """Read a coin from its JSON form: entries or a named preset.

    Accepted forms: the entrywise dict of ``[re, im]`` pairs, the
    strings ``"identity"`` and ``"hadamard"``, ``{"hwp": theta}`` for a
    plate angle, and ``{"free": [p, q]}`` for a diagonal coin.

    Raises
    ------
    ModelError
        For unrecognized shapes or preset names, and for the numbers
        :func:`half_wave_plate` and :func:`free_coin` refuse.
    NotUnitary
        When explicit entries fail validation.
    """
    if isinstance(data, str):
        name = data.strip().lower()
        if name == "identity":
            return identity_coin()
        if name == "hadamard":
            return hadamard()
        raise ModelError(f"unknown coin preset {data!r}")
    if isinstance(data, dict):
        if set(data) == {"hwp"}:
            return half_wave_plate(data["hwp"])
        if set(data) == {"free"}:
            phases = data["free"]
            if not isinstance(phases, (list, tuple)) or len(phases) != 2:
                raise ModelError(f"free coin needs a [p, q] pair, got {phases!r}")
            return free_coin(*phases)
        try:
            entries = [complex(data[k][0], data[k][1]) for k in ("a", "b", "c", "d")]
        except (KeyError, TypeError, IndexError) as exc:
            raise ModelError(
                f"coin JSON needs entries a, b, c, d as [re, im] pairs ({exc})"
            ) from exc
        if not all(map(cmath.isfinite, entries)):
            raise ModelError(f"coin entries must be finite, got {entries!r}")
        return make_coin(*entries)
    raise ModelError(f"cannot read a coin from a {type(data).__name__}")
