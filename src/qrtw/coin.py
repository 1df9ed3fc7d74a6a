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
from typing import Any, Callable

import numpy as np

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
    conjugate of the 1,2 entry and carries no extra information).  The
    entries are read by :func:`real_number`; NotUnitary when the
    residual is NaN or infinite (a NaN or infinite entry, or one too
    large to square).
    """
    a, b, c, d = (real_number(x, "coin entry", kind=complex) for x in (a, b, c, d))
    try:
        col1 = abs(a) ** 2 + abs(c) ** 2 - 1.0
        col2 = abs(b) ** 2 + abs(d) ** 2 - 1.0
        deviations = (abs(col1), abs(col2), abs(a.conjugate() * b + c.conjugate() * d))
    except OverflowError:
        deviations = (math.inf,)
    residual = math.nan if any(map(math.isnan, deviations)) else max(deviations)
    if not math.isfinite(residual):
        raise NotUnitary(f"matrix is not unitary: residual {residual:.3e} (tol {UNITARITY_TOL:.1e})")
    return residual


def make_coin(a: complex, b: complex, c: complex, d: complex) -> Coin:
    """Validate entries and build a :class:`Coin`.

    Parameters
    ----------
    a, b, c, d :
        Matrix entries, row-major: numbers, read by :func:`real_number`.

    Returns
    -------
    Coin
        With the entries stored exactly as given (complex-coerced,
        never renormalized).

    Raises
    ------
    ModelError
        For an entry that is text, a bool or no number.
    NotUnitary
        If the :func:`unitarity_residual` is above :data:`UNITARITY_TOL`
        or not a number (a NaN or infinite entry), an entry too large to
        square included.  The message reports it.  The tolerance admits entries that went through text
        round-trips with rounded decimals; exactly constructed coins sit
        far below it.
    """
    residual = unitarity_residual(a, b, c, d)
    if residual > UNITARITY_TOL:
        raise NotUnitary(f"matrix is not unitary: residual {residual:.3e} (tol {UNITARITY_TOL:.1e})")
    return Coin(complex(a), complex(b), complex(c), complex(d))


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


def real_number(value: Any, what: str, error: type[ModelError] = ModelError, kind: type = float) -> Any:
    """``kind(value)``, a float or with ``kind=complex`` a complex, or
    ``error`` naming ``what`` if it is text, a bool or malformed; a
    number too large for a float reads as infinite."""
    try:
        if isinstance(value, _TEXT_OR_BOOL):
            raise TypeError
        return kind(value)
    except OverflowError:
        return kind(math.inf if value > 0 else -math.inf)
    except (TypeError, ValueError):
        raise error(f"{what} must be a number, got {value!r}") from None


def finite_number(value: Any, what: str) -> float:
    """:func:`real_number`, or ModelError naming ``what`` if it is not finite."""
    number = real_number(value, what)
    if not math.isfinite(number):
        raise ModelError(f"{what} must be finite, got {number!r}")
    return number


def finite_array(value: Any, what: str) -> np.ndarray:
    """A new complex array of ``value``'s entries, or ModelError naming
    ``what`` unless they are integers, floats or complex numbers (not
    text, bools or objects), all finite.  Finite is read off the sum of
    ``value * 0``, NaN exactly when an entry is NaN or infinite: unlike
    ``np.isfinite``, whose code numpy's import leaves unloaded, those
    ufuncs add nothing to a process's resident pages."""
    arr = np.asarray(value)
    with np.errstate(invalid="ignore"):  # inf * 0 is the NaN looked for
        if arr.dtype.kind not in "iufc" or cmath.isnan(np.sum(arr * 0)):
            raise ModelError(f"{what} must hold finite numbers")
    return arr.astype(complex)


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


def pair(value: Any, what: str, read: Callable[[Any, str], Any] | None = None, item: str = "") -> tuple[Any, Any]:
    """The two items of ``value``, each as ``read(item_value, item)``
    when ``read`` is given, or ModelError naming ``what`` if ``value``
    is text or does not hold exactly two items."""
    try:
        if isinstance(value, _TEXT_OR_BOOL):
            raise TypeError
        first, second = value
    except (TypeError, ValueError):
        raise ModelError(f"{what} must be a pair, got {value!r}") from None
    return (first, second) if read is None else (read(first, item), read(second, item))


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
        For unrecognized shapes or preset names, a pair that is not two
        numbers, a non-finite entry, and for the numbers
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
            return free_coin(*pair(data["free"], "free coin phases [p, q]"))
        entries = (pair(data.get(k), f"coin entry {k} [re, im]", finite_number, "coin entries") for k in "abcd")
        return make_coin(*(complex(*entry) for entry in entries))
    raise ModelError(f"cannot read a coin from a {type(data).__name__}")
