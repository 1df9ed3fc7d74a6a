"""Bounce expansion of the transmitted amplitude.

A walker that crosses both barriers may also bounce back and forth in
the gap any number of times before leaving.  Summing one term per
bounce count gives a geometric series for the amplitude arriving just
past the second barrier: the lead term is ``d**2`` times the gap
transit phase, and each extra round trip multiplies by
``bc * loop_det``.  The series limit must reproduce the closed-form
transmitted amplitude, which makes partial sums an independent check
with an explicit remainder bound.

The series is kept in its raw normalization, the amplitude at site
``m + 1``.  Dividing by :func:`transmitted_tail_phase` converts it to
the plain transmitted amplitude ``t``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .coin import integer_number
from .errors import DivergentSeries, ModelError
from .scattering import TunnelingConfig

__all__ = [
    "SeriesResult",
    "t_series",
    "t_series_limit",
    "transmitted_tail_phase",
]

_FULL_EPS = 1e-14
MAX_TERMS = 10**6


@dataclass(frozen=True, slots=True)
class SeriesResult:
    """Partial sum with bookkeeping.

    ``remainder_bound`` is ``|first omitted term| / (1 - |ratio|)``, a
    hard cap on the distance to the limit.
    """

    partial_sum: complex
    terms_used: int
    remainder_bound: float


def _lead_and_ratio(cfg: TunnelingConfig) -> tuple[complex, complex]:
    ratio = cfg.round_trip_ratio
    if abs(cfg.bc) >= 1.0 - _FULL_EPS:
        raise DivergentSeries(
            f"|bc| = {abs(cfg.bc):.17g}: bounce series does not converge"
        )
    lead = cfg.barrier.d ** 2 * cmath.exp(1j * cfg.q_shifted * (cfg.m - 1))
    return lead, ratio


def t_series(cfg: TunnelingConfig, max_bounces: int) -> SeriesResult:
    """Sum the first ``max_bounces + 1`` terms of the bounce series.

    Term ``k`` is the amplitude of the path with exactly ``k`` round
    trips in the gap.  ``max_bounces`` is clamped to ``MAX_TERMS`` and
    the ratio powers are accumulated by iterated multiplication, so no
    overflow is possible for a convergent ratio.

    Raises
    ------
    ModelError
        When ``max_bounces`` is not an integral number, or is negative.
    DivergentSeries
        When ``|bc| >= 1`` (up to 1e-14), where the expansion is
        meaningless.
    """
    max_bounces = integer_number(max_bounces, "max_bounces")
    if max_bounces < 0:
        raise ModelError("max_bounces must be nonnegative")
    k_max = min(max_bounces, MAX_TERMS)
    lead, ratio = _lead_and_ratio(cfg)
    total = 0j
    term = lead
    for _ in range(k_max + 1):
        total += term
        term *= ratio
    mod_ratio = abs(ratio)
    remainder = abs(term) / (1.0 - mod_ratio)
    return SeriesResult(
        partial_sum=total, terms_used=k_max + 1, remainder_bound=remainder
    )


def t_series_limit(cfg: TunnelingConfig) -> complex:
    """Closed limit of the bounce series, ``lead / (1 - ratio)``.

    Equals the steady amplitude at site ``m + 1``, that is
    ``t * transmitted_tail_phase(cfg)``.
    """
    lead, ratio = _lead_and_ratio(cfg)
    return lead / (1.0 - ratio)


def transmitted_tail_phase(cfg: TunnelingConfig) -> complex:
    """Plane-wave phase at site ``m + 1``, ``exp(i(q+delta)(m+1))``.

    Divide the series limit by this to compare against the transmitted
    amplitude ``t`` directly.
    """
    return cmath.exp(1j * cfg.q_shifted * (cfg.m + 1))
