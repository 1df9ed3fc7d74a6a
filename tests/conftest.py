"""Shared draw helpers for randomized tests.

Every random coin comes from the fully general family

    a = e^{i f1} cos(th)    b = e^{i f2} sin(th)
    c = -e^{i(g - f2)} sin(th)    d = e^{i(g - f1)} cos(th)

whose determinant is e^{ig} and whose off-diagonal product has
magnitude sin(th)^2, so the bounce strength |bc| can be dialed
directly.  Tests seed their own generators; nothing here holds state.
"""

import cmath
import math

import numpy as np
import pytest

from qrtw import Coin, TunnelingConfig, make_coin


def random_unitary(rng, bc_mag: float | None = None, a_mag: float | None = None) -> Coin:
    """One coin from the 4-parameter family; |bc| fixed when given, or
    else the diagonal modulus |a| = |d| when that is given."""
    if a_mag is not None:
        th = math.acos(a_mag)
    else:
        if bc_mag is None:
            bc_mag = rng.uniform(0.0, 1.0)
        th = math.asin(math.sqrt(bc_mag))
    f1, f2, g = rng.uniform(0.0, 2.0 * math.pi, size=3)
    a = cmath.exp(1j * f1) * math.cos(th)
    b = cmath.exp(1j * f2) * math.sin(th)
    c = -cmath.exp(1j * (g - f2)) * math.sin(th)
    d = cmath.exp(1j * (g - f1)) * math.cos(th)
    return make_coin(a, b, c, d)


def random_config(
    rng,
    max_bc: float = 0.9,
    m_hi: int = 8,
    with_delta: bool = False,
) -> TunnelingConfig:
    coin = random_unitary(rng, bc_mag=rng.uniform(0.0, max_bc))
    delta = rng.uniform(-math.pi, math.pi) if with_delta else 0.0
    return TunnelingConfig(
        p=rng.uniform(-math.pi, math.pi),
        q=rng.uniform(-math.pi, math.pi),
        barrier=coin,
        m=int(rng.integers(1, m_hi + 1)),
        delta=delta,
    )


@pytest.fixture
def no_window_arrays(monkeypatch):
    """Make ``np.zeros`` and ``np.arange`` fail, so a test sees a size
    limit checked before anything is allocated."""

    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the size check")

    monkeypatch.setattr(np, "zeros", refuse)
    monkeypatch.setattr(np, "arange", refuse)
