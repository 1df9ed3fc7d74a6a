"""Both CSV writers against the per-row f-string renderer they replaced.

The reference below is the row code the writers used before the array
kernel (qrtw._shortest): ``repr`` of each float, and ``mu`` as Python's
``abs(l) ** 2 + abs(r) ** 2``.  Python's ``** 2`` is libm ``pow``, which
numpy's ``** 2`` and ``np.square`` (``x * x``) do not match on some
values, so the random amplitudes here are many enough to show a ``mu``
squared by numpy.
"""

import numpy as np
import pytest

from conftest import random_config
from qrtw import AmplitudeProfile, ModelError, build_profile, profile_to_csv, solve_closed_form, spectrum_csv_blocks, spectrum_scan
from qrtw._shortest import csv_rows
from qrtw.artifacts import _BLOCK


def _reference_profile_csv(profile) -> str:
    rows = zip(range(profile.x_min, profile.x_max + 1), profile.psi_l.tolist(), profile.psi_r.tolist())
    return "x,psiL_re,psiL_im,psiR_re,psiR_im,mu\n" + "".join(
        [f"{x},{l.real!r},{l.imag!r},{r.real!r},{r.imag!r},{abs(l) ** 2 + abs(r) ** 2!r}\n" for x, l, r in rows]
    )


def _reference_spectrum_csv(k, T) -> str:
    return "k,T\n" + "".join([f"{a!r},{b!r}\n" for a, b in zip(k.tolist(), T.tolist())])


def _random_amplitudes(rng, n):
    """Complex amplitudes over many scales, with -0.0 parts, tiny,
    subnormal and exactly zero entries."""
    z = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** rng.integers(-20, 3, n)
    z[rng.integers(0, n, n // 50)] *= 1e-300
    parts = z.view(np.float64)
    parts[rng.integers(0, 2 * n, n // 50)] = -0.0
    parts[rng.integers(0, 2 * n, n // 100)] = 0.0
    return z


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_profile_csv_equals_the_reference(seed):
    rng = np.random.default_rng(seed)
    cfg = random_config(rng, with_delta=True)
    assert cfg.p != 0 and cfg.q != 0
    solved = build_profile(solve_closed_form(cfg), cfg, (-7, cfg.m + _BLOCK + 300))
    n = _BLOCK + 5000
    drawn = AmplitudeProfile(-n // 2, n - n // 2 - 1, _random_amplitudes(rng, n), _random_amplitudes(rng, n))
    for profile in (solved, drawn):
        assert "".join(profile_to_csv(profile)) == _reference_profile_csv(profile)


@pytest.mark.parametrize("x_min", [10**17 - 3, -(10**17) - 2, 10**30])
def test_profile_positions_past_the_int_kernel_are_refused(x_min):
    # every position the CSV kernel's int64 index cannot write lies past 2**53
    rng = np.random.default_rng(34)
    with pytest.raises(ModelError, match="position limit of 2\\*\\*53"):
        AmplitudeProfile(x_min, x_min + 9, _random_amplitudes(rng, 10), _random_amplitudes(rng, 10))


def test_spectrum_csv_equals_the_reference():
    rng = np.random.default_rng(35)
    n = 2 * _BLOCK + 77
    k = np.sort(rng.uniform(1e-6, 50.0, n))
    T = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-30, 1, n)
    T[rng.integers(0, n, 40)] = [np.nan, np.inf, -np.inf, -0.0] * 10
    # arbitrary columns, rendered block by block as the spectrum writer renders its own
    drawn = "".join("".join(csv_rows([k[i : i + _BLOCK], T[i : i + _BLOCK]])) for i in range(0, n, _BLOCK))
    assert "k,T\n" + drawn == _reference_spectrum_csv(k, T)
    spectrum = spectrum_scan(2.5, 0.7, 5, 0.1, 5.0, n)
    assert "".join(spectrum_csv_blocks(spectrum)) == _reference_spectrum_csv(*spectrum.block(0, n))
