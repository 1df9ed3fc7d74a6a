"""Both JSON writers against ``json.dumps`` of the whole document.

The writers format one block of each array at a time; the reference
builds the whole document as Python lists and lays it out with
``json.dumps(..., indent=2, allow_nan=False)``.  Both sides compute in
this process with this process's numpy, so the comparison holds at
every SIMD dispatch level, unlike the pinned digests.
"""

import json

import numpy as np

from qrtw import AmplitudeProfile, spectrum_scan
from qrtw.artifacts import _BLOCK, profile_json, spectrum_json


def _reference(document: dict) -> str:
    return json.dumps(document, indent=2, allow_nan=False) + "\n"


def _pairs(z: np.ndarray) -> list:
    return [[v.real, v.imag] for v in z.tolist()]


def test_profile_json_equals_the_whole_document():
    rng = np.random.default_rng(36)
    n = 2 * _BLOCK + 77
    pl, pr = ((rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** rng.integers(-20, 3, n) for _ in range(2))
    pl.view(np.float64)[rng.integers(0, 2 * n, n // 50)] = -0.0
    pr.view(np.float64)[rng.integers(0, 2 * n, n // 100)] = 0.0
    profile = AmplitudeProfile(-(n // 2), n - n // 2 - 1, pl, pr)
    expected = _reference(
        {
            "x_min": profile.x_min,
            "x_max": profile.x_max,
            "psi_l": _pairs(pl),
            "psi_r": _pairs(pr),
            "mu": (np.abs(pl) ** 2 + np.abs(pr) ** 2).tolist(),
        }
    )
    assert "".join(profile_json(profile)) == expected


def test_spectrum_json_equals_the_whole_document():
    spectrum = spectrum_scan(2.5, 0.7, 5, 0.1, 5.0, 2 * _BLOCK + 77)
    head = {"alpha": 2.5, "s": 0.7, "m": 5}
    k, T = spectrum.block(0, len(spectrum))
    expected = _reference({**head, "k": k.tolist(), "T": T.tolist()})
    assert "".join(spectrum_json(spectrum, head)) == expected
