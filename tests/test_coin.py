"""Coin construction, validation, and the mixing-weight decomposition."""

import cmath
import math

import numpy as np
import pytest

from conftest import random_unitary
from qrtw import (
    ModelError,
    NotUnitary,
    beta_decompose,
    coin_from_json,
    determinant,
    free_coin,
    hadamard,
    half_wave_plate,
    identity_coin,
    make_coin,
    unitarity_residual,
)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_make_coin_accepts_hadamard():
    u = make_coin(_INV_SQRT2, _INV_SQRT2, _INV_SQRT2, -_INV_SQRT2)
    assert u.a == pytest.approx(_INV_SQRT2)
    assert u.d == pytest.approx(-_INV_SQRT2)


def test_make_coin_rejects_nonunitary():
    with pytest.raises(NotUnitary):
        make_coin(1.0, 1.0, 0.0, 1.0)


def test_make_coin_enforces_unitarity_tol():
    # the tolerance is UNITARITY_TOL: a residual of 2e-8 is rejected, 2e-11 kept
    with pytest.raises(NotUnitary):
        make_coin(1.0 + 1e-8, 0.0, 0.0, 1.0)
    u = make_coin(1.0 + 1e-11, 0.0, 0.0, 1.0)
    assert u.a == 1.0 + 1e-11


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
@pytest.mark.parametrize("entry", range(4))
def test_make_coin_rejects_non_finite_entry(entry, value):
    # NaN compares false against any tolerance, so the check must not read
    # "worst > tol"; inf entries turn the column overlap into NaN
    entries = [1.0, 0.0, 0.0, 1.0]
    entries[entry] = value
    with pytest.raises(NotUnitary, match="residual (nan|inf)"):
        make_coin(*entries)


def test_unitarity_residual_tracks_perturbation():
    res = unitarity_residual(_INV_SQRT2 + 1e-6, _INV_SQRT2, _INV_SQRT2, -_INV_SQRT2)
    assert 1e-7 < res < 1e-5


def test_free_coin_is_diagonal():
    u = free_coin(0.3, -1.1)
    assert u.b == 0 and u.c == 0
    assert u.a == pytest.approx(cmath.exp(0.3j))
    assert u.d == pytest.approx(cmath.exp(-1.1j))


def test_half_wave_plate_at_pi_over_8_is_hadamard():
    u = half_wave_plate(math.pi / 8.0)
    h = hadamard()
    assert max(abs(u.a - h.a), abs(u.b - h.b), abs(u.c - h.c), abs(u.d - h.d)) < 1e-15


def test_half_wave_plate_determinant_is_minus_one():
    for theta in (0.1, 0.7, 1.3, 2.9):
        assert determinant(half_wave_plate(theta)) == pytest.approx(-1.0)


def test_identity_coin():
    u = identity_coin()
    assert (u.a, u.b, u.c, u.d) == (1, 0, 0, 1)


def test_determinant_modulus_one_random():
    rng = np.random.default_rng(42)
    for _ in range(200):
        u = random_unitary(rng)
        assert abs(abs(determinant(u)) - 1.0) < 1e-12


def test_beta_decompose_identities():
    rng = np.random.default_rng(7)
    for _ in range(300):
        u = random_unitary(rng)
        dec = beta_decompose(u)
        assert dec.alpha == abs(u.d)
        assert abs(dec.alpha**2 + dec.beta_sq - 1.0) < 1e-12
        # bc = -det(U) |beta|^2 ties the mixing weight to the off-diagonal product
        assert abs(u.b * u.c + determinant(u) * dec.beta_sq) < 1e-12
        assert abs(dec.beta_sq - abs(u.b) ** 2) < 1e-12


def test_beta_decompose_antidiagonal_branch():
    # vanishing diagonal forces the swap branch where alpha = 0
    u = make_coin(0.0, cmath.exp(0.4j), cmath.exp(-1.2j), 0.0)
    dec = beta_decompose(u)
    assert dec.alpha == 0.0
    assert dec.beta_sq == abs(u.b) ** 2
    assert abs(dec.beta_sq - 1.0) < 1e-15


def test_coin_json_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = random_unitary(rng)
        again = coin_from_json({k: [z.real, z.imag] for k, z in zip("abcd", (u.a, u.b, u.c, u.d))})
        assert max(
            abs(again.a - u.a),
            abs(again.b - u.b),
            abs(again.c - u.c),
            abs(again.d - u.d),
        ) == 0.0


def test_coin_from_json_presets():
    assert coin_from_json("hadamard").a == pytest.approx(_INV_SQRT2)
    assert coin_from_json("identity").b == 0
    hwp = coin_from_json({"hwp": 0.25})
    assert hwp.a == pytest.approx(math.cos(0.5))
    fr = coin_from_json({"free": [0.3, 0.4]})
    assert fr.b == 0 and fr.a == pytest.approx(cmath.exp(0.3j))


def test_coin_from_json_rejects_unknown():
    with pytest.raises(ModelError):
        coin_from_json("walsh")
    with pytest.raises(ModelError):
        coin_from_json({"spin": 1})
    with pytest.raises(ModelError):
        coin_from_json(17)


@pytest.mark.parametrize(
    "data, message",
    [
        ({"hwp": math.nan}, "hwp angle must be finite, got nan"),
        ({"hwp": math.inf}, "hwp angle must be finite, got inf"),
        ({"hwp": "x"}, "hwp angle must be a number, got 'x'"),
        ({"hwp": 1e308}, r"hwp angle 1e\+308 is too large: its double overflows"),
        ({"free": [0.1, math.nan]}, "free coin phase must be finite, got nan"),
        ({"free": [-math.inf, 0.1]}, "free coin phase must be finite, got -inf"),
        ({"free": [None, 0.1]}, "free coin phase must be a number, got None"),
        ({"hwp": "0.3"}, "hwp angle must be a number, got '0.3'"),
        ({"hwp": b"0.3"}, "hwp angle must be a number, got b'0.3'"),
        ({"free": [False, "1"]}, "free coin phase must be a number, got False"),
        ({"free": [0.1, "1"]}, "free coin phase must be a number, got '1'"),
    ],
    ids=["hwp-nan", "hwp-inf", "hwp-string", "hwp-overflow", "free-nan", "free-inf", "free-none",
         "hwp-numeric-string", "hwp-bytes", "free-bool", "free-numeric-string"],
)
def test_coin_builders_refuse_malformed_numbers(data, message):
    # the builders make the checks, and coin_from_json reads through them with the same message
    [(kind, value)] = data.items()
    build, args = (free_coin, value) if kind == "free" else (half_wave_plate, [value])
    with pytest.raises(ModelError, match=message):
        build(*args)
    with pytest.raises(ModelError, match=message):
        coin_from_json(data)
