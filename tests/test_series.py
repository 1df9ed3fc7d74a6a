"""Bounce expansion of the transmitted amplitude."""

import math

import numpy as np
import pytest

from conftest import random_config
from qrtw import (
    DivergentSeries,
    ModelError,
    TunnelingConfig,
    hadamard,
    make_coin,
    solve_closed_form,
    t_series,
    t_series_limit,
    transmitted_tail_phase,
)
from qrtw.series import MAX_TERMS


def test_zero_bounces_is_direct_transit():
    cfg = TunnelingConfig(p=math.pi / 2, q=math.pi / 2, barrier=hadamard(), m=2)
    res = t_series(cfg, 0)
    assert res.terms_used == 1
    d = cfg.barrier.d
    lead = d * d * np.exp(1j * cfg.q_shifted * (cfg.m - 1))
    assert abs(res.partial_sum - lead) < 1e-15


def test_partial_sums_approach_limit_within_bounds():
    rng = np.random.default_rng(211)
    for _ in range(30):
        cfg = random_config(rng, max_bc=0.8, with_delta=bool(rng.integers(0, 2)))
        limit = t_series_limit(cfg)
        prev_err = math.inf
        for bounces in (0, 1, 2, 5, 20, 60):
            res = t_series(cfg, bounces)
            err = abs(res.partial_sum - limit)
            assert err <= res.remainder_bound * (1.0 + 1e-12) + 1e-15
            assert err <= prev_err + 1e-15
            prev_err = err


def test_limit_matches_closed_form_up_to_tail_phase():
    rng = np.random.default_rng(223)
    for _ in range(50):
        cfg = random_config(rng, max_bc=0.9, with_delta=True)
        t = solve_closed_form(cfg).t
        back = t_series_limit(cfg) * transmitted_tail_phase(cfg).conjugate()
        assert abs(back - t) < 1e-12


def test_remainder_bound_formula():
    cfg = TunnelingConfig(p=0.3, q=-0.2, barrier=hadamard(), m=3)
    ratio = abs(cfg.round_trip_ratio)
    for bounces in (0, 3, 7):
        res = t_series(cfg, bounces)
        lead = abs(cfg.barrier.d) ** 2
        expect = lead * ratio ** (bounces + 1) / (1.0 - ratio)
        assert res.remainder_bound == pytest.approx(expect, rel=1e-12)


def test_negative_bounces_rejected():
    cfg = TunnelingConfig(p=0.0, q=0.0, barrier=hadamard(), m=1)
    with pytest.raises(ValueError):
        t_series(cfg, -1)


@pytest.mark.parametrize("bounces", [1.5, math.nan, math.inf, "3"])
def test_bounce_count_must_be_an_integer(bounces):
    # 1.5 once summed 2 terms; nan, inf and "3" raised bare ValueError, OverflowError and TypeError
    cfg = TunnelingConfig(p=0.1, q=0.2, barrier=hadamard(), m=1)
    with pytest.raises(ModelError, match="max_bounces must be an integer"):
        t_series(cfg, bounces)


def test_term_budget_is_clamped():
    cfg = TunnelingConfig(p=0.1, q=0.2, barrier=hadamard(), m=1)
    res = t_series(cfg, 10**9)
    assert res.terms_used == MAX_TERMS + 1
    assert res.remainder_bound < 1e-300


def test_divergent_series_guard():
    swap = make_coin(0.0, 1.0, 1.0, 0.0)
    cfg = TunnelingConfig(p=0.4, q=0.4, barrier=swap, m=2)
    with pytest.raises(DivergentSeries):
        t_series(cfg, 5)
    with pytest.raises(DivergentSeries):
        t_series_limit(cfg)
