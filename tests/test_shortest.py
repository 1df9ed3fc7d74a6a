"""The CSV float kernel against ``float.__repr__``, value by value."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qrtw
from qrtw import TunnelingConfig, build_profile, half_wave_plate, profile_to_csv, solve_closed_form
from qrtw._shortest import _CHUNK, INT_LIMIT, csv_rows
from qrtw.evolution import default_window


def _texts(values) -> list[str]:
    """The kernel's text of each value, one value per CSV row."""
    return "".join(csv_rows([np.asarray(values, dtype=np.float64)])).splitlines()


def _mismatches(values) -> list:
    values = np.asarray(values, dtype=np.float64)
    return [(v, got) for v, got in zip(values.tolist(), _texts(values)) if got != repr(v)]


def _with_neighbours(x):
    with np.errstate(over="ignore"):
        return np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])


def test_random_bit_patterns_match_repr():
    bits = np.random.default_rng(20).integers(0, 2**64, 100_000, dtype=np.uint64)
    values = bits.view(np.float64)
    assert not _mismatches(values[np.isfinite(values)])


def test_powers_of_two_and_ten_match_repr():
    two = np.ldexp(1.0, np.arange(-1074, 1024))
    ten = np.array([float(f"1e{e}") for e in range(-323, 309)])
    values = _with_neighbours(np.concatenate([two, ten]))
    assert not _mismatches(np.concatenate([values, -values]))


def test_subnormals_zeros_and_extremes_match_repr():
    rng = np.random.default_rng(21)
    subnormal = np.concatenate(
        [np.arange(1, 2000, dtype=np.uint64), rng.integers(1, 2**52, 5000, dtype=np.uint64)]
    ).view(np.float64)
    extremes = np.array([0.0, 2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308])
    values = _with_neighbours(np.concatenate([subnormal, extremes]))
    assert not _mismatches(np.concatenate([values, -values]))
    assert _texts([0.0, -0.0]) == ["0.0", "-0.0"]


def test_integers_around_two_to_the_53_match_repr():
    values = np.arange(2**53 - 3000, 2**53 + 3000, dtype=np.int64).astype(np.float64)
    assert not _mismatches(np.concatenate([values, -values, values / 4, values * 1024]))


def test_each_count_of_significant_digits_matches_repr():
    rng = np.random.default_rng(22)
    texts = []
    for digits in range(1, 18):
        first = rng.integers(1, 10, 300)
        rest = rng.integers(0, 10**16, 300) % 10 ** (digits - 1)
        exponents = rng.integers(-320, 300, 300)
        texts += [f"{a}{b:0{digits - 1}d}e{e}" if digits > 1 else f"{a}e{e}" for a, b, e in zip(first, rest, exponents)]
    values = np.array([float(t) for t in texts])
    assert not _mismatches(np.concatenate([values, -values]))


def test_fixed_and_exponent_forms_switch_as_repr_does():
    edges = np.array(
        [0.0001, 1e-05, 0.00012345678901234567, 1.2345678901234567e-05, 9999999999999998.0, 1e16,
         1234567890123456.8, 12345678901234568.0, 0.1, 1.0, 10.0, 100.0, 123.456, 1e100, 1e-100,
         1.2345e-300, 6.02e23, 5e-324]
    )
    values = _with_neighbours(edges)
    assert not _mismatches(np.concatenate([values, -values]))
    assert _texts([0.0001, 1e-05, 9999999999999998.0, 1e16, 1.5e300, -2.5e-300]) == [
        "0.0001", "1e-05", "9999999999999998.0", "1e+16", "1.5e+300", "-2.5e-300"
    ]


def test_non_finite_values_fall_back_to_repr():
    assert _texts([np.inf, -np.inf, np.nan, 1.5]) == ["inf", "-inf", "nan", "1.5"]


def test_index_column_matches_str():
    values = np.concatenate(
        [np.arange(-20_000, 20_000), [INT_LIMIT - 1, -(INT_LIMIT - 1), 10**16, -(10**16), 9, -9, 10, -10]]
    )
    text = "".join(csv_rows([np.full(len(values), 0.5)], index=values))
    assert text == "".join(f"{v},0.5\n" for v in values.tolist())


def _varied(rng, n):
    """``n`` floats over many scales, a tenth of them short integral values."""
    values = rng.normal(size=n) * 10.0 ** rng.integers(-30, 30, n)
    values[rng.integers(0, n, n // 10)] = rng.integers(-1000, 1000, n // 10)
    return values


_SPECIAL = [np.nan, -0.0, np.inf, -np.inf, -np.nan, 0.0]


@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_one_column_around_a_pass_matches_repr(delta):
    values = _varied(np.random.default_rng(23), _CHUNK + delta)
    edge = [j for j in (_CHUNK - 2, _CHUNK - 1, _CHUNK) if j < len(values)]  # the first pass's end, the next's start
    values[edge] = _SPECIAL[: len(edge)]
    assert not _mismatches(values)


@pytest.mark.parametrize("delta", [-1, 0, 1, _CHUNK // 2 + 1])
def test_two_columns_around_a_pass_match_repr(delta):
    rows = _CHUNK // 2 + delta  # a pass holds _CHUNK // 2 rows
    rng = np.random.default_rng(24)
    k, t = _varied(rng, rows), _varied(rng, rows)
    for j in (_CHUNK // 2 - 1, _CHUNK // 2):  # the rows either side of the first pass's end
        if j < rows:
            k[j], t[j] = rng.choice(_SPECIAL, 2)
    assert "".join(csv_rows([k, t])) == "".join(f"{a!r},{b!r}\n" for a, b in zip(k.tolist(), t.tolist()))


@pytest.mark.parametrize("delta", [-1, 0, 1, _CHUNK // 6 + 1])
def test_index_and_five_columns_around_a_pass_match_str_and_repr(delta):
    rows = _CHUNK // 6 + delta  # a pass holds whole rows: the row that would straddle value _CHUNK starts the next
    rng = np.random.default_rng(25)
    columns = [_varied(rng, rows) for _ in range(5)]
    index = rng.integers(-(INT_LIMIT - 1), INT_LIMIT, rows)
    index[: rows // 2] //= 10 ** rng.integers(0, 17, rows // 2)
    for j in (_CHUNK // 6 - 1, _CHUNK // 6):
        if j < rows:
            for c, v in zip(columns, rng.permutation(_SPECIAL)):
                c[j] = v
    text = "".join(csv_rows(columns, index=index))
    reference = [f"{i}," + ",".join(repr(v) for v in row) + "\n" for i, *row in zip(index.tolist(), *(c.tolist() for c in columns))]
    assert text == "".join(reference)


def test_a_snapshot_profile_renders_in_under_a_megabyte():
    # the evolve-snapshots profile: m = 200, 4,241 sites, p and q != 0; blocks are taken one at a
    # time, as a writer takes them, and the kernel's tables (built once a process) are built first
    cfg = TunnelingConfig(p=0.7, q=-1.3, barrier=half_wave_plate(math.pi / 8), m=200)
    profile = build_profile(solve_closed_form(cfg), cfg, default_window(cfg))
    assert len(profile.psi_l) == 4241
    "".join(csv_rows([np.ones(2)]))
    tracemalloc.start()
    try:
        for _block in profile_to_csv(profile):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_import_leaves_the_kernel_unloaded():
    # the CSV writers load it on first use, and it builds its table on first use
    src = str(Path(qrtw.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, qrtw.cli; assert 'qrtw._shortest' not in sys.modules; "
        "import qrtw._shortest as s; assert s._tables.cache_info().currsize == 0"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)
