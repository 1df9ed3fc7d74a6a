"""Delta-potential chain: coins, spectrum, resonances, edge waves."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from qrtw import (
    EdgeOutOfWindow,
    GraphParams,
    InvalidWaveNumber,
    ModelError,
    Spectrum,
    build_profile,
    edge_wave,
    find_resonances,
    resonance_residual,
    solve_closed_form,
    spectrum_csv_blocks,
    spectrum_scan,
    to_tunneling_config,
    transmission_at_k,
    vertex_coin,
)
from qrtw.qgraph import _BLOCK, K_FLOOR, _loop_phase, _transmission_grid

# located once by the brute bisection below and frozen; alpha=1, s=1, m=3
FIRST_ROOT = 0.7248753428962931


def test_vertex_coin_values():
    u = vertex_coin(1.0, 1.0, 1.0)
    z = 2.0 / (2.0 + 1j)
    assert abs(u.a - cmath.exp(1j) * z) < 1e-15
    assert abs(u.b * u.b.conjugate() - 0.2) < 1e-15
    assert abs(abs(u.a) ** 2 - 0.8) < 1e-15
    assert u.b == u.c


def test_vertex_coin_free_when_alpha_zero():
    u = vertex_coin(0.0, 1.7, 0.9)
    assert u.b == 0 and u.c == 0
    assert abs(u.a - cmath.exp(1j * 1.7 * 0.9)) < 1e-15


def test_vertex_coin_full_reflector_limit():
    u = vertex_coin(1e9, 1.0, 1.0)
    assert abs(u.b) > 1.0 - 1e-8


def test_vertex_coin_rejects_bad_input():
    with pytest.raises(InvalidWaveNumber):
        vertex_coin(1.0, 0.0, 1.0)
    with pytest.raises(ModelError):
        vertex_coin(-1.0, 1.0, 1.0)
    with pytest.raises(ModelError):
        vertex_coin(1.0, 1.0, 0.0)


def test_graph_params_validation():
    with pytest.raises(ModelError):
        GraphParams(-0.1, 1.0, 3, 1.0)
    with pytest.raises(ModelError):
        GraphParams(1.0, 0.0, 3, 1.0)
    with pytest.raises(ModelError):
        GraphParams(1.0, 1.0, 0, 1.0)
    with pytest.raises(InvalidWaveNumber):
        GraphParams(1.0, 1.0, 3, -2.0)
    # a Spectrum keeps the values GraphParams checked, not the ones it was given
    spec = spectrum_scan(1, 1, 3.0, 0.1, 5.0, 10)
    assert [(type(v), v) for v in (spec.alpha, spec.s, spec.m)] == [(float, 1.0), (float, 1.0), (int, 3)]


def test_transmission_formula_against_walk_route():
    rng = np.random.default_rng(401)
    for _ in range(100):
        gp = GraphParams(
            alpha=rng.uniform(0.0, 5.0),
            s=rng.uniform(0.2, 3.0),
            m=int(rng.integers(1, 7)),
            k=rng.uniform(0.05, 6.0),
        )
        walk_T = solve_closed_form(to_tunneling_config(gp)).T
        assert abs(transmission_at_k(gp) - walk_T) < 1e-12


def test_transmission_is_one_for_alpha_zero():
    for k in (0.3, 1.0, 4.7):
        assert transmission_at_k(GraphParams(0.0, 1.0, 2, k)) == pytest.approx(1.0)


def _brute_first_root() -> float:
    """Independent locator: bisect the wrapped loop phase directly."""

    def wrapped(k):
        y = 1.0 / k
        return cmath.phase(-cmath.exp(2j * k * 3.0) * (2.0 - 1j * y) / (2.0 + 1j * y))

    lo, hi = 0.6, 0.8
    assert wrapped(lo) < 0 < wrapped(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if wrapped(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_find_resonances_first_root_oracle():
    brute = _brute_first_root()
    assert abs(brute - FIRST_ROOT) < 1e-12
    found = find_resonances(1.0, 1.0, 3, 0.1, 2.0)
    assert len(found) == 2
    assert abs(found[0] - FIRST_ROOT) < 1e-9


def test_find_resonances_full_bracket():
    found = find_resonances(1.0, 1.0, 3, 0.1, 5.0)
    assert len(found) == 5
    assert list(found) == sorted(found)
    for k in found:
        gp = GraphParams(1.0, 1.0, 3, k)
        assert abs(transmission_at_k(gp) - 1.0) < 1e-10
        assert resonance_residual(to_tunneling_config(gp)) < 1e-12
    # spacing settles toward pi/(s m) as k grows
    last_gap = found[-1] - found[-2]
    assert abs(last_gap - math.pi / 3.0) / (math.pi / 3.0) < 0.05


def test_find_resonances_stops_at_one_ulp():
    # One ulp of k moves this loop phase by about 2.9e-11, more than the
    # 1e-12 phase tolerance, so bisection ends on the bracket width.
    alpha, s, m = 1.0, 1e3, 1000
    found = find_resonances(alpha, s, m, 0.1, 0.10001)
    assert len(found) == 3
    assert list(found) == sorted(found)
    for k in found:
        assert 0.1 <= k <= 0.10001
        target = (2 * round((_loop_phase(alpha, s, m, k) / math.pi - 1) / 2) + 1) * math.pi
        below = _loop_phase(alpha, s, m, math.nextafter(k, 0.0)) - target
        above = _loop_phase(alpha, s, m, math.nextafter(k, 1.0)) - target
        assert below < 0.0 < above


def test_find_resonances_alpha_zero_flag():
    found = find_resonances(0.0, 1.0, 3, 0.1, 5.0)
    assert found.roots == ()
    assert found.all_resonant


def test_find_resonances_empty_bracket():
    found = find_resonances(1.0, 1.0, 3, 0.80, 0.85)
    assert found.roots == ()
    assert not found.all_resonant


def test_wave_number_floor():
    with pytest.raises(InvalidWaveNumber):
        find_resonances(1.0, 1.0, 3, 1e-9, 1.0)
    with pytest.raises(InvalidWaveNumber):
        spectrum_scan(1.0, 1.0, 3, 0.0, 1.0, 16)
    with pytest.raises(InvalidWaveNumber):
        spectrum_scan(1.0, 1.0, 3, 2.0, 1.0, 16)


def test_spectrum_scan_grid_and_threads():
    serial = spectrum_scan(1.0, 1.0, 3, 0.1, 5.0, 512)
    assert len(serial) == 512
    ks = serial.k.tolist()
    assert ks == sorted(ks)
    assert ks[0] == pytest.approx(0.1) and ks[-1] == pytest.approx(5.0)
    threaded = spectrum_scan(1.0, 1.0, 3, 0.1, 5.0, 512, threads=4)
    assert np.array_equal(serial.k, threaded.k) and np.array_equal(serial.T, threaded.T)
    with pytest.raises(ModelError):
        spectrum_scan(1.0, 1.0, 3, 0.1, 5.0, 1)


def _stationary_profile(gp):
    cfg = to_tunneling_config(gp)
    return build_profile(solve_closed_form(cfg), cfg, (-6, gp.m + 6))


def test_edge_waves_meet_continuously_at_vertices():
    gp = GraphParams(2.0, 0.7, 2, 1.3)
    prof = _stationary_profile(gp)
    for u in (-2, -1, 0, 1, 2, 3):
        arriving = edge_wave(prof, gp, u, "rightward")
        departing = edge_wave(prof, gp, u, "leftward")
        assert abs(arriving.value(0.0) - departing.value(0.0)) < 1e-10


def test_edge_wave_derivative_jump_matches_potential():
    gp = GraphParams(2.0, 0.7, 2, 1.3)
    prof = _stationary_profile(gp)
    h = 1e-6 * gp.s
    for u, strength in ((0, gp.alpha), (gp.m, gp.alpha), (1, 0.0), (-1, 0.0)):
        rw = edge_wave(prof, gp, u, "rightward")
        lw = edge_wave(prof, gp, u, "leftward")

        def slope(w):
            # second-order one-sided difference at the vertex end
            return (2.0 * (w.value(h) - w.value(0.0)) / h) - (
                w.value(2.0 * h) - w.value(0.0)
            ) / (2.0 * h)

        total = slope(rw) + slope(lw)
        assert abs(total - strength * rw.value(0.0)) < 1e-8


def test_edge_wave_window_and_argument_checks():
    gp = GraphParams(1.0, 1.0, 3, 0.9)
    prof = _stationary_profile(gp)
    with pytest.raises(EdgeOutOfWindow):
        edge_wave(prof, gp, -6, "rightward")
    with pytest.raises(EdgeOutOfWindow):
        edge_wave(prof, gp, 10, "leftward")
    with pytest.raises(ModelError):
        edge_wave(prof, gp, 0, "up")
    wave = edge_wave(prof, gp, 0, "rightward")
    with pytest.raises(ModelError):
        wave.value(-0.1)
    with pytest.raises(ModelError):
        wave.value(gp.s + 0.1)


def test_edge_wave_terminus_must_be_an_integer():
    # 0.5 once reached numpy's indexing IndexError
    gp = GraphParams(1.0, 1.0, 3, 0.9)
    with pytest.raises(ModelError, match="terminus must be an integer"):
        edge_wave(_stationary_profile(gp), gp, 0.5, "rightward")


def test_edge_wave_value_needs_a_finite_distance():
    # nan once gave nan, where -1 raised ModelError
    gp = GraphParams(1.0, 1.0, 3, 0.9)
    wave = edge_wave(_stationary_profile(gp), gp, 0, "rightward")
    with pytest.raises(ModelError, match="x must be finite"):
        wave.value(math.nan)


def test_spectrum_arrays_are_read_only_and_match_samples():
    spec = spectrum_scan(1.0, 1.0, 3, 0.1, 5.0, 257)
    assert spec.k.dtype == spec.T.dtype == np.float64
    for arr in (spec.k, spec.T):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert np.array_equal(spec.k, np.linspace(0.1, 5.0, 257))
    assert len(spec) == len(spec.T) == 257


def test_spectrum_csv_matches_row_loop_across_blocks():
    # more rows than one formatting block, compared with the plain per-row loop
    spec = spectrum_scan(2.5, 0.7, 5, 0.1, 5.0, 3 * 2**16 + 5)
    reference = "k,T\n" + "".join(f"{k!r},{T!r}\n" for k, T in zip(spec.k.tolist(), spec.T.tolist()))
    text = "".join(spectrum_csv_blocks(spec))
    assert text == reference
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert np.array_equal([float(k) for k, _ in rows], spec.k)
    assert np.array_equal([float(t) for _, t in rows], spec.T)


@pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
def test_blockwise_scan_equals_whole_grid_kernel(n):
    # the kernel runs one block at a time; the values must not notice
    ks = np.linspace(0.1, 5.0, n)
    spec = spectrum_scan(2.5, 0.7, 5, 0.1, 5.0, n)
    assert np.array_equal(spec.k, ks)
    assert np.array_equal(spec.T, _transmission_grid(2.5, 0.7, 5, ks))
    threaded = spectrum_scan(2.5, 0.7, 5, 0.1, 5.0, n, threads=2)
    assert np.array_equal(threaded.k, spec.k) and np.array_equal(threaded.T, spec.T)


def _brackets():
    """Fixed edge cases, then seeded random ones: (k_min, k_max, n)."""
    fixed = [(0.1, 5.0, n) for n in (2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1)]
    fixed += [(K_FLOOR, math.nextafter(K_FLOOR, 1.0), _BLOCK + 2), (K_FLOOR, 1e300, 2 * _BLOCK + 7)]
    rng = np.random.default_rng(42)
    for _ in range(12):
        k_min = K_FLOOR * 10.0 ** rng.uniform(0, 8)
        fixed.append((k_min, k_min * (1 + 10.0 ** rng.uniform(-15, 3)), int(rng.integers(2, 3 * _BLOCK))))
    return fixed


@pytest.mark.parametrize("k_min, k_max, n", _brackets())
def test_blocks_are_the_linspace_bit_for_bit(k_min, k_max, n):
    spec = Spectrum(1.0, 1.0, 3, k_min, k_max, n)
    blocks = [spec.k_block(start) for start in range(0, n, _BLOCK)]
    assert np.concatenate(blocks).tobytes() == np.linspace(k_min, k_max, n).tobytes()
    assert np.array_equal(spec.block(0)[0], blocks[0])
    with pytest.raises(IndexError):
        spec.k_block(n)


def test_spectrum_csv_is_rendered_one_block_at_a_time():
    # the kernel's tables (built once a process) are built first; a grid held whole, or a T
    # computed ahead of its block, would alone take 1.6 MB per array
    "".join(spectrum_csv_blocks(spectrum_scan(2.5, 0.7, 5, 0.1, 5.0, 2)))
    tracemalloc.start()
    try:
        for _block in spectrum_csv_blocks(spectrum_scan(2.5, 0.7, 5, 0.1, 5.0, 200_000)):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_500_000


def test_spectrum_csv_is_the_joined_blocks():
    # the rows come in the CSV kernel's pieces, not one string per block, so only whole rows are promised
    spec = spectrum_scan(2.5, 0.7, 5, 0.1, 5.0, 2 * _BLOCK + 3)
    pieces = list(spectrum_csv_blocks(spec))
    assert pieces[0] == "k,T\n"
    assert all(piece.endswith("\n") for piece in pieces[1:])
    rows = "".join(pieces[1:])
    assert rows.count("\n") == 2 * _BLOCK + 3
    assert rows == "".join(f"{k!r},{t!r}\n" for k, t in zip(spec.k.tolist(), spec.T.tolist()))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_graph_inputs_must_be_finite(bad):
    with pytest.raises(ModelError, match="finite"):
        GraphParams(bad, 1.0, 3, 1.0)
    with pytest.raises(ModelError, match="finite"):
        GraphParams(1.0, bad, 3, 1.0)
    with pytest.raises(ModelError, match="finite"):
        vertex_coin(bad, 1.0, 1.0)
    with pytest.raises(InvalidWaveNumber):
        spectrum_scan(1.0, 1.0, 3, 0.1, bad, 4)
    with pytest.raises(InvalidWaveNumber):
        find_resonances(1.0, 1.0, 3, bad, 5.0)


@pytest.mark.parametrize("bad", ["1", b"1", True], ids=["text", "bytes", "bool"])
def test_chain_numbers_given_as_text_or_bools_are_model_errors(bad):
    # float() reads text and bools: spectrum_scan("1", ...) gave a Spectrum whose T raised a TypeError
    with pytest.raises(ModelError, match="alpha must be a number"):
        spectrum_scan(bad, 1.0, 3, 0.1, 5.0, 10)
    with pytest.raises(ModelError, match="alpha must be a number"):
        find_resonances(bad, 1.0, 3, 0.1, 5.0)
    with pytest.raises(ModelError, match="edge length s must be a number"):
        GraphParams(1.0, bad, 3, 1.0)
    with pytest.raises(ModelError, match="alpha must be a number"):
        vertex_coin(bad, 1.0, 1.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: GraphParams(1.0, 1.0, 3, "0.7"), "wave number must be a number, got '0.7'"),
        (lambda: GraphParams(1.0, 1.0, 3, True), "wave number must be a number, got True"),
        (lambda: vertex_coin(1.0, True, 1.0), "wave number must be a number, got True"),
        (lambda: vertex_coin(1.0, "0.7", 1.0), "wave number must be a number, got '0.7'"),
        (lambda: find_resonances(1, 1, 3, 0.1, True), "k_max must be a number, got True"),
        (lambda: find_resonances(1, 1, 3, "0.1", 5), "k_min must be a number, got '0.1'"),
        (lambda: spectrum_scan(1, 1, 3, "0.1", 5, 10), "k_min must be a number, got '0.1'"),
        (lambda: spectrum_scan(1, 1, 3, None, 5, 10), "k_min must be a number, got None"),
        (lambda: spectrum_scan(1, 1, 3, 0.1, math.inf, 10), "wave-number range must be finite, got [0.1, inf]"),
        (lambda: find_resonances(1, 1, 3, math.nan, 5), "wave-number range must be finite, got [nan, 5]"),
        (lambda: GraphParams(1.0, 1.0, 3, 10**400), "wave number must be positive, got inf"),
    ],
    ids=[
        "graph-text", "graph-bool", "vertex-bool", "vertex-text", "resonances-bool", "resonances-text",
        "spectrum-text", "spectrum-none", "spectrum-inf", "resonances-nan", "graph-huge-int",
    ],
)
def test_wave_numbers_that_are_no_numbers_are_invalid(call, message):
    # text and bools once passed as k (float() reads them), or raised a bare TypeError from math.isfinite
    with pytest.raises(InvalidWaveNumber) as info:
        call()
    assert str(info.value) == message


def test_wave_numbers_read_the_same_bits_from_any_real_type():
    assert GraphParams(1, 1, 3, 2).k == 2.0
    assert vertex_coin(1.0, np.float64(0.7), 1.0) == vertex_coin(1.0, 0.7, 1.0)
    assert find_resonances(1, 1, 3, np.float64(0.1), 5).roots == find_resonances(1, 1, 3, 0.1, 5).roots
    assert spectrum_scan(1, 1, 3, 1, 5, 10).T.tobytes() == spectrum_scan(1, 1, 3, 1.0, 5.0, 10).T.tobytes()


def test_numbers_too_large_for_a_float_are_not_finite():
    # float(10**400) raised a bare OverflowError
    with pytest.raises(ModelError, match="alpha must be finite, got inf"):
        GraphParams(10**400, 1.0, 3, 1.0)
    with pytest.raises(ModelError, match="edge length s must be finite, got -inf"):
        vertex_coin(1.0, 1.0, -(10**400))


@pytest.mark.parametrize("m", [2.5, "x", None, True])
def test_chain_span_must_be_an_integer(m):
    # 2.5 once truncated to 2 for the check while the scans used 2.5
    with pytest.raises(ModelError, match="integer"):
        GraphParams(1.0, 1.0, m, 1.0)
    with pytest.raises(ModelError, match="integer"):
        find_resonances(1.0, 1.0, m, 0.1, 2.0)
    with pytest.raises(ModelError, match="integer"):
        spectrum_scan(1.0, 1.0, m, 0.1, 2.0, 4)


@pytest.mark.parametrize("n_points", [2.5, "x", None, True])
def test_grid_size_must_be_an_integer(n_points):
    # 2.5 reached np.linspace, which raised its own TypeError
    with pytest.raises(ModelError, match="number of grid points must be an integer"):
        spectrum_scan(1.0, 1.0, 1, 0.1, 5.0, n_points)


def test_overflowing_chain_is_model_error():
    # 2 k s m and (alpha/k)^2 would overflow and turn T(k) into NaN
    with pytest.raises(ModelError, match="overflows"):
        GraphParams(1.0, 1e300, 3, 1e10)
    with pytest.raises(ModelError, match="overflows"):
        GraphParams(1e200, 1.0, 3, 1.0)
    for alpha, s, k_max in ((1.0, 1e300, 1e10), (1e200, 1.0, 1.0)):
        with pytest.raises(ModelError, match="overflows"):
            spectrum_scan(alpha, s, 3, 0.1, k_max, 4)
        with pytest.raises(ModelError, match="overflows"):
            find_resonances(alpha, s, 3, 0.1, k_max)
    assert transmission_at_k(GraphParams(1e150, 1.0, 3, 1.0)) < 1e-290


def test_oversize_grid_is_rejected_before_allocation(monkeypatch):
    from qrtw import qgraph

    def no_grid(*args, **kwargs):
        raise AssertionError("grid allocated")

    monkeypatch.setattr(qgraph.np, "linspace", no_grid)
    with pytest.raises(ModelError, match=str(qgraph.MAX_GRID_POINTS)):
        spectrum_scan(1.0, 1.0, 3, 0.1, 5.0, qgraph.MAX_GRID_POINTS + 1)


def test_oversize_root_count_is_rejected_before_enumeration(monkeypatch):
    from qrtw import qgraph

    def no_bisection(*args, **kwargs):
        raise AssertionError("root enumerated")

    monkeypatch.setattr(qgraph, "_bisect_root", no_bisection)
    with pytest.raises(ModelError, match=str(qgraph.MAX_RESONANCES)):
        find_resonances(1.0, 1.0, 3, 0.1, 1e300)
    # just past the limit: the loop phase gains 2 s m per unit k and
    # roots are 2 pi apart, so s m / pi roots per unit k
    k_max = (qgraph.MAX_RESONANCES + 2) * math.pi / 3.0
    with pytest.raises(ModelError, match=str(qgraph.MAX_RESONANCES)):
        find_resonances(1.0, 1.0, 3, 0.1, k_max)
    # the fig2 bracket stays far below it
    monkeypatch.undo()
    assert len(find_resonances(1.0, 1.0, 3, 0.1, 5.0)) == 5 < qgraph.MAX_RESONANCES
