import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clipbias import vectors


def test_clip_zero_vector_untouched():
    out = vectors.clip([0.0, 0.0], 1.0)
    assert np.array_equal(out, np.zeros(2))


def test_clip_inside_ball_is_identity():
    g = np.array([3.0, 4.0])
    out = vectors.clip(g, 5.0)  # norm exactly 5
    assert np.array_equal(out, g)
    out = vectors.clip(g, 6.0)
    assert np.array_equal(out, g)


def test_clip_rescales_direction():
    out = vectors.clip([3.0, 4.0], 1.0)
    assert np.allclose(out, [0.6, 0.8], atol=1e-15)
    assert vectors.norm(out) <= 1.0


def test_clip_validation():
    with pytest.raises(ValueError):
        vectors.clip([1.0, np.nan], 1.0)
    with pytest.raises(ValueError):
        vectors.clip([np.inf, 0.0], 1.0)
    with pytest.raises(ValueError):
        vectors.clip([1.0], 0.0)
    with pytest.raises(ValueError):
        vectors.clip([1.0], -2.0)
    with pytest.raises(ValueError):
        vectors.clip([1.0], np.inf)


def test_inner_and_cosine():
    assert vectors.inner([1.0, 2.0], [3.0, -1.0]) == 1.0
    with pytest.raises(ValueError):
        vectors.inner([1.0], [1.0, 2.0])
    assert vectors.cosine([2.0, 0.0], [5.0, 0.0]) == 1.0
    assert vectors.cosine([1.0, 0.0], [-3.0, 0.0]) == -1.0
    # the product of two huge norms overflows; the unit vectors do not
    assert vectors.cosine([1e200, 0.0], [1e200, 0.0]) == 1.0
    # and the squares of a tiny vector underflow; its norm does not
    assert vectors.cosine([1.0, 0.0], [1e-200, 0.0]) == 1.0
    with pytest.raises(ValueError):
        vectors.cosine([0.0, 0.0], [1.0, 0.0])


def test_norm_matches_row_norms():
    rng = np.random.default_rng(7)
    rows = rng.normal(size=(64, 9))
    norms = vectors.row_norms(rows)
    for i in range(64):
        assert vectors.norm(rows[i]) == norms[i]


def test_huge_rows_keep_their_direction():
    # squaring these components overflows; their norms do not
    assert np.array_equal(vectors.clip_batch(np.array([[1e200, 0.0]]), 1.0), [[1.0, 0.0]])
    assert np.array_equal(vectors.clip([3e160], 2.0), [2.0])
    # the exact norm of these two doubles is the midpoint between 5e200
    # and its lower neighbour (round-half-even picks the lower): 1 ulp
    assert vectors.norm([3e200, 4e200]) == pytest.approx(5e200, rel=2.0**-52)
    # rescaling by a power of two is exact, so huge norms carry the bits
    # of the scaled row's norm
    scaled = vectors.norm([3e200 * 2.0**-600, 4e200 * 2.0**-600])
    assert vectors.norm([3e200, 4e200]) == 2.0**600 * scaled
    g = np.array([[3e200, -4e200], [1.0, 0.5]])
    out = vectors.clip_batch(g, 1.0)
    assert np.all(vectors.row_norms(out) <= 1.0)
    assert np.array_equal(vectors.clip_batch(out, 1.0), out)
    np.testing.assert_allclose(out[0], [0.6, -0.8], rtol=1e-15, atol=0.0)
    assert np.isinf(vectors.row_norms(np.array([[np.inf, 1e200]]))[0])


def test_finite_norms_whose_squares_sum_past_the_doubles_do_not_warn():
    # Each of these norms is finite, up to about 2^513, but their squares
    # sum past the largest double on many seeds; the overflow check must not
    # warn, and scaling a row by 2^511 scales its norm by exactly that, in a
    # batch or alone.
    overflowing = 0
    for seed in range(200):
        rows = np.random.default_rng(seed).normal(size=(3, 3))
        want = np.ldexp(vectors.row_norms(rows), 511)
        overflowing += np.sum(np.ldexp(want, -512) ** 2) >= 1.0  # sum of squares >= 2^1024
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = vectors.row_norms(rows * 2.0**511)
            ones = [vectors.row_norms(row[None, :] * 2.0**511)[0] for row in rows]
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(ones, want)
    assert overflowing >= 50


def test_tiny_rows_keep_their_norm():
    # squaring these components underflows; their norms do not
    assert vectors.norm([1e-200, 0.0]) == 1e-200
    assert vectors.norm([3e-170, 4e-170]) == pytest.approx(5e-170, rel=2.0**-52)
    scaled = vectors.norm([3e-170 * 2.0**600, 4e-170 * 2.0**600])
    assert vectors.norm([3e-170, 4e-170]) == 2.0**-600 * scaled
    # zero rows stay zero, subnormal rows get their norm, other rows keep
    # their bits
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(6, 4))
    want = vectors.row_norms(rows)
    rows[1] = 0.0
    rows[4] = [3e-320, 0.0, -4e-320, 0.0]
    norms = vectors.row_norms(rows)
    assert norms[1] == 0.0 and norms[4] == 5e-320
    keep = [0, 2, 3, 5]
    assert np.array_equal(norms[keep], want[keep])
    # so the clip sees them: this row is rescaled, not passed through
    out = vectors.clip_batch(rows[[4]], 2e-320)
    assert 0.0 < vectors.row_norms(out)[0] <= 2e-320


def test_rows_beyond_the_double_range_keep_their_direction():
    # the norm itself overflows here: it stays inf, the clip does not
    g = np.array([[1.5e308, 1.5e308], [-1.5e308, 1.5e308], [0.5, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = vectors.row_norms(g)
        out = vectors.clip_batch(g, 1.0)
    assert np.isinf(norms[0]) and np.isinf(norms[1])
    assert np.all(vectors.row_norms(out) <= 1.0)
    assert np.array_equal(vectors.clip_batch(out, 1.0), out)
    half = 2.0**-0.5
    for row, want in ((out[0], [half, half]), (out[1], [-half, half])):
        assert np.all(np.abs(row - want) <= np.spacing(half))
    assert np.array_equal(out[2], g[2])


def test_clip_exact_invariants_bulk():
    # The cap and idempotence guarantees are exact, not approximate: check
    # a large sample across dims and thresholds with zero tolerance.
    rng = np.random.default_rng(123)
    for dim in (1, 2, 3, 7, 20):
        g = rng.normal(size=(2000, dim)) * rng.lognormal(size=(2000, 1))
        for c in (0.25, 1.0, 7.5):
            out = vectors.clip_batch(g, c)
            assert np.all(vectors.row_norms(out) <= c)
            again = vectors.clip_batch(out, c)
            assert np.array_equal(again, out)


def test_clip_preserves_direction_and_lands_near_boundary():
    rng = np.random.default_rng(5)
    g = rng.normal(size=(500, 4)) * 10.0
    out = vectors.clip_batch(g, 1.0)
    norms = vectors.row_norms(g)
    over = norms > 1.0
    cos = np.einsum("ij,ij->i", g[over], out[over]) / (norms[over] * vectors.row_norms(out[over]))
    assert np.all(cos > 1.0 - 1e-12)
    # clipped rows sit on the boundary up to rounding
    assert np.all(np.abs(vectors.row_norms(out[over]) - 1.0) < 1e-12)


@given(
    g=st.lists(st.floats(-1e8, 1e8), min_size=1, max_size=8),
    c=st.floats(1e-3, 1e3),
)
@settings(max_examples=300, deadline=None)
def test_clip_property_cap_and_idempotence(g, c):
    out = vectors.clip(g, c)
    assert vectors.norm(out) <= c
    assert np.array_equal(vectors.clip(out, c), out)


@given(
    g=st.lists(st.floats(-100, 100), min_size=2, max_size=6),
    xi=st.lists(st.floats(-100, 100), min_size=2, max_size=6),
)
@settings(max_examples=300, deadline=None)
def test_cosine_sum_property(g, xi):
    # cos(g, g+xi) + cos(g, g-xi) >= 0: alignment lost to one side is
    # regained on the mirrored side.
    n = min(len(g), len(xi))
    g = np.asarray(g[:n])
    xi = np.asarray(xi[:n])
    plus = g + xi
    minus = g - xi
    if vectors.norm(g) == 0 or vectors.norm(plus) == 0 or vectors.norm(minus) == 0:
        return
    total = vectors.cosine(g, plus) + vectors.cosine(g, minus)
    assert total >= -1e-10


def test_norm_ordering_follows_alignment():
    # sign of <g, xi> decides which of ||g + xi||, ||g - xi|| is larger
    rng = np.random.default_rng(42)
    for dim in (1, 3, 10, 50):
        g = rng.normal(size=(1000, dim))
        xi = rng.normal(size=(1000, dim)) * 3.0
        inner = np.einsum("ij,ij->i", g, xi)
        plus = vectors.row_norms(g + xi)
        minus = vectors.row_norms(g - xi)
        aligned = inner >= 0
        assert np.all(plus[aligned] >= minus[aligned] - 1e-10)
        assert np.all(minus[~aligned] >= plus[~aligned] - 1e-10)


def test_as_vector_rejects_bad_input():
    with pytest.raises(ValueError):
        vectors.as_vector([[1.0, 2.0]])
    with pytest.raises(ValueError):
        vectors.as_vector([np.nan])
