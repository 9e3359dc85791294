import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clipbias import vectors
from oracles import clip_batch_guarded


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


@pytest.mark.parametrize("dim", [8192, 8193, 10_000])
def test_row_norms_read_each_row_alone(dim):
    # einsum cuts a row of more than 8192 columns where its buffers end,
    # which moves with the rows beside it; such rows are summed one by one
    rows = np.random.default_rng(dim).normal(size=(7, dim))
    norms = vectors.row_norms(rows)
    for i in range(7):
        assert vectors.row_norms(rows[i:i + 1])[0] == norms[i]
        assert vectors.row_norms(rows[i:i + 3])[0] == norms[i]
    projected = vectors._row_dots(rows, rows[0])
    for i in range(7):
        assert vectors._row_dots(rows[i:i + 1], rows[0])[0] == projected[i]


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
    # A Fortran-ordered copy of each batch must clip to the same bits.
    rng = np.random.default_rng(123)
    for dim in (1, 2, 3, 7, 20):
        g = rng.normal(size=(2000, dim)) * rng.lognormal(size=(2000, 1))
        for c in (0.25, 1.0, 7.5):
            out = vectors.clip_batch(g, c)
            assert np.all(vectors.row_norms(out) <= c)
            again = vectors.clip_batch(out, c)
            assert np.array_equal(again, out)
            fortran = vectors.clip_batch(np.asfortranarray(g), c)
            assert fortran.tobytes() == out.tobytes()
            assert np.all(vectors.row_norms(fortran) <= c)
            assert np.array_equal(vectors.clip_batch(np.asfortranarray(fortran), c), fortran)


def test_clip_of_a_fortran_batch_keeps_the_cap():
    # Norms taken in Fortran order, of rows returned in C order, once left
    # this row at norm 1.0000000000000002.
    row = [-0.42531711687692053, 0.8354230199579371, -0.3481001692269978]
    out = vectors.clip_batch(np.asfortranarray([row, row]), 1.0)
    assert np.all(vectors.row_norms(out) <= 1.0)
    assert np.array_equal(vectors.clip_batch(out, 1.0), out)


def test_nudge_rounds_measure_only_the_rows_over_c(monkeypatch):
    # These rows need three nudge rounds at c = 7.5. The first nudge
    # measurement reads every rescaled row; each later one reads only the
    # rows the one before found over c, and a row at or under c is never
    # multiplied again.
    rng = np.random.default_rng(8)
    rows = rng.normal(size=(200, 100)) * rng.lognormal(size=(200, 1)) * 22.5
    calls = []
    real = vectors._row_dots

    def recording(a, b):
        dots = real(a, b)
        calls.append(dots)
        return dots

    monkeypatch.setattr(vectors, "_row_dots", recording)
    out = vectors.clip_batch(rows, 7.5)
    monkeypatch.undo()
    # the canonical norms, the first nudge measurement and two more rounds
    assert len(calls) >= 4 and len(calls[1]) == len(rows)
    for before, after in zip(calls[1:], calls[2:]):
        assert len(after) == np.count_nonzero(np.sqrt(before) > 7.5) < len(before)
    assert out.tobytes() == clip_batch_guarded(rows, 7.5).tobytes()


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


def _batch(rng, kinds, dim, c):
    """One row per kind: Gaussian rows spread around c (10-D ones often need
    the nudge), a row exactly at c, +-0.0 rows, norms past 1.3e154 or under
    2^-511, and a non-finite row."""
    rows = rng.normal(size=(len(kinds), dim))
    for row, kind in zip(rows, kinds):
        if kind == "around_c":
            row *= c * 10.0 ** rng.uniform(-2.0, 2.0)
        elif kind == "at_c":
            row[:] = 0.0
            row[rng.integers(dim)] = rng.choice([-c, c])
        elif kind in ("zero", "negative_zero"):
            row[:] = 0.0 if kind == "zero" else -0.0
        elif kind == "huge":
            row *= 1e160
        elif kind == "past_the_doubles":
            row[:] = 1e308
        elif kind == "tiny":
            row *= 1e-160
        elif kind == "non_finite":
            row[rng.integers(dim)] = rng.choice([np.nan, np.inf, -np.inf])
    return rows


_IN_RANGE = ["around_c", "at_c"]
_OUT_OF_RANGE = ["zero", "negative_zero", "huge", "past_the_doubles", "tiny", "non_finite"]


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from([1, 2, 10, 10, 8192, 8193]),
    c=st.sampled_from([2.0**-510, 1.0, 7.5] * 2 + [2e-320, 2.0**-511, np.inf, np.nan]),
    # half the batches hold in-range rows only, so every c and layout also
    # meets batches that need no power-of-two rescaling of their norms
    kinds=st.one_of(st.lists(st.sampled_from(_IN_RANGE), min_size=1, max_size=12),
                    st.lists(st.sampled_from(_IN_RANGE * 2 + _OUT_OF_RANGE),
                             min_size=1, max_size=12)),
    layout=st.sampled_from(["C", "F", "column view"]),
)
# at c = 2^-511 the squares of 8192 rescaled columns underflow, so the
# einsum and row_norms disagree on the rescaled norms
@example(seed=0, dim=8192, c=2.0**-511, kinds=["around_c"] * 4, layout="C")
# a row past the doubles clipped to a subnormal c ends in the nextafter steps
@example(seed=0, dim=8193, c=2e-320, kinds=["past_the_doubles"], layout="C")
# above 2^511 the squares of rows clipped to c overflow in the einsum
@example(seed=0, dim=10, c=1e300, kinds=["past_the_doubles", "around_c"], layout="F")
@settings(max_examples=300, deadline=None, derandomize=True)
def test_clip_batch_matches_the_guarded_oracle(seed, dim, c, kinds, layout):
    rows = _batch(np.random.default_rng(seed), kinds, dim, c)
    if layout == "F":
        rows = np.asfortranarray(rows)
    elif layout == "column view":  # rows inside a wider array, as the Monte Carlo passes them
        rows = np.hstack([np.ones((len(kinds), 1)), rows])[:, 1:]
    try:
        want = clip_batch_guarded(rows, c)
    except ValueError as err:
        with pytest.raises(ValueError, match=re.escape(str(err))):
            vectors.clip_batch(rows, c)
        return
    got = vectors.clip_batch(rows, c)
    assert got.flags.c_contiguous and got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # np.array_equal, and the sign of every zero


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
