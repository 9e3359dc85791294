import contextlib
import dataclasses
import inspect
import itertools
import math
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clipbias
from clipbias import cli, diagnostics, noise, optimizers, privacy, probes, problems, vectors
from clipbias.diagnostics import (
    CheckFailure,
    censored_normal_clip_mean,
    clip_scores,
    clipping_bias,
    descent_function,
    descent_ledger,
    expected_clipped_gradient,
    expected_clipped_inner,
    mixture_lower_bound,
    perturbation_gap,
    symmetric_lower_bound,
    wasserstein_clip,
)
from clipbias.noise import (
    Empirical,
    IsotropicGaussian,
    SeededStream,
    SphericalMixture,
    perturb,
    prob_norm_below,
    symmetrize,
)
from clipbias.optimizers import OptimizerConfig, Trajectory, clipped_sgd, dp_sgd
from clipbias.problems import (
    QuadraticProblem,
    make_example1,
    make_example2,
    make_synthetic_mixture,
)
from oracles import (
    censored_mean_quadrature,
    expected_clipped_inner_enum,
    mixture_draws,
    phi_cdf,
    score_block,
    std_error_two_pass,
    transport_cost_lp,
)

RES1 = make_example1().noise_residuals()
RES2 = make_example2().noise_residuals()


def _random_empirical(rng, dim, max_atoms=8, span=5.0):
    count = int(rng.integers(1, max_atoms + 1))
    atoms = rng.normal(size=(count, dim)) * span
    w = rng.uniform(0.05, 1.0, size=count)
    return Empirical(atoms, weights=w / w.sum())


# ---------------------------------------------------------------------------
# censored normal mean


@pytest.mark.parametrize(
    "m,s,c",
    [
        (0.0, 1.0, 1.0),
        (0.05, 1.0, 1.0),
        (2.0, 1.0, 1.0),
        (10.0, 1.0, 1.0),
        (-1.3, 0.4, 0.9),
        (5.0, 3.0, 2.0),
        (0.1, 10.0, 1.0),
    ],
)
def test_censored_mean_matches_quadrature(m, s, c):
    got = censored_normal_clip_mean(m, s, c)
    assert got == pytest.approx(censored_mean_quadrature(m, s, c), abs=1e-10)


def test_censored_mean_odd_and_degenerate():
    assert censored_normal_clip_mean(0.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert censored_normal_clip_mean(0.4, 1e-9, 1.0) == pytest.approx(0.4, abs=1e-10)
    assert censored_normal_clip_mean(7.0, 1e-9, 1.0) == pytest.approx(1.0, abs=1e-12)
    # odd in m
    a = censored_normal_clip_mean(1.7, 2.0, 1.0)
    b = censored_normal_clip_mean(-1.7, 2.0, 1.0)
    assert a == pytest.approx(-b, abs=1e-14)
    for c in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="clip threshold"):
            censored_normal_clip_mean(0.0, 1.0, c)
    # an array of means gives the scalar values bit for bit; a tiny scale
    # puts most means in the far tails, which must not warn
    means = [-1e200, -7.0, -1.0, -0.3, 0.0, 0.4, 1.0, 7.0, 1e200]
    for scale in (2.0, 1e-160):
        want = [censored_normal_clip_mean(m, scale, 1.0) for m in means]
        assert all(type(w) is float for w in want)
        got = censored_normal_clip_mean(np.array(means), scale, 1.0)
        assert got.tobytes() == np.array(want).tobytes()


# ---------------------------------------------------------------------------
# expected clipped inner products


def test_clip_scores_hand_values():
    v = np.array([1.0])
    got = clip_scores(v, np.array([[4.0], [-8.0], [0.0]]), 1.0)
    assert np.allclose(got, [1.0, -1.0, 1.0], atol=1e-15)


def test_clip_scores_read_each_row_alone():
    # Every seventh of the mixture's residual atoms, 1429 rows in 10-D: a
    # BLAS matrix-vector product would round most rows' scores differently
    # from the same row scored alone.
    atoms = MIXTURE.noise_residuals().atoms[::7]
    v = MIXTURE.full_gradient(np.full(10, 0.5))
    scores = clip_scores(v, atoms, 1.0)
    alone = np.array([clip_scores(v, atom[None], 1.0)[0] for atom in atoms])
    assert scores.tobytes() == alone.tobytes()


def test_expected_inner_matches_enumeration():
    rng = np.random.default_rng(31)
    for _ in range(50):
        dim = int(rng.integers(1, 7))
        model = _random_empirical(rng, dim)
        v = rng.normal(size=dim) * 2.0
        c = float(rng.uniform(0.3, 4.0))
        got, se = expected_clipped_inner(v, model, c)
        assert se == 0.0
        want = expected_clipped_inner_enum(v, model.atoms, model.weights, c)
        assert got == pytest.approx(want, abs=1e-12)


def test_expected_inner_zero_vector():
    got, _ = expected_clipped_inner(np.zeros(1), RES1, 1.0)
    assert got == 0.0


def test_expected_gradient_example_values():
    vec, se = expected_clipped_gradient([0.0], RES1, 1.0)
    assert vec[0] == pytest.approx(1 / 3, abs=1e-12)
    vec2, _ = expected_clipped_gradient([0.0], RES2, 1.0)
    assert vec2[0] == 0.0
    assert np.all(se == 0.0)


def test_expected_inner_monte_carlo_route_agrees():
    v = np.array([0.4, -0.1])
    model = Empirical([[2.0, 1.0], [-1.0, 0.5], [0.0, -3.0]], weights=[0.5, 0.25, 0.25])
    exact, _ = expected_clipped_inner(v, model, 1.0)
    mc, se = expected_clipped_inner(v, model, 1.0, stream=SeededStream(6, 0), mc_samples=400_000)
    assert se > 0.0
    assert abs(mc - exact) < 3 * se


def _record_sample_counts(monkeypatch):
    """Patch SphericalMixture._from_rows, which builds the draws of one
    slice of Monte Carlo uniforms, to log (model, draws) of every call."""
    calls = []
    from_rows = SphericalMixture._from_rows

    def logged(model, u):
        calls.append((model, u.shape[0]))
        return from_rows(model, u)

    monkeypatch.setattr(SphericalMixture, "_from_rows", logged)
    return calls


def _record_blocks(monkeypatch):
    """Patch noise._mc_moments and noise._share, which it calls once per
    block, to log the draws its slices add up to in each block: one list
    per call."""
    calls = []
    mc_moments, share = noise._mc_moments, noise._share

    def logged_moments(*args, **kwargs):
        calls.append([])
        return mc_moments(*args, **kwargs)

    def logged_share(take, work, items, make):
        rows = []

        def counted(*buffers):
            item = take(*buffers)  # under the hand-out lock
            if item is not None:
                rows.append(item[1].shape[0])
            return item

        share(counted, work, items, make)
        calls[-1].append(sum(rows))

    monkeypatch.setattr(noise, "_mc_moments", logged_moments)
    monkeypatch.setattr(noise, "_share", logged_share)
    return calls


def test_monte_carlo_blocks_fit_the_memory_budget(monkeypatch):
    # One block's uniforms plus draws stay within _CHUNK_DOUBLES, however
    # wide a draw is; 10 000 samples at d = 500 need three blocks.
    calls = _record_blocks(monkeypatch)
    v = np.zeros(500)
    v[0] = 10.0
    point = perturb(Empirical(np.zeros((1, 500))), 10.0)
    expected_clipped_inner(v, point, 1.0, stream=SeededStream(0, 0), mc_samples=10_000)
    gauss = IsotropicGaussian(1.0, 500)
    prob_norm_below(gauss, 22.0, stream=SeededStream(0, 1), mc_samples=10_000)
    assert len(calls) == 2
    for model, counts in zip((point, gauss), calls):
        assert len(counts) >= 3 and sum(counts) == 10_000
        for n in counts:
            assert n * (model.rows_per_draw + model.dim) <= noise._CHUNK_DOUBLES


def _mc_route(route):
    v = [0.4, -0.1]
    model = perturb(Empirical([[2.0, 1.0], [-1.0, 0.5]]), 2.0)
    stream = SeededStream(4, 0)
    if route == "inner":
        return expected_clipped_inner(v, model, 1.0, stream=stream, mc_samples=2000)
    if route == "gradient":
        return expected_clipped_gradient(v, model, 1.0, stream=stream, mc_samples=2000)
    if route == "mixture":
        mix = SphericalMixture([0.25, 0.75], [[2.0, 0.0], [0.5, 0.0]], [0.5, 0.5])
        rep = mixture_lower_bound([0.875, 0.0], mix, 1.0, stream=stream, mc_samples=2000)
        return rep.estimate, rep.std_error
    return prob_norm_below(model, 2.5, stream=stream, mc_samples=2000)


@pytest.mark.parametrize("route", ["inner", "gradient", "mixture", "norm"])
def test_monte_carlo_estimates_do_not_depend_on_blocking(monkeypatch, route):
    whole = _mc_route(route)
    calls = _record_blocks(monkeypatch)
    monkeypatch.setattr(noise, "_CHUNK_DOUBLES", 1000)  # ten blocks of 200 draws
    blocked = _mc_route(route)
    assert len([n for blocks in calls for n in blocks]) >= 7
    for got, want in zip(blocked, whole):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("route", ["inner", "gradient", "mixture", "norm"])
def test_monte_carlo_slices_move_no_bits(monkeypatch, route):
    # Each route's draw takes 5 doubles (uniforms plus the vector), so these
    # slice budgets give 1-row and 7-row slices. The projection is row-local
    # and the sums keep the block shape, so slicing changes no bit, with one
    # block and with ten 200-row blocks (each ending in a 4-row slice at 7).
    calls = _record_sample_counts(monkeypatch)
    for chunk in (noise._CHUNK_DOUBLES, 1000):
        monkeypatch.setattr(noise, "_CHUNK_DOUBLES", chunk)
        monkeypatch.setattr(noise, "_SLICE_DOUBLES", 1 << 16)
        whole = _mc_route(route)
        for slice_doubles, rows in ((5, 1), (35, 7)):
            monkeypatch.setattr(noise, "_SLICE_DOUBLES", slice_doubles)
            calls.clear()
            sliced = _mc_route(route)
            assert max(n for _, n in calls) == rows and sum(n for _, n in calls) == 2000
            for got, want in zip(sliced, whole):
                np.testing.assert_array_equal(got, want)


def test_monte_carlo_projection_above_8192_dims_moves_no_bits(monkeypatch):
    # A draw takes 20 001 doubles, so these budgets give 1-, 3- and 7-row
    # slices. einsum cuts a row of more than 8192 columns where its buffers
    # end, which moves with the rows beside it, so the clip's norms and the
    # projection sum such rows one at a time.
    v = np.full(10_000, 0.01)
    model = perturb(Empirical(np.zeros((1, 10_000))), 1.0)
    estimates = []
    for rows in (1, 3, 7):
        monkeypatch.setattr(noise, "_SLICE_DOUBLES", rows * 20_001)
        estimates.append(expected_clipped_inner(v, model, 1.0, stream=SeededStream(0, 0),
                                                mc_samples=40))
    assert estimates[0] == estimates[1] == estimates[2]


@pytest.mark.parametrize("route", ["inner", "gradient", "mixture", "norm"])
def test_monte_carlo_fill_moves_no_bits(monkeypatch, route):
    # Each draw takes 5 doubles, so these slice budgets give 7-, 14-, 21-
    # and 70-row slices (the last slice of a 200-row block is cut short)
    # under set caps of 1, 8, 3 and 8, against 1-row slices on the calling
    # thread. Whatever the slices, the cap or the number of workers, every
    # slice holds its own draws and the block sums see the same values, so
    # no bit moves. Three workers, more than the cores, and a short switch
    # interval stress the reuse of slice buffers.
    pools = [ThreadPoolExecutor(1), ThreadPoolExecutor(3)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for chunk in (noise._CHUNK_DOUBLES, 1000):
            monkeypatch.setattr(noise, "_CHUNK_DOUBLES", chunk)
            monkeypatch.setattr(noise, "_SLICE_DOUBLES", 5)
            monkeypatch.setattr(noise, "_SETS", 1)
            whole = _mc_route(route)
            for workers, pool in zip((1, 3), pools):
                monkeypatch.setattr(noise, "_workers", lambda workers=workers: workers)
                monkeypatch.setattr(noise, "_POOL", pool)
                for slice_doubles, sets in ((35, 1), (70, 8), (105, 3), (350, 8)):
                    monkeypatch.setattr(noise, "_SLICE_DOUBLES", slice_doubles)
                    monkeypatch.setattr(noise, "_SETS", sets)
                    for got, want in zip(_mc_route(route), whole):
                        np.testing.assert_array_equal(got, want)
    finally:
        sys.setswitchinterval(switch)
        for pool in pools:
            pool.shutdown()


@pytest.mark.parametrize("generator", [lambda: SeededStream(6, 0).generator(),
                                       lambda: np.random.default_rng(6)],
                         ids=["philox", "pcg64"])
def test_monte_carlo_continues_a_generator(monkeypatch, generator):
    # A Generator, Philox-backed or not, with a part-used buffer is
    # continued exactly: the estimate is the mean over its next serial
    # draws, and it is left where drawing them serially leaves it. With
    # three workers the pool threads draw slices too, under the hand-out
    # lock.
    v = np.array([0.4, -0.1])
    model = perturb(Empirical([[2.0, 1.0], [-1.0, 0.5]]), 2.0)
    monkeypatch.setattr(noise, "_SLICE_DOUBLES", 50)  # ten-draw slices
    for workers in (1, 3):
        gen, serial = generator(), generator()
        gen.integers(2**32, dtype=np.uint32)  # leaves half a 64-bit output
        serial.integers(2**32, dtype=np.uint32)
        gen.random(3)
        serial.random(3)
        with _pool_of(monkeypatch, workers):
            mean, _ = expected_clipped_gradient(v, model, 1.0, stream=gen, mc_samples=2000)
        values = diagnostics.clip_batch(v + model.sample(serial, 2000), 1.0)
        np.testing.assert_array_equal(mean, (-0.0 + values.sum(axis=0)) / 2000)
        assert np.array_equal(gen.random(9), serial.random(9))
        assert gen.integers(2**32, dtype=np.uint32) == serial.integers(2**32, dtype=np.uint32)


def test_monte_carlo_draws_its_slices_in_stream_order(monkeypatch):
    # The worker that holds the first slice maps it only once another worker
    # has mapped the second: a slice drawn outside the hand-out lock would
    # then take the stream's first draws for the second slice. Drawn under
    # it, every slice holds its serial uniforms, and the estimate is the mean
    # of the serial draws.
    v = np.array([0.4, -0.1])
    model = perturb(Empirical([[2.0, 1.0], [-1.0, 0.5]]), 2.0)
    monkeypatch.setattr(noise, "_SLICE_DOUBLES", 50)  # ten-draw slices
    share = noise._share
    slices = {}

    def second_slice_first(take, work, items, make):
        second = threading.Event()

        def held(item, *buffers):
            lo, u = item
            if lo == 0:
                assert second.wait(timeout=60), "no other worker mapped the second slice"
            work(item, *buffers)
            slices[lo] = u[:, 0].copy()  # the uniforms that picked the components
            if lo == 10:
                second.set()

        share(take, held, items, make)

    monkeypatch.setattr(noise, "_share", second_slice_first)
    serial = SeededStream(6, 0).generator().random((2000, model.rows_per_draw))[:, 0]
    draws = model.sample(SeededStream(6, 0), 2000)
    for route, values in ((expected_clipped_inner, clip_scores(v, draws, 1.0)),
                          (expected_clipped_gradient, diagnostics.clip_batch(v + draws, 1.0))):
        slices.clear()
        with _pool_of(monkeypatch, 3):
            mean, _ = route(v, model, 1.0, stream=SeededStream(6, 0), mc_samples=2000)
        assert np.concatenate([slices[lo] for lo in sorted(slices)]).tobytes() == serial.tobytes()
        np.testing.assert_array_equal(mean, (-0.0 + values.sum(axis=0)) / 2000)


def test_monte_carlo_refuses_a_bad_clip_before_drawing():
    # The statistic of no draws is mapped first, so a negative c raises
    # before a Generator passed in has moved.
    v = [0.4, -0.1]
    model = perturb(Empirical([[2.0, 1.0], [-1.0, 0.5]]), 2.0)
    gen, fresh = SeededStream(6, 0).generator(), SeededStream(6, 0).generator()
    for route in (expected_clipped_inner, expected_clipped_gradient):
        with pytest.raises(ValueError, match="clip threshold"):
            route(v, model, -1.0, stream=gen, mc_samples=2000)
    assert np.array_equal(gen.random(9), fresh.random(9))


def test_monte_carlo_errors_surface_and_leave_the_pool_clean(monkeypatch):
    # A worker's error reaches the caller with its own message, and so does
    # one raised while mapping; no slice is handed out after it, so each of
    # the other two workers transforms at most the slice it already holds,
    # and the next call gives the same bits as before.
    whole = _mc_route("inner")
    monkeypatch.setattr(noise, "_SLICE_DOUBLES", 35)  # 286 seven-row slices
    to_normals = noise._to_normals
    transforms = itertools.count(1)  # next() on it is atomic across threads

    def failing(u):
        if next(transforms) == 6:
            raise RuntimeError("the sixth slice failed")
        to_normals(u)

    monkeypatch.setattr(noise, "_to_normals", failing)
    with _pool_of(monkeypatch, 3):
        with pytest.raises(RuntimeError, match="the sixth slice failed"):
            _mc_route("inner")
        assert next(transforms) - 1 <= 6 + 2
        monkeypatch.setattr(noise, "_to_normals", to_normals)
        from_rows = SphericalMixture._from_rows
        seen = []

        def bad_map(model, u):
            seen.append(u.shape[0])
            if len(seen) == 4:
                raise ValueError("the fourth slice is bad")
            return from_rows(model, u)

        monkeypatch.setattr(SphericalMixture, "_from_rows", bad_map)
        with pytest.raises(ValueError, match="the fourth slice is bad"):
            _mc_route("inner")
        monkeypatch.setattr(SphericalMixture, "_from_rows", from_rows)
        for got, want in zip(_mc_route("inner"), whole):
            np.testing.assert_array_equal(got, want)


def test_monte_carlo_block_memory_is_bounded():
    # At d = 1000 the slice buffers take 256 KB a worker, 2 MB at most, and
    # everything else but the block buffer of mapped draws is slice-sized:
    # one score per draw for the inner route, half a block's budget (16 MB)
    # of clipped vectors for the gradient. So the peak stays under one
    # block's budget; whole-block temporaries took 84 MB, and 5 000
    # unblocked clipped vectors alone take 40 MB.
    d = 1000
    v = np.zeros(d)
    v[0] = 10.0
    model = perturb(Empirical(np.zeros((1, d))), 10.0)
    for route in (expected_clipped_inner, expected_clipped_gradient):
        route(v, model, 1.0, stream=SeededStream(0, 0), mc_samples=10)  # warm
        tracemalloc.start()
        try:
            route(v, model, 1.0, stream=SeededStream(0, 0), mc_samples=5000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * noise._CHUNK_DOUBLES, route.__name__


def test_monte_carlo_std_error_of_huge_scores(monkeypatch):
    # the squares of these scores overflow a double
    report = perturbation_gap(
        [1e200, 0.0], Empirical([[0.1, 0.0]]), 1.0, 1.0,
        stream=SeededStream(0, 0), mc_samples=1000,
    )
    assert report.estimate == pytest.approx(1e200, rel=1e-15)
    assert 0.0 <= report.std_error < np.inf
    # Squares are summed scaled by a power of two, which is exact: scaling
    # every value by 2^j scales the mean and the std error by exactly that.
    # At j = 1000 the values themselves are summed under the scale, and at
    # j = -600 and -900 the squares would underflow to a std error of 0.0.
    model = perturb(Empirical([[2.0, 1.0], [-1.0, 0.5]]), 2.0)
    plain = noise._mc_moments(model, SeededStream(4, 0), 2000, lambda x: x)
    for j in (600, 1000, -600, -900):
        scaled = noise._mc_moments(model, SeededStream(4, 0), 2000, lambda x: np.ldexp(x, j))
        for got, want in zip(scaled, plain):
            np.testing.assert_array_equal(got, np.ldexp(want, j))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = perturbation_gap(
            [1e307, 0.0], Empirical([[0.1, 0.0]]), 1.0, 1.0,
            stream=SeededStream(0, 0), mc_samples=1000,
        )
    assert report.estimate == pytest.approx(1e307, rel=1e-15)
    assert 0.0 <= report.std_error < np.inf
    # Eight-draw blocks: the first three hold only values near 1, so the
    # running sum of squares is rescaled when the first 2^600 arrives.
    mix = SphericalMixture([0.9, 0.1], [[1.0], [2.0**600]], [1.0, 2.0**598])
    monkeypatch.setattr(noise, "_CHUNK_DOUBLES", 8 * (mix.rows_per_draw + mix.dim))
    draws = mix.sample(SeededStream(16, 0), 4000)[:, 0]
    assert np.abs(draws[:24]).max() < 100.0 and np.abs(draws).max() > 2.0**599
    mean, se = noise._mc_moments(mix, SeededStream(16, 0), 4000, lambda x: x)
    shrunk = np.ldexp(draws, -600)
    assert np.ldexp(mean[0], -600) == pytest.approx(shrunk.mean(), rel=1e-12)
    want = shrunk.std(ddof=1) / math.sqrt(draws.shape[0])
    assert np.ldexp(se[0], -600) == pytest.approx(want, rel=1e-12)
    # A first block whose values cancel to a total of 0.0, then blocks of
    # values near 2^-600: scaling the sums up then would overflow the squares.
    monkeypatch.setattr(noise, "_CHUNK_DOUBLES", 16)  # 8 draws of a 1-D atom cloud
    values = np.concatenate([[1.0, -1.0] * 4, np.full(24, 2.0**-600)])
    stream = iter(values)
    mean, se = noise._mc_moments(
        Empirical([[0.0]]), SeededStream(0, 0), 32, lambda x: np.fromiter(stream, float, len(x))
    )
    assert mean == pytest.approx(values.mean(), rel=1e-12)
    assert se == pytest.approx(values.std(ddof=1) / math.sqrt(32), rel=1e-12)
    # Scores whose mean dwarfs their spread: a block's sum of squares less
    # its squared mean would cancel the spread away (to 0.0 at 1e6). The
    # 200 000 draws take two blocks; the estimate's error agrees with the
    # two-pass error of the same scores, rebuilt from the same stream.
    monkeypatch.undo()
    model = IsotropicGaussian(1.0, 10)
    for nv in (1e2, 1e4, 1e6):
        v = np.zeros(10)
        v[0] = nv
        mean, se = expected_clipped_inner(v, model, 1.0, stream=SeededStream(0, 0),
                                          mc_samples=200_000)
        draws = mixture_draws(SeededStream(0, 0).generator(), 200_000, model.weights,
                              model.centers, model.scales)
        scores = clip_scores(v, draws, 1.0)
        assert mean == pytest.approx(scores.mean(), rel=1e-15)
        assert se == pytest.approx(std_error_two_pass(scores), rel=1e-10), nv


def test_expected_inner_monotone_in_gradient_norm():
    # E <y vhat, clip(y vhat + xi)> / y never decreases as y grows
    models = [symmetrize(RES1), IsotropicGaussian(1.0, dim=1)]
    stream = SeededStream(12, 0)
    for model in models:
        ys = np.linspace(0.1, 4.0, 16)
        vals = []
        for y in ys:
            if isinstance(model, Empirical):
                e, _ = expected_clipped_inner([y], model, 1.0)
            else:
                e, _ = expected_clipped_inner(
                    [y], model, 1.0, stream=SeededStream(12, 0), mc_samples=200_000
                )
            vals.append(e / y)
        slack = 1e-12 if isinstance(model, Empirical) else 5e-3
        assert all(b >= a - slack for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# lower bounds


def test_symmetric_bound_gaussian_closed_form():
    report = symmetric_lower_bound(
        [1.0], IsotropicGaussian(1.0, dim=1), 1.0, stream=SeededStream(0, 0), mc_samples=100_000
    )
    prob = 2 * phi_cdf(0.25) - 1.0
    assert report.prob_term == pytest.approx(prob, abs=1e-12)
    assert report.lower_bound == pytest.approx(0.75 * prob, abs=1e-12)
    assert report.margin >= -1e-12


def test_symmetric_bound_branches():
    model = symmetrize(Empirical([[0.05]]))
    # ||v|| below (1-z)c: quadratic branch
    r = symmetric_lower_bound([0.5], model, 1.0)
    assert r.lower_bound == pytest.approx(0.25 * r.prob_term, abs=1e-14)
    # ||v|| above: linear branch
    r2 = symmetric_lower_bound([2.0], model, 1.0)
    assert r2.lower_bound == pytest.approx(2.0 * 0.75 * r2.prob_term, abs=1e-14)
    # ||v||^2 overflows here; the linear branch does not
    r3 = symmetric_lower_bound([1e200], symmetrize(Empirical([[0.1]])), 1.0)
    assert r3.lower_bound == 1e200 * 0.75 and r3.margin >= 0.0


def test_symmetric_bound_rejects_asymmetric_model():
    with pytest.raises(ValueError):
        symmetric_lower_bound([1.0], RES1, 1.0)


def _bits(value):
    """The bytes of a route's result, for bit-for-bit comparison."""
    if dataclasses.is_dataclass(value):
        value = dataclasses.astuple(value)
    if isinstance(value, noise.SphericalMixture):
        return (type(value), _bits((value.weights, value.centers, value.scales)))
    if isinstance(value, tuple):
        return tuple(_bits(part) for part in value)
    return np.asarray(value).tobytes()


def _outcome(route, *args, **kwargs):
    try:
        return _bits(route(*args, **kwargs))
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("atoms,weights", [
    ([[1.0], [-3.0]], [0.5, 0.5]),
    (RES1.atoms, RES1.weights),
    ([[0.5], [-0.0], [-0.5], [0.0]], [0.25, 0.125, 0.25, 0.375]),
    ([[1.0, -0.0], [0.0, 2.0], [1.0, 0.0], [-1.0, 0.0]], [0.1, 0.2, 0.3, 0.4]),
    (np.linspace(-2.0, 3.0, 15).reshape(5, 3), [0.3, 0.1, 0.2, 0.25, 0.15]),
])
def test_routes_read_the_arrays_not_the_class(atoms, weights):
    """An atom cloud and the scale-0 mixture with its arrays take the same
    route on every public function, to the bit."""
    emp = Empirical(atoms, weights)
    mix = SphericalMixture(emp.weights, emp.centers, np.zeros(emp.centers.shape[0]))
    assert type(mix) is SphericalMixture
    dim = emp.dim
    v = np.linspace(0.4, 1.1, dim)
    mc = {} if dim == 1 else {"stream": SeededStream(3, 0), "mc_samples": 500}
    routes = [
        (expected_clipped_inner, lambda m: (v, m, 0.8), {}),
        (expected_clipped_gradient, lambda m: (v, m, 0.8), {}),
        (clipping_bias, lambda m: (v, m, symmetrize(m), 0.8), {}),
        (clipping_bias, lambda m: (v, symmetrize(m), m, 0.8), {}),
        (wasserstein_clip, lambda m: (v, 0.8, m, symmetrize(m)), {}),
        (perturbation_gap, lambda m: (v, m, 0.8, 1.5), mc),
        (symmetrize, lambda m: (m,), {}),
        (diagnostics.assert_symmetric, lambda m: (m,), {}),
        (diagnostics.assert_symmetric, lambda m: (symmetrize(m),), {}),
        (prob_norm_below, lambda m: (m, 1.3), {}),
    ]
    for route, args, kwargs in routes:
        assert _outcome(route, *args(emp), **kwargs) == _outcome(route, *args(mix), **kwargs)
    # the exact routes were taken: no Monte Carlo error
    assert expected_clipped_inner(v, mix, 0.8)[1] == 0.0
    assert not expected_clipped_gradient(v, mix, 0.8)[1].any()


def _clouds():
    """Atom clouds in 1 to 3 dimensions on a coarse grid, so that exact
    duplicates, exact negations and -0.0 components are common."""
    grid = st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.0])
    return st.integers(1, 3).flatmap(lambda dim: st.lists(
        st.tuples(st.lists(grid, min_size=dim, max_size=dim), st.integers(1, 4)),
        min_size=1, max_size=6,
    ))


@given(cloud=_clouds(), k=st.floats(1e-3, 100.0))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_smoothing_commutes_with_symmetrization(cloud, k):
    atoms = [atom for atom, _ in cloud]
    counts = np.array([count for _, count in cloud], dtype=np.float64)
    p = Empirical(atoms, counts / counts.sum())
    smoothed = perturb(symmetrize(p), k)
    got = symmetrize(perturb(p, k))
    for name in ("weights", "centers", "scales"):
        assert getattr(got, name).tobytes() == getattr(smoothed, name).tobytes(), name
    # the smoothed symmetric cloud passes the symmetry check and its bound
    v = np.linspace(0.5, 1.0, p.dim)
    symmetric_lower_bound(v, smoothed, 1.0, stream=SeededStream(5, 0), mc_samples=2000)
    # smoothing keeps an asymmetric cloud asymmetric
    try:
        diagnostics.assert_symmetric(p)
    except ValueError:
        with pytest.raises(ValueError, match="not symmetric"):
            diagnostics.assert_symmetric(perturb(p, k))
    else:
        diagnostics.assert_symmetric(perturb(p, k))


def test_symmetric_bound_dominance_exact():
    rng = np.random.default_rng(77)
    for _ in range(40):
        dim = int(rng.integers(1, 6))
        model = symmetrize(_random_empirical(rng, dim))
        v = rng.normal(size=dim) * float(rng.uniform(0.1, 3.0))
        c = float(rng.uniform(0.2, 3.0))
        for z in (0.1, 0.25, 0.5, 0.9):
            report = symmetric_lower_bound(v, model, c, z=z)
            assert report.std_error == 0.0
            assert report.margin >= -1e-12


def test_mixture_bound_worked_example():
    mix = SphericalMixture([0.25, 0.75], [[2.0, 0.0], [0.5, 0.0]], [0.01, 0.01])
    v = [0.875, 0.0]
    report = mixture_lower_bound(v, mix, 1.0, stream=SeededStream(1, 0), mc_samples=50_000)
    assert report.lower_bound == pytest.approx(0.4921875, abs=1e-9)
    assert report.estimate >= report.lower_bound - 3 * report.std_error
    # a zero-scale component counts whole; a zero-norm center adds no
    # descent but its ball mass still enters the probability term
    mix = SphericalMixture(
        [0.25, 0.5, 0.25], [[2.0, 0.0], [0.5, 0.0], [0.0, 0.0]], [0.01, 0.0, 1.0]
    )
    v = [0.75, 0.0]
    report = mixture_lower_bound(v, mix, 1.0, stream=SeededStream(1, 1), mc_samples=50_000)
    # 0.75 * (0.25 * min(2, 0.75) * 1 + 0.5 * min(0.5, 0.75) * 1)
    assert report.lower_bound == 0.328125
    # in 2-D, P(||N(0, I)|| < r) = 1 - exp(-r^2 / 2)
    prob = 0.25 + 0.5 + 0.25 * (1.0 - math.exp(-0.25**2 / 2))
    assert report.prob_term == pytest.approx(prob, abs=1e-12)
    assert report.estimate >= report.lower_bound - 3 * report.std_error


def test_mixture_bound_single_component_equals_symmetric_bound():
    # one component centered at v: same formula as the symmetric bound
    v = [1.2, 0.0, 0.0]
    mix = SphericalMixture([1.0], [v], [0.7])
    a = mixture_lower_bound(v, mix, 1.0, stream=SeededStream(2, 0), mc_samples=10_000)
    b = symmetric_lower_bound(
        v, IsotropicGaussian(0.7, dim=3), 1.0, stream=SeededStream(2, 1), mc_samples=10_000
    )
    assert a.lower_bound == pytest.approx(b.lower_bound, abs=1e-12)


def test_mixture_bound_orthogonal_components_contribute_zero():
    # components at right angles to v have cosine 0: only the aligned one
    # feeds the bound.  Mean is (1, 0) = v, so preconditions hold.
    mix = SphericalMixture(
        [0.5, 0.25, 0.25], [[2.0, 0.0], [0.0, 2.0], [0.0, -2.0]], [0.01, 0.01, 0.01]
    )
    v = [1.0, 0.0]
    report = mixture_lower_bound(v, mix, 1.0, stream=SeededStream(3, 0), mc_samples=10_000)
    # 1 * 0.5 * min(2, 0.75) * 1 * P, and P = 1 at radial scale 0.01
    assert report.lower_bound == pytest.approx(0.375, abs=1e-12)


def test_mixture_bound_precondition_errors():
    mix = SphericalMixture([0.5, 0.5], [[2.0, 0.0], [0.5, 0.0]], [0.01, 0.01])
    with pytest.raises(ValueError, match="mean"):
        mixture_lower_bound([1.0, 0.0], mix, 1.0)
    bad = SphericalMixture([0.5, 0.5], [[2.0, 0.0], [-1.0, 0.0]], [0.01, 0.01])
    with pytest.raises(ValueError, match="align"):
        mixture_lower_bound([0.5, 0.0], bad, 1.0)


# ---------------------------------------------------------------------------
# bias and Wasserstein


def test_bias_identities():
    v = np.array([0.5])
    assert clipping_bias(v, RES1, RES1, 1.0) == 0.0
    assert clipping_bias(v, RES2, symmetrize(RES2), 1.0) == pytest.approx(0.0, abs=1e-15)
    # decomposition: E_p = E_q + bias(p, q) for any q on the same dim
    rng = np.random.default_rng(8)
    for _ in range(100):
        dim = int(rng.integers(1, 5))
        p = _random_empirical(rng, dim)
        q = _random_empirical(rng, dim)
        v = rng.normal(size=dim)
        c = float(rng.uniform(0.2, 3.0))
        ep, _ = expected_clipped_inner(v, p, c)
        eq, _ = expected_clipped_inner(v, q, c)
        b = clipping_bias(v, p, q, c)
        assert ep == pytest.approx(eq + b, abs=1e-10)


def test_bias_example1_hand_value():
    # v=1, c=1: scores are +1 on {4, 8}, -1 on {-8, -4, -3-ish region}...
    # p gives 2/3 mass to +4 and 1/3 to -8 -> E_p = 1/3; symmetrized -> 0
    b = clipping_bias([1.0], RES1, symmetrize(RES1), 1.0)
    assert b == pytest.approx(1 / 3, abs=1e-14)


def test_shared_atoms_cancel_exactly():
    p = Empirical([[1.0], [2.0]], weights=[0.5, 0.5])
    q = Empirical([[2.0], [1.0]], weights=[0.5, 0.5])
    assert clipping_bias([0.7], p, q, 1.0) == 0.0


def test_wasserstein_point_masses():
    p = Empirical([[4.0]])
    q = Empirical([[-8.0]])
    assert wasserstein_clip([1.0], 1.0, p, q) == pytest.approx(2.0, abs=1e-15)
    assert wasserstein_clip([1.0], 1.0, p, p) == 0.0


def test_wasserstein_matches_lp_oracle():
    rng = np.random.default_rng(90)
    for _ in range(40):
        dim = int(rng.integers(1, 5))
        p = _random_empirical(rng, dim)
        q = _random_empirical(rng, dim)
        v = rng.normal(size=dim)
        c = float(rng.uniform(0.2, 3.0))
        got = wasserstein_clip(v, c, p, q)
        sa = clip_scores(np.asarray(v), p.atoms, c)
        sb = clip_scores(np.asarray(v), q.atoms, c)
        want = transport_cost_lp(sa, p.weights, sb, q.weights)
        assert got == pytest.approx(want, abs=1e-9)
        assert got == pytest.approx(wasserstein_clip(v, c, q, p), abs=1e-12)


def test_wasserstein_caps():
    rng = np.random.default_rng(17)
    for _ in range(60):
        dim = int(rng.integers(1, 4))
        p = _random_empirical(rng, dim)
        q = _random_empirical(rng, dim)
        v = rng.normal(size=dim)
        c = float(rng.uniform(0.2, 2.0))
        nv = float(np.linalg.norm(v))
        # scores live in [-c||v||, c||v||]: any pair is within 2c||v||,
        # a distribution and its symmetrization within c||v||
        assert wasserstein_clip(v, c, p, q) <= 2 * c * nv + 1e-9
        assert wasserstein_clip(v, c, p, symmetrize(p)) <= c * nv + 1e-9
        b = clipping_bias(v, p, q, c)
        assert abs(b) <= wasserstein_clip(v, c, p, q) + 1e-10


# ---------------------------------------------------------------------------
# descent function and perturbation gap


def test_descent_function_values():
    assert descent_function(0.0, 1.0) == 0.0
    assert descent_function(0.5, 1.0) == 0.25
    assert descent_function(2.0, 1.0) == 1.5
    assert descent_function(1e200, 1.0) == 0.75 * 1e200  # y^2 would overflow
    with pytest.raises(ValueError):
        descent_function(-1.0, 1.0)
    with pytest.raises(ValueError):
        descent_function(1.0, 1.0, z=1.0)


@given(y=st.floats(0, 100), c=st.floats(0.01, 50))
@settings(max_examples=200, deadline=None)
def test_descent_function_is_min(y, c):
    assert descent_function(y, c) == min(y * y, 0.75 * c * y)


def test_perturbation_gap_exact_matches_monte_carlo():
    exact = perturbation_gap([0.1], RES1, 1.0, 4.0)
    assert exact.std_error == 0.0
    mc = perturbation_gap(
        [0.1], RES1, 1.0, 4.0, stream=SeededStream(21, 0), mc_samples=400_000
    )
    assert abs(mc.estimate - exact.estimate) < 3 * mc.std_error
    assert mc.lower_bound == pytest.approx(exact.lower_bound, abs=1e-14)


def test_perturbation_gap_shrinks_with_k():
    # the skew-driven displacement between estimate and bound washes out as
    # the symmetric perturbation swamps the asymmetric noise
    gaps = [perturbation_gap([0.1], RES1, 1.0, k).margin for k in (2.0, 4.0, 8.0, 16.0)]
    mags = [abs(g) for g in gaps]
    assert all(b < a for a, b in zip(mags, mags[1:]))
    assert mags[1] / mags[2] >= 3.0
    assert mags[2] / mags[3] >= 3.0


def test_perturbation_gap_point_mass_respects_bound():
    # symmetric case: no bias, estimate dominates the bound outright
    report = perturbation_gap([0.5], Empirical([[0.0]]), 1.0, 2.0)
    assert report.margin >= -1e-12
    for k in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="perturbation scale k"):
            perturbation_gap([0.5], RES1, 1.0, k)
    # ||v||^2 overflows here; the bound is the linear branch
    report = perturbation_gap([1e200], Empirical([[0.1]]), 1.0, 1.0)
    assert np.isfinite(report.lower_bound) and report.margin >= 0.0


def test_perturbation_gap_tiny_k_has_unit_ball_mass():
    # (z*c/k)^2 overflows a double; the ball mass is 1 to double precision
    report = perturbation_gap([0.1], RES1, 1.0, 1e-160)
    assert report.lower_bound == 0.1 * min(0.1, 0.75) * 1.0


# ---------------------------------------------------------------------------
# descent ledger


def _ledger_run(problem, x0, steps=400, seed=0, batch=1):
    cfg = OptimizerConfig(
        alpha=1.0 / math.sqrt(steps), clip=1.0, steps=steps, x0=x0, batch=batch, seed=seed
    )
    return clipped_sgd(problem, cfg)


def test_ledger_requires_matched_step_size():
    p = make_example2()
    cfg = OptimizerConfig(alpha=0.5, clip=1.0, steps=16, x0=[1.0], batch=1)
    with pytest.raises(ValueError):
        descent_ledger(clipped_sgd(p, cfg))


def test_ledger_example2_bias_is_zero():
    ledger = descent_ledger(_ledger_run(make_example2(), [1.5]))
    assert np.allclose(ledger.bias, 0.0, atol=1e-14)
    assert ledger.passed
    assert ledger.theorem_ok and ledger.corollary_ok


def test_ledger_example1_passes_with_negative_bias():
    ledger = descent_ledger(_ledger_run(make_example1(), [1.0]))
    assert ledger.passed
    assert ledger.mean_bias < 0  # clipping drags the drift downward
    # per-step decomposition holds exactly
    assert np.allclose(ledger.e_p, ledger.e_p_tilde + ledger.bias, atol=1e-10)


def test_ledger_single_sample_problem_is_deterministic_descent():
    p = make_synthetic_mixture(seed=5, n=1, dim=2)
    ledger = descent_ledger(_ledger_run(p, [1.0, -1.0]))
    assert ledger.passed
    assert np.allclose(ledger.bias, 0.0, atol=1e-14)
    assert ledger.std_error == pytest.approx(0.0, abs=1e-13)


def test_ledger_expected_terms_match_direct_computation():
    p = make_example1()
    traj = _ledger_run(p, [0.5], steps=100, seed=3)
    ledger = descent_ledger(traj)
    res = p.noise_residuals()
    for t in (0, 13, 57, 99):
        want, _ = expected_clipped_inner(traj.gradients[t], res, 1.0)
        assert ledger.e_p[t] == pytest.approx(want, abs=1e-12)


def test_ledger_rejects_noisy_trajectories():
    p = make_example2()
    cfg = OptimizerConfig(
        alpha=1.0 / math.sqrt(64), clip=1.0, steps=64, x0=[1.0], batch=1, sigma=0.5
    )
    with pytest.raises(ValueError):
        descent_ledger(dp_sgd(p, cfg))


def test_ledger_wasserstein_column():
    ledger = descent_ledger(_ledger_run(make_example1(), [1.0], steps=100), wasserstein=True)
    assert ledger.w_bound.shape == (100,)
    assert np.all(np.isfinite(ledger.w_bound))
    assert np.all(-ledger.bias <= ledger.w_bound + 1e-10)
    off = descent_ledger(_ledger_run(make_example1(), [1.0], steps=100), wasserstein=False)
    assert np.all(np.isnan(off.w_bound))


def test_ledger_csv_layout(tmp_path):
    run = _ledger_run(make_example2(), [0.5], steps=50)
    for wasserstein in (False, True):
        ledger = descent_ledger(run, wasserstein=wasserstein)
        out = tmp_path / "ledger.csv"
        ledger.to_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "step,grad_norm,lhs,b_t,w_bound,prob_term"
        assert len(lines) == 51
        w_cells = [line.split(",")[4] for line in lines[1:]]
        if wasserstein:
            # repr(float) parses back to the same double, bit for bit
            assert np.array([float(c) for c in w_cells]).tobytes() == ledger.w_bound.tobytes()
        else:
            assert w_cells == [""] * 50


# Residual clouds are optimum - centers; these centers sum to zero exactly,
# so the clouds are exactly the negated centers.
TIED = QuadraticProblem([-5.0, -7.0, 5.0, -5.0, 12.0])  # atoms 5 and 7 tie at c = 1
CLOUD3 = QuadraticProblem(-np.array([
    [1.5, -2.0, 0.5], [-1.5, 2.0, -0.5],  # an exact +- pair
    [3.0, 1.0, -2.0], [3.0, 1.0, -2.0],  # a duplicate atom
    [-6.0, -2.0, 4.0], [0.0, 0.0, 5.0], [0.0, 0.0, 7.0], [0.0, 0.0, -12.0],
]))


@pytest.mark.parametrize("problem, x0", [
    (make_example1(), [1.0]),
    (make_example2(), [1.5]),
    (TIED, [0.25]),
    (CLOUD3, [0.5, -0.3, 0.2]),
])
def test_ledger_columns_match_the_per_step_functions(problem, x0):
    traj = _ledger_run(problem, x0, steps=200)
    ledger = descent_ledger(traj, wasserstein=True)
    p = problem.noise_residuals()
    p_tilde = symmetrize(p)
    for t in range(traj.steps):
        v = traj.gradients[t]
        assert ledger.e_p[t] == pytest.approx(expected_clipped_inner(v, p, 1.0)[0], abs=1e-12)
        want = expected_clipped_inner(v, p_tilde, 1.0)[0]
        assert ledger.e_p_tilde[t] == pytest.approx(want, abs=1e-12)
        want = wasserstein_clip(v, 1.0, p_tilde, p)
        assert ledger.w_bound[t] == pytest.approx(want, abs=1e-12)


def test_ledger_slices_match_the_per_step_functions(monkeypatch):
    # 8 atoms: 201 steps in slices of 8 rows, 25 of them and a last slice
    # of one row, whose product is the last row of a two-row GEMM
    steps = 201
    p = CLOUD3.noise_residuals()
    run = _ledger_run(CLOUD3, [0.5, -0.3, 0.2], steps=steps)
    iterates = run.iterates.copy()
    iterates[3 * 8 + 6] = -p.atoms[5]  # v = -a exactly, in the fourth slice
    assert CLOUD3.optimum.tolist() == [0.0, 0.0, 0.0]  # so gradients are the iterates
    traj = Trajectory(CLOUD3, run.config, 0.0, iterates, run.clipped_means)
    score_signs = diagnostics._score_signs
    sliced_rows = []

    def counted(v2, A, a2, c, *args):
        for sign in (1.0, -1.0):  # one call scores both signs
            sliced_rows.append((A.shape[0], sign))  # list.append is atomic
        return score_signs(v2, A, a2, c, *args)

    monkeypatch.setattr(diagnostics, "_score_signs", counted)
    monkeypatch.setattr(noise, "_SLICE_DOUBLES", 8 * 8)
    ledger = descent_ledger(traj, wasserstein=True)
    # pool workers finish slices in any order, so compare the sizes sorted
    assert sorted(rows for rows, _ in sliced_rows) == sorted([8] * 25 * 2 + [1] * 2)
    for sign in (1.0, -1.0):
        assert sum(rows for rows, s in sliced_rows if s == sign) == steps

    p_tilde = symmetrize(p)
    for t in range(steps):
        v = traj.gradients[t]
        assert ledger.e_p[t] == pytest.approx(expected_clipped_inner(v, p, 1.0)[0], abs=1e-12)
        want = expected_clipped_inner(v, p_tilde, 1.0)[0]
        assert ledger.e_p_tilde[t] == pytest.approx(want, abs=1e-12)
        want = wasserstein_clip(v, 1.0, p_tilde, p)
        assert ledger.w_bound[t] == pytest.approx(want, abs=1e-12)

    # a row's weighted sum reads that row alone, so slicing moves no bits
    monkeypatch.setattr(noise, "_SLICE_DOUBLES", 8 * steps)
    whole = descent_ledger(traj, wasserstein=True)
    assert np.array_equal(ledger.e_p, whole.e_p)
    assert np.array_equal(ledger.e_p_tilde, whole.e_p_tilde)
    assert np.array_equal(ledger.w_bound, whole.w_bound)


# v and a with v2 + 2<v, a> + a2 rounding to -4.4e-16: a clamp to 0 and
# the score of a pair at the origin
NEAR_V = [-0.056064439045617594, 0.7468856162565439, -1.8473247989741095]
NEAR_A = [0.05606443904561757, -0.7468856162565435, 1.8473247989741082]


def _kernel_slice(scale):
    """Seven rows against 40 atoms in 3-D, scaled by ``scale``: random
    pairs, v = -a and v = a exactly, and a pair whose squared norm for
    xi = a rounds below 0."""
    rng = np.random.default_rng(17)
    V = rng.normal(size=(7, 3))
    atoms = rng.normal(size=(40, 3)) * 0.8
    atoms[3] = -V[2]  # s(a) at the origin
    atoms[4] = V[5]  # s(-a) at the origin
    V[1], atoms[6] = NEAR_V, NEAR_A
    return V * scale, atoms * scale


@pytest.mark.parametrize("scale", [1.0, 2.0 ** 300, 2.0 ** -300])
def test_fused_scores_match_the_per_sign_oracle(scale):
    V, atoms = _kernel_slice(scale)
    c = 1.0 * scale
    v2 = vectors._row_dots(V, V)[:, None]
    a2 = vectors._row_dots(atoms, atoms)
    A = np.matmul(V, np.ascontiguousarray(atoms.T))
    assert (v2 + 2.0 * A + a2)[1, 6] < 0.0  # the rounding case is real
    work, plus, minus = (np.empty_like(A) for _ in range(3))
    diagnostics._score_signs(v2, A.copy(), a2, c, work, plus, minus)
    want_plus = score_block(v2, A, a2, c, 1.0)
    want_minus = score_block(v2, A, a2, c, -1.0)
    assert want_plus[2, 3] == 0.0 and want_minus[5, 4] == 0.0 and want_plus[1, 6] == 0.0
    assert plus.tobytes() == want_plus.tobytes()
    assert minus.tobytes() == want_minus.tobytes()

    # with every squared norm above 0 the clamp and the mask are skipped
    keep = [0, 3, 4, 5, 6]
    A, v2 = A[keep][:, 7:], v2[keep]
    assert min((v2 + 2.0 * A + a2[7:]).min(), (v2 - 2.0 * A + a2[7:]).min()) > 0.0
    diagnostics._score_signs(v2, A.copy(), a2[7:], c, work[:5, 7:], plus[:5, 7:],
                             minus[:5, 7:])
    assert plus[:5, 7:].tobytes() == score_block(v2, A, a2[7:], c, 1.0).tobytes()
    assert minus[:5, 7:].tobytes() == score_block(v2, A, a2[7:], c, -1.0).tobytes()


def test_fused_scores_take_the_oracles_path_on_a_nan():
    V, atoms = _kernel_slice(1.0)
    V[4, 0] = np.nan
    v2 = vectors._row_dots(V, V)[:, None]
    a2 = vectors._row_dots(atoms, atoms)
    A = np.matmul(V, atoms.T)
    work, plus, minus = (np.empty_like(A) for _ in range(3))
    diagnostics._score_signs(v2, A.copy(), a2, 1.0, work, plus, minus)
    np.testing.assert_array_equal(plus, score_block(v2, A, a2, 1.0, 1.0))
    np.testing.assert_array_equal(minus, score_block(v2, A, a2, 1.0, -1.0))
    assert plus[2, 3] == 0.0 and np.isnan(plus[4]).all()


@pytest.mark.parametrize("scale", [1.0, 2.0 ** 300, 2.0 ** -300])
@pytest.mark.parametrize("transport", [True, False], ids=["transport", "no-transport"])
def test_reflected_scores_match_the_per_sign_oracle(monkeypatch, scale, transport):
    # one slice of all seven rows, so the product is the same GEMM call
    V, atoms = _kernel_slice(scale)
    weights = np.random.default_rng(4).random(40)
    emp = Empirical(atoms, weights / weights.sum())
    monkeypatch.setattr(noise, "_SLICE_DOUBLES", 7 * 40)
    e_plus, e_minus, w_gap = diagnostics._reflected_scores(V, emp, scale, transport)
    v2 = vectors._row_dots(V, V)[:, None]
    A = np.matmul(V, np.ascontiguousarray(atoms.T))
    plus, minus = (score_block(v2, A, vectors._row_dots(atoms, atoms), scale, sign)
                   for sign in (1.0, -1.0))
    assert e_plus.tobytes() == np.multiply(plus, emp.weights).sum(axis=-1).tobytes()
    assert e_minus.tobytes() == np.multiply(minus, emp.weights).sum(axis=-1).tobytes()
    if transport:
        want = diagnostics._transport_rows(plus, emp.weights, minus, emp.weights)
        assert w_gap.tobytes() == want.tobytes()
    else:
        assert np.isnan(w_gap).all()


MIXTURE = make_synthetic_mixture()  # 10 000 atoms in 10-D


def test_weighted_sum_of_a_row_reads_that_row_alone():
    # Above 8192 atoms an einsum or a GEMV rounds a row by the rows summed
    # with it; the ledger's sums must not.
    rng = np.random.default_rng(0)
    values = rng.normal(size=(7, 10_000))
    weights = MIXTURE.noise_residuals().weights
    whole = diagnostics._weighted_sum(values, weights)
    for rows in (1, 2, 3, 7):
        parts = [diagnostics._weighted_sum(values[lo:lo + rows], weights)
                 for lo in range(0, 7, rows)]
        assert np.array_equal(np.concatenate(parts), whole), rows
    assert diagnostics._weighted_sum(values[3], weights) == whole[3]


def test_ledger_columns_do_not_depend_on_the_block_size(monkeypatch):
    # 10 000 atoms, 120 steps: one 120-row slice against the default 6-row
    # slices, 1-row slices, and 17-row slices whose last is a single row.
    # A one-row product taken as a GEMV would move that row's bits.
    traj = _ledger_run(MIXTURE, [0.0] * 10, steps=120)
    ledgers = []
    for rows in (120, noise._SLICE_DOUBLES // 10_000, 1, 17):
        monkeypatch.setattr(noise, "_SLICE_DOUBLES", rows * 10_000)
        ledgers.append(descent_ledger(traj, wasserstein=True))
    for ledger in ledgers[1:]:
        for column in ("e_p", "e_p_tilde", "w_bound"):
            assert np.array_equal(getattr(ledgers[0], column), getattr(ledger, column)), column


@contextlib.contextmanager
def _pool_of(monkeypatch, workers):
    """Run the package's pool work on a new pool of ``workers`` threads,
    whatever the cores."""
    monkeypatch.setattr(noise, "_workers", lambda: workers)
    monkeypatch.setattr(noise, "_POOL", None)
    try:
        yield
    finally:
        if noise._POOL is not None:
            noise._POOL.shutdown()
        noise._POOL = None  # a later pooled call makes a new pool


def test_ledger_memory_is_a_few_slice_buffers(monkeypatch):
    # 1 000 steps against 10 000 atoms take 167 six-row slices, each with
    # its own product, through four reused 512 KB slice buffers per pool
    # worker, against a 32 MB Monte Carlo block. The contiguous copy of the
    # atoms and the columns take the rest: 3.9 MB in all with one worker.
    traj = _ledger_run(MIXTURE, [0.0] * 10, steps=1000)
    for workers in (1, 3):
        with _pool_of(monkeypatch, workers):
            tracemalloc.start()
            try:
                ledger = descent_ledger(traj)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert np.all(np.isnan(ledger.w_bound))  # the transport column resolves to off
        assert peak < (4 * workers + 4) * 8 * noise._SLICE_DOUBLES, workers


def _ledger_bytes(ledger):
    return {field.name: np.asarray(getattr(ledger, field.name)).tobytes()
            for field in dataclasses.fields(ledger)}


# 513 atoms in 7-D: OpenBLAS's GEMM rounds these products differently
# against the transposed atoms than against a contiguous copy of them.
CLOUD513 = QuadraticProblem(np.random.default_rng(7).normal(size=(513, 7)) * 3.0)


@pytest.mark.parametrize("problem, steps", [(MIXTURE, 120), (CLOUD513, 600)],
                         ids=["mixture", "cloud513"])
def test_ledger_bits_do_not_depend_on_the_worker_count(monkeypatch, problem, steps):
    # 20 six-row slices of the mixture, or five 127-row slices of the cloud,
    # each scored on whichever worker takes it. Three workers, more than the
    # cores, and a short switch interval stress the shared slice sequence: a
    # slice that no worker took would leave its rows unwritten.
    traj = _ledger_run(problem, [0.5] * problem.dim, steps=steps)
    ledgers = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 3):
            with _pool_of(monkeypatch, workers):
                ledgers.append(_ledger_bytes(descent_ledger(traj, wasserstein=True)))
    finally:
        sys.setswitchinterval(switch)
    assert ledgers[0] == ledgers[1]


def test_ledger_errors_surface_and_stop_the_other_workers(monkeypatch):
    # A worker's error reaches the caller with its own message. No slice is
    # handed out after it, so each of the other two workers scores at most
    # the slice it already holds, not the rest of the 20; the next ledger
    # keeps every bit.
    traj = _ledger_run(MIXTURE, [0.0] * 10, steps=120)
    score_signs = diagnostics._score_signs
    slices = itertools.count(1)  # next() on it is atomic across threads

    def failing(v2, A, a2, c, work, plus, minus):
        if next(slices) == 5:
            raise RuntimeError("the fifth slice failed")
        score_signs(v2, A, a2, c, work, plus, minus)

    with _pool_of(monkeypatch, 3):
        want = _ledger_bytes(descent_ledger(traj, wasserstein=True))
        monkeypatch.setattr(diagnostics, "_score_signs", failing)
        with pytest.raises(RuntimeError, match="the fifth slice failed"):
            descent_ledger(traj, wasserstein=True)
        assert next(slices) - 1 <= 5 + 2
        monkeypatch.setattr(diagnostics, "_score_signs", score_signs)
        assert _ledger_bytes(descent_ledger(traj, wasserstein=True)) == want


def _fail_off_main(monkeypatch):
    """Wrap every public package function at every module that binds it
    to fail, and to log its name, when called off the main thread. The
    benchmark's span tracer keeps one stack for every thread, so a public
    function called from a pool worker would corrupt its spans."""
    off_main = []
    names = set(diagnostics.__all__) | set(vectors.__all__) | set(noise.__all__)
    names.add("normals_from_uniforms")
    for module in (clipbias, vectors, noise, problems, privacy, optimizers, diagnostics, probes,
                   cli):
        for name in names:
            fn = getattr(module, name, None)
            if not inspect.isfunction(fn):
                continue  # classes keep their identity for isinstance

            def on_main(*args, _fn=fn, **kwargs):
                if threading.current_thread() is not threading.main_thread():
                    off_main.append(_fn.__name__)
                    raise AssertionError(f"{_fn.__name__} called from a pool thread")
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, on_main)
    return off_main


def test_ledger_pool_threads_call_no_public_function(monkeypatch):
    off_main = _fail_off_main(monkeypatch)
    traj = _ledger_run(MIXTURE, [0.0] * 10, steps=120)
    with _pool_of(monkeypatch, 3):
        ledger = descent_ledger(traj, wasserstein=True)
    assert off_main == []
    assert ledger.passed


def _pooled_route(route):
    if route != "wide":
        return _mc_route(route)
    # rows of more than 8192 columns take the wide norms, in the clip and
    # in its nudge loop
    v = np.full(10_000, 0.01)
    model = perturb(Empirical(np.zeros((1, 10_000))), 1.0)
    return expected_clipped_inner(v, model, 1.0, stream=SeededStream(0, 0), mc_samples=40)


@pytest.mark.parametrize("route", ["inner", "gradient", "mixture", "norm", "wide"])
def test_monte_carlo_pool_threads_call_no_public_function(monkeypatch, route):
    # One-row slices of the wide route, 286 seven-row slices of the others,
    # each turned into normals and mapped on a pool worker: the clips and
    # norms there are private kernels, and three workers give the bits of
    # one.
    monkeypatch.setattr(noise, "_SLICE_DOUBLES", 35)
    with _pool_of(monkeypatch, 1):
        want = _pooled_route(route)
    off_main = _fail_off_main(monkeypatch)
    with _pool_of(monkeypatch, 3):
        got = _pooled_route(route)
    assert off_main == []
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def test_ledger_buffer_sets_are_capped_at_any_core_count(monkeypatch):
    # 1 000 steps against 10 000 atoms take 167 slices. On 64 cores one
    # buffer set per worker would take 128 MB; the cap makes eight, whose
    # workers take every slice. A pool of three threads stands in for the
    # 64 workers, so the test starts no more threads than that.
    traj = _ledger_run(MIXTURE, [0.0] * 10, steps=1000)
    with _pool_of(monkeypatch, 1):
        want = _ledger_bytes(descent_ledger(traj))
    monkeypatch.setattr(noise, "_workers", lambda: 64)
    pool = ThreadPoolExecutor(3)
    monkeypatch.setattr(noise, "_POOL", pool)
    threads = threading.active_count()
    try:
        tracemalloc.start()
        try:
            got = _ledger_bytes(descent_ledger(traj))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert threading.active_count() <= threads + 3
    finally:
        pool.shutdown()
    assert got == want
    assert peak < (4 * noise._SETS + 4) * 8 * noise._SLICE_DOUBLES


def test_ledger_of_one_slice_or_one_worker_stays_on_the_calling_thread(monkeypatch):
    # example1's 3 atoms fit 10 000 steps into one slice; the mixture at
    # 120 steps takes 20 slices, but one worker has no one to share them
    # with. A Monte Carlo call of one slice, or of 286 slices on one
    # worker, stays there too.
    def no_pool():
        raise AssertionError("the ledger handed work to the pool")

    monkeypatch.setattr(noise, "_pool", no_pool)
    assert descent_ledger(_ledger_run(make_example1(), [1.0], steps=10_000),
                          wasserstein=True).passed
    whole = _mc_route("inner")
    monkeypatch.setattr(noise, "_workers", lambda: 1)
    assert descent_ledger(_ledger_run(MIXTURE, [0.0] * 10, steps=120), wasserstein=True).passed
    monkeypatch.setattr(noise, "_SLICE_DOUBLES", 35)
    assert _mc_route("inner") == whole


@pytest.mark.parametrize("j", [-200, 200])
def test_ledger_scales_exactly_with_powers_of_two(j):
    # Scaling the centers, x0 and c by 2^j scales every length by 2^j
    # exactly while the doubles stay normal: iterates and gradient norms by
    # 2^j, scores and the bound by 4^j; probabilities and flags keep.
    steps = 120
    base = _scaled_ledger(MIXTURE.centers, [0.5] * 10, 1.0, steps)
    scaled = _scaled_ledger(np.ldexp(MIXTURE.centers, j), np.ldexp([0.5] * 10, j),
                            np.ldexp(1.0, j), steps)
    (traj, ledger), (traj_j, ledger_j) = base, scaled
    assert ledger.passed
    assert np.array_equal(traj_j.iterates, np.ldexp(traj.iterates, j))
    assert np.array_equal(ledger_j.grad_norms, np.ldexp(ledger.grad_norms, j))
    assert ledger_j.clip == np.ldexp(ledger.clip, j)
    for column in ("lhs", "e_p", "e_p_tilde", "bias", "realized", "w_bound", "rhs_bound",
                   "std_error", "mean_lhs", "mean_bias"):
        got, want = getattr(ledger_j, column), np.ldexp(getattr(ledger, column), 2 * j)
        assert np.array_equal(got, want), column
    for column in ("prob_term", "z", "alpha", "theorem_ok", "corollary_ok", "wasserstein_ok"):
        assert getattr(ledger_j, column) == getattr(ledger, column), column


def _scaled_ledger(centers, x0, c, steps):
    cfg = OptimizerConfig(alpha=1.0 / math.sqrt(steps), clip=c, steps=steps, x0=x0, batch=1)
    traj = clipped_sgd(QuadraticProblem(centers), cfg)
    return traj, descent_ledger(traj, wasserstein=True)


def test_ledger_neither_symmetrizes_nor_calls_the_public_transport(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the ledger reads every column off one score pass")

    monkeypatch.setattr(noise, "symmetrize", forbidden)
    monkeypatch.setattr(diagnostics, "wasserstein_clip", forbidden)
    ledger = descent_ledger(_ledger_run(make_example1(), [1.0], steps=100), wasserstein=True)
    assert ledger.passed
    assert np.all(np.isfinite(ledger.w_bound))


def test_transport_self_distance_is_exactly_zero_on_ties():
    p = TIED.noise_residuals()
    for v in np.linspace(-3.0, 3.0, 61):
        assert wasserstein_clip([v], 1.0, p, p) == 0.0
        assert wasserstein_clip([v], 1.0, symmetrize(p), symmetrize(p)) == 0.0
    cloud = CLOUD3.noise_residuals()
    assert wasserstein_clip([0.1, 0.2, -0.3], 1.0, cloud, cloud) == 0.0


def test_dimension_mismatches_are_rejected():
    p1 = RES1
    p3 = Empirical(np.eye(3))
    calls = [
        lambda: wasserstein_clip([1.0, 2.0], 1.0, p1, symmetrize(p1)),
        lambda: expected_clipped_inner([1.0, 2.0], p1, 1.0),
        lambda: expected_clipped_gradient([1.0, 2.0], p1, 1.0),
        lambda: clipping_bias([1.0, 2.0], p1, symmetrize(p1), 1.0),
        lambda: clip_scores([1.0, 2.0, 3.0], [0.1, 0.2, 0.3], 1.0),
        lambda: expected_clipped_inner(
            [1.0, 2.0], IsotropicGaussian(1.0, 3), 1.0, stream=SeededStream(0, 0), mc_samples=10
        ),
        lambda: expected_clipped_gradient(
            [1.0, 2.0], IsotropicGaussian(1.0, 3), 1.0, stream=SeededStream(0, 0), mc_samples=10
        ),
        lambda: perturbation_gap([0.1], p3, 1.0, 2.0),
        lambda: mixture_lower_bound(
            [1.0], SphericalMixture([1.0], [[1.0, 1.0, 1.0]], [0.5]), 1.0,
            stream=SeededStream(0, 0), mc_samples=10,
        ),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"noise dim \d does not match gradient dim \d"):
            call()
    # 1-D noises are scalars for a 1-D gradient
    assert clip_scores([1.0], [0.5, -3.0], 1.0).tolist() == [1.0, -1.0]
