import json
import math
import multiprocessing
import os
import warnings

import numpy as np
import pytest

from clipbias import noise
from clipbias.noise import (
    Empirical,
    IsotropicGaussian,
    SeededStream,
    SphericalMixture,
    perturb,
    prob_norm_below,
    symmetrize,
)
from clipbias.problems import make_synthetic_mixture
from oracles import ball_masses, mixture_draws, phi_cdf

RES1 = Empirical([[4.0], [4.0], [-8.0]])


def _models():
    return [
        RES1,
        Empirical([[1.0, -2.0], [0.5, 3.0]], weights=[0.25, 0.75]),
        IsotropicGaussian(1.5, dim=3),
        SphericalMixture([0.5, 0.5], [[2.0, 0.0], [-1.0, 1.0]], [0.1, 2.0]),
        perturb(RES1, 4.0),
    ]


def test_stream_reproducible_and_distinct():
    a = SeededStream(11, 0).generator().random(8)
    b = SeededStream(11, 0).generator().random(8)
    c = SeededStream(11, 1).generator().random(8)
    d = SeededStream(12, 0).generator().random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


@pytest.mark.parametrize("model", _models())
def test_sample_prefix_property(model):
    # draw i depends only on (seed, stream, i): a longer run starts with
    # exactly the shorter run
    s = SeededStream(3, 5)
    short = model.sample(SeededStream(3, 5), 40)
    long = model.sample(s, 100)
    assert np.array_equal(long[:40], short)


@pytest.mark.parametrize("model", _models())
def test_sample_generator_continuation(model):
    gen = SeededStream(9, 2).generator()
    first = model.sample(gen, 30)
    second = model.sample(gen, 70)
    whole = model.sample(SeededStream(9, 2), 100)
    assert np.array_equal(np.vstack([first, second]), whole)


@pytest.mark.parametrize(
    "model, weights, centers, scales",
    [
        (Empirical([[1.0, -2.0], [0.5, 3.0], [0.0, 1.0]], weights=[0.25, 0.5, 0.25]),
         [0.25, 0.5, 0.25], [[1.0, -2.0], [0.5, 3.0], [0.0, 1.0]], [0.0, 0.0, 0.0]),
        (perturb(RES1, 4.0), [1 / 3, 1 / 3, 1 / 3], [[4.0], [4.0], [-8.0]], [4.0, 4.0, 4.0]),
        (SphericalMixture([0.3, 0.7], [[1.0, 0.0, 2.0], [0.0, -2.0, 0.5]], [0.0, 1.5]),
         [0.3, 0.7], [[1.0, 0.0, 2.0], [0.0, -2.0, 0.5]], [0.0, 1.5]),
        (IsotropicGaussian(1.5, dim=3), [1.0], [[0.0, 0.0, 0.0]], [1.5]),
        (SphericalMixture([1.0], [[1.5, -2.0, 0.25]], [0.75]), [1.0], [[1.5, -2.0, 0.25]],
         [0.75]),
    ],
)
def test_sample_matches_the_draw_layout(model, weights, centers, scales):
    # one uniform picks the component, then dim normals when any scale is
    # positive: every model draws exactly as this hand-built mixture does.
    # A one-component model picks nothing; it multiplies by its scale and
    # adds its center, the same products and sums.
    for seed, stream, count in ((0, 0, 1), (7, 3, 257)):
        want = mixture_draws(SeededStream(seed, stream).generator(), count, weights, centers, scales)
        got = model.sample(SeededStream(seed, stream), count)
        assert got.flags.c_contiguous
        assert np.array_equal(got, want)
    # The Monte Carlo routes map new C-ordered draws, which a clip takes
    # without a layout copy, not views of the filled uniforms.
    seen = []

    def row_map(x):
        seen.append(x.flags.c_contiguous)
        return x

    mean, _ = noise._mc_moments(model, SeededStream(7, 3), 257, row_map)
    assert seen and all(seen)
    want = mixture_draws(SeededStream(7, 3).generator(), 257, weights, centers, scales)
    np.testing.assert_array_equal(mean, (-0.0 + want.sum(axis=0)) / 257)


def test_empirical_frequencies():
    model = Empirical([[1.0], [2.0], [3.0]], weights=[0.2, 0.3, 0.5])
    draws = model.sample(SeededStream(0, 0), 100_000)[:, 0]
    for atom, w in zip((1.0, 2.0, 3.0), (0.2, 0.3, 0.5)):
        frac = np.mean(draws == atom)
        assert abs(frac - w) < 0.01


def test_empirical_validation():
    with pytest.raises(ValueError):
        Empirical([[1.0]], weights=[0.5])
    with pytest.raises(ValueError):
        Empirical([[1.0], [2.0]], weights=[0.7, 0.7])
    with pytest.raises(ValueError):
        Empirical([[1.0], [2.0]], weights=[-0.2, 1.2])
    with pytest.raises(ValueError):
        Empirical([[np.inf]])
    with pytest.raises(ValueError):
        SphericalMixture([np.nan, 1.0], [[0.0], [1.0]], [1.0, 1.0])
    # every model needs at least one dimension
    for make in (lambda: Empirical(np.zeros((2, 0))), lambda: IsotropicGaussian(1.0, 0)):
        with pytest.raises(ValueError, match="non-empty"):
            make()


def test_empirical_mean():
    assert np.allclose(RES1.mean(), [0.0], atol=1e-15)
    m = Empirical([[2.0, 0.0], [0.0, 2.0]], weights=[0.75, 0.25])
    assert np.allclose(m.mean(), [1.5, 0.5], atol=1e-15)


def test_gaussian_zero_scale_is_degenerate():
    model = IsotropicGaussian(0.0, dim=4)
    draws = model.sample(SeededStream(1, 0), 10)
    assert np.array_equal(draws, np.zeros((10, 4)))


def test_gaussian_moments():
    model = IsotropicGaussian(2.0, dim=5)
    draws = model.sample(SeededStream(4, 0), 200_000)
    # mean ~ 0 and E||xi||^2 = scale^2 * d, both within 3 SE
    se_mean = 2.0 / np.sqrt(draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0)) < 3 * se_mean)
    sq = np.einsum("ij,ij->i", draws, draws)
    assert abs(sq.mean() - 4.0 * 5) < 3 * sq.std(ddof=1) / np.sqrt(len(sq))


def test_symmetrize_merges_and_pairs():
    sym = symmetrize(RES1)
    atoms = sym.atoms[:, 0].tolist()
    weights = sym.weights.tolist()
    table = dict(zip(atoms, weights))
    assert table == {4.0: 1 / 3, -4.0: 1 / 3, -8.0: 1 / 6, 8.0: 1 / 6}


def test_symmetrize_idempotent_and_exact():
    duplicated = Empirical(
        [[1.0, -0.0], [0.0, 2.0], [1.0, 0.0], [-1.0, 0.0], [0.0, -2.0]],
        [0.1, 0.2, 0.3, 0.25, 0.15],
    )
    for model in (RES1, Empirical([[1.0, 2.0], [-1.0, -2.0], [3.0, 0.0]]), duplicated):
        sym = symmetrize(model)
        assert abs(sym.weights.sum() - 1.0) < 1e-12
        again = symmetrize(sym)
        assert np.array_equal(again.atoms, sym.atoms)
        assert np.array_equal(again.weights, sym.weights)
        # every atom carries its exact negation at equal weight
        table = {a.tobytes(): w for a, w in zip(sym.atoms, sym.weights)}
        for atom, w in zip(sym.atoms, sym.weights):
            assert table[(-atom + 0.0).tobytes()] == w
    # duplicates and the -0.0 component merge, in first-encounter order
    sym = symmetrize(duplicated)
    assert sym.atoms.tolist() == [[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]]
    assert not np.any(np.signbit(sym.atoms[sym.atoms == 0.0]))
    assert sym.weights.tolist() == pytest.approx([0.325, 0.325, 0.175, 0.175], abs=1e-15)


def test_symmetrize_gaussian_passthrough():
    # a component at the origin is its own reflection
    g = IsotropicGaussian(1.0, dim=2)
    for model in (g, SphericalMixture([1.0], [[0.0]], [1.0])):
        sym = symmetrize(model)
        for name in ("weights", "centers", "scales"):
            assert np.array_equal(getattr(sym, name), getattr(model, name)), name
    # a shifted component reflects its center and keeps its scale
    sym = symmetrize(SphericalMixture([0.25, 0.75], [[1.0, 0.0], [-0.0, 0.0]], [1.0, 2.0]))
    assert type(sym) is SphericalMixture
    assert sym.centers.tolist() == [[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]]
    assert not np.any(np.signbit(sym.centers[sym.centers == 0.0]))
    assert sym.weights.tolist() == [0.125, 0.125, 0.75]
    assert sym.scales.tolist() == [1.0, 1.0, 2.0]


def test_perturb_flattens_and_zero_k_is_identity():
    mix = SphericalMixture([0.3, 0.7], [[1.0, 0.0], [0.0, -2.0]], [0.0, 12.0])
    for model in (RES1, IsotropicGaussian(12.0, dim=2), mix):
        assert perturb(model, 0.0) is model
        nested = perturb(perturb(model, 3.0), 4.0)
        # independent spherical normals add variances: hypot(hypot(s, 3), 4)
        assert np.array_equal(nested.scales, np.hypot(np.hypot(model.scales, 3.0), 4.0))
        assert np.array_equal(nested.centers, model.centers)
        assert np.array_equal(nested.weights, model.weights)
    assert np.all(perturb(perturb(RES1, 3.0), 4.0).scales == 5.0)
    assert np.all(perturb(IsotropicGaussian(12.0, dim=2), 9.0).scales == 15.0)


def test_perturb_moments():
    # point mass at mu plus k*zeta has mean mu, per-coordinate var k^2
    mu = np.array([1.0, -2.0])
    model = perturb(Empirical([mu]), 3.0)
    draws = model.sample(SeededStream(8, 0), 100_000)
    se = 3.0 / np.sqrt(draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - mu) < 3 * se)
    assert np.allclose(draws.var(axis=0), 9.0, rtol=0.05)


def test_prob_norm_below_empirical_exact():
    val, se = prob_norm_below(RES1, 5.0)
    assert (val, se) == (2 / 3, 0.0)
    # strict inequality at the boundary
    val, _ = prob_norm_below(RES1, 4.0)
    assert val == 0.0
    val, _ = prob_norm_below(RES1, 9.0)
    assert val == 1.0


def test_prob_norm_below_gaussian_matches_erf():
    val, se = prob_norm_below(IsotropicGaussian(1.0, dim=1), 0.25)
    assert se == 0.0
    assert abs(val - (2 * phi_cdf(0.25) - 1.0)) < 1e-12


def test_prob_norm_below_monotone_in_radius():
    model = IsotropicGaussian(1.0, dim=7)
    vals = [prob_norm_below(model, r)[0] for r in np.linspace(0.1, 6.0, 25)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert prob_norm_below(model, 0.0)[0] == 0.0


@pytest.mark.parametrize(
    "model",
    [
        IsotropicGaussian(1.3, dim=5),
        SphericalMixture([0.3, 0.7], [[1.0, 0.0], [0.0, -2.0]], [0.5, 1.5]),
        perturb(Empirical([[1.0, 1.0], [-2.0, 0.5]]), 2.0),
        perturb(IsotropicGaussian(0.8, dim=3), 0.6),
        perturb(SphericalMixture([0.3, 0.7], [[1.0, 0.0], [0.0, -2.0]], [0.0, 1.5]), 0.7),
    ],
)
def test_prob_norm_below_exact_vs_monte_carlo(model):
    exact, se0 = prob_norm_below(model, 2.0)
    assert se0 == 0.0
    mc, se = prob_norm_below(model, 2.0, stream=SeededStream(2, 0), mc_samples=200_000)
    assert se > 0.0
    assert abs(mc - exact) < 3 * se + 1e-9


def test_prob_norm_below_degenerate_scales():
    # zero spread: mass is all-or-nothing at the shift norm
    m = perturb(Empirical([[3.0, 4.0]]), 1e-300)
    assert prob_norm_below(m, 6.0)[0] == pytest.approx(1.0, abs=1e-12)
    assert prob_norm_below(m, 4.0)[0] == pytest.approx(0.0, abs=1e-12)
    # a huge atom: the squares of its norm overflow, the norm does not,
    # on the exact route and on the Monte Carlo one
    huge = Empirical([[1e200, 0.0]])
    for model in (huge, perturb(huge, 1.0)):
        for radius, want in ((1e300, 1.0), (0.5e200, 0.0)):
            assert prob_norm_below(model, radius)[0] == want
            mc = prob_norm_below(model, radius, stream=SeededStream(0, 0), mc_samples=100)
            assert mc == (want, 0.0)


@pytest.mark.parametrize("k", [1.0, 10.0])
def test_prob_norm_below_perturbed_cloud_matches_oracle(k):
    res = make_synthetic_mixture(0).noise_residuals()
    radii = (0.25, 2.5, 7.0)
    per_atom = [
        ball_masses(radii, math.sqrt(math.fsum(x * x for x in row)), k, res.dim)
        for row in res.atoms.tolist()
    ]
    weights = res.weights.tolist()
    model = perturb(res, k)
    for i, r in enumerate(radii):
        want = math.fsum(w * masses[i] for w, masses in zip(weights, per_atom))
        assert prob_norm_below(model, r)[0] == pytest.approx(want, rel=1e-13, abs=0.0)


def test_json_round_trip():
    model = Empirical([[1.5, -2.0], [0.25, 0.125]], weights=[0.375, 0.625])
    back = Empirical.from_json_dict(model.to_json_dict())
    assert np.array_equal(back.atoms, model.atoms)
    assert np.array_equal(back.weights, model.weights)
    with pytest.raises((ValueError, KeyError)):
        Empirical.from_json_dict({"dim": 2, "atoms": [[1.0]]})
    # the dumped text is that of the per-element float lists
    model = Empirical([[0.1, -0.0], [1 / 3, 5e-324], [-1e300, 2.0]], weights=[0.25, 0.5, 0.25])
    per_element = {
        "dim": 2,
        "atoms": [[float(x) for x in row] for row in model.atoms],
        "weights": [float(w) for w in model.weights],
    }
    assert json.dumps(model.to_json_dict()) == json.dumps(per_element)


def _norm_estimate(queue):
    model = IsotropicGaussian(1.0, 3)
    queue.put(prob_norm_below(model, 1.5, stream=SeededStream(1, 0), mc_samples=100_000))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_monte_carlo_runs_in_a_forked_child():
    # The parent's pool threads do not exist in a forked child, which must
    # make its own pool rather than queue work that never runs.
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    _norm_estimate(queue)
    want = queue.get(timeout=30)
    child = ctx.Process(target=_norm_estimate, args=(queue,))
    with warnings.catch_warnings():
        # Python 3.12 warns that forking a process with threads may deadlock
        warnings.filterwarnings("ignore", ".*multi-threaded.*fork", DeprecationWarning)
        child.start()
    try:
        got = queue.get(timeout=30)
    finally:
        child.join(30)
        if child.is_alive():
            child.kill()
    assert not child.is_alive()
    assert got == want
