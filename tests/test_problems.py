import numpy as np
import pytest

from clipbias.problems import (
    QuadraticProblem,
    make_example1,
    make_example2,
    make_synthetic_mixture,
    problem_by_name,
)


def test_example1_basics():
    p = make_example1()
    assert p.n == 3 and p.dim == 1
    assert np.array_equal(p.optimum, [1.0])
    # f(1) = (16 + 16 + 64) / 6
    assert p.value([1.0]) == pytest.approx(16.0, abs=1e-12)
    assert p.value([-1.0]) == pytest.approx(18.0, abs=1e-12)
    assert np.allclose(p.full_gradient([1.0]), [0.0], atol=1e-15)
    assert np.allclose(p.full_gradient([3.0]), [2.0], atol=1e-15)


def test_example2_basics():
    p = make_example2()
    assert p.n == 2 and p.dim == 1
    assert np.array_equal(p.optimum, [0.0])
    assert np.allclose(p.full_gradient([1.5]), [1.5], atol=1e-15)


def test_per_sample_gradients_are_zero_indexed():
    p = make_example1()
    assert p.per_sample_gradient([1.0], 0) == pytest.approx(4.0)
    assert p.per_sample_gradient([1.0], 2) == pytest.approx(-8.0)
    with pytest.raises(IndexError):
        p.per_sample_gradient([1.0], 3)
    with pytest.raises(ValueError):
        p.per_sample_gradient([1.0, 2.0], 0)


def test_batch_gradients_mean_is_full_gradient():
    p = make_synthetic_mixture(seed=3, n=50, dim=4)
    x = np.linspace(-1, 1, 4)
    rows = p.batch_gradients(x)
    assert rows.shape == (50, 4)
    assert np.allclose(rows.mean(axis=0), p.full_gradient(x), atol=1e-12)
    sub = p.batch_gradients(x, idx=[0, 7, 7])
    assert np.array_equal(sub[1], sub[2])


def test_residual_model_is_x_free_and_centered():
    p = make_example1()
    res = p.noise_residuals()
    assert sorted(res.atoms[:, 0].tolist()) == [-8.0, 4.0, 4.0]
    assert np.allclose(res.weights, 1 / 3, atol=1e-15)
    assert abs(res.mean()[0]) < 1e-12
    # residual = per-sample gradient minus full gradient, at any x
    x = [0.3]
    for i in range(p.n):
        diff = p.per_sample_gradient(x, i) - p.full_gradient(x)
        assert abs(diff[0] - res.atoms[i, 0]) < 1e-12


def test_residual_second_moment():
    res = make_example1().noise_residuals()
    second = float(np.dot(res.weights, res.atoms[:, 0] ** 2))
    assert second == pytest.approx(32.0, abs=1e-12)


def test_smoothness_identity():
    p = make_synthetic_mixture(seed=1, n=20, dim=3)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y = rng.normal(size=3), rng.normal(size=3)
        lhs = np.linalg.norm(p.full_gradient(x) - p.full_gradient(y))
        assert lhs == pytest.approx(p.smoothness * np.linalg.norm(x - y), abs=1e-12)


def test_gap_to_optimum():
    p = make_example1()
    assert p.gap_to_optimum([-1.0]) == pytest.approx(2.0, abs=1e-12)
    assert p.gap_to_optimum([1.0]) == pytest.approx(0.0, abs=1e-15)


def test_centers_are_a_read_only_copy():
    # The optimum and the optimal value are computed once, with the problem,
    # so neither the caller's array nor a write can change the centers
    # under them.
    centers = np.array([-3.0, -3.0, 9.0])
    p = QuadraticProblem(centers)
    centers[2] = 0.0
    assert np.array_equal(p.optimum, [1.0])
    assert p.gap_to_optimum([1.0]) == 0.0
    for stored in (p.centers, p.optimum):
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = 5.0
    assert np.array_equal(p.centers[:, 0], [-3.0, -3.0, 9.0])


def test_synthetic_mixture_reproducible():
    a = make_synthetic_mixture(seed=9)
    b = make_synthetic_mixture(seed=9)
    c = make_synthetic_mixture(seed=10)
    assert np.array_equal(a.centers, b.centers)
    assert not np.array_equal(a.centers, c.centers)
    assert a.n == 10_000 and a.dim == 10


def test_synthetic_mixture_proportions():
    p = make_synthetic_mixture(seed=2, n=9000, proportions=[0.8, 0.1, 0.1])
    # components sit at widely separated scales; classify by norm quantile
    norms = np.linalg.norm(p.centers, axis=1)
    # the dominant component should hold roughly 80% of samples: generous 3 sd
    counts = np.sort(norms)
    split = counts[int(0.8 * 9000) - 300]
    frac = np.mean(norms <= split)
    assert 0.72 < frac < 0.88
    with pytest.raises(ValueError):
        make_synthetic_mixture(proportions=[0.5, 0.5, 0.5])


def test_json_round_trip_uniform_weights_only():
    p = make_example2()
    back = QuadraticProblem.from_json_dict(p.to_json_dict())
    assert np.array_equal(back.centers, p.centers)
    bad = p.to_json_dict()
    bad["weights"] = [0.9, 0.1]
    with pytest.raises(ValueError):
        QuadraticProblem.from_json_dict(bad)


def test_problem_registry():
    assert problem_by_name("example1").n == 3
    assert problem_by_name("example2").n == 2
    assert problem_by_name("synthetic-mixture").n == 10_000
    with pytest.raises(ValueError):
        problem_by_name("nope")
