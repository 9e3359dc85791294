import numpy as np
import pytest

from clipbias.noise import symmetrize
from clipbias.probes import (
    Histogram,
    ProjectionProbe,
    cosine_histogram,
    gradient_ensemble_stats,
    project2d,
    symmetry_score,
)
from clipbias.problems import make_example1, make_example2


def test_probe_reproducible_and_shaped():
    a = ProjectionProbe.random(6, seed=5)
    b = ProjectionProbe.random(6, seed=5)
    c = ProjectionProbe.random(6, seed=6)
    assert a.matrix.shape == (6, 2)
    assert np.array_equal(a.matrix, b.matrix)
    assert not np.array_equal(a.matrix, c.matrix)


def test_project2d_basics():
    probe = ProjectionProbe.random(3, seed=1)
    pts = project2d(np.zeros((4, 3)), probe)
    assert np.array_equal(pts, np.zeros((4, 2)))
    g = np.array([[1.0, -2.0, 0.5]])
    plus = project2d(g, probe)
    minus = project2d(-g, probe)
    assert np.allclose(plus, -minus, atol=1e-15)
    with pytest.raises(ValueError):
        project2d(np.zeros((2, 4)), probe)


def test_project2d_identity_probe():
    eye = ProjectionProbe(matrix=np.eye(2))
    pts = project2d(np.array([[3.0, -1.0], [0.5, 2.0]]), eye)
    assert np.array_equal(pts, [[3.0, -1.0], [0.5, 2.0]])


def test_symmetry_score_zero_for_exact_mirror():
    rng = np.random.default_rng(2)
    half = rng.normal(size=(300, 2))
    cloud = np.vstack([half, -half])
    for bins in (10, 50):
        assert symmetry_score(cloud, bins=bins) == 0.0


def test_symmetry_score_one_for_disjoint_cloud():
    pts = np.abs(np.random.default_rng(3).normal(size=(200, 2))) + 0.5
    score = symmetry_score(pts)
    assert score > 0.95


def test_no_bins_are_refused():
    # No bins would histogram nothing: a disjoint cloud would score a
    # perfect 0.0, and every histogram would be empty.
    pts = np.abs(np.random.default_rng(3).normal(size=(200, 2))) + 0.5
    rows = np.array([[1.0, 0.5], [-0.5, 2.0]])
    for bins in (0, -3):
        with pytest.raises(ValueError, match="bins"):
            symmetry_score(pts, bins=bins)
        with pytest.raises(ValueError, match="bins"):
            Histogram.from_values(pts[:, 0], bins=bins)
        with pytest.raises(ValueError, match="bins"):
            cosine_histogram(rows, [1.0, 1.0], bins=bins)
        with pytest.raises(ValueError, match="bins"):
            gradient_ensemble_stats(rows, [1.0, 1.0], 1.0, bins=bins)


def test_symmetry_score_range_and_negation_invariance():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(500, 2)) + 0.3
    s = symmetry_score(pts)
    assert 0.0 <= s <= 1.0
    assert symmetry_score(-pts) == pytest.approx(s, abs=1e-15)


def test_symmetry_score_decreases_with_sample_size():
    rng = np.random.default_rng(5)
    small = symmetry_score(rng.normal(size=(100, 2)), bins=8)
    big = symmetry_score(rng.normal(size=(10_000, 2)), bins=8)
    assert big < small


def test_symmetry_score_mean_mode():
    rng = np.random.default_rng(6)
    half = rng.normal(size=(400, 2))
    shifted = np.vstack([half, -half]) + 7.0  # symmetric about (7, 7), not origin
    assert symmetry_score(shifted, mode="mean") == 0.0
    assert symmetry_score(shifted, mode="origin") > 0.5
    with pytest.raises(ValueError):
        symmetry_score(shifted, mode="other")
    with pytest.raises(ValueError):
        symmetry_score(shifted[:1])


def test_projected_symmetrized_ensemble_scores_zero():
    # replicate atoms in proportion to weight: the multiset is exactly its
    # own negation, and linear projection preserves that
    sym = symmetrize(make_example1().noise_residuals())
    reps = np.round(sym.weights * 6).astype(int)  # weights are sixths here
    ensemble = np.repeat(sym.atoms, reps, axis=0)
    assert np.array_equal(ensemble.sum(axis=0), [0.0])
    probe = ProjectionProbe.random(1, seed=9)
    pts = project2d(ensemble, probe)
    assert symmetry_score(pts, bins=64) == 0.0
    assert symmetry_score(pts, bins=7) == 0.0


def test_histogram_totals_and_csv(tmp_path):
    h = Histogram.from_values(np.array([0.1, 0.2, 0.9]), bins=4)
    assert h.total == 3
    out = tmp_path / "h.csv"
    h.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    assert len(lines) == 5
    assert sum(int(l.split(",")[2]) for l in lines[1:]) == 3


def test_cosine_histogram_example2():
    # at x=1 the two per-sample gradients are 4 and -2: cosines +1 and -1
    p = make_example2()
    rows = p.batch_gradients([1.0])
    h = cosine_histogram(rows, p.full_gradient([1.0]), bins=10)
    assert h.total == 2
    assert h.counts[0] == 1 and h.counts[-1] == 1
    assert h.edges[0] == -1.0 and h.edges[-1] == 1.0
    with pytest.raises(ValueError):
        cosine_histogram(rows, np.zeros(1))


def test_cosine_histogram_identical_samples():
    ref = np.array([2.0, 1.0])
    rows = np.tile(ref, (5, 1))
    h = cosine_histogram(rows, ref, bins=20)
    assert h.counts[-1] == 5


def test_ensemble_stats_cross_checks():
    p = make_example1()
    x = np.array([0.5])
    rows = p.batch_gradients(x)
    stats = gradient_ensemble_stats(rows, p.full_gradient(x), c=1.0)
    # mean inner product against the reference is ||grad||^2 exactly
    grad_sq = float(np.dot(p.full_gradient(x), p.full_gradient(x)))
    assert stats.mean_inner == pytest.approx(grad_sq, abs=1e-10)
    assert stats.count == 3
    # noise-below-quarter-clip fraction equals the exact residual-model mass
    from clipbias.noise import prob_norm_below

    want, _ = prob_norm_below(p.noise_residuals(), 0.25)
    assert stats.fraction_noise_below_quarter_clip == want
    for h in stats.histograms().values():
        assert h.total == 3


def test_ensemble_stats_single_sample_degenerate():
    ref = np.array([1.5, 0.0])
    stats = gradient_ensemble_stats(ref[None, :], ref, c=1.0)
    assert stats.grad_norm.total == 1
    assert stats.noise_norm.counts.argmax() >= 0  # zero-width data still bins
    assert stats.mean_inner == pytest.approx(2.25, abs=1e-12)


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_probes_take_tiny_and_huge_rows(scale):
    # The norms and cosines of rows whose squares underflow or overflow
    # come from their power-of-two rescale, so nothing warns (the suite
    # runs with warnings as errors), no row reads as zero, and rescaling
    # the rows by a power of two keeps every cosine count.
    rows = np.array([[scale, 0.0], [1.0, 1.0], [-2.0, 0.5], [0.25, -3.0]])
    ref = np.array([1.0, 0.0])
    counts = cosine_histogram(rows, ref, bins=10).counts
    assert counts.sum() == 4 and counts[-1] >= 1
    for j in (-300, 300):
        assert np.array_equal(cosine_histogram(np.ldexp(rows, j), ref, bins=10).counts, counts)
    stats = gradient_ensemble_stats(rows, ref, c=1.0)
    assert stats.grad_norm.edges[-1] > stats.grad_norm.edges[0]
    assert all(h.total == 4 for h in stats.histograms().values())
