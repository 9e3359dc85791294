import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from clipbias import noise as noise_mod
from clipbias.optimizers import (
    OptimizerConfig,
    clipped_sgd,
    dp_sgd,
    dp_sgd_perturbed,
    dp_step_size,
    final_iterates,
    trajectories,
)
from clipbias.privacy import PrivacyBudget
from clipbias.problems import (
    QuadraticProblem,
    make_example1,
    make_example2,
    make_synthetic_mixture,
)


def _cfg(**kw):
    base = dict(alpha=0.001, clip=1.0, steps=100, x0=[1.0])
    base.update(kw)
    return OptimizerConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(alpha=0.0)
    with pytest.raises(ValueError):
        _cfg(clip=-1.0)
    with pytest.raises(ValueError):
        _cfg(steps=0)
    with pytest.raises(ValueError):
        _cfg(batch=0)
    with pytest.raises(ValueError):
        _cfg(sigma=-0.5)
    with pytest.raises(ValueError):
        _cfg(k=-1.0)
    for name in ("alpha", "clip", "sigma", "k"):
        with pytest.raises(ValueError, match=name):
            _cfg(**{name: math.inf})
    # counts are integers, numpy's too; a fraction is refused by name
    for name, value in (("steps", 2.5), ("batch", 1.5)):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            _cfg(**{name: value})
    assert _cfg(steps=np.int64(3), batch=np.int32(1)).steps == 3


def test_clipped_sgd_rejects_noise_flags():
    with pytest.raises(ValueError):
        clipped_sgd(make_example2(), _cfg(sigma=1.0))
    with pytest.raises(ValueError):
        clipped_sgd(make_example2(), _cfg(k=1.0))
    with pytest.raises(ValueError):
        clipped_sgd(make_example2(), _cfg(x0=[1.0, 2.0]))


def test_full_batch_is_deterministic_across_seeds():
    p = make_example1()
    a = clipped_sgd(p, _cfg(steps=200, seed=0))
    b = clipped_sgd(p, _cfg(steps=200, seed=999))
    assert np.array_equal(a.iterates, b.iterates)


def test_example2_grid_is_bit_stationary():
    p = make_example2()
    for x0 in np.linspace(-2.0, 2.0, 9):
        traj = clipped_sgd(p, _cfg(steps=500, x0=[float(x0)]))
        assert np.all(traj.iterates[:, 0] == x0)


def test_example1_full_batch_drifts_to_spurious_fixed_point():
    # two of three clipped per-sample gradients saturate at +1, one at -1:
    # net drift pushes x down until 2*(x+3) balances the saturated -1,
    # i.e. to -2.5, even though the minimizer sits at +1
    p = make_example1()
    traj = clipped_sgd(p, _cfg(steps=10_000, x0=[-1.0]))
    assert abs(traj.iterates[-1, 0] - (-2.5)) <= 0.01
    assert abs(traj.final_distance() - 3.5) <= 0.02


def test_example1_from_x0_one_is_slower():
    # starting at the minimizer the drift region is wider; after the same
    # budget the iterate is still short of -2.5 (regression value)
    p = make_example1()
    traj = clipped_sgd(p, _cfg(steps=10_000, x0=[1.0]))
    assert traj.iterates[-1, 0] == pytest.approx(-2.2433, abs=5e-4)


def test_huge_clip_recovers_plain_gd():
    p = make_synthetic_mixture(seed=4, n=30, dim=3)
    traj = clipped_sgd(p, _cfg(alpha=0.5, clip=1e12, steps=200, x0=[2.0, -1.0, 0.5]))
    assert traj.final_distance() < 1e-10


def test_movement_and_clip_caps():
    p = make_example1()
    traj = clipped_sgd(p, _cfg(steps=400, batch=1, x0=[0.0], seed=7))
    steps = np.linalg.norm(np.diff(traj.iterates, axis=0), axis=1)
    assert np.all(steps <= 0.001 * 1.0 * (1 + 1e-12))
    assert np.all(np.linalg.norm(traj.clipped_means, axis=1) <= 1.0 + 1e-12)


def test_reduction_chain_is_bit_exact():
    p = make_example1()
    cfg = _cfg(steps=300, batch=2, seed=13)
    a = clipped_sgd(p, cfg)
    b = dp_sgd(p, cfg)
    c = dp_sgd_perturbed(p, cfg)
    assert np.array_equal(a.iterates, b.iterates)
    assert np.array_equal(a.iterates, c.iterates)
    # and sigma > 0 with k = 0: perturbed still reduces to dp_sgd
    cfg_noisy = _cfg(steps=300, batch=2, seed=13, sigma=0.7)
    assert np.array_equal(dp_sgd(p, cfg_noisy).iterates, dp_sgd_perturbed(p, cfg_noisy).iterates)


def test_seed_sensitivity_and_determinism():
    p = make_example2()
    cfg = _cfg(steps=200, batch=1, sigma=1.0, seed=3)
    a = dp_sgd(p, cfg)
    b = dp_sgd(p, cfg)
    c = dp_sgd(p, _cfg(steps=200, batch=1, sigma=1.0, seed=4))
    assert np.array_equal(a.iterates, b.iterates)
    assert not np.array_equal(a.iterates, c.iterates)


def test_trajectory_shapes_and_closed_forms():
    p = make_example1()
    traj = clipped_sgd(p, _cfg(steps=50, x0=[0.5]))
    assert traj.iterates.shape == (51, 1)
    assert traj.clipped_means.shape == (50, 1)
    assert traj.steps == 50
    for t in (0, 17, 50):
        x = traj.iterates[t]
        assert traj.values[t] == pytest.approx(p.value(x), abs=1e-10)
        assert np.allclose(traj.gradients[t], p.full_gradient(x), atol=1e-10)
        assert traj.distances[t] == pytest.approx(np.linalg.norm(x - p.optimum), abs=1e-12)


def test_descent_inequality_with_theorem_rate():
    # alpha = 1/sqrt(T), no added noise: the averaged realized inner product
    # stays below gap/sqrt(T) + c^2/(2 sqrt(T)) pathwise
    for p, x0 in ((make_example1(), [1.0]), (make_example2(), [1.5])):
        T = 2500
        cfg = _cfg(alpha=1 / math.sqrt(T), steps=T, batch=1, x0=x0, seed=11)
        traj = clipped_sgd(p, cfg)
        realized = np.einsum("td,td->t", traj.gradients[:-1], traj.clipped_means)
        rhs = p.gap_to_optimum(x0) / math.sqrt(T) + 1.0 / (2 * math.sqrt(T))
        assert realized.mean() <= rhs + 1e-9


def test_dp_sgd_resolves_sigma_from_budget():
    p = make_example2()
    budget = PrivacyBudget(epsilon=1.0, delta=math.exp(-1.0), n=2, T=100, m=2)
    cfg = _cfg(steps=100, sigma=None, seed=5)
    traj = dp_sgd(p, cfg, budget)
    # sigma = c * sqrt(T ln(1/delta)) / (n eps) = 10 / 2
    assert traj.sigma == pytest.approx(5.0, abs=1e-12)
    with pytest.raises(ValueError):
        dp_sgd(p, cfg)  # sigma=None and no budget to resolve it


def test_example2_noisy_runs_stay_centered():
    # zero drift region: additive noise produces a random walk around x0
    p = make_example2()
    cfg = _cfg(steps=500, sigma=1.0, x0=[1.5])
    finals = final_iterates(p, cfg, seeds=range(40))[:, 0]
    se = finals.std(ddof=1) / math.sqrt(len(finals))
    assert abs(finals.mean() - 1.5) <= 3 * se + 1e-9


def test_final_iterates_matches_single_runs():
    p = make_example1()
    cfg = _cfg(steps=120, batch=2, sigma=0.5, k=3.0, x0=[0.2], seed=0)
    batch = final_iterates(p, cfg, seeds=[4, 9, 21])
    for row, seed in zip(batch, [4, 9, 21]):
        single = dp_sgd_perturbed(p, replace(cfg, seed=seed))
        assert np.array_equal(row, single.iterates[-1])


@pytest.mark.parametrize("problem, x0", [
    (make_example1(), [0.2]),
    (make_synthetic_mixture(seed=4, n=30, dim=3), [2.0, -1.0, 0.5]),
])
@pytest.mark.parametrize("noise", [dict(k=3.0), dict(sigma=0.5), dict(batch=2, sigma=0.5, k=3.0)])
def test_final_iterates_match_single_runs_across_noise_blocks(monkeypatch, problem, x0, noise):
    # Single runs draw their noise in whole-run blocks. The ensemble draws
    # it in blocks of 7 steps here: each block's buffers are refilled, one
    # seed at a time, then scaled by k and sigma in place.
    cfg = _cfg(steps=120, x0=x0, **noise)
    seeds = [4, 9, 21]
    singles = [dp_sgd_perturbed(problem, replace(cfg, seed=s)).iterates[-1] for s in seeds]
    m = cfg.batch or problem.n
    monkeypatch.setattr(noise_mod, "_FILL_DOUBLES", 7 * len(seeds) * m * problem.dim)
    batch = final_iterates(problem, cfg, seeds)
    for row, single in zip(batch, singles):
        assert np.array_equal(row, single)


def test_final_iterates_match_single_runs_above_8192_dims():
    # numpy's einsum cuts a row of more than 8192 columns where its buffers
    # end, which moves with the rows beside it; row norms sum such rows one
    # at a time, so an ensemble's clip reads each row alone.
    problem = make_synthetic_mixture(seed=0, n=20, dim=10_000)
    cfg = _cfg(alpha=0.1, steps=5, x0=[0.0] * 10_000, batch=1, k=0.5)
    seeds = [0, 1, 2]
    batch = final_iterates(problem, cfg, seeds)
    for row, seed in zip(batch, seeds):
        assert np.array_equal(row, dp_sgd_perturbed(problem, replace(cfg, seed=seed)).iterates[-1])


class _Doubled(QuadraticProblem):
    """Per-sample gradients 2 (x - a_i): clipping them at c is twice
    clipping x - a_i at c / 2, and every factor of 2 is exact."""

    def _gradients(self, points, idx):
        return 2.0 * super()._gradients(points, idx)


@pytest.mark.parametrize("batch", [None, 2])
def test_runs_take_the_problems_gradient_rule(batch):
    # The engine reads the per-sample gradients from the problem's one rule,
    # so a subclass's rule drives every run: with gradients 2 (x - a_i) at
    # (alpha, c, sigma) the iterates are those of x - a_i at
    # (2 alpha, c / 2, sigma / 2), bit for bit.
    centers = make_synthetic_mixture(seed=4, n=30, dim=3).centers
    doubled, plain = _Doubled(centers), QuadraticProblem(centers)
    cfg = _cfg(alpha=0.01, steps=200, x0=[2.0, -1.0, 0.5], batch=batch)
    half = replace(cfg, alpha=0.02, clip=0.5)
    assert np.array_equal(clipped_sgd(doubled, cfg).iterates, clipped_sgd(plain, half).iterates)
    assert np.array_equal(final_iterates(doubled, replace(cfg, sigma=0.5), [3, 5]),
                          final_iterates(plain, replace(half, sigma=0.25), [3, 5]))
    x = np.array([0.5, 0.25, -1.0])
    assert np.array_equal(doubled.batch_gradients(x, [0, 7, 7]),
                          2.0 * plain.batch_gradients(x, [0, 7, 7]))


def test_closed_forms_make_no_pass_over_the_samples(tmp_path, monkeypatch):
    # The optimum and the optimal value are computed once, with the problem:
    # a trajectory's closed forms, its CSV and its final distance read them.
    traj = clipped_sgd(make_synthetic_mixture(seed=4, n=30, dim=3), _cfg(x0=[2.0, -1.0, 0.5]))
    want = traj.problem.closed_forms(traj.iterates)

    def no_pass(*args):
        raise AssertionError("a pass over the samples")

    monkeypatch.setattr(QuadraticProblem, "value", no_pass)
    monkeypatch.setattr(QuadraticProblem, "_gradients", no_pass)
    for got, expected in zip(traj.problem.closed_forms(traj.iterates), want):
        assert np.array_equal(got, expected)
    traj.to_csv(tmp_path / "trajectory.csv")
    assert traj.final_distance() == want[2][-1]


def test_final_iterates_memory_is_a_cache_sized_noise_block():
    # 100 seeds of 20 000 full-batch steps: each block of k * zeta holds at
    # most _FILL_DOUBLES doubles (1 MB), and the step loop's own arrays are
    # small, so the peak is about 1.6 MB.
    problem = make_example1()
    cfg = _cfg(steps=20_000, sigma=1.0, k=10.0)
    seeds = range(100)
    final_iterates(problem, replace(cfg, steps=10), seeds)  # imports scipy.special
    tracemalloc.start()
    try:
        final_iterates(problem, cfg, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("problem, x0", [
    (make_example1(), [1.0]),
    (make_example2(), [1.5]),
    (make_synthetic_mixture(), [0.0] * 10),
])
def test_trajectories_match_single_runs(problem, x0):
    cfg = _cfg(alpha=1.0 / math.sqrt(200), steps=200, x0=x0, batch=1)
    seeds = [0, 3, 7]
    runs = trajectories(problem, cfg, seeds)
    assert len(runs) == len(seeds)
    for run, seed in zip(runs, seeds):
        single = clipped_sgd(problem, replace(cfg, seed=seed))
        assert run.config == single.config
        assert run.sigma == single.sigma
        for name in ("iterates", "clipped_means", "gradients", "values", "distances"):
            assert np.array_equal(getattr(run, name), getattr(single, name)), name
    assert trajectories(problem, cfg, []) == []


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_divergence_names_step_and_seed():
    # sigma * Z overflows on some step; the run stops there and says where
    p = make_example1()
    cfg = _cfg(sigma=1e308, seed=0)
    with pytest.raises(ValueError, match=r"step 9: the iterate went non-finite for seed\(s\) \[0\]"):
        dp_sgd(p, cfg)
    assert np.all(np.isfinite(dp_sgd(p, replace(cfg, steps=8)).iterates))
    with pytest.raises(ValueError, match=r"step 9: the iterate went non-finite for seed\(s\) \[0\]"):
        final_iterates(p, cfg, seeds=[1, 0, 2])


def test_dp_step_size_examples():
    unity = PrivacyBudget(epsilon=1.0, delta=math.exp(-1.0), n=1, T=1, m=1)
    assert dp_step_size(1.0, 1, unity, 1.0) == pytest.approx(1.0, abs=1e-15)
    b10 = PrivacyBudget(epsilon=1.0, delta=math.exp(-1.0), n=10, T=1, m=10)
    assert dp_step_size(4.0, 1, b10, 1.0) == pytest.approx(0.2, abs=1e-15)
    # doubling n halves alpha; doubling c halves alpha
    b20 = PrivacyBudget(epsilon=1.0, delta=math.exp(-1.0), n=20, T=1, m=20)
    assert dp_step_size(4.0, 1, b20, 1.0) == pytest.approx(0.1, abs=1e-15)
    assert dp_step_size(4.0, 1, b10, 2.0) == pytest.approx(0.1, abs=1e-15)
    # a non-finite or out-of-range input is refused, not turned into NaN or 0
    gap, smooth, dim = "gap must be finite", "smoothness must be finite", "dim must be an integer"
    for bad, message in (
        (dict(c=math.nan), "clip threshold"), (dict(c=math.inf), "clip threshold"),
        (dict(c=0.0), "clip threshold"), (dict(gap=math.nan), gap), (dict(gap=-1.0), gap),
        (dict(smoothness=math.inf), smooth), (dict(smoothness=0.0), smooth),
        (dict(dim=0), dim), (dict(dim=1.5), dim),
    ):
        with pytest.raises(ValueError, match=message):
            dp_step_size(**(dict(gap=4.0, dim=1, budget=b10, c=1.0) | bad))


def test_trajectory_csv_layout(tmp_path):
    traj = clipped_sgd(make_example2(), _cfg(steps=3, x0=[0.7]))
    out = tmp_path / "traj.csv"
    traj.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "step,f,grad_norm,clipped_mean_norm,distance_to_opt"
    assert len(lines) == 1 + 4  # header + x_0..x_3
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[4]) == pytest.approx(0.7, abs=1e-15)
    # no clipped mean belongs to the terminal iterate
    assert lines[-1].split(",")[3] == ""
    rows = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in rows] == ["0", "1", "2", "3"]
    columns = [
        traj.values,
        np.linalg.norm(traj.gradients, axis=1),
        np.linalg.norm(traj.clipped_means, axis=1),
        traj.distances,
    ]
    for col, values in enumerate(columns, start=1):
        cells = [float(row[col]) for row in rows if row[col] != ""]
        # repr(float) parses back to the same double, bit for bit
        assert np.array(cells).tobytes() == values.tobytes()
    # Every Hessian of the 10-D mixture is I, so the gradient at x_t is
    # x_t - x* and its norm is the distance to the optimum: one norm rule
    # gives the two cells the same text on every row.
    traj = clipped_sgd(make_synthetic_mixture(), _cfg(alpha=0.015, steps=200, x0=[0.0] * 10))
    traj.to_csv(out)
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert len(rows) == 201
    assert [row[2] for row in rows] == [row[4] for row in rows]
