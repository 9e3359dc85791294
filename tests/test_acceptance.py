"""End-to-end acceptance checks.

One test per numbered claim the artifact must support, each printing a
detail line (visible with ``pytest -rA`` or on failure).  Runtime budgets
are asserted where a claim carries one.  Reference table cells are stated
from the closed forms they tabulate, at three significant figures, and each
cell is checked against the independent oracles in ``tests/oracles.py``
before the package is compared with it; the erratum listing the published
cells that were corrected is kept in the README.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from clipbias.cli import main as cli_main
from clipbias.diagnostics import (
    clip_scores,
    clipping_bias,
    descent_ledger,
    expected_clipped_gradient,
    expected_clipped_inner,
    perturbation_gap,
    symmetric_lower_bound,
    wasserstein_clip,
)
from clipbias.noise import Empirical, IsotropicGaussian, SeededStream, perturb, symmetrize
from clipbias.optimizers import (
    OptimizerConfig,
    clipped_sgd,
    final_iterates,
    trajectories,
)
from clipbias.problems import make_example1, make_example2, make_synthetic_mixture
from oracles import censored_mean_quadrature, phi_cdf, transport_cost_lp


def _detail(num, text):
    print(f"criterion {num}: {text}")


def _random_empirical(rng, dim, max_atoms=8, span=4.0):
    count = int(rng.integers(1, max_atoms + 1))
    atoms = rng.normal(size=(count, dim)) * span
    w = rng.uniform(0.05, 1.0, size=count)
    return Empirical(atoms, weights=w / w.sum())


def test_criterion_01_example1_divergence():
    t0 = time.perf_counter()
    p = make_example1()
    vec, se = expected_clipped_gradient(p.full_gradient([1.0]), p.noise_residuals(), 1.0)
    assert np.all(se == 0.0)
    assert abs(vec[0] - 1 / 3) <= 1e-12

    # start on the near side of the saturated-drift plateau so the spurious
    # fixed point is reached inside the step budget; the slower start at the
    # minimizer itself is pinned as a regression in test_optimizers
    cfg = OptimizerConfig(alpha=0.001, clip=1.0, steps=10_000, x0=[-1.0])
    traj = clipped_sgd(p, cfg)
    final = float(traj.iterates[-1, 0])
    elapsed = time.perf_counter() - t0
    _detail(1, f"E[clip] = {vec[0]:.15f}, x_T = {final:.6f} (target -2.5), {elapsed:.2f}s")
    assert abs(final - (-2.5)) <= 0.01
    assert abs(final - 1.0) > 3.0  # diverged from the true minimizer
    assert elapsed < 1.0


def test_criterion_02_example2_stationarity():
    t0 = time.perf_counter()
    p = make_example2()
    res = p.noise_residuals()
    for x in np.linspace(-2.0, 2.0, 41):
        vec, _ = expected_clipped_gradient(p.full_gradient([float(x)]), res, 1.0)
        # saturated atoms land at +-c up to one rounding of the rescale, so
        # the exact two-atom sum sits within an ulp of zero
        assert abs(vec[0]) <= 1e-12
    for x0 in (-2.0, -0.7, 0.0, 1.1, 2.0):
        traj = clipped_sgd(p, OptimizerConfig(alpha=0.001, clip=1.0, steps=2000, x0=[x0]))
        assert np.all(traj.iterates[:, 0] == x0)
    elapsed = time.perf_counter() - t0
    _detail(2, f"41 grid points exactly zero, 5 starts bit-stationary, {elapsed:.2f}s")
    assert elapsed < 1.0


def test_criterion_03_lower_bound_table():
    norms = [0.05, 0.1, 1.0, 2.0, 10.0, 100.0]
    ref_estimates = [1.71e-3, 6.82e-3, 0.610, 1.83, 10.0, 100.0]
    ref_bounds = [4.94e-4, 1.97e-3, 0.148, 0.296, 1.48, 14.8]

    # the table must state the closed forms it tabulates: for N(0, 1) noise,
    # c = 1 and z = 0.25, E[s] = y * E[clip(y + xi, 1)] and the bound is
    # y * min(y, (1 - z)c) * P(|xi| < zc)
    c, z = 1.0, 0.25
    ball = 2.0 * phi_cdf(z * c) - 1.0
    failures = []
    bad_cells = set()
    for y, ref_e, ref_b in zip(norms, ref_estimates, ref_bounds):
        cells = (
            ("estimate", ref_e, y * censored_mean_quadrature(y, 1.0, c)),
            ("bound", ref_b, y * min(y, (1.0 - z) * c) * ball),
        )
        for name, ref, exact in cells:
            rounded = float(f"{exact:.3g}")
            if ref != rounded:
                bad_cells.add((name, y))
                failures.append(
                    f"table disagrees with oracle: {name}[{y}] stated {ref:g}, "
                    f"closed form {exact:.6g} ({rounded:g} at 3 s.f.)"
                )

    t0 = time.perf_counter()
    model = IsotropicGaussian(1.0, dim=1)
    for i, (y, ref_e, ref_b) in enumerate(zip(norms, ref_estimates, ref_bounds)):
        report = symmetric_lower_bound(
            [y], model, c, z=z, stream=SeededStream(2026, i), mc_samples=100_000
        )
        # a cell that failed the oracle check above says nothing about the program
        tol_e = max(0.05 * abs(ref_e), 3 * report.std_error)
        if ("estimate", y) not in bad_cells and abs(report.estimate - ref_e) > tol_e:
            failures.append(
                f"program disagrees with oracle: estimate[{y}] = {report.estimate:.6g}, "
                f"table {ref_e:g}, tol {tol_e:.2g}"
            )
        tol_b = 0.01 * abs(ref_b)
        if ("bound", y) not in bad_cells and abs(report.lower_bound - ref_b) > tol_b:
            failures.append(
                f"program disagrees with oracle: bound[{y}] = {report.lower_bound:.8g}, "
                f"table {ref_b:g} (1% closed-form)"
            )
    elapsed = time.perf_counter() - t0
    _detail(3, f"{len(failures)} cell(s) off: " + ("; ".join(failures) or "none") + f", {elapsed:.2f}s")
    assert elapsed < 10.0
    assert not failures, "; ".join(failures)


def test_criterion_04_perturbed_point_mass_table():
    t0 = time.perf_counter()
    refs = {
        (1, 1.0): 10.0, (10, 1.0): 9.572, (100, 1.0): 7.077, (1000, 1.0): 3.015,
        (1, 10.0): 6.788, (10, 10.0): 2.961, (100, 10.0): 0.992, (1000, 10.0): 0.316,
        (1, 100.0): 0.758, (10, 100.0): 0.316, (100, 100.0): 0.098, (1000, 100.0): 0.032,
    }
    failures = []
    for i, ((d, k), ref) in enumerate(sorted(refs.items())):
        v = np.zeros(d)
        v[0] = 10.0
        model = perturb(Empirical(np.zeros((1, d))), k)
        est, se = expected_clipped_inner(
            v, model, 1.0, stream=SeededStream(0, i), mc_samples=100_000
        )
        tol = max(0.05 * abs(ref), 3 * se)
        if abs(est - ref) > tol:
            failures.append(f"d={d} k={k}: {est:.4f} vs {ref} (tol {tol:.3g})")
    elapsed = time.perf_counter() - t0
    _detail(4, f"12 cells, failures: {failures or 'none'}, {elapsed:.1f}s")
    assert not failures, "; ".join(failures)
    assert elapsed < 300.0


def test_criterion_05_symmetric_dominance_exact():
    rng = np.random.default_rng(505)
    worst = np.inf
    for _ in range(100):
        dim = int(rng.integers(1, 21))
        model = symmetrize(_random_empirical(rng, dim, max_atoms=6))
        v = rng.normal(size=dim) * float(rng.uniform(0.05, 3.0))
        c = float(rng.uniform(0.2, 3.0))
        report = symmetric_lower_bound(v, model, c)  # raises on violation
        assert report.std_error == 0.0
        assert report.margin >= -1e-12
        worst = min(worst, report.margin)
    _detail(5, f"100 symmetric models dominated, worst margin {worst:.3e}")


def test_criterion_06_decomposition_and_bias_bound():
    rng = np.random.default_rng(606)
    for _ in range(100):
        dim = int(rng.integers(1, 6))
        p = _random_empirical(rng, dim)
        q = _random_empirical(rng, dim)
        v = rng.normal(size=dim)
        c = float(rng.uniform(0.2, 3.0))
        ep, _ = expected_clipped_inner(v, p, c)
        eq, _ = expected_clipped_inner(v, q, c)
        assert ep == pytest.approx(eq + clipping_bias(v, p, q, c), abs=1e-10)
        sym = symmetrize(p)
        e_sym, _ = expected_clipped_inner(v, sym, c)
        b = clipping_bias(v, p, sym, c)
        assert ep == pytest.approx(e_sym + b, abs=1e-10)
        assert -b <= wasserstein_clip(v, c, sym, p) + 1e-10
    _detail(6, "decomposition exact and -bias within the transport bound on 100 pairs")


def test_criterion_07_wasserstein_solver_vs_oracle():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(1, 5))
        p = _random_empirical(rng, dim, max_atoms=8)
        q = _random_empirical(rng, dim, max_atoms=8)
        v = rng.normal(size=dim)
        c = float(rng.uniform(0.2, 3.0))
        got = wasserstein_clip(v, c, p, q)
        sa = clip_scores(np.asarray(v, dtype=float), p.atoms, c)
        sb = clip_scores(np.asarray(v, dtype=float), q.atoms, c)
        want = transport_cost_lp(sa, p.weights, sb, q.weights)
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-9
        assert wasserstein_clip(v, c, p, p) == 0.0
        nv = float(np.linalg.norm(v))
        # the uniform cap belongs to a distribution paired with its
        # symmetrization; two arbitrary distributions can use twice that
        assert wasserstein_clip(v, c, p, symmetrize(p)) <= c * nv + 1e-9
        assert got <= 2 * c * nv + 1e-9
    _detail(7, f"200 instances match the LP oracle, worst gap {worst:.2e}")


def test_criterion_08_norm_and_cosine_lemmas():
    rng = np.random.default_rng(808)
    checked = 0
    for dim in (1, 2, 5, 17, 50):
        g = rng.normal(size=(2000, dim)) * rng.lognormal(size=(2000, 1))
        xi = rng.normal(size=(2000, dim)) * rng.lognormal(size=(2000, 1))
        ng = np.linalg.norm(g, axis=1)
        plus = g + xi
        minus = g - xi
        nplus = np.linalg.norm(plus, axis=1)
        nminus = np.linalg.norm(minus, axis=1)
        ok = (ng > 0) & (nplus > 0) & (nminus > 0)
        cos_sum = (
            np.einsum("ij,ij->i", g[ok], plus[ok]) / (ng[ok] * nplus[ok])
            + np.einsum("ij,ij->i", g[ok], minus[ok]) / (ng[ok] * nminus[ok])
        )
        assert np.all(cos_sum >= -1e-10)
        inner = np.einsum("ij,ij->i", g, xi)
        aligned = inner >= 0
        assert np.all(nplus[aligned] >= nminus[aligned] - 1e-10)
        assert np.all(nminus[~aligned] >= nplus[~aligned] - 1e-10)
        checked += int(ok.sum())
    _detail(8, f"{checked} draws, zero violations at 1e-10 slack")
    assert checked >= 10_000


def test_criterion_09_descent_ledger_over_seeds():
    T = 10_000
    cases = [
        (make_example1(), [1.0]),
        (make_example2(), [1.5]),
        (make_synthetic_mixture(), [0.0] * 10),
    ]
    lines = []
    for problem, x0 in cases:
        margins = []
        cfg = OptimizerConfig(alpha=1.0 / math.sqrt(T), clip=1.0, steps=T, x0=x0, batch=1)
        # one lockstep engine call records all ten clipped SGD runs
        for seed, traj in enumerate(trajectories(problem, cfg, range(10))):
            ledger = descent_ledger(traj)
            assert ledger.theorem_ok, f"{problem!r} seed {seed}"
            assert ledger.corollary_ok, f"{problem!r} seed {seed}"
            margins.append(ledger.rhs_bound - (ledger.mean_lhs + ledger.mean_bias))
        lines.append(f"min margin {min(margins):.4f} over 10 seeds")
    _detail(9, "; ".join(lines))


def test_criterion_10_perturbation_restores_convergence():
    p = make_example1()
    base = dict(alpha=0.001, clip=1.0, steps=20_000, x0=[1.0], batch=None, sigma=1.0)
    plain = final_iterates(p, OptimizerConfig(k=0.0, **base), seeds=range(100))
    fixed = final_iterates(p, OptimizerConfig(k=10.0, **base), seeds=range(100))
    dist_plain = float(np.mean(np.abs(plain[:, 0] - 1.0)))
    dist_fixed = float(np.mean(np.abs(fixed[:, 0] - 1.0)))
    assert dist_plain >= 3.0
    assert dist_fixed <= 0.5

    res = p.noise_residuals()
    mags = [abs(perturbation_gap([0.1], res, 1.0, k).margin) for k in (2.0, 4.0, 8.0, 16.0)]
    assert all(b < a for a, b in zip(mags, mags[1:]))
    ratio_a = mags[1] / mags[2]
    ratio_b = mags[2] / mags[3]
    _detail(
        10,
        f"mean |x_T - 1|: {dist_plain:.3f} (k=0) vs {dist_fixed:.3f} (k=10); "
        f"gap shrink ratios {ratio_a:.2f}, {ratio_b:.2f}",
    )
    assert ratio_a >= 3.0
    assert ratio_b >= 3.0


def test_criterion_11_positive_skew_bias_sign():
    rng = np.random.default_rng(1111)
    worst = np.inf
    for _ in range(100):
        dim = int(rng.integers(1, 7))
        v = rng.normal(size=dim)
        while np.linalg.norm(v) == 0:
            v = rng.normal(size=dim)
        count = int(rng.integers(1, 6))
        atoms, weights = [], []
        for _ in range(count):
            a = rng.normal(size=dim) * 3.0
            if float(a @ v) < 0:
                a = -a
            hi, lo = sorted(rng.uniform(0.05, 1.0, size=2), reverse=True)
            atoms.extend([a, -a])
            weights.extend([hi, lo])  # more mass on the aligned side
        weights = np.asarray(weights)
        p = Empirical(atoms, weights=weights / weights.sum())
        c = float(rng.uniform(0.2, 3.0))
        b = clipping_bias(v, p, symmetrize(p), c)
        worst = min(worst, b)
        assert b >= -1e-12
    _detail(11, f"100 skewed constructions, smallest bias {worst:.3e}")


def test_criterion_12_cli_replay_determinism(tmp_path):
    def run(*argv):
        assert cli_main([str(a) for a in argv]) == 0

    commands = [
        ("examples", "--which", "2", "--steps", "300"),
        ("examples", "--which", "1", "--steps", "200", "--k", "2.0"),
        ("table1", "--dims", "1,10", "--ks", "1,10", "--samples", "20000"),
        ("table2", "--norms", "0.1,1,2", "--samples", "5000"),
        ("diagnose", "--problem", "example1", "--steps", "128", "--probes", "2"),
        ("calibrate", "--epsilon", "1", "--delta", "0.1", "--n", "100", "--T", "10",
         "--m", "10"),
    ]
    compared = 0
    for idx, args in enumerate(commands):
        a = tmp_path / f"run{idx}a"
        b = tmp_path / f"run{idx}b"
        run(*args, "--out", a)
        run(*args, "--out", b)
        names_a = sorted(f.name for f in a.iterdir())
        assert names_a == sorted(f.name for f in b.iterdir())
        for name in names_a:
            if name in ("metadata.json", "manifest.json"):
                continue  # timestamps live here (directly or via checksum)
            assert (a / name).read_bytes() == (b / name).read_bytes(), f"{args[0]}/{name}"
            compared += 1
    _detail(12, f"{compared} data files byte-identical across re-runs")
    assert compared >= 10
