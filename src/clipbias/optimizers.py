"""Clipped SGD, DP-SGD, and the pre-clipping perturbation variant.

One engine implements the update rule

    x_{t+1} = x_t - alpha * ( (1/m) sum_i clip(grad_i + k*zeta_i, c) + sigma*Z_t )

for R seeds in lockstep; a single run is its R = 1 case. Per-sample
gradients come from uniform-with-replacement subsampling
(deterministic full passes when the batch covers the dataset), with
optional per-sample perturbation noise k*zeta, and optional additive
Gaussian noise sigma*Z. The three noise sources live on separate
substreams of the run seed (0: subsampling, 1: perturbation, 2:
additive noise), so turning one source off leaves the others bit
identical: dp_sgd_perturbed with k=0 replays dp_sgd exactly, and
dp_sgd with sigma=0 replays clipped_sgd exactly.

Subsample indices are floor(u * n) of raw stream uniforms rather than
rejection-sampled integers, keeping draw i a pure function of the
stream position (the modulo bias is ~n * 2^-53).
"""

from dataclasses import dataclass, replace

import numpy as np

from . import noise as noise_mod
from ._files import write_csv
from .noise import SeededStream, normals_from_uniforms
from .privacy import calibrate_sigma
from .vectors import as_vector, clip_batch

__all__ = [
    "OptimizerConfig",
    "Trajectory",
    "clipped_sgd",
    "dp_sgd",
    "dp_sgd_perturbed",
    "dp_step_size",
    "final_iterates",
    "trajectories",
]

_SUBSAMPLE, _PERTURB, _ADDITIVE = 0, 1, 2


@dataclass(frozen=True)
class OptimizerConfig:
    """Run parameters shared by all optimizer variants.

    Args:
      alpha: step size, > 0.
      clip: per-sample clip threshold c, > 0.
      steps: number of iterations T, >= 1.
      x0: starting point.
      batch: subsample size m; None means a deterministic full pass.
      sigma: additive noise scale; None defers to a privacy budget.
      k: pre-clipping perturbation scale, >= 0.
      seed: master seed for the run's noise substreams.
    """

    alpha: float
    clip: float
    steps: int
    x0: tuple
    batch: int = None
    sigma: float = 0.0
    k: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "x0", tuple(float(v) for v in np.atleast_1d(self.x0)))
        if not 0.0 < self.alpha < np.inf:
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        if not 0.0 < self.clip < np.inf:
            raise ValueError(f"clip must be finite and > 0, got {self.clip}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.batch is not None and self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if self.sigma is not None and not 0.0 <= self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        if not 0.0 <= self.k < np.inf:
            raise ValueError(f"k must be finite and >= 0, got {self.k}")


@dataclass
class Trajectory:
    """Record of one optimizer run.

    ``iterates`` holds x_0..x_T; ``clipped_means`` holds the realized
    clipped gradient means g_1..g_T (additive noise excluded). Those two
    are all a run keeps: ``gradients``/``values`` (the true gradient and
    objective at every iterate) and ``distances`` (distance to the
    optimum) are worked out from the iterates by
    ``problem.closed_forms`` on each access, with the same bits each time.
    """

    problem: object
    config: OptimizerConfig
    sigma: float
    iterates: np.ndarray
    clipped_means: np.ndarray

    @property
    def steps(self):
        return self.clipped_means.shape[0]

    @property
    def gradients(self):
        return self.problem.closed_forms(self.iterates)[0]

    @property
    def values(self):
        return self.problem.closed_forms(self.iterates)[1]

    @property
    def distances(self):
        return self.problem.closed_forms(self.iterates)[2]

    def final_distance(self):
        return float(self.distances[-1])

    def to_csv(self, path):
        """One row per iterate; the clipped-mean column on row t is the
        mean applied when leaving x_t (blank on the final row)."""
        gradients, values, distances = self.problem.closed_forms(self.iterates)
        write_csv(path, ["step", "f", "grad_norm", "clipped_mean_norm", "distance_to_opt"], [
            np.arange(self.steps + 1),
            values,
            np.linalg.norm(gradients, axis=1),
            np.append(np.linalg.norm(self.clipped_means, axis=1), np.nan),
            distances,
        ])


def clipped_sgd(problem, config):
    """Clipped SGD without additive or pre-clipping noise."""
    if config.sigma not in (None, 0.0):
        raise ValueError("clipped_sgd requires sigma = 0; use dp_sgd")
    if config.k != 0.0:
        raise ValueError("clipped_sgd requires k = 0; use dp_sgd_perturbed")
    return _single_run(problem, config, sigma=0.0, k=0.0)


def dp_sgd(problem, config, budget=None):
    """Clipped SGD plus additive Gaussian noise sigma * Z_t.

    ``sigma`` comes from the config, or from ``calibrate_sigma(budget,
    config.clip)`` when the config leaves it as None.
    """
    if config.k != 0.0:
        raise ValueError("dp_sgd requires k = 0; use dp_sgd_perturbed")
    return _single_run(problem, config, sigma=_resolve_sigma(config, budget), k=0.0)


def dp_sgd_perturbed(problem, config, budget=None):
    """DP-SGD with fresh per-sample noise k * zeta added before clipping."""
    return _single_run(problem, config, sigma=_resolve_sigma(config, budget), k=config.k)


def final_iterates(problem, config, seeds, budget=None):
    """Final x_T of dp_sgd_perturbed for each seed, shape (R, dim).

    All seeds step together through the engine, with nothing recorded,
    so row r is bit-identical to the last iterate of a single run with
    ``seed = seeds[r]``.
    """
    sigma = _resolve_sigma(config, budget)
    seeds = list(seeds)
    if not seeds:
        return np.empty((0, problem.dim))
    return _engine(problem, config, sigma, config.k, seeds, record=False)[0]


def trajectories(problem, config, seeds):
    """One Trajectory of dp_sgd_perturbed per seed, the recording twin of
    final_iterates.

    All seeds step together through one engine call, so trajectory r is
    bit-identical to a single run with ``seed = seeds[r]``, whose config
    it carries.
    """
    return _recorded_runs(problem, config, _resolve_sigma(config, None), config.k, list(seeds))


def _resolve_sigma(config, budget):
    if config.sigma is not None:
        return float(config.sigma)
    if budget is None:
        raise ValueError("config.sigma is None and no privacy budget was given")
    return calibrate_sigma(budget, config.clip)


def dp_step_size(gap, dim, budget, c, smoothness=1.0):
    """Step size sqrt(gap * dim * ln(1/delta)) / (n * eps * c * sqrt(smoothness))."""
    gap = float(gap)
    c = float(c)
    if gap < 0.0:
        raise ValueError(f"optimality gap must be >= 0, got {gap}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if c <= 0.0 or smoothness <= 0.0:
        raise ValueError("c and smoothness must be > 0")
    num = np.sqrt(gap * dim * np.log(1.0 / budget.delta))
    return float(num / (budget.n * budget.epsilon * c * np.sqrt(smoothness)))


def _single_run(problem, config, sigma, k):
    return _recorded_runs(problem, config, sigma, k, [config.seed])[0]


def _recorded_runs(problem, config, sigma, k, seeds):
    if not seeds:
        return []
    _, xs, gms = _engine(problem, config, sigma, k, seeds, record=True)
    runs = []
    for r, seed in enumerate(seeds):
        runs.append(Trajectory(
            problem, replace(config, seed=seed), sigma,
            np.ascontiguousarray(xs[:, r]), np.ascontiguousarray(gms[:, r]),
        ))
    return runs


def _engine(problem, config, sigma, k, seeds, record):
    """Run the update rule for every seed in lockstep.

    Noise is pre-drawn in blocks of steps from each seed's substreams,
    in the order a step-by-step draw would take it, so no bit depends on
    the block size; a block holds at most ``_FILL_DOUBLES`` doubles of
    noise, so the step loop reads it from cache. Each step reduces over
    the same axes for every R, and every row norm reads its row alone, so
    a seed's path does not depend on which other seeds share the run.
    Returns the final iterates (R, d) and, with ``record``, every iterate
    (T + 1, R, d) and clipped mean (T, R, d); otherwise those two are None.
    """
    R = len(seeds)
    T = config.steps
    d = problem.dim
    n = problem.n
    m = n if config.batch is None else int(config.batch)
    if m > n:
        raise ValueError(f"batch {m} exceeds dataset size {n}")
    subsample = m < n

    X = np.tile(as_vector(config.x0), (R, 1))
    if X.shape[1] != d:
        raise ValueError(f"x0 dim {X.shape[1]} does not match problem dim {d}")
    idx_gens = [SeededStream(s, _SUBSAMPLE).generator() for s in seeds] if subsample else None
    pert_gens = [SeededStream(s, _PERTURB).generator() for s in seeds] if k > 0.0 else None
    dp_gens = [SeededStream(s, _ADDITIVE).generator() for s in seeds] if sigma > 0.0 else None
    xs = gms = None
    if record:
        xs = np.empty((T + 1, R, d))
        xs[0] = X
        gms = np.empty((T, R, d))
    centers = problem.centers

    block = max(1, noise_mod._FILL_DOUBLES // max(1, R * m * d))
    # Each block's draws go into these buffers, one seed's rows at a time,
    # and are mapped there once for all seeds: subsample indices, k * zeta
    # and sigma * Z.
    us = np.empty((R, min(block, T), m)) if subsample else None
    zetas = np.empty((R, min(block, T), m, d)) if k > 0.0 else None
    Zs = np.empty((R, min(block, T), d)) if sigma > 0.0 else None
    for lo in range(0, T, block):
        B = min(block, T - lo)
        if subsample:
            u = _uniforms(idx_gens, us[:, :B])
            idx = np.minimum((u * n).astype(np.intp), n - 1)  # (R, B, m)
        if k > 0.0:
            zeta = _normals(pert_gens, zetas[:, :B])
            zeta *= k
        if sigma > 0.0:
            Z = _normals(dp_gens, Zs[:, :B])
            Z *= sigma
        for b in range(B):
            t = lo + b
            if subsample:
                grads = X[:, None, :] - centers[idx[:, b, :]]
            else:
                grads = X[:, None, :] - centers[None, :, :]
            if k > 0.0:
                grads = grads + zeta[:, b]
            try:
                clipped = clip_batch(grads.reshape(R * m, d), config.clip)
            except ValueError:
                # clip_batch rejects non-finite rows: x_t, or a gradient
                # built from a finite x_t, left the doubles.
                if np.all(np.isfinite(X)):
                    raise _diverged(t + 1, "per-sample gradients", grads, seeds) from None
                raise _diverged(t, "the iterate", X, seeds) from None
            g = clipped.reshape(R, m, d).sum(axis=1) / m  # numpy's mean, without its wrapper
            if record:
                gms[t] = g
            if sigma > 0.0:
                g = g + Z[:, b]
            X = X - config.alpha * g
            if record:
                xs[t + 1] = X
    if not np.all(np.isfinite(X)):
        raise _diverged(T, "the iterate", X, seeds)
    return X, xs, gms


def _uniforms(gens, out):
    """Uniforms from each seed's generator into its row of ``out``."""
    for g, rows in zip(gens, out):
        g.random(out=rows)
    return out


def _normals(gens, out):
    """Standard normals from each seed's generator into its row of ``out``."""
    return normals_from_uniforms(_uniforms(gens, out))


def _diverged(step, what, values, seeds):
    finite = np.isfinite(values).reshape(len(seeds), -1).all(axis=1)
    bad = [seeds[r] for r in np.flatnonzero(~finite)]
    return ValueError(f"run diverged at step {step}: {what} went non-finite for seed(s) {bad}")
