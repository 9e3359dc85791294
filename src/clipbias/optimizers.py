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

import csv
from dataclasses import dataclass, field

import numpy as np

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
]

_SUBSAMPLE, _PERTURB, _ADDITIVE = 0, 1, 2

# Cap on doubles held by one pre-drawn noise chunk.
_CHUNK_DOUBLES = 8_000_000


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
    clipped gradient means g_1..g_T (additive noise excluded);
    ``gradients``/``values`` hold the true gradient and objective at
    every iterate; ``distances`` is distance to the optimum.
    """

    problem: object
    config: OptimizerConfig
    sigma: float
    iterates: np.ndarray
    clipped_means: np.ndarray
    gradients: np.ndarray = field(repr=False, default=None)
    values: np.ndarray = field(repr=False, default=None)
    distances: np.ndarray = field(repr=False, default=None)

    @property
    def steps(self):
        return self.clipped_means.shape[0]

    def final_distance(self):
        return float(self.distances[-1])

    def to_csv(self, path):
        """One row per iterate; the clipped-mean column on row t is the
        mean applied when leaving x_t (blank on the final row)."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "f", "grad_norm", "clipped_mean_norm", "distance_to_opt"])
            grad_norms = np.linalg.norm(self.gradients, axis=1)
            mean_norms = np.linalg.norm(self.clipped_means, axis=1)
            for t in range(self.steps + 1):
                mean_col = repr(float(mean_norms[t])) if t < self.steps else ""
                writer.writerow([
                    t,
                    repr(float(self.values[t])),
                    repr(float(grad_norms[t])),
                    mean_col,
                    repr(float(self.distances[t])),
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
    _, xs, gms = _engine(problem, config, sigma, k, [config.seed], record=True)
    xs = xs[:, 0]
    return Trajectory(problem, config, sigma, xs, gms[:, 0], *problem.closed_forms(xs))


def _engine(problem, config, sigma, k, seeds, record):
    """Run the update rule for every seed in lockstep.

    Noise is pre-drawn in blocks of steps from each seed's substreams,
    in the order a step-by-step draw would take it, and each step
    reduces over the same axes for every R, so a seed's path does not
    depend on which other seeds share the run. Returns the final
    iterates (R, d) and, with ``record``, every iterate (T + 1, R, d)
    and clipped mean (T, R, d); otherwise those two are None.
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

    block = max(1, _CHUNK_DOUBLES // max(1, R * m * d))
    for lo in range(0, T, block):
        B = min(block, T - lo)
        if subsample:
            idx = np.stack([
                np.minimum((g.random((B, m)) * n).astype(np.intp), n - 1) for g in idx_gens
            ])  # (R, B, m)
        if k > 0.0:
            zeta = np.stack([
                normals_from_uniforms(g.random((B, m, d))) for g in pert_gens
            ])  # (R, B, m, d)
        if sigma > 0.0:
            Z = np.stack([normals_from_uniforms(g.random((B, d))) for g in dp_gens])
        for b in range(B):
            t = lo + b
            if subsample:
                grads = X[:, None, :] - centers[idx[:, b, :]]
            else:
                grads = X[:, None, :] - centers[None, :, :]
            if k > 0.0:
                grads = grads + k * zeta[:, b]
            try:
                clipped = clip_batch(grads.reshape(R * m, d), config.clip)
            except ValueError:
                # clip_batch rejects non-finite rows: x_t, or a gradient
                # built from a finite x_t, left the doubles.
                if np.all(np.isfinite(X)):
                    raise _diverged(t + 1, "per-sample gradients", grads, seeds) from None
                raise _diverged(t, "the iterate", X, seeds) from None
            g = clipped.reshape(R, m, d).mean(axis=1)
            if record:
                gms[t] = g
            if sigma > 0.0:
                g = g + sigma * Z[:, b]
            X = X - config.alpha * g
            if record:
                xs[t + 1] = X
    if not np.all(np.isfinite(X)):
        raise _diverged(T, "the iterate", X, seeds)
    return X, xs, gms


def _diverged(step, what, values, seeds):
    finite = np.isfinite(values).reshape(len(seeds), -1).all(axis=1)
    bad = [seeds[r] for r in np.flatnonzero(~finite)]
    return ValueError(f"run diverged at step {step}: {what} went non-finite for seed(s) {bad}")
