"""Finite-sum quadratic objectives with per-sample gradient oracles.

The shipped family is mean-of-quadratics

    f(x) = (1/n) sum_i 0.5 * ||x - a_i||^2

over a dataset of centers ``a_i``. It has an exact optimum (the center
mean), smoothness constant 1, and per-sample gradient residuals that do
not depend on the query point, so everything downstream can be checked
exactly. Includes the two 1-D instances used by the divergence demos
and a 10-D synthetic Gaussian-mixture dataset.
"""

import numpy as np

from .noise import Empirical, SeededStream, normals_from_uniforms
from .vectors import _row_dots, as_vector, row_norms

__all__ = [
    "QuadraticProblem",
    "make_example1",
    "make_example2",
    "make_synthetic_mixture",
    "problem_by_name",
]


class QuadraticProblem:
    """Mean of per-sample quadratics 0.5 * ||x - a_i||^2."""

    def __init__(self, centers):
        centers = np.array(centers, dtype=np.float64)  # a copy, which the caller cannot write
        if centers.ndim == 1:
            centers = centers[:, None]
        if centers.ndim != 2 or centers.shape[0] < 1:
            raise ValueError(f"centers must be a non-empty (n, dim) array, got {centers.shape}")
        if not np.all(np.isfinite(centers)):
            raise ValueError("centers have non-finite components")
        centers.flags.writeable = False  # so the optimum computed below cannot go stale
        self.centers = centers
        self.optimum = centers.mean(axis=0)
        self.optimum.flags.writeable = False
        self._optimal_value = self.value(self.optimum)

    @property
    def n(self):
        return self.centers.shape[0]

    @property
    def dim(self):
        return self.centers.shape[1]

    @property
    def smoothness(self):
        # Each per-sample Hessian is the identity.
        return 1.0

    def value(self, x):
        x = self._check_point(x)
        return float(0.5 * np.mean(np.sum(self._gradients(x, None) ** 2, axis=1)))

    def full_gradient(self, x):
        """Mean of the per-sample gradients, computed as that mean so the
        equality with ``batch_gradients(x).mean(0)`` is exact."""
        return self._gradients(self._check_point(x), None).mean(axis=0)

    def per_sample_gradient(self, x, i):
        x = self._check_point(x)
        i = int(i)
        if not 0 <= i < self.n:
            raise IndexError(f"sample index {i} out of range for n={self.n}")
        return self._gradients(x, i)

    def batch_gradients(self, x, idx=None):
        """Per-sample gradients as rows; all samples when ``idx`` is None."""
        x = self._check_point(x)
        return self._gradients(x, None if idx is None else np.asarray(idx, dtype=np.intp))

    def _gradients(self, points, idx):
        """The family's one per-sample gradient rule ``x - a_i``, unchecked: ``points``
        broadcast against the centers ``idx`` picks (all of them when None)."""
        return points - (self.centers if idx is None else self.centers[idx])

    def closed_forms(self, points):
        """Full gradients, values and distances to the optimum at each row.

        Uses grad(x) = x - x* and f(x) = f(x*) + 0.5 * ||x - x*||^2,
        which agree with the per-sample reductions up to float rounding
        and keep a pass over T iterates O(T * dim).
        """
        diffs = points - self.optimum
        sq = _row_dots(diffs, diffs)
        return diffs, 0.5 * sq + self._optimal_value, row_norms(diffs)

    def noise_residuals(self):
        """Per-sample gradient noise as an empirical model.

        Residuals (per-sample gradient minus full gradient) equal the
        per-sample gradients at the optimum, ``mean(centers) - a_i``, for
        every query point in this family, so they are computed there.
        """
        return Empirical(self._gradients(self.optimum, None))

    def gap_to_optimum(self, x0):
        return self.value(x0) - self._optimal_value

    def to_json_dict(self):
        return Empirical(self.centers).to_json_dict()

    @classmethod
    def from_json_dict(cls, payload):
        model = Empirical.from_json_dict(payload)
        w = model.weights
        if np.any(np.abs(w - 1.0 / len(w)) > 1e-12):
            raise ValueError("quadratic problems require uniform sample weights")
        return cls(model.atoms)

    def _check_point(self, x):
        x = as_vector(x)
        if x.shape[0] != self.dim:
            raise ValueError(f"point dim {x.shape[0]} does not match problem dim {self.dim}")
        return x


def make_example1():
    """Three centers {-3, -3, 9} on the line; optimum 1; clipping at
    c = 1 pushes iterates toward -2.5 instead."""
    return QuadraticProblem([-3.0, -3.0, 9.0])


def make_example2():
    """Two centers {-3, 3}; optimum 0; with c = 1 every point of
    [-2, 2] is stationary for the clipped update."""
    return QuadraticProblem([-3.0, 3.0])


def make_synthetic_mixture(seed=0, n=10000, dim=10, proportions=None):
    """Dataset drawn from a 3-component spherical Gaussian mixture.

    Component means are drawn from N(0, 36 I), N(0, 4 I), N(0, I); each
    center is its component's mean plus a standard normal draw.
    Assignment is uniform over components unless ``proportions`` is
    given. Deterministic in ``seed``.
    """
    n = int(n)
    dim = int(dim)
    if n < 1 or dim < 1:
        raise ValueError("n and dim must be >= 1")
    spreads = np.array([6.0, 2.0, 1.0])
    if proportions is None:
        proportions = np.full(3, 1.0 / 3.0)
    proportions = np.asarray(proportions, dtype=np.float64)
    if proportions.shape != (3,) or np.any(proportions <= 0.0):
        raise ValueError("proportions must be 3 positive weights")
    if abs(float(proportions.sum()) - 1.0) > 1e-12:
        raise ValueError("proportions must sum to 1")

    means_gen = SeededStream(seed, 0).generator()
    assign_gen = SeededStream(seed, 1).generator()
    centers_gen = SeededStream(seed, 2).generator()

    means = spreads[:, None] * normals_from_uniforms(means_gen.random((3, dim)))
    comp = np.searchsorted(np.cumsum(proportions), assign_gen.random(n), side="right")
    comp = np.minimum(comp, 2)
    centers = means[comp] + normals_from_uniforms(centers_gen.random((n, dim)))
    return QuadraticProblem(centers)


def problem_by_name(name, seed=0):
    """CLI-facing constructor registry."""
    table = {
        "example1": make_example1,
        "example2": make_example2,
        "synthetic-mixture": lambda: make_synthetic_mixture(seed=seed),
    }
    if name not in table:
        raise ValueError(f"unknown problem {name!r}; choose from {sorted(table)}")
    return table[name]()
