"""Gradient-noise models: sampling, symmetrization, norm probabilities.

Every model samples through a counter-based RNG contract. A
:class:`SeededStream` is a ``(master_seed, stream_id)`` pair mapped to
a Philox generator, and each draw consumes a fixed-width row of
uniforms which is transformed by the inverse normal CDF (one uniform
per normal variate). Draw ``i`` of a stream is therefore a pure
function of ``(master_seed, stream_id, i)``: prefixes of a sample
batch match shorter batches bit for bit, so results do not depend on
how work is chunked across workers.

Norm probabilities ``P(||xi|| < r)`` are exact for every shipped model
(finite weight sums, chi-square, or noncentral chi-square), with an
optional Monte Carlo route kept for cross-checking.
"""

import json
from dataclasses import dataclass

import numpy as np
from scipy import special, stats

__all__ = [
    "SeededStream",
    "Empirical",
    "IsotropicGaussian",
    "SphericalMixture",
    "Perturbed",
    "symmetrize",
    "prob_norm_below",
    "perturb",
]

# Smallest uniform fed to the inverse CDF; gen.random() can return 0.0
# exactly and ndtri(0) is -inf.
_U_FLOOR = 2.0 ** -54


@dataclass(frozen=True)
class SeededStream:
    """Named substream of a master seed.

    ``generator()`` builds a fresh counter-based generator each call,
    so two streams with the same ``(master_seed, stream_id)`` always
    replay the same uniform sequence.
    """

    master_seed: int
    stream_id: int = 0

    def generator(self):
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.Philox(seq))


def normals_from_uniforms(u):
    """Map uniforms in [0, 1) to standard normals via the inverse CDF."""
    return special.ndtri(np.maximum(u, _U_FLOOR))


def _resolve_generator(stream):
    if isinstance(stream, SeededStream):
        return stream.generator()
    if isinstance(stream, np.random.Generator):
        return stream
    raise TypeError(f"expected SeededStream or Generator, got {type(stream).__name__}")


class _Model:
    """Shared sampling plumbing: fixed uniform row width per draw."""

    dim: int
    rows_per_draw: int

    def sample(self, stream, count):
        """Draw ``count`` vectors, shape ``(count, dim)``.

        Passing a :class:`SeededStream` restarts the stream, so draw
        ``i`` depends only on the stream identity and ``i``. Passing a
        ``numpy.random.Generator`` continues it, which chunked loops
        use to split one logical batch across calls.
        """
        count = int(count)
        if count < 0:
            raise ValueError("count must be >= 0")
        gen = _resolve_generator(stream)
        u = gen.random((count, self.rows_per_draw))
        return self._from_uniform_rows(u)

    def _from_uniform_rows(self, u):
        raise NotImplementedError


class Empirical(_Model):
    """Finite weighted atom cloud in R^d.

    Args:
      atoms: array-like of shape (n, dim) or (n,) for dim 1.
      weights: optional probabilities, one per atom; uniform when
        omitted. Must be positive and sum to 1 within 1e-12.
    """

    def __init__(self, atoms, weights=None):
        atoms = np.asarray(atoms, dtype=np.float64)
        if atoms.ndim == 1:
            atoms = atoms[:, None]
        if atoms.ndim != 2 or atoms.shape[0] < 1:
            raise ValueError(f"atoms must be a non-empty (n, dim) array, got shape {atoms.shape}")
        if not np.all(np.isfinite(atoms)):
            raise ValueError("atoms have non-finite components")
        n = atoms.shape[0]
        if weights is None:
            weights = np.full(n, 1.0 / n)
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (n,):
            raise ValueError(f"need {n} weights, got shape {weights.shape}")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
            raise ValueError("weights must be positive reals")
        if abs(float(np.sum(weights)) - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {float(np.sum(weights))!r}, expected 1")
        self.atoms = atoms
        self.weights = weights
        self._cum = np.cumsum(weights)

    @property
    def dim(self):
        return self.atoms.shape[1]

    @property
    def rows_per_draw(self):
        return 1

    def _from_uniform_rows(self, u):
        idx = np.searchsorted(self._cum, u[:, 0], side="right")
        idx = np.minimum(idx, len(self.weights) - 1)
        return self.atoms[idx]

    def mean(self):
        return self.weights @ self.atoms

    def to_json_dict(self):
        return {
            "dim": int(self.dim),
            "atoms": [[float(x) for x in row] for row in self.atoms],
            "weights": [float(w) for w in self.weights],
        }

    @classmethod
    def from_json_dict(cls, payload):
        try:
            dim = int(payload["dim"])
            atoms = np.asarray(payload["atoms"], dtype=np.float64)
            weights = np.asarray(payload["weights"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed empirical model payload: {exc}") from exc
        if atoms.ndim == 1:
            atoms = atoms[:, None]
        if atoms.ndim != 2 or atoms.shape[1] != dim:
            raise ValueError(f"atoms shape {atoms.shape} does not match dim {dim}")
        return cls(atoms, weights)

    def to_json(self):
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text):
        return cls.from_json_dict(json.loads(text))


class IsotropicGaussian(_Model):
    """Mean-zero spherical normal, scale * N(0, I_dim)."""

    def __init__(self, scale, dim):
        scale = float(scale)
        dim = int(dim)
        if not np.isfinite(scale) or scale < 0.0:
            raise ValueError(f"scale must be >= 0, got {scale}")
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.scale = scale
        self.dim = dim

    @property
    def rows_per_draw(self):
        return self.dim

    def _from_uniform_rows(self, u):
        return self.scale * normals_from_uniforms(u)

    def mean(self):
        return np.zeros(self.dim)


class SphericalMixture(_Model):
    """Mixture of spherical normals: sum_i w_i * N(center_i, scale_i^2 I)."""

    def __init__(self, weights, centers, scales):
        centers = np.asarray(centers, dtype=np.float64)
        if centers.ndim == 1:
            centers = centers[:, None]
        weights = np.asarray(weights, dtype=np.float64)
        scales = np.asarray(scales, dtype=np.float64)
        m = centers.shape[0]
        if weights.shape != (m,) or scales.shape != (m,):
            raise ValueError("weights, centers and scales must agree on component count")
        if not np.all(np.isfinite(centers)):
            raise ValueError("centers have non-finite components")
        if np.any(weights <= 0.0) or abs(float(np.sum(weights)) - 1.0) > 1e-12:
            raise ValueError("component weights must be positive and sum to 1")
        if np.any(~np.isfinite(scales)) or np.any(scales < 0.0):
            raise ValueError("component scales must be >= 0")
        self.weights = weights
        self.centers = centers
        self.scales = scales
        self._cum = np.cumsum(weights)

    @property
    def dim(self):
        return self.centers.shape[1]

    @property
    def rows_per_draw(self):
        return 1 + self.dim

    def _from_uniform_rows(self, u):
        idx = np.searchsorted(self._cum, u[:, 0], side="right")
        idx = np.minimum(idx, len(self.weights) - 1)
        z = normals_from_uniforms(u[:, 1:])
        return self.centers[idx] + self.scales[idx][:, None] * z

    def mean(self):
        return self.weights @ self.centers


class Perturbed(_Model):
    """Base model plus independent spherical noise k * N(0, I)."""

    def __init__(self, base, k):
        k = float(k)
        if not np.isfinite(k) or k <= 0.0:
            raise ValueError(f"perturbation scale must be > 0, got {k}")
        if isinstance(base, Perturbed):
            # Sums of independent spherical normals collapse, so keep a
            # single wrapper with the combined scale.
            k = float(np.hypot(base.k, k))
            base = base.base
        self.base = base
        self.k = k

    @property
    def dim(self):
        return self.base.dim

    @property
    def rows_per_draw(self):
        return self.base.rows_per_draw + self.dim

    def _from_uniform_rows(self, u):
        split = self.base.rows_per_draw
        z = normals_from_uniforms(u[:, split:])
        return self.base._from_uniform_rows(u[:, :split]) + self.k * z

    def mean(self):
        return self.base.mean()


def perturb(model, k):
    """Convolve ``model`` with k * N(0, I); ``k == 0`` returns ``model``."""
    k = float(k)
    if k < 0.0 or not np.isfinite(k):
        raise ValueError(f"perturbation scale must be >= 0, got {k}")
    if k == 0.0:
        return model
    return Perturbed(model, k)


def symmetrize(model):
    """Reflect a model through the origin and average: (p + p^-) / 2.

    Empirical models get exact atom merging: an atom and its exact
    negation share one entry whose weight is the sum of halves, in
    first-encounter order. Applying symmetrize twice returns an equal
    model. Mean-zero isotropic Gaussians are already symmetric and are
    returned unchanged.
    """
    if isinstance(model, IsotropicGaussian):
        return model
    if not isinstance(model, Empirical):
        raise TypeError(f"symmetrize supports Empirical models, got {type(model).__name__}")
    # each atom directly followed by its negation, each at half weight
    both = np.stack([model.atoms, -model.atoms], axis=1).reshape(-1, model.dim)
    atoms, weights, _ = _merge_atoms(both, np.repeat(model.weights / 2.0, 2))
    return Empirical(atoms, weights)


def _merge_atoms(atoms, weights):
    """Merge exactly equal rows of an atom cloud.

    Returns ``(merged_atoms, merged_weights, inverse)``: distinct rows in
    first-encounter order, each with the sum of its weights taken in
    input order, and the merged row of every input row. Rows are
    compared after ``+ 0.0``, so -0.0 and 0.0 components are one atom.
    """
    atoms = np.asarray(atoms, dtype=np.float64) + 0.0
    _, first, inverse = np.unique(atoms, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0])
    inverse = rank[inverse.reshape(-1)]
    merged = np.bincount(inverse, weights=weights, minlength=order.shape[0])
    return atoms[first[order]], merged, inverse


def prob_norm_below(model, radius, stream=None, mc_samples=0):
    """Probability that a draw lands strictly inside the ball of ``radius``.

    Returns ``(value, std_error)``. The default route is exact
    (std_error 0.0): weight sums for atom clouds, chi-square for
    Gaussians, noncentral chi-square for shifted spherical components.
    With ``mc_samples > 0`` the value is a Monte Carlo fraction drawn
    from ``stream`` instead, kept as an independent cross-check.
    """
    radius = float(radius)
    if not np.isfinite(radius) or radius < 0.0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if mc_samples:
        if stream is None:
            raise ValueError("Monte Carlo route needs a stream")
        draws = model.sample(stream, int(mc_samples))
        hits = np.linalg.norm(draws, axis=1) < radius
        p = float(np.mean(hits))
        se = float(np.sqrt(p * (1.0 - p) / int(mc_samples)))
        return p, se
    return _prob_norm_exact(model, radius), 0.0


def _prob_norm_exact(model, radius):
    if isinstance(model, Empirical):
        norms = np.linalg.norm(model.atoms, axis=1)
        return float(np.sum(model.weights[norms < radius]))
    if isinstance(model, IsotropicGaussian):
        return _centered_ball_mass(radius, model.scale, model.dim)
    if isinstance(model, SphericalMixture):
        terms = [
            w * _shifted_ball_mass(radius, center, scale, model.dim)
            for w, center, scale in zip(model.weights, model.centers, model.scales)
        ]
        return float(np.sum(terms))
    if isinstance(model, Perturbed):
        return _prob_norm_perturbed(model, radius)
    raise TypeError(f"no exact norm probability for {type(model).__name__}")


def _prob_norm_perturbed(model, radius):
    base, k = model.base, model.k
    if isinstance(base, Empirical):
        terms = [
            w * _shifted_ball_mass(radius, atom, k, model.dim)
            for w, atom in zip(base.weights, base.atoms)
        ]
        return float(np.sum(terms))
    if isinstance(base, IsotropicGaussian):
        return _centered_ball_mass(radius, float(np.hypot(base.scale, k)), model.dim)
    if isinstance(base, SphericalMixture):
        terms = [
            w * _shifted_ball_mass(radius, center, float(np.hypot(scale, k)), model.dim)
            for w, center, scale in zip(base.weights, base.centers, base.scales)
        ]
        return float(np.sum(terms))
    raise TypeError(f"no exact norm probability for perturbed {type(base).__name__}")


def _centered_ball_mass(radius, scale, dim):
    if scale == 0.0:
        return 1.0 if radius > 0.0 else 0.0
    ratio = radius / scale
    if ratio > 1e150:  # squaring would overflow; the mass is 1 to double precision
        return 1.0
    return float(stats.chi2.cdf(ratio**2, df=dim))


def _shifted_ball_mass(radius, center, scale, dim):
    """P(||center + scale * N(0, I)|| < radius), exact."""
    shift = float(np.linalg.norm(center))
    if scale == 0.0:
        return 1.0 if shift < radius else 0.0
    if shift == 0.0:
        return _centered_ball_mass(radius, scale, dim)
    # Norm concentration: P(||N|| >= sqrt(dim) + 40) < exp(-800), zero in
    # doubles, so far outside that band the answer is exactly 0 or 1 and
    # the noncentrality below would overflow for tiny scales.
    spread = scale * (np.sqrt(dim) + 40.0)
    if radius >= shift + spread:
        return 1.0
    if radius <= shift - spread:
        return 0.0
    root = shift / scale
    if root > 1e150:
        return float(special.ndtr((radius - shift) / scale))
    return float(stats.ncx2.cdf((radius / scale) ** 2, df=dim, nc=root**2))
