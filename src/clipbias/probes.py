"""Random 2-D projections and distributional summaries of per-sample
gradient ensembles.

These are the visualization-free counterparts of scatter-plot
diagnostics: project an ensemble through a random d x 2 matrix, score
how far the projected cloud is from mirror symmetry, and histogram the
quantities that decide whether clipping is biased (norms, cosines,
clipped inner products).
"""

from dataclasses import dataclass

import numpy as np

from ._files import write_csv
from .noise import SeededStream, normals_from_uniforms
from .vectors import _cosines, _row_dots, as_vector, clip_batch, row_norms

__all__ = [
    "ProjectionProbe",
    "Histogram",
    "EnsembleStats",
    "project2d",
    "symmetry_score",
    "cosine_histogram",
    "gradient_ensemble_stats",
]


@dataclass(frozen=True)
class ProjectionProbe:
    """A fixed d x 2 projection matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[1] != 2 or not np.all(np.isfinite(m)):
            raise ValueError(f"probe matrix must be finite with shape (d, 2), got {m.shape}")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def random(cls, dim, seed):
        """Standard-normal probe, deterministic in ``seed``."""
        gen = SeededStream(seed, 0).generator()
        return cls(normals_from_uniforms(gen.random((int(dim), 2))))

    @property
    def dim(self):
        return self.matrix.shape[0]


def project2d(points, probe):
    """Project rows of ``points`` (N, d) to (N, 2) through the probe."""
    points = _as_rows(points, probe.dim)
    return points @ probe.matrix


def symmetry_score(points, bins=50, mode="origin"):
    """Total-variation distance between a 2-D cloud and its reflection.

    Both clouds are histogrammed on shared edges (auto range with a 5%
    margin); the score is half the L1 distance of the normalized counts,
    so it lies in [0, 1] and a cloud that is an exact mirror multiset of
    itself scores exactly 0.

    ``mode`` selects the reflection center: "origin" or the empirical
    "mean".
    """
    points = _as_rows(points, 2)
    if points.shape[0] < 2:
        raise ValueError("need at least two points")
    if mode == "origin":
        reflected = -points
    elif mode == "mean":
        center = points.mean(axis=0)
        reflected = 2.0 * center - points
    else:
        raise ValueError(f"unknown reflection mode {mode!r}")
    edges = []
    for axis in range(2):
        combined = np.concatenate([points[:, axis], reflected[:, axis]])
        edges.append(_axis_edges(combined, bins))
    h_points, _, _ = np.histogram2d(points[:, 0], points[:, 1], bins=edges)
    h_reflect, _, _ = np.histogram2d(reflected[:, 0], reflected[:, 1], bins=edges)
    n = points.shape[0]
    return float(0.5 * np.abs(h_points - h_reflect).sum() / n)


@dataclass(frozen=True)
class Histogram:
    """Counts over contiguous bins, edges included."""

    edges: np.ndarray
    counts: np.ndarray

    @classmethod
    def from_values(cls, values, bins=50):
        values = np.asarray(values, dtype=np.float64)
        edges = _axis_edges(values, bins)
        counts, _ = np.histogram(values, bins=edges)
        return cls(edges=edges, counts=counts)

    @property
    def total(self):
        return int(self.counts.sum())

    def to_csv(self, path):
        write_csv(path, ["bin_lo", "bin_hi", "count"],
                  [self.edges[:-1], self.edges[1:], self.counts])


def cosine_histogram(rows, reference, bins=50):
    """Histogram over [-1, 1] of cos(row, reference) for each row, by
    ``vectors.cosine``'s rule; a zero row or reference raises."""
    reference = as_vector(reference)
    cosines = _cosines(_as_rows(rows, reference.shape[0]), reference)
    edges = _edges(-1.0, 1.0, bins)
    return Histogram(edges=edges, counts=np.histogram(cosines, bins=edges)[0])


@dataclass(frozen=True)
class EnsembleStats:
    """Distributional summary of a per-sample gradient ensemble."""

    grad_norm: Histogram
    noise_norm: Histogram
    clipped_inner: Histogram
    inner: Histogram
    fraction_noise_below_quarter_clip: float
    mean_inner: float
    count: int

    def histograms(self):
        return {
            "grad_norm": self.grad_norm,
            "noise_norm": self.noise_norm,
            "clipped_inner": self.clipped_inner,
            "inner": self.inner,
        }


def gradient_ensemble_stats(rows, reference, c, bins=50):
    """Histogram the four quantities that control clipping bias.

    ``rows`` are per-sample gradients, ``reference`` the full gradient:
    per-sample norms, noise norms ||row - reference||, clipped inner
    products <reference, clip(row, c)>, and raw inner products. Also
    reports the exact fraction of noise norms below c/4 and the mean
    raw inner product (equal to ||reference||^2 when rows average to
    the reference).
    """
    reference = as_vector(reference)
    rows = _as_rows(rows, reference.shape[0])
    noise_norms = row_norms(rows - reference[None, :])
    inner = _row_dots(rows, reference)
    return EnsembleStats(
        grad_norm=Histogram.from_values(row_norms(rows), bins),
        noise_norm=Histogram.from_values(noise_norms, bins),
        clipped_inner=Histogram.from_values(_row_dots(clip_batch(rows, c), reference), bins),
        inner=Histogram.from_values(inner, bins),
        fraction_noise_below_quarter_clip=float(np.mean(noise_norms < c / 4.0)),
        mean_inner=float(np.mean(inner)),
        count=rows.shape[0],
    )


def _as_rows(points, dim):
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2 or points.shape[1] != dim:
        raise ValueError(f"expected shape (N, {dim}), got {points.shape}")
    if not np.all(np.isfinite(points)):
        raise ValueError("points have non-finite components")
    return points


def _axis_edges(values, bins):
    lo = float(np.min(values))
    hi = float(np.max(values))
    if hi == lo:
        # single-valued data still gets a well-formed (zero-width) bin layout
        lo -= 0.5
        hi += 0.5
    margin = 0.05 * (hi - lo)
    return _edges(lo - margin, hi + margin, bins)


def _edges(lo, hi, bins):
    """Edges of ``bins`` equal bins from ``lo`` to ``hi``; none would score any cloud 0."""
    bins = int(bins)
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    return np.linspace(lo, hi, bins + 1)
