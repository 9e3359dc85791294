"""Dense vector arithmetic and the l2-norm clip operator.

Vectors are 1-D float64 numpy arrays. Validation happens once at the
public boundary; batch helpers operate on row-stacked arrays and are
used by the samplers and optimizers.

The clip operator enforces two exact guarantees that plain
``g * min(1, c / norm(g))`` does not give under IEEE rounding:
``norm(clip(g, c)) <= c`` holds exactly, and clipping is exactly
idempotent. Rescaled rows whose recomputed norm still exceeds ``c`` by
a few ulps are nudged down until the cap holds.
"""

import numpy as np

__all__ = ["clip", "clip_batch", "norm", "row_norms", "inner", "cosine", "as_vector"]

# Row norms below this lose bits to the underflow of their squares.
_NORM_FLOOR = 2.0 ** -511


def as_vector(v):
    """Coerce to a finite 1-D float64 array of dim >= 1."""
    arr = np.atleast_1d(np.asarray(v, dtype=np.float64))
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector has non-finite components")
    return arr


def row_norms(rows):
    """Euclidean norm of each row.

    The single canonical reduction for norms in this package: the clip
    cap is enforced against this exact function, and BLAS-backed
    alternatives can disagree with it in the last ulp.
    """
    rows = np.asarray(rows, dtype=np.float64)
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    # A norm above ~1.3e154 overflows in the squares, and one below 2^-511
    # loses bits to their underflow. The maximum finds the inf and NaN
    # norms and the minimum the small ones; a dot product of the norms
    # would warn where their squares sum past the largest double.
    if not (
        np.maximum.reduce(norms, initial=0.0) < np.inf
        and np.minimum.reduce(norms, initial=np.inf) >= _NORM_FLOOR
    ):
        # Redo the finite nonzero rows whose norm is inf or small scaled by
        # a power of two, which is exact: such a row's norm is its scaled
        # copy's norm times that power.
        redo = np.flatnonzero(np.isinf(norms) | (norms < _NORM_FLOOR))
        peak = np.max(np.abs(rows[redo]), axis=1, initial=0.0)
        keep = (peak > 0.0) & (peak < np.inf)
        redo = redo[keep]
        _, exp = np.frexp(peak[keep])
        scaled = np.ldexp(rows[redo], -exp[:, None])
        with np.errstate(over="ignore"):  # a norm beyond the doubles stays inf
            norms[redo] = np.ldexp(np.sqrt(np.einsum("ij,ij->i", scaled, scaled)), exp)
    return norms


def norm(v):
    """Euclidean norm of a vector."""
    return float(row_norms(as_vector(v)[None, :])[0])


def inner(a, b):
    """Dot product of two vectors of equal dim."""
    a = as_vector(a)
    b = as_vector(b)
    if a.shape != b.shape:
        raise ValueError(f"dim mismatch: {a.shape[0]} vs {b.shape[0]}")
    return float(np.dot(a, b))


def cosine(a, b):
    """Cosine similarity of two nonzero vectors, clamped to [-1, 1]."""
    a = as_vector(a)
    b = as_vector(b)
    if a.shape != b.shape:
        raise ValueError(f"dim mismatch: {a.shape[0]} vs {b.shape[0]}")
    na, nb = row_norms(np.stack([a, b]))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine is undefined for the zero vector")
    # unit vectors first: the dot of two huge vectors would overflow
    return float(np.clip(np.dot(a / na, b / nb), -1.0, 1.0))


def clip(g, c):
    """Rescale ``g`` so its l2 norm never exceeds ``c``.

    Returns ``g * min(1, c / norm(g))``. A vector with ``norm(g) <= c``
    (including the zero vector and the ``norm(g) == c`` boundary) is
    returned unchanged.
    """
    g = as_vector(g)
    _check_threshold(c)
    return clip_batch(g[None, :], c)[0]


def clip_batch(rows, c):
    """Clip each row of a 2-D array to l2 norm at most ``c``."""
    rows = np.asarray(rows, dtype=np.float64)
    norms = row_norms(rows)
    # A finite norm needs finite components, so the rows are scanned only
    # when some norm is not finite; that is cheaper than scanning them.
    if np.count_nonzero(np.isfinite(norms)) < norms.shape[0] and not np.isfinite(rows).all():
        raise ValueError("input has non-finite components")
    _check_threshold(c)
    over = norms > c
    if not np.count_nonzero(over):
        return rows.copy()
    out = rows.copy()
    scale = c / norms[over]
    if np.count_nonzero(scale) < scale.shape[0]:
        # c / norm is 0 where the norm left the doubles (or the quotient
        # underflowed): rescale those rows from a copy scaled by a power
        # of two, which is exact and keeps their direction.
        lost = scale == 0.0
        idx = np.flatnonzero(over)[lost]
        _, exp = np.frexp(np.abs(rows[idx]).max(axis=1))
        scaled = np.ldexp(rows[idx], -exp[:, None])
        out[idx] = scaled
        scale[lost] = c / row_norms(scaled)
    out[over] *= scale[:, None]
    # Rounding can leave a rescaled norm a few ulps above c. Pull those
    # rows back down so the norm cap is exact, which also makes the
    # operator exactly idempotent (a second pass changes nothing).
    for _ in range(4):
        new_norms = row_norms(out[over])
        still = new_norms > c
        if not np.count_nonzero(still):
            return out
        rows_idx = np.flatnonzero(over)[still]
        out[rows_idx] *= (c / new_norms[still])[:, None]
    bad = row_norms(out) > c
    while bad.any():
        out[bad] = np.nextafter(out[bad], 0.0)
        bad = row_norms(out) > c
    return out


def _check_threshold(c):
    c = float(c)
    if not 0.0 < c < np.inf:
        raise ValueError(f"clip threshold must be a positive real, got {c}")
