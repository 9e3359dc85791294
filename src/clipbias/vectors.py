"""Dense vector arithmetic and the l2-norm clip operator.

Vectors are 1-D float64 numpy arrays. Validation happens once at the
public boundary; batch helpers operate on row-stacked arrays and are
used by the samplers and optimizers.

The clip operator enforces two exact guarantees that plain
``g * min(1, c / norm(g))`` does not give under IEEE rounding:
``norm(clip(g, c)) <= c`` holds exactly, and clipping is exactly
idempotent. Rescaled rows whose recomputed norm still exceeds ``c`` by
a few ulps are nudged down until the cap holds.

``clip_batch`` has one route for every batch: it makes the rows
C-contiguous (the norms' bits depend on the layout), takes their
canonical norms once, multiplies every row by ``c / max(norm, c)`` and
runs the nudge loop. Only rows whose ``c / norm`` underflows are rescaled
from an exact power-of-two copy first. Non-finite rows and a bad ``c``
raise.
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
    return _norms(np.asarray(rows, dtype=np.float64))[0]


def _norms(rows):
    """``row_norms`` of a float64 array, and their maximum (0.0 for no
    rows, NaN when a row holds a NaN)."""
    norms = _einsum_norms(rows) if rows.shape[1] <= 8192 else np.sqrt(_row_dots(rows, rows))
    # A norm above ~1.3e154 overflows in the squares, and one below 2^-511
    # loses bits to their underflow. The maximum finds the inf and NaN
    # norms and the minimum the small ones; a dot product of the norms
    # would warn where their squares sum past the largest double.
    top = np.maximum.reduce(norms, initial=0.0)
    if not (top < np.inf and np.minimum.reduce(norms, initial=np.inf) >= _NORM_FLOOR):
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
            norms[redo] = np.ldexp(np.sqrt(_row_dots(scaled, scaled)), exp)
        top = np.maximum.reduce(norms, initial=0.0)
    return norms, top


def _row_dots(rows, other):
    """Dot product of each row of ``rows`` with the same row of ``other``,
    or with ``other`` itself when it is a vector, by ``np.einsum``.

    einsum sums a row of at most 8192 columns (numpy's buffer size) in one
    piece, but cuts a wider row where its buffers end, and those ends move
    with the rows summed beside it. Wider rows are summed one at a time, so
    every row's bits are its own, as they are at 8192 columns or fewer.
    """
    spec = "ij,ij->i" if other.ndim == 2 else "ij,j->i"
    if rows.shape[1] <= 8192:
        return np.einsum(spec, rows, other)
    if other.ndim == 2:
        return np.array([np.einsum(spec, a[None], b[None])[0] for a, b in zip(rows, other)])
    return np.array([np.einsum(spec, a[None], other)[0] for a in rows])


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
    return clip_batch(as_vector(g)[None, :], c)[0]


def clip_batch(rows, c):
    """Clip each row of a 2-D array to l2 norm at most ``c``.

    The result is C-ordered, and so are the rows it is computed from: the
    norms' bits depend on the layout, and a norm taken in another layout
    than the returned rows' could break the cap. Every row is multiplied
    by ``c / max(norm, c)``, which is exactly 1.0 for a row at or under
    ``c``; a row whose quotient underflows to 0 is rescaled from a copy
    scaled by a power of two, which is exact and keeps its direction.
    """
    return _clip_rows(rows, c)


def _clip_rows(rows, c):
    """``clip_batch``'s body, which the Monte Carlo routes call on pool
    threads: the benchmark's span tracer wraps the public function and
    keeps one stack for all threads."""
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    norms, top = _norms(rows)
    # A finite norm needs finite components, so the rows are scanned only
    # when some norm is not finite; that is cheaper than scanning them.
    if not top < np.inf and not np.isfinite(rows).all():
        raise ValueError("input has non-finite components")
    _check_threshold(c)
    if top <= c:
        return rows.copy()  # no row is over c
    scale = c / np.maximum(norms, c)
    out = rows * scale[:, None]
    if c / top == 0.0:
        # c / norm is 0 where the norm left the doubles or the quotient
        # underflowed.
        lost = np.flatnonzero(scale == 0.0)
        _, exp = np.frexp(np.abs(rows[lost]).max(axis=1))
        scaled = np.ldexp(rows[lost], -exp[:, None])
        out[lost] = scaled * (c / _norms(scaled)[0])[:, None]
    return _nudge(out, c)


def _einsum_norms(rows):
    """Norms of rows of at most 8192 columns by one einsum: ``row_norms``
    where every norm lies in ``[2^-511, inf)``."""
    return np.sqrt(np.einsum("ij,ij->i", rows, rows))


def _nudge(out, c):
    """Pull the rows of ``out`` whose norm still exceeds ``c`` after a
    rescale back under it, in place, and return ``out``.

    Rounding can leave a rescaled norm a few ulps above c. Each round
    multiplies every row by ``c / max(norm, c)``, exactly 1.0 for a row at
    or under ``c``; rows still over after four rounds step towards zero one
    ulp at a time. So the norm cap is exact, and the operator is exactly
    idempotent (a second pass changes nothing). With ``c`` in
    ``[2^-510, 2^511)`` and at most 8192 columns the einsum alone takes the
    norms: it gives ``row_norms``'s bits for every row near ``c``, and a row
    whose einsum norm is below ``2^-511`` is under ``c`` by either measure.
    """
    in_band = 2.0 * _NORM_FLOOR <= c < 2.0 ** 511 and out.shape[1] <= 8192
    norms_of = _einsum_norms if in_band else lambda rows: _norms(rows)[0]
    for _ in range(4):
        norms = norms_of(out)
        if not np.maximum.reduce(norms, initial=0.0) > c:
            return out
        out *= (c / np.maximum(norms, c))[:, None]
    bad = norms_of(out) > c
    while bad.any():
        out[bad] = np.nextafter(out[bad], 0.0)
        bad = norms_of(out) > c
    return out


def _check_threshold(c):
    c = float(c)
    if not 0.0 < c < np.inf:
        raise ValueError(f"clip threshold must be a positive real, got {c}")
