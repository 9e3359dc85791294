"""Dense vector arithmetic and the l2-norm clip operator.

Vectors are 1-D float64 numpy arrays. Validation happens once at the
public boundary; batch helpers operate on row-stacked arrays and are
used by the samplers and optimizers.

The clip operator enforces two exact guarantees that plain
``g * min(1, c / norm(g))`` does not give under IEEE rounding:
``norm(clip(g, c)) <= c`` holds exactly, and clipping is exactly
idempotent. Rescaled rows whose recomputed norm still exceeds ``c`` by
a few ulps are nudged down until the cap holds.

``clip_batch`` clips a batch whose norms are all in range in one pass
(one einsum, one multiply, then the nudge loop). Norms past 1.3e154 or
under 2^-511, a ``c`` near 2^-511 or not finite, wide or strided rows and
non-finite rows take a guarded route, which raises on bad input. Both
routes give the same bits and share one nudge loop.
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
    norms = _einsum_norms(rows) if rows.shape[1] <= 8192 else np.sqrt(_row_dots(rows, rows))
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
            norms[redo] = np.ldexp(np.sqrt(_row_dots(scaled, scaled)), exp)
    return norms


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
    g = as_vector(g)
    _check_threshold(c)
    return clip_batch(g[None, :], c)[0]


def clip_batch(rows, c):
    """Clip each row of a 2-D array to l2 norm at most ``c``.

    One pass serves every batch whose norms ``row_norms`` would take from
    its einsum unchanged: rows of at most 8192 contiguous columns (the
    einsum's bits depend on that layout) and every norm in
    ``[2^-511, inf)``. With ``c`` at least ``2^-510`` a rescaled row keeps
    a norm that ``row_norms`` would not redo either, and ``c / norm`` stays
    a normal double (a finite einsum norm is below ``2^512``), so no
    quotient underflows. Every row is multiplied by ``c / max(norm, c)``,
    which is exactly 1.0 for a row at or under ``c``. Any other batch, or
    a non-finite row or ``c``, takes the guarded route
    (``_guarded_clip``); both give the same bits.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.shape[1] <= 8192 and rows.strides[1] == 8 and 2.0 * _NORM_FLOOR <= c < np.inf:
        norms = _einsum_norms(rows)
        top = np.maximum.reduce(norms, initial=0.0)
        if top < np.inf and np.minimum.reduce(norms, initial=np.inf) >= _NORM_FLOOR:
            if top <= c:
                return rows.copy()  # no row is over c
            return _nudge(rows * (c / np.maximum(norms, c))[:, None], c, _einsum_norms)
    return _guarded_clip(rows, c)


def _einsum_norms(rows):
    """Norms of rows of at most 8192 columns by one einsum: ``row_norms``
    where every norm lies in ``[2^-511, inf)``."""
    return np.sqrt(np.einsum("ij,ij->i", rows, rows))


def _guarded_clip(rows, c):
    """``clip_batch`` of any batch: validates ``c`` and the rows, and
    rescales a row whose ``c / norm`` underflows from an exact power-of-two
    copy."""
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
    out[over] = _nudge(out[over] * scale[:, None], c, row_norms)
    return out


def _nudge(out, c, norms_of):
    """Pull the rows of ``out`` whose norm (by ``norms_of``) still exceeds
    ``c`` after a rescale back under it, in place, and return ``out``.

    Rounding can leave a rescaled norm a few ulps above c. Each round
    multiplies every row by ``c / max(norm, c)``, exactly 1.0 for a row at
    or under ``c``; rows still over after four rounds step towards zero one
    ulp at a time. So the norm cap is exact, and the operator is exactly
    idempotent (a second pass changes nothing).
    """
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
