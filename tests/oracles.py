"""Independent reference oracles for the test suite.

Everything here is deliberately written against a different code path than
the package: plain math/erf for the normal CDF, adaptive quadrature for the
censored mean, a linear-program transport solver, pure-Python fsum
enumeration for expected clipped inner products, and the clip operator's
guarded form (boolean gathers over ``row_norms``) for its one-pass route.
Tests compare package output against these, never against the package
itself.
"""

import math

import numpy as np
from scipy import integrate, optimize, special, stats

from clipbias.vectors import _check_threshold, row_norms

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def phi_cdf(x):
    """Standard normal CDF via math.erf."""
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


def clip1d(x, c):
    return max(-c, min(c, x))


def censored_mean_quadrature(mean, scale, c):
    """E[clip1d(X, c)] for X ~ N(mean, scale^2) by adaptive quadrature."""

    def integrand(t):
        return clip1d(mean + scale * t, c) * math.exp(-0.5 * t * t) * _INV_SQRT_2PI

    # +-14 sigma leaves tail mass below 1e-43; the integrand is bounded by c.
    # Split at the clip kinks so each piece is smooth.
    kinks = sorted(t for t in ((-c - mean) / scale, (c - mean) / scale) if -14.0 < t < 14.0)
    val, err = integrate.quad(integrand, -14.0, 14.0, points=kinks or None, limit=400)
    assert err < 1e-8
    return val


def ball_masses(radii, shift, scale, dim):
    """P(||center + scale * N(0, I_dim)|| < r) for each r in ``radii``, for
    one component whose center has norm ``shift``.

    One scalar chi-square (centered) or noncentral chi-square CDF call on
    Python floats per component, with no band or overflow shortcuts.
    """
    shift, scale = float(shift), float(scale)
    if scale == 0.0:
        return [1.0 if shift < r else 0.0 for r in radii]
    x = [(float(r) / scale) ** 2 for r in radii]
    if shift == 0.0:
        return [float(m) for m in stats.chi2.cdf(x, df=dim)]
    return [float(m) for m in stats.ncx2.cdf(x, df=dim, nc=(shift / scale) ** 2)]


def mixture_draws(generator, count, weights, centers, scales):
    """``count`` draws of sum_i w_i * N(center_i, scale_i^2 I), built by
    hand from one row of uniforms per draw.

    Column 0 picks the component by cumulative weight; when any scale is
    positive, ``dim`` more columns become normals through the inverse CDF
    of the uniform, floored at 2**-54 (the generator can return 0.0).
    """
    weights = np.asarray(weights, dtype=float)
    centers = np.asarray(centers, dtype=float)
    scales = np.asarray(scales, dtype=float)
    spread = bool(np.any(scales > 0.0))
    u = generator.random((count, 1 + centers.shape[1] if spread else 1))
    idx = np.minimum(np.searchsorted(np.cumsum(weights), u[:, 0], side="right"), len(weights) - 1)
    if not spread:
        return centers[idx]
    normals = special.ndtri(np.maximum(u[:, 1:], 2.0 ** -54))
    return normals * scales[idx][:, None] + centers[idx]


def clip_batch_guarded(rows, c):
    """The clip operator as it was before its one-pass route: every batch
    goes through ``row_norms``, boolean gathers and its own nudge loop.

    It shares only ``row_norms``, the package's canonical norm, with
    ``vectors.clip_batch``, which must give the same bits on every batch.
    """
    rows = np.asarray(rows, dtype=np.float64)
    norms = row_norms(rows)
    if np.count_nonzero(np.isfinite(norms)) < norms.shape[0] and not np.isfinite(rows).all():
        raise ValueError("input has non-finite components")
    _check_threshold(c)
    over = norms > c
    if not np.count_nonzero(over):
        return rows.copy()
    out = rows.copy()
    scale = c / norms[over]
    if np.count_nonzero(scale) < scale.shape[0]:
        lost = scale == 0.0
        idx = np.flatnonzero(over)[lost]
        _, exp = np.frexp(np.abs(rows[idx]).max(axis=1))
        scaled = np.ldexp(rows[idx], -exp[:, None])
        out[idx] = scaled
        scale[lost] = c / row_norms(scaled)
    out[over] *= scale[:, None]
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


def expected_clipped_inner_enum(v, atoms, weights, c):
    """Sum over atoms of w * <v, clip(v + xi, c)> in pure Python."""
    v = [float(x) for x in v]
    total_terms = []
    for atom, w in zip(atoms, weights):
        y = [vj + float(aj) for vj, aj in zip(v, atom)]
        nrm = math.sqrt(math.fsum(yj * yj for yj in y))
        if nrm > c:
            factor = c / nrm
        else:
            factor = 1.0
        inner = math.fsum(vj * yj for vj, yj in zip(v, y))
        total_terms.append(float(w) * factor * inner)
    return math.fsum(total_terms)


def transport_cost_lp(values_a, weights_a, values_b, weights_b):
    """Exact 1-D optimal transport with |a - b| cost via linprog (HiGHS).

    Dense formulation: one flow variable per (i, j) pair, marginal equality
    constraints.  Only meant for small instances (<= ~30 atoms per side).
    """
    a = np.asarray(values_a, dtype=float)
    b = np.asarray(values_b, dtype=float)
    wa = np.asarray(weights_a, dtype=float)
    wb = np.asarray(weights_b, dtype=float)
    na, nb = len(a), len(b)
    cost = np.abs(a[:, None] - b[None, :]).ravel()

    rows = []
    for i in range(na):
        row = np.zeros((na, nb))
        row[i, :] = 1.0
        rows.append(row.ravel())
    for j in range(nb):
        row = np.zeros((na, nb))
        row[:, j] = 1.0
        rows.append(row.ravel())
    a_eq = np.array(rows)
    b_eq = np.concatenate([wa, wb])

    res = optimize.linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)
