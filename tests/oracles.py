"""Independent reference oracles for the test suite.

Everything here is deliberately written against a different code path than
the package: plain math/erf for the normal CDF, adaptive quadrature for the
censored mean, a linear-program transport solver, and pure-Python fsum
enumeration for expected clipped inner products.  Tests compare package
output against these, never against the package itself.
"""

import math

import numpy as np
from scipy import integrate, optimize, stats

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
