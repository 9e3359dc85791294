"""Lower bounds, exact bias decomposition, and transport disparity for
the expected clipped descent term.

Everything here revolves around the pushforward score

    s(xi) = <v, clip(v + xi, c)>

of a gradient v and noise xi. For symmetric noise the expected score
has a closed-form lower bound; for asymmetric noise the shortfall is
an explicit bias integral b = E_p[s] - E_ptilde[s], and |b| is capped
by a Wasserstein distance whose ground cost is |s(a) - s(b)|, which
collapses to a 1-D transport problem on the score line.

Routes read a model's arrays, never its class: models whose scales are
all 0 are integrated exactly (finite weighted sums), the rest by Monte
Carlo with a standard error. Functions that promise an inequality check
it internally and raise :class:`CheckFailure` when the data contradicts
it beyond 3 standard errors.
"""

from dataclasses import dataclass

import numpy as np

from . import noise as noise_mod
from ._files import write_csv
from .noise import IsotropicGaussian, SphericalMixture, prob_norm_below
from .vectors import _check_threshold, _clip_rows, as_vector, clip_batch, norm, row_norms

__all__ = [
    "CheckFailure",
    "BoundReport",
    "BiasLedger",
    "clip_scores",
    "expected_clipped_inner",
    "expected_clipped_gradient",
    "symmetric_lower_bound",
    "mixture_lower_bound",
    "clipping_bias",
    "wasserstein_clip",
    "descent_function",
    "censored_normal_clip_mean",
    "perturbation_gap",
    "descent_ledger",
]


class CheckFailure(AssertionError):
    """An internally asserted inequality failed on the computed data."""


@dataclass(frozen=True)
class BoundReport:
    """Estimate of E[s] next to its proven lower bound."""

    estimate: float
    std_error: float
    lower_bound: float
    prob_term: float
    z: float

    @property
    def margin(self):
        return self.estimate - self.lower_bound


def clip_scores(v, noises, c):
    """Scores s(xi) = <v, clip(v + xi, c)> for rows of ``noises``.

    A 1-D ``noises`` holds scalar noises, so it needs a 1-D ``v``.
    """
    v = as_vector(v)
    return _clip_shifted(v, noises, c) @ v


def _clip_shifted(v, noises, c):
    """clip(v + xi, c) for every row xi of ``noises``, which must have the
    dim of ``v``: the exact routes check it here."""
    noises = np.asarray(noises, dtype=np.float64)
    if noises.ndim == 1:
        noises = noises[:, None]
    _check_dims(v, noises.shape[1])
    return clip_batch(v[None, :] + noises, c)


def _clip_shifted_map(v, model, c):
    """The Monte Carlo row map xi -> clip(v + xi, c) of draws of ``model``,
    whose dim is checked here once. It runs on pool threads, so it calls
    the clip's private body (see ``noise._pool``)."""
    _check_dims(v, model.dim)
    return lambda xi: _clip_rows(v + xi, c)


def expected_clipped_inner(v, model, c, stream=None, mc_samples=0):
    """E[s(xi)] for xi ~ model, as ``(value, std_error)``.

    Models whose scales are all 0 are summed exactly (std_error 0). The
    rest, or any with ``mc_samples``, use Monte Carlo draws from ``stream``.
    """
    v = as_vector(v)
    if not (mc_samples or model.scales.any()):
        scores = clip_scores(v, model.centers, c)
        return float(_weighted_sum(scores, model.weights)), 0.0
    return noise_mod._mc_moments(model, stream, mc_samples, _clip_shifted_map(v, model, c), v)


def expected_clipped_gradient(v, model, c, stream=None, mc_samples=0):
    """E[clip(v + xi, c)] as ``(vector, std_error_vector)``."""
    v = as_vector(v)
    if not (mc_samples or model.scales.any()):
        return model.weights @ _clip_shifted(v, model.centers, c), np.zeros(v.shape[0])
    return noise_mod._mc_moments(model, stream, mc_samples, _clip_shifted_map(v, model, c))


def assert_symmetric(model):
    """Raise ValueError unless the model is symmetric about the origin.

    Components are checked as ``[center, scale]`` rows, duplicates merged
    first: every row needs its reflection (negated center, same scale) at
    equal weight. A component at the origin is its own reflection.
    """
    rows = np.column_stack([model.centers, model.scales])
    rows, weights, _ = noise_mod._merge_atoms(rows, model.weights)
    n = rows.shape[0]
    # Merging the rows with their reflections at negated weights leaves
    # w(a) - w(-a) on row a; a reflection that is not a row lands on a
    # row past the first n.
    reflected = np.column_stack([-rows[:, :-1], rows[:, -1]])
    _, gaps, inverse = noise_mod._merge_atoms(
        np.concatenate([rows, reflected]), np.concatenate([weights, -weights])
    )
    bad = (inverse[n:] >= n) | (np.abs(gaps[:n]) > 1e-12)
    if np.any(bad):
        row = rows[np.argmax(bad)]
        raise ValueError(
            f"model is not symmetric about the origin: component {row[:-1].tolist()} "
            f"of scale {row[-1]} has no equally weighted reflection"
        )


def symmetric_lower_bound(v, model, c, z=0.25, stream=None, mc_samples=0):
    """Lower bound ||v|| * min(||v||, (1-z)c) * P(||xi|| < z*c) for
    origin-symmetric noise, reported next to an estimate of E[s].

    Raises CheckFailure if the estimate undercuts the bound by more
    than 3 standard errors, and ValueError on asymmetric input.
    """
    v = as_vector(v)
    _check_z(z)
    assert_symmetric(model)
    prob = prob_norm_below(model, z * c)[0]
    lower = descent_function(norm(v), c, z) * prob
    est, se = expected_clipped_inner(v, model, c, stream=stream, mc_samples=mc_samples)
    report = BoundReport(estimate=est, std_error=se, lower_bound=lower, prob_term=prob, z=z)
    _check_dominates(report)
    return report


def mixture_lower_bound(v, gradient_mixture, c, z=0.25, stream=None, mc_samples=0):
    """Per-component lower bound when the noisy gradient itself is a
    mixture of spherical normals with nonnegatively aligned means.

    ``gradient_mixture`` models v + xi directly: component means u_i
    must average to v and satisfy <u_i, v> >= 0. Each component
    contributes through the ball mass of its centered spherical part:

        ||v|| * sum_i w_i * min(||u_i||, (1-z)c) * cos(v, u_i) * P(||scale_i * N|| < z*c)
    """
    v = as_vector(v)
    _check_z(z)
    if not isinstance(gradient_mixture, SphericalMixture):
        raise TypeError("gradient_mixture must be a SphericalMixture")
    mix = gradient_mixture
    _check_dims(v, mix.dim)
    mean = mix.mean()
    nv = norm(v)
    if norm(mean - v) > 1e-9 * max(1.0, nv):
        raise ValueError(
            f"component means average to {mean.tolist()}, not to v={v.tolist()}"
        )
    inners = mix.centers @ v
    if np.any(inners < -1e-12):
        bad = int(np.argmin(inners))
        raise ValueError(
            f"component mean {mix.centers[bad].tolist()} is negatively aligned with v"
        )
    cnorms = row_norms(mix.centers)
    prob_terms = noise_mod._ball_mass(z * c, np.zeros_like(cnorms), mix.scales, mix.dim)
    lower = 0.0
    if nv != 0.0:
        aligned = cnorms != 0.0  # a zero center has no direction and adds nothing
        cos_align = inners[aligned] / (cnorms[aligned] * nv)
        terms = mix.weights[aligned] * np.minimum(cnorms[aligned], (1.0 - z) * c) * cos_align
        lower = nv * float(np.sum(terms * prob_terms[aligned]))

    est, se = noise_mod._mc_moments(mix, stream, mc_samples, lambda g: _clip_rows(g, c), v)
    report = BoundReport(
        estimate=est,
        std_error=se,
        lower_bound=lower,
        prob_term=float(_weighted_sum(prob_terms, mix.weights)),
        z=z,
    )
    _check_dominates(report)
    return report


def clipping_bias(v, p, q, c):
    """Exact bias integral of s against the signed measure p - q.

    Both models must be atom clouds (every scale 0); the sum runs over
    the merged support, so shared atoms cancel by weight difference.
    """
    v = as_vector(v)
    _check_atoms(p, q)
    atoms, weights, _ = noise_mod._merge_atoms(
        np.concatenate([p.centers, q.centers]), np.concatenate([p.weights, -q.weights])
    )
    scores = clip_scores(v, atoms, c)
    return float(_weighted_sum(scores, weights))


def wasserstein_clip(v, c, p, q):
    """W1 distance between p and q under the ground cost |s(a) - s(b)|.

    The cost depends on noise vectors only through their scalar score,
    so this is the exact 1-D transport distance between the pushforward
    score distributions of two atom clouds, solved by the merged-CDF rule.
    """
    v = as_vector(v)
    _check_atoms(p, q)
    scores_p = clip_scores(v, p.centers, c)
    scores_q = clip_scores(v, q.centers, c)
    return float(_transport_rows(scores_p[None, :], p.weights, scores_q[None, :], q.weights)[0])


def _transport_rows(scores_p, weights_p, scores_q, weights_q):
    """1-D W1 distance between two weighted score clouds, row by row.

    Row t of ``scores_p`` and ``scores_q`` holds the scores of p's and
    q's atoms. The merged-CDF rule sorts each row's pooled scores and
    integrates |F_p - F_q| over the gaps between them. Each side's CDF
    is accumulated on its own, in sorted order, before the two are
    differenced: at the end of a run of tied scores both sums have seen
    the same weights in the same order, so equal distributions cancel
    exactly and W(p, p) is 0.0, not rounding dust.
    """
    n_p = scores_p.shape[1]
    m = n_p + scores_q.shape[1]
    mass_p = np.concatenate([weights_p, np.zeros(m - n_p)])
    mass_q = np.concatenate([np.zeros(n_p), weights_q])
    pooled = np.concatenate([scores_p, scores_q], axis=1)
    order = pooled.argsort(axis=1, kind="stable")
    pooled = np.take_along_axis(pooled, order, axis=1)
    cdf_p = mass_p[order]
    cdf_q = mass_q[order]
    np.cumsum(cdf_p, axis=1, out=cdf_p)
    np.cumsum(cdf_q, axis=1, out=cdf_q)
    np.subtract(cdf_p, cdf_q, out=cdf_p)
    np.abs(cdf_p, out=cdf_p)
    gaps = np.subtract(pooled[:, 1:], pooled[:, :-1], out=cdf_q[:, :-1])
    np.multiply(gaps, cdf_p[:, :-1], out=gaps)
    return gaps.sum(axis=1)


def descent_function(y, c, z=0.25):
    """y * min(y, (1-z)*c) for y >= 0: the guaranteed descent rate as a
    function of the gradient norm. Equal to min(y^2, (1-z)*c*y) bit for
    bit, as rounding is monotone, and it does not square a huge y."""
    _check_z(z)
    y = np.asarray(y, dtype=np.float64)
    if np.any(y < 0.0):
        raise ValueError("descent_function is defined for y >= 0")
    out = np.minimum(y, (1.0 - z) * float(c)) * y
    return float(out) if out.ndim == 0 else out


def censored_normal_clip_mean(mean, scale, c):
    """E[clip(X, c)] for scalar X ~ N(mean, scale^2), exact.

    ``mean`` may be an array of means, which gives an array of values,
    each equal to the scalar call. Tail masses sit at -c and c; the
    interior contributes the usual truncated-normal mean terms.
    """
    from scipy import special  # see the note in clipbias.noise

    mean = np.asarray(mean, dtype=np.float64)
    scale = float(scale)
    c = float(c)
    if scale <= 0.0 or not np.isfinite(scale):
        raise ValueError(f"scale must be > 0, got {scale}")
    _check_threshold(c)
    with np.errstate(over="ignore"):  # far tails: a * a is inf and phi is 0
        a = (-c - mean) / scale
        b = (c - mean) / scale
        phi_a = np.exp(-0.5 * a * a) / np.sqrt(2.0 * np.pi)
        phi_b = np.exp(-0.5 * b * b) / np.sqrt(2.0 * np.pi)
    val = (
        -c * special.ndtr(a)
        + c * special.ndtr(-b)
        + mean * (special.ndtr(b) - special.ndtr(a))
        - scale * (phi_b - phi_a)
    )
    return float(val) if val.ndim == 0 else val


def perturbation_gap(v, model, c, k, z=0.25, stream=None, mc_samples=0):
    """E[s] under noise xi + k*zeta next to the perturbation lower bound
    ||v|| * min(||v||, (1-z)c) * P(||k*zeta|| < z*c).

    For 1-D noise whose scales are all 0 the estimate is exact via the
    censored normal mean; otherwise, or with ``mc_samples``, it is Monte Carlo.
    """
    v = as_vector(v)
    _check_z(z)
    k = float(k)
    if not 0.0 < k < np.inf:
        raise ValueError(f"perturbation scale k must be a positive real, got {k}")
    dim = v.shape[0]
    _check_dims(v, model.dim)
    prob = prob_norm_below(IsotropicGaussian(k, dim), z * c)[0]
    lower = descent_function(norm(v), c, z) * prob
    if dim == 1 and not (mc_samples or model.scales.any()):
        vs = float(v[0])
        means = censored_normal_clip_mean(vs + model.centers[:, 0], k, c)
        est = vs * float(_weighted_sum(means, model.weights))
        return BoundReport(estimate=est, std_error=0.0, lower_bound=lower, prob_term=prob, z=z)
    est, se = expected_clipped_inner(
        v, noise_mod.perturb(model, k), c, stream=stream, mc_samples=mc_samples
    )
    return BoundReport(estimate=est, std_error=se, lower_bound=lower, prob_term=prob, z=z)


@dataclass
class BiasLedger:
    """Per-step account of the descent inequality along a trajectory.

    Aggregates compare mean(lhs) + mean(bias) against the step-size
    bound gap/sqrt(T) + G*c^2/(2*sqrt(T)), padding sampled terms by 3
    standard errors of the realized-vs-expected deviations.

    The ledger keeps the columns the audit computed; ``steps``, ``lhs``
    and ``bias`` are worked out from them on each access, with the same
    bits each time.
    """

    grad_norms: np.ndarray
    e_p: np.ndarray
    e_p_tilde: np.ndarray
    realized: np.ndarray
    w_bound: np.ndarray
    prob_term: float
    z: float
    clip: float
    alpha: float
    rhs_bound: float
    std_error: float
    mean_lhs: float
    mean_bias: float
    theorem_ok: bool
    corollary_ok: bool
    wasserstein_ok: bool

    @property
    def steps(self):
        return np.arange(self.grad_norms.shape[0])

    @property
    def lhs(self):
        return self.prob_term * descent_function(self.grad_norms, self.clip, self.z)

    @property
    def bias(self):
        return self.e_p - self.e_p_tilde

    @property
    def passed(self):
        checks = [self.theorem_ok, self.corollary_ok]
        if self.wasserstein_ok is not None:
            checks.append(self.wasserstein_ok)
        return all(checks)

    def to_csv(self, path):
        write_csv(path, ["step", "grad_norm", "lhs", "b_t", "w_bound", "prob_term"], [
            self.steps, self.grad_norms, self.lhs, self.bias, self.w_bound,
            np.full(self.steps.shape[0], self.prob_term),
        ])


def descent_ledger(trajectory, z=0.25, wasserstein=None):
    """Audit a trajectory against the clipped descent guarantee.

    Uses the problem's per-sample residual model as p and its
    symmetrization ptilde = (p + p^-) / 2 as the reference, where p^- is
    p reflected through the origin, and computes per step: the
    guaranteed term lhs_t, the exact expectations E_p[s], E_ptilde[s],
    the bias b_t, and optionally the Wasserstein cap on |b_t|.

    ptilde is never built: E_ptilde[s] = (E_p[s(xi)] + E_p[s(-xi)]) / 2,
    and on the score line W(ptilde, p) = W(p^-, p) / 2, so one pass that
    scores every step against p's atoms and their negations gives every
    column.

    The trajectory must have been produced with alpha = 1/sqrt(T),
    which is the step size the aggregate bound is stated for.

    ``wasserstein``: True/False forces the per-step transport column;
    None enables it when the model is small enough to keep the ledger
    cheap (atom count <= 512 or at most 200 steps).
    """
    _check_z(z)
    problem = trajectory.problem
    T = trajectory.steps
    alpha = trajectory.config.alpha
    if abs(alpha * np.sqrt(T) - 1.0) > 1e-9:
        raise ValueError(f"ledger requires alpha = 1/sqrt(T); got alpha={alpha}, T={T}")
    # The audited guarantee is stated for the plain clipped method: the
    # telescoping step bound is pathwise only when no additive or
    # pre-clipping noise enters the update.
    if trajectory.sigma != 0.0 or trajectory.config.k != 0.0:
        raise ValueError("ledger audits clipped SGD runs; rerun with sigma = 0 and k = 0")
    p = problem.noise_residuals()
    c = trajectory.config.clip

    V = trajectory.gradients[:T]
    G = trajectory.clipped_means
    grad_norms = np.linalg.norm(V, axis=1)
    if wasserstein is None:
        wasserstein = p.atoms.shape[0] <= 512 or T <= 200
    e_p, e_reflected, w_reflected = _reflected_scores(V, p, c, wasserstein)
    e_pt = 0.5 * (e_p + e_reflected)
    bias = e_p - e_pt
    realized = np.einsum("td,td->t", V, G)

    # reflection keeps every norm, so p and ptilde share this probability
    prob = prob_norm_below(p, z * c)[0]
    lhs = prob * descent_function(grad_norms, c, z)

    w_bound = 0.5 * w_reflected  # NaN when the column is off
    wasserstein_ok = bool((-bias <= w_bound + 1e-10).all()) if wasserstein else None

    gap = problem.gap_to_optimum(trajectory.iterates[0])
    rhs = gap / np.sqrt(T) + problem.smoothness * c * c / (2.0 * np.sqrt(T))

    deltas = realized - e_p
    se = float(np.std(deltas, ddof=1) / np.sqrt(T)) if T > 1 else 0.0
    mean_lhs = float(np.mean(lhs))
    mean_bias = float(np.mean(bias))
    # The step-size bound telescopes pathwise on quadratics, so the
    # realized descent sum needs no sampling slack; only the swap from
    # realized scores to their conditional expectations does.
    theorem_ok = bool(float(np.mean(realized)) <= rhs + 1e-9)
    corollary_ok = bool(mean_lhs + mean_bias <= rhs + 3.0 * se + 1e-9)
    return BiasLedger(
        grad_norms=grad_norms,
        e_p=e_p,
        e_p_tilde=e_pt,
        realized=realized,
        w_bound=w_bound,
        prob_term=float(prob),
        z=z,
        clip=float(c),
        alpha=float(alpha),
        rhs_bound=float(rhs),
        std_error=se,
        mean_lhs=mean_lhs,
        mean_bias=mean_bias,
        theorem_ok=theorem_ok,
        corollary_ok=corollary_ok,
        wasserstein_ok=wasserstein_ok,
    )


def _reflected_scores(V, emp, c, transport):
    """E_p[s], E_p^-[s] and W(p^-, p) for every gradient row of V, exact.

    p^- is p reflected through the origin. Expands s through
    <v, clip(v + xi)> = <v, v + xi> * min(1, c/||v + xi||) with
    ||v + xi||^2 = ||v||^2 + 2<v, xi> + ||xi||^2, so one GEMM per row slice
    covers all of its (step, atom) pairs, for xi = a and xi = -a alike.

    Each row slice of ``_SLICE_DOUBLES`` pairs takes its product, is
    scored for both signs, and has its transport distances and weighted
    sums taken while it is in cache, through four slice buffers. A
    one-row product would be a GEMV, whose bits differ from a GEMM's, so
    it is taken as the last row of a two-row GEMM. The sums go through
    :func:`_weighted_sum`, not a BLAS GEMV, whose rounding follows the row
    and thread counts. A row's sum and transport distance read that row
    alone, so no column's bits depend on the slice size wherever the GEMM
    is row-local too: OpenBLAS is on the shipped problems, but not on
    every shape (10-D clouds of 4097 atoms, for one).

    The slices are shared out by ``noise._share``, one set of the four
    buffers per worker (2 MB each), and each worker writes its slices'
    rows alone. A ledger of one slice, or on one core, is scored on the
    calling thread: handing each one-slice ledger of the 1-D audits to the
    pool made their times spread wider from run to run. The product's
    right factor is a contiguous copy of ``atoms.T``: against the
    transposed view, OpenBLAS's GEMMs on several threads at once ran
    slower than the serial loop. Slices are cut as in one serial pass and
    each is computed alone, so no bit depends on the worker count. The
    transport column is NaN unless ``transport``.
    """
    atoms = emp.atoms
    weights = emp.weights
    T = V.shape[0]
    N = atoms.shape[0]
    v2 = np.einsum("td,td->t", V, V)[:, None]
    a2 = np.einsum("nd,nd->n", atoms, atoms)
    right = np.ascontiguousarray(atoms.T)
    e_plus = np.empty(T)
    e_minus = np.empty(T)
    w_gap = np.full(T, np.nan)
    rows = min(T, max(1, noise_mod._SLICE_DOUBLES // N))
    starts = iter(range(0, T, rows))

    def score(s, product, work, plus, minus):
        """Score the slice of rows from ``s`` on through one buffer set."""
        e = min(T, s + rows)
        left = V[s:e] if e - s > 1 else V[[s, s]]
        A = np.matmul(left, right, out=product[:left.shape[0]])[-(e - s):]
        s_plus, s_minus, scratch = plus[:e - s], minus[:e - s], work[:e - s]
        with np.errstate(divide="ignore"):
            _score_block(v2[s:e], A, a2, c, 1.0, scratch, s_plus)
            _score_block(v2[s:e], A, a2, c, -1.0, scratch, s_minus)
        if transport:
            w_gap[s:e] = _transport_rows(s_plus, weights, s_minus, weights)
        e_plus[s:e] = _weighted_sum(s_plus, weights, scratch)
        e_minus[s:e] = _weighted_sum(s_minus, weights, scratch)

    sets = [(np.empty((max(2, rows), N)),) + tuple(np.empty((rows, N)) for _ in range(3))
            for _ in range(min(noise_mod._SETS, noise_mod._workers(), -(-T // rows)))]
    noise_mod._share(lambda *buffers: next(starts, None), score, sets)
    return e_plus, e_minus, w_gap


def _weighted_sum(values, weights, scratch=None):
    """sum_n values[..., n] * weights[n] for every row, without BLAS.

    A BLAS dot or GEMV splits its sum by the thread count (a GEMV by the
    row count too), so its bits change with the machine. Here the
    products go through ``scratch`` (``values``' shape; a new array when
    None) and numpy sums each row pairwise along its contiguous last
    axis, so a row's bits depend on that row's values alone. The
    einsum ``"tn,n->t"`` is not row-local: above 8192 atoms its bits for a
    row change with the number of rows it is summed with.
    """
    return np.multiply(values, weights, out=scratch).sum(axis=-1)


def _score_block(v2, A, a2, c, sign, n2, out):
    """Scores s(sign * a) of a slice of rows into ``out``, in place.

    ``A`` holds <v, a> for every (row, atom) pair and ``v2``, ``a2`` the
    squared norms; ``n2`` (scratch) and ``out`` are buffers of ``A``'s
    shape. A pair with v + xi = 0 scores 0.
    """
    np.multiply(A, 2.0 * sign, out=n2)
    np.add(v2, n2, out=n2)
    np.add(n2, a2, out=n2)
    np.maximum(n2, 0.0, out=n2)
    (np.add if sign > 0.0 else np.subtract)(v2, A, out=out)
    at_origin = None if n2.all() else n2 == 0.0
    np.sqrt(n2, out=n2)
    np.divide(c, n2, out=n2)
    np.minimum(n2, 1.0, out=n2)
    np.multiply(out, n2, out=out)
    if at_origin is not None:
        out[at_origin] = 0.0


def _check_atoms(*models):
    if any(model.scales.any() for model in models):
        raise ValueError("this route is exact for atom clouds only: a scale is positive")


def _check_dims(v, dim):
    if dim != v.shape[0]:
        raise ValueError(f"noise dim {dim} does not match gradient dim {v.shape[0]}")


def _check_z(z):
    z = float(z)
    if not 0.0 < z < 1.0:
        raise ValueError(f"z must lie in (0, 1), got {z}")


def _check_dominates(report):
    slack = 3.0 * report.std_error + 1e-12
    if report.estimate < report.lower_bound - slack:
        raise CheckFailure(
            f"estimate {report.estimate} undercuts lower bound "
            f"{report.lower_bound} beyond 3 standard errors ({report.std_error})"
        )
