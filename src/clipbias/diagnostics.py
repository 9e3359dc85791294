"""Lower bounds, exact bias decomposition, and transport disparity for
the expected clipped descent term.

Everything here revolves around the pushforward score

    s(xi) = <v, clip(v + xi, c)>

of a gradient v and noise xi. For symmetric noise the expected score
has a closed-form lower bound; for asymmetric noise the shortfall is
an explicit bias integral b = E_p[s] - E_ptilde[s], and |b| is capped
by a Wasserstein distance whose ground cost is |s(a) - s(b)|, which
collapses to a 1-D transport problem on the score line.

Empirical models are integrated exactly (finite weighted sums); Monte
Carlo routes exist for continuous models and always travel with a
standard error. Functions that promise an inequality check it
internally and raise :class:`CheckFailure` when the data contradicts
it beyond 3 standard errors.
"""

import csv
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import noise as noise_mod
from .noise import Empirical, IsotropicGaussian, SphericalMixture, prob_norm_below
from .vectors import as_vector, clip_batch, norm

__all__ = [
    "CheckFailure",
    "BoundReport",
    "GapReport",
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

_MC_CHUNK = 65536


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


@dataclass(frozen=True)
class GapReport:
    """Estimate of E[s] under perturbed noise next to its lower bound."""

    estimate: float
    std_error: float
    lower_bound: float

    @property
    def gap(self):
        return self.estimate - self.lower_bound


def clip_scores(v, noises, c):
    """Scores s(xi) = <v, clip(v + xi, c)> for rows of ``noises``."""
    v = as_vector(v)
    noises = np.asarray(noises, dtype=np.float64)
    if noises.ndim == 1:
        noises = noises[:, None]
    return clip_batch(v[None, :] + noises, c) @ v


def expected_clipped_inner(v, model, c, stream=None, mc_samples=0):
    """E[s(xi)] for xi ~ model, as ``(value, std_error)``.

    Empirical models are summed exactly (std_error 0). Other models use
    ``mc_samples`` Monte Carlo draws from ``stream``.
    """
    v = as_vector(v)
    if isinstance(model, Empirical) and not mc_samples:
        scores = clip_scores(v, model.atoms, c)
        return float(np.dot(model.weights, scores)), 0.0
    gen, total = _require_mc(model, stream, mc_samples)
    acc = _MomentAccumulator()
    for chunk in _chunks(total):
        acc.add(clip_scores(v, model.sample(gen, chunk), c))
    return acc.mean(), acc.std_error()


def expected_clipped_gradient(v, model, c, stream=None, mc_samples=0):
    """E[clip(v + xi, c)] as ``(vector, std_error_vector)``."""
    v = as_vector(v)
    if isinstance(model, Empirical) and not mc_samples:
        clipped = clip_batch(v[None, :] + model.atoms, c)
        return model.weights @ clipped, np.zeros(v.shape[0])
    gen, total = _require_mc(model, stream, mc_samples)
    acc = _MomentAccumulator()
    for chunk in _chunks(total):
        acc.add(clip_batch(v[None, :] + model.sample(gen, chunk), c))
    return acc.mean(), acc.std_error()


def assert_symmetric(model, tol=1e-12):
    """Raise ValueError unless the model is symmetric about the origin.

    Empirical models are checked atom by atom (every atom needs an
    exactly negated partner of equal weight, duplicates merged first).
    Mean-zero isotropic Gaussians are symmetric by construction.
    """
    if isinstance(model, IsotropicGaussian):
        return
    if not isinstance(model, Empirical):
        raise TypeError(f"cannot verify symmetry of {type(model).__name__}")
    atoms, weights, _ = noise_mod._merge_atoms(model.atoms, model.weights)
    n = atoms.shape[0]
    # Merging the cloud with its negation at negated weights leaves
    # w(a) - w(-a) on row a; a negation that is not an atom lands on a
    # row past the first n.
    _, gaps, inverse = noise_mod._merge_atoms(
        np.concatenate([atoms, -atoms]), np.concatenate([weights, -weights])
    )
    bad = (inverse[n:] >= n) | (np.abs(gaps[:n]) > tol)
    if np.any(bad):
        atom = atoms[np.argmax(bad)]
        raise ValueError(
            f"model is not symmetric about the origin: atom {atom.tolist()} "
            "has no equally weighted negation"
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
    nv = float(np.linalg.norm(v))
    lower = nv * min(nv, (1.0 - z) * c) * prob
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
    mean = mix.mean()
    if float(np.linalg.norm(mean - v)) > 1e-9 * max(1.0, float(np.linalg.norm(v))):
        raise ValueError(
            f"component means average to {mean.tolist()}, not to v={v.tolist()}"
        )
    inners = mix.centers @ v
    if np.any(inners < -1e-12):
        bad = int(np.argmin(inners))
        raise ValueError(
            f"component mean {mix.centers[bad].tolist()} is negatively aligned with v"
        )
    nv = float(np.linalg.norm(v))
    lower = 0.0
    prob_terms = np.empty(len(mix.weights))
    for i, (w, center, scale) in enumerate(zip(mix.weights, mix.centers, mix.scales)):
        cnorm = float(np.linalg.norm(center))
        prob_terms[i] = noise_mod._centered_ball_mass(z * c, scale, mix.dim)
        if cnorm == 0.0 or nv == 0.0:
            continue
        cos_align = float(np.dot(center, v)) / (cnorm * nv)
        lower += w * min(cnorm, (1.0 - z) * c) * cos_align * prob_terms[i]
    lower *= nv

    gen, total = _require_mc(mix, stream, mc_samples)
    acc = _MomentAccumulator()
    for chunk in _chunks(total):
        acc.add(clip_batch(mix.sample(gen, chunk), c) @ v)
    report = BoundReport(
        estimate=acc.mean(),
        std_error=acc.std_error(),
        lower_bound=lower,
        prob_term=float(np.dot(mix.weights, prob_terms)),
        z=z,
    )
    _check_dominates(report)
    return report


def clipping_bias(v, p, q, c):
    """Exact bias integral of s against the signed measure p - q.

    Both models must be empirical; the sum runs over the merged
    support, so shared atoms cancel by weight difference.
    """
    v = as_vector(v)
    for emp in (p, q):
        if not isinstance(emp, Empirical):
            raise TypeError("clipping_bias needs empirical models")
    atoms, weights, _ = noise_mod._merge_atoms(
        np.concatenate([p.atoms, q.atoms]), np.concatenate([p.weights, -q.weights])
    )
    scores = clip_scores(v, atoms, c)
    return float(np.dot(weights, scores))


def wasserstein_clip(v, c, p, q):
    """W1 distance between p and q under the ground cost |s(a) - s(b)|.

    The cost depends on noise vectors only through their scalar score,
    so this is the exact 1-D transport distance between the pushforward
    score distributions, solved by the merged-CDF rule.
    """
    v = as_vector(v)
    for emp in (p, q):
        if not isinstance(emp, Empirical):
            raise TypeError("wasserstein_clip needs empirical models")
    scores_p = clip_scores(v, p.atoms, c)
    scores_q = clip_scores(v, q.atoms, c)
    # Collapse tied scores per side before differencing, so equal
    # distributions cancel exactly and W(p, p) is 0.0, not rounding dust.
    values, inverse = np.unique(np.concatenate([scores_p, scores_q]), return_inverse=True)
    mass_p = np.bincount(inverse[: len(scores_p)], weights=p.weights, minlength=len(values))
    mass_q = np.bincount(inverse[len(scores_p):], weights=q.weights, minlength=len(values))
    cdf_gap = np.cumsum(mass_p - mass_q)[:-1]
    return float(np.sum(np.abs(cdf_gap) * np.diff(values)))


def descent_function(y, c, z=0.25):
    """min(y^2, (1-z)*c*y) for y >= 0: the guaranteed descent rate as a
    function of the gradient norm."""
    _check_z(z)
    y = np.asarray(y, dtype=np.float64)
    if np.any(y < 0.0):
        raise ValueError("descent_function is defined for y >= 0")
    out = np.minimum(y * y, (1.0 - z) * float(c) * y)
    return float(out) if out.ndim == 0 else out


def censored_normal_clip_mean(mean, scale, c):
    """E[clip(X, c)] for scalar X ~ N(mean, scale^2), exact.

    Tail masses sit at -c and c; the interior contributes the usual
    truncated-normal mean terms.
    """
    mean = float(mean)
    scale = float(scale)
    c = float(c)
    if scale <= 0.0 or not np.isfinite(scale):
        raise ValueError(f"scale must be > 0, got {scale}")
    if c <= 0.0:
        raise ValueError(f"clip threshold must be > 0, got {c}")
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
    return float(val)


def perturbation_gap(v, model, c, k, z=0.25, stream=None, mc_samples=0):
    """E[s] under noise xi + k*zeta next to the perturbation lower bound
    ||v|| * min(||v||, (1-z)c) * P(||k*zeta|| < z*c).

    For 1-D empirical noise the estimate is exact via the censored
    normal mean; otherwise Monte Carlo draws are used.
    """
    v = as_vector(v)
    _check_z(z)
    k = float(k)
    if k <= 0.0:
        raise ValueError(f"perturbation scale k must be > 0, got {k}")
    dim = v.shape[0]
    prob = noise_mod._centered_ball_mass(z * c, k, dim)
    nv = float(np.linalg.norm(v))
    lower = nv * min(nv, (1.0 - z) * c) * prob
    if isinstance(model, Empirical) and dim == 1 and not mc_samples:
        vs = float(v[0])
        means = vs + model.atoms[:, 0]
        est = vs * float(np.dot(
            model.weights,
            [censored_normal_clip_mean(mu, k, c) for mu in means],
        ))
        return GapReport(estimate=est, std_error=0.0, lower_bound=lower)
    est, se = expected_clipped_inner(
        v, noise_mod.perturb(model, k), c, stream=stream, mc_samples=mc_samples
    )
    return GapReport(estimate=est, std_error=se, lower_bound=lower)


@dataclass
class BiasLedger:
    """Per-step account of the descent inequality along a trajectory.

    Aggregates compare mean(lhs) + mean(bias) against the step-size
    bound gap/sqrt(T) + G*c^2/(2*sqrt(T)), padding sampled terms by 3
    standard errors of the realized-vs-expected deviations.
    """

    steps: np.ndarray
    grad_norms: np.ndarray
    lhs: np.ndarray
    e_p: np.ndarray
    e_p_tilde: np.ndarray
    bias: np.ndarray
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
    def passed(self):
        checks = [self.theorem_ok, self.corollary_ok]
        if self.wasserstein_ok is not None:
            checks.append(self.wasserstein_ok)
        return all(checks)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "grad_norm", "lhs", "b_t", "w_bound", "prob_term"])
            for i, t in enumerate(self.steps):
                if self.w_bound is None or not np.isfinite(self.w_bound[i]):
                    w_col = ""
                else:
                    w_col = repr(float(self.w_bound[i]))
                writer.writerow([
                    int(t),
                    repr(float(self.grad_norms[i])),
                    repr(float(self.lhs[i])),
                    repr(float(self.bias[i])),
                    w_col,
                    repr(float(self.prob_term)),
                ])


def descent_ledger(trajectory, noise_model=None, z=0.25, wasserstein=None):
    """Audit a trajectory against the clipped descent guarantee.

    Uses the per-sample residual model (default: the problem's own) as
    p, its symmetrization as ptilde, and computes per step: the
    guaranteed term lhs_t, the exact expectations E_p[s], E_ptilde[s],
    the bias b_t, and optionally the Wasserstein cap on |b_t|.

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
    p = problem.noise_residuals() if noise_model is None else noise_model
    if not isinstance(p, Empirical):
        raise TypeError("descent_ledger needs an empirical noise model")
    if p.dim != problem.dim:
        raise ValueError("noise model dim does not match problem dim")
    c = trajectory.config.clip
    p_tilde = noise_mod.symmetrize(p)

    V = trajectory.gradients[:T]
    G = trajectory.clipped_means
    grad_norms = np.linalg.norm(V, axis=1)
    e_p = _expected_scores(V, p, c)
    e_pt = _expected_scores(V, p_tilde, c)
    bias = e_p - e_pt
    realized = np.einsum("td,td->t", V, G)

    prob = prob_norm_below(p_tilde, z * c)[0]
    lhs = prob * np.minimum(grad_norms, (1.0 - z) * c) * grad_norms

    if wasserstein is None:
        wasserstein = p.atoms.shape[0] <= 512 or T <= 200
    if wasserstein:
        w_bound = np.array([wasserstein_clip(V[t], c, p_tilde, p) for t in range(T)])
        wasserstein_ok = bool(np.all(-bias <= w_bound + 1e-10))
    else:
        w_bound = np.full(T, np.nan)
        wasserstein_ok = None

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
        steps=np.arange(T),
        grad_norms=grad_norms,
        lhs=lhs,
        e_p=e_p,
        e_p_tilde=e_pt,
        bias=bias,
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


def _expected_scores(V, emp, c):
    """E_p[s(xi)] for every gradient row of V, exact, chunked.

    Expands s through <v, clip(v + xi)> = <v, v + xi> * min(1, c/||v + xi||)
    with ||v + xi||^2 = ||v||^2 + 2<v, xi> + ||xi||^2, so one GEMM per
    chunk covers all (step, atom) pairs.
    """
    atoms = emp.atoms
    weights = emp.weights
    T = V.shape[0]
    N = atoms.shape[0]
    v2 = np.einsum("td,td->t", V, V)
    a2 = np.einsum("nd,nd->n", atoms, atoms)
    out = np.empty(T)
    block = max(1, _MC_CHUNK * 64 // max(1, N))
    with np.errstate(divide="ignore"):
        for lo in range(0, T, block):
            hi = min(T, lo + block)
            A = V[lo:hi] @ atoms.T
            n2 = np.maximum(v2[lo:hi, None] + 2.0 * A + a2[None, :], 0.0)
            inner = v2[lo:hi, None] + A
            factor = np.minimum(1.0, c / np.sqrt(n2))
            scores = np.where(n2 > 0.0, inner * factor, 0.0)
            out[lo:hi] = scores @ weights
    return out


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


def _require_mc(model, stream, mc_samples):
    if not mc_samples:
        raise ValueError(
            f"{type(model).__name__} has no exact route here; pass mc_samples and a stream"
        )
    if stream is None:
        raise ValueError("Monte Carlo route needs a stream")
    gen = stream.generator() if hasattr(stream, "generator") else stream
    return gen, int(mc_samples)


def _chunks(total):
    done = 0
    while done < total:
        step = min(_MC_CHUNK, total - done)
        yield step
        done += step


class _MomentAccumulator:
    """Streaming mean and standard error over chunked samples."""

    def __init__(self):
        self.count = 0
        self.total = None
        self.total_sq = None

    def add(self, values):
        values = np.asarray(values, dtype=np.float64)
        s = values.sum(axis=0)
        s2 = (values * values).sum(axis=0)
        if self.total is None:
            self.total = s
            self.total_sq = s2
        else:
            self.total = self.total + s
            self.total_sq = self.total_sq + s2
        self.count += values.shape[0]

    def mean(self):
        m = self.total / self.count
        return float(m) if np.ndim(m) == 0 else m

    def std_error(self):
        m = self.total / self.count
        var = np.maximum(self.total_sq / self.count - m * m, 0.0)
        # ddof correction barely matters at MC scale but keep it honest
        if self.count > 1:
            var = var * (self.count / (self.count - 1))
        se = np.sqrt(var / self.count)
        return float(se) if np.ndim(se) == 0 else se
