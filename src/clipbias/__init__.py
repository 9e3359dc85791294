"""Clipped SGD / DP-SGD with exact tooling for measuring, bounding,
and correcting the gradient clipping bias."""

__version__ = "0.1.0"

from .diagnostics import (
    BiasLedger,
    BoundReport,
    CheckFailure,
    censored_normal_clip_mean,
    clip_scores,
    clipping_bias,
    descent_function,
    descent_ledger,
    expected_clipped_gradient,
    expected_clipped_inner,
    mixture_lower_bound,
    perturbation_gap,
    symmetric_lower_bound,
    wasserstein_clip,
)
from .noise import (
    Empirical,
    IsotropicGaussian,
    SeededStream,
    SphericalMixture,
    perturb,
    prob_norm_below,
    symmetrize,
)
from .optimizers import (
    OptimizerConfig,
    Trajectory,
    clipped_sgd,
    dp_sgd,
    dp_sgd_perturbed,
    dp_step_size,
    final_iterates,
)
from .privacy import PrivacyBudget, calibrate_sigma, check_epsilon_regime
from .problems import (
    QuadraticProblem,
    make_example1,
    make_example2,
    make_synthetic_mixture,
    problem_by_name,
)
from .probes import (
    EnsembleStats,
    Histogram,
    ProjectionProbe,
    cosine_histogram,
    gradient_ensemble_stats,
    project2d,
    symmetry_score,
)
from .vectors import clip, cosine, inner, norm

__all__ = [name for name in dir() if not name.startswith("_")]
