"""Gaussian-mechanism noise calibration for clipped subsampled SGD.

The noise multiplier follows the moments-accountant style rule

    sigma = c * sqrt(v * T * ln(1/delta)) / (n * epsilon),

valid in the regime epsilon <= u * (m/n)^2 * T. The constants u and v
are configuration inputs, not derived here.
"""

import math
import operator
from dataclasses import dataclass

__all__ = ["PrivacyBudget", "calibrate_sigma", "check_epsilon_regime"]


@dataclass(frozen=True)
class PrivacyBudget:
    """Target (epsilon, delta) for T steps of batch-m SGD over n samples.

    Args:
      epsilon: privacy loss bound, > 0.
      delta: failure probability, in (0, 1).
      n: dataset size, >= 1.
      T: number of optimizer steps, >= 1.
      m: batch size, 1 <= m <= n.
      u: regime constant in epsilon <= u * (m/n)^2 * T.
      v: calibration constant under the square root.
    """

    epsilon: float
    delta: float
    n: int
    T: int
    m: int
    u: float = 1.0
    v: float = 1.0

    def __post_init__(self):
        if not self.epsilon > 0.0 or not math.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        _check_count("n", self.n)
        _check_count("T", self.T)
        if _check_count("m", self.m) > self.n:
            raise ValueError(f"batch size m must satisfy 1 <= m <= n, got m={self.m}, n={self.n}")
        if not self.u > 0.0 or not self.v > 0.0:
            raise ValueError("constants u and v must be > 0")


def _check_count(name, value):
    """``value``, or a ValueError naming the field unless it is an integer
    (numpy's too) of at least 1."""
    try:
        if operator.index(value) >= 1:
            return value
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def calibrate_sigma(budget, c):
    """Noise scale for the Gaussian mechanism at clip threshold ``c``."""
    c = float(c)
    if not c > 0.0 or not math.isfinite(c):
        raise ValueError(f"clip threshold must be > 0, got {c}")
    num = c * math.sqrt(budget.v * budget.T * math.log(1.0 / budget.delta))
    return num / (budget.n * budget.epsilon)


def check_epsilon_regime(budget):
    """Whether epsilon lies in the regime the calibration rule covers."""
    frac = budget.m / budget.n
    return budget.epsilon <= budget.u * frac * frac * budget.T
