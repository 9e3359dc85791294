import math

import numpy as np
import pytest

from clipbias.privacy import PrivacyBudget, calibrate_sigma, check_epsilon_regime


def _budget(**kw):
    base = dict(epsilon=1.0, delta=math.exp(-1.0), n=10, T=1, m=10)
    base.update(kw)
    return PrivacyBudget(**base)


def test_unity_factors():
    b = PrivacyBudget(epsilon=1.0, delta=math.exp(-1.0), n=1, T=1, m=1)
    assert calibrate_sigma(b, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_known_sigma_squared():
    # c=2, T=100, n=1000, eps=1, delta=1e-5: sigma^2 = 4*100*ln(1e5)/1e6
    b = PrivacyBudget(epsilon=1.0, delta=1e-5, n=1000, T=100, m=1000)
    sigma = calibrate_sigma(b, 2.0)
    assert sigma**2 == pytest.approx(4.605e-3, rel=1e-3)
    assert sigma**2 == pytest.approx(4.0 * 100.0 * math.log(1e5) / 1e6, abs=1e-15)


def test_doubling_clip_doubles_sigma():
    b = _budget()
    assert calibrate_sigma(b, 2.0) == pytest.approx(2 * calibrate_sigma(b, 1.0), abs=1e-15)


def test_defining_identity_over_sweeps():
    rng = np.random.default_rng(5)
    for _ in range(50):
        eps = float(rng.uniform(0.1, 5.0))
        delta = float(rng.uniform(1e-8, 0.5))
        n = int(rng.integers(1, 10_000))
        T = int(rng.integers(1, 1000))
        v = float(rng.uniform(0.1, 10.0))
        c = float(rng.uniform(0.01, 100.0))
        b = PrivacyBudget(epsilon=eps, delta=delta, n=n, T=T, m=min(8, n), v=v)
        sigma = calibrate_sigma(b, c)
        ratio = sigma**2 * n**2 * eps**2 / (v * c**2 * T * math.log(1.0 / delta))
        assert abs(ratio - 1.0) < 1e-12


def test_monotonicities():
    base = _budget(n=100, T=10, m=50, delta=1e-4)
    s0 = calibrate_sigma(base, 1.0)
    assert calibrate_sigma(_budget(n=100, T=20, m=50, delta=1e-4), 1.0) > s0
    assert calibrate_sigma(_budget(n=100, T=10, m=50, delta=1e-6), 1.0) > s0
    assert calibrate_sigma(_budget(n=200, T=10, m=50, delta=1e-4), 1.0) < s0
    assert calibrate_sigma(_budget(n=100, T=10, m=50, delta=1e-4, epsilon=2.0), 1.0) < s0
    assert calibrate_sigma(_budget(n=100, T=10, m=50, delta=1e-4, v=4.0), 1.0) == pytest.approx(
        2 * s0, abs=1e-15
    )


def test_budget_validation():
    with pytest.raises(ValueError):
        _budget(delta=1.0)
    with pytest.raises(ValueError):
        _budget(delta=0.0)
    with pytest.raises(ValueError):
        _budget(epsilon=0.0)
    with pytest.raises(ValueError):
        _budget(m=11)  # m > n
    with pytest.raises(ValueError):
        _budget(T=0)
    with pytest.raises(ValueError):
        _budget(n=0)
    # counts are integers, numpy's too; a fraction is refused by name
    for name, value in (("n", 10.5), ("T", 2.5), ("m", 3.0)):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            _budget(**{name: value})
    assert _budget(n=np.int64(10), T=np.int32(2), m=np.int64(3)).T == 2


def test_epsilon_regime():
    # boundary counts as inside
    assert check_epsilon_regime(PrivacyBudget(epsilon=1.0, delta=0.5, n=5, T=1, m=5))
    # eps=1 > 1 * 0.1^2 * 10 = 0.1
    b = PrivacyBudget(epsilon=1.0, delta=0.5, n=100, T=10, m=10)
    assert not check_epsilon_regime(b)
    b_small = PrivacyBudget(epsilon=0.05, delta=0.5, n=100, T=10, m=10)
    assert check_epsilon_regime(b_small)
