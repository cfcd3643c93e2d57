import math

import numpy as np
import pytest

from helpers import exact_instance_grid, gaussian_spec, random_psd, random_spd
from tailsgd.bounds import (
    RateConstants,
    bias_term,
    excess_risk,
    mle_fit,
    rate_constants,
    rho_misspec,
    risk_bound,
    sigma2_mle,
    variance_term,
)
from tailsgd.distributions import Moments, SampleStream, exact_moments
from tailsgd.errors import (
    EmptyWindowError,
    NonFiniteResultError,
    SingularMomentsError,
    StepSizeError,
    ZeroNoiseError,
)
from tailsgd.stationary import refined_trace_bound


def moments(h, sigma, r2=None):
    h = np.asarray(h, dtype=float)
    return Moments(H=h, Sigma=np.asarray(sigma, dtype=float),
                   w_star=np.zeros(h.shape[0]),
                   R2=float(np.trace(h) + 2.0 * np.linalg.eigvalsh(h)[-1]) if r2 is None else r2,
                   exact=True)


def test_sigma2_mle_oracles():
    assert sigma2_mle(moments(np.diag([1.0, 2.0]), np.diag([2.0, 2.0]))) == pytest.approx(1.5)
    assert sigma2_mle(moments(np.eye(3), 4.0 * np.eye(3))) == pytest.approx(6.0)
    assert sigma2_mle(moments(np.eye(2), np.zeros((2, 2)))) == 0.0


def test_rho_misspec_oracles():
    assert rho_misspec(moments(np.eye(2), np.diag([1.0, 0.0]))) == pytest.approx(2.0, rel=1e-12)
    # additive independent noise: Sigma proportional to H gives exactly 1
    h = random_spd(4, 3)
    assert rho_misspec(moments(h, 0.7 * h)) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ZeroNoiseError):
        rho_misspec(moments(np.eye(2), np.zeros((2, 2))))


def test_rho_is_at_least_one_for_any_noise_shape():
    for seed in range(25):
        d = 1 + seed % 5
        m = moments(random_spd(d, seed), random_psd(d, 1000 + seed))
        assert rho_misspec(m) >= 1.0 - 1e-12


def test_bias_term_oracles():
    assert bias_term(0.1, 1.0, 10, 3.0, 1.0) == pytest.approx(0.5 * math.exp(-1.0) * 3.0)
    assert bias_term(0.1, 1.0, 0, 5.0, 2.0) == pytest.approx(5.0)  # no decay yet
    ts = [bias_term(0.1, 1.0, t, 5.0, 2.0) for t in (0, 10, 100, 1000)]
    assert ts == sorted(ts, reverse=True)
    with pytest.raises(ValueError):
        bias_term(0.1, 1.0, -1, 5.0, 2.0)


def test_variance_term_oracles():
    # gamma R^2 = 1/2 doubles the floor; 0.4 gives the factor 5/3
    assert variance_term(0.1, 5.0, 1.0, 1.5, 1000) == pytest.approx(2.0 * 1.5 / 1000)
    assert variance_term(0.1, 4.0, 1.0, 3.0, 100) == pytest.approx((5.0 / 3.0) * 0.03)
    assert variance_term(0.1, 5.0, 1.0, 0.0, 10) == 0.0
    with pytest.raises(StepSizeError):
        variance_term(0.25, 4.0, 1.0, 1.0, 10)
    with pytest.raises(EmptyWindowError):
        variance_term(0.1, 5.0, 1.0, 1.0, 0)


def test_variance_term_grows_with_stepsize_and_rho():
    vals = [variance_term(f / 5.0, 5.0, 1.0, 1.0, 100) for f in (0.2, 0.5, 0.9)]
    assert vals == sorted(vals)
    assert variance_term(0.1, 5.0, 2.0, 1.0, 100) > variance_term(0.1, 5.0, 1.0, 1.0, 100)


def test_risk_bound_composition():
    rc = RateConstants(gamma=0.1, mu=1.0, r2=5.0, d=3, sigma2=1.5, rho=1.0)
    rb = risk_bound(rc, 0, 1000, 0.0)
    assert rb.bias == 0.0
    assert rb.total == pytest.approx(0.003, rel=1e-12)  # pure variance floor
    rb2 = risk_bound(rc, 500, 1000, 1.0)
    assert rb2.total == pytest.approx(
        (math.sqrt(rb2.bias) + math.sqrt(rb2.variance)) ** 2, rel=1e-15)
    assert rb2.bias == pytest.approx(0.5 * math.exp(-50.0) * 5.0)
    with pytest.raises(EmptyWindowError):
        risk_bound(rc, 1000, 1000, 1.0)


def test_a_bound_whose_square_overflows_is_not_finite():
    # b and v are finite, near 5e307 each, and (sqrt b + sqrt v)^2 is not: a
    # Python float's ** once raised OverflowError there
    rc = RateConstants(gamma=1e-300, mu=1.0, r2=2.0, d=1, sigma2=5e307, rho=1.0)
    with pytest.raises(NonFiniteResultError, match="^total: "):
        risk_bound(rc, 0, 1, 5e307)


def test_rate_constants_from_moments():
    m = exact_moments(gaussian_spec(3, sigma=1.0))
    rc = rate_constants(m, 0.1)
    assert (rc.r2, rc.mu, rc.d) == (5.0, 1.0, 3)
    assert rc.sigma2 == pytest.approx(1.5) and rc.rho == pytest.approx(1.0)
    noiseless = rate_constants(exact_moments(gaussian_spec(3, sigma=0.0)), 0.1)
    assert noiseless.sigma2 == 0.0 and noiseless.rho == 1.0
    with pytest.raises(StepSizeError):
        rate_constants(m, 0.2)


def test_variance_term_equals_scaled_trace_cap():
    # the variance term is exactly the refined stationary trace cap spread
    # over the window
    window = 750
    for inst in exact_instance_grid()[:6]:
        m = moments(inst.h, inst.sigma, r2=inst.r2)
        rc = rate_constants(m, 0.5 / inst.r2)
        via_trace = refined_trace_bound(inst.sigma, inst.h, rc.gamma, inst.r2) / (rc.gamma * window)
        direct = variance_term(rc.gamma, inst.r2, rc.rho, rc.sigma2, window)
        assert direct == pytest.approx(via_trace, rel=1e-12)


def test_excess_risk_oracles():
    m = moments(np.diag([1.0, 4.0]), np.eye(2))
    assert excess_risk([1.0, 1.0], m) == pytest.approx(2.5)
    assert excess_risk([0.0, 0.0], m) == 0.0
    shifted = Moments(H=np.diag([1.0, 4.0]), Sigma=np.eye(2),
                      w_star=np.array([1.0, 1.0]), R2=13.0, exact=True)
    assert excess_risk([1.0, 1.0], shifted) == 0.0


def test_mle_fit_recovers_interpolations():
    x = np.array([[1.0, 0.0], [1.0, 1.0]])
    w = np.array([2.0, -1.0])
    assert np.allclose(mle_fit(x, x @ w), w, atol=1e-12)
    g = np.random.default_rng(4)
    xo = g.standard_normal((50, 3))
    wo = g.standard_normal(3)
    assert np.allclose(mle_fit(xo, xo @ wo), wo, atol=1e-10)
    with pytest.raises(SingularMomentsError):
        mle_fit(np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        mle_fit(np.ones((3, 2)), np.ones(4))


def test_mle_fit_risk_scales_like_sigma2_over_n():
    spec = gaussian_spec(3, sigma=1.0)
    m = exact_moments(spec)
    n, fits = 2000, 300
    risks = []
    for i in range(fits):
        x, y = SampleStream(spec, (77, i)).draw(n)
        risks.append(excess_risk(mle_fit(x, y), m))
    mean = float(np.mean(risks))
    assert mean == pytest.approx(sigma2_mle(m) / n, rel=0.2)


def test_rate_constants_validation():
    with pytest.raises(ValueError):
        RateConstants(gamma=0.1, mu=0.0, r2=5.0, d=2, sigma2=1.0, rho=1.0)
    with pytest.raises(ValueError):
        RateConstants(gamma=0.1, mu=1.0, r2=5.0, d=2, sigma2=-1.0, rho=1.0)
    with pytest.raises(StepSizeError):
        RateConstants(gamma=0.5, mu=1.0, r2=5.0, d=2, sigma2=1.0, rho=1.0)
