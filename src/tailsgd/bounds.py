"""Closed-form risk bounds for tail-averaged constant-stepsize SGD.

The excess risk of the average over [t, T) of a run started at w_0 is bounded
by

    ( sqrt(bias) + sqrt(variance) )^2,

    bias     = (1/2) exp(-gamma mu t) R^2 ||w_0 - w*||^2,
    variance = (1 + gamma R^2 rho / (1 - gamma R^2)) * sigma2_mle / (T - t),

where sigma2_mle = Tr(H^{-1} Sigma) / 2 is the asymptotically optimal scaled
risk, and rho = d ||Sigma||_H / Tr(H^{-1} Sigma) >= 1 measures how far the
noise geometry is from the well-specified case rho = 1.  The variance factor
equals the stationary trace cap of ``stationary.refined_trace_bound`` divided
by gamma (T - t); both routes are kept callable so they can be checked
against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Moments
from .errors import EmptyWindowError, NonFiniteResultError, StepSizeError, ZeroNoiseError
from .matcore import check_spans, matrix_norm_under, weighted_norm_sq


def sigma2_mle(m: Moments) -> float:
    """Half-trace of H^{-1} Sigma, the scaled risk a maximum-likelihood
    plug-in attains in the large-sample limit."""
    return 0.5 * float(np.trace(np.linalg.solve(m.H, m.Sigma)))


def rho_misspec(m: Moments) -> float:
    """Noise-geometry ratio d ||Sigma||_H / Tr(H^{-1} Sigma).

    Equals 1 for well-specified noise Sigma = sigma^2 H; raises ZeroNoiseError
    for noiseless models rather than returning 0/0.
    """
    if m.noiseless:
        raise ZeroNoiseError("rho is undefined for a noiseless model (Sigma = 0)")
    return m.d * matrix_norm_under(m.Sigma, m.H) / float(np.trace(np.linalg.solve(m.H, m.Sigma)))


@dataclass(frozen=True)
class RateConstants:
    """Everything the risk bound needs about one (model, stepsize) pair.

    For noiseless models ``rho`` is stored as 1; it multiplies a vanishing
    variance term, and the defined quantity would be 0/0.
    """

    gamma: float
    mu: float
    r2: float
    d: int
    sigma2: float
    rho: float

    def __post_init__(self):
        StepSizeError.check(self.gamma, self.r2)
        if self.mu <= 0.0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.sigma2 < 0.0:
            raise ValueError(f"sigma2 must be nonnegative, got {self.sigma2}")
        if self.rho <= 0.0:
            raise ValueError(f"rho must be positive, got {self.rho}")


def rate_constants(m: Moments, gamma: float) -> RateConstants:
    """Collect the bound's constants from a model's moments."""
    return RateConstants(
        gamma=gamma,
        mu=m.mu,
        r2=m.R2,
        d=m.d,
        sigma2=0.0 if m.noiseless else sigma2_mle(m),
        rho=1.0 if m.noiseless else rho_misspec(m),
    )


def bias_term(gamma: float, mu: float, t: int, r2: float, dist0_sq: float) -> float:
    """Decay of the starting error: (1/2) exp(-gamma mu t) R^2 ||w_0 - w*||^2."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if dist0_sq < 0.0:
        raise ValueError(f"squared distance must be nonnegative, got {dist0_sq}")
    return 0.5 * math.exp(-gamma * mu * t) * r2 * dist0_sq


def variance_term(gamma: float, r2: float, rho: float, sigma2: float, window: int) -> float:
    """Noise floor of the averaged iterate:
    (1 + gamma R^2 rho / (1 - gamma R^2)) sigma2 / window."""
    if window < 1:
        raise EmptyWindowError(f"window must contain at least one iterate, got {window}")
    StepSizeError.check(gamma, r2)
    return (1.0 + gamma * r2 * rho / (1.0 - gamma * r2)) * sigma2 / window


@dataclass(frozen=True)
class RiskBound:
    """Evaluated bound at one (t, T): the two terms and their combination
    total = (sqrt(bias) + sqrt(variance))^2."""

    bias: float
    variance: float
    total: float
    t: int
    T: int

    def __post_init__(self):
        NonFiniteResultError.check(self)


def risk_bound(rc: RateConstants, t: int, T: int, dist0_sq: float) -> RiskBound:
    """Excess-risk bound for the average over [t, T) started ||w_0 - w*|| away."""
    if not 0 <= t < T:
        raise EmptyWindowError(f"averaging window [{t}, {T}) is empty")
    b = bias_term(rc.gamma, rc.mu, t, rc.r2, dist0_sq)
    v = variance_term(rc.gamma, rc.r2, rc.rho, rc.sigma2, T - t)
    return RiskBound(bias=b, variance=v, total=_combined(b, v), t=t, T=T)


def _combined(bias: float, variance: float) -> float:
    """(sqrt(bias) + sqrt(variance))^2, infinite where the square overflows:
    a Python float's ``**`` raises OverflowError there."""
    try:
        return (math.sqrt(bias) + math.sqrt(variance)) ** 2
    except OverflowError:
        return math.inf


def excess_risk(w, m: Moments) -> float:
    """Population excess risk (1/2) ||w - w*||_H^2 of a fixed parameter."""
    wv = np.asarray(w, dtype=float)
    return 0.5 * weighted_norm_sq(wv - m.w_star, m.H)


def mle_fit(x, y) -> np.ndarray:
    """Least-squares fit (X^T X)^{-1} X^T y, the maximum-likelihood parameter
    under Gaussian noise.  Raises SingularMomentsError when the design does
    not span R^d."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.ndim != 2 or ya.shape != (xa.shape[0],):
        raise ValueError(f"expected X (n, d) and y (n,), got {xa.shape} and {ya.shape}")
    n = xa.shape[0]
    g = xa.T @ xa / n
    check_spans(g, f"design with {n} rows")
    return np.linalg.solve(g, xa.T @ ya / n)
