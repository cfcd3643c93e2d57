"""Shared builders for test instances.

``exact_instance_grid`` is the canonical list of exactly solvable problems
(operator backing, H, Sigma, and a stepsize ladder up to 0.9 / R^2) that the
solver and bound tests all iterate over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tailsgd import harness
from tailsgd.distributions import DistributionSpec, SupportAtom, exact_moments
from tailsgd.matcore import _ROW_BLOCK
from tailsgd.stationary import FourthMomentOperator, _FourthMomentSums

GAMMA_FRACS = (0.2, 0.5, 0.9)
SAMPLED_ROWS = ("fourth-moment-sampled", "noise-mean-zero", "sigma2-mle-quadratic-form")


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_spd(d: int, seed: int, cond: float = 10.0) -> np.ndarray:
    """SPD matrix with log-uniform spectrum in [1/cond, 1] and a random basis."""
    g = rng(seed)
    evals = np.exp(g.uniform(np.log(1.0 / cond), 0.0, size=d))
    q, _ = np.linalg.qr(g.standard_normal((d, d)))
    return (q * evals) @ q.T


def random_psd(d: int, seed: int) -> np.ndarray:
    g = rng(seed)
    a = g.standard_normal((d, d + 2))
    return a @ a.T / (d + 2)


def gaussian_spec(d: int = 3, h=None, w_star=None, sigma: float = 1.0,
                  kind: str = "gaussian_well_specified",
                  misspec_fn: str = "norm_x") -> DistributionSpec:
    return DistributionSpec(
        kind=kind, d=d,
        H_spec=np.eye(d) if h is None else np.asarray(h, dtype=float),
        w_star=np.ones(d) if w_star is None else np.asarray(w_star, dtype=float),
        noise_sigma=sigma, misspec_fn=misspec_fn,
    )


def discrete_spec(d: int, seed: int, noisy: bool = True) -> DistributionSpec:
    """Random spanning discrete design with d + 2 atoms."""
    g = rng(seed)
    k = d + 2
    xs = g.standard_normal((k, d))
    probs = g.dirichlet(np.full(k, 2.0))
    atoms = tuple(
        SupportAtom(x=xs[i], y_mean=float(g.standard_normal()),
                    y_std=float(abs(g.standard_normal())) if noisy else 0.0,
                    prob=float(probs[i]))
        for i in range(k)
    )
    return DistributionSpec(kind="discrete", d=d, support=atoms)


@dataclass(frozen=True)
class ExactInstance:
    """One exactly solvable problem: backing operator plus (H, Sigma, R2)."""

    name: str
    h: np.ndarray
    sigma: np.ndarray
    r2: float
    op: FourthMomentOperator


def _from_spec(name: str, spec: DistributionSpec) -> ExactInstance:
    m = exact_moments(spec)
    return ExactInstance(name=name, h=np.array(m.H), sigma=np.array(m.Sigma),
                         r2=m.R2, op=FourthMomentOperator.from_spec(spec))


def exact_instance_grid() -> list[ExactInstance]:
    """Gaussian and discrete instances with closed-form operators, d up to 10,
    covering well-specified, misspecified, and unstructured noise shapes."""
    out = []
    for d in (1, 2, 3, 5, 10):
        out.append(_from_spec(f"gauss-well-d{d}",
                              gaussian_spec(d, h=random_spd(d, 100 + d), sigma=1.0)))
        out.append(_from_spec(f"gauss-mis-d{d}",
                              gaussian_spec(d, h=random_spd(d, 200 + d), sigma=0.7,
                                            kind="gaussian_misspecified")))
    for d in (2, 4, 7):
        spec = gaussian_spec(d, h=random_spd(d, 300 + d), sigma=1.0)
        base = _from_spec(f"gauss-freeform-d{d}", spec)
        out.append(ExactInstance(name=base.name, h=base.h,
                                 sigma=random_psd(d, 400 + d), r2=base.r2, op=base.op))
    for d in (1, 3, 6):
        out.append(_from_spec(f"discrete-d{d}", discrete_spec(d, 500 + d)))
    return out


def sampled_mean_and_stderr(op: FourthMomentOperator, m):
    """The Monte-Carlo mean and entrywise standard error of (x^T M x) x x^T
    over a sampled operator's rows, added to ``_FourthMomentSums`` in blocks
    of ``_ROW_BLOCK`` rows as verify's sampled pass adds its draw."""
    sums = _FourthMomentSums(m)
    for i in range(0, op._xs.shape[0], _ROW_BLOCK):
        sums.add(op._xs[i:i + _ROW_BLOCK])
    return sums.mean_and_stderr()


def sampled_rows(cfg) -> list:
    """verify's three sampled rows, run from ``harness.VERIFY_ROWS`` on a
    record that holds the config, its moments and its sampled pass alone."""
    sampled = harness._sampled_pass(cfg.distribution, cfg.moments, cfg.seed)
    shared = harness._Verification(cfg, cfg.moments, None, *sampled, None, None, None)
    return [harness._check_row(name, check, shared) for name, check in harness.VERIFY_ROWS
            if name in SAMPLED_ROWS]
