"""Generative models for streaming least-squares data.

Three families of (x, y) pairs:

* ``gaussian_well_specified``: x ~ N(0, H), y = w*.x + noise_sigma * eta with
  eta ~ N(0, 1) independent of x.  The noise covariance is Sigma = sigma^2 H.
* ``gaussian_misspecified``: same x, but y = w*.x + g(x) * noise_sigma * eta.
  With the default ``misspec_fn="norm_x"`` (g(x) = ||x||) all population
  moments stay in closed form; ``"one_plus_norm_x"`` (g(x) = 1 + ||x||) has no
  closed form and is only available through sampling and moment estimation.
* ``discrete``: x drawn from a finite support {x_i with probability p_i}, and
  y | x_i ~ N(y_mean_i, y_std_i^2).  The support must span R^d.

Streams use numpy's counter-based Philox bit generator seeded through
``SeedSequence([seed, *key])``.  Equal (spec, seed, key) and equal draw
patterns reproduce bit-identical samples; distinct keys give independent
streams.  For the Gaussian families the draw pattern does not matter: one
draw of 2n pairs equals two consecutive draws of n.

Gaussian covariates are x = L z with L the Cholesky factor of H, computed once
per spec.  When L is diagonal (every H the sweep grid builds) the spec keeps
only its diagonal, and a draw scales its block of normals in place with no
BLAS call; otherwise it keeps the dense factor and multiplies.  Both give the
same numbers, since each entry of the dense product is z_j L_jj plus exact
zeros.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    IntractableMomentsError,
    NotSpdError,
    SingularMomentsError,
)
from .matcore import matrix_norm_under, spd, sym

GAUSSIAN_WELL_SPECIFIED = "gaussian_well_specified"
GAUSSIAN_MISSPECIFIED = "gaussian_misspecified"
DISCRETE = "discrete"

KINDS = (GAUSSIAN_WELL_SPECIFIED, GAUSSIAN_MISSPECIFIED, DISCRETE)
MISSPEC_FNS = ("norm_x", "one_plus_norm_x")

# Relative eigenvalue floor below which a second-moment matrix counts as singular.
_SING_TOL = 1e-12


def _frozen_array(x, dtype=float) -> np.ndarray:
    a = np.array(x, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SupportAtom:
    """One atom of a discrete design: covariate x, conditional label mean and
    standard deviation, and the atom's probability."""

    x: np.ndarray
    y_mean: float
    y_std: float
    prob: float

    def __post_init__(self):
        xv = _frozen_array(self.x)
        if xv.ndim != 1:
            raise DimensionError(f"atom x must be a vector, got shape {xv.shape}")
        object.__setattr__(self, "x", xv)
        object.__setattr__(self, "y_mean", float(self.y_mean))
        object.__setattr__(self, "y_std", float(self.y_std))
        object.__setattr__(self, "prob", float(self.prob))
        if self.y_std < 0.0:
            raise ValueError(f"y_std must be nonnegative, got {self.y_std}")
        if self.prob < 0.0:
            raise ValueError(f"prob must be nonnegative, got {self.prob}")


def _discrete_second_moment(support) -> np.ndarray:
    xs = np.stack([a.x for a in support])
    ps = np.array([a.prob for a in support])
    return sym(np.einsum("k,ki,kj->ij", ps, xs, xs))


def _discrete_argmin(support) -> np.ndarray:
    h = _discrete_second_moment(support)
    b = np.sum([a.prob * a.y_mean * a.x for a in support], axis=0)
    return np.linalg.solve(h, b)


@dataclass(frozen=True)
class DistributionSpec:
    """Validated description of one data-generating model.

    ``H_spec``, ``w_star`` and ``noise_sigma`` parameterize the Gaussian
    kinds; ``support`` parameterizes the discrete kind.  ``w_star`` defaults
    to zero for Gaussian kinds and, for the discrete kind, is always the
    population least-squares minimizer implied by the support (supplying a
    conflicting value is an error).
    """

    kind: str
    d: int
    H_spec: np.ndarray | None = None
    w_star: np.ndarray | None = None
    noise_sigma: float = 0.0
    misspec_fn: str = "norm_x"
    support: tuple[SupportAtom, ...] = field(default=())

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        if self.d < 1:
            raise DimensionError(f"dimension must be positive, got {self.d}")
        object.__setattr__(self, "noise_sigma", float(self.noise_sigma))
        if self.noise_sigma < 0.0:
            raise ValueError(f"noise_sigma must be nonnegative, got {self.noise_sigma}")

        if self.kind == DISCRETE:
            self._init_discrete()
        else:
            self._init_gaussian()

    def _init_gaussian(self):
        if self.H_spec is None:
            raise ValueError("Gaussian kinds require H_spec")
        h = spd(self.H_spec)
        if h.shape[0] != self.d:
            raise DimensionError(f"H_spec has shape {h.shape}, expected ({self.d}, {self.d})")
        object.__setattr__(self, "H_spec", _frozen_array(h))
        # every SampleStream of this spec draws through the same factor
        chol = np.linalg.cholesky(h)
        diag = np.diagonal(chol)
        if np.array_equal(chol, np.diag(diag)):
            # scales each row [z, eta] of a draw block; eta's 1.0 is exact
            chol = np.append(diag, 1.0)
        object.__setattr__(self, "_chol", _frozen_array(chol))
        w = np.zeros(self.d) if self.w_star is None else np.asarray(self.w_star, float)
        if w.shape != (self.d,):
            raise DimensionError(f"w_star has shape {w.shape}, expected ({self.d},)")
        object.__setattr__(self, "w_star", _frozen_array(w))
        if self.kind == GAUSSIAN_MISSPECIFIED:
            if self.misspec_fn not in MISSPEC_FNS:
                raise ValueError(
                    f"unknown misspec_fn {self.misspec_fn!r}; expected one of {MISSPEC_FNS}"
                )
        if self.support:
            raise ValueError("support is only valid for the discrete kind")

    def _init_discrete(self):
        if self.H_spec is not None:
            raise ValueError("H_spec is only valid for Gaussian kinds; "
                             "the discrete second moment comes from the support")
        support = tuple(self.support)
        if not support:
            raise ValueError("discrete kind requires a non-empty support")
        for atom in support:
            if atom.x.shape != (self.d,):
                raise DimensionError(
                    f"support atom x has shape {atom.x.shape}, expected ({self.d},)"
                )
        total = sum(a.prob for a in support)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"support probabilities sum to {total!r}, expected 1")
        object.__setattr__(self, "support", support)
        # the stacked support every SampleStream of this spec draws from
        object.__setattr__(self, "_atoms", (
            _frozen_array([a.x for a in support]),
            _frozen_array([a.y_mean for a in support]),
            _frozen_array([a.y_std for a in support]),
            _frozen_array(np.cumsum([a.prob for a in support])),
        ))
        h = _discrete_second_moment(support)
        evals = np.linalg.eigvalsh(h)
        if evals[0] <= _SING_TOL * max(evals[-1], 0.0):
            raise SingularMomentsError(
                f"support does not span R^{self.d}: second-moment eigenvalue "
                f"range [{evals[0]:.6e}, {evals[-1]:.6e}]"
            )
        argmin = _discrete_argmin(support)
        if self.w_star is not None:
            w = np.asarray(self.w_star, float)
            if w.shape != (self.d,):
                raise DimensionError(f"w_star has shape {w.shape}, expected ({self.d},)")
            if not np.allclose(w, argmin, rtol=1e-8, atol=1e-10):
                raise ValueError(
                    "w_star conflicts with the least-squares minimizer implied "
                    "by the support"
                )
        object.__setattr__(self, "w_star", _frozen_array(argmin))


@dataclass(frozen=True)
class Moments:
    """Population (or estimated) moments of one model.

    ``H`` is the covariate second moment, ``Sigma`` the gradient-noise
    covariance E[(y - w*.x)^2 x x^T], ``R2`` the smallest constant with
    E[||x||^2 x x^T] <= R2 * H, and ``mu`` the smallest eigenvalue of H
    (derived here, not caller-supplied).  ``exact`` distinguishes closed-form
    moments from Monte-Carlo estimates based on ``n_samples`` draws.
    """

    H: np.ndarray
    Sigma: np.ndarray
    w_star: np.ndarray
    R2: float
    exact: bool
    n_samples: int | None = None

    def __post_init__(self):
        h = spd(self.H)
        s = sym(self.Sigma)
        if s.shape != h.shape:
            raise DimensionError(f"Sigma has shape {s.shape}, expected {h.shape}")
        s_evals = np.linalg.eigvalsh(s)
        if s_evals[0] < -1e-10 * max(s_evals[-1], 1e-300):
            raise NotSpdError(
                f"Sigma is not positive semidefinite: smallest eigenvalue {s_evals[0]:.6e}"
            )
        w = np.asarray(self.w_star, float)
        if w.shape != (h.shape[0],):
            raise DimensionError(f"w_star has shape {w.shape}, expected ({h.shape[0]},)")
        object.__setattr__(self, "H", _frozen_array(h))
        object.__setattr__(self, "Sigma", _frozen_array(s))
        object.__setattr__(self, "w_star", _frozen_array(w))
        object.__setattr__(self, "R2", float(self.R2))
        if self.R2 <= 0.0:
            raise ValueError(f"R2 must be positive, got {self.R2}")

    @property
    def d(self) -> int:
        return self.H.shape[0]

    @property
    def mu(self) -> float:
        """Smallest eigenvalue of H."""
        return float(np.linalg.eigvalsh(self.H)[0])


class SampleStream:
    """Reproducible stream of iid (x, y) pairs from one DistributionSpec.

    ``seed`` may be an int or a tuple of ints; together with ``key`` it forms
    the SeedSequence entropy, so ``SampleStream(spec, s, key=(k,))`` for
    distinct k are independent streams of the same model.
    """

    def __init__(self, spec: DistributionSpec, seed, key: tuple[int, ...] = ()):
        self.spec = spec
        entropy = list(seed) if isinstance(seed, (tuple, list)) else [int(seed)]
        entropy.extend(int(k) for k in key)
        self._gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
        self.count = 0
        if spec.kind == DISCRETE:
            self._xs, self._y_mean, self._y_std, self._cum = spec._atoms
        else:
            self._chol = spec._chol

    def draw(self, n: int):
        """Draw n pairs; returns (X, y) with shapes (n, d) and (n,)."""
        if n < 1:
            raise ValueError(f"draw size must be positive, got {n}")
        spec = self.spec
        if spec.kind == DISCRETE:
            u = self._gen.random(n)
            idx = np.minimum(np.searchsorted(self._cum, u, side="right"),
                             len(self._cum) - 1)
            eta = self._gen.standard_normal(n)
            x = self._xs[idx]
            y = self._y_mean[idx] + self._y_std[idx] * eta
        else:
            # one contiguous block per draw keeps the stream split-invariant
            z = self._gen.standard_normal((n, spec.d + 1))
            if self._chol.ndim == 1:
                # in place over the contiguous block: cheaper than a fresh x
                z *= self._chol
                x = z[:, :spec.d]
            else:
                x = z[:, :spec.d] @ self._chol.T
            eta = z[:, spec.d]
            clean = x @ spec.w_star
            if spec.kind == GAUSSIAN_WELL_SPECIFIED:
                y = clean + spec.noise_sigma * eta
            elif spec.misspec_fn == "norm_x":
                y = clean + np.linalg.norm(x, axis=1) * spec.noise_sigma * eta
            else:
                y = clean + (1.0 + np.linalg.norm(x, axis=1)) * spec.noise_sigma * eta
        self.count += n
        return x, y

    def sample(self):
        """Draw a single pair (x, y)."""
        x, y = self.draw(1)
        return x[0], float(y[0])


def weighted_fourth_moment(spec: DistributionSpec) -> np.ndarray:
    """Closed-form E[||x||^2 x x^T].

    For centered Gaussian x with covariance H this is Tr(H) H + 2 H^2; for a
    discrete design it is the weighted sum over the support.
    """
    if spec.kind == DISCRETE:
        xs = np.stack([a.x for a in spec.support])
        ps = np.array([a.prob for a in spec.support])
        w = ps * np.einsum("ki,ki->k", xs, xs)
        return sym(np.einsum("k,ki,kj->ij", w, xs, xs))
    h = spec.H_spec
    return sym(np.trace(h) * h + 2.0 * (h @ h))


def exact_moments(spec: DistributionSpec) -> Moments:
    """Closed-form population moments of a spec.

    Raises IntractableMomentsError for models without closed-form moments
    (currently ``misspec_fn="one_plus_norm_x"``).
    """
    if spec.kind == GAUSSIAN_MISSPECIFIED and spec.misspec_fn != "norm_x":
        raise IntractableMomentsError(
            f"no closed-form moments for misspec_fn={spec.misspec_fn!r}; "
            "use estimate_moments"
        )
    f = weighted_fourth_moment(spec)
    if spec.kind == DISCRETE:
        h = _discrete_second_moment(spec.support)
        xs = np.stack([a.x for a in spec.support])
        ps = np.array([a.prob for a in spec.support])
        # an overflow here becomes a non-finite Sigma, which Moments rejects
        with np.errstate(over="ignore"):
            resid_sq = (np.array([a.y_mean for a in spec.support]) - xs @ spec.w_star) ** 2
            resid_sq += np.array([a.y_std for a in spec.support]) ** 2
        sigma = sym(np.einsum("k,ki,kj->ij", ps * resid_sq, xs, xs))
    else:
        h = spec.H_spec
        if spec.kind == GAUSSIAN_WELL_SPECIFIED:
            sigma = spec.noise_sigma ** 2 * h
        else:
            # residual std is noise_sigma * ||x||, so Sigma matches the
            # weighted fourth moment up to the noise scale
            sigma = spec.noise_sigma ** 2 * f
    r2 = matrix_norm_under(f, h)
    return Moments(H=h, Sigma=sigma, w_star=spec.w_star, R2=r2, exact=True)


def estimate_moments(spec: DistributionSpec, n: int, seed) -> Moments:
    """Monte-Carlo moments from n fresh draws of the model.

    Residuals are taken against the model's own minimizer.  Raises
    SingularMomentsError when the empirical second moment does not span R^d
    (always for n < d, and possible for degenerate draws at any n).
    """
    if n < spec.d:
        raise ValueError(f"need at least d={spec.d} samples, got {n}")
    x, y = SampleStream(spec, seed).draw(n)
    h = sym(x.T @ x / n)
    evals = np.linalg.eigvalsh(h)
    if evals[0] <= _SING_TOL * max(evals[-1], 0.0):
        raise SingularMomentsError(
            f"empirical second moment from {n} draws does not span R^{spec.d}"
        )
    resid_sq = (y - x @ spec.w_star) ** 2
    sigma = sym(np.einsum("n,ni,nj->ij", resid_sq, x, x) / n)
    f = sym(np.einsum("n,ni,nj->ij", np.einsum("ni,ni->n", x, x), x, x) / n)
    r2 = matrix_norm_under(f, h)
    return Moments(H=h, Sigma=sigma, w_star=spec.w_star, R2=r2, exact=False, n_samples=n)
