"""Iterate-covariance dynamics of constant-stepsize SGD and their fixed point.

Writing C_t for the second moment of w_t - w* under the variance process,
one SGD step maps

    C_{t+1} = C_t - gamma (H C_t + C_t H)
              + gamma^2 E[(x^T C_t x) x x^T] + gamma^2 Sigma.

The quartic term is the fourth-moment operator S(M) = E[(x^T M x) x x^T],
available in closed form for Gaussian and discrete designs and by sample
average otherwise.  The discrete and sampled backings contract their rows in
fixed blocks through BLAS products (``matcore._weighted_gram``), so applying
them allocates a few block-sized arrays whatever the number of rows.  The
fixed point C of the recursion solves

    L0(C) = H C + C H = gamma * (S(C) + Sigma).

Iterating the recursion itself contracts only at rate 1 - Theta(gamma mu).
``solve_stationary_fixed_point`` instead iterates the preconditioned map

    C_{k+1} = L0^{-1}(gamma (S(C_k) + Sigma)),   C_0 = 0,

with L0^{-1}(A) = V ((V^T A V) / (lam_i + lam_j)) V^T from H = V diag(lam) V^T.
Why it converges in tens of iterations whatever mu or d is:

* S and L0^{-1} both preserve the semidefinite order, so the steps
  D_k = C_k - C_{k-1} are PSD and the iterates increase towards C.
* Tr(H L0^{-1}(A)) = Tr(A) / 2, and Tr(S(M)) = Tr(M S(I)) <= R^2 Tr(HM) for
  PSD M, with R^2 the smallest constant such that S(I) <= R^2 H.  So
  Tr(H D_{k+1}) <= q Tr(H D_k) with q = gamma R^2 / 2 < 1/2.
* Summing the remaining steps, and using ||M||_F <= Tr(M) <= Tr(HM) / mu
  for PSD M,

      ||C - C_k||_F <= Tr(H (C - C_k)) / mu <= q / (1 - q) * Tr(H D_k) / mu.

* The equation defect of C_k is L0(C_k) - gamma (S(C_k) + Sigma)
  = -gamma S(D_k), a PSD matrix, so its Frobenius norm is at most its trace,
  gamma R^2 Tr(H D_k).

Both bounds are computable from Tr(H D_k) alone, and the solver stops when
both are small.  ``solve_stationary_direct`` solves the same equation as a
dense linear system in the flattened symmetric basis of ``matcore``; it is
the independent small-d oracle.

For x ~ N(0, H), S(C) = 2 H C H + Tr(HC) H, and with C~ = V^T C V,
Sigma~ = V^T Sigma V and tau = Tr(HC) the equation reads

    (lam_i + lam_j - 2 gamma lam_i lam_j) C~_ij = gamma (Sigma~_ij + tau lam_i [i = j]).

Summing lam_i C~_ii gives tau = gamma sum_i lam_i Sigma~_ii / delta_i
/ (1 - gamma sum_i lam_i^2 / delta_i), with delta_i = 2 lam_i (1 - gamma lam_i),
all positive below gamma < 1/R^2 = 1/(2 lam_max + Tr H) (Sherman-Morrison;
Defossez & Bach, 2015).  So ``solve_stationary_gaussian`` costs O(d^3).
L0^{-1}, that closed form and verify's inverse of the damped drift
H M + M H - gamma H M H all divide entrywise in H's eigenbasis
(``_eigen_inverse``).  Two a-priori bounds on the fixed point (a
spectral-norm cap and a sharper trace cap) are provided alongside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import DISCRETE, DistributionSpec, SampleStream
from .errors import (
    ConvergenceError,
    DimensionError,
    IndefiniteSolutionError,
    NonFiniteResultError,
    SingularSystemError,
    StepSizeError,
)
from .matcore import (
    _BUFFER_CAP,
    _ROW_BLOCK,
    _quad_forms,
    _weighted_gram,
    matrix_norm_under,
    spd,
    sym,
    sym_to_vec,
    sym_vec_len,
    vec_to_sym,
)

# The fixed-point iteration's relative distance and defect tolerances and
# most iterations; the direct solve's largest condition number; and
# ensure_psd_solution's relative floor, above which a negative eigenvalue is
# rounding and clipped
_FP_TOL, _FP_RESID_RTOL, _FP_MAX_ITER = 1e-11, 1e-8, 1_000_000
_COND_MAX = 1e14
_PSD_TOL = 1e-10


class FourthMomentOperator:
    """The linear map M -> E[(x^T M x) x x^T] on symmetric matrices.

    Backings: ``gaussian`` (x ~ N(0, H), closed form 2 H M H + Tr(M H) H),
    ``discrete`` (finite support, exact weighted sum), and ``monte_carlo``
    (sample average over n stored draws).  The map is self-adjoint in the
    trace inner product and preserves the semidefinite order.
    """

    def __init__(self, kind: str, *, h=None, xs=None, probs=None, exact: bool):
        self.kind = kind
        self.exact = exact
        self._h = h
        self._xs = xs
        self._probs = probs

    @classmethod
    def gaussian(cls, h) -> "FourthMomentOperator":
        return cls("gaussian", h=spd(h), exact=True)

    @classmethod
    def discrete(cls, xs, probs) -> "FourthMomentOperator":
        xa = np.asarray(xs, dtype=float)
        pa = np.asarray(probs, dtype=float)
        if xa.ndim != 2 or pa.shape != (xa.shape[0],):
            raise DimensionError(
                f"expected xs (k, d) with matching probs (k,), got {xa.shape} and {pa.shape}"
            )
        if np.any(pa < 0.0) or abs(pa.sum() - 1.0) > 1e-12:
            raise ValueError("probs must be nonnegative and sum to 1")
        return cls("discrete", xs=xa, probs=pa, exact=True)

    @classmethod
    def monte_carlo(cls, spec: DistributionSpec, n: int, seed) -> "FourthMomentOperator":
        """Backing from the covariates of n draws of a model."""
        if n < 1:
            raise ValueError(f"need at least one sample, got {n}")
        return cls.sampled(SampleStream(spec, seed).draw(n)[0])

    @classmethod
    def sampled(cls, x) -> "FourthMomentOperator":
        """Monte-Carlo backing: the sample average over the rows of x."""
        n = x.shape[0]
        return cls("monte_carlo", xs=x, probs=np.full(n, 1.0 / n), exact=False)

    @classmethod
    def from_spec(cls, spec: DistributionSpec) -> "FourthMomentOperator":
        """Exact backing for a model's covariate distribution.  Available for
        every kind: the Gaussian families share the same x marginal."""
        if spec.kind == DISCRETE:
            return cls.discrete(spec._atoms.x, spec._atoms.prob)
        return cls.gaussian(spec.H_spec)

    @property
    def d(self) -> int:
        return self._h.shape[0] if self._h is not None else self._xs.shape[1]

    def apply(self, m) -> np.ndarray:
        """E[(x^T M x) x x^T] under the backing distribution."""
        mm = sym(m)
        if mm.shape[0] != self.d:
            raise DimensionError(f"matrix has shape {mm.shape}, expected ({self.d}, {self.d})")
        if self.kind == "gaussian":
            hm = self._h @ mm
            return sym(2.0 * (hm @ self._h) + np.trace(hm) * self._h)
        return sym(_weighted_gram(self._xs, self._probs, mm))

    def apply_with_stderr(self, m):
        """Monte-Carlo mean and entrywise standard error of (x^T M x) x x^T.

        Only meaningful for the monte_carlo backing.
        """
        if self.kind != "monte_carlo":
            raise ValueError("standard errors only exist for the monte_carlo backing")
        sums = _FourthMomentSums(m)
        for i in range(0, self._xs.shape[0], _ROW_BLOCK):
            sums.add(self._xs[i:i + _ROW_BLOCK])
        return sums.mean_and_stderr()

    def r_squared_under(self, h) -> float:
        """Smallest c with E[||x||^2 x x^T] <= c * H for the given SPD H."""
        return matrix_norm_under(self.apply(np.eye(self.d)), h)


class _FourthMomentSums:
    """Running sums over row blocks of samples for the Monte-Carlo mean and
    entrywise standard error of (x^T M x) x x^T.  Blocks are added in row
    order, so the rows need never be held at once; ``apply_with_stderr`` and
    ``verify``'s sampled check both estimate S(M) through it."""

    def __init__(self, m):
        self._m = sym(m)
        d = self._m.shape[0]
        self._n = 0
        self._first, self._second = np.zeros((d, d)), np.zeros((d, d))

    def add(self, xb: np.ndarray):
        """Add the rows of one (at most ``_ROW_BLOCK``, d) block."""
        # with u_k = (x_k^T M x_k) x_k, the first moment is sum_k u_k x_k^T
        # and the entrywise second moment is (u o u)^T (x o x)
        u = xb * _quad_forms(xb, self._m)[:, None]
        self._first += u.T @ xb
        u *= u
        self._second += u.T @ (xb * xb)
        self._n += xb.shape[0]

    def mean_and_stderr(self):
        n = self._n
        mean = sym(self._first / n)
        var = np.maximum(self._second / n - mean ** 2, 0.0)
        return mean, np.sqrt(var / n)


def anticommutator(m, h) -> np.ndarray:
    """H M + M H for symmetric M and H."""
    mm = sym(m)
    hh = sym(h)
    if mm.shape != hh.shape:
        raise DimensionError(f"shape mismatch: {mm.shape} vs {hh.shape}")
    hm = hh @ mm
    return hm + hm.T


def _eigen_inverse(lam, v, pt, g: float) -> np.ndarray:
    """The M with H M + M H - g H M H = V Pt V^T, for H = V diag(lam) V^T:
    in that eigenbasis the map scales V^T M V entrywise by
    lam_i + lam_j - g lam_i lam_j."""
    return v @ (pt / (lam[:, None] + lam[None, :] - g * np.outer(lam, lam))) @ v.T


def _damped_inverse(h, p, gamma: float) -> np.ndarray:
    """The M with H M + M H - gamma H M H = P, for symmetric H and P."""
    lam, v = np.linalg.eigh(h)
    return _eigen_inverse(lam, v, v.T @ p @ v, gamma)


def covariance_step(c, h, s_op: FourthMomentOperator, sigma, gamma: float) -> np.ndarray:
    """One application of the covariance recursion."""
    cc = sym(c)
    return sym(cc - gamma * anticommutator(cc, h)
               + gamma ** 2 * (s_op.apply(cc) + sym(sigma)))


def stationary_residual(c, h, s_op: FourthMomentOperator, sigma, gamma: float) -> float:
    """Frobenius norm of the fixed-point equation defect
    || (HC + CH) - gamma (S(C) + Sigma) ||_F."""
    lhs = anticommutator(c, h)
    rhs = gamma * (s_op.apply(c) + sym(sigma))
    return float(np.linalg.norm(lhs - rhs, "fro"))


@dataclass(frozen=True)
class StationarySolution:
    """Fixed point of the covariance recursion plus solve diagnostics.

    ``residual`` is the recomputed equation defect of the returned matrix;
    ``iterations`` is set by the fixed-point solver, ``condition`` by the
    direct solver.  ``exact`` mirrors the operator backing.
    """

    cov: np.ndarray
    method: str
    residual: float
    exact: bool
    iterations: int | None = None
    condition: float | None = None

    def __post_init__(self):
        NonFiniteResultError.check(self)


def _gate(gamma: float, h, s_op: FourthMomentOperator) -> tuple[np.ndarray, float]:
    hh = spd(h)
    if hh.shape[0] != s_op.d:
        raise DimensionError(f"H has shape {hh.shape}, operator dimension is {s_op.d}")
    if gamma <= 0.0:
        raise StepSizeError(f"stepsize must be positive, got {gamma}")
    r2 = s_op.r_squared_under(hh)
    if gamma >= 1.0 / r2:
        raise StepSizeError(
            f"gamma={gamma!r} is not below 1/R^2={1.0 / r2!r} for this backing"
        )
    return hh, r2


def ensure_psd_solution(c) -> np.ndarray:
    """Clip negligible negative eigenvalues; reject genuinely indefinite C.

    The rejection threshold is -_PSD_TOL * max(1, largest |eigenvalue|).
    """
    cc = sym(c)
    evals, vecs = np.linalg.eigh(cc)
    floor = -_PSD_TOL * max(1.0, float(np.max(np.abs(evals))))
    if evals[0] < floor:
        raise IndefiniteSolutionError(
            f"solution has eigenvalue {evals[0]:.6e} below threshold {floor:.6e}"
        )
    if evals[0] < 0.0:
        cc = sym((vecs * np.maximum(evals, 0.0)) @ vecs.T)
    return cc


def _solution(c, hh, s_op: FourthMomentOperator, ss, gamma: float, **diagnostics):
    """The record of a solve: its PSD-clipped C and that C's equation defect."""
    c = ensure_psd_solution(c)
    return StationarySolution(cov=c, residual=stationary_residual(c, hh, s_op, ss, gamma),
                              exact=s_op.exact, **diagnostics)


def solve_stationary_fixed_point(h, s_op: FourthMomentOperator, sigma,
                                 gamma: float) -> StationarySolution:
    """Solve the fixed-point equation by the preconditioned iteration
    C <- L0^{-1}(gamma (S(C) + Sigma)) from C = 0, with L0(M) = HM + MH
    inverted in H's eigenbasis.

    The iteration contracts in Tr(H .) at rate q = gamma R^2 / 2 < 1/2 (see
    the module docstring), so it takes tens of iterations whatever mu or d
    is.  With D the last step, it stops when the distance bound
    q / (1 - q) * Tr(H D) / mu is at most ``_FP_TOL * ||C||_F`` and the defect
    bound gamma R^2 Tr(H D) is at most ``_FP_RESID_RTOL * gamma * ||Sigma||_F``.
    Raises ConvergenceError after ``_FP_MAX_ITER`` iterations or if the
    iteration leaves the space of finite matrices.
    """
    hh, r2 = _gate(gamma, h, s_op)
    lam, v = np.linalg.eigh(hh)
    mu = float(lam[0])
    q = 0.5 * gamma * r2
    ss = sym(sigma)
    # both stopping bounds are multiples of step = Tr(H D); gamma cancels from
    # the defect test gamma R^2 step <= _FP_RESID_RTOL gamma ||Sigma||_F
    resid_cap = _FP_RESID_RTOL * float(np.linalg.norm(ss, "fro"))
    c = np.zeros_like(hh)
    iterations = 0
    for iterations in range(1, _FP_MAX_ITER + 1):
        rhs = gamma * (s_op.apply(c) + ss)
        nxt = _eigen_inverse(lam, v, v.T @ rhs @ v, 0.0)  # L0^{-1}(rhs)
        nxt = 0.5 * (nxt + nxt.T)
        # any non-finite entry of nxt makes step non-finite
        step = float(np.sum(hh * (nxt - c)))
        if not np.isfinite(step):
            raise ConvergenceError(
                f"iteration diverged after {iterations} steps (gamma too large "
                "for this backing?)"
            )
        c = nxt
        if (q / (1.0 - q) * step / mu <= _FP_TOL * np.linalg.norm(c, "fro")
                and r2 * step <= resid_cap):
            break
    else:
        raise ConvergenceError(f"no convergence within {_FP_MAX_ITER} iterations")
    return _solution(c, hh, s_op, ss, gamma, method="fixed-point", iterations=iterations)


def solve_stationary_gaussian(h, sigma, gamma: float) -> StationarySolution:
    """Solve the fixed-point equation for x ~ N(0, H) in closed form, in H's
    eigenbasis with the scalar tau = Tr(HC) (module docstring)."""
    s_op = FourthMomentOperator.gaussian(h)
    hh, _ = _gate(gamma, h, s_op)
    ss = sym(sigma)
    lam, v = np.linalg.eigh(hh)
    st = v.T @ ss @ v
    delta = 2.0 * lam * (1.0 - gamma * lam)
    tau = (gamma * float(np.sum(lam * np.diag(st) / delta))
           / (1.0 - gamma * float(np.sum(lam ** 2 / delta))))
    c = _eigen_inverse(lam, v, gamma * (st + tau * np.diag(lam)), 2.0 * gamma)
    return _solution(c, hh, s_op, ss, gamma, method="closed-form")


def operator_matrix(apply_fn, d: int) -> np.ndarray:
    """Matrix of a linear operator on symmetric matrices in the flattened
    basis, built by applying it to each basis element.

    Raises SingularSystemError, before allocating, when the (d(d+1)/2)^2
    matrix would exceed the package's 1 GiB buffer cap (d > 151).
    """
    n = sym_vec_len(d)
    if n * n * 8 > _BUFFER_CAP:
        raise SingularSystemError(f"the dense operator matrix at d={d} needs {n * n * 8} "
                                  f"bytes, over the cap of {_BUFFER_CAP}")
    out = np.empty((n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        out[:, k] = sym_to_vec(apply_fn(vec_to_sym(e)))
    return out


def solve_stationary_direct(h, s_op: FourthMomentOperator, sigma,
                            gamma: float) -> StationarySolution:
    """Solve the fixed-point equation as a dense linear system in the
    flattened symmetric basis, of condition number at most ``_COND_MAX``."""
    hh, _ = _gate(gamma, h, s_op)
    ss = sym(sigma)
    d = hh.shape[0]
    a = operator_matrix(lambda m: anticommutator(m, hh) - gamma * s_op.apply(m), d)
    # L0 - gamma S is self-adjoint, so its matrix in the sqrt(2)-scaled basis
    # is symmetric and the condition number comes from its eigenvalues
    evals = np.abs(np.linalg.eigvalsh(a))
    lo, hi = float(evals.min()), float(evals.max())
    cond = hi / lo if lo > 0.0 else np.inf
    if not np.isfinite(cond) or cond > _COND_MAX:
        raise SingularSystemError(
            f"system condition number {cond:.3e} exceeds {_COND_MAX:.1e}")
    try:
        cvec = np.linalg.solve(a, gamma * sym_to_vec(ss))
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"stationary system is singular: {exc}") from exc
    return _solution(vec_to_sym(cvec), hh, s_op, ss, gamma, method="direct", condition=cond)


def crude_bound(sigma, h, gamma: float, r2: float) -> float:
    """Spectral cap on the stationary covariance:
    C <= [gamma ||Sigma||_H / (1 - gamma R^2)] I."""
    if not 0.0 < gamma * r2 < 1.0:
        raise StepSizeError(f"gamma R^2 must lie in (0, 1), got {gamma * r2!r}")
    return gamma * matrix_norm_under(sigma, h) / (1.0 - gamma * r2)


def refined_trace_bound(sigma, h, gamma: float, r2: float) -> float:
    """Trace cap on the stationary covariance:
    Tr(C) <= (gamma/2) Tr(H^{-1} Sigma)
             + (gamma^2 R^2 / (2 (1 - gamma R^2))) d ||Sigma||_H."""
    if not 0.0 < gamma * r2 < 1.0:
        raise StepSizeError(f"gamma R^2 must lie in (0, 1), got {gamma * r2!r}")
    hh = spd(h)
    ss = sym(sigma)
    d = hh.shape[0]
    lead = 0.5 * gamma * float(np.trace(np.linalg.solve(hh, ss)))
    tail = 0.5 * gamma ** 2 * r2 * d * matrix_norm_under(ss, hh) / (1.0 - gamma * r2)
    return lead + tail
