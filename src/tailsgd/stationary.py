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
(``_eigen_inverse``).  The same eigenbasis diagonalizes the recursion
itself where Sigma commutes with H, as for both Gaussian kinds: from C = 0
every iterate is V diag(v) V^T, so ``covariance_walk`` steps a d-vector.
Two a-priori bounds on the fixed point (a spectral-norm cap and a sharper
trace cap) are provided alongside.
"""

from __future__ import annotations

import math
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
    _quad_forms,
    _weighted_gram,
    frobenius,
    matrix_norm_under,
    spd,
    spectral_norm,
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
# covariance_walk's largest off-diagonal entry of V^T Sigma V, relative to
# its largest diagonal one, at which Sigma counts as diagonal in H's
# eigenbasis; rounding leaves about sqrt(d) ulps
_COMMUTE_RTOL = 1e-12
# steps of covariance_walk from C = 0
_WALK_STEPS = 300


class FourthMomentOperator:
    """The linear map M -> E[(x^T M x) x x^T] on symmetric matrices.

    Backings: ``gaussian`` (x ~ N(0, H), closed form 2 H M H + Tr(M H) H),
    ``discrete`` (finite support, exact weighted sum), and ``monte_carlo``
    (sample average over n stored draws).  The map is self-adjoint in the
    trace inner product and preserves the semidefinite order.
    """

    def __init__(self, kind: str, *, h=None, xs=None, probs=None):
        self.kind = kind
        # only a sample average is an estimate
        self.exact = kind != "monte_carlo"
        self._h = h
        self._xs = xs
        self._probs = probs

    @classmethod
    def gaussian(cls, h) -> "FourthMomentOperator":
        return cls("gaussian", h=spd(h))

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
        return cls("discrete", xs=xa, probs=pa)

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
        return cls("monte_carlo", xs=x, probs=np.full(n, 1.0 / n))

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

    def r_squared_under(self, h) -> float:
        """Smallest c with E[||x||^2 x x^T] <= c * H for the given SPD H."""
        return matrix_norm_under(self.apply(np.eye(self.d)), h)


class _FourthMomentSums:
    """Running sums over row blocks of samples for the Monte-Carlo mean and
    entrywise standard error of (x^T M x) x x^T.  Blocks are added in row
    order, so the rows need never be held at once; ``verify``'s sampled check
    estimates S(H) through it.

    The sums are of the terms of x / 2^k and M / 4^k, with 4^k within a
    factor of 4 of ||M||_2 (for M = H, of E[x x^T]), fixed before the first
    block: they stay in range wherever the mean does.  Dividing by a power of
    two is exact, so the mean and standard error, scaled back by 2^(6k), keep
    every bit of unscaled sums that neither overflow nor underflow."""

    def __init__(self, m):
        m = sym(m)
        self.k = math.frexp(spectral_norm(m))[1] // 2
        self._m = np.ldexp(m, -2 * self.k)
        d = m.shape[0]
        self._n = 0
        self._first, self._second = np.zeros((d, d)), np.zeros((d, d))

    def add(self, xb: np.ndarray):
        """Add the rows of one (at most ``_ROW_BLOCK``, d) block, silent on overflow."""
        # with u_k = (x_k^T M x_k) x_k, the first moment is sum_k u_k x_k^T
        # and the entrywise second moment is (u o u)^T (x o x)
        with np.errstate(over="ignore", invalid="ignore"):
            if self.k:
                xb = np.ldexp(xb, -self.k)
            u = xb * _quad_forms(xb, self._m)[:, None]
            self._first += u.T @ xb
            u *= u
            self._second += u.T @ (xb * xb)
        self._n += xb.shape[0]

    def mean_and_stderr(self):
        """The mean and entrywise standard error; NonFiniteResultError if a
        sum overflowed, or the mean or standard error does not fit a float."""
        if not (np.isfinite(self._first).all() and np.isfinite(self._second).all()):
            raise NonFiniteResultError("fourth-moment sums")
        n = self._n
        mean = sym(self._first / n)
        var = np.maximum(self._second / n - mean ** 2, 0.0)
        with np.errstate(over="ignore"):
            mean, se = np.ldexp(mean, 6 * self.k), np.ldexp(np.sqrt(var / n), 6 * self.k)
        if not (np.isfinite(mean).all() and np.isfinite(se).all()):
            raise NonFiniteResultError("fourth-moment sums")
        return mean, se


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


def _gamma_squared(gamma: float) -> float:
    """gamma^2 as a Python float; NonFiniteResultError naming it where the
    square overflows, which a float's ``**`` raises as a bare OverflowError."""
    try:
        return float(gamma) ** 2
    except OverflowError:
        raise NonFiniteResultError("gamma^2") from None


def covariance_step(c, h, s_op: FourthMomentOperator, sigma, gamma: float) -> np.ndarray:
    """One application of the covariance recursion."""
    cc = sym(c)
    return sym(cc - gamma * anticommutator(cc, h)
               + _gamma_squared(gamma) * (s_op.apply(cc) + sym(sigma)))


def covariance_walk(h, s_op: FourthMomentOperator, sigma, gamma: float, *,
                    basis=None) -> tuple[float, float]:
    """Two statistics of ``_WALK_STEPS`` steps of the covariance recursion
    from C = 0: the smallest eigenvalue of each step C_{s+1} - C_s relative
    to max(1, ||C_{s+1}||_F), and the largest trace of an iterate.

    Given ``basis`` = (lam, V) with H = V diag(lam) V^T, a Gaussian operator
    of this H and a Sigma that commutes with H (both Gaussian kinds' Sigma),
    every iterate is V diag(v_s) V^T, with

        v_{s+1} = a o v_s + gamma^2 lam (lam . v_s) + gamma^2 Sigma~,
        a = (1 - gamma lam)^2 + gamma^2 lam^2,  Sigma~ = diag(V^T Sigma V),

    so a step costs O(d): its eigenvalues are v_{s+1} - v_s, ||C||_F = ||v||_2
    and Tr(C) = sum(v).  Without a basis, for any other operator (discrete,
    or Monte-Carlo moments), or for a Sigma off H's eigenbasis, it walks the
    dense recursion (``covariance_step``)."""
    hh, ss = sym(h), sym(sigma)
    if basis is not None and s_op.kind == "gaussian" and np.array_equal(s_op._h, hh):
        lam, v = basis
        st = v.T @ ss @ v
        diag = np.diag(st)
        if np.max(np.abs(st - np.diag(diag))) <= _COMMUTE_RTOL * np.max(np.abs(diag)):
            return _eigen_walk(lam, diag, gamma)
    return _dense_walk(hh, s_op, ss, gamma)


def _eigen_walk(lam, sigma_t, gamma: float) -> tuple[float, float]:
    """``covariance_walk`` on the diagonals v_s in H's eigenbasis.  The drift
    and quartic terms are formed from gamma lam; the forcing squares gamma as
    ``covariance_step`` does, raising NonFiniteResultError where it overflows."""
    gl = gamma * lam
    a = (1.0 - gl) ** 2 + gl ** 2
    force = _gamma_squared(gamma) * sigma_t
    c = np.zeros((_WALK_STEPS + 1, lam.size))
    for s in range(_WALK_STEPS):
        c[s + 1] = a * c[s] + gl * (gl @ c[s]) + force
    it = c[1:]
    # each iterate's 2-norm as matcore.frobenius forms it, on v / 2^k
    scale = np.ldexp(1.0, np.frexp(np.max(np.abs(it), axis=1, keepdims=True))[1] - 1)
    norms = np.linalg.norm(it / scale, axis=1) * scale[:, 0]
    low = np.min(np.diff(c, axis=0), axis=1) / np.maximum(1.0, norms)
    return float(low.min()), float(it.sum(axis=1).max())


def _dense_walk(h, s_op: FourthMomentOperator, sigma, gamma: float) -> tuple[float, float]:
    """``covariance_walk`` on d x d iterates, one ``covariance_step`` and one
    eigendecomposition a step."""
    c = np.zeros_like(h)
    low, top = math.inf, -math.inf
    for _ in range(_WALK_STEPS):
        nxt = covariance_step(c, h, s_op, sigma, gamma)
        gap = float(np.linalg.eigvalsh(nxt - c)[0])
        low = min(low, gap / max(1.0, frobenius(nxt)))
        top = max(top, float(np.trace(nxt)))
        c = nxt
    return low, top


def stationary_residual(c, h, s_op: FourthMomentOperator, sigma, gamma: float) -> float:
    """Frobenius norm of the fixed-point equation defect
    || (HC + CH) - gamma (S(C) + Sigma) ||_F."""
    lhs = anticommutator(c, h)
    rhs = gamma * (s_op.apply(c) + sym(sigma))
    return frobenius(lhs - rhs)


@dataclass(frozen=True)
class StationarySolution:
    """Fixed point of the covariance recursion plus solve diagnostics.

    ``residual`` is the recomputed equation defect of the returned matrix;
    ``iterations`` is set by the fixed-point solver, ``condition`` by the
    direct solver.  ``exact`` mirrors the operator backing.  ``basis`` is
    (lam, V) with H = V diag(lam) V^T where the solve took H's
    eigendecomposition (the closed form), for ``covariance_walk`` to reuse.
    """

    cov: np.ndarray
    method: str
    residual: float
    exact: bool
    iterations: int | None = None
    condition: float | None = None
    basis: tuple | None = None

    def __post_init__(self):
        NonFiniteResultError.check(self)


def _gate(gamma: float, h, s_op: FourthMomentOperator) -> tuple[np.ndarray, float]:
    hh = spd(h)
    if hh.shape[0] != s_op.d:
        raise DimensionError(f"H has shape {hh.shape}, operator dimension is {s_op.d}")
    r2 = s_op.r_squared_under(hh)
    StepSizeError.check(gamma, r2)
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
    """The record of a solve: its PSD-clipped C and that C's equation defect;
    NonFiniteResultError where C itself leaves float range."""
    if not np.isfinite(c).all():
        raise NonFiniteResultError("cov")
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
    Raises ConvergenceError after ``_FP_MAX_ITER`` iterations, and
    NonFiniteResultError where an iterate leaves float range.
    """
    hh, r2 = _gate(gamma, h, s_op)
    lam, v = np.linalg.eigh(hh)
    mu = float(lam[0])
    q = 0.5 * gamma * r2
    ss = sym(sigma)
    # both stopping bounds are multiples of step = Tr(H D); gamma cancels from
    # the defect test gamma R^2 step <= _FP_RESID_RTOL gamma ||Sigma||_F
    resid_cap = _FP_RESID_RTOL * frobenius(ss)
    c = np.zeros_like(hh)
    for iterations in range(1, _FP_MAX_ITER + 1):
        # any non-finite entry of nxt makes step non-finite, silently
        with np.errstate(over="ignore", invalid="ignore"):
            rhs = gamma * (s_op.apply(c) + ss)
            nxt = _eigen_inverse(lam, v, v.T @ rhs @ v, 0.0)  # L0^{-1}(rhs)
            nxt = 0.5 * (nxt + nxt.T)
            step = float(np.sum(hh * (nxt - c)))
        if not np.isfinite(step):
            raise NonFiniteResultError(f"cov at fixed-point iteration {iterations}")
        c = nxt
        if (q / (1.0 - q) * step / mu <= _FP_TOL * frobenius(c)
                and r2 * step <= resid_cap):
            break
    else:
        raise ConvergenceError(f"no convergence within {_FP_MAX_ITER} iterations")
    return _solution(c, hh, s_op, ss, gamma, method="fixed-point", iterations=iterations)


def solve_stationary_gaussian(h, sigma, gamma: float) -> StationarySolution:
    """Solve the fixed-point equation for x ~ N(0, H) in closed form, in H's
    eigenbasis with the scalar tau = Tr(HC) (module docstring).

    It solves on (H / 4^k, gamma 4^k, Sigma / 16^k), with 4^k within a
    factor of 4 of lambda_max(H): both sides of the equation scale by 1 / 4^k,
    so C is the same, and its terms, such as lam_i Sigma~_ii, stay in float
    range wherever C does.  Powers of two scale exactly, so C keeps every bit
    of the unscaled solve where that neither overflows nor underflows.  The
    residual is formed on the original scale."""
    s_op = FourthMomentOperator.gaussian(h)
    hh, _ = _gate(gamma, h, s_op)
    ss = sym(sigma)
    k = math.frexp(spectral_norm(hh))[1] // 2
    lam, v = np.linalg.eigh(np.ldexp(hh, -2 * k))
    g = math.ldexp(gamma, 2 * k)
    st = v.T @ np.ldexp(ss, -4 * k) @ v
    delta = 2.0 * lam * (1.0 - g * lam)
    tau = (g * float(np.sum(lam * np.diag(st) / delta))
           / (1.0 - g * float(np.sum(lam ** 2 / delta))))
    c = _eigen_inverse(lam, v, g * (st + tau * np.diag(lam)), 2.0 * g)
    return _solution(c, hh, s_op, ss, gamma, method="closed-form",
                     basis=(np.ldexp(lam, 2 * k), v))


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
    StepSizeError.check(gamma, r2)
    return gamma * matrix_norm_under(sigma, h) / (1.0 - gamma * r2)


def refined_trace_bound(sigma, h, gamma: float, r2: float) -> float:
    """Trace cap on the stationary covariance:
    Tr(C) <= (gamma/2) Tr(H^{-1} Sigma)
             + (gamma^2 R^2 / (2 (1 - gamma R^2))) d ||Sigma||_H."""
    StepSizeError.check(gamma, r2)
    hh = spd(h)
    ss = sym(sigma)
    d = hh.shape[0]
    lead = 0.5 * gamma * float(np.trace(np.linalg.solve(hh, ss)))
    tail = 0.5 * _gamma_squared(gamma) * r2 * d * matrix_norm_under(ss, hh) / (1.0 - gamma * r2)
    return lead + tail
