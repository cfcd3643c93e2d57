"""Dense symmetric-matrix primitives.

Matrices are plain float64 ndarrays.  ``sym`` and ``spd`` are the validation
gates: every routine that needs a symmetric (or SPD) operand passes its input
through one of them, so downstream code can rely on exact symmetry.

``sym_to_vec`` / ``vec_to_sym`` flatten symmetric matrices to vectors of
length d(d+1)/2, diagonal entries first, off-diagonal entries scaled by
sqrt(2).  With that scaling the Euclidean dot product of two flattened
matrices equals the trace inner product Tr(AB), so linear operators on
symmetric matrices become ordinary (and, for self-adjoint operators,
symmetric) matrices in this basis.

``_quad_forms`` and ``_weighted_gram`` contract an (n, d) array of sample
rows in fixed row blocks, so their temporaries do not grow with n.

``_openblas`` finds the thread-count functions of numpy's bundled OpenBLAS.
OpenBLAS splits a large product across its threads, and the split changes
the order of its sums; at one thread a product's bits do not depend on the
machine.  A CLI call sets one thread first (``harness.use_one_blas_thread``)
and every routine, the stationary solvers included, runs at that count; a
library caller who wants thread-independent bits calls it first too.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os

import numpy as np

from .errors import DimensionError, NotSpdError

_SQRT2 = math.sqrt(2.0)

# Relative floor on the smallest eigenvalue accepted by spd().
SPD_TOL = 1e-12

# Most bytes that an input may make the package hold at once: a simulation
# run (sgd.run_bytes), a draw of pairs or a dense operator matrix.
_BUFFER_CAP = 2 ** 30

# Rows per block of the sample contractions below, and of the draws of
# verify's sampled pass, which folds each block into its sums before drawing
# the next.  Their temporaries are a few (block, d) arrays, about 640 KB each
# at d = 10, however many rows there are; the whole 200,000-pair draw is
# 17.6 MB at d = 10.
_ROW_BLOCK = 8192

# Bytes, 2 MiB, that one group of a simulation run holds (draws, state and
# streams) unless a floor binds (sgd.draw_plan); the squares of ||x||
# formed from its draws take a quarter (distributions._pairs).
_DRAW_BUDGET = 2 ** 21


def sym(m) -> np.ndarray:
    """Validate a square real matrix and return its symmetric part (M + M^T)/2."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return 0.5 * (a + a.T)


def spd(m, tol: float = SPD_TOL) -> np.ndarray:
    """Validate symmetry and strict positive definiteness; returns the symmetrized matrix.

    The smallest eigenvalue must exceed ``tol`` times the largest, so nearly
    singular inputs are rejected along with indefinite ones.
    """
    a = sym(m)
    evals = np.linalg.eigvalsh(a)
    if evals[0] <= 0.0:
        raise NotSpdError(
            f"matrix is not positive definite: eigenvalue range "
            f"[{evals[0]:.6e}, {evals[-1]:.6e}]"
        )
    if evals[0] <= tol * evals[-1]:
        raise NotSpdError(
            f"matrix is numerically singular: its smallest eigenvalue {evals[0]:.6e} "
            f"is not above {tol:g} times its largest {evals[-1]:.6e}"
        )
    return a


def spectral_norm(m) -> float:
    """Largest absolute eigenvalue of a symmetric matrix."""
    a = sym(m)
    return float(np.max(np.abs(np.linalg.eigvalsh(a))))


def weighted_norm_sq(x, a) -> float:
    """Quadratic form x^T A x for a symmetric weight matrix A."""
    xv = np.asarray(x, dtype=float)
    if xv.ndim != 1:
        raise DimensionError(f"expected a vector, got shape {xv.shape}")
    am = sym(a)
    if am.shape[0] != xv.shape[0]:
        raise DimensionError(
            f"vector of length {xv.shape[0]} incompatible with matrix {am.shape}"
        )
    return float(xv @ am @ xv)


def _inv_sqrt(a: np.ndarray) -> np.ndarray:
    w, q = np.linalg.eigh(a)
    return (q / np.sqrt(w)) @ q.T


@functools.cache
def _openblas():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS, or
    None where numpy ships no such library (MKL, a system BLAS)."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        name = next(n for n in os.listdir(libs) if n.startswith("libscipy_openblas"))
        lib = ctypes.CDLL(os.path.join(libs, name))
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (OSError, StopIteration, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def matrix_norm_under(m, a) -> float:
    """Spectral norm of M measured in the geometry of an SPD matrix A.

    Returns ``|| A^{-1/2} M A^{-1/2} ||_2``, the smallest c such that
    -c A <= M <= c A in the semidefinite order.
    """
    mm = sym(m)
    aa = spd(a)
    if mm.shape != aa.shape:
        raise DimensionError(f"shape mismatch: {mm.shape} vs {aa.shape}")
    r = _inv_sqrt(aa)
    return spectral_norm(r @ mm @ r)


def psd_order_leq(a, b, tol: float = 0.0) -> bool:
    """True when B - A is positive semidefinite.

    ``tol`` relaxes the test to eigenvalues >= -tol * (1 + ||B||_2), which is
    the right scale-aware slack for Monte-Carlo estimates of ordered matrices.
    """
    am = sym(a)
    bm = sym(b)
    if am.shape != bm.shape:
        raise DimensionError(f"shape mismatch: {am.shape} vs {bm.shape}")
    gap = float(np.linalg.eigvalsh(bm - am)[0])
    return gap >= -tol * (1.0 + spectral_norm(bm))


def sym_vec_len(d: int) -> int:
    """Length of the flattened form of a d x d symmetric matrix."""
    if d < 1:
        raise DimensionError(f"dimension must be positive, got {d}")
    return d * (d + 1) // 2


def sym_dim(n: int) -> int:
    """Inverse of sym_vec_len; rejects lengths not of the form d(d+1)/2."""
    d = int(round((math.sqrt(8.0 * n + 1.0) - 1.0) / 2.0))
    if d < 1 or d * (d + 1) // 2 != n:
        raise DimensionError(f"{n} is not d(d+1)/2 for any dimension d")
    return d


def sym_to_vec(m) -> np.ndarray:
    """Flatten a symmetric matrix: diagonal first, then upper off-diagonal
    entries in row-major order scaled by sqrt(2)."""
    a = sym(m)
    d = a.shape[0]
    iu = np.triu_indices(d, k=1)
    return np.concatenate([np.diag(a), _SQRT2 * a[iu]])


def vec_to_sym(v) -> np.ndarray:
    """Inverse of sym_to_vec."""
    vv = np.asarray(v, dtype=float)
    if vv.ndim != 1:
        raise DimensionError(f"expected a vector, got shape {vv.shape}")
    d = sym_dim(vv.size)
    out = np.zeros((d, d))
    out[np.diag_indices(d)] = vv[:d]
    iu = np.triu_indices(d, k=1)
    out[iu] = vv[d:] / _SQRT2
    out[iu[1], iu[0]] = out[iu]
    return out


def _quad_forms(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x_k^T M x_k for every row x_k of x, one BLAS product per row block."""
    out = np.empty(x.shape[0])
    for i in range(0, x.shape[0], _ROW_BLOCK):
        xb = x[i:i + _ROW_BLOCK]
        # a two-operand einsum row sum beats ((xb @ m) * xb).sum(axis=1)
        np.einsum("ij,ij->i", xb @ m, xb, out=out[i:i + _ROW_BLOCK])
    return out


def _weighted_gram(x: np.ndarray, w: np.ndarray, m: np.ndarray | None = None) -> np.ndarray:
    """sum_k w_k x_k x_k^T over the rows x_k of x, each term also scaled by
    x_k^T M x_k when M is given; one BLAS product per row block."""
    d = x.shape[1]
    out = np.zeros((d, d))
    for i in range(0, x.shape[0], _ROW_BLOCK):
        xb = x[i:i + _ROW_BLOCK]
        wb = w[i:i + _ROW_BLOCK]
        if m is not None:
            wb = wb * _quad_forms(xb, m)
        out += (xb * wb[:, None]).T @ xb
    return out
