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

Streams use numpy's counter-based Philox bit generator, keyed by the
SeedSequence hash of the seed, an int or a tuple of ints.  Equal (spec, seed)
and equal draw patterns reproduce bit-identical samples; distinct seeds give
independent streams.  For the Gaussian families the draw pattern does not
matter to the raw normals: one draw of 2n equals two consecutive draws of n.
The pairs made from them can differ in their last bits: BLAS forms the
labels' products with w* over groups of a draw's rows, so a label depends on
where its row sits in its draw, and numpy forms a one-row draw's with dot.

A Philox stream is fully defined by its key, so ``sample_streams`` derives
the keys of many seeds in one vectorized pass of numpy's SeedSequence hash
and keys each stream directly; a ``SeedRange`` of seeds (master, cell, i)
is hashed as one uint32 matrix, never as a list of tuples.
``SampleStream(spec, seed)`` hashes its one seed through numpy's
SeedSequence, which is faster for a single seed and is the reference the
batched hash is tested against.  numpy.random is imported
by the first stream built, not by importing this module.

Sampling has two steps with one path.  A stream fills the raw variates of
its pairs into its rows of an array, and one transform turns the rows of
many streams into pairs at once.  ``SampleStream.draw(n)`` transforms the
rows of one stream; ``draw_block`` fills one (n, d + 1) block per stream,
transforms all of them together and writes x over the first d columns and
y over the noise column, with the same numbers as lone draws.

Gaussian covariates are x = L z with L the Cholesky factor of H.  Where H
has no nonzero entry off its diagonal (``draws_diagonally``; every H the
sweep grid builds) L is its diagonal's square roots, LAPACK's factor bit for
bit, and the transform scales the normals in place with no BLAS call.  Any
other H keeps its dense factor and multiplies, with bits that depend on the
BLAS thread count: a CLI call draws at one thread, a library caller sets it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, IntractableMomentsError, NotSpdError
from .matcore import (
    _DRAW_BUDGET,
    _ROW_BLOCK,
    _weighted_gram,
    check_spans,
    matrix_norm_under,
    spd,
    sym,
)

GAUSSIAN_WELL_SPECIFIED = "gaussian_well_specified"
GAUSSIAN_MISSPECIFIED = "gaussian_misspecified"
DISCRETE = "discrete"

KINDS = (GAUSSIAN_WELL_SPECIFIED, GAUSSIAN_MISSPECIFIED, DISCRETE)
MISSPEC_FNS = ("norm_x", "one_plus_norm_x")

# Constants of numpy's SeedSequence hash (numpy/random/bit_generator.pyx):
# a pool of four uint32 words, filled by hashmix and stirred by mix
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _frozen_array(x, dtype=float) -> np.ndarray:
    a = np.array(x, dtype=dtype)
    a.setflags(write=False)
    return a


def draws_diagonally(h) -> bool:
    """The one draw-form rule, O(d^2): whether H, symmetrized as spd does, is diagonal."""
    return not np.triu(sym(h), 1).any()


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


@dataclass(frozen=True)
class _Atoms:
    """A discrete spec's support stacked once, one row or entry per atom, with
    the cumulative probabilities its draws search and H = sum_k p_k x_k x_k^T."""

    x: np.ndarray
    prob: np.ndarray
    y_mean: np.ndarray
    y_std: np.ndarray
    cum: np.ndarray
    H: np.ndarray


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
        # the factor of every draw; a diagonal one scales rows [z, eta], eta by 1.0
        chol = (np.append(np.sqrt(np.diagonal(h)), 1.0) if draws_diagonally(h)
                else np.linalg.cholesky(h))
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
        # the stacked support that the moments, the operator and every
        # SampleStream of this spec read
        xs, probs, y_mean, y_std = (_frozen_array([getattr(a, k) for a in support])
                                    for k in ("x", "prob", "y_mean", "y_std"))
        with np.errstate(over="ignore", invalid="ignore"):
            h = _frozen_array(_finite_sym(np.einsum("k,ki,kj->ij", probs, xs, xs), self, "H"))
            check_spans(h, "support")
            argmin = np.linalg.solve(h, np.sum((probs * y_mean)[:, None] * xs, axis=0))
        if not np.isfinite(argmin).all():
            raise ValueError("support overflows: w* does not stay finite")
        object.__setattr__(self, "_atoms", _Atoms(xs, probs, y_mean, y_std,
                                                  _frozen_array(np.cumsum(probs)), h))
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
    def noiseless(self) -> bool:
        """Sigma = 0, tested entrywise: a norm's squares overflow past 1e154."""
        return not np.any(self.Sigma)

    @property
    def mu(self) -> float:
        """Smallest eigenvalue of H."""
        return float(np.linalg.eigvalsh(self.H)[0])


class SampleStream:
    """Reproducible stream of iid (x, y) pairs from one DistributionSpec.

    ``seed`` is an int or a tuple of ints, the SeedSequence entropy, so
    ``SampleStream(spec, (s, k))`` for distinct k are independent streams of
    the same model.  As with numpy's bit generators, ``seed`` may instead be
    an ``ISeedSequence``, which Philox asks for its key.
    """

    def __init__(self, spec: DistributionSpec, seed):
        self.spec = spec
        random = np.random  # imported here on the first stream
        if not isinstance(seed, random.bit_generator.ISeedSequence):
            seed = random.SeedSequence(_entropy(seed))
        self._gen = random.Generator(random.Philox(seed))

    def _fill(self, out: np.ndarray):
        """Write the raw variates of n = len(out) pairs into ``out``, a
        C-contiguous (n, k) array: n rows of normals [z, eta] (k = d + 1) for
        the Gaussian kinds, and for the discrete kind n uniforms then n
        normals from its start (k >= 2)."""
        if self.spec.kind == DISCRETE:
            n = out.shape[0]
            flat = out.reshape(-1)
            self._gen.random(out=flat[:n])
            self._gen.standard_normal(out=flat[n:2 * n])
        else:
            # one contiguous block per draw keeps the stream split-invariant
            self._gen.standard_normal(out=out)

    def draw(self, n: int):
        """Draw n pairs; returns (X, y) with shapes (n, d) and (n,)."""
        x, y = _pairs(self.spec, self._raw(n))
        return x[0], y[0]

    def _raw(self, n: int) -> np.ndarray:
        if n < 1:
            raise ValueError(f"draw size must be positive, got {n}")
        # a discrete x is gathered from the atoms: its raw variates need no
        # room for it
        raw = np.empty((1, n, 2 if self.spec.kind == DISCRETE else self.spec.d + 1))
        self._fill(raw[0])
        return raw


@dataclass(frozen=True)
class SeedRange:
    """The seeds (master, cell, i) for lo <= i < hi, the replicates of one
    run or chunk, held as four ints instead of one tuple per seed.  It is
    sliced like a list of those tuples, and ``_philox_keys`` hashes it as one
    uint32 matrix, with the keys of the tuples bit for bit.  Indices stay
    below 2^32, one SeedSequence word each."""

    master: int
    cell: int
    lo: int
    hi: int

    def __post_init__(self):
        if not 0 <= self.lo <= self.hi <= 1 << 32:
            raise ValueError(f"need 0 <= lo <= hi <= 2^32, got [{self.lo}, {self.hi})")

    def __len__(self) -> int:
        return self.hi - self.lo

    def __getitem__(self, part: slice) -> SeedRange:
        lo, hi, step = part.indices(len(self))
        if step != 1:
            raise ValueError(f"a seed range slices with step 1, got {step}")
        return SeedRange(self.master, self.cell, self.lo + lo, self.lo + max(lo, hi))

    def words(self) -> np.ndarray:
        """The (len, words) uint32 matrix of the seeds' SeedSequence words:
        those of master and cell, then the index."""
        head = _seed_words(self.master) + _seed_words(self.cell)
        out = np.empty((len(self), len(head) + 1), dtype=np.uint32)
        out[:, :-1] = head
        out[:, -1] = np.arange(self.lo, self.hi)
        return out


def sample_streams(spec: DistributionSpec, seeds) -> list[SampleStream]:
    """One stream per seed, each drawing exactly as ``SampleStream(spec, seed)``
    does, with the Philox keys of all seeds hashed in one vectorized pass;
    ``seeds`` is a sequence of seeds or a SeedRange."""
    key_seed = _key_seed_type()
    return [SampleStream(spec, key_seed(key)) for key in _philox_keys(seeds)]


def _entropy(seed) -> list:
    return list(seed) if isinstance(seed, (tuple, list)) else [int(seed)]


def _seed_words(seed) -> tuple[int, ...]:
    """The uint32 words SeedSequence reads from a seed: each entry's 32-bit
    words, least significant first, one word for 0."""
    words = []
    for v in _entropy(seed):
        if not isinstance(v, (int, np.integer)):
            raise TypeError(f"seed entries must be integers, got {v!r}")
        v = int(v)
        if v < 0:
            raise ValueError(f"seed entries must be nonnegative, got {v}")
        words.append(v & _MASK32)
        while v > _MASK32:
            v >>= 32
            words.append(v & _MASK32)
    return tuple(words)


def _philox_keys(seeds) -> np.ndarray:
    """(len(seeds), 2) uint64 array whose row i equals
    ``SeedSequence(entropy of seeds[i]).generate_state(2, np.uint64)``.

    Seeds are hashed in groups of equal word count, each group as columns of
    uint32 arrays; the hash constants evolve the same way for every seed of
    a group, so they stay Python ints.  A SeedRange is one such group."""
    if isinstance(seeds, SeedRange):
        return _key_words(seeds.words()).view("<u8")
    words = [_seed_words(s) for s in seeds]
    by_length: dict[int, list[int]] = {}
    for i, w in enumerate(words):
        by_length.setdefault(len(w), []).append(i)
    keys = np.empty((len(words), 2), dtype=np.uint64)
    for rows in by_length.values():
        entropy = np.array([words[i] for i in rows], dtype=np.uint32)
        keys[rows] = _key_words(entropy).view("<u8")
    return keys


def _key_words(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence's pool of each row of a (seeds, words) uint32 array, then
    the four words of its ``generate_state(2, np.uint64)``: (seeds, 4)."""
    n, length = entropy.shape
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value *= hash_const
        value ^= value >> 16
        return value

    def mix(x, y):
        out = x * _MIX_MULT_L
        out -= y * _MIX_MULT_R
        out ^= out >> 16
        return out

    # add the entropy up to the pool size, running the hash out on zeros
    zero = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < length else zero) for i in range(_POOL_SIZE)]
    # mix all bits together so late bits can affect earlier bits
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    # mix each remaining entropy word into every pool word
    for src in range(_POOL_SIZE, length):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))

    state = np.empty((n, 4), dtype="<u4")
    hash_const = _INIT_B
    for i in range(4):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value *= hash_const
        value ^= value >> 16
        state[:, i] = value
    return state


@functools.cache
def _key_seed_type():
    """An ISeedSequence holding a precomputed Philox key, which Philox reads
    as ``generate_state(2, np.uint64)``.  Defined on first use, so importing
    this module does not import numpy.random."""

    class KeySeed(np.random.bit_generator.ISeedSequence):
        def __init__(self, key):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key

    return KeySeed


def draw_block(streams, block: np.ndarray):
    """Draw n pairs from each of ``streams``, streams of one model, into
    ``block``, a C-contiguous (len(streams), n, d + 1) array.

    Returns views (x, y) of the block with shapes (streams, n, d) and
    (streams, n): x over the first d columns, y over the last.  Each stream
    fills its rows with the raw variates of its ``draw(n)``, and the
    transform runs over chunks of whole streams, at most ``_ROW_BLOCK`` rows
    where streams are shorter, so no temporary spans the block.  Every
    product runs once per stream on its (n, d) rows, the shapes a lone draw
    gives it, so each stream's pairs are those of its ``draw(n)``.
    """
    spec = streams[0].spec
    n, d = block.shape[1], spec.d
    for stream, rows in zip(streams, block):
        stream._fill(rows)
    step = max(1, _ROW_BLOCK // n)
    for i in range(0, len(streams), step):
        chunk = block[i:i + step]
        x, y = _pairs(spec, chunk)
        if spec.kind == DISCRETE or spec._chol.ndim == 2:
            chunk[..., :d] = x
        chunk[..., d] = y
        # released before the next chunk's pairs are formed
        del x, y
    return block[..., :d], block[..., d]


def _pairs(spec: DistributionSpec, raw: np.ndarray):
    """The pairs (x, y) of a (streams, n, k) array of raw variates, each
    stream's rows filled by ``SampleStream._fill``.

    x has shape (streams, n, d): where the Cholesky factor is diagonal, the
    normals scaled in place and returned as a view of ``raw``, otherwise a
    fresh array.  y is a fresh (streams, n) array.  Results computed from a
    draw depend on these layouts (BLAS dots over rows, x.T @ y or any product
    at d = 1, sum in an order set by the row stride), so they are the layouts
    draws have always had.
    """
    n, d = raw.shape[1], spec.d
    if spec.kind == DISCRETE:
        a = spec._atoms
        # each stream's n uniforms, then its n normals, from its row start
        flat = raw.reshape(raw.shape[0], -1)
        idx = np.minimum(np.searchsorted(a.cum, flat[:, :n], side="right"), len(a.cum) - 1)
        y = a.y_mean[idx] + a.y_std[idx] * flat[:, n:2 * n]
        return np.take(a.x, idx, axis=0), y
    if spec._chol.ndim == 1:
        # in place over the contiguous rows; eta's factor is an exact 1.0
        raw *= spec._chol
        x = raw[..., :d]
    else:
        x = raw[..., :d] @ spec._chol.T
    eta = raw[..., d]
    y = x @ spec.w_star
    if spec.kind == GAUSSIAN_WELL_SPECIFIED:
        y += spec.noise_sigma * eta
    else:
        # ||x|| over blocks of the rows of all streams, with no temporary of
        # squares past a quarter of the draw budget (512 KiB), so they add
        # little to a run that holds the budget; a row's sum does not depend
        # on its block
        g = np.empty(y.shape)
        xs, gs = x.reshape(-1, d), g.reshape(-1)
        step = max(1, min(_ROW_BLOCK, _DRAW_BUDGET // (32 * d)))
        for j in range(0, len(gs), step):
            xc = xs[j:j + step]
            gs[j:j + step] = np.sqrt(np.add.reduce(xc * xc, axis=-1))
        if spec.misspec_fn != "norm_x":
            g += 1.0
        g *= spec.noise_sigma
        g *= eta
        y += g
    return x, y


def weighted_fourth_moment(spec: DistributionSpec) -> np.ndarray:
    """Closed-form E[||x||^2 x x^T].

    For centered Gaussian x with covariance H this is Tr(H) H + 2 H^2; for a
    discrete design it is the fourth-moment operator's S(I), one R^2 for both.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind == DISCRETE:
            f = _weighted_gram(spec._atoms.x, spec._atoms.prob, np.eye(spec.d))
        else:
            h = spec.H_spec
            f = np.trace(h) * h + 2.0 * (h @ h)
        return _finite_sym(f, spec, "E[||x||^2 x x^T]", positive=True)


def _finite_sym(m: np.ndarray, spec: DistributionSpec, name: str,
                noise: bool = False, positive: bool = False) -> np.ndarray:
    """(M + M^T)/2 for a moment M of a spec, both formed with numpy's
    overflow warnings off, or a ValueError naming the input whose size
    overflowed them, or underflowed a ``positive`` moment (one that is not 0
    when H is positive definite) to 0: the support, else H_spec, or
    noise_sigma for a ``noise`` moment."""
    m = 0.5 * (m + m.T)
    finite = np.isfinite(m).all()
    if not finite or positive and not m.any():
        field = ("support" if spec.kind == DISCRETE
                 else f"noise_sigma={spec.noise_sigma!r}" if noise else "H_spec")
        raise ValueError(f"{field} overflows: {name} does not stay finite" if not finite
                         else f"{field} underflows: {name} rounds to 0")
    return m


def exact_moments(spec: DistributionSpec) -> Moments:
    """Closed-form population moments of a spec.

    Raises IntractableMomentsError for models without closed-form moments
    (currently ``misspec_fn="one_plus_norm_x"``).
    """
    if spec.kind == GAUSSIAN_MISSPECIFIED and spec.misspec_fn != "norm_x":
        raise IntractableMomentsError(
            f"no closed-form moments for misspec_fn={spec.misspec_fn!r}; "
            "estimate them with `moments --estimate N`"
        )
    f = weighted_fourth_moment(spec)
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind == DISCRETE:
            a = spec._atoms
            h = a.H
            resid_sq = (a.y_mean - a.x @ spec.w_star) ** 2 + a.y_std ** 2
            sigma = np.einsum("k,ki,kj->ij", a.prob * resid_sq, a.x, a.x)
        else:
            h = spec.H_spec
            # residual std is noise_sigma, or noise_sigma * ||x|| when
            # misspecified, so Sigma is H or the weighted fourth moment
            # scaled by noise_sigma^2
            sigma = np.float64(spec.noise_sigma) ** 2 * (
                h if spec.kind == GAUSSIAN_WELL_SPECIFIED else f)
        sigma = _finite_sym(sigma, spec, "Sigma", noise=True)
    r2 = matrix_norm_under(f, h)
    return Moments(H=h, Sigma=sigma, w_star=spec.w_star, R2=r2, exact=True)


def estimate_moments(spec: DistributionSpec, n: int, seed) -> Moments:
    """Monte-Carlo moments from n fresh draws of the model; see
    ``sample_moments``."""
    if n < spec.d:
        raise ValueError(f"need at least d={spec.d} samples, got {n}")
    x, y = SampleStream(spec, seed).draw(n)
    return sample_moments(spec, x, y)


def sample_moments(spec: DistributionSpec, x: np.ndarray, y: np.ndarray) -> Moments:
    """Moments of the sample (x, y) drawn from a model.

    Residuals are taken against the model's own minimizer.  Raises
    SingularMomentsError when the empirical second moment does not span R^d
    (always for fewer than d rows, and possible for degenerate draws at any
    number of rows).
    """
    n = x.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        # x's moments first: where they overflow, so may Sigma
        h = _finite_sym(x.T @ x / n, spec, "the sampled H")
        check_spans(h, f"empirical second moment from {n} draws")
        f = _finite_sym(_weighted_gram(x, np.einsum("ni,ni->n", x, x)) / n, spec,
                        "the sampled E[||x||^2 x x^T]", positive=True)
        sigma = _finite_sym(_weighted_gram(x, (y - x @ spec.w_star) ** 2) / n, spec,
                            "the sampled Sigma", noise=True)
    r2 = matrix_norm_under(f, h)
    return Moments(H=h, Sigma=sigma, w_star=spec.w_star, R2=r2, exact=False, n_samples=n)
