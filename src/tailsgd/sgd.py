"""Constant-stepsize SGD for streaming least squares, with tail averaging.

One step on a pair (x, y) is ``w <- w + gamma * (y - w.x) x``.  A run of T
steps visits states w_0, ..., w_T; the tail average over the window [t, T)
is ``(1/(T-t)) * sum_{s=t}^{T-1} w_s``, so w_0 contributes when t = 0 and
the final state w_T never does.

``run_replicates`` runs one replicate per seed with the update vectorized
across replicates.  Each replicate owns an independent sample stream, keyed
together with the others of its group in one pass (``sample_streams``) and
drawn in blocks: per block, every stream fills its raw variates into its
rows of one shared buffer, and one transform turns the whole buffer into
covariates and labels.  How many rows a block has, and how many replicates
advance together in a group, depend on the spec, T and the numbers of
replicates and processes (``draw_plan``): a group holds at most 2 MiB
(draws, state and streams) unless a floor binds.  A replicate's draws, and
so its trajectory, depend only on its own seed: grouping the seeds, or
splitting a seed list across calls (or worker processes), reproduces
bit-identical trajectories.  The step loop
reads the buffer in place and allocates nothing per step.  Iterate sums use
compensated (Kahan) summation so long tail averages do not lose precision.

A run advances any of three processes as rows of one pass over each
replicate's draws: the standard process; the bias process, the noise-free
half, which sees the same covariates with noiseless labels w*.x; and the
variance process, the noise-driven half, which starts at w* with labels as
drawn.  Every row of a replicate sees the same draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import (
    DISCRETE,
    DistributionSpec,
    Moments,
    SampleStream,
    SeedRange,
    draw_block,
    exact_moments,
    sample_moments,
    sample_streams,
)
from .errors import (
    DimensionError,
    EmptyWindowError,
    IntractableMomentsError,
    StepSizeError,
)
from .matcore import _DRAW_BUDGET, _ROW_BLOCK
from .stationary import FourthMomentOperator

# Most samples buffered per replicate between vectorized sweeps (see
# draw_plan).  A replicate's draws are those of its own stream in blocks of
# BLOCK rows, whatever the rows of a fill and however the seeds are grouped,
# which is what keeps trajectories independent of how seeds are batched.
BLOCK = 512

# A spec with a diagonal Cholesky factor fills each BLOCK in sub-blocks of a
# power of two rows, no fewer than _MIN_ROWS.  Its Philox normals split
# freely, its transform is elementwise plus per-row products, and sub-blocks
# that start at multiples of 64 rows keep every row's place in the BLAS
# kernel's row grouping, so the pairs are those of whole blocks bit for bit.
# A dense factor's product groups rows in panels of its own, and a discrete
# fill draws all its uniforms before its normals: those specs fill whole
# blocks.  Where the fill alone cannot bring all seeds within 2 MiB, they
# advance in groups of no fewer than _MIN_GROUP: each group pays the step
# loop's per-call numpy overhead again, at most once per 256 replicates.
_MIN_ROWS = 64
_MIN_GROUP = 256

PROCESSES = ("standard", "bias", "variance")

# Bytes a run holds beside its arrays, with about a sixth to spare over
# what tracemalloc measured: 1,100 for each keyed stream of a group (a
# Philox generator and its key); and a fixed allowance for its Python
# objects, its start points and numpy's ufunc buffers, which a reduction
# over ||x|| takes 128 KiB of.  No seed list: runs pass a SeedRange
_STREAM_BYTES = 1280
_FIXED_BYTES = 2 ** 18

# Per-row arrays of the pairs transform beside x or the squares of ||x||:
# labels, norms and, for a discrete fill, atom indices and their gathers
_ROW_ARRAYS = 8

# Fallback moment estimate for models without closed forms: sample count and
# the fixed internal seed that keeps repeated resolutions identical.
_EST_SAMPLES = 32768
_EST_SEED = 7


@dataclass(frozen=True)
class SgdConfig:
    """Run geometry: stepsize, start point, averaging window start t, horizon T."""

    gamma: float
    w0: np.ndarray
    t_avg_start: int
    T: int

    def __post_init__(self):
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "T", int(self.T))
        object.__setattr__(self, "t_avg_start", int(self.t_avg_start))
        # R^2 comes with the model: run_replicates checks gamma < 1/R^2
        if not self.gamma > 0.0:
            raise StepSizeError(f"stepsize must be positive, got {self.gamma}")
        if self.T < 1:
            raise ValueError(f"horizon T must be at least 1, got {self.T}")
        if not 0 <= self.t_avg_start < self.T:
            raise EmptyWindowError(
                f"averaging window [{self.t_avg_start}, {self.T}) is empty"
            )
        w = np.array(self.w0, dtype=float)
        if w.ndim != 1:
            raise DimensionError(f"w0 must be a vector, got shape {w.shape}")
        w.setflags(write=False)
        object.__setattr__(self, "w0", w)


@dataclass(frozen=True)
class BatchResult:
    """Vectorized outputs of run_replicates.  Per-replicate arrays lead with
    the replicate axis, then the process axis when several were run;
    ``snapshots`` leads with the snapshot axis."""

    tail_averages: np.ndarray
    finals: np.ndarray
    snapshot_steps: tuple[int, ...]
    snapshots: np.ndarray
    samples_per_replicate: int


class _KahanSum:
    """Compensated elementwise sum of equally shaped arrays, in place."""

    def __init__(self, shape):
        self._s = np.zeros(shape)
        self._c = np.zeros(shape)
        self._t = np.empty(shape)
        self._y = np.empty(shape)

    def add(self, v):
        y = np.subtract(v, self._c, out=self._y)
        t = np.add(self._s, y, out=self._t)
        np.subtract(t, self._s, out=self._c)
        self._c -= y
        self._s, self._t = t, self._s

    def total(self) -> np.ndarray:
        """The running total, overwritten by the next add."""
        return self._s


def resolve_model(spec: DistributionSpec) -> tuple[Moments, FourthMomentOperator]:
    """The model's moments and fourth-moment operator, with one backing:
    closed forms when available, otherwise both from one Monte-Carlo draw
    with a fixed internal seed, so repeated resolutions agree exactly.  The
    estimates' bits depend on the BLAS thread count; a CLI call forms them at
    one thread, where they do not."""
    try:
        return exact_moments(spec), FourthMomentOperator.from_spec(spec)
    except IntractableMomentsError:
        x, y = SampleStream(spec, _EST_SEED).draw(_EST_SAMPLES)
        return sample_moments(spec, x, y), FourthMomentOperator.sampled(x)


def resolve_moments(spec: DistributionSpec) -> Moments:
    """The moments of ``resolve_model``."""
    return resolve_model(spec)[0]


def _fill_rows(rows: int, T: int) -> int:
    # a sub-blocked run may fill one row more at its end (_advance)
    return min(rows + (rows < BLOCK), T)


def _diagonal(spec: DistributionSpec) -> bool:
    """Whether ``spec`` draws through a diagonal Cholesky factor, the one
    fill that splits into sub-blocks."""
    return spec.kind != DISCRETE and spec._chol.ndim == 1


def _replicate_bytes(d: int, rows: int, T: int, processes: int) -> int:
    """Bytes one replicate holds in its group (draw_plan): its fill of the
    draw buffer, its rows of the group's Kahan sum (four arrays), update,
    dot and residual arrays for each process, and its keyed stream."""
    values = _fill_rows(rows, T) * (d + 1) + processes * (5 * d + 2)
    return 8 * values + _STREAM_BYTES


def draw_plan(d: int, replicates: int, T: int, diagonal: bool, processes: int) -> tuple[int, int]:
    """(rows, group) for a run of ``replicates`` seeds of a d-dimensional
    model over T steps that advances ``processes`` processes: it fills
    ``rows`` rows of draws per replicate at a time and advances its seeds in
    groups of ``group``, the last group taking the rest.  ``diagonal`` says
    whether the model draws through a diagonal Cholesky factor
    (``_diagonal``).  A group holds at most 2 MiB (draws, state and
    streams, ``_replicate_bytes`` a replicate) unless a floor binds.

    rows is BLOCK unless the factor is diagonal; then it is the largest
    power of two in [64, BLOCK] at which all replicates fit in one group, or
    64.  group is all replicates if they fit, and otherwise as many as fit,
    but no fewer than 256 or all of them.  Neither changes a bit of the
    run's results."""
    rows = BLOCK
    if diagonal:
        while (rows > _MIN_ROWS
               and replicates * _replicate_bytes(d, rows, T, processes) > _DRAW_BUDGET):
            rows //= 2
    group = max(_MIN_GROUP, _DRAW_BUDGET // _replicate_bytes(d, rows, T, processes))
    return rows, min(group, replicates)


def run_bytes(d: int, replicates: int, T: int, diagonal: bool) -> int:
    """Bytes that a run of ``replicates`` seeds advancing every process
    holds at most, snapshots aside: the tail averages and final states of
    every replicate; one group as draw_plan sizes it; and the pairs
    transform's temporaries over one chunk of at most _ROW_BLOCK rows, with
    a fixed allowance.  It needs only d and the form of the factor, so a
    config is checked against it before its model is built."""
    processes = len(PROCESSES)
    rows, group = draw_plan(d, replicates, T, diagonal, processes)
    chunk = min(group * _fill_rows(rows, T), _ROW_BLOCK)
    return (replicates * 16 * processes * d
            + group * _replicate_bytes(d, rows, T, processes)
            + 8 * chunk * (d + _ROW_ARRAYS) + _FIXED_BYTES)


def run_replicates(spec: DistributionSpec, config: SgdConfig, seeds, *,
                   process: str | tuple[str, ...] = "standard",
                   moments: Moments | None = None, snapshot_steps=()) -> BatchResult:
    """Run SGD for each seed, vectorized across replicates.

    ``seeds`` is a sequence of seeds, or a SeedRange, which the run keys
    group by group without a seed list.
    ``process`` names one of PROCESSES, giving (replicates, d) outputs, or a
    tuple of them, giving (replicates, len(process), d) outputs whose rows
    advance together on each replicate's one sample stream.
    ``snapshot_steps`` are state indices in [0, T] to capture across all
    replicates.
    """
    names = (process,) if isinstance(process, str) else tuple(process)
    if not names or any(p not in PROCESSES for p in names):
        raise ValueError(f"unknown process {process!r}; expected names from {PROCESSES}")
    m = resolve_moments(spec) if moments is None else moments
    StepSizeError.check(config.gamma, m.R2)
    d = spec.d
    if config.w0.shape != (d,):
        raise DimensionError(f"w0 has shape {config.w0.shape}, expected ({d},)")
    if not isinstance(seeds, SeedRange):
        seeds = list(seeds)
    n_rep = len(seeds)
    if n_rep < 1:
        raise ValueError("need at least one seed")

    big_t = config.T
    w_star = np.asarray(m.w_star, dtype=float)

    snap_steps = sorted({int(s) for s in snapshot_steps})
    if snap_steps and not (0 <= snap_steps[0] and snap_steps[-1] <= big_t):
        raise ValueError(f"snapshot steps must lie in [0, {big_t}]")
    snap_idx = {s: i for i, s in enumerate(snap_steps)}
    snaps = np.empty((len(snap_steps), n_rep, len(names), d))

    # Rows differ only in start point and label mask.  The noise-free (bias)
    # row is integrated in deviation coordinates with labels masked to zero:
    # forming y - w.x near the minimizer cancels catastrophically and floors
    # the decay at ulp(w*)^2, while the equivalent update dev -= gamma*(dev.x)x
    # decays geometrically to underflow.  Its outputs are shifted back by w*.
    start = {"standard": config.w0, "bias": config.w0 - w_star, "variance": w_star}
    starts = np.stack([start[p] for p in names])
    shift = np.stack([w_star if p == "bias" else np.zeros(d) for p in names])
    mask = np.array([0.0 if p == "bias" else 1.0 for p in names])

    tails = np.empty((n_rep, len(names), d))
    finals = np.empty_like(tails)
    rows, group = draw_plan(d, n_rep, big_t, _diagonal(spec), len(names))
    for lo in range(0, n_rep, group):
        part = slice(lo, lo + group)
        _advance(spec, config, seeds[part], rows, starts, mask, snap_idx,
                 tails[part], finals[part], snaps[:, part])
    tails += shift
    finals += shift
    snaps += shift
    if isinstance(process, str):
        tails, finals, snaps = tails[:, 0], finals[:, 0], snaps[:, :, 0]
    return BatchResult(
        tail_averages=tails,
        finals=finals,
        snapshot_steps=tuple(snap_steps),
        snapshots=snaps,
        samples_per_replicate=big_t,
    )


def _advance(spec, config, seeds, rows, starts, mask, snap_idx, tails, finals, snaps):
    """Run one group of seeds from the (processes, d) ``starts``, writing its
    unshifted tail averages, final states and snapshots into ``tails``,
    ``finals`` and ``snaps``, the group's slices of the run's outputs;
    ``finals`` holds the state as it advances.  The group keys its own
    streams and holds its own draw buffer and the rest of its state."""
    gamma, big_t, t0 = config.gamma, config.T, config.t_avg_start
    n_rep, d = len(seeds), spec.d
    streams = sample_streams(spec, seeds)
    w = finals
    w[:] = starts
    tail = _KahanSum(w.shape)
    buf = np.empty(n_rep * _fill_rows(rows, big_t) * (d + 1))
    dot, r, upd = np.empty(w.shape[:2]), np.empty(w.shape[:2]), np.empty(w.shape)
    done = 0
    while done < big_t:
        b = min(rows, big_t - done)
        if big_t - done - b == 1 and (done + b) % BLOCK:
            # numpy forms a one-row product with dot, not gemv, so the last
            # row is filled alone only where a whole-block fill does so too
            b += 1
        # contiguous, a short last block too: a strided one makes numpy
        # buffer its broadcast products
        xb, yb = draw_block(streams, buf[:n_rep * b * (d + 1)].reshape(n_rep, b, d + 1))
        for j in range(b):
            state = done + j
            if state >= t0:
                tail.add(w)
            k = snap_idx.get(state)
            if k is not None:
                snaps[k] = w
            x = xb[:, j]
            # r = gamma * (y * mask - w.x), the dot's summation order fixed by einsum
            np.einsum("rpd,rd->rp", w, x, out=dot)
            np.multiply(yb[:, j, None], mask, out=r)
            r -= dot
            r *= gamma
            w += np.einsum("rp,rd->rpd", r, x, out=upd)
        done += b
    k = snap_idx.get(big_t)
    if k is not None:
        snaps[k] = w
    np.divide(tail.total(), big_t - t0, out=tails)
