"""Constant-stepsize SGD for streaming least squares, with tail averaging.

One step on a pair (x, y) is ``w <- w + gamma * (y - w.x) x``.  A run of T
steps visits states w_0, ..., w_T; the tail average over the window [t, T)
is ``(1/(T-t)) * sum_{s=t}^{T-1} w_s``, so w_0 contributes when t = 0 and
the final state w_T never does.

``run_replicates`` runs one replicate per seed with the update vectorized
across replicates.  Each replicate owns an independent sample stream, keyed
together with the others in one pass (``sample_streams``) and drawn in
fixed-size blocks: per block, every stream fills its raw variates into
its rows of one shared buffer, and one transform turns the whole buffer into
covariates and labels.  A replicate's draws, and so its trajectory, depend
only on its own seed: splitting a seed list across calls (or worker
processes) reproduces bit-identical trajectories.  The step loop reads the
buffer in place and allocates nothing per step.  Iterate sums use
compensated (Kahan) summation so long tail averages do not lose precision.

A run advances any of three processes as rows of one pass over each
replicate's draws: the standard process; the bias process, the noise-free
half, which sees the same covariates with noiseless labels w*.x; and the
variance process, the noise-driven half, which starts at w* with labels as
drawn.  Every row of a replicate sees the same draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    DistributionSpec,
    Moments,
    SampleStream,
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
from .stationary import FourthMomentOperator

# Samples buffered per replicate between vectorized sweeps (see
# draw_buffer_shape).  The draw pattern is a function of T alone, which is
# what keeps trajectories independent of how seeds are batched.
BLOCK = 512

PROCESSES = ("standard", "bias", "variance")

# (replicates, len(PROCESSES), d) arrays a run holds beside its draw buffer:
# the state and its update, the four of the Kahan sum, and two for outputs
_STATE_ARRAYS = 8

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
        if self.gamma <= 0.0:
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
        return self._s.copy()


def check_stepsize(gamma: float, r2: float):
    """Enforce the stability condition gamma < 1 / R^2."""
    if gamma <= 0.0:
        raise StepSizeError(f"stepsize must be positive, got {gamma}")
    if gamma >= 1.0 / r2:
        raise StepSizeError(
            f"gamma={gamma!r} is not below the stability threshold 1/R^2={1.0 / r2!r}"
        )


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


def draw_buffer_shape(replicates: int, T: int, d: int) -> tuple[int, int, int]:
    """Shape of the draw buffer of a run: one block of min(BLOCK, T) rows of
    d + 1 raw variates per replicate, the last column holding the labels."""
    return replicates, min(BLOCK, T), d + 1


def run_bytes(replicates: int, T: int, d: int) -> int:
    """Bytes of the arrays of a run that grow with its replicates: the draw
    buffer and the state arrays of every process, snapshots aside."""
    state = _STATE_ARRAYS * replicates * len(PROCESSES) * d
    return 8 * (math.prod(draw_buffer_shape(replicates, T, d)) + state)


def run_replicates(spec: DistributionSpec, config: SgdConfig, seeds, *,
                   process: str | tuple[str, ...] = "standard",
                   moments: Moments | None = None, snapshot_steps=()) -> BatchResult:
    """Run SGD for each seed, vectorized across replicates.

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
    check_stepsize(config.gamma, m.R2)
    d = spec.d
    if config.w0.shape != (d,):
        raise DimensionError(f"w0 has shape {config.w0.shape}, expected ({d},)")
    seeds = list(seeds)
    n_rep = len(seeds)
    if n_rep < 1:
        raise ValueError("need at least one seed")

    gamma, big_t, t0 = config.gamma, config.T, config.t_avg_start
    w_star = np.asarray(m.w_star, dtype=float)

    snap_steps = sorted({int(s) for s in snapshot_steps})
    if snap_steps and not (0 <= snap_steps[0] and snap_steps[-1] <= big_t):
        raise ValueError(f"snapshot steps must lie in [0, {big_t}]")
    snap_idx = {s: i for i, s in enumerate(snap_steps)}
    snaps = np.empty((len(snap_steps), n_rep, len(names), d))

    streams = sample_streams(spec, seeds)
    # Rows differ only in start point and label mask.  The noise-free (bias)
    # row is integrated in deviation coordinates with labels masked to zero:
    # forming y - w.x near the minimizer cancels catastrophically and floors
    # the decay at ulp(w*)^2, while the equivalent update dev -= gamma*(dev.x)x
    # decays geometrically to underflow.  Its outputs are shifted back by w*.
    start = {"standard": config.w0, "bias": config.w0 - w_star, "variance": w_star}
    w = np.empty((n_rep, len(names), d))
    w[:] = np.stack([start[p] for p in names])
    shift = np.stack([w_star if p == "bias" else np.zeros(d) for p in names])
    mask = np.array([0.0 if p == "bias" else 1.0 for p in names])

    tail = _KahanSum(w.shape)
    buf = np.empty(math.prod(draw_buffer_shape(n_rep, big_t, d)))
    dot, r, upd = np.empty(w.shape[:2]), np.empty(w.shape[:2]), np.empty(w.shape)
    done = 0
    while done < big_t:
        b = min(BLOCK, big_t - done)
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

    tails, finals, snaps = tail.total() / (big_t - t0) + shift, w + shift, snaps + shift
    if isinstance(process, str):
        tails, finals, snaps = tails[:, 0], finals[:, 0], snaps[:, :, 0]
    return BatchResult(
        tail_averages=tails,
        finals=finals,
        snapshot_steps=tuple(snap_steps),
        snapshots=snaps,
        samples_per_replicate=big_t,
    )
