"""Experiment harness: configs, a report per command, risk experiments, verification, sweeps.

Config schema (JSON)
--------------------
One field table gives each field a type, a default and an inclusive range.
Numbers must be finite, strings are never read as numbers, unknown keys are
rejected, and a malformed document raises ConfigError naming its field.  ::

    {
      "distribution": {
        "kind": "gaussian_well_specified" | "gaussian_misspecified" | "discrete",
        "d": 3,                               # 1 <= d <= 1000
        "H_spec": [[...]] | {"diag": [...]} | "identity",  # Gaussian kinds; default identity
        "w_star": [...],                      # default zeros
        "noise_sigma": 1.0,                   # default 0, >= 0
        "misspec_fn": "norm_x" | "one_plus_norm_x",        # default norm_x
        "support": [{"x": [...], "y_mean": 0.0, "y_std": 1.0, "prob": 0.5}, ...]
      },                                      # atoms: y_std >= 0, 0 <= prob <= 1
      "gamma_rule": "half_inv_R2" | "half_inv_rho_R2" | "explicit",  # default half_inv_R2
      "gamma": 0.05,          # required iff gamma_rule == "explicit"; 0 < gamma < 1/R^2
      "t_rule": "half_T" | "explicit",        # default half_T
      "t": 500,               # required iff t_rule == "explicit"; 0 <= t < T
      "T": 1000,              # default 1000, 1 <= T <= 10^9
      "w0": [...],            # default zeros
      "replicates": 100,      # default 100, 1 <= replicates <= 10^6
      "seed": 0               # default 0, 0 <= seed < 2^64
    }

A run may hold at most 1 GiB, counted before the model is built
(sgd.run_bytes): the outputs of every replicate, the transform's
temporaries, and one group as sgd.draw_plan sizes it, at most 2 MiB (draws,
state and streams) unless a floor binds.  The plan needs only d and the
draw form, which the model's own rule reads from H_spec: a full matrix whose
off-diagonal entries are zero counts as diagonal, and the discrete kind
fills whole blocks.  The count is per process: a pool's parent holds the
parts and their concatenation, within the count, and each worker less.  A
sweep reads gamma, replicates, seed, noise_sigma (default 1.0) and t_rule
(half_T only) through the same entries, and checks its axes d (default [1,
3, 10]), gamma_rules (default both derived rules), T (default [1000, 10000])
and families (default both) against the entries they vary.

Stepsize rules resolve against the model's moments: ``half_inv_R2`` gives
gamma = 1 / (2 R^2) and ``half_inv_rho_R2`` gives gamma = 1 / (2 rho R^2),
the conservative choice for badly misspecified noise.

Replicate r of cell c under master seed s draws from the stream seeded by
the tuple (s, c, r), so results do not depend on how replicates are batched
across worker processes: running with 1 or many workers is bit-identical.
A run or worker chunk passes its replicates lo <= r < hi as one
``SeedRange(s, c, lo, hi)``, keyed as one uint32 matrix with no seed list.

An experiment advances the standard process and, for its bias/variance
split, the bias and variance processes on the same draws.  A sweep row and
``simulate --format csv`` carry no split, so they advance the standard
process alone (``run_experiment(split=False)``), with the same bits.  The
1 GiB count above still counts all three processes, an upper bound.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .bounds import (
    RateConstants,
    RiskBound,
    _combined,
    rate_constants,
    risk_bound,
    sigma2_mle,
    variance_term,
)
from .distributions import (
    DISCRETE,
    GAUSSIAN_MISSPECIFIED,
    GAUSSIAN_WELL_SPECIFIED,
    KINDS,
    MISSPEC_FNS,
    DistributionSpec,
    Moments,
    SampleStream,
    SeedRange,
    SupportAtom,
    draws_diagonally,
    estimate_moments,
    exact_moments,
)
from . import matcore
from .errors import ConfigError, NonFiniteResultError, StepSizeError, TailSgdError
from .matcore import (
    _BUFFER_CAP,
    _ROW_BLOCK,
    _quad_forms,
    frobenius,
    psd_order_leq,
    sample_std,
)
from .sgd import PROCESSES, SgdConfig, resolve_model, run_bytes, run_replicates
from .stationary import (
    FourthMomentOperator,
    StationarySolution,
    _damped_inverse,
    _FourthMomentSums,
    covariance_walk,
    crude_bound,
    refined_trace_bound,
    solve_stationary_direct,
    solve_stationary_fixed_point,
    solve_stationary_gaussian,
)

GAMMA_RULES = ("half_inv_R2", "half_inv_rho_R2", "explicit")
T_RULES = ("half_T", "explicit")
FAMILIES = ("well_specified", "misspecified")

SWEEP_COLUMNS = (
    "cell_id", "d", "gamma", "rho", "T", "t", "replicates", "seed",
    "emp_risk", "stderr", "bound", "bias_bound", "var_bound", "eff_ratio", "error",
)

# The efficiency window [0.5, 2] is a large-sample statement: it is checked
# only on a tail window of at least this many relaxation times 1/(gamma mu)
# of the slowest direction.  Before that the tail average's variance falls
# short of its large-sample value: on the well-specified d=2 model (R=100,
# seeds 0-9) eff_ratio read 0.47-0.66 at 1.5 relaxation times, 0.58-0.77
# at 2, 0.80-0.97 at 3 and 0.78-1.15 at 4.
_EFFICIENCY_RELAXATIONS = 4.0

_REQUIRED = object()
_INT, _NUM = (int,), (int, float)


@dataclass(frozen=True)
class _Field:
    """One field of a JSON document: accepted types, default, inclusive range
    of a number, allowed strings, table of an object, field of a list item."""

    types: tuple
    default: object = _REQUIRED
    lo: float = -sys.float_info.max
    hi: float = sys.float_info.max
    choices: tuple = ()
    table: dict | None = None
    item: _Field | None = None


_VECTOR = _Field((list,), item=_Field(_NUM))

_ATOM_FIELDS = {
    "x": _VECTOR,
    "y_mean": _Field(_NUM, 0.0),
    "y_std": _Field(_NUM, 0.0, lo=0.0),
    "prob": _Field(_NUM, 0.0, lo=0.0, hi=1.0),
}

_DISTRIBUTION_FIELDS = {
    "kind": _Field((str,), choices=KINDS),
    "d": _Field(_INT, lo=1, hi=1000),
    "H_spec": _Field((str, dict, list), None, choices=("identity",),
                     table={"diag": _VECTOR}, item=_VECTOR),
    "w_star": replace(_VECTOR, default=None),
    "noise_sigma": _Field(_NUM, 0.0, lo=0.0),
    "misspec_fn": _Field((str,), "norm_x", choices=MISSPEC_FNS),
    "support": _Field((list,), None, item=_Field((dict,), table=_ATOM_FIELDS)),
}

_EXPERIMENT_FIELDS = {
    "distribution": _Field((dict,), table=_DISTRIBUTION_FIELDS),
    "gamma_rule": _Field((str,), "half_inv_R2", choices=GAMMA_RULES),
    "gamma": _Field(_NUM, None, lo=0.0),
    "t_rule": _Field((str,), "half_T", choices=T_RULES),
    "t": _Field(_INT, None, lo=0, hi=10 ** 9),
    "T": _Field(_INT, 1000, lo=1, hi=10 ** 9),
    "w0": replace(_VECTOR, default=None),
    "replicates": _Field(_INT, 100, lo=1, hi=10 ** 6),
    "seed": _Field(_INT, 0, lo=0, hi=2 ** 64 - 1),
}

# A sweep shares the experiment's entries; no sweep cell can supply t.
_SWEEP_FIELDS = {
    "d": _Field((list,), (1, 3, 10), item=_DISTRIBUTION_FIELDS["d"]),
    "families": _Field((list,), FAMILIES, item=_Field((str,), choices=FAMILIES)),
    "gamma_rules": _Field((list,), ("half_inv_R2", "half_inv_rho_R2"),
                          item=_EXPERIMENT_FIELDS["gamma_rule"]),
    "T": _Field((list,), (1000, 10000), item=_EXPERIMENT_FIELDS["T"]),
    "gamma": _EXPERIMENT_FIELDS["gamma"],
    "t_rule": replace(_EXPERIMENT_FIELDS["t_rule"], choices=("half_T",)),
    "noise_sigma": replace(_DISTRIBUTION_FIELDS["noise_sigma"], default=1.0),
    "replicates": _EXPERIMENT_FIELDS["replicates"],
    "seed": _EXPERIMENT_FIELDS["seed"],
}


def _check(value, field: _Field, name: str):
    """One JSON value checked against its field; numbers of float fields
    come back as floats and lists as tuples."""
    if isinstance(value, bool) or not isinstance(value, field.types):
        expected = " or ".join(t.__name__ for t in field.types)
        raise ConfigError(name, f"expected {expected}, got {type(value).__name__}")
    if isinstance(value, (int, float)):
        if not field.lo <= value <= field.hi:
            raise ConfigError(name, f"expected a finite value in [{field.lo:g}, {field.hi:g}], "
                                    f"got {value!r}")
        return float(value) if float in field.types else value
    if isinstance(value, str):
        if value not in field.choices:
            raise ConfigError(name, f"expected one of {field.choices}, got {value!r}")
        return value
    if isinstance(value, dict):
        return _read(value, field.table, name)
    if not value:
        raise ConfigError(name, "expected a non-empty list")
    return tuple(_check(v, field.item, f"{name}[{i}]") for i, v in enumerate(value))


def _read(doc, table: dict, where: str = "") -> dict:
    """A JSON object checked field by field against a table, defaults filled in."""
    if not isinstance(doc, dict):
        raise ConfigError(where or "config", f"expected an object, got {type(doc).__name__}")
    unknown = set(doc) - set(table)
    if unknown:
        raise ConfigError(where or "config", f"unknown keys {sorted(unknown)}")
    out = {}
    for key, field in table.items():
        name = f"{where}.{key}" if where else key
        if key in doc:
            out[key] = _check(doc[key], field, name)
        elif field.default is _REQUIRED:
            raise ConfigError(name, "missing")
        else:
            out[key] = field.default
    return out


def _json_document(text: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment: model with its moments and fourth-moment
    operator, stepsize, window, and replication."""

    distribution: DistributionSpec
    moments: Moments
    operator: FourthMomentOperator
    gamma: float
    t: int
    T: int
    w0: np.ndarray
    replicates: int
    seed: int


def _model(f: dict, h) -> tuple[DistributionSpec, Moments, FourthMomentOperator]:
    """The model, moments and fourth-moment operator of a checked document f with H h."""
    try:
        spec = DistributionSpec(
            kind=f["kind"], d=f["d"], H_spec=h,
            w_star=None if f["w_star"] is None else np.asarray(f["w_star"]),
            noise_sigma=f["noise_sigma"], misspec_fn=f["misspec_fn"],
            support=tuple(SupportAtom(**a) for a in f["support"] or ()),
        )
        return (spec, *resolve_model(spec))
    except (TailSgdError, ValueError, ArithmeticError) as exc:
        # ArithmeticError: finite inputs whose moments overflow
        raise ConfigError("distribution", str(exc)) from exc


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Check an experiment document against the field table and the
    cross-field conditions, and resolve the model's moments and the
    derived rules."""
    f = _read(doc, _EXPERIMENT_FIELDS)
    dist, big_t = f["distribution"], f["T"]
    d, h = dist["d"], dist["H_spec"]
    if h == "identity" or (h is None and dist["kind"] != DISCRETE):
        h = np.eye(d)
    elif isinstance(h, dict):
        h = np.diag(h["diag"])
    try:
        # the plan follows the model's draw form, decided from H in O(d^2)
        diagonal = dist["kind"] != DISCRETE and draws_diagonally(h)
    except ValueError as exc:
        raise ConfigError("distribution", str(exc)) from exc
    size = run_bytes(d, f["replicates"], big_t, diagonal)
    if size > _BUFFER_CAP:
        raise ConfigError("replicates", f"a run would hold {size} bytes, "
                                        f"over the cap of {_BUFFER_CAP}")
    w0 = np.zeros(d) if f["w0"] is None else np.asarray(f["w0"])
    if w0.shape != (d,):
        raise ConfigError("w0", f"shape {w0.shape} incompatible with d={d}")
    if f["t_rule"] == "explicit" and f["t"] is None:
        raise ConfigError("t", "required when t_rule is explicit")
    t = f["t"] if f["t_rule"] == "explicit" else big_t // 2
    if t >= big_t:
        raise ConfigError("t", f"window [{t}, {big_t}) is empty")

    dist, m, op = _model(dist, h)
    if f["gamma_rule"] == "explicit":
        if f["gamma"] is None:
            raise ConfigError("gamma", "required when gamma_rule is explicit")
        gamma = f["gamma"]
    elif f["gamma_rule"] == "half_inv_R2":
        gamma = 1.0 / (2.0 * m.R2)
    else:
        rho = rate_constants(m, 1.0 / (2.0 * m.R2)).rho
        gamma = 1.0 / (2.0 * rho * m.R2)
    try:
        StepSizeError.check(gamma, m.R2)
    except StepSizeError as exc:
        raise ConfigError("gamma", str(exc)) from exc
    return ExperimentConfig(distribution=dist, moments=m, operator=op, gamma=gamma, t=t,
                            T=big_t, w0=w0, replicates=f["replicates"], seed=f["seed"])


def parse_config(text: str, replicates: int | None = None,
                 seed: int | None = None) -> ExperimentConfig:
    """Parse a JSON experiment document; a ``replicates`` or ``seed`` given
    here replaces the document's before it is checked."""
    doc = _json_document(text)
    if isinstance(doc, dict):
        doc.update((k, v) for k, v in (("replicates", replicates), ("seed", seed))
                   if v is not None)
    return config_from_dict(doc)


# ---------------------------------------------------------------------------
# Model reports


def _closed_form(cfg: ExperimentConfig) -> Moments:
    """The config's moments, which must be closed-form: on an estimate-only
    model ``exact_moments`` raises the IntractableMomentsError that says so."""
    return cfg.moments if cfg.moments.exact else exact_moments(cfg.distribution)


def use_one_blas_thread() -> None:
    """Set numpy's bundled OpenBLAS to one thread for the rest of the process,
    where a product's bits do not depend on the machine; a CLI call starts
    here.  Sets nothing where one thread is in force.  Pool workers forked
    later inherit the one thread and make no call: in a forked process any
    thread-count call restarts a spinning OpenBLAS thread."""
    lib = matcore._openblas()
    if lib is not None and lib[0]() != 1:
        lib[1](1)


def moments_report(cfg: ExperimentConfig, estimate: int | None = None) -> dict:
    """The model's closed-form moments or, given ``estimate`` (the
    ``--estimate`` flag), moments from that many fresh draws; with sigma2_mle
    and rho at gamma = 1 / (2 R^2)."""
    spec = cfg.distribution
    if estimate is None:
        m = _closed_form(cfg)
    else:
        if estimate < spec.d:
            raise ConfigError("--estimate", f"need at least d={spec.d} draws, got {estimate}")
        if estimate * (spec.d + 1) * 8 > _BUFFER_CAP:
            raise ConfigError("--estimate", f"{estimate} draws of {spec.d + 1} floats "
                                            f"exceed {_BUFFER_CAP} bytes")
        m = estimate_moments(spec, estimate, (cfg.seed, 990))
    return {
        "kind": spec.kind, "d": m.d, "exact": m.exact, "n_samples": m.n_samples,
        "H": m.H, "Sigma": m.Sigma, "w_star": m.w_star, "mu": m.mu, "R2": m.R2,
        "sigma2_mle": sigma2_mle(m),
        "rho": None if m.noiseless else rate_constants(m, 0.5 / m.R2).rho,
    }


def stationary_report(cfg: ExperimentConfig, method: str) -> dict:
    """The stationary iterate covariance by ``method`` ("fixed-point" or
    "direct"), with its a-priori caps and the variance of the tail average."""
    m = cfg.moments
    solver = {"fixed-point": solve_stationary_fixed_point,
              "direct": solve_stationary_direct}[method]
    sol = solver(m.H, cfg.operator, m.Sigma, cfg.gamma)
    trace = float(np.trace(sol.cov))
    return {
        "method": sol.method, "cov": sol.cov, "residual": sol.residual,
        "iterations": sol.iterations, "condition": sol.condition,
        "operator_exact": sol.exact, "moments_exact": m.exact,
        "trace": trace, "lambda_max": float(np.linalg.eigvalsh(sol.cov)[-1]),
        "crude_bound": crude_bound(m.Sigma, m.H, cfg.gamma, m.R2),
        "refined_trace_bound": refined_trace_bound(m.Sigma, m.H, cfg.gamma, m.R2),
        "variance_of_average": trace / (cfg.gamma * (cfg.T - cfg.t)),
    }


def bound_report(cfg: ExperimentConfig) -> dict:
    """Rate constants, ||w0 - w*||^2 and the closed-form risk bound of the
    configured run.  A non-finite bound raises NonFiniteResultError; when
    ||w0 - w*||^2 overflows it is infinite, without a numpy warning."""
    m = cfg.moments
    rc = rate_constants(m, cfg.gamma)
    with np.errstate(over="ignore"):
        dist0_sq = float(np.sum((cfg.w0 - m.w_star) ** 2))
    return {"constants": rc, "dist0_sq": dist0_sq,
            "bound": risk_bound(rc, cfg.t, cfg.T, dist0_sq)}


# ---------------------------------------------------------------------------
# Monte-Carlo experiments


def _chunk_ranges(n: int, workers: int):
    # one chunk per worker, never more workers than replicates or usable CPUs
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    k = max(1, min(int(workers), n, cpus))
    base, extra = divmod(n, k)
    out, lo = [], 0
    for i in range(k):
        hi = lo + base + (1 if i < extra else 0)
        out.append((lo, hi))
        lo = hi
    return out


def _tail_chunk(args):
    spec, cfg, master, cell, lo, hi, moments, processes = args
    res = run_replicates(spec, cfg, SeedRange(master, cell, lo, hi), process=processes,
                         moments=moments)
    return res.tail_averages


def _tail_averages(spec, cfg, moments, master, cell, n_rep, workers, processes):
    """(replicates, len(processes), d) tail averages of the named processes."""
    jobs = [(spec, cfg, master, cell, lo, hi, moments, processes)
            for lo, hi in _chunk_ranges(n_rep, workers)]
    if len(jobs) == 1:
        parts = [_tail_chunk(jobs[0])]
    else:
        # forked workers inherit numpy.random instead of each importing it
        import numpy.random  # noqa: F401
        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            parts = list(pool.map(_tail_chunk, jobs))
    return np.concatenate(parts, axis=0)


def _risk_stats(tail_averages, m: Moments):
    dev = tail_averages - m.w_star
    risks = 0.5 * np.einsum("rd,de,re->r", dev, m.H, dev)
    mean = float(risks.mean())
    se = float(sample_std(risks)) / math.sqrt(len(risks)) if len(risks) > 1 else 0.0
    return mean, se


@dataclass(frozen=True)
class RiskReport:
    """Monte-Carlo estimate of the tail-average excess risk next to its bound.

    ``bias_risk`` and ``var_risk`` measure the two halves of the same run:
    the noise-free process and the noise-driven process started at w*,
    advanced alongside the standard process on the very same draws.  A run
    without the split advances the standard process alone, and its four
    split fields are None.  ``eff_ratio`` is emp_risk * (T - t) / sigma2_mle,
    the distance from the large-sample optimum 1; it is 0 for noiseless models.
    """

    emp_risk: float
    stderr: float
    ci_low: float
    ci_high: float
    bound: RiskBound
    constants: RateConstants
    bias_risk: float | None
    bias_stderr: float | None
    var_risk: float | None
    var_stderr: float | None
    eff_ratio: float
    replicates: int
    seed: int

    def __post_init__(self):
        NonFiniteResultError.check(self)


def run_experiment(cfg: ExperimentConfig, *, workers: int = 1, cell: int = 0,
                   split: bool = True) -> RiskReport:
    """Estimate the tail-average risk and evaluate the closed-form bound for
    the same run geometry.  With ``split`` the run also advances the bias and
    variance processes and reports their risks; without it, it advances the
    standard process alone, whose risk has the same bits either way."""
    m = cfg.moments
    # a non-finite bound fails here, before the simulation is paid for
    bound = bound_report(cfg)
    rc = bound["constants"]
    sgd_cfg = SgdConfig(gamma=cfg.gamma, w0=cfg.w0, t_avg_start=cfg.t, T=cfg.T)
    processes = PROCESSES if split else ("standard",)
    tails = _tail_averages(cfg.distribution, sgd_cfg, m, cfg.seed, cell,
                           cfg.replicates, workers, processes)
    stats = {p: _risk_stats(tails[:, k], m) for k, p in enumerate(processes)}
    emp, se = stats["standard"]
    bias, var = stats.get("bias", (None, None)), stats.get("variance", (None, None))
    eff = emp * (cfg.T - cfg.t) / rc.sigma2 if rc.sigma2 > 0.0 else 0.0
    return RiskReport(
        emp_risk=emp,
        stderr=se,
        ci_low=emp - 1.96 * se,
        ci_high=emp + 1.96 * se,
        bound=bound["bound"],
        constants=rc,
        bias_risk=bias[0],
        bias_stderr=bias[1],
        var_risk=var[0],
        var_stderr=var[1],
        eff_ratio=eff,
        replicates=cfg.replicates,
        seed=cfg.seed,
    )


# ---------------------------------------------------------------------------
# Verification


@dataclass(frozen=True)
class CheckResult:
    """One verification row: ``passed`` is its verdict, and ``margin`` the
    distance from the row's threshold in the row's own unit, which a row with
    a tolerance passes below 0 (``fourth-moment-dominated``: -5.0e204 at H = 1e110 I)."""

    name: str
    passed: bool
    margin: float
    detail: str


def _at_most(value: float, cap: float, detail: str, limit: float | None = None):
    """The at-most rule: value <= cap, or <= a slackened ``limit`` given in
    the check's own float expression; the margin is cap - value."""
    return value <= (cap if limit is None else limit), cap - value, detail


def _entrywise_margin(diff, se, atol: float) -> float:
    # 1 - max |diff| / (4 se + atol); positive when every entry sits inside
    # four standard errors
    ratio = np.abs(diff) / (4.0 * np.asarray(se) + atol)
    return float(1.0 - ratio.max())


def _sampled_pass(spec: DistributionSpec, m: Moments, seed: int):
    """The three sampled rows' one draw of n = 200,000 pairs from the stream
    (seed, 903), folded block by block of ``_ROW_BLOCK`` pairs and never held
    whole: n, the fourth-moment sums, the summed x^T (y - x.w*), and the
    mean and standard error of the quadratic forms
    q = (y - x.w*)^2 x^T H^-1 x / 2.  Those two come from a running mean and
    sum of squared deviations of q / 2^k (Chan's pairwise update), with
    2^k <= max q < 2^(k+1) over the first block, so the squares stay in range
    wherever the mean does.  Its bits depend on the BLAS thread count; a CLI
    call runs it at one thread, where they do not."""
    n = 200_000
    stream = SampleStream(spec, (seed, 903))
    fourth_sums = _FourthMomentSums(m.H)
    grad = np.zeros(m.d)
    h_inv = np.linalg.inv(m.H)
    scale, q_mean, q_ss = None, 0.0, 0.0
    for i in range(0, n, _ROW_BLOCK):
        x, y = stream.draw(min(_ROW_BLOCK, n - i))
        resid = y - x @ m.w_star
        fourth_sums.add(x)
        grad += x.T @ resid
        q = 0.5 * resid ** 2 * _quad_forms(x, h_inv)
        if scale is None:
            scale = math.ldexp(1.0, math.frexp(float(q.max()))[1] - 1)
        q /= scale
        # fold the block's count b, mean and squared deviations into the
        # running ones over the i pairs before it
        b, b_mean = len(q), float(q.mean())
        delta = b_mean - q_mean
        q_mean += delta * b / (i + b)
        q_ss += float(np.sum((q - b_mean) ** 2)) + delta * delta * i * b / (i + b)
    return n, fourth_sums, grad, q_mean * scale, math.sqrt(q_ss / (n - 1)) * scale / math.sqrt(n)


def _doubling_series(p: np.ndarray, a: np.ndarray, k: int) -> np.ndarray:
    """sum_{i<k} A^i P A^i for k a power of two, in log2(k) doubling steps:
    the first 2j terms are S_j + A^j S_j A^j."""
    series, power, j = p, a, 1
    while j < k:
        series = series + power @ series @ power
        power = power @ power
        j *= 2
    return series


@dataclass(frozen=True)
class _Verification:
    """The work verify's rows share, formed by ``of`` in field order before
    any row runs; an error in it ends verify.  The walk is formed by the first
    row that reads it, so an error there FAILs its two rows alone.  Rows read
    the rate constants and the risk bound from ``bound``, and only the run's
    risks from ``report``."""

    cfg: ExperimentConfig
    m: Moments
    bound: dict
    n: int
    fourth_sums: _FourthMomentSums
    grad: np.ndarray
    q_mean: float
    q_stderr: float
    sol_fp: StationarySolution
    sol_dir: StationarySolution
    report: RiskReport

    @classmethod
    def of(cls, cfg: ExperimentConfig, workers: int = 1) -> _Verification:
        m, op, gamma = _closed_form(cfg), cfg.operator, cfg.gamma
        # a non-finite bound fails here, before the rest is paid for
        bound = bound_report(cfg)
        sampled = _sampled_pass(cfg.distribution, m, cfg.seed)
        sol_fp = solve_stationary_fixed_point(m.H, op, m.Sigma, gamma)
        # the second solution: closed form on a Gaussian backing, in O(d^3);
        # the dense O(d^6) solve on a discrete one
        sol_dir = (solve_stationary_gaussian(m.H, m.Sigma, gamma) if op.kind == "gaussian"
                   else solve_stationary_direct(m.H, op, m.Sigma, gamma))
        return cls(cfg, m, bound, *sampled, sol_fp, sol_dir, run_experiment(cfg, workers=workers))

    @property
    def via(self) -> str:
        return f" ({self.sol_dir.method} solve)"

    @functools.cached_property
    def walk(self):
        return covariance_walk(self.m.H, self.cfg.operator, self.m.Sigma, self.cfg.gamma,
                               basis=self.sol_dir.basis)

    def spd_moments(self):
        s_evals = np.linalg.eigvalsh(self.m.Sigma)
        ok = self.m.mu > 0.0 and s_evals[0] >= -1e-10 * max(s_evals[-1], 1.0)
        return ok, self.m.mu, f"mu={self.m.mu:.6e} sigma_eig_min={s_evals[0]:.6e}"

    def fourth_moment_dominated(self):
        m = self.m
        f4 = self.cfg.operator.apply(np.eye(m.d))
        gap = float(np.linalg.eigvalsh(m.R2 * m.H - f4)[0])
        tight = not psd_order_leq(f4, 0.99 * m.R2 * m.H, tol=0.0)
        ok = gap >= -1e-10 * m.R2 * float(np.linalg.eigvalsh(m.H)[-1]) and tight
        return ok, gap, f"R2={m.R2:.6e} slack_eig={gap:.3e} tight_at_0.99={tight}"

    def trace_vs_r2(self):
        m, trace = self.m, float(np.trace(self.m.H))
        margin = m.R2 - trace
        return margin >= -1e-12 * m.R2, margin, f"R2={m.R2:.6e} trace_H={trace:.6e}"

    def fourth_moment_sampled(self):
        m = self.m
        mean, se = self.fourth_sums.mean_and_stderr()
        # the floor 1e-12 (1 + R^2) of a unit-scale H, scaled as S(H) is,
        # and positive where S(H) and its estimate underflow to 0
        k = self.fourth_sums.k
        floor = max(math.ldexp(1e-12 * (1.0 + math.ldexp(m.R2, -2 * k)), 6 * k), math.ulp(0.0))
        margin = _entrywise_margin(mean - self.cfg.operator.apply(m.H), se, floor)
        return margin >= 0.0, margin, f"closed form within 4 standard errors of {self.n} draws"

    def noise_mean_zero(self):
        # the gradient noise at w* is -(y - x.w*) x: its mean is the summed
        # x^T (y - x.w*) over n
        norm = frobenius(self.grad) / self.n
        cap = 4.0 * math.sqrt(float(np.trace(self.m.Sigma)) / self.n) + 1e-12
        return _at_most(norm, cap, f"|mean|={norm:.3e} cap={cap:.3e}")

    def quadratic_form(self):
        target = sigma2_mle(self.m)
        return _at_most(abs(self.q_mean - target), 4.0 * self.q_stderr + 1e-12,
                        f"quadratic-form mean {self.q_mean:.6e} vs half-trace {target:.6e}")

    def residual(self, sol, note=""):
        cap = 1e-8 * self.cfg.gamma * frobenius(self.m.Sigma) + 1e-300
        return _at_most(sol.residual, cap, f"residual={sol.residual:.3e} cap={cap:.3e}{note}")

    def agreement(self):
        diff = frobenius(self.sol_fp.cov - self.sol_dir.cov)
        cap = 1e-8 * max(frobenius(self.sol_dir.cov), 1e-300)
        return _at_most(diff, cap, f"|C_fp - C|_F={diff:.3e}{self.via}")

    def monotone(self):
        worst = self.walk[0]
        return worst >= -1e-12, worst, "iterates increase in the semidefinite order"

    def trace_cap(self):
        cap = self.cfg.gamma * float(np.trace(self.m.Sigma)) / self.m.mu
        worst = max(self.walk[1], float(np.trace(self.sol_fp.cov)))
        return _at_most(worst, cap, f"max trace {worst:.6e} vs gamma Tr(Sigma)/mu = {cap:.6e}",
                        limit=cap * (1.0 + 1e-12) + 1e-300)

    def spectral_cap(self):
        cap = crude_bound(self.m.Sigma, self.m.H, self.cfg.gamma, self.m.R2)
        lam = float(np.linalg.eigvalsh(self.sol_dir.cov)[-1])
        return _at_most(lam, cap, f"lambda_max={lam:.6e} cap={cap:.6e}{self.via}",
                        limit=cap + 1e-10 * (1.0 + cap))

    def trace_refined(self):
        cap = refined_trace_bound(self.m.Sigma, self.m.H, self.cfg.gamma, self.m.R2)
        tr = float(np.trace(self.sol_dir.cov))
        return _at_most(tr, cap, f"trace={tr:.6e} cap={cap:.6e}{self.via}",
                        limit=cap + 1e-10 * (1.0 + cap))

    def variance_identity(self):
        m, gamma, window = self.m, self.cfg.gamma, self.cfg.T - self.cfg.t
        rc = self.bound["constants"]
        via_trace = refined_trace_bound(m.Sigma, m.H, gamma, m.R2) / (gamma * window)
        direct = variance_term(gamma, m.R2, rc.rho, rc.sigma2, window)
        return _at_most(abs(via_trace - direct), 1e-12 * max(direct, 1e-300),
                        f"trace route {via_trace!r} vs direct {direct!r}")

    def damped_inverse(self):
        m, gamma = self.m, self.cfg.gamma
        probe = m.H if m.noiseless else m.Sigma
        direct = _damped_inverse(m.H, probe, gamma)
        # terms shrink by rate = (1 - gamma mu)^2, taken through log1p, as
        # 1 - gamma mu rounds to 1 below gamma mu ~ 1e-16
        gm = gamma * m.mu
        log_rate = 2.0 * math.log1p(-gm)
        need = math.log(1e-12) / log_rate if log_rate < 0.0 else math.inf
        # the first power of two above need, and at most 2^16
        k = 1 << math.ceil(min(need, 2.0 ** 16 - 1.0)).bit_length()
        series = _doubling_series(gamma * probe, np.eye(m.d) - gamma * m.H, k)
        # the tail gamma |P|_F rate^k / (1 - rate), 1 - rate = gamma mu (2 - gamma mu)
        envelope = (frobenius(probe) * math.exp(k * log_rate)
                    / (m.mu * (2.0 - gm)) + 1e-10 * (1.0 + frobenius(direct)))
        diff = frobenius(series - direct)
        return _at_most(diff, envelope, f"{k}-term series vs eigenbasis inverse, diff={diff:.3e}")

    def mean_recursion(self):
        cfg, m, gamma = self.cfg, self.m, self.cfg.gamma
        t_star, reps = 30, 2000
        run_cfg = SgdConfig(gamma=gamma, w0=cfg.w0, t_avg_start=0, T=t_star + 1)
        res = run_replicates(cfg.distribution, run_cfg, SeedRange(cfg.seed, 904, 0, reps),
                             moments=m, snapshot_steps=(t_star,))
        w_t = res.snapshots[0]
        theory = np.linalg.matrix_power(np.eye(m.d) - gamma * m.H, t_star) @ (cfg.w0 - m.w_star)
        se = sample_std(w_t, axis=0) / math.sqrt(reps)
        margin = _entrywise_margin(w_t.mean(axis=0) - m.w_star - theory, se, 1e-12)
        return margin >= 0.0, margin, f"E[w_t] - w* matches (I - gamma H)^{t_star} (w0 - w*)"

    def bias_decay(self):
        cfg, m, gamma = self.cfg, self.m, self.cfg.gamma
        reps = 1000
        ts = [t for t in (10, 100) if t <= cfg.T] or [cfg.T]
        run_cfg = SgdConfig(gamma=gamma, w0=cfg.w0, t_avg_start=0, T=max(ts) + 1)
        res = run_replicates(cfg.distribution, run_cfg, SeedRange(cfg.seed, 905, 0, reps),
                             process="bias", moments=m, snapshot_steps=ts)
        worst, details = math.inf, []
        for k, t in enumerate(res.snapshot_steps):
            sq = np.sum((res.snapshots[k] - m.w_star) ** 2, axis=1)
            mean = float(sq.mean())
            se = float(sample_std(sq)) / math.sqrt(reps)
            cap = math.exp(-gamma * m.mu * t) * self.bound["dist0_sq"] + 4.0 * se + 1e-12
            worst = min(worst, cap - mean)
            details.append(f"t={t}: {mean:.3e} <= {cap:.3e}")
        return worst >= 0.0, worst, "; ".join(details)

    def bound_holds(self):
        r, total = self.report, self.bound["bound"].total
        return _at_most(r.ci_low, total,
                        f"emp={r.emp_risk:.6e} (se {r.stderr:.2e}) bound={total:.6e}")

    def split(self):
        r = self.report
        combined = _combined(r.bias_risk, r.var_risk)
        slack = 4.0 * (r.stderr + r.bias_stderr + r.var_stderr) + 1e-12
        return _at_most(r.emp_risk, combined + slack,
                        f"total {r.emp_risk:.6e} vs split {combined:.6e}")

    def rho(self):
        if self.m.noiseless:
            return True, 0.0, "skipped: noiseless model"
        rho = self.bound["constants"].rho
        return rho >= 1.0 - 1e-12, rho - 1.0, f"rho={rho!r}"

    def efficiency(self):
        r, m, cfg, b = self.report, self.m, self.cfg, self.bound["bound"]
        if m.noiseless or b.bias > 0.1 * b.variance:
            return True, 0.0, "skipped: not variance-dominated"
        relaxations = cfg.gamma * m.mu * (cfg.T - cfg.t)
        if relaxations < _EFFICIENCY_RELAXATIONS:
            return (True, 0.0, f"skipped: window of {relaxations:.3g} < "
                               f"{_EFFICIENCY_RELAXATIONS:g} relaxation times 1/(gamma mu)")
        margin = min(r.eff_ratio - 0.5, 2.0 - r.eff_ratio)
        return margin >= 0.0, margin, f"eff_ratio={r.eff_ratio:.4f} window [0.5, 2.0]"


# verify's rows in the order they print: (name, check of the shared work)
VERIFY_ROWS = (
    ("spd-moments", _Verification.spd_moments),
    ("fourth-moment-dominated", _Verification.fourth_moment_dominated),
    ("trace-vs-r2", _Verification.trace_vs_r2),
    ("fourth-moment-sampled", _Verification.fourth_moment_sampled),
    ("noise-mean-zero", _Verification.noise_mean_zero),
    ("sigma2-mle-quadratic-form", _Verification.quadratic_form),
    ("stationary-residual-fixed-point", lambda v: v.residual(v.sol_fp)),
    ("stationary-residual-direct", lambda v: v.residual(v.sol_dir, v.via)),
    ("stationary-agreement", _Verification.agreement),
    ("covariance-monotone", _Verification.monotone),
    ("covariance-trace-cap", _Verification.trace_cap),
    ("stationary-spectral-cap", _Verification.spectral_cap),
    ("stationary-trace-refined", _Verification.trace_refined),
    ("variance-term-identity", _Verification.variance_identity),
    ("damped-drift-inverse", _Verification.damped_inverse),
    ("mean-recursion", _Verification.mean_recursion),
    ("bias-decay", _Verification.bias_decay),
    ("risk-bound-holds", _Verification.bound_holds),
    ("bias-variance-split", _Verification.split),
    ("rho-at-least-one", _Verification.rho),
    ("efficiency-window", _Verification.efficiency),
)


def _check_row(name: str, check, shared: _Verification) -> CheckResult:
    """The row of one verify check on the shared work; a package error the
    check raises makes a FAIL row with margin -inf."""
    try:
        passed, margin, detail = check(shared)
    except TailSgdError as exc:
        return CheckResult(name, False, float("-inf"), f"raised {exc!r}")
    return CheckResult(name, passed, margin, detail)


def run_verification(cfg: ExperimentConfig, *, workers: int = 1) -> list[CheckResult]:
    """Check the closed-form identities, order relations, solver residuals,
    and Monte-Carlo agreements implied by one experiment's model: one row per
    entry of ``VERIFY_ROWS``, made by ``_check_row``.  Requires closed-form
    moments.  Monte-Carlo checks use fixed offsets of the config seed and
    four-standard-error slack, so a pass is reproducible and a failure means
    a real discrepancy at that seed."""
    shared = _Verification.of(cfg, workers)
    return [_check_row(name, check, shared) for name, check in VERIFY_ROWS]


# ---------------------------------------------------------------------------
# Sweeps

@dataclass(frozen=True)
class SweepConfig:
    """Cross product of dimensions ``d``, model families, stepsize rules,
    and horizons ``T``; every cell shares the remaining fields."""

    d: tuple[int, ...]
    families: tuple[str, ...]
    gamma_rules: tuple[str, ...]
    T: tuple[int, ...]
    gamma: float | None
    t_rule: str
    noise_sigma: float
    replicates: int
    seed: int


def parse_sweep_config(text: str) -> SweepConfig:
    """Parse a JSON sweep document (keys d, families, gamma_rules, T, plus
    the scalar policy fields)."""
    cfg = SweepConfig(**_read(_json_document(text), _SWEEP_FIELDS))
    if "explicit" in cfg.gamma_rules and cfg.gamma is None:
        raise ConfigError("gamma", "required when gamma_rules contains explicit")
    return cfg


def family_distribution(family: str, d: int, noise_sigma: float) -> dict:
    """Concrete model for one sweep family: identity covariance for the
    well-specified family, geometrically decaying spectrum for the
    misspecified one; both aim at w* = ones / sqrt(d)."""
    w_star = list(np.ones(d) / math.sqrt(d))
    if family == "well_specified":
        return {"kind": GAUSSIAN_WELL_SPECIFIED, "d": d, "H_spec": "identity",
                "w_star": w_star, "noise_sigma": noise_sigma}
    if family == "misspecified":
        return {"kind": GAUSSIAN_MISSPECIFIED, "d": d,
                "H_spec": {"diag": [2.0 ** -j for j in range(d)]},
                "w_star": w_star, "noise_sigma": noise_sigma,
                "misspec_fn": "norm_x"}
    raise ConfigError("families", f"unknown family {family!r}")


def sweep(sweep_cfg: SweepConfig, *, workers: int = 1) -> list[dict]:
    """Run every cell of the grid, each advancing the standard process alone,
    since a row carries no bias/variance split; failed cells record the error
    message in their row and the sweep continues."""
    rows = []
    cells = itertools.product(sweep_cfg.d, sweep_cfg.families,
                              sweep_cfg.gamma_rules, sweep_cfg.T)
    for cell_id, (d, family, rule, big_t) in enumerate(cells):
        try:
            doc = {
                "distribution": family_distribution(family, d, sweep_cfg.noise_sigma),
                "gamma_rule": rule,
                "t_rule": sweep_cfg.t_rule,
                "T": big_t,
                "replicates": sweep_cfg.replicates,
                "seed": sweep_cfg.seed,
            }
            if rule == "explicit":
                doc["gamma"] = sweep_cfg.gamma
            cfg = config_from_dict(doc)
            report = run_experiment(cfg, workers=workers, cell=cell_id, split=False)
            row = sweep_row(cell_id, cfg, report)
        except TailSgdError as exc:
            row = dict.fromkeys(SWEEP_COLUMNS, "")
            row.update(cell_id=cell_id, d=d, T=big_t, replicates=sweep_cfg.replicates,
                       seed=sweep_cfg.seed, error=str(exc))
        rows.append(row)
    return rows


def sweep_row(cell_id: int, cfg: ExperimentConfig, report: RiskReport) -> dict:
    """The sweep CSV row of one finished experiment."""
    row = dict.fromkeys(SWEEP_COLUMNS, "")
    row.update(
        cell_id=cell_id, d=cfg.distribution.d, gamma=cfg.gamma, rho=report.constants.rho,
        T=cfg.T, t=cfg.t, replicates=report.replicates, seed=report.seed,
        emp_risk=report.emp_risk, stderr=report.stderr, bound=report.bound.total,
        bias_bound=report.bound.bias, var_bound=report.bound.variance,
        eff_ratio=report.eff_ratio,
    )
    return row


def sweep_csv(rows: list[dict]) -> str:
    """Render sweep rows as CSV; floats print via repr so equal runs give
    byte-identical files."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for row in rows:
        writer.writerow([str(row[c]) for c in SWEEP_COLUMNS])
    return buf.getvalue()
