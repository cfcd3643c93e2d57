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
(sgd.run_bytes): the outputs and seeds of every replicate, the transform's
temporaries, and one group as sgd.draw_plan sizes it, at most 2 MiB (draws,
state and streams) unless a floor binds.  The plan needs only d and the
form of the Cholesky factor, read from the document: an omitted, "identity"
or {"diag": ...} H_spec factors diagonally, a full matrix is counted as
whichever form holds more, and the discrete kind fills whole blocks.  The
count is per process: a pool's parent holds the parts and their
concatenation, within the count, and each worker less.  A sweep
reads gamma, replicates, seed, noise_sigma (default 1.0) and t_rule (half_T
only) through the same entries, and checks its axes d (default [1, 3, 10]),
gamma_rules (default both derived rules), T (default [1000, 10000]) and
families (default both) against the entries they vary.

Stepsize rules resolve against the model's moments: ``half_inv_R2`` gives
gamma = 1 / (2 R^2) and ``half_inv_rho_R2`` gives gamma = 1 / (2 rho R^2),
the conservative choice for badly misspecified noise.

Replicate r of cell c under master seed s draws from the stream seeded by
the tuple (s, c, r), so results do not depend on how replicates are batched
across worker processes: running with 1 or many workers is bit-identical.
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
    SupportAtom,
    estimate_moments,
    exact_moments,
)
from . import matcore
from .errors import ConfigError, NonFiniteResultError, TailSgdError
from .matcore import (
    _BUFFER_CAP,
    _ROW_BLOCK,
    _quad_forms,
    psd_order_leq,
)
from .sgd import PROCESSES, SgdConfig, resolve_model, run_bytes, run_replicates
from .stationary import (
    FourthMomentOperator,
    _damped_inverse,
    _FourthMomentSums,
    covariance_step,
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


def _model(f: dict) -> tuple[DistributionSpec, Moments, FourthMomentOperator]:
    """The model of a checked distribution document, its moments and its
    fourth-moment operator."""
    h = f["H_spec"]
    if h == "identity" or (h is None and f["kind"] != DISCRETE):
        h = np.eye(f["d"])
    elif isinstance(h, dict):
        h = np.diag(h["diag"])
    try:
        spec = DistributionSpec(
            kind=f["kind"], d=f["d"],
            H_spec=None if h is None else np.asarray(h, dtype=float),
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
    d = dist["d"]
    # the plan follows the form of the Cholesky factor, read from the
    # document: a full H_spec matrix may factor either way
    forms = ((False,) if dist["kind"] == DISCRETE
             else (True, False) if isinstance(dist["H_spec"], tuple) else (True,))
    size = max(run_bytes(d, f["replicates"], big_t, diagonal) for diagonal in forms)
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

    dist, m, op = _model(f["distribution"])
    if f["gamma_rule"] == "explicit":
        if f["gamma"] is None:
            raise ConfigError("gamma", "required when gamma_rule is explicit")
        gamma = f["gamma"]
    elif f["gamma_rule"] == "half_inv_R2":
        gamma = 1.0 / (2.0 * m.R2)
    else:
        rho = rate_constants(m, 1.0 / (2.0 * m.R2)).rho
        gamma = 1.0 / (2.0 * rho * m.R2)
    if not 0.0 < gamma < 1.0 / m.R2:
        raise ConfigError("gamma", f"{gamma!r} outside the stable range (0, {1.0 / m.R2!r})")
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


def replicate_seed(master: int, cell: int, index: int) -> tuple[int, int, int]:
    """Seed tuple of one replicate; the flat layout keeps results independent
    of worker batching."""
    return (int(master), int(cell), int(index))


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
    spec, cfg, master, cell, lo, hi, moments = args
    seeds = [replicate_seed(master, cell, i) for i in range(lo, hi)]
    res = run_replicates(spec, cfg, seeds, process=PROCESSES, moments=moments)
    return res.tail_averages


def _tail_averages(spec, cfg, moments, master, cell, n_rep, workers):
    """(replicates, len(PROCESSES), d) tail averages of every process."""
    jobs = [(spec, cfg, master, cell, lo, hi, moments)
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
    se = float(risks.std(ddof=1) / math.sqrt(len(risks))) if len(risks) > 1 else 0.0
    return mean, se


@dataclass(frozen=True)
class RiskReport:
    """Monte-Carlo estimate of the tail-average excess risk next to its bound.

    ``bias_risk`` and ``var_risk`` measure the two halves of the same run:
    the noise-free process and the noise-driven process started at w*,
    advanced alongside the standard process on the very same draws.  ``eff_ratio``
    is emp_risk * (T - t) / sigma2_mle, the distance from the large-sample
    optimum 1; it is reported as 0 for noiseless models.
    """

    emp_risk: float
    stderr: float
    ci_low: float
    ci_high: float
    bound: RiskBound
    constants: RateConstants
    bias_risk: float
    bias_stderr: float
    var_risk: float
    var_stderr: float
    eff_ratio: float
    replicates: int
    seed: int

    def __post_init__(self):
        NonFiniteResultError.check(self)


def run_experiment(cfg: ExperimentConfig, *, workers: int = 1, cell: int = 0) -> RiskReport:
    """Estimate the tail-average risk (and its bias/variance split) and
    evaluate the closed-form bound for the same run geometry."""
    m = cfg.moments
    # a non-finite bound fails here, before the simulation is paid for
    bound = bound_report(cfg)
    rc = bound["constants"]
    sgd_cfg = SgdConfig(gamma=cfg.gamma, w0=cfg.w0, t_avg_start=cfg.t, T=cfg.T)
    tails = _tail_averages(cfg.distribution, sgd_cfg, m, cfg.seed, cell,
                           cfg.replicates, workers)
    stats = {p: _risk_stats(tails[:, k], m) for k, p in enumerate(PROCESSES)}
    emp, se = stats["standard"]
    eff = emp * (cfg.T - cfg.t) / rc.sigma2 if rc.sigma2 > 0.0 else 0.0
    return RiskReport(
        emp_risk=emp,
        stderr=se,
        ci_low=emp - 1.96 * se,
        ci_high=emp + 1.96 * se,
        bound=bound["bound"],
        constants=rc,
        bias_risk=stats["bias"][0],
        bias_stderr=stats["bias"][1],
        var_risk=stats["variance"][0],
        var_stderr=stats["variance"][1],
        eff_ratio=eff,
        replicates=cfg.replicates,
        seed=cfg.seed,
    )


# ---------------------------------------------------------------------------
# Verification


@dataclass(frozen=True)
class CheckResult:
    """One verification row: nonnegative margin means the check held."""

    name: str
    passed: bool
    margin: float
    detail: str


def _entrywise_margin(diff, se, atol: float) -> float:
    # 1 - max |diff| / (4 se + atol); positive when every entry sits inside
    # four standard errors
    ratio = np.abs(diff) / (4.0 * np.asarray(se) + atol)
    return float(1.0 - ratio.max())


def _sampled_checks(spec: DistributionSpec, m: Moments, op: FourthMomentOperator,
                    seed: int) -> list[CheckResult]:
    """The three Monte-Carlo checks of the model's moments, all on one draw
    of 200,000 pairs from the stream (seed, 903).

    The pairs are drawn in consecutive blocks of ``_ROW_BLOCK`` rows, and
    each block is folded into the three checks' sums before the next is
    drawn, so the pass holds one block of pairs and the 200,000 quadratic
    forms of the last check, not the whole draw.  Its margins' bits depend
    on the BLAS thread count; a CLI call runs it at one thread, where they
    do not."""
    n = 200_000
    stream = SampleStream(spec, (seed, 903))
    fourth_sums = _FourthMomentSums(m.H)
    grad = np.zeros(m.d)
    h_inv = np.linalg.inv(m.H)
    q = np.empty(n)
    for i in range(0, n, _ROW_BLOCK):
        x, y = stream.draw(min(_ROW_BLOCK, n - i))
        resid = y - x @ m.w_star
        fourth_sums.add(x)
        grad += x.T @ resid
        q[i:i + _ROW_BLOCK] = 0.5 * resid ** 2 * _quad_forms(x, h_inv)

    mean, se = fourth_sums.mean_and_stderr()
    margin = _entrywise_margin(mean - op.apply(m.H), se, 1e-12 * (1.0 + m.R2))
    fourth = CheckResult("fourth-moment-sampled", margin >= 0.0, margin,
                         f"closed form within 4 standard errors of {n} draws")

    # the gradient noise at w* is -(y - x.w*) x: its mean is the summed
    # x^T (y - x.w*) over n
    norm = float(np.linalg.norm(grad)) / n
    cap = 4.0 * math.sqrt(float(np.trace(m.Sigma)) / n) + 1e-12
    noise = CheckResult("noise-mean-zero", norm <= cap, cap - norm,
                        f"|mean|={norm:.3e} cap={cap:.3e}")

    est, se = float(q.mean()), float(q.std(ddof=1) / math.sqrt(n))
    target = sigma2_mle(m)
    cap = 4.0 * se + 1e-12
    quadratic = CheckResult("sigma2-mle-quadratic-form", abs(est - target) <= cap,
                            cap - abs(est - target),
                            f"quadratic-form mean {est:.6e} vs half-trace {target:.6e}")
    return [fourth, noise, quadratic]


def _doubling_series(p: np.ndarray, a: np.ndarray, k: int) -> np.ndarray:
    """sum_{i<k} A^i P A^i for k a power of two, in log2(k) doubling steps:
    the first 2j terms are S_j + A^j S_j A^j."""
    series, power, j = p, a, 1
    while j < k:
        series = series + power @ series @ power
        power = power @ power
        j *= 2
    return series


def run_verification(cfg: ExperimentConfig, *, workers: int = 1) -> list[CheckResult]:
    """Check the closed-form identities, order relations, solver residuals,
    and Monte-Carlo agreements implied by one experiment's model.

    Requires a model with closed-form moments.  Monte-Carlo checks use fixed
    offsets of the config seed and four-standard-error slack, so a pass is
    reproducible and a failure means a real discrepancy at that seed.  The
    three sampled moment checks share one draw of 200,000 pairs at offset
    903, taken and folded in blocks of ``_ROW_BLOCK`` pairs, so it is never
    held whole; offsets 901 and 902, which the fourth-moment and noise-mean
    checks once drew from, are retired.
    """
    spec = cfg.distribution
    m = _closed_form(cfg)
    # a non-finite bound fails here, before any check is paid for
    bound = bound_report(cfg)
    gamma = cfg.gamma
    op = cfg.operator
    h, sigma = m.H, m.Sigma
    d = m.d
    eye = np.eye(d)
    sig_scale = float(np.linalg.norm(sigma, "fro"))
    results: list[CheckResult] = []

    def run(name, fn):
        try:
            results.append(fn())
        except TailSgdError as exc:
            results.append(CheckResult(name, False, float("-inf"), f"raised {exc!r}"))

    def c_spd_moments():
        s_evals = np.linalg.eigvalsh(sigma)
        ok = m.mu > 0.0 and s_evals[0] >= -1e-10 * max(s_evals[-1], 1.0)
        return CheckResult("spd-moments", ok, m.mu,
                           f"mu={m.mu:.6e} sigma_eig_min={s_evals[0]:.6e}")
    run("spd-moments", c_spd_moments)

    f4 = op.apply(eye)

    def c_fourth_dominated():
        gap = float(np.linalg.eigvalsh(m.R2 * h - f4)[0])
        tight = not psd_order_leq(f4, 0.99 * m.R2 * h, tol=0.0)
        ok = gap >= -1e-10 * m.R2 * float(np.linalg.eigvalsh(h)[-1]) and tight
        return CheckResult("fourth-moment-dominated", ok, gap,
                           f"R2={m.R2:.6e} slack_eig={gap:.3e} tight_at_0.99={tight}")
    run("fourth-moment-dominated", c_fourth_dominated)

    def c_trace_vs_r2():
        margin = m.R2 - float(np.trace(h))
        return CheckResult("trace-vs-r2", margin >= -1e-12 * m.R2, margin,
                           f"R2={m.R2:.6e} trace_H={float(np.trace(h)):.6e}")
    run("trace-vs-r2", c_trace_vs_r2)

    results += _sampled_checks(spec, m, op, cfg.seed)

    sol_fp = solve_stationary_fixed_point(h, op, sigma, gamma)
    # the second solution: closed form on a Gaussian backing, in O(d^3); the
    # dense O(d^6) solve on a discrete one
    sol_dir = (solve_stationary_gaussian(h, sigma, gamma) if op.kind == "gaussian"
               else solve_stationary_direct(h, op, sigma, gamma))
    via = f" ({sol_dir.method} solve)"

    def c_resid(name, sol, note=""):
        cap = 1e-8 * gamma * sig_scale + 1e-300
        return CheckResult(name, sol.residual <= cap, cap - sol.residual,
                           f"residual={sol.residual:.3e} cap={cap:.3e}{note}")
    run("stationary-residual-fixed-point", lambda: c_resid("stationary-residual-fixed-point", sol_fp))
    run("stationary-residual-direct", lambda: c_resid("stationary-residual-direct", sol_dir, via))

    def c_agreement():
        diff = float(np.linalg.norm(sol_fp.cov - sol_dir.cov, "fro"))
        cap = 1e-8 * max(float(np.linalg.norm(sol_dir.cov, "fro")), 1e-300)
        return CheckResult("stationary-agreement", diff <= cap, cap - diff,
                           f"|C_fp - C|_F={diff:.3e}{via}")
    run("stationary-agreement", c_agreement)

    @functools.cache
    def covariance_walk():
        # 300 steps of the recursion from C = 0, shared by the next two checks:
        # the smallest eigenvalue of each step, relative to max(1, |C|_F), and
        # the largest trace of an iterate
        c = np.zeros((d, d))
        low, top = math.inf, -math.inf
        for _ in range(300):
            nxt = covariance_step(c, h, op, sigma, gamma)
            gap = float(np.linalg.eigvalsh(nxt - c)[0])
            low = min(low, gap / max(1.0, float(np.linalg.norm(nxt, "fro"))))
            top = max(top, float(np.trace(nxt)))
            c = nxt
        return low, top

    def c_monotone():
        worst, _ = covariance_walk()
        return CheckResult("covariance-monotone", worst >= -1e-12, worst,
                           "iterates increase in the semidefinite order")
    run("covariance-monotone", c_monotone)

    def c_trace_cap():
        cap = gamma * float(np.trace(sigma)) / m.mu
        worst = max(covariance_walk()[1], float(np.trace(sol_fp.cov)))
        ok = worst <= cap * (1.0 + 1e-12) + 1e-300
        return CheckResult("covariance-trace-cap", ok, cap - worst,
                           f"max trace {worst:.6e} vs gamma Tr(Sigma)/mu = {cap:.6e}")
    run("covariance-trace-cap", c_trace_cap)

    def c_spectral_cap():
        cap = crude_bound(sigma, h, gamma, m.R2)
        lam = float(np.linalg.eigvalsh(sol_dir.cov)[-1])
        return CheckResult("stationary-spectral-cap", lam <= cap + 1e-10 * (1.0 + cap),
                           cap - lam, f"lambda_max={lam:.6e} cap={cap:.6e}{via}")
    run("stationary-spectral-cap", c_spectral_cap)

    def c_trace_refined():
        cap = refined_trace_bound(sigma, h, gamma, m.R2)
        tr = float(np.trace(sol_dir.cov))
        return CheckResult("stationary-trace-refined", tr <= cap + 1e-10 * (1.0 + cap),
                           cap - tr, f"trace={tr:.6e} cap={cap:.6e}{via}")
    run("stationary-trace-refined", c_trace_refined)

    def c_variance_identity():
        window = cfg.T - cfg.t
        rc = bound["constants"]
        via_trace = refined_trace_bound(sigma, h, gamma, m.R2) / (gamma * window)
        direct = variance_term(gamma, m.R2, rc.rho, rc.sigma2, window)
        diff = abs(via_trace - direct)
        cap = 1e-12 * max(direct, 1e-300)
        return CheckResult("variance-term-identity", diff <= cap, cap - diff,
                           f"trace route {via_trace!r} vs direct {direct!r}")
    run("variance-term-identity", c_variance_identity)

    def c_damped_inverse():
        probe = h if m.noiseless else sigma
        direct = _damped_inverse(h, probe, gamma)
        shrink = eye - gamma * h
        rate = float(np.linalg.eigvalsh(shrink)[-1]) ** 2
        need = int(math.ceil(math.log(1e-12) / math.log(rate))) + 1
        # the first power of two at least need, and at most 2^16
        k = 1 << (min(need, 2 ** 16) - 1).bit_length()
        series = _doubling_series(gamma * probe, shrink, k)
        envelope = (float(np.linalg.norm(probe, "fro")) * gamma * rate ** k / (1.0 - rate)
                    + 1e-10 * (1.0 + float(np.linalg.norm(direct, "fro"))))
        diff = float(np.linalg.norm(series - direct, "fro"))
        return CheckResult("damped-drift-inverse", diff <= envelope, envelope - diff,
                           f"{k}-term series vs eigenbasis inverse, diff={diff:.3e}")
    run("damped-drift-inverse", c_damped_inverse)

    def c_mean_recursion():
        t_star, reps = 30, 2000
        run_cfg = SgdConfig(gamma=gamma, w0=cfg.w0, t_avg_start=0, T=t_star + 1)
        seeds = [replicate_seed(cfg.seed, 904, i) for i in range(reps)]
        res = run_replicates(spec, run_cfg, seeds, moments=m,
                             snapshot_steps=(t_star,))
        w_t = res.snapshots[0]
        theory = np.linalg.matrix_power(eye - gamma * h, t_star) @ (cfg.w0 - m.w_star)
        se = w_t.std(axis=0, ddof=1) / math.sqrt(reps)
        margin = _entrywise_margin(w_t.mean(axis=0) - m.w_star - theory, se, 1e-12)
        return CheckResult("mean-recursion", margin >= 0.0, margin,
                           f"E[w_t] - w* matches (I - gamma H)^{t_star} (w0 - w*)")
    run("mean-recursion", c_mean_recursion)

    def c_bias_decay():
        reps = 1000
        ts = [t for t in (10, 100) if t <= cfg.T] or [cfg.T]
        run_cfg = SgdConfig(gamma=gamma, w0=cfg.w0, t_avg_start=0, T=max(ts) + 1)
        seeds = [replicate_seed(cfg.seed, 905, i) for i in range(reps)]
        res = run_replicates(spec, run_cfg, seeds, process="bias", moments=m,
                             snapshot_steps=ts)
        d0 = bound["dist0_sq"]
        worst, details = math.inf, []
        for k, t in enumerate(res.snapshot_steps):
            sq = np.sum((res.snapshots[k] - m.w_star) ** 2, axis=1)
            mean = float(sq.mean())
            se = float(sq.std(ddof=1) / math.sqrt(reps))
            cap = math.exp(-gamma * m.mu * t) * d0 + 4.0 * se + 1e-12
            worst = min(worst, cap - mean)
            details.append(f"t={t}: {mean:.3e} <= {cap:.3e}")
        return CheckResult("bias-decay", worst >= 0.0, worst, "; ".join(details))
    run("bias-decay", c_bias_decay)

    report = run_experiment(cfg, workers=workers)

    def c_bound_holds():
        margin = report.bound.total - report.ci_low
        return CheckResult("risk-bound-holds", margin >= 0.0, margin,
                           f"emp={report.emp_risk:.6e} (se {report.stderr:.2e}) "
                           f"bound={report.bound.total:.6e}")
    run("risk-bound-holds", c_bound_holds)

    def c_split():
        combined = (math.sqrt(report.bias_risk) + math.sqrt(report.var_risk)) ** 2
        slack = 4.0 * (report.stderr + report.bias_stderr + report.var_stderr) + 1e-12
        margin = combined + slack - report.emp_risk
        return CheckResult("bias-variance-split", margin >= 0.0, margin,
                           f"total {report.emp_risk:.6e} vs split {combined:.6e}")
    run("bias-variance-split", c_split)

    def c_rho():
        if m.noiseless:
            return CheckResult("rho-at-least-one", True, 0.0, "skipped: noiseless model")
        rho = report.constants.rho
        return CheckResult("rho-at-least-one", rho >= 1.0 - 1e-12, rho - 1.0,
                           f"rho={rho!r}")
    run("rho-at-least-one", c_rho)

    def c_efficiency():
        if m.noiseless or report.bound.bias > 0.1 * report.bound.variance:
            return CheckResult("efficiency-window", True, 0.0,
                               "skipped: not variance-dominated")
        relaxations = gamma * m.mu * (cfg.T - cfg.t)
        if relaxations < _EFFICIENCY_RELAXATIONS:
            return CheckResult("efficiency-window", True, 0.0,
                               f"skipped: window of {relaxations:.3g} < "
                               f"{_EFFICIENCY_RELAXATIONS:g} relaxation times 1/(gamma mu)")
        margin = min(report.eff_ratio - 0.5, 2.0 - report.eff_ratio)
        return CheckResult("efficiency-window", margin >= 0.0, margin,
                           f"eff_ratio={report.eff_ratio:.4f} window [0.5, 2.0]")
    run("efficiency-window", c_efficiency)

    return results


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
    """Run every cell of the grid; failed cells record the error message in
    their row and the sweep continues."""
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
            report = run_experiment(cfg, workers=workers, cell=cell_id)
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
