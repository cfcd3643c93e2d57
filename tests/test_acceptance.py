"""End-to-end gate: ten independent pass/fail checks over the whole package.

Each test prints exactly one summary line (PASS/FAIL, the measured margin,
and the elapsed time against its budget) and then asserts both the numeric
tolerance and the runtime limit.
"""

import json
import time

import numpy as np

from helpers import GAMMA_FRACS, exact_instance_grid, sampled_mean_and_stderr
from tailsgd.bounds import excess_risk, mle_fit, rate_constants, sigma2_mle
from tailsgd.distributions import DistributionSpec, SampleStream, SeedRange, exact_moments
from tailsgd.harness import (
    config_from_dict,
    family_distribution,
    parse_sweep_config,
    run_experiment,
    sweep,
    sweep_csv,
)
from tailsgd.sgd import SgdConfig, run_replicates
from tailsgd.stationary import (
    FourthMomentOperator,
    covariance_step,
    crude_bound,
    refined_trace_bound,
    solve_stationary_direct,
    solve_stationary_fixed_point,
)


def _report(capsys, num: int, name: str, ok: bool, detail: str,
            elapsed: float, limit: float) -> None:
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"\ncriterion {num:02d} {name}: {status} {detail}"
              f" ({elapsed:.2f}s < {limit:.0f}s)")
    assert ok, f"criterion {num:02d} {name}: {detail}"
    assert elapsed < limit, f"criterion {num:02d} took {elapsed:.2f}s, limit {limit}s"


def test_c01_scalar_stationary_oracle(capsys):
    start = time.perf_counter()
    # (h, fourth-moment backing, Sigma, gamma, m4)
    cases = [
        (np.array([[1.0]]), FourthMomentOperator.gaussian(np.array([[1.0]])),
         np.array([[1.0]]), 0.1, 3.0),
        (np.array([[2.2]]),
         FourthMomentOperator.discrete(np.array([[1.0], [-2.0]]),
                                       np.array([0.6, 0.4])),
         np.array([[1.0]]), 0.1, 7.0),
    ]
    worst = 0.0
    for h, op, sigma, gamma, m4 in cases:
        expected = gamma * sigma[0, 0] / (2.0 * h[0, 0] - gamma * m4)
        for solver in (solve_stationary_fixed_point, solve_stationary_direct):
            got = solver(h, op, sigma, gamma).cov[0, 0]
            worst = max(worst, abs(got - expected) / expected)
    elapsed = time.perf_counter() - start
    _report(capsys, 1, "scalar stationary oracle", worst <= 1e-10,
            f"max rel err {worst:.2e} (tol 1e-10, 2 models x 2 solvers)",
            elapsed, 1.0)


def test_c02_solver_cross_check(capsys):
    start = time.perf_counter()
    worst, count = 0.0, 0
    for inst in exact_instance_grid():
        assert inst.h.shape[0] <= 10
        for frac in (0.2, 0.5):
            gamma = frac / inst.r2
            fp = solve_stationary_fixed_point(inst.h, inst.op, inst.sigma, gamma).cov
            di = solve_stationary_direct(inst.h, inst.op, inst.sigma, gamma).cov
            rel = np.linalg.norm(fp - di) / np.linalg.norm(di)
            worst = max(worst, rel)
            count += 1
    elapsed = time.perf_counter() - start
    _report(capsys, 2, "solver cross-check", count >= 20 and worst <= 1e-8,
            f"{count} instances, max rel Frobenius gap {worst:.2e} (tol 1e-8)",
            elapsed, 10.0)


def test_c03_gaussian_fourth_moment_vs_sampling(capsys):
    start = time.perf_counter()
    h = np.diag([1.0, 0.5, 0.25])
    spec = DistributionSpec(kind="gaussian_well_specified", d=3, H_spec=h,
                            w_star=np.zeros(3), noise_sigma=1.0)
    exact_op = FourthMomentOperator.gaussian(h)
    mc_op = FourthMomentOperator.monte_carlo(spec, 1_000_000, (77, 3))
    probes = [np.eye(3),
              np.array([[1.0, 0.3, 0.0], [0.3, 2.0, -0.2], [0.0, -0.2, 0.5]])]
    worst_z = 0.0
    for m in probes:
        mean, stderr = sampled_mean_and_stderr(mc_op, m)
        z = np.abs(mean - exact_op.apply(m)) / stderr
        worst_z = max(worst_z, float(z.max()))
    id_op = FourthMomentOperator.gaussian(np.eye(3))
    id_gap = float(np.abs(id_op.apply(np.eye(3)) - 5.0 * np.eye(3)).max())
    elapsed = time.perf_counter() - start
    _report(capsys, 3, "gaussian fourth moment vs sampling",
            worst_z <= 3.0 and id_gap <= 1e-12,
            f"max |z| {worst_z:.2f} over 2 probes (limit 3), "
            f"identity-probe gap {id_gap:.1e}", elapsed, 10.0)


def test_c04_monotone_covariance_recursion(capsys):
    start = time.perf_counter()
    instances = [inst for inst in exact_instance_grid() if inst.h.shape[0] == 3][:2]
    assert len(instances) == 2
    worst_eig, worst_trace = 0.0, -np.inf
    for inst in instances:
        gamma = 0.5 / inst.r2
        mu = float(np.linalg.eigvalsh(inst.h).min())
        cap = gamma * float(np.trace(inst.sigma)) / mu
        c = np.zeros_like(inst.h)
        for _ in range(1000):
            c_next = covariance_step(c, inst.h, inst.op, inst.sigma, gamma)
            worst_eig = min(worst_eig, float(np.linalg.eigvalsh(c_next - c).min()))
            worst_trace = max(worst_trace, float(np.trace(c_next)) - cap)
            c = c_next
    elapsed = time.perf_counter() - start
    _report(capsys, 4, "monotone covariance recursion",
            worst_eig >= -1e-12 and worst_trace <= 1e-12,
            f"min increment eigenvalue {worst_eig:.1e} (floor -1e-12), "
            f"max trace excess {worst_trace:.1e}", elapsed, 5.0)


def test_c05_crude_spectral_cap(capsys):
    start = time.perf_counter()
    worst, count = -np.inf, 0
    for inst in exact_instance_grid():
        for frac in GAMMA_FRACS:
            gamma = frac / inst.r2
            cov = solve_stationary_direct(inst.h, inst.op, inst.sigma, gamma).cov
            cap = crude_bound(inst.sigma, inst.h, gamma, inst.r2)
            worst = max(worst, float(np.linalg.eigvalsh(cov).max()) - cap)
            count += 1
    elapsed = time.perf_counter() - start
    _report(capsys, 5, "crude spectral cap", worst <= 1e-10,
            f"max excess {worst:.2e} over {count} solves incl. 0.9/R^2 "
            "(tol 1e-10)", elapsed, 10.0)


def test_c06_refined_trace_cap(capsys):
    start = time.perf_counter()
    worst, count = -np.inf, 0
    for inst in exact_instance_grid():
        for frac in GAMMA_FRACS:
            gamma = frac / inst.r2
            cov = solve_stationary_direct(inst.h, inst.op, inst.sigma, gamma).cov
            cap = refined_trace_bound(inst.sigma, inst.h, gamma, inst.r2)
            worst = max(worst, float(np.trace(cov)) - cap)
            count += 1
    elapsed = time.perf_counter() - start
    _report(capsys, 6, "refined trace cap", worst <= 1e-10,
            f"max excess {worst:.2e} over {count} solves incl. 0.9/R^2 "
            "(tol 1e-10)", elapsed, 10.0)


def test_c07_noise_free_decay(capsys):
    start = time.perf_counter()
    spec = DistributionSpec(kind="gaussian_well_specified", d=3, H_spec=np.eye(3),
                            w_star=np.ones(3), noise_sigma=1.0)
    m = exact_moments(spec)
    gamma = 0.5 / m.R2
    cfg = SgdConfig(gamma=gamma, w0=np.zeros(3), t_avg_start=0, T=1000)
    res = run_replicates(spec, cfg, SeedRange(7, 1, 0, 2000), process="bias",
                         snapshot_steps=(10, 100, 1000))
    dist0_sq = 3.0
    worst = -np.inf
    for i, t in enumerate(res.snapshot_steps):
        dev = res.snapshots[i] - spec.w_star
        vals = np.einsum("rd,rd->r", dev, dev)
        stderr = vals.std(ddof=1) / np.sqrt(len(vals))
        envelope = np.exp(-gamma * m.mu * t) * dist0_sq
        worst = max(worst, float(vals.mean() - envelope - 2.0 * stderr))
    elapsed = time.perf_counter() - start
    _report(capsys, 7, "noise-free decay envelope", worst <= 0.0,
            f"max excess over envelope+2se {worst:.2e} at t in (10, 100, 1000), "
            "2000 replicates", elapsed, 30.0)


def test_c08_end_to_end_risk_grid(capsys):
    start = time.perf_counter()
    reps = {1000: 400, 10000: 200, 100000: 60}
    cells, bound_margin, eff_lo, eff_hi, n_eff = 0, -np.inf, np.inf, -np.inf, 0
    for family in ("well_specified", "misspecified"):
        for rule in ("half_inv_R2", "half_inv_rho_R2"):
            for big_t in (1000, 10000, 100000):
                cfg = config_from_dict({
                    "distribution": family_distribution(family, 3, 1.0),
                    "gamma_rule": rule, "T": big_t,
                    "replicates": reps[big_t], "seed": 100 + cells,
                })
                report = run_experiment(
                    cfg, workers=4 if big_t >= 10000 else 1, cell=cells)
                bound_margin = max(
                    bound_margin,
                    report.emp_risk - 1.96 * report.stderr - report.bound.total)
                if (family == "well_specified"
                        and report.bound.bias <= 0.01 * report.bound.variance):
                    eff_lo = min(eff_lo, report.eff_ratio)
                    eff_hi = max(eff_hi, report.eff_ratio)
                    n_eff += 1
                cells += 1
    ok = (cells >= 12 and bound_margin <= 0.0 and n_eff >= 1
          and eff_lo >= 0.5 and eff_hi <= 2.0)
    elapsed = time.perf_counter() - start
    _report(capsys, 8, "end-to-end risk grid", ok,
            f"{cells} cells, max (emp - 1.96se - bound) {bound_margin:.2e}, "
            f"efficiency ratio [{eff_lo:.2f}, {eff_hi:.2f}] over {n_eff} "
            "variance-dominated cells (window [0.5, 2.0])", elapsed, 300.0)


def test_c09_least_squares_efficiency(capsys):
    start = time.perf_counter()
    spec = DistributionSpec(kind="gaussian_well_specified", d=3, H_spec=np.eye(3),
                            w_star=np.ones(3), noise_sigma=1.0)
    m = exact_moments(spec)
    n, fits = 10_000, 1000
    risks = np.empty(fits)
    for r in range(fits):
        x, y = SampleStream(spec, (13, r)).draw(n)
        risks[r] = excess_risk(mle_fit(x, y), m)
    target = sigma2_mle(m) / n
    rel = abs(risks.mean() - target) / target
    elapsed = time.perf_counter() - start
    _report(capsys, 9, "least-squares efficiency", rel <= 0.10,
            f"mean excess risk {risks.mean():.3e} vs {target:.3e}, "
            f"rel gap {rel:.3f} (tol 0.10, {fits} fits of n={n})", elapsed, 60.0)


def test_c10_reproducibility(capsys):
    start = time.perf_counter()
    doc = json.dumps({
        "d": [1, 3], "families": ["well_specified", "misspecified"],
        "gamma_rules": ["half_inv_R2"], "T": [500], "replicates": 40, "seed": 31,
    })
    csv_a = sweep_csv(sweep(parse_sweep_config(doc)))
    csv_b = sweep_csv(sweep(parse_sweep_config(doc)))
    byte_identical = csv_a.encode() == csv_b.encode()

    rows_1 = sweep(parse_sweep_config(doc), workers=1)
    rows_4 = sweep(parse_sweep_config(doc), workers=4)
    gap = 0.0
    for a, b in zip(rows_1, rows_4):
        for col in ("emp_risk", "stderr", "bound", "eff_ratio"):
            gap = max(gap, abs(a[col] - b[col]))
    elapsed = time.perf_counter() - start
    _report(capsys, 10, "reproducibility", byte_identical and gap <= 1e-12,
            f"repeat CSV byte-identical: {byte_identical}; "
            f"1 vs 4 workers max aggregate gap {gap:.1e} (tol 1e-12)",
            elapsed, 60.0)
