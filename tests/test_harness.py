import ast
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.random  # noqa: F401  imported before any trace, not by the first stream
import pytest

import tailsgd
import tailsgd.harness as harness_mod
from helpers import (
    discrete_spec,
    gaussian_spec,
    random_psd,
    random_spd,
    sampled_mean_and_stderr,
    sampled_rows,
)
from tailsgd import matcore
from tailsgd.bounds import rate_constants, sigma2_mle
from tailsgd.cli import main
from tailsgd.distributions import SampleStream, _diagonal, exact_moments
from tailsgd.errors import ConfigError, ConvergenceError, IntractableMomentsError
from tailsgd.harness import (
    SWEEP_COLUMNS,
    CheckResult,
    _chunk_ranges,
    _entrywise_margin,
    _tail_averages,
    config_from_dict,
    family_distribution,
    parse_config,
    parse_sweep_config,
    run_experiment,
    run_verification,
    sweep,
    sweep_csv,
)
from tailsgd.matcore import _ROW_BLOCK, _quad_forms, sample_std, sym_to_vec, vec_to_sym
from tailsgd.sgd import (
    PROCESSES,
    SgdConfig,
    draw_plan,
    resolve_moments,
    run_bytes,
)
from tailsgd.stationary import (
    FourthMomentOperator,
    _damped_inverse,
    operator_matrix,
    stationary_residual,
)

WELL3 = {
    "distribution": {"kind": "gaussian_well_specified", "d": 3, "noise_sigma": 1.0,
                     "w_star": [1.0, 1.0, 1.0]},
    "T": 1000,
    "replicates": 100,
    "seed": 1,
}


def test_parse_minimal_config_resolves_rules():
    cfg = parse_config(json.dumps({"distribution": {"kind": "gaussian_well_specified", "d": 3}}))
    assert cfg.gamma == pytest.approx(0.1)   # R^2 = 5 at H = I
    assert cfg.T == 1000 and cfg.t == 500
    assert np.array_equal(cfg.w0, np.zeros(3))
    assert cfg.replicates == 100 and cfg.seed == 0
    # a sweep's defaults come from the same table
    sweep_cfg = parse_sweep_config("{}")
    assert sweep_cfg.d == (1, 3, 10) and sweep_cfg.T == (1000, 10000)
    assert sweep_cfg.replicates == 100 and sweep_cfg.noise_sigma == 1.0


def test_parse_rho_scaled_stepsize_rule():
    doc = {
        "distribution": {"kind": "gaussian_misspecified", "d": 3,
                         "H_spec": {"diag": [1.0, 0.5, 0.25]}, "noise_sigma": 1.0},
        "gamma_rule": "half_inv_rho_R2",
    }
    cfg = config_from_dict(doc)
    m = exact_moments(cfg.distribution)
    rho = rate_constants(m, 0.5 / m.R2).rho
    assert rho == pytest.approx(9.0 / 7.0, rel=1e-12)
    assert cfg.gamma == pytest.approx(1.0 / (2.0 * rho * m.R2), rel=1e-12)


def test_parse_h_spec_forms():
    for form in ("identity", [[2.0, 0.0], [0.0, 1.0]], {"diag": [2.0, 1.0]}):
        cfg = config_from_dict({"distribution": {
            "kind": "gaussian_well_specified", "d": 2, "H_spec": form}})
        assert cfg.distribution.H_spec.shape == (2, 2)


@pytest.mark.parametrize("doc,field", [
    ({"distribution": {"kind": "gaussian_well_specified", "d": 3}, "extra": 1}, "config"),
    ({"distribution": {"kind": "wrong", "d": 3}}, "distribution.kind"),
    ({"distribution": {"kind": "gaussian_well_specified", "d": 3, "weird": 1}}, "distribution"),
    ({"distribution": {"kind": "gaussian_well_specified", "d": "3"}}, "distribution.d"),
    ({}, "distribution"),
    ({"distribution": {"kind": "gaussian_well_specified", "d": 3}, "T": 0}, "T"),
    ({"distribution": {"kind": "gaussian_well_specified", "d": 3},
      "gamma_rule": "explicit"}, "gamma"),
    ({"distribution": {"kind": "gaussian_well_specified", "d": 3},
      "gamma_rule": "explicit", "gamma": 0.5}, "gamma"),
    ({"distribution": {"kind": "gaussian_well_specified", "d": 3},
      "t_rule": "explicit", "t": 2000}, "t"),
    ({"distribution": {"kind": "discrete", "d": 2, "support": []}}, "distribution.support"),
    ({"distribution": {"kind": "gaussian_well_specified", "d": 3}, "w0": [1.0]}, "w0"),
    ({"distribution": {"kind": "gaussian_well_specified", "d": 3}, "replicates": 0},
     "replicates"),
    ({"distribution": {"kind": "gaussian_well_specified", "d": 3,
                       "noise_sigma": float("nan")}}, "distribution.noise_sigma"),
    ({"distribution": {"kind": "gaussian_well_specified", "d": 3},
      "gamma_rule": "explicit", "gamma": "abc"}, "gamma"),
    ({"distribution": {"kind": "gaussian_well_specified", "d": 3}, "seed": -3}, "seed"),
    ({"distribution": {"kind": "discrete", "d": 1,
                       "support": [{"x": [1.0], "prob": "1.0"}]}},
     "distribution.support[0].prob"),
    ({"distribution": {"kind": "gaussian_well_specified", "d": 1001}}, "distribution.d"),
    ({"distribution": {"kind": "gaussian_well_specified", "d": 3}, "T": 10**9 + 1}, "T"),
    # the run would hold more than the cap: 4.8 GB of outputs alone
    ({"distribution": {"kind": "gaussian_well_specified", "d": 100}, "replicates": 10**6},
     "replicates"),
])
def test_parse_config_rejects_bad_documents(doc, field):
    with pytest.raises(ConfigError) as err:
        config_from_dict(doc)
    assert err.value.field == field


def test_parse_config_sizes_the_draw_buffer_by_horizon():
    # groups of 256 replicates fill min(65, 10) rows of 1001 floats: a
    # 20.5 MB buffer, beside 14.4 MB of outputs, 30.7 MB of group state and
    # 20.6 MB of transform temporaries, 87 MB in all
    cfg = config_from_dict({"distribution": {"kind": "gaussian_well_specified", "d": 1000},
                            "T": 10, "replicates": 300})
    assert (cfg.distribution.d, cfg.T, cfg.replicates) == (1000, 10, 300)


def test_parse_config_counts_the_state_of_short_runs():
    # one row of 101 floats per replicate, in groups of 2,595, is a 2.1 MB
    # buffer, but the tail averages of 10^6 replicates, counted twice for a
    # pool's parts and their concatenation, take 4.8 GB; refused from the
    # count, before any array is made
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError) as err:
            config_from_dict({"distribution": {"kind": "gaussian_well_specified", "d": 100},
                              "T": 1, "replicates": 10 ** 6})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.field == "replicates" and peak < 2 ** 20


def test_every_spelling_of_a_diagonal_h_spec_is_counted_alike():
    # 200,000 replicates at d=100 over 1000 steps hold 984,197,120 bytes
    # drawn diagonally and 1,076,658,176 through a dense factor, over the cap:
    # the identity written out in full was once counted dense and refused
    d, dense = 100, np.eye(100) + 0.001
    assert run_bytes(d, 200_000, 1000, True) < 2 ** 30 < run_bytes(d, 200_000, 1000, False)
    for h_spec in ("identity", {"diag": [1.0] * d}, np.eye(d).tolist()):
        cfg = config_from_dict({"distribution": {"kind": "gaussian_well_specified", "d": d,
                                                 "H_spec": h_spec},
                                "T": 1000, "replicates": 200_000})
        assert _diagonal(cfg.distribution)
    with pytest.raises(ConfigError) as err:
        config_from_dict({"distribution": {"kind": "gaussian_well_specified", "d": d,
                                           "H_spec": dense.tolist()},
                          "T": 1000, "replicates": 200_000})
    assert err.value.field == "replicates"


def test_a_gamma_at_the_operators_bound_is_refused_by_every_command(tmp_path, capsys):
    # R^2 was a few ulps apart between the moments and the solvers' operator
    # on this support: bound accepted gamma, solve-cov refused it without
    # naming the field
    support = [([0.822, 0.33, -1.303], 0.07648401826484019),
               ([0.905, 0.446, -0.537], 0.23002283105022833),
               ([0.581, 0.365, 0.294], 0.11586757990867581),
               ([0.028, 0.547, -0.736], 0.1495433789954338),
               ([-0.163, -0.482, 0.599], 0.42808219178082185)]
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({
        "distribution": {"kind": "discrete", "d": 3, "support": [
            {"x": x, "y_mean": 0.0, "y_std": 1.0, "prob": p} for x, p in support]},
        "gamma_rule": "explicit", "gamma": 0.5006478464929299, "T": 10, "replicates": 2}))
    for argv in (["bound"], ["solve-cov", "--method", "fixed-point"],
                 ["solve-cov", "--method", "direct"], ["verify"]):
        assert main(argv + ["--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "config error: gamma: 0.5006478464929299 outside the stable range "
            "(0, 0.5006478464929298)\n")


def test_parse_config_accepts_what_a_run_holds_within_the_cap():
    # 100,000 replicates of the misspecified family at d=10 over 1000 steps
    # hold 52 MB: 48 MB of tail averages counted twice, and one group at the
    # floor of 256 replicates, 2.2 MB with its draws, state and streams;
    # the seeds are one range, not a list of 12.8 MB.  Whole 512-row fills of every replicate at once
    # came to 4.7 GB, refused
    for reps, low, high in ((100_000, 48e6, 70e6), (10 ** 6, 480e6, 700e6)):
        cfg = config_from_dict({"distribution": family_distribution("misspecified", 10, 1.0),
                                "T": 1000, "replicates": reps})
        assert cfg.replicates == reps
        assert low < run_bytes(10, reps, 1000, True) < high
    assert draw_plan(10, 100_000, 1000, True, 3) == (64, 256)


def _memory_spec(kind, d):
    if kind == "discrete":
        return discrete_spec(d, 3)
    if kind == "misspecified":
        return gaussian_spec(d, h=np.diag(np.linspace(1.0, 0.1, d)),
                             kind="gaussian_misspecified")
    return gaussian_spec(d, h=random_spd(d, 1) if kind == "dense" else None)


# (replicates, T) runs at each d; the last advances its seeds in groups
MEMORY_RUNS = {
    1: ((1, 1), (7, 65), (300, 513), (3000, 100)),
    10: ((1, 1), (7, 65), (300, 513), (1000, 101)),
    100: ((1, 1), (7, 65), (300, 101)),
    1000: ((1, 1), (7, 65), (300, 3)),
}


# a discrete spec at d=1000 takes about 11 s to build: its moments sum over
# 1,002 atoms of 1000 x 1000 outer products
@pytest.mark.parametrize("kind, d", [
    (kind, d) for kind in ("well_specified", "misspecified", "dense", "discrete")
    for d in MEMORY_RUNS if not (kind == "discrete" and d == 1000)
])
def test_run_bytes_bounds_what_a_run_holds(kind, d):
    # a run's traced peak, its group's state included, is at most
    # run_bytes, and run_bytes at most twice the peak plus 512 KiB: the count
    # made before the draw budget read up to 59 times the peak
    spec = _memory_spec(kind, d)
    m = resolve_moments(spec)
    for reps, big_t in MEMORY_RUNS[d]:
        cfg = SgdConfig(gamma=0.3 / m.R2, w0=np.zeros(d), t_avg_start=big_t // 2, T=big_t)
        count = run_bytes(d, reps, big_t, _diagonal(spec))
        tracemalloc.start()
        try:
            _tail_averages(spec, cfg, m, 0, 0, reps, 1, PROCESSES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= count <= 2 * peak + 2 ** 19, (reps, big_t, peak, count)
    assert draw_plan(d, reps, big_t, _diagonal(spec), len(PROCESSES))[1] < reps


def test_many_small_replicates_hold_one_group_of_streams():
    # at d=1, T=1 a replicate's keyed stream takes about 80 times its draws:
    # groups sized by their draws alone held 131,072 streams, and this run
    # peaked at 25.3 MB (175.8 MB at 200,000 replicates)
    spec = gaussian_spec(1)
    m = resolve_moments(spec)
    cfg = SgdConfig(gamma=0.3 / m.R2, w0=np.zeros(1), t_avg_start=0, T=1)
    tracemalloc.start()
    try:
        _tail_averages(spec, cfg, m, 0, 0, 20_000, 1, PROCESSES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    assert peak <= run_bytes(1, 20_000, 1, True)


def test_an_experiment_holds_its_tail_averages_once():
    # 4,000 replicates of three processes at d=100 hold 9.6 MB of tail
    # averages; each group advances its state in a buffer of its own, and a
    # lone job's part is returned as it is.  A run-wide array of final
    # states beside them peaked at 25.9 MB, this run at 16.9 MB
    cfg = config_from_dict({"distribution": {"kind": "gaussian_well_specified", "d": 100,
                                             "noise_sigma": 1.0},
                            "T": 16, "replicates": 4000})
    tracemalloc.start()
    try:
        run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6, peak


def test_parse_config_rejects_invalid_json():
    with pytest.raises(ConfigError):
        parse_config("{not json")
    with pytest.raises(ConfigError):  # nested past the decoder's recursion limit
        parse_config("[" * 100_000 + "]" * 100_000)


def test_noiseless_run_at_minimizer_has_zero_risk():
    cfg = config_from_dict({
        "distribution": {"kind": "gaussian_well_specified", "d": 2,
                         "w_star": [1.0, -1.0], "noise_sigma": 0.0},
        "w0": [1.0, -1.0], "T": 200, "replicates": 20, "seed": 0,
    })
    report = run_experiment(cfg)
    assert report.emp_risk == 0.0 and report.stderr == 0.0
    assert report.bound.total >= 0.0 and report.eff_ratio == 0.0


def test_run_experiment_statistics_and_bound():
    report = run_experiment(config_from_dict(WELL3))
    assert report.ci_low <= report.emp_risk <= report.ci_high
    assert report.ci_low <= report.bound.total
    assert 0.5 <= report.eff_ratio <= 2.0
    assert report.var_risk > 0.0 and report.bias_risk < 1e-20  # long past burn-in


def test_run_experiment_worker_invariance():
    cfg = config_from_dict({**WELL3, "replicates": 23, "T": 300})
    solo = run_experiment(cfg, workers=1)
    split = run_experiment(cfg, workers=3)
    assert solo.emp_risk == split.emp_risk
    assert solo.stderr == split.stderr
    assert solo.var_risk == split.var_risk


def _spy_processes(monkeypatch) -> list:
    """The ``process`` argument of every harness.run_replicates call, in order."""
    calls = []
    real = harness_mod.run_replicates

    def spy(*args, **kwargs):
        calls.append(kwargs.get("process", "standard"))
        return real(*args, **kwargs)

    monkeypatch.setattr(harness_mod, "run_replicates", spy)
    return calls


def test_each_command_advances_only_the_processes_it_reports(monkeypatch, tmp_path, capsys):
    calls = _spy_processes(monkeypatch)
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({**WELL3, "T": 200, "replicates": 20}))
    # a sweep row and a simulate CSV row carry no bias/variance split
    sweep(parse_sweep_config(json.dumps({
        "d": [1, 2], "families": ["well_specified"], "gamma_rules": ["half_inv_R2"],
        "T": [100], "replicates": 10})))
    assert calls == [("standard",)] * 2
    calls.clear()
    assert main(["simulate", "--config", str(config), "--format", "csv"]) == 0
    assert calls == [("standard",)]
    calls.clear()
    assert main(["simulate", "--config", str(config)]) == 0
    assert calls == [PROCESSES]
    calls.clear()
    assert main(["verify", "--config", str(config)]) == 0
    # the experiment, formed with the shared work before any row, then
    # mean-recursion and bias-decay
    assert calls == [PROCESSES, "standard", "bias"]


@pytest.mark.parametrize("doc", [
    {**WELL3, "replicates": 23, "T": 300},
    # a sub-blocked run whose draw plan differs with the process count:
    # 256-row fills for three processes, 512 for one
    {"distribution": family_distribution("misspecified", 10, 1.0),
     "replicates": 73, "T": 300, "seed": 5},
], ids=["well_specified", "other_plan"])
def test_a_report_without_the_split_keeps_the_standard_bits(doc):
    cfg = config_from_dict(doc)
    both, alone = run_experiment(cfg), run_experiment(cfg, split=False)
    assert (alone.bias_risk, alone.bias_stderr, alone.var_risk, alone.var_stderr) == (None,) * 4
    assert None not in (both.bias_risk, both.bias_stderr, both.var_risk, both.var_stderr)
    for name in ("emp_risk", "stderr", "eff_ratio"):
        assert getattr(alone, name).hex() == getattr(both, name).hex(), name
    assert alone.bound == both.bound and alone.constants == both.constants


def test_verification_all_pass_on_gaussian_and_discrete():
    for doc in (
        WELL3,
        {
            "distribution": {"kind": "discrete", "d": 2, "support": [
                {"x": [1.0, 0.0], "y_mean": 1.0, "y_std": 1.0, "prob": 0.5},
                {"x": [0.3, 1.1], "y_mean": -0.5, "y_std": 0.5, "prob": 0.5},
            ]},
            "T": 600, "replicates": 80, "seed": 5,
        },
    ):
        results = run_verification(config_from_dict(doc))
        names = [r.name for r in results]
        assert len(names) == len(set(names)) and len(names) >= 15
        failing = [r for r in results if not r.passed]
        assert not failing, failing
        # the second stationary solution: closed form on a Gaussian model,
        # the dense solve on a discrete one
        solve = "closed-form" if doc is WELL3 else "direct"
        assert _check_named(results, "stationary-agreement").detail.endswith(f"({solve} solve)")


def test_stationary_checks_fail_on_a_perturbed_reference(monkeypatch):
    # the two checks that read the closed-form solution fail when it is 1e-6
    # relative off, its residual recomputed
    cfg = misspec_d10(0)
    names = ("stationary-residual-direct", "stationary-agreement")
    real = harness_mod.solve_stationary_gaussian

    def perturbed(h, sigma, gamma):
        sol = real(h, sigma, gamma)
        cov = sol.cov * (1.0 + 1e-6)
        return replace(sol, cov=cov,
                       residual=stationary_residual(cov, h, cfg.operator, sigma, gamma))

    monkeypatch.setattr(harness_mod, "solve_stationary_gaussian", perturbed)
    results = run_verification(cfg)
    for name in names:
        check = _check_named(results, name)
        assert not check.passed and check.margin < 0.0, check


WELL2 = {"distribution": {"kind": "gaussian_well_specified", "d": 2, "noise_sigma": 1.0},
         "replicates": 100}


def _check_named(results, name):
    return next(r for r in results if r.name == name)


def test_efficiency_window_waits_for_four_relaxation_times(monkeypatch):
    # gamma mu (T - t) = T / 16 on this model.  At T=16 eff_ratio read
    # 0.38-0.48 on seeds 0-9, short of the window, as the tail average's
    # variance has not reached its large-sample value; the check is skipped
    # there and runs from T=64
    short = _check_named(run_verification(config_from_dict({**WELL2, "T": 16})),
                         "efficiency-window")
    assert short.passed and short.detail.startswith("skipped: window of 1 < 4 relaxation")
    for big_t in (64, 1000):
        check = _check_named(run_verification(config_from_dict({**WELL2, "T": big_t})),
                             "efficiency-window")
        assert check.passed and check.detail.startswith("eff_ratio=")
    # a report whose risk is tripled fails it
    real = harness_mod.run_experiment

    def tripled(cfg, **kwargs):
        report = real(cfg, **kwargs)
        return replace(report, emp_risk=3 * report.emp_risk, eff_ratio=3 * report.eff_ratio)

    monkeypatch.setattr(harness_mod, "run_experiment", tripled)
    check = _check_named(run_verification(config_from_dict({**WELL2, "T": 1000})),
                         "efficiency-window")
    assert not check.passed and check.margin < 0.0


@pytest.mark.parametrize("name", ["misspecified_d10", "dense_d30", "discrete_d5"])
def test_damped_inverse_matches_the_dense_solve(name):
    # the eigenbasis inverse of verify's damped-drift-inverse check equals
    # the dense linear solve it replaced, on diagonal, dense and discrete H
    spec = {"misspecified_d10": lambda: gaussian_spec(10, h=np.diag(2.0 ** -np.arange(10)),
                                                      kind="gaussian_misspecified"),
            "dense_d30": lambda: gaussian_spec(30, h=random_spd(30, 4)),
            "discrete_d5": lambda: discrete_spec(5, 2)}[name]()
    m, d = exact_moments(spec), spec.d
    h, gamma, p = m.H, 0.5 / m.R2, random_psd(d, 9)
    a = operator_matrix(lambda mm: h @ mm + mm @ h - gamma * h @ mm @ h, d)
    dense = vec_to_sym(np.linalg.solve(a, sym_to_vec(p)))
    diff = np.linalg.norm(_damped_inverse(h, p, gamma) - dense)
    assert diff <= 1e-13 * np.linalg.norm(dense)


def test_damped_drift_inverse_fails_one_doubling_short(monkeypatch):
    cfg = config_from_dict({**WELL2, "T": 64})
    check = _check_named(run_verification(cfg), "damped-drift-inverse")
    assert check.passed and "-term series vs eigenbasis inverse" in check.detail
    real = harness_mod._doubling_series
    monkeypatch.setattr(harness_mod, "_doubling_series", lambda p, a, k: real(p, a, k // 2))
    check = _check_named(run_verification(cfg), "damped-drift-inverse")
    assert not check.passed and check.margin < 0.0


@pytest.mark.parametrize("gamma", [1e-17, 1e-320])
def test_damped_drift_inverse_takes_a_tiny_stepsize(tmp_path, capsys, gamma):
    # 1 - gamma mu rounds to 1: the series length and envelope divided by
    # log(rate) and 1 - rate, both 0, and verify ended in a traceback
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({
        "distribution": {"kind": "gaussian_well_specified", "d": 3, "noise_sigma": 1.0},
        "gamma_rule": "explicit", "gamma": gamma, "T": 200, "replicates": 10}))
    assert main(["verify", "--config", str(path)]) in (0, 3)
    line = next(x for x in capsys.readouterr().out.splitlines() if "damped-drift-inverse" in x)
    assert "65536-term series" in line


def misspec_d10_doc(seed):
    """The misspecified d = 10 verify config of the benchmark."""
    return {"distribution": family_distribution("misspecified", 10, 1.0),
            "T": 1000, "replicates": 100, "seed": seed}


def misspec_d10(seed):
    return config_from_dict(misspec_d10_doc(seed))


SAMPLED_CHECKS = ["fourth-moment-sampled", "noise-mean-zero", "sigma2-mle-quadratic-form"]


def test_verification_samples_one_shared_draw(monkeypatch):
    # every pair verify draws comes from the one stream (seed, 903), in
    # consecutive blocks of at most _ROW_BLOCK pairs that add up to 200,000
    rows = []
    real_init, real_draw = SampleStream.__init__, SampleStream.draw

    def init(self, spec, seed):
        self.seed_for_test = seed
        real_init(self, spec, seed)

    monkeypatch.setattr(SampleStream, "__init__", init)
    monkeypatch.setattr(SampleStream, "draw",
                        lambda self, n: (rows.append((self, n)), real_draw(self, n))[1])
    results = run_verification(misspec_d10(0))
    streams = {stream for stream, _ in rows}
    assert [stream.seed_for_test for stream in streams] == [(0, 903)]
    assert all(1 <= n <= _ROW_BLOCK for _, n in rows)
    assert sum(n for _, n in rows) == 200_000
    assert [r.name for r in results][3:6] == SAMPLED_CHECKS
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def _unblocked_sampled_margins(cfg):
    """The three sampled checks' margins from one whole draw of 200,000
    pairs: the reference the blocked pass is compared against, with the
    checks' floors, each relative to what it guards."""
    m, n = cfg.moments, 200_000
    signal = float(m.w_star @ m.H @ m.w_star)
    # at one BLAS thread, as the blocked pass runs in a CLI call
    get_threads, set_threads = matcore._openblas() or (lambda: 1, lambda count: None)
    before = get_threads()
    set_threads(1)
    try:
        x, y = SampleStream(cfg.distribution, (cfg.seed, 903)).draw(n)
        resid = y - x @ m.w_star
        mean, se = sampled_mean_and_stderr(FourthMomentOperator.sampled(x), m.H)
        fourth = _entrywise_margin(mean - cfg.operator.apply(m.H), se, 1e-12 * (1.0 + m.R2))
        norm = float(np.linalg.norm(x.T @ resid)) / n
        trace_sigma = float(np.trace(m.Sigma))
        floor = 1e-12 * (math.sqrt(float(np.trace(m.H)) * signal) + math.sqrt(trace_sigma))
        noise = 4.0 * math.sqrt(trace_sigma / n) + floor - norm
        q = 0.5 * resid ** 2 * _quad_forms(x, np.linalg.inv(m.H))
        est, se = float(q.mean()), float(q.std(ddof=1) / math.sqrt(n))
        target = sigma2_mle(m)
        quadratic = 4.0 * se + 1e-12 * (target + m.d * signal) - abs(est - target)
    finally:
        set_threads(before)
    return fourth, noise, quadratic


def test_blocked_sampled_checks_match_one_whole_draw():
    # The row blocks of the draw fall where those of _quad_forms and the
    # fourth-moment sums do, so that margin keeps its bits.  The noise mean's
    # one 200,000-row product becomes a sum of 25 block products, and the
    # quadratic forms' mean and standard error a fold of 25 blocks' means and
    # squared deviations, so those two margins agree to rounding
    cfgs = [misspec_d10(seed) for seed in range(3)]
    cfgs.append(config_from_dict({"distribution": family_distribution("well_specified", 10, 1.0),
                                  "T": 1000, "replicates": 100, "seed": 4}))
    for cfg in cfgs:
        fourth, noise, quadratic = _unblocked_sampled_margins(cfg)
        results = sampled_rows(cfg)
        assert results[0].margin == fourth
        assert results[1].margin == pytest.approx(noise, rel=1e-12, abs=0.0)
        assert results[2].margin == pytest.approx(quadratic, rel=1e-12, abs=0.0)


def readme_distribution(kind, k):
    """The README model, H = diag(1, 1/2, 1/4) and w* = 1, at H -> 4^k H with
    the noise scaled to match (the well-specified noise by 2^k)."""
    sigma = math.ldexp(1.0, k) if kind == "gaussian_well_specified" else 1.0
    return {"kind": kind, "d": 3, "noise_sigma": sigma,
            "H_spec": {"diag": [math.ldexp(v, 2 * k) for v in (1.0, 0.5, 0.25)]},
            "w_star": [1.0, 1.0, 1.0]}


@pytest.mark.parametrize("distribution", [
    *(readme_distribution(kind, k) for kind in ("gaussian_well_specified", "gaussian_misspecified")
      for k in (-130, 0, 160)),
    family_distribution("misspecified", 10, 1.0),
], ids=[*(f"{kind}-4^{k}" for kind in ("well", "misspec") for k in (-130, 0, 160)),
        "misspecified_d10"])
def test_quadratic_form_fold_matches_the_whole_array(distribution):
    # the sampled pass folds its quadratic forms block by block; their mean
    # and standard error are those of the 200,000 forms held at once
    cfg = config_from_dict({"distribution": distribution, "seed": 2})
    m = cfg.moments
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        n, _, _, mean, se = harness_mod._sampled_pass(cfg.distribution, m, cfg.seed)
        x, y = SampleStream(cfg.distribution, (cfg.seed, 903)).draw(n)
        q = 0.5 * (y - x @ m.w_star) ** 2 * _quad_forms(x, np.linalg.inv(m.H))
        want_se = float(sample_std(q)) / math.sqrt(n)
    assert mean == pytest.approx(float(q.mean()), rel=1e-12, abs=0.0)
    assert se == pytest.approx(want_se, rel=1e-12, abs=0.0)


def test_sampled_checks_pass_over_seeds():
    # with a draw of its own per check, all three passed on seeds 0-49 of
    # this config; no other check reads the shared draw
    for seed in range(50):
        cfg = misspec_d10(seed)
        results = sampled_rows(cfg)
        assert [r.name for r in results] == SAMPLED_CHECKS
        assert all(r.passed for r in results), (seed, results)


def test_sampled_checks_memory_is_the_shared_draw():
    # The pass holds a block of pairs at a time and folds the block's
    # quadratic forms into a running mean and sum of squares: it peaked at
    # 2.44 MB of traced bytes at d = 10 and 8.31 MB at d = 40 under numpy 2.4.
    # Keeping the 200,000 forms (1.6 MB) for one whole-array standard
    # deviation peaked at 5.17 and 9.85 MB; holding the whole draw, 17.6 MB
    # at d = 10 and 65.6 MB at d = 40, at 23.1 and 74.3 MB.
    for d, cap in ((10, 3.0e6), (40, 9.5e6)):
        cfg = config_from_dict({"distribution": family_distribution("misspecified", d, 1.0),
                                "T": 1000, "replicates": 100, "seed": 0})
        SampleStream(cfg.distribution, 0).draw(1)  # numpy.random loaded untraced
        tracemalloc.start()
        try:
            sampled_rows(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cap, d


# what importing concurrent.futures.ProcessPoolExecutor loads
POOL_MODULES = ("concurrent.futures.process", "multiprocessing")


def run_fresh(code):
    env = dict(os.environ, PYTHONPATH=str(Path(tailsgd.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", ["numpy.random", *POOL_MODULES])
def test_setup_does_not_import_numpy_random(module):
    # numpy.random takes ~11 ms to import and the process-pool stack ~14 ms;
    # a CLI call that never samples pays for neither
    run_fresh(
        "import json, sys\n"
        "import tailsgd.cli\n"
        "from tailsgd.harness import config_from_dict, parse_sweep_config\n"
        f"config_from_dict(json.loads({json.dumps(json.dumps(WELL3))}))\n"
        "parse_sweep_config('{}')\n"
        f"assert {module!r} not in sys.modules, '{module} imported'\n"
    )


def test_only_a_run_with_a_pool_loads_the_pool_stack(tmp_path):
    # pool-free simulate, verify and sweep calls leave the pool stack unloaded;
    # the first pool loads it, binds harness's name to the class, and writes
    # the bytes of one worker
    exp, grid = tmp_path / "exp.json", tmp_path / "sweep.json"
    exp.write_text(json.dumps({**WELL2, "T": 200, "replicates": 20}))
    grid.write_text(json.dumps({"d": [2], "families": ["well_specified"], "T": [100],
                                "gamma_rules": ["half_inv_R2"], "replicates": 10}))
    runs = [[command, "--config", str(cfg), "--out", str(tmp_path / f"{command}.out"),
             "--workers", "1"]
            for command, cfg in (("simulate", exp), ("verify", exp), ("sweep", grid))]
    pooled = [*runs[0][:4], str(tmp_path / "pooled.out"), "--workers", "2"]
    run_fresh(
        "import os, sys\n"
        "from tailsgd import harness\n"
        "from tailsgd.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    assert main(argv) == 0, argv\n"
        f"assert not [m for m in {POOL_MODULES!r} if m in sys.modules], sys.modules.keys()\n"
        "os.sched_getaffinity = lambda pid: {0, 1}  # two usable CPUs: two workers\n"
        f"assert main({pooled!r}) == 0\n"
        "import concurrent.futures\n"
        "assert harness.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor\n"
    )
    assert (tmp_path / "pooled.out").read_bytes() == (tmp_path / "simulate.out").read_bytes()


def test_tail_averages_starts_its_pool_through_the_module_name(monkeypatch):
    # perfbench/tracing.py counts pools by swapping the class that a tailsgd
    # module namespace holds, so the pool branch must look it up there
    import concurrent.futures

    starts = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(kwargs)
            super().__init__(*args, **kwargs)

    cfg = config_from_dict({**WELL3, "T": 200, "replicates": 20})
    one = run_experiment(cfg, workers=1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(harness_mod, "ProcessPoolExecutor", CountingPool)
    assert run_experiment(cfg, workers=2) == one
    assert starts == [{"max_workers": 2}]


def dense_h_experiment(d=100):
    a = np.random.default_rng(11).standard_normal((d, d))
    return {"distribution": {"kind": "gaussian_well_specified", "d": d, "noise_sigma": 1.0,
                             "w_star": [1.0] * d,
                             "H_spec": (a @ a.T / d + 0.1 * np.eye(d)).tolist()},
            "T": 64, "replicates": 8, "seed": 0}


def test_output_does_not_depend_on_blas_threads(tmp_path):
    # OpenBLAS splits a d = 100 eigh, the draws' Cholesky product, the
    # sampled checks' 200,000-row products and the dense stationary solve
    # across threads; that once moved R^2 (and with it gamma, the bound and
    # every trajectory), the draws, the noise-mean-zero margin at seed 2, and
    # the solvers' output in their last bits
    runs = [("simulate", dense_h_experiment(), []),
            ("simulate", dense_h_experiment(), ["--workers", "2"]),
            ("verify", misspec_d10_doc(2), ["--format", "json"]),
            ("moments", {"distribution": family_distribution("misspecified", 10, 1.0)},
             ["--estimate", "200000"]),
            ("bound", dense_h_experiment(), []),
            ("solve-cov", dense_h_experiment(30), ["--method", "direct"]),
            ("solve-cov", dense_h_experiment(30), ["--method", "fixed-point"]),
            ("verify", dense_h_experiment(30), [])]
    for k, (command, doc, flags) in enumerate(runs):
        path = tmp_path / f"{k}.json"
        path.write_text(json.dumps(doc))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=str(Path(tailsgd.__file__).parents[1]))
            proc = subprocess.run(
                [sys.executable, "-m", "tailsgd.cli", command, "--config", str(path), *flags],
                env=env, capture_output=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], command


def test_cli_sets_one_blas_thread_once(monkeypatch, tmp_path):
    # a CLI call sets one thread first and never restores it, so a second call
    # in the process sets nothing; the stationary solvers run at that count
    threads, calls = [2], []

    def set_threads(n):
        calls.append(n)
        threads[0] = n

    monkeypatch.setattr(matcore, "_openblas", lambda: (lambda: threads[0], set_threads))
    dense = tmp_path / "dense.json"
    dense.write_text(json.dumps(dense_h_experiment(40)))
    well = tmp_path / "well.json"
    well.write_text(json.dumps({**WELL3, "T": 200, "replicates": 10}))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"d": [2], "families": ["well_specified"],
                                "gamma_rules": ["half_inv_R2"], "T": [64],
                                "replicates": 4}))
    out = str(tmp_path / "out")
    runs = [["moments", "--config", str(dense)],
            ["moments", "--config", str(dense), "--estimate", "1000"],
            ["bound", "--config", str(dense)],
            ["simulate", "--config", str(dense)],
            ["solve-cov", "--config", str(dense), "--method", "fixed-point"],
            ["solve-cov", "--config", str(dense), "--method", "direct"],
            ["verify", "--config", str(well)],
            ["sweep", "--config", str(grid)]]
    for argv in runs:
        threads[0] = 2
        for first in (True, False):
            calls.clear()
            assert main([*argv, "--out", out]) == 0, argv
            assert calls == [1] * first, (argv, first)
    # where numpy ships no OpenBLAS of its own, a call sets nothing and runs
    monkeypatch.setattr(matcore, "_openblas", lambda: None)
    assert main(["bound", "--config", str(dense), "--out", out]) == 0


def test_blas_thread_count_is_set_only_in_its_places():
    # the thread-count policy lives in matcore and the CLI's one entry;
    # nothing else may set a count
    allowed = {("harness", "use_one_blas_thread")}
    names = {"_openblas"}
    found = set()
    for path in Path(tailsgd.__file__).parent.glob("*.py"):
        if path.stem == "matcore":
            continue
        tree = ast.parse(path.read_text())
        for top in tree.body:
            scope = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                used = ({a.name for a in node.names} if isinstance(node, ast.ImportFrom)
                        else {node.id} if isinstance(node, ast.Name)
                        else {node.attr} if isinstance(node, ast.Attribute) else set())
                if used & names:
                    found.add((path.stem, scope))
    assert found == allowed, found ^ allowed


def _member_names(cls: ast.ClassDef):
    """The methods of a class and, of a dataclass, its fields."""
    dataclass = any("dataclass" in ast.unparse(d) for d in cls.decorator_list)
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name
        elif dataclass and isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def test_every_export_has_a_caller_in_the_package():
    # no public module-level function or class that only tests call, and no
    # public method or dataclass field of a public class that only tests
    # read; a re-export in __init__ is no caller.  A member counts as read
    # only where an attribute of its name is loaded, so a local variable of
    # its name does not hide it.  Kept, each with its reader outside the
    # package: the two functions that the acceptance checks import (c09's
    # least-squares baseline), and two members
    only_tests = {"excess_risk", "mle_fit"}
    read_outside = {
        "RiskReport.ci_high": "simulate's JSON, written by cli through dataclasses.asdict",
        "BatchResult.samples_per_replicate": "perfbench/tracing.py's replicate-step count",
    }
    package = Path(tailsgd.__file__).parent
    public, members, used, read = set(), set(), set(), set()
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                public.add(node.name)
                if isinstance(node, ast.ClassDef):
                    members |= {f"{node.name}.{name}" for name in _member_names(node)
                                if not name.startswith("_")}
        if path.name != "__init__.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                    if isinstance(node.ctx, ast.Load):
                        read.add(node.attr)
    assert public - used <= only_tests, public - used - only_tests
    assert read_outside.keys() <= members
    unread = {member for member in members if member.split(".")[1] not in read}
    assert unread <= read_outside.keys(), sorted(unread - read_outside.keys())


def test_tail_averages_sets_no_blas_thread_count(monkeypatch):
    # a thread-count call in a forked pool worker restarts OpenBLAS's threads,
    # and the new one spins; the simulation path must make none, also on a
    # dense H_spec whose draw products are too small for OpenBLAS to split
    calls = []
    monkeypatch.setattr(matcore, "_openblas",
                        lambda: (lambda: calls.append("get") or 2, calls.append))
    for cfg in (misspec_d10(0), config_from_dict({**dense_h_experiment(3), "T": 1024})):
        sgd_cfg = SgdConfig(gamma=cfg.gamma, w0=cfg.w0, t_avg_start=cfg.t, T=cfg.T)
        _tail_averages(cfg.distribution, sgd_cfg, cfg.moments, cfg.seed, 0, 4, 1, PROCESSES)
    assert calls == []


def test_verification_requires_closed_form_moments():
    cfg = config_from_dict({
        "distribution": {"kind": "gaussian_misspecified", "d": 2,
                         "noise_sigma": 1.0, "misspec_fn": "one_plus_norm_x"},
        "T": 100, "replicates": 10,
    })
    with pytest.raises(IntractableMomentsError):
        run_verification(cfg)


@pytest.mark.parametrize("command", ["moments", "verify"])
def test_cli_estimate_only_model_points_to_the_estimate_flag(tmp_path, capsys, command):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"distribution": {
        "kind": "gaussian_misspecified", "d": 2, "noise_sigma": 1.0,
        "misspec_fn": "one_plus_norm_x"}, "T": 100, "replicates": 10}))
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "`moments --estimate N`" in err


def test_chunk_ranges_capped_at_usable_cpus():
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    chunks = _chunk_ranges(10, 10**6)
    assert 1 <= len(chunks) <= min(10, cpus)
    assert chunks[0][0] == 0 and chunks[-1][1] == 10
    assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
    assert _chunk_ranges(5, 1) == [(0, 5)]


def test_sweep_matches_single_experiment(tmp_path):
    sweep_cfg = parse_sweep_config(json.dumps({
        "d": [3], "families": ["well_specified"], "gamma_rules": ["half_inv_R2"],
        "T": [400], "replicates": 40, "seed": 9,
    }))
    rows = sweep(sweep_cfg)
    assert len(rows) == 1 and rows[0]["error"] == ""
    doc = {
        "distribution": family_distribution("well_specified", 3, 1.0),
        "gamma_rule": "half_inv_R2", "T": 400, "replicates": 40, "seed": 9,
    }
    report = run_experiment(config_from_dict(doc), cell=0)
    assert rows[0]["emp_risk"] == report.emp_risk
    assert rows[0]["bound"] == report.bound.total
    # the one-cell sweep and simulate --format csv write the same bytes
    config, out = tmp_path / "exp.json", tmp_path / "row.csv"
    config.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(config), "--format", "csv",
                 "--out", str(out)]) == 0
    assert out.read_text() == sweep_csv(rows)


def test_sweep_continues_past_failing_cells():
    sweep_cfg = parse_sweep_config(json.dumps({
        "d": [2], "families": ["well_specified"],
        "gamma_rules": ["explicit", "half_inv_R2"], "T": [200],
        "gamma": 10.0, "replicates": 10, "seed": 0,
    }))
    rows = sweep(sweep_cfg)
    assert len(rows) == 2
    assert rows[0]["error"] != "" and rows[0]["emp_risk"] == ""
    assert rows[1]["error"] == "" and rows[1]["emp_risk"] != ""


def test_sweep_csv_shape_and_determinism():
    sweep_cfg = parse_sweep_config(json.dumps({
        "d": [1, 2], "families": ["well_specified", "misspecified"],
        "gamma_rules": ["half_inv_R2"], "T": [300], "replicates": 25, "seed": 4,
    }))
    text1 = sweep_csv(sweep(sweep_cfg))
    text2 = sweep_csv(sweep(sweep_cfg))
    assert text1 == text2
    lines = text1.strip().split("\n")
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 5
    ids = [line.split(",")[0] for line in lines[1:]]
    assert ids == ["0", "1", "2", "3"]


def test_sweep_risk_decays_roughly_like_inverse_window():
    sweep_cfg = parse_sweep_config(json.dumps({
        "d": [1], "families": ["well_specified"], "gamma_rules": ["half_inv_R2"],
        "T": [1000, 10000, 100000], "replicates": 200, "seed": 12,
    }))
    rows = sweep(sweep_cfg)
    ts = np.array([row["T"] for row in rows], dtype=float)
    risks = np.array([row["emp_risk"] for row in rows], dtype=float)
    slope = np.polyfit(np.log10(ts), np.log10(risks), 1)[0]
    assert -1.3 < slope < -0.7


def test_parse_sweep_config_rejects_bad_documents():
    with pytest.raises(ConfigError):
        parse_sweep_config(json.dumps({"d": [], "families": ["well_specified"],
                                       "gamma_rules": ["half_inv_R2"], "T": [100]}))
    with pytest.raises(ConfigError):
        parse_sweep_config(json.dumps({"d": [2], "families": ["unknown"],
                                       "gamma_rules": ["half_inv_R2"], "T": [100]}))
    with pytest.raises(ConfigError):
        parse_sweep_config(json.dumps({"d": [2], "families": ["well_specified"],
                                       "gamma_rules": ["explicit"], "T": [100]}))
    with pytest.raises(ConfigError):
        parse_sweep_config("not json")
    for bad, field in (
        ({"replicates": "many"}, "replicates"),
        ({"d": ["x"]}, "d[0]"),
        ({"d": [True]}, "d[0]"),
        ({"seed": 1.7}, "seed"),
        ({"noise_sigma": "1.0"}, "noise_sigma"),
        ({"t_rule": "explicit"}, "t_rule"),
    ):
        with pytest.raises(ConfigError) as err:
            parse_sweep_config(json.dumps({"d": [2], **bad}))
        assert err.value.field == field


# ---------------------------------------------------------------------------
# Command-line interface


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(WELL3))
    return str(path)


def test_cli_moments_and_bound(config_path, tmp_path, capsys):
    assert main(["moments", "--config", config_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["R2"] == pytest.approx(5.0) and payload["rho"] == pytest.approx(1.0)

    out = tmp_path / "bound.json"
    assert main(["bound", "--config", config_path, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["bound"]["variance"] == pytest.approx(0.006)
    assert doc["dist0_sq"] == pytest.approx(3.0)


def test_cli_moments_estimate(config_path, capsys):
    assert main(["moments", "--config", config_path, "--estimate", "5000"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exact"] is False and payload["n_samples"] == 5000
    assert abs(payload["mu"] - 1.0) < 0.2


def test_cli_solve_cov_both_methods(config_path, capsys):
    for method in ("fixed-point", "direct"):
        assert main(["solve-cov", "--config", config_path, "--method", method]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace"] == pytest.approx(0.2, rel=1e-8)
        assert payload["trace"] <= payload["refined_trace_bound"]
        assert payload["lambda_max"] <= payload["crude_bound"]


def test_cli_simulate_json_and_csv(config_path, capsys):
    assert main(["simulate", "--config", config_path, "--replicates", "30",
                 "--seed", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["replicates"] == 30 and payload["seed"] == 2
    assert payload["emp_risk"] > 0.0

    assert main(["simulate", "--config", config_path, "--replicates", "30",
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("cell_id,") and len(lines) == 2


def test_cli_verify_passes(config_path, capsys):
    assert main(["verify", "--config", config_path]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "checks passed" in out


def test_cli_verify_failure_exit_code(config_path, monkeypatch, capsys):
    import tailsgd.cli as cli_mod
    monkeypatch.setattr(
        cli_mod, "run_verification",
        lambda cfg, workers=1: [CheckResult("forced", False, -1.0, "forced failure")])
    assert main(["verify", "--config", config_path]) == 3
    assert "FAIL forced" in capsys.readouterr().out
    # checks compute their flags and margins as numpy scalars
    monkeypatch.setattr(
        cli_mod, "run_verification",
        lambda cfg, workers=1: [CheckResult("forced", np.bool_(False), np.float64(-1.0),
                                            "forced failure")])
    assert main(["verify", "--config", config_path, "--format", "json"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False and doc["checks"][0]["passed"] is False


def test_cli_solve_cov_operator_matches_moments(tmp_path, capsys):
    estimate_only = {"distribution": {"kind": "gaussian_misspecified", "d": 2,
                                      "noise_sigma": 1.0, "misspec_fn": "one_plus_norm_x"}}
    for doc, exact in ((WELL3, True), (estimate_only, False)):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        assert main(["solve-cov", "--config", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["operator_exact"] is payload["moments_exact"] is exact


@pytest.mark.parametrize("argv", [["bound"], ["solve-cov", "--method", "direct"],
                                  ["solve-cov", "--method", "fixed-point"]])
def test_cli_estimate_only_model_draws_once(argv, tmp_path, monkeypatch, capsys):
    # moments and operator of an estimate-only model come from one draw
    rows = []
    real = SampleStream.draw
    monkeypatch.setattr(SampleStream, "draw",
                        lambda self, n: (rows.append(("draw", n)), real(self, n))[1])
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"distribution": {
        "kind": "gaussian_misspecified", "d": 2, "noise_sigma": 1.0,
        "misspec_fn": "one_plus_norm_x"}}))
    assert main([*argv, "--config", str(path)]) == 0
    assert rows == [("draw", 32768)]
    capsys.readouterr()


def test_cli_numerical_failure_exit_code(config_path, monkeypatch, tmp_path, capsys):
    import tailsgd.harness as harness_mod

    def explode(*args, **kwargs):
        raise ConvergenceError("forced")

    monkeypatch.setattr(harness_mod, "solve_stationary_direct", explode)
    assert main(["solve-cov", "--config", config_path]) == 4
    capsys.readouterr()
    # a non-finite result fails instead of printing Infinity
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({**WELL3, "w0": [1e300] * 3, "T": 100, "replicates": 4}))
    for command in ("bound", "simulate", "verify"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", str(huge)]) == 4
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        out, err = capsys.readouterr()
        assert out == "" and "bias" in err
        assert err.startswith("numerical failure:") and err.count("\n") == 1


def test_cli_config_error_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"distribution": {"kind": "nope", "d": 1}}))
    assert main(["bound", "--config", str(bad)]) == 2
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{")
    assert main(["bound", "--config", str(notjson)]) == 2
    assert main(["bound", "--config", str(tmp_path / "missing.json")]) == 2
    good = tmp_path / "good.json"
    good.write_text(json.dumps(WELL3))
    assert main(["simulate", "--config", str(good), "--seed", "-1"]) == 2
    # a residual near 1e300 overflows Sigma: rejected without numpy's warning
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"distribution": {"kind": "discrete", "d": 1, "support": [
        {"x": [1.0], "y_mean": 1e300, "y_std": 0.5, "prob": 0.5},
        {"x": [2.0], "y_mean": -1.0, "y_std": 0.5, "prob": 0.5}]}}))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["bound", "--config", str(huge)]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err.startswith("config error: distribution") and err.count("\n") == 1
    # integer flags are range-checked before any draw buffer or pool exists
    for argv, flag in [
        (["moments", "--estimate", "0"], "--estimate"),
        (["moments", "--estimate", "2"], "--estimate"),          # fewer than d=3
        (["moments", "--estimate", str(10 ** 9)], "--estimate"),  # over the 1 GiB cap
        (["simulate", "--workers", "0"], "--workers"),
        (["verify", "--workers", "-2"], "--workers"),
        (["sweep", "--workers", "0"], "--workers"),
    ]:
        capsys.readouterr()
        assert main([*argv, "--config", str(good)]) == 2
        assert flag in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bound", "moments"])
def test_zero_noise_test_does_not_overflow(tmp_path, capsys, command):
    # Sigma = 1e300 I is finite, but the squares of its Frobenius norm are not:
    # testing Sigma for zero through that norm warned of an overflow
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"distribution": {"kind": "gaussian_well_specified", "d": 3,
                                                 "noise_sigma": 1e150}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([command, "--config", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    rho = doc["constants"]["rho"] if command == "bound" else doc["rho"]
    assert rho == 1.0


@pytest.mark.parametrize("distribution, words", [
    # every eigenvalue is positive: spd's relative floor rejects them
    ({"H_spec": {"diag": [1e-300, 1.0]}}, ("numerically singular", "1e-12 times")),
    ({"H_spec": {"diag": [1e300, 1.0]}}, ("numerically singular", "1e-12 times")),
    # the noise covariance overflows, not the document
    ({"noise_sigma": 1e200}, ("noise_sigma=1e+200 overflows",)),
    ({"kind": "gaussian_misspecified", "noise_sigma": 1e160}, ("noise_sigma=1e+160 overflows",)),
    # Sigma = 1e308 I is finite, but Sigma + Sigma^T is not
    ({"noise_sigma": 1e154}, ("noise_sigma=1e+154 overflows",)),
    ({"noise_sigma": 1e155}, ("noise_sigma=1e+155 overflows",)),
])
def test_cli_config_errors_name_their_cause(tmp_path, capsys, distribution, words):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"distribution": {"kind": "gaussian_well_specified", "d": 2,
                                                 **distribution}}))
    assert main(["bound", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: distribution: ") and err.count("\n") == 1
    assert all(w in err for w in words), err


def test_cli_imports_only_public_harness_and_errors_names():
    # the CLI parses flags and prints; every result comes from a harness builder
    import tailsgd.cli as cli_mod

    tree = ast.parse(inspect.getsource(cli_mod))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names]
            assert not [n for n in names if n.startswith("_")], names
            if node.level or (node.module or "").split(".")[0] == "tailsgd":
                assert node.module in ("harness", "errors", "tailsgd.harness",
                                       "tailsgd.errors"), node.module
        elif isinstance(node, ast.Import):
            assert not [a.name for a in node.names if a.name.split(".")[0] == "tailsgd"]


def test_cli_sweep_writes_file(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "d": [2], "families": ["well_specified"], "gamma_rules": ["half_inv_R2"],
        "T": [200], "replicates": 10, "seed": 1,
    }))
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2 and lines[0].startswith("cell_id,")


def test_cli_sweep_of_a_sub_blocked_cell_does_not_depend_on_workers(tmp_path):
    # at d=100 each replicate's draws are filled 64 rows at a time; T=600
    # ends in a 24-row sub-block of an 88-row block
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "d": [100], "families": ["well_specified"], "gamma_rules": ["half_inv_R2"],
        "T": [600], "replicates": 5, "seed": 2,
    }))
    texts = []
    for workers in ("1", "2"):
        out = tmp_path / f"rows{workers}.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--workers", workers]) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1] and texts[0].count(b"\n") == 2
