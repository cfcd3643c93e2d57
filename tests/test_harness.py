import ast
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import tailsgd
from tailsgd import matcore
from tailsgd.bounds import rate_constants, sigma2_mle
from tailsgd.cli import main
from tailsgd.distributions import SampleStream, exact_moments
from tailsgd.errors import ConfigError, ConvergenceError, IntractableMomentsError
from tailsgd.harness import (
    SWEEP_COLUMNS,
    CheckResult,
    _chunk_ranges,
    _entrywise_margin,
    _sampled_checks,
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
from tailsgd.matcore import _ROW_BLOCK, _quad_forms, blas_threads
from tailsgd.sgd import SgdConfig
from tailsgd.stationary import FourthMomentOperator

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
    # the draw buffer and state of the run would exceed their cap
    ({"distribution": {"kind": "gaussian_well_specified", "d": 100}, "replicates": 10**6},
     "replicates"),
])
def test_parse_config_rejects_bad_documents(doc, field):
    with pytest.raises(ConfigError) as err:
        config_from_dict(doc)
    assert err.value.field == field


def test_parse_config_sizes_the_draw_buffer_by_horizon():
    # 300 replicates x min(512, 10) rows x 1001 floats: a 24 MB buffer,
    # beside 58 MB of state
    cfg = config_from_dict({"distribution": {"kind": "gaussian_well_specified", "d": 1000},
                            "T": 10, "replicates": 300})
    assert (cfg.distribution.d, cfg.T, cfg.replicates) == (1000, 10, 300)


def test_parse_config_counts_the_state_of_short_runs():
    # one row of 101 floats per replicate is an 808 MB buffer, but the
    # (replicates, 3, 100) state arrays of the run take 2.4 GB each
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError) as err:
            config_from_dict({"distribution": {"kind": "gaussian_well_specified", "d": 100},
                              "T": 1, "replicates": 10 ** 6})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.field == "replicates" and peak < 2 ** 20


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
    pairs: the reference the blocked pass is compared against."""
    m, n = cfg.moments, 200_000
    with blas_threads(1):
        x, y = SampleStream(cfg.distribution, (cfg.seed, 903)).draw(n)
        resid = y - x @ m.w_star
        mean, se = FourthMomentOperator.sampled(x).apply_with_stderr(m.H)
        fourth = _entrywise_margin(mean - cfg.operator.apply(m.H), se, 1e-12 * (1.0 + m.R2))
        norm = float(np.linalg.norm(x.T @ resid)) / n
        noise = 4.0 * math.sqrt(float(np.trace(m.Sigma)) / n) + 1e-12 - norm
        q = 0.5 * resid ** 2 * _quad_forms(x, np.linalg.inv(m.H))
        est, se = float(q.mean()), float(q.std(ddof=1) / math.sqrt(n))
        quadratic = 4.0 * se + 1e-12 - abs(est - sigma2_mle(m))
    return fourth, noise, quadratic


def test_blocked_sampled_checks_match_one_whole_draw():
    # The row blocks of the draw fall where those of _quad_forms and
    # apply_with_stderr do, so two margins keep their bits; the noise mean's
    # one 200,000-row product becomes a sum of 25 block products
    cfgs = [misspec_d10(seed) for seed in range(3)]
    cfgs.append(config_from_dict({"distribution": family_distribution("well_specified", 10, 1.0),
                                  "T": 1000, "replicates": 100, "seed": 4}))
    for cfg in cfgs:
        fourth, noise, quadratic = _unblocked_sampled_margins(cfg)
        results = _sampled_checks(cfg.distribution, cfg.moments, cfg.operator, cfg.seed)
        assert results[0].margin == fourth
        assert results[1].margin == pytest.approx(noise, rel=1e-12, abs=0.0)
        assert results[2].margin == quadratic


def test_sampled_checks_pass_over_seeds():
    # with a draw of its own per check, all three passed on seeds 0-49 of
    # this config; no other check reads the shared draw
    for seed in range(50):
        cfg = misspec_d10(seed)
        results = _sampled_checks(cfg.distribution, cfg.moments, cfg.operator, seed)
        assert [r.name for r in results] == SAMPLED_CHECKS
        assert all(r.passed for r in results), (seed, results)


def test_sampled_checks_memory_is_the_shared_draw():
    # The pass holds a block of pairs at a time and the 200,000 quadratic
    # forms (1.6 MB): it peaked at 4.1 MB of traced bytes at d = 10 and
    # 10.0 MB at d = 40 under numpy 2.4.  Holding the whole draw, 17.6 MB at
    # d = 10 and 65.6 MB at d = 40, peaked at 23.1 and 74.3 MB.
    for d, cap in ((10, 6e6), (40, 14e6)):
        cfg = config_from_dict({"distribution": family_distribution("misspecified", d, 1.0),
                                "T": 1000, "replicates": 100, "seed": 0})
        SampleStream(cfg.distribution, 0).draw(1)  # numpy.random loaded untraced
        tracemalloc.start()
        try:
            _sampled_checks(cfg.distribution, cfg.moments, cfg.operator, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cap, d


def test_setup_does_not_import_numpy_random():
    # numpy.random takes ~11 ms to import; a CLI call that never samples
    # never pays for it
    code = (
        "import json, sys\n"
        "import tailsgd.cli\n"
        "from tailsgd.harness import config_from_dict, parse_sweep_config\n"
        f"config_from_dict(json.loads({json.dumps(json.dumps(WELL3))}))\n"
        "parse_sweep_config('{}')\n"
        "assert 'numpy.random' not in sys.modules, 'numpy.random imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(tailsgd.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def dense_h_experiment(d=100):
    a = np.random.default_rng(11).standard_normal((d, d))
    return {"distribution": {"kind": "gaussian_well_specified", "d": d, "noise_sigma": 1.0,
                             "w_star": [1.0] * d,
                             "H_spec": (a @ a.T / d + 0.1 * np.eye(d)).tolist()},
            "T": 64, "replicates": 8, "seed": 0}


def test_output_does_not_depend_on_blas_threads(tmp_path):
    # OpenBLAS splits a d = 100 eigh, the draws' Cholesky product and the
    # sampled checks' 200,000-row products across threads; that once moved
    # R^2 (and with it gamma, the bound and every trajectory), the draws, and
    # the noise-mean-zero margin at seed 2 in their last bits
    runs = [("simulate", dense_h_experiment(), []),
            ("simulate", dense_h_experiment(), ["--workers", "2"]),
            ("verify", misspec_d10_doc(2), ["--format", "json"]),
            ("moments", {"distribution": family_distribution("misspecified", 10, 1.0)},
             ["--estimate", "200000"]),
            ("bound", dense_h_experiment(), [])]
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
    # in the process sets nothing; only the stationary solvers run at the
    # count OpenBLAS started with, and put one thread back after
    threads, calls = [2], []

    def set_threads(n):
        calls.append(n)
        threads[0] = n

    monkeypatch.setattr(matcore, "_openblas", lambda: (lambda: threads[0], set_threads, 2))
    dense = tmp_path / "dense.json"
    dense.write_text(json.dumps(dense_h_experiment(40)))
    well = tmp_path / "well.json"
    well.write_text(json.dumps({**WELL3, "T": 200, "replicates": 10}))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"d": [2], "families": ["well_specified"],
                                "gamma_rules": ["half_inv_R2"], "T": [64],
                                "replicates": 4}))
    out = str(tmp_path / "out")
    runs = [(["moments", "--config", str(dense)], 0),
            (["moments", "--config", str(dense), "--estimate", "1000"], 0),
            (["bound", "--config", str(dense)], 0),
            (["simulate", "--config", str(dense)], 0),
            (["solve-cov", "--config", str(dense), "--method", "fixed-point"], 1),
            (["solve-cov", "--config", str(dense), "--method", "direct"], 1),
            (["verify", "--config", str(well)], 2),
            (["sweep", "--config", str(grid)], 0)]
    for argv, solves in runs:
        threads[0] = 2
        for first in (True, False):
            calls.clear()
            assert main([*argv, "--out", out]) == 0, argv
            assert calls == [1] * first + [2, 1] * solves, (argv, first)


def test_blas_thread_count_is_set_only_in_its_places():
    # the thread-count policy lives in matcore, the CLI's one entry and the
    # two solvers' scope at the start count; nothing else may set a count
    allowed = {("harness", "use_one_blas_thread"),
               ("stationary", "solve_stationary_fixed_point"),
               ("stationary", "solve_stationary_direct"),
               ("stationary", None)}
    names = {"blas_threads", "_openblas"}
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
    assert found <= allowed, found - allowed
    assert {("harness", "use_one_blas_thread")} <= found


def test_tail_averages_sets_no_blas_thread_count(monkeypatch):
    # a thread-count call in a forked pool worker restarts OpenBLAS's threads,
    # and the new one spins; the simulation path must make none, also on a
    # dense H_spec whose draw products are too small for OpenBLAS to split
    calls = []
    monkeypatch.setattr(matcore, "_openblas",
                        lambda: (lambda: calls.append("get") or 2, calls.append))
    for cfg in (misspec_d10(0), config_from_dict({**dense_h_experiment(3), "T": 1024})):
        sgd_cfg = SgdConfig(gamma=cfg.gamma, w0=cfg.w0, t_avg_start=cfg.t, T=cfg.T)
        _tail_averages(cfg.distribution, sgd_cfg, cfg.moments, cfg.seed, 0, 4, 1)
    assert calls == []


def test_verification_requires_closed_form_moments():
    cfg = config_from_dict({
        "distribution": {"kind": "gaussian_misspecified", "d": 2,
                         "noise_sigma": 1.0, "misspec_fn": "one_plus_norm_x"},
        "T": 100, "replicates": 10,
    })
    with pytest.raises(IntractableMomentsError):
        run_verification(cfg)


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
