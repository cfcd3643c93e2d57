"""verify's checks and the one runner that makes their rows.

``harness.VERIFY_ROWS`` lists the rows in order, each a check of the shared
work returning (passed, margin, detail), and ``harness._check_row`` is the
one place that builds a ``CheckResult``: a package error a check raises
becomes a FAIL row with margin -inf, and the other rows are unchanged."""

import ast
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import tailsgd.harness as harness_mod
import tailsgd.stationary as stationary_mod
from helpers import sampled_rows
from tailsgd.cli import main
from tailsgd.errors import ConvergenceError, NonFiniteResultError
from tailsgd.harness import config_from_dict
from tailsgd.stationary import _FourthMomentSums

ROOT = Path(__file__).resolve().parent.parent

CHECK_NAMES = (
    "spd-moments", "fourth-moment-dominated", "trace-vs-r2",
    "fourth-moment-sampled", "noise-mean-zero", "sigma2-mle-quadratic-form",
    "stationary-residual-fixed-point", "stationary-residual-direct", "stationary-agreement",
    "covariance-monotone", "covariance-trace-cap", "stationary-spectral-cap",
    "stationary-trace-refined", "variance-term-identity", "damped-drift-inverse",
    "mean-recursion", "bias-decay", "risk-bound-holds", "bias-variance-split",
    "rho-at-least-one", "efficiency-window",
)
WELL2 = {"distribution": {"kind": "gaussian_well_specified", "d": 2, "noise_sigma": 1.0},
         "T": 200, "replicates": 20}
# a correct model whose sampled fourth-moment sums overflow
HUGE_H = {"distribution": {"kind": "gaussian_well_specified", "d": 2, "noise_sigma": 1.0,
                           "H_spec": {"diag": [1e110, 1e110]}},
          "T": 20, "replicates": 10}


def test_every_row_is_built_by_the_runner():
    tree = ast.parse(Path(harness_mod.__file__).read_text())
    builders = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                for node in ast.walk(fn)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CheckResult"}
    assert builders == {"_check_row"}, builders
    # each row's name is written once in the module, in VERIFY_ROWS
    names = [name for name, _ in harness_mod.VERIFY_ROWS]
    literals = [node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and node.value in names]
    assert sorted(literals) == sorted(names) == sorted(CHECK_NAMES)


def test_one_row_runs_on_a_given_record(monkeypatch):
    assert [name for name, _ in harness_mod.VERIFY_ROWS] == list(CHECK_NAMES)
    shared = harness_mod._Verification.of(config_from_dict(WELL2))
    # a row reads the record alone: none of the shared work runs again
    for attr in ("bound_report", "_sampled_pass", "solve_stationary_fixed_point",
                 "solve_stationary_gaussian", "run_experiment"):
        monkeypatch.setattr(harness_mod, attr, _raise(AssertionError(f"{attr} ran again")))
    checks = dict(harness_mod.VERIFY_ROWS)

    def row(name, record):
        return harness_mod._check_row(name, checks[name], record)

    report = shared.report
    tripled = replace(report, **{field: 3.0 * getattr(report, field) for field in
                                 ("emp_risk", "stderr", "ci_low", "ci_high", "eff_ratio")})
    sol = shared.sol_dir
    perturbed = replace(sol, cov=sol.cov * (1.0 + 1e-6))
    for name, wrong in (("efficiency-window", replace(shared, report=tripled)),
                        ("stationary-agreement", replace(shared, sol_dir=perturbed))):
        assert row(name, shared).passed, name
        failed = row(name, wrong)
        assert not failed.passed and failed.margin < 0.0, failed


def test_rows_read_the_bound_from_the_record():
    # the rate constants and the bound come from the record's bound alone;
    # the risk run's report supplies only its risks
    shared = harness_mod._Verification.of(config_from_dict({**WELL2, "T": 1000}))
    blank = replace(shared, report=replace(shared.report, bound=None, constants=None))
    for name, check in harness_mod.VERIFY_ROWS:
        assert (harness_mod._check_row(name, check, blank)
                == harness_mod._check_row(name, check, shared)), name


def _verify_json(tmp_path, capsys, doc):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    code = main(["verify", "--config", str(path), "--format", "json"])
    return code, json.loads(capsys.readouterr().out)["checks"]


def _raise(exc):
    def raiser(*args, **kwargs):
        raise exc
    return raiser


@pytest.mark.parametrize("target, attr, row, exc", [
    # an ordinary check: the spectral cap reads crude_bound
    (harness_mod, "crude_bound", "stationary-spectral-cap", ConvergenceError("forced")),
    # a sampled check, whose rows were once built outside the runner
    (_FourthMomentSums, "mean_and_stderr", "fourth-moment-sampled",
     NonFiniteResultError("fourth-moment sums")),
], ids=["ordinary", "sampled"])
def test_a_raising_check_fails_its_row_alone(tmp_path, capsys, monkeypatch,
                                             target, attr, row, exc):
    code, clean = _verify_json(tmp_path, capsys, WELL2)
    assert code == 0 and [c["name"] for c in clean] == list(CHECK_NAMES)
    monkeypatch.setattr(target, attr, _raise(exc))
    code, checks = _verify_json(tmp_path, capsys, WELL2)
    assert code == 3
    failed = CHECK_NAMES.index(row)
    assert checks[failed] == {"name": row, "passed": False, "margin": float("-inf"),
                              "detail": f"raised {exc!r}"}
    assert checks[:failed] + checks[failed + 1:] == clean[:failed] + clean[failed + 1:]


def _fails_only_the_sampled_row(tmp_path, doc):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "tailsgd.cli",
                          "verify", "--config", str(path)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 3 and run.stderr == ""
    failed = [line for line in run.stdout.splitlines() if line.startswith("FAIL")]
    assert len(failed) == 1 and failed[0].split()[1] == "fourth-moment-sampled"
    assert "raised NonFiniteResultError(" in failed[0]
    assert run.stdout.endswith("20/21 checks passed\n")


def test_overflowing_sampled_sums_fail_one_row(tmp_path):
    # the sums of (x^T H x)^2 x x^T overflow at H = 1e110 I; the document
    # once ended in a ValueError traceback from matcore.sym
    _fails_only_the_sampled_row(tmp_path, HUGE_H)


def test_closed_form_solve_of_a_huge_model_stays_in_range(tmp_path):
    # the closed-form solve runs on H / 4^k; unscaled, lam_i Sigma~_ii
    # overflowed at H = 1e150 I on the misspecified model and verify ended
    # in a traceback, exit 1.  Past H ~ 1e103 the sampled sums overflow, as
    # on HUGE_H, and that row alone fails
    _fails_only_the_sampled_row(tmp_path, {**HUGE_H, "distribution": {
        **HUGE_H["distribution"], "kind": "gaussian_misspecified",
        "H_spec": {"diag": [1e150, 1e150]}}})


def _diag_doc(diag):
    return {**HUGE_H, "distribution": {**HUGE_H["distribution"], "H_spec": {"diag": [diag, diag]}}}


@pytest.mark.parametrize("diag", [1e55, 1e80, 1e100])
def test_sampled_sums_of_a_large_correct_model_pass(tmp_path, capsys, diag):
    # the sums are of x / 2^k and H / 4^k, 4^k near lambda_max(H); unscaled,
    # the squares of (x^T H x) x x^T overflowed from about 1e55 and the row
    # failed a correct model
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(_diag_doc(diag)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["verify", "--config", str(path)]) == 0
    assert capsys.readouterr().out.endswith("21/21 checks passed\n")


@pytest.mark.parametrize("diag", [1.0, 1e80])
def test_sampled_sums_still_fail_a_wrong_closed_form(diag):
    cfg = config_from_dict(_diag_doc(diag))
    op = cfg.operator
    wrong = SimpleNamespace(apply=lambda m: 1.1 * op.apply(m))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        right = sampled_rows(cfg)[0]
        failed = sampled_rows(replace(cfg, operator=wrong))[0]
    assert right.passed and not failed.passed and failed.margin < 0.0


def test_gaussian_walk_never_takes_a_dense_step(tmp_path, capsys, monkeypatch):
    # verify walks a Gaussian model's covariance recursion in H's
    # eigenbasis; a dense covariance_step here would end the run
    monkeypatch.setattr(stationary_mod, "covariance_step", _raise(AssertionError("dense step")))
    code, checks = _verify_json(tmp_path, capsys, WELL2)
    assert code == 0 and [c["name"] for c in checks] == list(CHECK_NAMES)
    walk_rows = [c for c in checks if c["name"] in ("covariance-monotone", "covariance-trace-cap")]
    assert len(walk_rows) == 2 and all(c["passed"] for c in walk_rows)


# a wrong noise covariance fed to the walk alone: -Sigma makes every step
# negative; on WELL2 (H = I, d = 2) the largest trace is 2/3 of the cap
# gamma Tr(Sigma) / mu, so Sigma scaled by more than 1.5 exceeds it
@pytest.mark.parametrize("row, scale", [("covariance-monotone", -1.0),
                                        ("covariance-trace-cap", 1.6)])
def test_walk_checks_fail_a_wrong_noise_covariance(tmp_path, capsys, monkeypatch, row, scale):
    walk = harness_mod.covariance_walk
    monkeypatch.setattr(stationary_mod, "covariance_step", _raise(AssertionError("dense step")))
    monkeypatch.setattr(harness_mod, "covariance_walk",
                        lambda h, op, sigma, gamma, **kw: walk(h, op, scale * sigma, gamma, **kw))
    code, checks = _verify_json(tmp_path, capsys, WELL2)
    assert code == 3
    assert [c["name"] for c in checks if not c["passed"]] == [row]
