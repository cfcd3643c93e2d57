"""The input gates each stated once: the stability condition 0 < gamma < 1/R^2
(``StepSizeError.check``), the spanning test of a second-moment matrix
(``matcore.check_spans``), and the CLI's exit code, decided by an error's
class (``InputError`` exits 2)."""

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

import tailsgd
import tailsgd.cli as cli_mod
from helpers import gaussian_spec
from tailsgd import errors
from tailsgd.bounds import RateConstants, rate_constants, variance_term
from tailsgd.distributions import Moments
from tailsgd.errors import InputError, StepSizeError, TailSgdError
from tailsgd.matcore import check_spans
from tailsgd.sgd import SgdConfig, run_replicates
from tailsgd.stationary import (
    FourthMomentOperator,
    crude_bound,
    refined_trace_bound,
    solve_stationary_direct,
    solve_stationary_fixed_point,
    solve_stationary_gaussian,
)


def _constructions(names):
    """(module, top-level scope, class) of every call that builds one of the
    named classes in the package, ``cls(...)`` in their own methods included."""
    found = set()
    for path in Path(tailsgd.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            scope = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    name = node.func.id
                    if name == "cls" and scope in names:
                        name = scope
                    if name in names:
                        found.add((path.stem, scope, name))
    return found


def test_each_gate_error_is_built_in_one_place():
    # the stability condition lives in StepSizeError.check, apart from the
    # positivity test of SgdConfig, which has no R^2; the spanning test in
    # matcore.check_spans
    found = _constructions({"StepSizeError", "SingularMomentsError"})
    assert found == {("errors", "StepSizeError", "StepSizeError"),
                     ("sgd", "SgdConfig", "StepSizeError"),
                     ("matcore", "check_spans", "SingularMomentsError")}, found


def _gated_calls(gamma, r2):
    """Every entry point that must reject an unstable gamma, at a model whose
    R^2 is ``r2`` where the entry point takes one."""
    h = np.eye(2)
    m = Moments(H=h, Sigma=h, w_star=np.zeros(2), R2=r2, exact=True)
    spec = gaussian_spec(2)
    op = FourthMomentOperator.gaussian(h)
    config = SgdConfig(gamma=0.01, w0=np.zeros(2), t_avg_start=0, T=5)
    # SgdConfig rejects a NaN gamma itself: set it past the constructor
    object.__setattr__(config, "gamma", gamma)
    return {
        "run_replicates": lambda: run_replicates(spec, config, [0], moments=m),
        "rate_constants": lambda: rate_constants(m, gamma),
        "RateConstants": lambda: RateConstants(gamma, 1.0, r2, 2, 1.0, 1.0),
        "variance_term": lambda: variance_term(gamma, r2, 1.0, 1.0, 10),
        "crude_bound": lambda: crude_bound(h, h, gamma, r2),
        "refined_trace_bound": lambda: refined_trace_bound(h, h, gamma, r2),
    }, {
        "fixed_point": lambda: solve_stationary_fixed_point(h, op, h, gamma),
        "direct": lambda: solve_stationary_direct(h, op, h, gamma),
        "gaussian": lambda: solve_stationary_gaussian(h, h, gamma),
    }


def test_nan_gamma_is_rejected_everywhere():
    with pytest.raises(StepSizeError):
        SgdConfig(gamma=math.nan, w0=np.zeros(2), t_avg_start=0, T=5)
    with_r2, solvers = _gated_calls(math.nan, 5.0)
    for name, call in {**with_r2, **solvers}.items():
        with pytest.raises(StepSizeError):
            call()
            pytest.fail(name)


def test_gamma_at_the_threshold_is_rejected_everywhere():
    # gamma * R^2 rounds to 1 - 2^-53 at R^2 = 49, gamma = 1/49: it is not
    # below 1/R^2 all the same
    assert (1.0 / 49.0) * 49.0 < 1.0
    with_r2, _ = _gated_calls(1.0 / 49.0, 49.0)
    for name, call in with_r2.items():
        with pytest.raises(StepSizeError):
            call()
            pytest.fail(name)
    # the solvers take R^2 from their operator: R^2 = Tr H + 2 = 4 at H = I
    r2 = FourthMomentOperator.gaussian(np.eye(2)).r_squared_under(np.eye(2))
    _, solvers = _gated_calls(1.0 / r2, r2)
    for name, call in solvers.items():
        with pytest.raises(StepSizeError):
            call()
            pytest.fail(name)


@pytest.mark.parametrize("r2", [0.0, -1.0, math.inf, math.nan])
def test_a_nonpositive_or_nonfinite_r2_is_a_stepsize_error(r2):
    # 1/R^2 bounds nothing there: R^2 = 0 once raised a bare ZeroDivisionError
    h = np.eye(2)
    calls = {
        "variance_term": lambda: variance_term(0.1, r2, 1.0, 1.0, 10),
        "RateConstants": lambda: RateConstants(0.1, 1.0, r2, 2, 1.0, 1.0),
        "crude_bound": lambda: crude_bound(h, h, 0.1, r2),
        "refined_trace_bound": lambda: refined_trace_bound(h, h, 0.1, r2),
    }
    for name, call in calls.items():
        with pytest.raises(StepSizeError, match=r"^R\^2 must be positive and finite"):
            call()
            pytest.fail(name)


def test_check_spans_names_its_matrix():
    check_spans(np.diag([1.0, 1e-11]), "kept")
    for m in (np.diag([1.0, 1e-13]), np.diag([1.0, 0.0]), np.zeros((2, 2))):
        with pytest.raises(errors.SingularMomentsError, match=r"^design does not span R\^2"):
            check_spans(m, "design")


EXIT_2 = (errors.ConfigError("field", "reason"), errors.NotSpdError("x"),
          errors.SingularMomentsError("x"), errors.IntractableMomentsError("x"),
          errors.DimensionError("x"), errors.EmptyWindowError("x"),
          StepSizeError("x"), OSError("x"))
EXIT_4 = (errors.ConvergenceError("x"), errors.SingularSystemError("x"),
          errors.IndefiniteSolutionError("x"), errors.ZeroNoiseError("x"),
          errors.NonFiniteResultError("field"), FloatingPointError("x"), OverflowError("x"))


def test_every_package_error_has_one_exit_code():
    classes = {c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, TailSgdError)}
    listed = {type(e) for e in EXIT_2 + EXIT_4}
    assert classes - {TailSgdError, InputError} == listed - {OSError, FloatingPointError,
                                                             OverflowError}


@pytest.mark.parametrize("exc, code", [(e, 2) for e in EXIT_2] + [(e, 4) for e in EXIT_4],
                         ids=lambda v: type(v).__name__ if isinstance(v, BaseException) else str(v))
def test_error_class_decides_the_exit_code(tmp_path, capsys, monkeypatch, exc, code):
    def builder(cfg):
        raise exc

    monkeypatch.setattr(cli_mod, "bound_report", builder)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"distribution": {"kind": "gaussian_well_specified", "d": 2}}))
    assert cli_mod.main(["bound", "--config", str(path)]) == code
    err = capsys.readouterr().err
    assert err.startswith("config error: " if code == 2 else "numerical failure: ")
    assert err.count("\n") == 1
