"""Mutated config documents: one field at a time is replaced by a hostile
value, deleted, or joined by an unknown key.  An experiment document must end
in exit 0, 2 or 4 from the CLI, never in an uncaught exception or a
non-finite number printed with exit 0; a sweep document must parse or raise
ConfigError.  Only parsing and the cheap commands run here.  Finite inputs
whose moments overflow are bases too: each exits 2 naming its field, as does
an H_spec so small that E[||x||^2 x x^T] underflows to 0.  So are four
models at the edges of float range, on which every model command ends in a
documented exit code with no RuntimeWarning."""

import copy
import json
import math
import os
import tempfile
import warnings
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailsgd.cli import main
from tailsgd.errors import ConfigError
from tailsgd.harness import parse_sweep_config

MUTANTS = (math.nan, math.inf, -math.inf, -1, 0, 1e300, 10**30, "abc", True, None, [], {})

EXPERIMENTS = (
    {"distribution": {"kind": "gaussian_misspecified", "d": 2,
                      "H_spec": {"diag": [1.0, 0.5]}, "w_star": [1.0, -1.0],
                      "noise_sigma": 1.0, "misspec_fn": "norm_x"},
     "gamma_rule": "explicit", "gamma": 0.05, "t_rule": "explicit", "t": 50, "T": 100,
     "w0": [0.0, 0.0], "replicates": 10, "seed": 0},
    {"distribution": {"kind": "discrete", "d": 2, "support": [
        {"x": [1.0, 0.0], "y_mean": 1.0, "y_std": 1.0, "prob": 0.5},
        {"x": [0.3, 1.1], "y_mean": -0.5, "y_std": 0.5, "prob": 0.5}]},
     "gamma_rule": "half_inv_rho_R2", "T": 100},
)
# valid models at the edges of float range, and the exit code, always one of
# 0, 2, 3 and 4, of each model command on them
EDGES = {
    # b = v = 5e307: the bound's (sqrt b + sqrt v)^2 overflows
    "bound-square": ({"distribution": {"kind": "gaussian_well_specified", "d": 1,
                                       "noise_sigma": 7.07e153, "H_spec": "identity"},
                      "w0": [5.77e153], "t_rule": "explicit", "t": 0, "T": 1, "replicates": 2},
                     {"bound": 4, "simulate": 4, "fixed-point": 0, "direct": 0, "verify": 4}),
    # Sigma = 1e200 I: squares of its entries overflow, its norms do not
    "noise-1e100": ({"distribution": {"kind": "gaussian_well_specified", "d": 2,
                                      "noise_sigma": 1e100, "H_spec": "identity"},
                     "T": 200, "replicates": 20},
                    {"bound": 0, "simulate": 0, "fixed-point": 0, "direct": 0, "verify": 0}),
    # gamma = 1 / (2 R^2) = 2.5e154, whose square overflows in the trace cap
    # and the covariance recursion: solve-cov fails, and so do verify's rows
    # that square it, each naming gamma^2
    "h-5e-156": ({"distribution": {"kind": "gaussian_well_specified", "d": 2,
                                   "noise_sigma": 1.0, "H_spec": {"diag": [5e-156, 5e-156]}},
                  "T": 20, "replicates": 10},
                 {"bound": 0, "simulate": 0, "fixed-point": 4, "direct": 4, "verify": 3}),
    # the stationary covariance itself, about sigma^2 / lambda = 1e310,
    # overflows: the direct solve ended in a traceback
    "cov-1e310": ({"distribution": {"kind": "gaussian_well_specified", "d": 2,
                                    "noise_sigma": 1e80, "H_spec": {"diag": [1e-150, 1e-150]}},
                   "T": 20, "replicates": 10},
                  {"bound": 0, "simulate": 0, "fixed-point": 4, "direct": 4, "verify": 4}),
}
COMMANDS = {"bound": ["bound"], "simulate": ["simulate"],
            "fixed-point": ["solve-cov", "--method", "fixed-point"],
            "direct": ["solve-cov", "--method", "direct"], "verify": ["verify"]}
# finite documents whose moments overflow, and the field each must name
OVERFLOWS = {
    "H_spec": ({"distribution": {"kind": "gaussian_well_specified", "d": 2,
                                 "H_spec": {"diag": [1e160, 1e160]}}}, "H_spec"),
    "noise_sigma": ({"distribution": {"kind": "gaussian_misspecified", "d": 2,
                                      "misspec_fn": "one_plus_norm_x", "noise_sigma": 1e200}},
                    "noise_sigma=1e+200"),
    "support.x": ({"distribution": {"kind": "discrete", "d": 1, "support": [
        {"x": [1e200], "prob": 0.5}, {"x": [1.0], "prob": 0.5}]}}, "support"),
    "support.y_mean": ({"distribution": {"kind": "discrete", "d": 1, "support": [
        {"x": [10.0], "y_mean": 1e308, "prob": 0.5}, {"x": [1.0], "prob": 0.5}]}}, "support"),
}
SWEEPS = (
    {"d": [2, 3], "families": ["well_specified", "misspecified"],
     "gamma_rules": ["half_inv_R2", "explicit"], "T": [100, 200], "gamma": 0.05,
     "t_rule": "half_T", "noise_sigma": 1.0, "replicates": 10, "seed": 0},
)
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=600)


def _paths(doc, prefix=()):
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated(draw, bases):
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    *head, key = draw(st.sampled_from(list(_paths(doc))))
    parent = reduce(lambda node, k: node[k], head, doc)
    action = draw(st.sampled_from(("replace", "delete", "add")))
    if action == "replace":
        parent[key] = draw(st.sampled_from(MUTANTS))
    elif action == "delete":
        del parent[key]
    else:
        (parent if isinstance(parent, dict) else doc)["unknown_key"] = 1
    return doc


@FUZZ
@given(doc=mutated(EXPERIMENTS + tuple(doc for doc, _ in (*OVERFLOWS.values(),
                                                           *EDGES.values()))),
       command=st.sampled_from(("bound", "moments")))
def test_mutated_experiment_documents_exit_cleanly(doc, command):
    with tempfile.TemporaryDirectory() as tmp:
        config, out = os.path.join(tmp, "exp.json"), os.path.join(tmp, "out.json")
        with open(config, "w") as fh:
            json.dump(doc, fh)
        code = main([command, "--config", config, "--out", out])
        assert code in (0, 2, 4)
        if code == 0:
            with open(out) as fh:
                text = fh.read()
            assert "NaN" not in text and "Infinity" not in text


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("edge", EDGES)
def test_models_at_the_edges_of_float_range_exit_cleanly(tmp_path, capsys, edge, command):
    doc, codes = EDGES[edge]
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(COMMANDS[command] + ["--config", str(path)])
    out, err = capsys.readouterr()
    assert code == codes[command]
    if code == 0:
        assert err == "" and "NaN" not in out and "Infinity" not in out
    elif code == 3:
        failed = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert err == "" and failed and "Infinity" not in out
    else:
        assert out == "" and err.startswith("numerical failure: ") and err.count("\n") == 1
    if edge == "bound-square" and code:
        assert err == "numerical failure: total: result is NaN or infinite\n"
    if edge == "h-5e-156" and code == 3:
        assert len(failed) == 4 and all("raised NonFiniteResultError('gamma^2: " in line
                                        for line in failed)
    if edge == "h-5e-156" and code == 4:
        assert err == "numerical failure: gamma^2: result is NaN or infinite\n"
    if edge == "cov-1e310" and command == "direct":
        assert err == "numerical failure: cov: result is NaN or infinite\n"


@pytest.mark.parametrize("command", ["fixed-point", "verify"])
def test_fixed_point_iterate_out_of_float_range_is_named(tmp_path, capsys, command):
    # gamma = 1 / (2 R^2) is stable and the iteration contracts: what fails
    # is C itself, about 1e310.  The message once blamed gamma ("iteration
    # diverged after 1 steps (gamma too large for this backing?)")
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(EDGES["cov-1e310"][0]))
    assert main(COMMANDS[command] + ["--config", str(path)]) == 4
    out, err = capsys.readouterr()
    assert out == "" and "gamma" not in err
    assert err == "numerical failure: cov at fixed-point iteration 1: result is NaN or infinite\n"


@pytest.mark.parametrize("doc, field", OVERFLOWS.values(), ids=OVERFLOWS)
def test_overflowing_documents_name_their_field(tmp_path, capsys, doc, field):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["bound", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: distribution: {field} overflows") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["bound", "verify"])
@pytest.mark.parametrize("kind", ["gaussian_well_specified", "gaussian_misspecified"])
@pytest.mark.parametrize("diag", [1e-170, 1e-300, 5e-324, 1e-155])
def test_underflowing_h_spec_names_its_field(tmp_path, capsys, command, kind, diag):
    # H is positive definite, but E[||x||^2 x x^T] = Tr(H) H + 2 H^2 rounds
    # to 0 below about 1e-162: that once read "R2 must be positive, got 0.0"
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"distribution": {"kind": kind, "d": 2, "noise_sigma": 1.0,
                                                 "H_spec": {"diag": [diag, diag]}},
                                "T": 20, "replicates": 10}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([command, "--config", str(path)])
    out, err = capsys.readouterr()
    if diag == 1e-155:
        # the closed-form solve runs on H / 4^k: unscaled, lam_i Sigma~_ii
        # underflowed, and the misspecified model failed two rows, 19/21
        assert code == 0 and err == "" and out
        assert command == "bound" or out.endswith("21/21 checks passed\n")
        return
    assert code == 2 and out == ""
    assert err == ("config error: distribution: H_spec underflows: "
                   "E[||x||^2 x x^T] rounds to 0\n")


@FUZZ
@given(doc=mutated(SWEEPS))
def test_mutated_sweep_documents_parse_or_raise_config_error(doc):
    try:
        parse_sweep_config(json.dumps(doc))
    except ConfigError:
        pass
