"""Golden outputs: a four-cell sweep CSV covering both model families, the
risk figures of one d=3 experiment, which the CSV does not carry (the bias
and variance halves), the JSON the ``moments``, ``bound`` and ``solve-cov``
commands print for that experiment and for a d=2 discrete model, and the
table ``verify`` prints for both.  All must reproduce exactly.

The files under ``golden/`` are written by running this module as a script:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from tailsgd.cli import main
from tailsgd.harness import config_from_dict, parse_sweep_config, run_experiment, sweep, sweep_csv

GOLDEN = Path(__file__).resolve().parent / "golden"
SWEEP_GOLDEN = GOLDEN / "sweep_4cell.csv"
REPORT_GOLDEN = GOLDEN / "experiment_d3.json"
CLI_GOLDEN = GOLDEN / "cli"

SWEEP = {"d": [3], "families": ["well_specified", "misspecified"],
         "gamma_rules": ["half_inv_R2"], "T": [200, 1100], "replicates": 16, "seed": 0}
EXPERIMENT = {
    "distribution": {"kind": "gaussian_well_specified", "d": 3,
                     "H_spec": {"diag": [1.0, 0.5, 0.25]},
                     "w_star": [1.0, 1.0, 1.0], "noise_sigma": 1.0},
    "T": 2000, "replicates": 41, "seed": 3,
}
DISCRETE_D2 = {
    "distribution": {"kind": "discrete", "d": 2, "support": [
        {"x": [1.0, 0.0], "y_mean": 1.0, "y_std": 0.5, "prob": 0.3},
        {"x": [0.0, 2.0], "y_mean": -1.0, "y_std": 0.25, "prob": 0.3},
        {"x": [1.0, 1.0], "y_mean": 0.5, "y_std": 1.0, "prob": 0.4}]},
    "T": 500, "seed": 1,
}
REPORT_FIELDS = ("emp_risk", "stderr", "bias_risk", "bias_stderr", "var_risk", "var_stderr")

# golden file name -> (config document, CLI arguments before --config)
CLI_CASES = {
    "d3_moments.json": (EXPERIMENT, ["moments"]),
    "d3_moments_estimate.json": (EXPERIMENT, ["moments", "--estimate", "5000"]),
    "d3_bound.json": (EXPERIMENT, ["bound"]),
    "d3_solve_cov_direct.json": (EXPERIMENT, ["solve-cov", "--method", "direct"]),
    "d3_solve_cov_fixed_point.json": (EXPERIMENT, ["solve-cov", "--method", "fixed-point"]),
    "discrete_d2_bound.json": (DISCRETE_D2, ["bound"]),
    "discrete_d2_solve_cov_direct.json": (DISCRETE_D2, ["solve-cov", "--method", "direct"]),
    "discrete_d2_solve_cov_fixed_point.json": (DISCRETE_D2,
                                               ["solve-cov", "--method", "fixed-point"]),
    "d3_verify.txt": (EXPERIMENT, ["verify"]),
    "discrete_d2_verify.txt": (DISCRETE_D2, ["verify"]),
}


def sweep_text() -> str:
    return sweep_csv(sweep(parse_sweep_config(json.dumps(SWEEP)), workers=2))


def report_fields() -> dict:
    report = run_experiment(config_from_dict(EXPERIMENT), workers=2)
    return {f: getattr(report, f) for f in REPORT_FIELDS}


def cli_stdout(doc: dict, argv: list) -> str:
    """What ``tailsgd ARGV --config FILE`` prints for a config document."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([*argv, "--config", str(path)]) == 0
    return out.getvalue()


def test_sweep_csv_matches_golden():
    assert sweep_text() == SWEEP_GOLDEN.read_text()


def test_experiment_report_matches_golden():
    # JSON floats round-trip exactly, so equality here is bit equality
    assert report_fields() == json.loads(REPORT_GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_output_matches_golden(name):
    assert cli_stdout(*CLI_CASES[name]) == (CLI_GOLDEN / name).read_text()


if __name__ == "__main__":
    CLI_GOLDEN.mkdir(parents=True, exist_ok=True)
    SWEEP_GOLDEN.write_text(sweep_text())
    REPORT_GOLDEN.write_text(json.dumps(report_fields(), indent=2) + "\n")
    for name, case in CLI_CASES.items():
        (CLI_GOLDEN / name).write_text(cli_stdout(*case))
