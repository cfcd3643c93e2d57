"""Golden outputs: a four-cell sweep CSV covering both model families, and
the risk figures of one d=3 experiment, which the CSV does not carry (the
bias and variance halves).  Both must reproduce exactly.

The files under ``golden/`` are written by running this module as a script:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

from tailsgd.harness import config_from_dict, parse_sweep_config, run_experiment, sweep, sweep_csv

GOLDEN = Path(__file__).resolve().parent / "golden"
SWEEP_GOLDEN = GOLDEN / "sweep_4cell.csv"
REPORT_GOLDEN = GOLDEN / "experiment_d3.json"

SWEEP = {"d": [3], "families": ["well_specified", "misspecified"],
         "gamma_rules": ["half_inv_R2"], "T": [200, 1100], "replicates": 16, "seed": 0}
EXPERIMENT = {
    "distribution": {"kind": "gaussian_well_specified", "d": 3,
                     "H_spec": {"diag": [1.0, 0.5, 0.25]},
                     "w_star": [1.0, 1.0, 1.0], "noise_sigma": 1.0},
    "T": 2000, "replicates": 41, "seed": 3,
}
REPORT_FIELDS = ("emp_risk", "stderr", "bias_risk", "bias_stderr", "var_risk", "var_stderr")


def sweep_text() -> str:
    return sweep_csv(sweep(parse_sweep_config(json.dumps(SWEEP)), workers=2))


def report_fields() -> dict:
    report = run_experiment(config_from_dict(EXPERIMENT), workers=2)
    return {f: getattr(report, f) for f in REPORT_FIELDS}


def test_sweep_csv_matches_golden():
    assert sweep_text() == SWEEP_GOLDEN.read_text()


def test_experiment_report_matches_golden():
    # JSON floats round-trip exactly, so equality here is bit equality
    assert report_fields() == json.loads(REPORT_GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    SWEEP_GOLDEN.write_text(sweep_text())
    REPORT_GOLDEN.write_text(json.dumps(report_fields(), indent=2) + "\n")
