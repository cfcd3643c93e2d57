"""The benchmark's workloads: inputs made from a seed, the CLI call, and the
check of its output.

Each workload is one ``tailsgd`` CLI call, run closed-loop by one caller.
For seed 0 the output must match the references in ``reference/``; for any
other seed it must satisfy invariants that hold for every seed.  NOTES.md
says why each workload was chosen.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"  # configs, outputs and traces; ignored by git
REFERENCE = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 0
REL_TOL = 1e-12
SIMULATE_FIELDS = ("emp_risk", "stderr", "bias_risk", "var_risk", "bound.total")


@dataclass(frozen=True)
class Outcome:
    """Checked result of one CLI call."""

    ok: bool
    reason: str = ""
    cells_failed: int = 0
    checks_failed: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    workers: int

    def config(self, seed: int, tiny: bool = False) -> dict:
        return _CONFIGS[self.name](seed, tiny)

    def argv(self, config_path, out_path) -> list[str]:
        return [self.command, "--config", str(config_path), "--workers", str(self.workers),
                "--out", str(out_path)]

    @property
    def reference_path(self) -> Path:
        return REFERENCE / _REFERENCES[self.name][0]

    def reference_of(self, text: str) -> str:
        """The part of an output that the seed-0 reference file holds."""
        return _REFERENCES[self.name][1](text)

    def check(self, exit_code: int, text: str, seed: int, tiny: bool = False) -> Outcome:
        """Compare against the seed-0 reference at full size; otherwise check
        the invariants."""
        ref_path = self.reference_path if seed == REFERENCE_SEED and not tiny else None
        try:
            outcome = _CHECKS[self.name](text, ref_path)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            outcome = Outcome(False, f"unreadable output: {exc!r}")
        if exit_code != 0:
            return dataclasses.replace(outcome, ok=False,
                                       reason=f"exit code {exit_code} {outcome.reason}")
        return outcome


def _readme_experiment(seed, tiny):
    return {
        "distribution": {"kind": "gaussian_well_specified", "d": 3,
                         "H_spec": {"diag": [1.0, 0.5, 0.25]},
                         "w_star": [1.0, 1.0, 1.0], "noise_sigma": 1.0},
        "gamma_rule": "half_inv_R2", "t_rule": "half_T",
        "T": 200 if tiny else 10_000, "replicates": 8 if tiny else 200, "seed": seed,
    }


def _sweep_pool(seed, tiny):
    return {"d": [3, 100], "families": ["well_specified"], "gamma_rules": ["half_inv_R2"],
            "T": [64] if tiny else [1024], "replicates": 8 if tiny else 200, "seed": seed}


def _verify_misspec(seed, tiny):
    from tailsgd.harness import family_distribution

    return {"distribution": family_distribution("misspecified", 3 if tiny else 10, 1.0),
            "T": 200 if tiny else 1000, "replicates": 20 if tiny else 100, "seed": seed}


_CONFIGS = {
    "simulate_d3": _readme_experiment,
    "sweep_pool": _sweep_pool,
    "verify_misspec_d10": _verify_misspec,
}


def _field(doc, dotted):
    for part in dotted.split("."):
        doc = doc[part]
    return float(doc)


def _close(a, b):
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _simulate_values(text):
    doc = json.loads(text)
    return {f: _field(doc, f) for f in SIMULATE_FIELDS}


def _verify_checks(text):
    """(status, name) of each check line, and whether the summary line is there."""
    lines = text.splitlines()
    return [tuple(line.split()[:2]) for line in lines[:-1]], lines[-1].endswith("checks passed")


def _verify_passed(text):
    return sorted(name for status, name in _verify_checks(text)[0] if status == "PASS")


_REFERENCES = {  # workload -> (file under reference/, what of the output it holds)
    "simulate_d3": ("simulate_d3.json",
                    lambda text: json.dumps(_simulate_values(text), indent=2) + "\n"),
    "sweep_pool": ("sweep_pool.csv", lambda text: text),
    "verify_misspec_d10": ("verify_misspec_d10.json",
                           lambda text: json.dumps({"passed": _verify_passed(text)},
                                                   indent=2) + "\n"),
}


def _check_simulate(text, ref_path):
    values = _simulate_values(text)
    if not all(math.isfinite(v) for v in values.values()):
        return Outcome(False, f"non-finite result {values}")
    if ref_path:
        ref = json.loads(ref_path.read_text())
        bad = [f for f in SIMULATE_FIELDS if not _close(values[f], ref[f])]
        if bad:
            return Outcome(False, f"differs from reference in {bad}")
    if values["emp_risk"] - 1.96 * values["stderr"] > values["bound.total"]:
        return Outcome(False, "empirical risk exceeds the bound")
    return Outcome(True)


def _check_sweep(text, ref_path):
    rows = list(csv.DictReader(io.StringIO(text)))
    failed = sum(1 for r in rows if r["error"])
    if ref_path and text != ref_path.read_text():
        return Outcome(False, "CSV differs from reference", cells_failed=failed)
    if len(rows) != 2 or failed:
        return Outcome(False, f"{len(rows)} rows, {failed} with errors", cells_failed=failed)
    for r in rows:
        if float(r["emp_risk"]) - 1.96 * float(r["stderr"]) > float(r["bound"]):
            return Outcome(False, f"cell {r['cell_id']}: empirical risk exceeds the bound")
    return Outcome(True)


def _check_verify(text, ref_path):
    checks, summary = _verify_checks(text)
    failed = sum(1 for status, _ in checks if status != "PASS")
    if failed or not summary:
        return Outcome(False, f"{failed} checks failed", checks_failed=failed)
    if ref_path:
        passed = set(_verify_passed(text))
        ref = set(json.loads(ref_path.read_text())["passed"])
        if passed != ref:
            return Outcome(False, f"PASS set differs from reference: {sorted(passed ^ ref)}")
    return Outcome(True)


_CHECKS = {
    "simulate_d3": _check_simulate,
    "sweep_pool": _check_sweep,
    "verify_misspec_d10": _check_verify,
}

WORKLOADS = {
    w.name: w for w in (
        Workload("simulate_d3", "simulate", 1),
        Workload("sweep_pool", "sweep", 2),
        Workload("verify_misspec_d10", "verify", 1),
    )
}
