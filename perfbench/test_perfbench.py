"""Self-tests of the benchmark.

    python3 -m pytest perfbench

They check that tracing leaves the package as it found it, that a small run
of each workload passes its output check, that a corrupted output counts as
a failure, and that the benchmark prints exactly the metrics BENCHMARK.json
declares.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from workloads import ROOT, SRC, WORKLOADS

sys.path.insert(0, str(SRC))

import tailsgd.cli  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _package_state():
    state = {}
    for name, module in sys.modules.items():
        if module is None or not (name == "tailsgd" or name.startswith("tailsgd.")):
            continue
        for attr, value in vars(module).items():
            state[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    state[(name, attr, cattr)] = cvalue
    return state


def _tiny_op(workload, tmp_path, seed=1, traced=False):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workload.config(seed, tiny=True)))
    out = tmp_path / "out"
    argv = workload.argv(config, out)
    tracer = Tracer()
    if traced:
        with tracer.installed():
            code = tailsgd.cli.main(argv)
    else:
        code = tailsgd.cli.main(argv)
    return workload.check(code, out.read_text(), seed, tiny=True), tracer


def test_wrappers_restore_the_original_functions():
    from tailsgd import distributions, harness, sgd

    before = _package_state()
    with Tracer().installed():
        assert sgd.run_replicates is not before[("tailsgd.sgd", "run_replicates")]
        assert harness.run_replicates is sgd.run_replicates
        assert (vars(distributions.SampleStream)["draw"]
                is not before[("tailsgd.distributions", "SampleStream", "draw")])
    after = _package_state()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_passes_its_output_check(name, tmp_path):
    outcome, _ = _tiny_op(WORKLOADS[name], tmp_path)
    assert outcome.ok, outcome.reason


def test_traced_counts_are_exact(tmp_path):
    workload = WORKLOADS["simulate_d3"]
    outcome, tracer = _tiny_op(workload, tmp_path, traced=True)
    assert outcome.ok, outcome.reason
    cfg = workload.config(1, tiny=True)
    steps = 3 * cfg["replicates"] * cfg["T"]  # standard, bias and variance processes
    metrics = layer_metrics(tracer.spans, wall_s=1.0)
    assert metrics["sgd.calls"] == 3
    assert metrics["sgd.replicate_steps"] == steps
    assert metrics["distributions.samples_drawn"] == steps
    assert metrics["distributions.stream_inits"] == 3 * cfg["replicates"]
    assert metrics["harness.experiments"] == 1
    assert metrics["stationary.fixed_point_iters"] == 0


def test_corrupted_output_counts_as_failed(tmp_path, monkeypatch, capsys):
    workload = WORKLOADS["simulate_d3"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workload.config(1, tiny=True)))
    out = tmp_path / "out"
    good = run.run_op(workload, config, out, seed=1)[2]

    real_main = tailsgd.cli.main

    def corrupting_main(argv):
        code = real_main(argv)
        doc = json.loads(out.read_text())
        doc["emp_risk"] = doc["bound"]["total"] * 10.0
        out.write_text(json.dumps(doc))
        return code

    monkeypatch.setattr(tailsgd.cli, "main", corrupting_main)
    bad = run.run_op(workload, config, out, seed=1)[2]
    assert good.ok and not bad.ok
    res = run.result([good, bad], {})
    assert (res["correct"], res["attempted"], res["failed"]) == (False, 2, 1)
    assert "failed_frac    0.5 (1/2)" in capsys.readouterr().out


def test_reference_mismatch_counts_as_failed():
    ref = (ROOT / "perfbench" / "reference" / "sweep_pool.csv").read_text()
    sweep = WORKLOADS["sweep_pool"]
    assert sweep.check(0, ref, seed=0).ok
    assert not sweep.check(0, ref.replace("0.0035", "0.0036", 1), seed=0).ok
    verify = WORKLOADS["verify_misspec_d10"]
    text = "PASS a margin=1\nFAIL b margin=-1\n1/2 checks passed\n"
    outcome = verify.check(3, text, seed=1)
    assert not outcome.ok and outcome.checks_failed == 1


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", "simulate_d3",
                           "--seed", "0", *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_prints_the_declared_metrics(trace, section):
    done = _bench("--seconds", "0", "--trace", trace)
    assert done.returncode == 0, done.stderr
    res = json.loads(done.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
