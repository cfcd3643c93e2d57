"""Benchmark of the tailsgd command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) closed-loop through
``tailsgd.cli.main(argv)`` in this process, against the package source under
``src/`` of the checkout this file sits in, for ``--seconds`` seconds, and
checks every output.

``--trace 0`` reports the end-to-end metrics: the medians over the run's CLI
calls of ``wall_s`` and ``cpu_s`` (this process plus its children, so pool
workers count), ``setup_s`` (median of several fresh interpreters importing
``tailsgd.cli`` and parsing the workload's config), and ``peak_rss_mb``.
``--trace 1`` alternates untraced and traced calls, reports the per-layer
metrics from the traced ones (tracing.py), the tracing overhead, and the
layer probes (probes.py), and writes the spans to ``.bench_work/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the same numbers for people, with spread and sample counts.  Thread
variables are left as found: the program is measured as users run it.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from workloads import ROOT, SRC, WORK_DIR, WORKLOADS, Outcome

SETUPS = 11
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# Run in a fresh interpreter: what every CLI invocation pays before working.
SETUP_CODE = """\
import json, sys
from time import perf_counter
t0 = perf_counter()
import tailsgd.cli
from tailsgd.harness import config_from_dict, parse_sweep_config
with open(sys.argv[2]) as fh:
    text = fh.read()
if sys.argv[1] == "sweep":
    parse_sweep_config(text)
else:
    config_from_dict(json.loads(text))
print(perf_counter() - t0)
"""


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def setup_once(command: str, config_path: Path) -> float:
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, command, str(config_path)],
                          cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.strip())


def run_op(workload, config_path: Path, out_path: Path, seed: int):
    """One CLI call: (wall seconds, CPU seconds, checked outcome)."""
    from tailsgd import cli

    out_path.unlink(missing_ok=True)
    c0 = _cpu_s()
    t0 = perf_counter()
    try:
        code = cli.main(workload.argv(config_path, out_path))
    except Exception as exc:  # an uncaught error is a failed operation, not a crash
        traceback.print_exc()
        code = f"exception {exc!r}"
    wall = perf_counter() - t0
    cpu = _cpu_s() - c0
    if not isinstance(code, int):
        return wall, cpu, Outcome(False, code)
    text = out_path.read_text() if out_path.exists() else ""
    return wall, cpu, workload.check(code, text, seed)


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None where it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def machine_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_runtime_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": commit,
    }


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1={q1:.6g} q3={q3:.6g} n={len(values)}"


def unit_of(name: str) -> str:
    family = name.split(".")[1] if "." in name else name
    if family == "s" or family.endswith("_s"):
        return "s"
    if "ns_per" in family:
        return "ns"
    if family in ("coverage", "failed_frac"):
        return "ratio"
    return "count"


def measure(workload, config_path, out_path, seed, seconds):
    # Set-ups are spread between the calls, so that a short slow spell of the
    # machine touches few of them.
    setups, ops = [], []
    while not ops or sum(w for w, _, _ in ops) < seconds:
        if len(setups) < SETUPS:
            setups.append(setup_once(workload.command, config_path))
        ops.append(run_op(workload, config_path, out_path, seed))
    setups += [setup_once(workload.command, config_path)
               for _ in range(SETUPS - len(setups))]
    walls = [w for w, _, _ in ops]
    cpus = [c for _, c, _ in ops]
    samples = {"wall_s": walls, "setup_s": setups, "cpu_s": cpus, "peak_rss_mb": [_peak_rss_mb()]}
    for name, values in samples.items():
        print(f"{name:14s} median={statistics.median(values):.6g} {END_TO_END_UNITS[name]} "
              f"{_spread(values)}")
    metrics = {name: {"value": statistics.median(values), "unit": END_TO_END_UNITS[name]}
               for name, values in samples.items()}
    return [o for _, _, o in ops], metrics


def measure_traced(workload, config_path, out_path, seed, seconds):
    import probes
    from tracing import Tracer, layer_metrics, write_spans

    plain, traced, outcomes, traces = [], [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        wall, _, outcome = run_op(workload, config_path, out_path, seed)
        plain.append(wall)
        outcomes.append(outcome)
        tracer = Tracer()
        with tracer.installed():
            wall, _, outcome = run_op(workload, config_path, out_path, seed)
        outcomes.append(outcome)
        per_op = layer_metrics(tracer.spans, wall)
        per_op["harness.cells_failed"] = outcome.cells_failed
        per_op["harness.checks_failed"] = outcome.checks_failed
        traced.append((wall, per_op))
        traces.append((wall, tracer.spans))

    layer = {}
    for name in traced[0][1]:
        values = [op[name] for _, op in traced]
        # counts repeat exactly between calls; times get the median
        layer[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
    traced_walls = [w for w, _ in traced]
    layer["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain)
    layer["failed_frac"] = sum(not o.ok for o in outcomes) / len(outcomes)
    print(f"untraced wall_s median={statistics.median(plain):.6g} s {_spread(plain)}")
    print(f"traced   wall_s median={statistics.median(traced_walls):.6g} s {_spread(traced_walls)}")
    layer.update(probes.run_all())
    for family, home in probes.HOME.items():
        print(f"probe {family}: home workload {home}")
    for solver, family, d in sorted(probes.KNOWN_FAILURES):
        print(f"probe known failure, not run: stationary.{solver}_s.{family}_d{d}")
    for name, value in layer.items():
        print(f"{name:48s} {value:.10g} {unit_of(name)}")
    write_spans(WORK_DIR / f"trace-{workload.name}.json", workload.name, seed, traces)
    metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in layer.items()}
    return outcomes, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tailsgd" / "__init__.py").is_file():
        print(f"perfbench: no tailsgd package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tailsgd

    if Path(tailsgd.__file__).resolve().parent != SRC / "tailsgd":
        print(f"perfbench: imported tailsgd from {tailsgd.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    config_path = WORK_DIR / f"{workload.name}.config.json"
    out_path = WORK_DIR / f"{workload.name}.out"
    config_path.write_text(json.dumps(workload.config(args.seed)))
    machine = machine_record()
    (WORK_DIR / "machine.json").write_text(json.dumps(machine, indent=2))
    print(f"# workload={workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"# machine {json.dumps(machine)}")

    run = measure_traced if args.trace else measure
    outcomes, metrics = run(workload, config_path, out_path, args.seed, args.seconds)
    print(json.dumps(result(outcomes, metrics)))
    return 0


def result(outcomes, metrics) -> dict:
    """The result object; prints the failure share and reasons first."""
    failed = [o for o in outcomes if not o.ok]
    print(f"failed_frac    {len(failed) / len(outcomes):.6g} ({len(failed)}/{len(outcomes)})")
    for reason in sorted({o.reason for o in failed}):
        print(f"# failure: {reason}")
    return {"correct": not failed, "attempted": len(outcomes), "failed": len(failed),
            "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
