"""Command-line interface.

``tailsgd COMMAND --config FILE [options]`` with commands:

* ``moments``: population (or ``--estimate N``) moments of the model.
* ``solve-cov``: stationary iterate covariance by ``--method fixed-point``
  or ``--method direct``, with its a-priori caps.
* ``bound``: closed-form risk bound for the configured run geometry.
* ``simulate``: Monte-Carlo risk experiment against the bound.
* ``verify``: the full verification check table; fails the exit code when
  any check fails.
* ``sweep``: grid of experiments written as CSV.

Exit codes: 0 success, 2 a rejected input (``errors.InputError``, or a file
that cannot be read), 3 verification failure, 4 numerical failure, a NaN or
infinite result included.

This module sets BLAS to one thread, parses flags, prints and maps errors to
exit codes; ``harness`` builds each command's result.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .errors import ConfigError, InputError, TailSgdError
from .harness import (
    bound_report,
    moments_report,
    parse_config,
    parse_sweep_config,
    run_experiment,
    run_verification,
    stationary_report,
    sweep,
    sweep_csv,
    sweep_row,
    use_one_blas_thread,
)

def _json_default(obj):
    """The JSON value of what ``json`` cannot encode itself: a dataclass as
    its dict, a numpy array or scalar as its list or number."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload, out_path):
    _emit(json.dumps(payload, indent=2, default=_json_default) + "\n", out_path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tailsgd", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=None, help="write output here instead of stdout")
        return p

    p = add("moments", "population or estimated moments of the model")
    p.add_argument("--estimate", type=int, default=None, metavar="N",
                   help="estimate from N fresh draws instead of closed forms")

    p = add("solve-cov", "stationary iterate covariance")
    p.add_argument("--method", choices=("fixed-point", "direct"), default="direct")

    add("bound", "closed-form risk bound for the configured run")

    p = add("simulate", "Monte-Carlo risk experiment")
    p.add_argument("--replicates", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = add("verify", "run the verification check table")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = add("sweep", "grid of experiments as CSV")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _load_config(path: str):
    with open(path) as fh:
        return fh.read()


def _experiment(args):
    """The ``--config`` experiment, with any ``--replicates``/``--seed``."""
    return parse_config(_load_config(args.config), getattr(args, "replicates", None),
                        getattr(args, "seed", None))


def _cmd_moments(args) -> int:
    _emit_json(moments_report(_experiment(args), args.estimate), args.out)
    return 0


def _cmd_solve_cov(args) -> int:
    _emit_json(stationary_report(_experiment(args), args.method), args.out)
    return 0


def _cmd_bound(args) -> int:
    _emit_json(bound_report(_experiment(args)), args.out)
    return 0


def _cmd_simulate(args) -> int:
    cfg = _experiment(args)
    # a CSV row carries no bias/variance split
    report = run_experiment(cfg, workers=args.workers, split=args.format == "json")
    if args.format == "csv":
        _emit(sweep_csv([sweep_row(0, cfg, report)]), args.out)
    else:
        _emit_json(report, args.out)
    return 0


def _cmd_verify(args) -> int:
    results = run_verification(_experiment(args), workers=args.workers)
    failed = [r for r in results if not r.passed]
    if args.format == "json":
        _emit_json({"checks": results, "passed": not failed}, args.out)
    else:
        lines = [
            f"{'PASS' if r.passed else 'FAIL'} {r.name:28s} margin={r.margin: .3e}  {r.detail}"
            for r in results
        ]
        lines.append(f"{len(results) - len(failed)}/{len(results)} checks passed")
        _emit("\n".join(lines) + "\n", args.out)
    return 3 if failed else 0


def _cmd_sweep(args) -> int:
    sweep_cfg = parse_sweep_config(_load_config(args.config))
    rows = sweep(sweep_cfg, workers=args.workers)
    if args.format == "json":
        _emit_json(rows, args.out)
    else:
        _emit(sweep_csv(rows), args.out)
    return 0


_COMMANDS = {
    "moments": _cmd_moments,
    "solve-cov": _cmd_solve_cov,
    "bound": _cmd_bound,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    use_one_blas_thread()
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "workers", 1) < 1:
            raise ConfigError("--workers", f"must be at least 1, got {args.workers}")
        return _COMMANDS[args.command](args)
    except (InputError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (TailSgdError, ArithmeticError) as exc:
        # every other package error is numerical, a non-finite result
        # included, as is a Python float's overflow
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
