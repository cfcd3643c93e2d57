"""A model and its power-of-two rescaling give the same results.

Scale a Gaussian model by H -> 4^k H, noise_sigma -> 2^k sigma (well
specified) or sigma (``norm_x``), or a discrete support by x, y_mean, y_std
-> 2^k times themselves, and an explicit gamma -> gamma / 4^k, with w0 and w*
fixed.  Then x and y scale by 2^k, gamma R^2 is unchanged, and every
trajectory is the same: risks and bounds scale by 4^k, and every ``verify``
verdict is the same, on the correct model, on a wrong one, and on a sampler
with too much noise checked against the correct moments.  All factors
are powers of two, so floating point keeps this bit for bit until something
leaves float range; the sampled sums, norms and standard errors are formed
on scaled operands so that nothing does, from H near 1e-78 to 1e96."""

import dataclasses
import functools
import math
import operator
import warnings

import pytest

from tailsgd.harness import bound_report, config_from_dict, run_experiment, run_verification
from tailsgd.stationary import FourthMomentOperator

KS = (-130, -60, 0, 60, 90, 130, 160)
# the d=2 support of the golden discrete model (test_golden.py): x, y_mean,
# y_std and prob of each atom
SUPPORT = (((1.0, 0.0), 1.0, 0.5, 0.3), ((0.0, 2.0), -1.0, 0.25, 0.3),
           ((1.0, 1.0), 0.5, 1.0, 0.4))

# log2 of the factor each report field scales by, per unit of k
REPORT_SCALES = {"emp_risk": 2, "stderr": 2, "ci_low": 2, "ci_high": 2, "bias_risk": 2,
                 "bias_stderr": 2, "var_risk": 2, "var_stderr": 2, "eff_ratio": 0,
                 "bound.bias": 2, "bound.variance": 2, "bound.total": 2,
                 "constants.gamma": -2, "constants.mu": 2, "constants.r2": 2,
                 "constants.sigma2": 2, "constants.rho": 0, "dist0_sq": 0}


def _document(kind, k, noise=1.0):
    # noise scales the label noise: noise_sigma, or each atom's y_std
    if kind == "discrete":
        return {"distribution": {"kind": kind, "d": 2, "support": [
                    {"x": [math.ldexp(v, k) for v in x], "y_mean": math.ldexp(mean, k),
                     "y_std": math.ldexp(noise * std, k), "prob": prob}
                    for x, mean, std, prob in SUPPORT]},
                "gamma_rule": "explicit", "gamma": math.ldexp(0.1, -2 * k),
                "t_rule": "explicit", "t": 25, "T": 50, "w0": [0.5, 0.0],
                "replicates": 8, "seed": 3}
    sigma = math.ldexp(0.5 * noise, k) if kind == "gaussian_well_specified" else 0.5 * noise
    return {"distribution": {"kind": kind, "d": 3, "noise_sigma": sigma,
                             "H_spec": {"diag": [math.ldexp(v, 2 * k) for v in (1.0, 0.5, 0.25)]},
                             "w_star": [1.0, -0.5, 0.25]},
            "gamma_rule": "explicit", "gamma": math.ldexp(0.1, -2 * k),
            "t_rule": "explicit", "t": 25, "T": 50, "w0": [0.5, 0.0, -1.0],
            "replicates": 8, "seed": 3}


def _values(cfg):
    report = dataclasses.asdict(run_experiment(cfg))
    report["dist0_sq"] = bound_report(cfg)["dist0_sq"]
    return {name: functools.reduce(operator.getitem, name.split("."), report)
            for name in REPORT_SCALES}


def _verdicts(cfg, noisy):
    # the wrong model: an operator built for 1.1 H, or for the support 1.1 x;
    # and the right model's moments checked against draws of ``noisy``
    support = cfg.distribution.support
    op = (FourthMomentOperator.discrete([1.1 * a.x for a in support], [a.prob for a in support])
          if support else FourthMomentOperator.gaussian(1.1 * cfg.moments.H))
    return tuple({r.name: r.passed for r in run_verification(c)}
                 for c in (cfg, dataclasses.replace(cfg, operator=op),
                           dataclasses.replace(cfg, distribution=noisy)))


@pytest.mark.parametrize("kind", ["gaussian_well_specified", "gaussian_misspecified", "discrete"])
def test_power_of_two_rescaling_keeps_every_result(kind):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        runs = {}
        for k in KS:
            cfg = config_from_dict(_document(kind, k))
            noisy = config_from_dict(_document(kind, k, noise=1.1)).distribution
            runs[k] = _values(cfg), _verdicts(cfg, noisy)
    base, verdicts = runs[0]
    right, wrong, noisy = verdicts
    # the wrong operator fails the checks that read it, and the noisy
    # sampler the check of sigma^2_MLE, at every scale
    assert all(right.values()) and not all(wrong.values())
    assert not noisy["sigma2-mle-quadratic-form"]
    for k in KS:
        values, at_k = runs[k]
        for name, scale in REPORT_SCALES.items():
            assert values[name] == math.ldexp(base[name], scale * k), (k, name)
        assert at_k == verdicts, k
