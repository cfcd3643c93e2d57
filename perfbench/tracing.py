"""Span tracing of tailsgd from outside the package.

``Tracer.installed()`` replaces the public functions and methods of the
traced modules with thin wrappers, at every place a ``tailsgd`` module holds
a reference to them (``harness`` calls ``run_replicates`` through its own
``from .sgd import run_replicates``, so patching ``sgd`` alone would miss
it).  Each call records one span ``(name, start, end, parent, work)``;
``work`` is a count for the few boundaries where one is needed (samples per
draw, replicate-steps per ``run_replicates``, solver iterations, workers per
pool).  Spans stay in memory; ``layer_metrics`` turns one operation's spans
into the per-layer metrics, and the caller writes the spans out at the end.

Wrappers cost one ``perf_counter`` pair each: ``FourthMomentOperator.apply``
runs about 50k times per ``verify`` call.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

TRACED_MODULES = ("distributions", "sgd", "stationary", "bounds", "harness", "cli")
# Private functions that are layer boundaries all the same: output formatting.
EXTRA_BOUNDARIES = {"cli": ("_emit", "_emit_json")}
POOL_SPAN = "harness.pool"

# name -> work count taken from (args, kwargs, result)
_WORK = {
    "distributions.SampleStream.draw": lambda a, k, r: len(r[1]),
    "sgd.run_replicates": lambda a, k, r: r.tail_averages.shape[0] * r.samples_per_replicate,
    "stationary.solve_stationary_fixed_point": lambda a, k, r: r.iterations,
}


def _public_callables(module):
    """(owner, attribute, span name, function, rewrap) for every public
    function and method defined in ``module``."""
    layer = module.__name__.rsplit(".", 1)[-1]
    names = [n for n in vars(module) if not n.startswith("_")]
    names += EXTRA_BOUNDARIES.get(layer, ())
    for name in names:
        obj = getattr(module, name)
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, name, f"{layer}.{name}", obj, None
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for attr, raw in vars(obj).items():
                if attr.startswith("_") and not (
                        attr == "__init__" and not dataclasses.is_dataclass(obj)):
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    yield obj, attr, f"{layer}.{name}.{attr}", raw.__func__, type(raw)
                elif inspect.isfunction(raw):
                    yield obj, attr, f"{layer}.{name}.{attr}", raw, None


class Tracer:
    """Records spans of wrapped tailsgd calls; one instance per traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        work = _WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, None)
            if work is not None:
                spans[idx] = (name, t0, t1, parent, work(args, kwargs, result))
            return result

        return wrapper

    def open(self, name, work=None) -> int:
        idx = len(self.spans)
        self.spans.append((name, perf_counter(), None, self._stack[-1] if self._stack else -1, work))
        self._stack.append(idx)
        return idx

    def close(self, idx):
        name, t0, _, parent, work = self.spans[idx]
        self.spans[idx] = (name, t0, perf_counter(), parent, work)
        self._stack.remove(idx)

    def _pool_class(self):
        tracer = self

        class TracedPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._bench_span = tracer.open(POOL_SPAN, self._max_workers)

            def shutdown(self, *args, **kwargs):
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    if self._bench_span is not None:
                        tracer.close(self._bench_span)
                        self._bench_span = None

        return TracedPool

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced callable at each import site; restore on exit."""
        import tailsgd  # noqa: F401  (loads every module the CLI uses)
        import tailsgd.cli  # noqa: F401

        package = [m for n, m in sys.modules.items()
                   if m is not None and (n == "tailsgd" or n.startswith("tailsgd."))]
        replacement = {}
        try:
            for layer in TRACED_MODULES:
                module = sys.modules[f"tailsgd.{layer}"]
                for owner, attr, name, fn, rewrap in _public_callables(module):
                    wrapped = self._wrap(name, fn)
                    replacement[id(fn)] = wrapped
                    if owner is not module:  # a method: one patch on the class
                        self._set(owner, attr, rewrap(wrapped) if rewrap else wrapped)
            replacement[id(concurrent.futures.ProcessPoolExecutor)] = self._pool_class()
            for module in package:
                for attr, value in list(vars(module).items()):
                    new = replacement.get(id(value))
                    if new is not None:
                        self._set(module, attr, new)
            yield self
        finally:
            self.restore()

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._stack.clear()


def _children_time(spans):
    covered = defaultdict(float)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    return covered


def _outer(spans, names):
    """Indices of spans named in ``names`` with no ancestor named in ``names``."""
    out = []
    for i, span in enumerate(spans):
        if span[0] not in names:
            continue
        p = span[3]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            out.append(i)
    return out


def layer_metrics(spans, wall_s: float) -> dict:
    """Per-layer metrics of one traced CLI call whose wall time was ``wall_s``.

    Times are summed over outermost spans of the named functions, so a
    recursive or nested call is not counted twice.
    """
    # a pool never shut down leaves its span open: count it as empty
    spans = [s if s[2] is not None else (s[0], s[1], s[1], s[3], s[4]) for s in spans]
    names = {s[0] for s in spans}
    covered = _children_time(spans)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def time_of(*wanted):
        return sum(dur(i) for i in _outer(spans, set(wanted)))

    def count(name):
        return sum(1 for s in spans if s[0] == name)

    def work(name):
        return sum(s[4] or 0 for s in spans if s[0] == name)

    def self_time(name):
        return sum(dur(i) - covered[i] for i in _outer(spans, {name}))

    draw_s = time_of("distributions.SampleStream.draw")
    samples = work("distributions.SampleStream.draw")
    sgd_s = time_of("sgd.run_replicates")
    steps = work("sgd.run_replicates")
    cli_s = time_of("cli.main")
    cli_self = self_time("cli.main")
    return {
        "distributions.draw_s": draw_s,
        "distributions.samples_drawn": samples,
        "distributions.ns_per_sample": 1e9 * draw_s / samples if samples else 0.0,
        "distributions.stream_inits": count("distributions.SampleStream.__init__"),
        "distributions.stream_init_s": time_of("distributions.SampleStream.__init__"),
        "distributions.moments_s": time_of("distributions.exact_moments",
                                           "distributions.estimate_moments"),
        "sgd.calls": count("sgd.run_replicates"),
        "sgd.replicate_steps": steps,
        "sgd.self_s": self_time("sgd.run_replicates"),
        "sgd.ns_per_replicate_step": 1e9 * sgd_s / steps if steps else 0.0,
        "stationary.fixed_point_s": time_of("stationary.solve_stationary_fixed_point"),
        "stationary.fixed_point_iters": work("stationary.solve_stationary_fixed_point"),
        "stationary.direct_s": time_of("stationary.solve_stationary_direct"),
        "stationary.operator_applies": count("stationary.FourthMomentOperator.apply"),
        "stationary.covariance_steps": count("stationary.covariance_step"),
        "harness.pool_starts": count(POOL_SPAN),
        "harness.worker_processes": work(POOL_SPAN),
        "harness.pool_wait_s": time_of(POOL_SPAN),
        "harness.experiments": count("harness.run_experiment"),
        "harness.config_s": time_of("harness.config_from_dict", "harness.parse_sweep_config",
                                    "harness.parse_config"),
        "bounds.s": time_of(*(n for n in names if n.startswith("bounds."))),
        "cli.self_s": cli_self,
        "cli.emit_s": time_of("cli._emit", "cli._emit_json", "harness.sweep_csv"),
        # share of the call's wall time that the layers below the CLI entry cover
        "trace.coverage": (cli_s - cli_self) / wall_s,
    }


def write_spans(path, workload: str, seed: int, traces):
    """Write the spans of each traced call (``(wall_s, spans)`` pairs) as
    JSON; times are integer nanoseconds from the call's first span."""
    names: dict[str, int] = {}
    ops = []
    for wall, spans in traces:
        base = min((s[1] for s in spans), default=0.0)
        rows = [[names.setdefault(n, len(names)), round((t0 - base) * 1e9),
                 round((t1 - base) * 1e9), parent, work]
                for n, t0, t1, parent, work in spans]
        ops.append({"wall_s": wall, "spans": rows})
    doc = {"workload": workload, "seed": seed,
           "span_fields": ["name", "start_ns", "end_ns", "parent", "work"],
           "names": list(names), "ops": ops}
    with open(path, "w") as fh:
        json.dump(doc, fh)
