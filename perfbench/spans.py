"""Span tracing from outside the program: wrap public functions, time calls.

A span covers one call of a wrapped function. Spans nest along the call
stack; each records its parent span's name, and a span's self time is its
duration minus the durations of the spans it directly contains. Calls are
aggregated as they end, keyed by (name, tag), where the tag is whatever the
caller set as the current context (here the scheme being fitted), so a
run with hundreds of thousands of calls keeps a small table in memory.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.tag = ""
        self._stack = []  # frames: [name, time covered by child spans]
        self.self_s = defaultdict(float)  # (name, tag) -> seconds
        self.wall_s = defaultdict(float)  # (name, tag) -> seconds
        self.calls = Counter()  # (name, tag)
        self.parents = Counter()  # (parent name, name)
        self.counts = Counter()  # (counter name, tag) -> amount

    def wrap(self, name, fn, points=None, failure=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``points(args)`` adds to the ``name + ".points"`` counter per call;
        an exception of type ``failure`` adds one to ``name + ".failed"``.
        """
        stack, perf = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if failure is not None and isinstance(exc, failure):
                    self.counts[name + ".failed", self.tag] += 1
                raise
            finally:
                dur = perf() - t0
                stack.pop()
                key = (name, self.tag)
                self.wall_s[key] += dur
                self.self_s[key] += dur - frame[1]
                self.calls[key] += 1
                if points is not None:
                    self.counts[name + ".points", self.tag] += points(args)
                if parent is not None:
                    parent[1] += dur
                self.parents[parent[0] if parent else "", name] += 1

        return traced

    def table(self) -> list[dict]:
        """Every (name, tag) span aggregate, for the run report."""
        return [
            {"name": n, "tag": t, "calls": self.calls[n, t],
             "wall_s": self.wall_s[n, t], "self_s": self.self_s[n, t]}
            for n, t in sorted(self.calls)
        ]


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every ffep layer the benchmark drives.

    ``bench.run_experiment`` looks ``load_csv``, ``preprocess``, ``ep_run``
    and the reference solvers up in its own module namespace, and the engine
    does the same with ``approximate``, ``multiply``, ``divide`` and
    ``gate_update``. Replacing them there catches every call, including the
    multiplies of the per-visit product check.
    """
    from ffep import bench, engine, factors, schemes

    bench.load_csv = tracer.wrap("ingest.load_csv", bench.load_csv)
    bench.preprocess = tracer.wrap("ingest.preprocess", bench.preprocess)
    bench.reference_newton_logistic = tracer.wrap(
        "bench.newton", bench.reference_newton_logistic)
    bench.reference_powell = tracer.wrap("bench.powell", bench.reference_powell)
    bench.ep_run = tracer.wrap("engine.ep_run", bench.ep_run)
    engine.approximate = tracer.wrap(
        "schemes.approximate", engine.approximate, failure=schemes.SchemeFailure)
    engine.gate_update = tracer.wrap("engine.gate_update", engine.gate_update)
    engine.multiply = tracer.wrap("gaussian.multiply", engine.multiply)
    engine.divide = tracer.wrap("gaussian.divide", engine.divide)
    cls = factors.BoundFactor
    cls.log_value = tracer.wrap("factors.log_value", cls.log_value,
                                points=lambda args: 1)
    cls.log_value_many = tracer.wrap("factors.log_value_many", cls.log_value_many,
                                     points=lambda args: len(args[1]))
    cls.log_grad_hessdiag = tracer.wrap("factors.log_grad_hessdiag",
                                        cls.log_grad_hessdiag, points=lambda args: 1)
