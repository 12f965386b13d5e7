"""One fresh-process pass of ``ffep run``, timed end to end.

Usage: ``python3 sequence.py SPEC.json RESULT.json`` (``run.py`` writes the
spec and starts this script with ``src`` on ``PYTHONPATH``).

A pass imports ffep and calls ``bench.run_experiment`` once per invocation
of the workload, with ``timing_repetitions=1`` and otherwise the defaults
of ``ffep run``. Stage times and outputs come from thin wrappers on the
names ``bench`` calls (``Probe``). Correctness checks run after the clock
stops and land in the result's ``checks`` list, one line per failure. ffep
is imported inside the timed set-up, so nothing above the ``main`` call
may import it.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from collections import Counter
from pathlib import Path

from spans import Tracer, instrument
from workloads import LABEL, LABEL_MAP, WORKLOADS, feature_names

# a generated table must keep the logistic optimum this far from separable
MIN_REFERENCE_NATS_PER_EXAMPLE = 0.25
NEAR_REFERENCE = 0.01


def environment(ffep) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "ffep": ffep.__file__,
    }


class Probe:
    """Thin wrappers on the names ``bench.run_experiment`` calls.

    They record when set-up ends, the time spent in references, Powell's
    line searches and each ``ep_run``'s wall time, posterior and trace.
    With a tracer, the ``ep_run`` wrapper also tags the spans inside a fit
    with its scheme.
    """

    def __init__(self, bench, tracer: Tracer | None):
        self.setup_end = None
        self.fields = None
        self.reference_s = 0.0
        self.line_searches = {}  # loss -> Powell line searches
        self.fits = {}  # (loss, scheme) -> fit_s, posterior, trace
        load_csv, preprocess, ep_run = bench.load_csv, bench.preprocess, bench.ep_run
        compute_references, reference_powell = bench._compute_references, bench.reference_powell

        def probed_load_csv(*args, **kwargs):
            table = load_csv(*args, **kwargs)
            if self.fields is None:
                self.fields = int(table.columns.size + table.labels.size)
            return table

        def probed_preprocess(*args, **kwargs):
            dataset = preprocess(*args, **kwargs)
            if self.setup_end is None:
                self.setup_end = time.perf_counter()
            return dataset

        def probed_references(*args, **kwargs):
            t = time.perf_counter()
            try:
                return compute_references(*args, **kwargs)
            finally:
                self.reference_s += time.perf_counter() - t

        def probed_powell(dataset, loss, *args, **kwargs):
            result = reference_powell(dataset, loss, *args, **kwargs)
            self.line_searches[loss.name] = result.n_line_searches
            return result

        def probed_ep_run(cfg, dataset):
            if tracer is not None:
                tracer.tag = cfg.scheme.kind
            t = time.perf_counter()
            try:
                state, trace = ep_run(cfg, dataset)
            finally:
                if tracer is not None:
                    tracer.tag = ""
            self.fits[cfg.loss.name, cfg.scheme.kind] = {
                "fit_s": time.perf_counter() - t, "posterior": state.global_approx,
                "trace": trace}
            return state, trace

        bench.load_csv, bench.preprocess = probed_load_csv, probed_preprocess
        bench._compute_references = probed_references
        bench.reference_powell = probed_powell
        bench.ep_run = probed_ep_run


def run(spec: dict) -> dict:
    w = WORKLOADS[spec["workload"]]
    tracer = Tracer() if spec["trace"] else None

    t0 = time.perf_counter()
    import ffep
    from ffep import bench, ingest
    from ffep.losses import loss_from_name
    from ffep.schemes import scheme_from_name
    import_s = time.perf_counter() - t0

    if tracer is not None:
        instrument(tracer)
    probe = Probe(bench, tracer)
    if spec["csv"] is None:
        path, schema = ingest.bundled_synthetic_path(), ingest.bundled_synthetic_schema()
    else:
        path = spec["csv"]
        schema = ingest.ColumnSchema(label=LABEL, label_map=LABEL_MAP,
                                     numeric=feature_names(w.dim - 1))
    if spec["setup_only"]:
        bench.preprocess(bench.load_csv(path, schema), name=w.name)
        return {"setup_s": probe.setup_end - t0, "import_s": import_s,
                "env": environment(ffep), "fields": probe.fields}

    out_dirs = [Path(spec["out_dir"]) / str(i) for i in range(len(w.invocations))]
    manifests = [
        bench.run_experiment(bench.RunConfig(
            dataset_path=path, schema=schema,
            losses=tuple(loss_from_name(name) for name in w.losses),
            schemes=tuple(scheme_from_name(k) for k in inv.schemes),
            out_dir=out, dataset_name=w.name, batch_size=w.batch_size,
            n_sweeps=inv.sweeps, mode=inv.mode, cost_every=w.cost_every,
            timing_repetitions=1, with_references=inv.references))
        for inv, out in zip(w.invocations, out_dirs)
    ]
    run_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # checks and summaries, outside every timed region
    checks = []
    refs = {}
    for m in manifests:
        for name, ref in m["references"].items():
            refs[name] = {"cost": ref["cost"], "converged": ref["converged"],
                          "line_searches": probe.line_searches.get(name, 0)}
            if not ref["converged"]:
                checks.append(f"Powell reference for {name} did not converge")
    n_examples = manifests[0]["dataset"]["n_examples"]
    result = {"setup_s": probe.setup_end - t0, "import_s": import_s,
              "env": environment(ffep), "fields": probe.fields}
    if "logistic" in refs and spec["csv"] is not None:
        nats = refs["logistic"]["cost"] / n_examples
        result["reference_nats_per_example"] = nats
        if nats < MIN_REFERENCE_NATS_PER_EXAMPLE:
            checks.append(f"generated table is near-separable: {nats:.3f} nats/example")

    near = set(w.near_reference)
    runs = []
    for m, out in zip(manifests, out_dirs):
        for failure in m["failures"]:
            what = failure.get("stage") or f"{failure['loss']}/{failure['scheme']}"
            checks.append(f"{what}: {failure['error']}")
            if "scheme" in failure:
                runs.append({"loss": failure["loss"], "scheme": failure["scheme"],
                             "error": failure["error"]})
        for r in m["runs"]:
            what = f"{r['loss']}/{r['scheme']}"
            fit = probe.fits[r["loss"], r["scheme"]]
            trace, g = fit["trace"], fit["posterior"]
            expected = w.expected_visits(n_examples, r["scheme"])
            if trace.n_visits != expected:
                checks.append(f"{what}: {trace.n_visits} visits, expected {expected}")
            if not (g.is_finite() and g.is_proper):
                checks.append(f"{what}: final posterior is not finite and proper")
            with open(out / r["trace_file"]) as fh:
                lines = sum(1 for _ in fh)
            header = 1 if r["reference_cost"] is None else 2
            if lines != trace.n_visits + header:
                checks.append(f"{what}: trace file has {lines} lines for {trace.n_visits} visits")
            status = Counter(v.update_status for v in trace.records)
            rec = {"loss": r["loss"], "scheme": r["scheme"], "fit_s": fit["fit_s"],
                   "visits": trace.n_visits, "rejected": status["rejected"],
                   "scheme_failed": status["scheme_failed"],
                   "timed_s": trace.total_ms / 1000.0, "final_cost": r["final_cost"]}
            ref = refs.get(r["loss"], {}).get("cost")
            if ref is not None:
                rec["excess"] = (r["final_cost"] - ref) / ref
                if (r["loss"], r["scheme"]) in near and abs(rec["excess"]) > NEAR_REFERENCE:
                    checks.append(f"{what}: final cost {rec['excess']:+.4%} from the reference")
            runs.append(rec)

    result.update(reference_s=probe.reference_s, run_s=run_s, peak_rss_mb=peak_rss_mb,
                  refs=refs, runs=runs, checks=checks)
    if tracer is not None:
        result["spans"] = tracer.table()
        result["parents"] = [[p, n, c] for (p, n), c in sorted(tracer.parents.items())]
        result["counts"] = [[n, t, c] for (n, t), c in sorted(tracer.counts.items())]
    return result


def main(argv) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    result = run(spec)
    Path(argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
