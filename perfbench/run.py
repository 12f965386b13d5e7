"""ffep benchmark: three workloads, timed end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {paper306,wide_loop,stream} \
        --seed N --seconds S --trace {0,1}

The generated tables come from a fixed seed (see workloads.py) and
``paper306`` uses the bundled table, so ``--seed`` changes no input; it is
recorded with the environment. Every pass of the ``ffep run`` sequence runs
in a fresh process (``sequence.py``), so import cost and peak memory belong
to that workload alone; passes repeat until ``--seconds`` is spent (at
least ``MIN_PASSES``) and each metric is the median over passes.

``--trace 0`` prints the end-to-end metrics; a set-up-only pass follows
each full pass, so ``setup_s`` has twice the samples. ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics, including
what the tracing itself costs. The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` (``ep_run`` calls
made and failed) and ``metrics``. A failed correctness check prints
``"correct": false`` with no metrics and exits 1. Without ffep's sources
under ``src/`` the benchmark prints no result and exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SCHEMES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_PASSES = 3  # untraced full passes per run
RUN_LIMIT_S = 165.0  # start no process that could end past this
# one BLAS thread: on two cores, two OpenBLAS threads make vq's small d=100
# Cholesky solves an order of magnitude slower and the timings erratic
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "setup_s": "s", "reference_s": "s",
    **{f"fit_s.{k}": "s" for k in SCHEMES},
    "run_s": "s", "visit_fail_frac": "ratio",
    **{f"cost_ratio.{k}": "ratio" for k in SCHEMES},
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts sequence.py passes, each in a fresh process, within the run's time limit."""

    def __init__(self, workload, csv, work: Path):
        self.workload, self.csv, self.work = workload, csv, work
        self.start = time.monotonic()
        self.n = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def fits(self, estimate: float, budget: float) -> bool:
        return self.elapsed() + estimate <= min(budget, RUN_LIMIT_S)

    def pass_(self, trace: bool = False, setup_only: bool = False) -> dict:
        self.n += 1
        spec_path = self.work / f"spec{self.n}.json"
        result_path = self.work / f"result{self.n}.json"
        out_dir = self.work / f"traces{self.n}"
        out_dir.mkdir()
        spec_path.write_text(json.dumps({
            "workload": self.workload.name, "csv": self.csv, "trace": trace,
            "setup_only": setup_only, "out_dir": str(out_dir)}))
        env = dict(os.environ, **CHILD_ENV)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        timeout = RUN_LIMIT_S + 10.0 - self.elapsed()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "sequence.py"), str(spec_path), str(result_path)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"pass {self.n} did not finish within {timeout:.0f} s")
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if proc.returncode != 0:
            raise BenchError(f"pass {self.n} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        result = json.loads(result_path.read_text())
        ffep_file = Path(result["env"]["ffep"]).resolve()
        if SRC.resolve() not in ffep_file.parents:
            raise BenchError(f"pass {self.n} imported ffep from {ffep_file}, not {SRC}")
        return result


def _median(values) -> float:
    return float(statistics.median(values))


def _by_scheme(result: dict, key: str, k: str) -> float:
    return sum(r[key] for r in result["runs"] if r["scheme"] == k)


def _outcome(result: dict) -> list:
    """What must repeat exactly between passes over the same inputs."""
    return [(r["loss"], r["scheme"], r.get("visits"), r.get("rejected"),
             r.get("scheme_failed"), r.get("final_cost")) for r in result["runs"]]


def _logistic_excess(result: dict, k: str) -> float:
    return next(r["excess"] for r in result["runs"]
                if r["scheme"] == k and r["loss"] == "logistic")


def end_to_end(full: list, setup_samples: list) -> dict:
    first = full[0]
    visits = sum(r["visits"] for r in first["runs"])
    failed = sum(r["rejected"] + r["scheme_failed"] for r in first["runs"])
    m = {
        "setup_s": _median(setup_samples),
        "reference_s": _median(r["reference_s"] for r in full),
        **{f"fit_s.{k}": _median(_by_scheme(r, "fit_s", k) for r in full) for k in SCHEMES},
        "run_s": _median(r["run_s"] for r in full),
        "visit_fail_frac": failed / visits,
        **{f"cost_ratio.{k}": 1.0 + _logistic_excess(first, k) for k in SCHEMES},
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in full),
    }
    return {name: {"value": m[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def _span_index(result: dict):
    self_s, calls = {}, {}
    for s in result["spans"]:
        self_s[s["name"], s["tag"]] = s["self_s"]
        calls[s["name"], s["tag"]] = s["calls"]
    counts = {(n, t): c for n, t, c in result["counts"]}
    return self_s, calls, counts


FACTOR_SPANS = ("factors.log_value", "factors.log_value_many", "factors.log_grad_hessdiag")
ALGEBRA_SPANS = ("gaussian.multiply", "gaussian.divide")


def layer_values(traced: dict) -> dict:
    """Per-layer numbers of one traced pass, as (value, unit) pairs."""
    self_s, calls, counts = _span_index(traced)

    def st(names, tag=""):
        return sum(self_s.get((n, tag), 0.0) for n in names)

    def ct(table, names, tag=""):
        return sum(table.get((n, tag), 0) for n in names)

    refs = traced["refs"].values()
    v = {
        "ingest.load_csv_s": (st(["ingest.load_csv"]), "s"),
        "ingest.preprocess_s": (st(["ingest.preprocess"]), "s"),
        "ingest.fields": (traced["fields"], "count"),
        "bench.newton_s": (st(["bench.newton"]), "s"),
        "bench.powell_s": (st(["bench.powell"]), "s"),
        "bench.powell_line_searches": (sum(r["line_searches"] for r in refs), "count"),
        "bench.powell_unconverged": (sum(not r["converged"] for r in refs), "count"),
    }
    for k in SCHEMES:
        v[f"factors.eval_s.{k}"] = (st(FACTOR_SPANS, k), "s")
        v[f"factors.points.{k}"] = (ct(counts, [n + ".points" for n in FACTOR_SPANS], k), "count")
        v[f"schemes.fit_s.{k}"] = (st(["schemes.approximate"], k), "s")
        v[f"schemes.calls.{k}"] = (ct(calls, ["schemes.approximate"], k), "count")
        v[f"schemes.failed.{k}"] = (ct(counts, ["schemes.approximate.failed"], k), "count")
        v[f"gaussian.algebra_s.{k}"] = (st(ALGEBRA_SPANS, k), "s")
        v[f"gaussian.calls.{k}"] = (ct(calls, ALGEBRA_SPANS, k), "count")
        v[f"engine.self_s.{k}"] = (st(["engine.ep_run"], k), "s")
        v[f"engine.gate_s.{k}"] = (st(["engine.gate_update"], k), "s")
        v[f"engine.rejected.{k}"] = (_by_scheme(traced, "rejected", k), "count")
    return v


def per_layer(untraced: list, traced: list) -> dict:
    per_pass = [layer_values(t) for t in traced]
    m = {name: {"value": _median(p[name][0] for p in per_pass), "unit": unit}
         for name, (_, unit) in per_pass[0].items()}
    first = untraced[0]
    for k in SCHEMES:
        m[f"engine.timed_ms_per_visit.{k}"] = {"value": _median(
            1000.0 * _by_scheme(r, "timed_s", k) / _by_scheme(r, "visits", k)
            for r in untraced), "unit": "ms"}
        m[f"engine.outside_timed_s.{k}"] = {"value": _median(
            _by_scheme(r, "fit_s", k) - _by_scheme(r, "timed_s", k) for r in untraced),
            "unit": "s"}
        excess = {r["loss"]: r["excess"] for r in first["runs"] if r["scheme"] == k}
        m[f"engine.cost_excess.logistic.{k}"] = {"value": _logistic_excess(first, k),
                                                 "unit": "ratio"}
        m[f"engine.cost_excess.max.{k}"] = {"value": max(excess.values()), "unit": "ratio"}
    m["trace.overhead_frac"] = {
        "value": _median(r["run_s"] for r in traced) / _median(r["run_s"] for r in untraced) - 1.0,
        "unit": "ratio"}
    return m


def layer_shares(traced: dict) -> list[tuple[str, float]]:
    """Self time per module in one traced pass.

    ``import`` is the time ``import ffep`` takes; ``unwrapped`` is the
    rest: final costs, reference costs, trace, timing and manifest writes.
    """
    total = {}
    for s in traced["spans"]:
        module = s["name"].split(".")[0]
        total[module] = total.get(module, 0.0) + s["self_s"]
    total["import"] = traced["import_s"]
    total["unwrapped"] = traced["run_s"] - sum(total.values())
    return sorted(total.items(), key=lambda kv: -kv[1])


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def measure(args, runner: Runner) -> tuple[list, list]:
    """Run the passes of one benchmark run.

    Untraced: (full passes, set-up-only passes). Traced: (untraced passes,
    traced passes). The two kinds alternate, so both see the same machine
    conditions.
    """
    budget = float(args.seconds)
    first, second, last = [], [], 0.0
    min_passes = 1 if args.trace else MIN_PASSES
    while len(first) < min_passes or runner.fits(last, budget):
        t = runner.elapsed()
        first.append(runner.pass_())
        second.append(runner.pass_(trace=True) if args.trace else runner.pass_(setup_only=True))
        last = runner.elapsed() - t
    return first, second


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ffep" / "__init__.py").is_file():
        print(f"perfbench: no ffep sources under {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    work = WORK / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    csv = None
    if w.n_examples is not None:
        from gen import write_table
        from workloads import TABLE_SEED

        csv = str(work / "table.csv")
        write_table(csv, w.n_examples, w.dim, TABLE_SEED)

    runner = Runner(w, csv, work)
    try:
        first, second = measure(args, runner)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        if csv is not None:
            os.remove(csv)

    passes = first + second if args.trace else first
    checks = [c for r in passes for c in r["checks"]]
    if any(_outcome(r) != _outcome(passes[0]) for r in passes):
        checks.append("passes over the same inputs gave different visit outcomes or costs")
    correct = not checks
    metrics = {}
    if correct:
        metrics = per_layer(first, second) if args.trace else end_to_end(
            first, [r["setup_s"] for r in first + second])
    attempted = sum(len(r["runs"]) for r in passes)
    failed = sum("error" in run for r in passes for run in r["runs"])

    env = dict(passes[0]["env"], commit=git_commit(), seed=args.seed, workload=w.name,
               passes=len(passes), setup_only_passes=0 if args.trace else len(second))
    report = {"env": env, "metrics": metrics, "checks": checks, "passes": first + second}
    (work / "report.json").write_text(json.dumps(report, indent=1))

    for key, value in env.items():
        print(f"env {key}: {value}")
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    if args.trace and correct:
        traced = second[0]
        print(f"self time per module, first traced pass (run_s {traced['run_s']:.3f} s):")
        for module, sec in layer_shares(traced):
            print(f"  {module:10s} {sec:8.3f} s {sec / traced['run_s']:7.1%}")
    for line in checks:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
