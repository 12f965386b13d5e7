"""Reference solvers and the experiment harness around the EP engine.

The reference minimizers target the same objective EP carries implicitly:
total classification cost plus the Gaussian prior's quadratic term (theta^T
theta / (2 * variance) for a centered prior).  Logistic cost is minimized by
Newton's method; the piecewise-linear hinge and quasi 0-1 costs by Powell's
direction set, whose line searches are exact because the objective along a
line is piecewise quadratic.  Trace files instead report the
classification cost alone, which is how training curves are usually drawn;
manifests record both numbers so the two views can always be reconciled.

Outputs of run_experiment, all under the configured directory:

* one ``<dataset>_<loss>_<scheme>.trace.csv`` per run, header
  ``sweep,factor_index,update_status,total_cost,cumulative_ms`` (an optional
  leading ``# reference_cost=...`` comment carries the offline optimum);
* ``timing.csv`` with one row per run: median over repeated runs of the mean
  engine time per mini-batch visit, cost evaluations excluded;
* ``manifest.json`` describing every run, reference solution, and failure.
"""

from __future__ import annotations

import csv
import json
import statistics
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .engine import EpConfig, EpTrace, classification_costs, ep_run
from .factors import PriorFactor
from .ingest import ColumnSchema, Dataset, load_csv, preprocess
from .losses import LossKind, loss_derivatives, loss_kinks
from .schemes import SchemeKind

__all__ = [
    "RunConfig",
    "TimingRow",
    "PowellResult",
    "total_cost",
    "reference_newton_logistic",
    "reference_powell",
    "run_experiment",
    "write_trace",
]

_NEWTON_GRAD_TOL = 1e-8
_NEWTON_MAX_ITER = 200
_POWELL_REL_TOL = 1e-8
_POWELL_BUDGET_PER_DIM = 100


def _prior_quadratic(prior: PriorFactor, theta: np.ndarray) -> float:
    mean = prior.mean if prior.mean is not None else 0.0
    diff = theta - mean
    return 0.5 * float(np.sum(diff * diff)) / prior.variance


def total_cost(theta, dataset: Dataset, loss: LossKind,
               prior: PriorFactor | None = None) -> float:
    """Summed loss over the whole dataset; prior term only when one is passed."""
    theta = np.asarray(theta, dtype=float)
    cost = float(classification_costs(theta[None, :], dataset, loss)[0])
    if prior is not None:
        cost += _prior_quadratic(prior, theta)
    return cost


def reference_newton_logistic(dataset: Dataset,
                              prior: PriorFactor | None = None) -> np.ndarray:
    """Full-Hessian Newton minimizer of logistic cost plus the prior term.

    The prior's precision doubles as the Hessian's diagonal regularizer, so
    the Newton system is positive definite throughout.  Converges to
    gradient sup-norm 1e-8 or raises.
    """
    prior = prior or PriorFactor()
    mean = np.zeros(dataset.dim) if prior.mean is None else np.asarray(prior.mean, float)
    z = dataset.labels[:, None] * dataset.features
    theta = mean.copy()
    logistic = LossKind("logistic")

    def objective(t):
        return float(np.sum(np.logaddexp(0.0, -(z @ t)))) + _prior_quadratic(prior, t)

    for _ in range(_NEWTON_MAX_ITER):
        d1, w = loss_derivatives(logistic, z @ theta)
        grad = z.T @ d1 + (theta - mean) / prior.variance
        if np.max(np.abs(grad)) <= _NEWTON_GRAD_TOL:
            return theta
        hess = z.T @ (w[:, None] * z) + np.eye(dataset.dim) / prior.variance
        chol = np.linalg.cholesky(hess)  # raises LinAlgError unless positive definite
        step = np.linalg.solve(chol.T, np.linalg.solve(chol, -grad))
        f0 = objective(theta)
        t = 1.0
        while t > 1e-12 and objective(theta + t * step) > f0:
            t *= 0.5
        theta = theta + t * step
    raise RuntimeError("logistic Newton did not reach the gradient tolerance")


@dataclass(frozen=True)
class PowellResult:
    theta: np.ndarray
    cost: float  # objective value including the prior term
    converged: bool  # False when the line-search budget ran out
    n_line_searches: int


def _line_minimize(objective, Z, kinks, prior: PriorFactor, theta, direction, f0):
    """Exact minimization of t -> objective(theta + t*direction); never moves uphill.

    The margins along the line are a + t*b, with a = Z theta and b = Z
    direction, so the loss sum is piecewise linear in t: where margin k
    crosses a kink, at t = (kink - a_k) / b_k, its slope jumps by jump * |b_k|.
    The prior adds c1*t + c2*t^2 with c2 > 0, so the minimum is the best of
    the segments' vertices, each clipped to its segment.  That point is kept
    only when ``objective`` there is below ``f0``.
    """
    left_slope, kink_at, jumps = kinks
    a, b = Z @ theta, Z @ direction
    a, b = a[b != 0], b[b != 0]
    breaks = ((kink_at[:, None] - a) / b).ravel()
    order = np.argsort(breaks)
    breaks = breaks[order]
    mean = 0.0 if prior.mean is None else prior.mean
    c1 = float((theta - mean) @ direction) / prior.variance
    c2 = float(direction @ direction) / (2.0 * prior.variance)
    # slopes[j] is the slope of the loss sum plus c1*t between breaks[j-1] and
    # breaks[j].  Left of every breakpoint, margins with b > 0 lie left of
    # every kink and those with b < 0 right of every kink.
    far_left = left_slope * b.sum() + jumps.sum() * b[b < 0].sum()
    slopes = np.cumsum(np.concatenate(
        ([c1 + far_left], (jumps[:, None] * np.abs(b)).ravel()[order])))
    # The linear part's change from t = 0 to each breakpoint, summed outward
    # from the segment holding 0 so that far breakpoints add no rounding near it.
    k0 = int(np.searchsorted(breaks, 0.0))
    right = np.cumsum(slopes[k0:-1] * np.diff(breaks[k0:], prepend=0.0))
    left = np.cumsum(slopes[k0:0:-1] * np.diff(breaks[:k0][::-1], prepend=0.0))[::-1]
    edges = np.concatenate(([-np.inf], breaks, [np.inf]))
    t = np.clip(-slopes / (2.0 * c2), edges[:-1], edges[1:])
    change = (np.concatenate((left, [0.0], right))
              + slopes * (t - np.insert(breaks, k0, 0.0)) + c2 * t * t)
    best = int(np.argmin(change))
    if change[best] < 0.0:
        moved = theta + float(t[best]) * direction
        f = objective(moved)
        if f < f0:
            return moved, f
    return theta, f0


def reference_powell(dataset: Dataset, loss: LossKind, theta_init,
                     prior: PriorFactor | None = None) -> PowellResult:
    """Powell direction-set minimization of total cost plus the prior term.

    Serves the piecewise-linear losses, hinge and quasi 0-1, and raises
    ValueError on the smooth logistic one.  Each line is minimized exactly
    (its global minimum, also on the nonconvex quasi 0-1 loss); by
    convention ``theta_init`` is the logistic Newton solution.  Stops when a
    full cycle changes the cost by less than 1e-8 relative, or after 100*d
    line searches (returning the best point found, flagged as unconverged).
    """
    kinks = loss_kinks(loss)
    if kinks is None:
        raise ValueError(f"Powell needs a piecewise-linear loss, not {loss.name}")
    prior = prior or PriorFactor()
    Z = dataset.labels[:, None] * dataset.features

    def objective(t):
        return total_cost(t, dataset, loss, prior)

    theta = np.asarray(theta_init, dtype=float).copy()
    d = theta.size
    dirs = [np.eye(d)[i].copy() for i in range(d)]
    f0 = objective(theta)
    budget = _POWELL_BUDGET_PER_DIM * d
    n_ls = 0

    while n_ls < budget:
        theta_start, f_start = theta.copy(), f0
        biggest_drop, drop_index = 0.0, -1
        for i, u in enumerate(dirs):
            f_before = f0
            theta, f0 = _line_minimize(objective, Z, kinks, prior, theta, u, f0)
            n_ls += 1
            if f_before - f0 > biggest_drop:
                biggest_drop, drop_index = f_before - f0, i
            if n_ls >= budget:
                break
        if abs(f_start - f0) <= _POWELL_REL_TOL * max(1.0, abs(f_start)):
            return PowellResult(theta, f0, True, n_ls)
        # Powell's replacement rule: try the cycle's composite direction and,
        # when the extrapolation test passes, retire the direction that
        # contributed the largest single decrease.
        composite = theta - theta_start
        if drop_index >= 0 and float(np.linalg.norm(composite)) > 0 and n_ls < budget:
            f_extrap = objective(2.0 * theta - theta_start)
            if f_extrap < f_start:
                df = f_start - f0
                test = (
                    2.0 * (f_start - 2.0 * f0 + f_extrap) * (df - biggest_drop) ** 2
                    - biggest_drop * (f_start - f_extrap) ** 2
                )
                if test < 0.0:
                    theta, f0 = _line_minimize(objective, Z, kinks, prior, theta, composite, f0)
                    n_ls += 1
                    dirs[drop_index] = dirs[-1]
                    dirs[-1] = composite
    return PowellResult(theta, f0, False, n_ls)


# ---------------------------------------------------------------------------
# Experiment harness
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    """One experiment: a dataset crossed with losses and schemes."""

    dataset_path: str | Path
    schema: ColumnSchema
    losses: tuple[LossKind, ...]
    schemes: tuple[SchemeKind, ...]
    out_dir: str | Path
    dataset_name: str = "dataset"
    batch_size: int = 10
    n_sweeps: int | None = None
    mode: str = "looping"
    beta: float = 1.0
    prior: PriorFactor = field(default_factory=PriorFactor)
    cost_every: int = 1
    timing_repetitions: int = 3
    with_references: bool = True

    def __post_init__(self):
        if not self.losses:
            raise ValueError("at least one loss is required")
        if not self.schemes:
            raise ValueError("at least one scheme is required")
        if self.timing_repetitions < 1:
            raise ValueError("timing_repetitions must be at least 1")


@dataclass(frozen=True)
class TimingRow:
    dataset: str
    n_examples: int
    dim: int
    batch_size: int
    loss: str
    scheme: str
    mean_ms_per_minibatch: float

    def __post_init__(self):
        if not self.mean_ms_per_minibatch > 0:
            raise ValueError("per-mini-batch time must be positive")


def write_trace(path, trace: EpTrace, reference_cost: float | None = None):
    """Emit one trace file; a leading comment line carries the reference cost."""
    with open(path, "w", newline="") as fh:
        if reference_cost is not None:
            fh.write(f"# reference_cost={reference_cost:.12g}\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["sweep", "factor_index", "update_status", "total_cost", "cumulative_ms"]
        )
        for r in trace.records:
            writer.writerow(
                [r.sweep, r.factor_index, r.update_status,
                 f"{r.total_cost:.12g}", f"{r.cumulative_ms:.6f}"]
            )


def _write_timing(path, rows: list[TimingRow]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["dataset", "N", "d", "s", "loss", "scheme", "mean_ms_per_minibatch"]
        )
        for r in rows:
            writer.writerow(
                [r.dataset, r.n_examples, r.dim, r.batch_size, r.loss, r.scheme,
                 f"{r.mean_ms_per_minibatch:.6f}"]
            )


def _compute_references(dataset: Dataset, losses, prior: PriorFactor):
    """Offline minimizers per loss: Newton for logistic, Powell from it otherwise."""
    refs = {}
    theta_log = reference_newton_logistic(dataset, prior)
    for loss in losses:
        if loss.name == "logistic":
            theta, converged = theta_log, True
        else:
            result = reference_powell(dataset, loss, theta_log, prior)
            theta, converged = result.theta, result.converged
        refs[loss.name] = {
            "theta": [float(v) for v in theta],
            "cost": total_cost(theta, dataset, loss),
            "cost_with_prior": total_cost(theta, dataset, loss, prior),
            "converged": converged,
        }
    return refs


def run_experiment(config: RunConfig) -> dict:
    """Execute every (loss, scheme) run, write traces/timings, return the manifest."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    table = load_csv(config.dataset_path, config.schema)
    dataset = preprocess(table, name=config.dataset_name)

    manifest = {
        "dataset": {
            "name": config.dataset_name,
            "path": str(config.dataset_path),
            "n_examples": dataset.n_examples,
            "dim": dataset.dim,
            "n_rows_dropped": table.n_dropped,
        },
        "protocol": {
            "batch_size": config.batch_size,
            "mode": config.mode,
            "beta": config.beta,
            "prior_variance": config.prior.variance,
            "timing_repetitions": config.timing_repetitions,
        },
        "references": {},
        "runs": [],
        "failures": [],
        "timing_table": "timing.csv",
    }

    if config.with_references:
        try:
            manifest["references"] = _compute_references(
                dataset, config.losses, config.prior
            )
        except RuntimeError as exc:
            manifest["failures"].append({"stage": "reference", "error": str(exc)})

    timing_rows = []
    for loss in config.losses:
        for scheme in config.schemes:
            trace_name = f"{config.dataset_name}_{loss.name}_{scheme.kind}.trace.csv"
            try:
                ep_config = EpConfig(
                    scheme=scheme,
                    loss=loss,
                    beta=config.beta,
                    batch_size=config.batch_size,
                    n_sweeps=config.n_sweeps,
                    mode=config.mode,
                    prior=config.prior,
                    cost_every=config.cost_every,
                )
                per_batch_ms = []
                state = trace = None
                for _ in range(config.timing_repetitions):
                    run_state, run_trace = ep_run(ep_config, dataset)
                    per_batch_ms.append(run_trace.total_ms / run_trace.n_visits)
                    if state is None:
                        state, trace = run_state, run_trace
                ref = manifest["references"].get(loss.name)
                write_trace(
                    out / trace_name, trace,
                    reference_cost=None if ref is None else ref["cost"],
                )
                final_cost = total_cost(state.global_approx.mean, dataset, loss)
                statuses = [r.update_status for r in trace.records]
                timing_rows.append(
                    TimingRow(
                        config.dataset_name, dataset.n_examples, dataset.dim,
                        config.batch_size, loss.name, scheme.kind,
                        statistics.median(per_batch_ms),
                    )
                )
                manifest["runs"].append(
                    {
                        "loss": loss.name,
                        "scheme": scheme.kind,
                        "trace_file": trace_name,
                        "final_cost": final_cost,
                        "final_cost_with_prior": total_cost(
                            state.global_approx.mean, dataset, loss, config.prior
                        ),
                        "reference_cost": None if ref is None else ref["cost"],
                        "rejected_updates": state.rejected_updates,
                        "scheme_failures": statuses.count("scheme_failed"),
                        "mean_ms_per_minibatch": statistics.median(per_batch_ms),
                        "sweeps": [asdict(rec) for rec in trace.sweeps],
                    }
                )
            except Exception as exc:
                manifest["failures"].append(
                    {"loss": loss.name, "scheme": scheme.kind, "error": str(exc)}
                )

    _write_timing(out / "timing.csv", timing_rows)
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest
