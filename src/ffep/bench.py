"""Reference solvers and the experiment harness around the EP engine.

The reference minimizers target the same objective EP carries implicitly:
total classification cost plus the zero-mean Gaussian prior's quadratic
term theta^T theta / (2 * variance).  Logistic cost is minimized by
Newton's method.  Hinge cost is minimized exactly through its dual, the box
QP ``la`` solves per hinge batch, and the duality gap certifies the answer.
The nonconvex quasi 0-1 cost is minimized by Powell's direction set, whose
line searches are exact because the objective along a line is piecewise
quadratic (``schemes._line_minimize``, which ``la`` also uses).  Trace
files instead report the classification cost alone, which is how training
curves are usually drawn; manifests record both numbers so the two views
can always be reconciled.

Outputs of run_experiment, all under the configured directory:

* one ``<dataset>_<loss>_<scheme>.trace.csv`` per run, header
  ``sweep,factor_index,update_status,total_cost,cumulative_ms`` (an optional
  leading ``# reference_cost=...`` comment carries the offline optimum);
* ``timing.csv`` with one row per run: median over repeated runs of the mean
  engine time per computed, not repeated, mini-batch visit
  (``EpTrace.ms_per_computed_visit``), cost evaluations excluded;
* ``manifest.json`` describing every run, reference solution, and failure.
"""

from __future__ import annotations

import csv
import json
import statistics
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .engine import EpConfig, EpTrace, classification_costs, ep_run
from .factors import PriorFactor
from .ingest import ColumnSchema, DataLoadError, Dataset, load_csv, preprocess
from .losses import LossKind, loss_derivatives, loss_kinks
from .schemes import SchemeKind, _box_qp, _line_minimize, _require_integer

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

# the columns of timing.csv, which ``ffep report`` merges
_TIMING_COLUMNS = ("dataset", "N", "d", "s", "loss", "scheme", "mean_ms_per_minibatch")
_NEWTON_GRAD_TOL = 1e-8
_NEWTON_MAX_ITER = 200
_POWELL_REL_TOL = 1e-8
_POWELL_BUDGET_PER_DIM = 100
_HINGE_GAP_RTOL = 1e-12


def total_cost(theta, dataset: Dataset, loss: LossKind,
               prior: PriorFactor | None = None) -> float:
    """Summed loss over the whole dataset; prior term only when one is passed."""
    theta = np.asarray(theta, dtype=float)
    cost = float(classification_costs(theta[None, :], dataset, loss)[0])
    if prior is not None:
        cost += _prior_term(theta, prior)
    return cost


def _prior_term(theta: np.ndarray, prior: PriorFactor) -> float:
    """The prior's quadratic term theta^T theta / (2 * variance)."""
    return 0.5 * float(np.sum(theta * theta)) / prior.variance


def reference_newton_logistic(dataset: Dataset,
                              prior: PriorFactor | None = None) -> np.ndarray:
    """Full-Hessian Newton minimizer of logistic cost plus the prior term.

    The prior's precision doubles as the Hessian's diagonal regularizer, so
    the Newton system is positive definite throughout.  Converges to
    gradient sup-norm 1e-8 or raises.
    """
    prior = prior or PriorFactor()
    z = dataset.signed_rows
    theta = np.zeros(dataset.dim)
    logistic = LossKind("logistic")
    for _ in range(_NEWTON_MAX_ITER):
        d1, w = loss_derivatives(logistic, z @ theta)
        grad = z.T @ d1 + theta / prior.variance
        if np.max(np.abs(grad)) <= _NEWTON_GRAD_TOL:
            return theta
        hess = z.T @ (w[:, None] * z) + np.eye(dataset.dim) / prior.variance
        chol = np.linalg.cholesky(hess)  # raises LinAlgError unless positive definite
        step = np.linalg.solve(chol.T, np.linalg.solve(chol, -grad))
        f0 = total_cost(theta, dataset, logistic, prior)
        t = 1.0
        while t > 1e-12 and total_cost(theta + t * step, dataset, logistic, prior) > f0:
            t *= 0.5
        theta = theta + t * step
    raise RuntimeError("logistic Newton did not reach the gradient tolerance")


@dataclass(frozen=True)
class PowellResult:
    theta: np.ndarray
    cost: float  # objective value including the prior term
    converged: bool  # False when the line-search budget ran out
    n_line_searches: int


def reference_powell(dataset: Dataset, loss: LossKind, theta_init,
                     prior: PriorFactor | None = None) -> PowellResult:
    """Powell direction-set minimization of total cost plus the prior term.

    Serves any piecewise-linear loss, hinge and quasi 0-1, and raises
    ValueError on the smooth logistic one; the references take it for
    quasi 0-1, whose cost is nonconvex, and solve hinge exactly instead
    (``_compute_references``).  Each line is minimized exactly
    (its global minimum, also on the nonconvex quasi 0-1 loss); by
    convention ``theta_init`` is the logistic Newton solution.  Stops when a
    full cycle changes the cost by less than 1e-8 relative, or after 100*d
    line searches (returning the best point found, flagged as unconverged).
    """
    kinks = loss_kinks(loss)
    if kinks is None:
        raise ValueError(f"Powell needs a piecewise-linear loss, not {loss.name}")
    prior = prior or PriorFactor()
    Z = dataset.signed_rows

    def objective(t):
        return total_cost(t, dataset, loss, prior)

    def line_minimize(theta, direction, f0):
        # the prior term changes by c1*t + c2*t^2 along the line
        c1 = float(theta @ direction) / prior.variance
        c2 = float(direction @ direction) / (2.0 * prior.variance)
        return _line_minimize(objective, Z, kinks, theta, Z @ theta, direction, f0, c1, c2, 1.0)

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
            theta, f0 = line_minimize(theta, u, f0)
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
                    theta, f0 = line_minimize(theta, composite, f0)
                    n_ls += 1
                    dirs[drop_index] = dirs[-1]
                    dirs[-1] = composite
    return PowellResult(theta, f0, False, n_ls)


# ---------------------------------------------------------------------------
# Experiment harness
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    """One experiment: a dataset crossed with losses and schemes.

    ``timing_repetitions`` is an integer and ``with_references`` a bool;
    the EP protocol fields take EpConfig's defaults and checks.
    """

    dataset_path: str | Path
    schema: ColumnSchema
    losses: tuple[LossKind, ...]
    schemes: tuple[SchemeKind, ...]
    out_dir: str | Path
    dataset_name: str = "dataset"
    batch_size: int = EpConfig.batch_size
    n_sweeps: int | None = EpConfig.n_sweeps
    mode: str = EpConfig.mode
    beta: float = EpConfig.beta
    prior: PriorFactor = field(default_factory=PriorFactor)
    cost_every: int = EpConfig.cost_every
    timing_repetitions: int = 3
    with_references: bool = True
    # every run's EP protocol, validated here; each run swaps in its loss and scheme
    ep_config: EpConfig = field(init=False, repr=False)

    def __post_init__(self):
        if not self.losses:
            raise ValueError("at least one loss is required")
        if not self.schemes:
            raise ValueError("at least one scheme is required")
        _require_integer("timing_repetitions", self.timing_repetitions)
        if self.timing_repetitions < 1:
            raise ValueError("timing_repetitions must be at least 1")
        if not isinstance(self.with_references, bool):
            raise ValueError(f"with_references must be a bool, not {self.with_references!r}")
        self.ep_config = EpConfig(
            scheme=self.schemes[0],
            loss=self.losses[0],
            beta=self.beta,
            batch_size=self.batch_size,
            n_sweeps=self.n_sweeps,
            mode=self.mode,
            prior=self.prior,
            cost_every=self.cost_every,
        )


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
        writer.writerow(_TIMING_COLUMNS)
        for r in rows:
            writer.writerow(
                [r.dataset, r.n_examples, r.dim, r.batch_size, r.loss, r.scheme,
                 f"{r.mean_ms_per_minibatch:.6f}"]
            )


def _compute_references(dataset: Dataset, losses, prior: PriorFactor):
    """Offline minimizers per loss, each started from the logistic Newton solution.

    Logistic is Newton's own answer and quasi 0-1 is Powell's.  Hinge is
    solved exactly through its dual, the linear SVM's: with Z the rows
    y_k x_k and v the prior variance, alpha* minimizes
    1/2 alpha.(v Z Z^T).alpha - sum alpha over [0, 1]^N (``_box_qp``, the
    QP ``la`` solves per hinge batch with the prior as cavity and beta = 1),
    started at the rows whose logistic margin is below 1, and
    theta* = v Z^T alpha*.  Its ``duality_gap`` is the relative gap
    (P(theta*) - D(alpha*)) / P(theta*), P being hinge cost plus the prior
    term and D(alpha) = sum alpha - |v Z^T alpha|^2 / (2 v), and it counts as
    converged at a gap of at most 1e-12.  The other losses carry no gap.
    """
    refs = {}
    theta_log = reference_newton_logistic(dataset, prior)
    for loss in losses:
        dual = gap = None
        if loss.name == "logistic":
            theta, converged = theta_log, True
        elif loss.name == "hinge":
            Z = dataset.signed_rows
            var = prior.variance
            alpha = _box_qp(var * Z, Z, np.ones(dataset.n_examples), 1.0, Z @ theta_log < 1.0)
            theta = var * (alpha @ Z)
            dual = float(alpha.sum() - 0.5 * (theta @ theta) / var)
        else:
            result = reference_powell(dataset, loss, theta_log, prior)
            theta, converged = result.theta, result.converged
        cost = total_cost(theta, dataset, loss)
        cost_with_prior = cost + _prior_term(theta, prior)
        if dual is not None:
            gap = (cost_with_prior - dual) / cost_with_prior
            converged = gap <= _HINGE_GAP_RTOL
        refs[loss.name] = {
            "theta": [float(v) for v in theta],
            "cost": cost,
            "cost_with_prior": cost_with_prior,
            "converged": converged,
            "duality_gap": gap,
        }
    return refs


def run_experiment(config: RunConfig) -> dict:
    """Execute every (loss, scheme) run, write traces/timings, return the manifest.

    A table with fewer usable rows than ``batch_size`` is a DataLoadError,
    raised before any reference or run.
    """
    table = load_csv(config.dataset_path, config.schema)
    n_dropped = table.n_dropped
    dataset = preprocess(table, name=config.dataset_name)
    del table  # its raw columns are not needed past preprocessing
    if dataset.n_examples < config.batch_size:
        raise DataLoadError(f"{config.dataset_name}: batch_size {config.batch_size} needs at "
                            f"least as many usable rows, not {dataset.n_examples}")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    manifest = {
        "dataset": {
            "name": config.dataset_name,
            "path": str(config.dataset_path),
            "n_examples": dataset.n_examples,
            "dim": dataset.dim,
            "n_rows_dropped": n_dropped,
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
                ep_config = replace(config.ep_config, scheme=scheme, loss=loss)
                per_batch_ms = []
                state = trace = None
                for _ in range(config.timing_repetitions):
                    run_state, run_trace = ep_run(ep_config, dataset)
                    per_batch_ms.append(run_trace.ms_per_computed_visit)
                    if state is None:
                        state, trace = run_state, run_trace
                ref = manifest["references"].get(loss.name)
                write_trace(
                    out / trace_name, trace,
                    reference_cost=None if ref is None else ref["cost"],
                )
                ms = statistics.median(per_batch_ms)
                timing_rows.append(
                    TimingRow(
                        config.dataset_name, dataset.n_examples, dataset.dim,
                        config.batch_size, loss.name, scheme.kind, ms,
                    )
                )
                manifest["runs"].append(
                    {
                        "loss": loss.name,
                        "scheme": scheme.kind,
                        "trace_file": trace_name,
                        # the trace evaluates its last cost alone, at the final mean
                        "final_cost": trace.records[-1].total_cost,
                        "final_cost_with_prior": trace.records[-1].total_cost
                        + _prior_term(state.global_approx.mean, config.prior),
                        "reference_cost": None if ref is None else ref["cost"],
                        "rejected_updates": sum(s.rejected for s in trace.sweeps),
                        "scheme_failures": sum(s.scheme_failed for s in trace.sweeps),
                        "mean_ms_per_minibatch": ms,
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
