"""The FF-EP outer loop: cavities, scheme calls, gated updates, traces.

Two modes share one code path:

* looping - every factor's message is stored; each visit removes the stored
  message from the global approximation (the cavity), refits it, and folds
  the refreshed message back in.  The default is five full sweeps.  The K
  messages live in (K, d) natural-parameter arrays plus a (K,) log-scale
  vector.  At the end of every sweep the posterior is checked against the
  prior times their column sums, up to the rounding a running sum can carry
  (see ``_check_product``); a drift raises at the end of its sweep.
* streaming - a single pass with no message storage: the cavity is simply
  the current posterior, and each factor's message is multiplied in once.
  Because removing a unit message subtracts exact zeros, a streaming run is
  bit-identical to the first looping sweep.

Every sweep visits the factors in their fixed order.  A visit forms the
cavity, fits the factor with the configured scheme and hands the candidate
to ``gate_update``, which returns the posterior cavity * candidate it
checked (or None); an accepted posterior becomes the global approximation
as it is, and the refreshed message replaces the stored one in full.

Runs always record the configured number of sweeps; stationarity is
something we measure, never a stopping rule: the trace records, per sweep,
the largest change of any posterior mean and precision over that sweep and
how many visits were applied, rejected and failed by the scheme.  Those
per-sweep counts are the only tally of visit outcomes.  Scheme failures and
gated-out updates are recorded in the trace and skipped, not raised.

A visit's outcome is a function of the global approximation, factor k's
stored message and factor k alone, and only an applied visit changes the
first two.  So once K consecutive visits (one of each factor) have applied
nothing, the state is fixed for good and every later visit would repeat its
factor's last outcome bit for bit.  Such a visit is recorded with that
status without forming the cavity, calling the scheme or the gate, and is
counted in its sweep's ``repeated``.  This memoizes, it does not stop: the
records, costs, statuses and final state are those of a full recomputation,
and only ``cumulative_ms`` stays flat over the repeated visits.

The trace's cost column is evaluated in stacks.  ``cost_fn`` maps an (m, d)
stack of posterior means to m costs (``classification_costs`` is the one
``ep_run`` uses).  A visit whose cost is due and whose posterior changed
since the last costed visit queues its mean; a due visit with an unchanged
posterior reuses the last queued (or last evaluated) cost.  The queue holds
one sweep's means at most and is evaluated when the sweep ends, when that
sweep's records are built.  Its last mean is evaluated alone, as a one-row
stack, so every sweep's last trace cost equals a one-row evaluation at that
posterior bit for bit; the others may differ from it by rounding only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .factors import BoundFactor, PriorFactor, prior_as_message
from .gaussian import DiagGaussian, divide, multiply
from .ingest import Dataset, partition
from .losses import LossKind, loss_value
from .schemes import SchemeFailure, SchemeKind, _require_integer, approximate

__all__ = [
    "EpConfig",
    "EpState",
    "EpTrace",
    "SweepRecord",
    "TraceRecord",
    "classification_costs",
    "ep_run",
    "ep_run_factors",
    "gate_update",
]

# posterior precisions at or below this floor count as improper for gating
_PRECISION_FLOOR = 1e-12
# the product check's tolerance, per unit of magnitude summed (_check_product)
_PRODUCT_TOL = 1e-9
# float64 values in one block of classification_costs' margins (2 MB), so
# that a block stays in a core's L2 cache while the loss reads it back
_MARGIN_BLOCK = 2**18


@dataclass
class EpConfig:
    """Everything one EP run needs besides the data itself.

    The counts ``batch_size``, ``n_sweeps`` and ``cost_every`` are integers
    (a bool is not one).  ``n_sweeps=None`` resolves to 5 in looping mode and
    1 in streaming mode; streaming only ever makes one pass, so any other
    explicit value is a usage error.  ``cost_every`` thins the trace's
    full-dataset cost evaluations for large runs (1 = every visit; large
    runs typically use 10).
    """

    scheme: SchemeKind
    loss: LossKind
    beta: float = 1.0
    batch_size: int = 10
    n_sweeps: int | None = None
    mode: str = "looping"
    prior: PriorFactor = field(default_factory=PriorFactor)
    cost_every: int = 1

    def __post_init__(self):
        if self.mode not in ("looping", "streaming"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0 < self.beta < np.inf:
            raise ValueError("beta must be positive and finite")
        for name in ("batch_size", "n_sweeps", "cost_every"):
            value = getattr(self, name)
            if not (value is None and name == "n_sweeps"):
                _require_integer(name, value)
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.n_sweeps is not None and self.n_sweeps < 1:
            raise ValueError("n_sweeps must be at least 1")
        if self.mode == "streaming" and self.n_sweeps not in (None, 1):
            raise ValueError("streaming mode is a single pass; n_sweeps must be 1")
        if self.cost_every < 1:
            raise ValueError("cost_every must be at least 1")

    @property
    def resolved_sweeps(self) -> int:
        if self.n_sweeps is not None:
            return self.n_sweeps
        return 1 if self.mode == "streaming" else 5


@dataclass
class EpState:
    """Mutable run state: the posterior and the stored messages.

    In looping mode row k of ``linear`` and ``neg_half_precision`` (both
    (K, d)) and entry k of ``log_scale`` (K,) hold factor k's message; every
    row starts as the unit message.  Streaming stores no messages, so all
    three are None.  ``message(k)`` reads row k as a DiagGaussian.  Visit
    outcomes are counted in the trace's SweepRecords, not here.
    """

    global_approx: DiagGaussian
    linear: np.ndarray | None = None
    neg_half_precision: np.ndarray | None = None
    log_scale: np.ndarray | None = None

    @classmethod
    def start(cls, prior_msg: DiagGaussian, n_messages: int | None) -> "EpState":
        """The state before any visit: the prior, and ``n_messages`` unit
        messages (None stores none, as streaming does)."""
        if n_messages is None:
            return cls(prior_msg)
        shape = (n_messages, prior_msg.dim)
        return cls(prior_msg, np.zeros(shape), np.zeros(shape), np.zeros(n_messages))

    def message(self, k: int) -> DiagGaussian:
        """Factor k's stored message (its arrays are views of the store)."""
        return DiagGaussian(float(self.log_scale[k]), self.linear[k],
                            self.neg_half_precision[k])

    def store(self, k: int, msg: DiagGaussian):
        self.linear[k] = msg.linear
        self.neg_half_precision[k] = msg.neg_half_precision
        self.log_scale[k] = msg.log_scale


@dataclass(frozen=True)
class TraceRecord:
    sweep: int
    factor_index: int
    update_status: str  # applied | rejected | scheme_failed
    total_cost: float  # nan when the evaluation was thinned out
    cumulative_ms: float


@dataclass(frozen=True)
class SweepRecord:
    """How far one sweep moved the posterior (max |change| over coordinates),
    how many of its visits ended in each update status, and how many of
    those repeated their factor's last outcome instead of being computed."""

    sweep: int
    max_mean_change: float
    max_precision_change: float
    applied: int
    rejected: int
    scheme_failed: int
    repeated: int


@dataclass
class EpTrace:
    records: list[TraceRecord] = field(default_factory=list)
    sweeps: list[SweepRecord] = field(default_factory=list)

    @property
    def n_visits(self) -> int:
        return len(self.records)

    @property
    def total_ms(self) -> float:
        return self.records[-1].cumulative_ms if self.records else 0.0

    @property
    def ms_per_computed_visit(self) -> float:
        """Engine time per visit, over the visits computed, not repeated."""
        return self.total_ms / (self.n_visits - sum(s.repeated for s in self.sweeps))

    def costs(self, sweep: int | None = None) -> np.ndarray:
        """Recorded costs (NaNs dropped), optionally for a single sweep."""
        vals = [
            r.total_cost
            for r in self.records
            if (sweep is None or r.sweep == sweep) and np.isfinite(r.total_cost)
        ]
        return np.asarray(vals, dtype=float)


def gate_update(cavity: DiagGaussian, candidate: DiagGaussian) -> DiagGaussian | None:
    """The posterior cavity * candidate if it is admissible, else None.

    Admissible means the candidate is entirely finite and every coordinate
    of the posterior's precision stays above a small positive floor.
    Improper candidates as such are fine — only the resulting posterior
    matters.
    """
    if not candidate.is_finite():
        return None
    posterior = multiply(cavity, candidate)
    # the precision is -2 nhp, so its min exceeds the floor exactly when max nhp < -floor/2
    return posterior if posterior.neg_half_precision.max() < -0.5 * _PRECISION_FLOOR else None


def _abs_naturals(g: DiagGaussian):
    return abs(g.log_scale), np.abs(g.linear), np.abs(g.neg_half_precision)


def _check_product(state: EpState, prior_msg: DiagGaussian, hist):
    """Raise unless the posterior is the prior times the stored messages.

    The posterior is a running sum, updated one visit at a time, so it
    carries the rounding of every value it has held.  ``hist`` is, per
    component (log scale, linear, neg_half_precision), the |naturals| of the
    prior plus those of the posterior after every applied visit.  A
    component passes where |g - (prior + sum rows)| is at most
    _PRODUCT_TOL * (1 + hist + sum |rows|), the standard bound on a
    recursive sum's rounding (Higham, 2002, sec. 4.2) with a wide margin;
    NaN or inf never passes.
    """
    g = state.global_approx
    parts = ((g.log_scale, prior_msg.log_scale, state.log_scale),
             (g.linear, prior_msg.linear, state.linear),
             (g.neg_half_precision, prior_msg.neg_half_precision, state.neg_half_precision))
    for (value, prior, rows), h in zip(parts, hist):
        drift = np.abs(value - (prior + rows.sum(axis=0)))
        bound = _PRODUCT_TOL * (1.0 + h + np.abs(rows).sum(axis=0))
        if not ((drift <= bound).all() and np.isfinite(drift).all()):
            raise RuntimeError(
                "internal error: global approximation drifted from the message product"
            )


def classification_costs(thetas, dataset: Dataset, loss: LossKind) -> np.ndarray:
    """Summed loss over the whole dataset at each row of an (m, d) stack.

    The margins are ``thetas @ signed_rows.T``, computed in blocks of at
    most _MARGIN_BLOCK values, so one matrix product reads the table once
    per block rather than once per row.  A one-row block is the
    matrix-vector product ``signed_rows @ theta``.
    """
    thetas = np.asarray(thetas, dtype=float)
    costs = np.empty(len(thetas))
    rows = max(1, _MARGIN_BLOCK // dataset.n_examples)
    for i in range(0, len(thetas), rows):
        margins = thetas[i:i + rows] @ dataset.signed_rows.T
        costs[i:i + rows] = loss_value(loss, margins).sum(axis=1)
    return costs


def _visit(state: EpState, k: int, factor, scheme: SchemeKind, looping: bool) -> str:
    """Refit factor k in its cavity and apply the gated update; returns the
    update status."""
    cavity = divide(state.global_approx, state.message(k)) if looping else state.global_approx
    if not cavity.is_proper:
        return "rejected"
    try:
        candidate = approximate(scheme, cavity, factor)
    except SchemeFailure:
        return "scheme_failed"
    posterior = gate_update(cavity, candidate)
    if posterior is None:
        return "rejected"
    state.global_approx = posterior
    if looping:
        state.store(k, candidate)
    return "applied"


def ep_run_factors(factors, dim: int, config: EpConfig, cost_fn=None):
    """Run EP over an explicit factor list.

    Each factor exposes ``log_value(theta)``, ``log_value_many(thetas)``
    (an (m, d) stack to m values), ``log_value_axes(center, offsets)`` (the
    center and its +/- spoke on every axis, for ``vq``) and, for ``la`` and
    ``qla``, ``log_grad_hessdiag(theta)``, as ``BoundFactor`` and
    ``GaussianFactor`` do; a scheme calls only the methods it needs, which
    ``schemes`` lists along with the optional margin-space view.  Factors and
    schemes must be deterministic: the same cavity and factor give the same
    candidate, or the same failure, on every call.  The repeat rule in the
    module docstring relies on it.

    ``cost_fn`` maps an (m, d) stack of parameter vectors to their m costs
    for the trace's total-cost column; when omitted the column is NaN
    throughout.  Costs are evaluated once per sweep, over the means queued
    at its due visits, and the sweep's last queued mean is evaluated alone
    (see the module docstring).  Returns (EpState, EpTrace).
    """
    prior_msg = prior_as_message(config.prior, dim)
    looping = config.mode == "looping"
    state = EpState.start(prior_msg, len(factors) if looping else None)
    hist = list(_abs_naturals(prior_msg))  # the product check's rounding history
    trace = EpTrace()

    elapsed = 0.0
    visit = 0
    n_total = config.resolved_sweeps * len(factors)
    cost, cost_stale = np.nan, True
    last = [None] * len(factors)  # each factor's last status
    quiet = 0  # visits since the last applied one
    for sweep in range(config.resolved_sweeps):
        start = state.global_approx
        means = []  # posterior means queued for costing at the sweep's end
        visits = []  # (status, cost slot, cumulative ms) per visit
        repeated = 0
        for k in range(len(factors)):
            visit += 1
            if quiet >= len(factors):
                status = last[k]
                repeated += 1
            else:
                tic = time.perf_counter()
                status = _visit(state, k, factors[k], config.scheme, looping)
                elapsed += time.perf_counter() - tic
            last[k] = status
            quiet = 0 if status == "applied" else quiet + 1

            # bookkeeping below is outside the timed region
            if status == "applied":
                cost_stale = True
                if looping:  # in place: the arrays of hist are its own
                    for i, a in enumerate(_abs_naturals(state.global_approx)):
                        hist[i] += a
            slot = -2
            if cost_fn is not None and (visit % config.cost_every == 0 or visit == n_total):
                if cost_stale:  # the mean, unchecked: the prior and the gate keep g proper
                    g = state.global_approx
                    means.append(g.linear * (-0.5 / g.neg_half_precision))
                    cost_stale = False
                slot = len(means) - 1
            visits.append((status, slot, elapsed * 1000.0))
        if looping:
            _check_product(state, prior_msg, hist)

        # cost slot -2: none due (NaN); -1: the cost carried in from an
        # earlier sweep; i >= 0: the cost of means[i], the last one alone
        costs = [np.nan, cost]
        if len(means) > 1:
            costs.extend(cost_fn(np.stack(means[:-1])))
        if means:
            costs.extend(cost_fn(means[-1][None, :]))
        cost = costs[-1]
        for k, (status, slot, ms) in enumerate(visits):
            trace.records.append(TraceRecord(sweep, k, status, float(costs[slot + 2]), ms))
        statuses = [v[0] for v in visits]
        g = state.global_approx
        trace.sweeps.append(SweepRecord(
            sweep,
            float(np.max(np.abs(g.mean - start.mean))),
            float(np.max(np.abs(g.precision - start.precision))),
            statuses.count("applied"),
            statuses.count("rejected"),
            statuses.count("scheme_failed"),
            repeated,
        ))
    return state, trace


def ep_run(config: EpConfig, dataset: Dataset):
    """Partition the dataset, build mini-batch factors, and run EP.

    The trace's total-cost column is the full-dataset classification cost at
    the current posterior mode (no prior term, matching how training curves
    are usually plotted), from ``classification_costs``.
    """
    factors = [
        BoundFactor(dataset, idx, config.loss, config.beta)
        for idx in partition(dataset, config.batch_size)
    ]

    def cost_fn(thetas):
        return classification_costs(thetas, dataset, config.loss)

    return ep_run_factors(factors, dataset.dim, config, cost_fn=cost_fn)
