"""The FF-EP outer loop: cavities, scheme calls, gated updates, traces.

Two modes share one code path:

* looping - every factor's message is stored; each visit removes the stored
  message from the global approximation (the cavity), refits it, and folds
  the refreshed message back in.  The default is five full sweeps.
* streaming - a single pass with no message storage: the cavity is simply
  the current posterior, and each factor's message is multiplied in once.
  Because removing a unit message subtracts exact zeros, a streaming run is
  bit-identical to the first looping sweep.

Every sweep visits the factors in their fixed order, and an accepted update
replaces the stored message with the refreshed one in full.

Runs always execute the configured number of sweeps; stationarity is
something we measure, never a stopping rule.  Scheme failures and gated-out
updates are recorded in the trace and skipped, not raised.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .factors import MiniBatchFactor, PriorFactor, bind, prior_as_message
from .gaussian import DiagGaussian, divide, multiply
from .ingest import Dataset, partition
from .losses import LossKind, loss_value
from .schemes import SchemeFailure, SchemeKind, approximate

__all__ = [
    "EpConfig",
    "EpState",
    "EpTrace",
    "TraceRecord",
    "ep_run",
    "ep_run_factors",
    "gate_update",
    "posterior_mode",
]

# posterior precisions at or below this floor count as improper for gating
_PRECISION_FLOOR = 1e-12
_PRODUCT_TOL = 1e-9


@dataclass
class EpConfig:
    """Everything one EP run needs besides the data itself.

    ``n_sweeps=None`` resolves to 5 in looping mode and 1 in streaming mode;
    streaming only ever makes one pass, so any other explicit value is a
    usage error.  ``cost_every`` thins the trace's full-dataset cost
    evaluations for large runs (1 = every visit; large runs typically use 10).
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
        if not self.beta > 0:
            raise ValueError("beta must be positive")
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
    """Mutable run state: the posterior, stored messages, and counters."""

    global_approx: DiagGaussian
    messages: list[DiagGaussian] | None  # None in streaming mode
    rejected_updates: int = 0


@dataclass(frozen=True)
class TraceRecord:
    sweep: int
    factor_index: int
    update_status: str  # applied | rejected | scheme_failed
    total_cost: float  # nan when the evaluation was thinned out
    cumulative_ms: float


@dataclass
class EpTrace:
    records: list[TraceRecord] = field(default_factory=list)

    def append(self, rec: TraceRecord):
        self.records.append(rec)

    @property
    def n_visits(self) -> int:
        return len(self.records)

    @property
    def total_ms(self) -> float:
        return self.records[-1].cumulative_ms if self.records else 0.0

    def costs(self, sweep: int | None = None) -> np.ndarray:
        """Recorded costs (NaNs dropped), optionally for a single sweep."""
        vals = [
            r.total_cost
            for r in self.records
            if (sweep is None or r.sweep == sweep) and np.isfinite(r.total_cost)
        ]
        return np.asarray(vals, dtype=float)


def gate_update(cavity: DiagGaussian, candidate: DiagGaussian) -> bool:
    """Accept a candidate message iff it keeps the posterior proper.

    Proper here means every coordinate's precision stays above a small
    positive floor; the candidate must also be entirely finite.  Improper
    candidates as such are fine — only the resulting posterior matters.
    """
    if not candidate.is_finite():
        return False
    posterior = multiply(cavity, candidate)
    return bool(np.all(posterior.precision > _PRECISION_FLOOR))


def posterior_mode(state: EpState) -> np.ndarray:
    """Mode of the posterior approximation (the mean of a Gaussian)."""
    return state.global_approx.mean


def _check_product(state: EpState, prior_msg: DiagGaussian):
    msgs = state.messages
    linear = prior_msg.linear + np.sum([m.linear for m in msgs], axis=0)
    nhp = prior_msg.neg_half_precision + np.sum([m.neg_half_precision for m in msgs], axis=0)
    log_scale = prior_msg.log_scale + sum(m.log_scale for m in msgs)
    g = state.global_approx
    ok = (
        np.allclose(g.linear, linear, rtol=_PRODUCT_TOL, atol=_PRODUCT_TOL)
        and np.allclose(g.neg_half_precision, nhp, rtol=_PRODUCT_TOL, atol=_PRODUCT_TOL)
        and np.isclose(g.log_scale, log_scale, rtol=_PRODUCT_TOL, atol=_PRODUCT_TOL)
    )
    if not ok:
        raise RuntimeError(
            "internal error: global approximation drifted from the message product"
        )


def ep_run_factors(factors, dim: int, config: EpConfig, cost_fn=None):
    """Run EP over an explicit factor list (anything exposing log_value etc.).

    ``cost_fn`` maps a parameter vector to the trace's total-cost column; when
    omitted the column is NaN throughout.  Returns (EpState, EpTrace).
    """
    prior_msg = prior_as_message(config.prior, dim)
    looping = config.mode == "looping"
    state = EpState(
        global_approx=prior_msg,
        messages=[DiagGaussian.unit(dim) for _ in factors] if looping else None,
    )
    trace = EpTrace()

    elapsed = 0.0
    visit = 0
    n_total = config.resolved_sweeps * len(factors)
    for sweep in range(config.resolved_sweeps):
        for k in range(len(factors)):
            visit += 1
            status = "applied"

            tic = time.perf_counter()
            cavity = divide(state.global_approx, state.messages[k]) if looping else state.global_approx
            if not cavity.is_proper:
                status = "rejected"
                state.rejected_updates += 1
            else:
                try:
                    candidate = approximate(config.scheme, cavity, factors[k])
                except SchemeFailure:
                    status = "scheme_failed"
                else:
                    if gate_update(cavity, candidate):
                        state.global_approx = multiply(cavity, candidate)
                        if looping:
                            state.messages[k] = candidate
                    else:
                        status = "rejected"
                        state.rejected_updates += 1
            elapsed += time.perf_counter() - tic

            # bookkeeping below is outside the timed region
            if looping and status == "applied":
                _check_product(state, prior_msg)
            cost = np.nan
            if cost_fn is not None and (
                visit % config.cost_every == 0 or visit == n_total
            ):
                cost = float(cost_fn(state.global_approx.mean))
            trace.append(
                TraceRecord(sweep, k, status, cost, elapsed * 1000.0)
            )
    return state, trace


def ep_run(config: EpConfig, dataset: Dataset):
    """Partition the dataset, build mini-batch factors, and run EP.

    The trace's total-cost column is the full-dataset classification cost at
    the current posterior mode (no prior term, matching how training curves
    are usually plotted).
    """
    parts = partition(dataset, config.batch_size)
    factors = [
        bind(MiniBatchFactor(idx, config.loss, config.beta), dataset)
        for idx in parts.batches
    ]

    def classification_cost(theta):
        margins = dataset.labels * (dataset.features @ theta)
        return float(np.sum(loss_value(config.loss, margins)))

    return ep_run_factors(factors, dataset.dim, config, cost_fn=classification_cost)
