"""Property tests of the EP engine on generated small problems.

Each example is a table of 2-39 rows and 1-5 columns (zero and x30 columns
included), a loss, a scheme and a protocol.  Three invariants must hold:

* a streaming run is bit for bit the first sweep of the looping run;
* ``ep_run_factors``, which repeats a visit once the state is fixed for
  good, ends in the statuses and final naturals of EP written out below,
  which computes every visit;
* the final posterior is proper and finite.

The last test pins a ``gq`` run whose messages swing to linear terms near
1e9 and back.  Its posterior carries the rounding of those values, which
the message-product check must allow for.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffep import engine
from ffep.engine import EpConfig, EpState, ep_run, ep_run_factors
from ffep.factors import BoundFactor, PriorFactor, prior_as_message
from ffep.ingest import Dataset, partition
from ffep.losses import _VALID, loss_from_name
from ffep.schemes import _DISPATCH, SchemeKind

COLUMN_SCALES = {"plain": 1.0, "zero": 0.0, "scaled": 30.0}


@st.composite
def problems(draw):
    n = draw(st.integers(2, 39))
    scales = draw(st.lists(st.sampled_from(sorted(COLUMN_SCALES)), min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dataset = Dataset(
        features=rng.normal(size=(n, len(scales))) * [COLUMN_SCALES[c] for c in scales],
        labels=np.where(rng.random(n) < 0.5, -1.0, 1.0),
    )
    config = EpConfig(
        scheme=SchemeKind(draw(st.sampled_from(list(_DISPATCH))),
                          gamma=draw(st.sampled_from([None, 0.5, 1.0, 3.0]))),
        loss=loss_from_name(draw(st.sampled_from(_VALID))),
        beta=draw(st.sampled_from([0.1, 1.0, 50.0])),
        batch_size=draw(st.integers(1, n)),
        n_sweeps=draw(st.integers(1, 4)),
        prior=PriorFactor(variance=draw(st.sampled_from([0.01, 25.0, 1e4]))),
    )
    return dataset, config


def factors_of(dataset, config):
    return [BoundFactor(dataset, idx, config.loss, config.beta)
            for idx in partition(dataset, config.batch_size)]


def every_visit_computed(factors, dim, config):
    """Looping EP written out: ``engine._visit`` on every visit, none
    repeated.  Returns the final state, every visit's status and the
    posterior after the first sweep."""
    state = EpState.start(prior_as_message(config.prior, dim), len(factors))
    statuses, after_first = [], None
    for _ in range(config.resolved_sweeps):
        for k, factor in enumerate(factors):
            statuses.append(engine._visit(state, k, factor, config.scheme, True))
        if after_first is None:
            after_first = state.global_approx
    return state, statuses, after_first


def naturals(g):
    """A Gaussian's natural parameters as bytes, so that == is bit equality."""
    return (np.float64(g.log_scale).tobytes(), g.linear.tobytes(),
            g.neg_half_precision.tobytes())


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(problem=problems())
def test_runs_match_ep_written_out(problem):
    dataset, config = problem
    factors = factors_of(dataset, config)
    state, trace = ep_run_factors(factors, dataset.dim, config)
    expected, statuses, after_first = every_visit_computed(factors, dataset.dim, config)

    assert [r.update_status for r in trace.records] == statuses
    assert naturals(state.global_approx) == naturals(expected.global_approx)

    streaming = replace(config, n_sweeps=None, mode="streaming")
    stream_state, stream_trace = ep_run_factors(factors, dataset.dim, streaming)
    assert [r.update_status for r in stream_trace.records] == statuses[:len(factors)]
    assert naturals(stream_state.global_approx) == naturals(after_first)

    for g in (state.global_approx, stream_state.global_approx):
        assert g.is_finite()
        assert g.is_proper
        assert np.isfinite(g.mean).all()


def cancelling_gq_run(seed, n):
    """Looping ``gq`` at beta 50 on single rows of one N(0, 1) column."""
    rng = np.random.default_rng(seed)
    dataset = Dataset(features=rng.normal(size=(n, 1)),
                      labels=np.where(rng.random(n) < 0.5, -1.0, 1.0))
    config = EpConfig(scheme=SchemeKind("gq"), loss=loss_from_name("logistic"),
                      beta=50.0, batch_size=1, n_sweeps=4)
    return dataset, config


def test_gq_survives_messages_that_cancel():
    dataset, config = cancelling_gq_run(1, 20)
    state, _ = ep_run(config, dataset)
    assert state.global_approx.is_proper


@pytest.mark.parametrize("seed, n", [(1, 10), (29, 20)])
def test_gq_cancellation_is_covered_only_by_the_rounding_history(seed, n):
    # the final posterior is further from the message product than
    # 1e-9 * (1 + sum |rows|); the values it has held account for the rest
    dataset, config = cancelling_gq_run(seed, n)
    state, _ = ep_run(config, dataset)
    assert state.global_approx.is_proper
    with pytest.raises(RuntimeError, match="drifted"):
        prior_msg = prior_as_message(config.prior, dataset.dim)
        engine._check_product(state, prior_msg, engine._abs_naturals(prior_msg))
