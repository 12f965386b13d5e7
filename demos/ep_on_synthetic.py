"""Run the full message-passing loop on the bundled synthetic dataset.

306 examples, three standardized features plus a baseline column, mini
batches of ten, a N(0, 25 I) prior, and five sweeps: every scheme visits
every mini-batch factor, refits its message in the current cavity, and the
product of messages is the running posterior.  The offline references are
the ones ``ffep run`` writes to its manifest: Newton for logistic, the exact
dual box QP for hinge and a direction-set search for quasi 0-1.  They
provide the reference training cost each trajectory is judged against.

The table reports, per loss and scheme, the final training cost, its gap
to the reference, the cost range over the last sweep (a stability readout),
update-gate rejections, inner-solver failures, and milliseconds per
computed mini-batch visit (``ffep.engine`` repeats, rather than computes,
the visits of a run that has stopped changing).

A second section checks the streaming mode: one pass over the factors with
cavity = current posterior must reproduce a single looping sweep bit for
bit, because a first visit's cavity is the posterior with a unit message
divided out.

    python demos/ep_on_synthetic.py
"""

import numpy as np

from ffep.bench import _compute_references
from ffep.engine import EpConfig, ep_run
from ffep.factors import PriorFactor
from ffep.ingest import ColumnSchema, bundled_synthetic_path, load_csv, preprocess
from ffep.losses import hinge, logistic, quasi01
from ffep.schemes import SchemeKind

PRIOR = PriorFactor(variance=25.0)
SCHEMA = ColumnSchema(label="status", label_map={"1": 1, "2": -1},
                      numeric=("age", "year", "nodes"))


def main():
    dataset = preprocess(load_csv(bundled_synthetic_path(), SCHEMA),
                         name="synthetic")
    n, d = dataset.n_examples, dataset.dim
    print(f"dataset: {n} examples, {d} columns (features + baseline)\n")

    losses = (logistic(), hinge(), quasi01(0.1))
    references = _compute_references(dataset, losses, PRIOR)

    for loss in losses:
        ref = references[loss.name]["cost"]
        print(f"{loss.name} (reference cost {ref:.4f}):")
        print(f"  {'scheme':<6} {'final':>10} {'gap':>9} {'last-sweep rng':>14} "
              f"{'rej':>4} {'fail':>4} {'ms/batch':>8}")
        for kind in ("la", "qla", "gq", "vq"):
            cfg = EpConfig(scheme=SchemeKind(kind=kind), loss=loss,
                           batch_size=10, prior=PRIOR)
            _, trace = ep_run(cfg, dataset)
            final = trace.records[-1].total_cost
            last = trace.costs(sweep=cfg.resolved_sweeps - 1)
            rejected = sum(s.rejected for s in trace.sweeps)
            failures = sum(s.scheme_failed for s in trace.sweeps)
            print(f"  {kind:<6} {final:>10.4f} {100 * (final - ref) / ref:>+8.2f}% "
                  f"{float(last.max() - last.min()):>14.4f} "
                  f"{rejected:>4d} {failures:>4d} "
                  f"{trace.ms_per_computed_visit:>8.3f}")
        print()

    print("streaming vs one looping sweep (posterior natural parameters):")
    for kind in ("la", "qla", "gq", "vq"):
        loop_cfg = EpConfig(scheme=SchemeKind(kind=kind), loss=logistic(),
                            n_sweeps=1, prior=PRIOR)
        stream_cfg = EpConfig(scheme=SchemeKind(kind=kind), loss=logistic(),
                              mode="streaming", prior=PRIOR)
        loop, _ = ep_run(loop_cfg, dataset)
        stream, _ = ep_run(stream_cfg, dataset)
        identical = (
            loop.global_approx.log_scale == stream.global_approx.log_scale
            and np.array_equal(loop.global_approx.linear,
                               stream.global_approx.linear)
            and np.array_equal(loop.global_approx.neg_half_precision,
                               stream.global_approx.neg_half_precision)
        )
        print(f"  {kind}: bit-identical={identical}")


if __name__ == "__main__":
    main()
