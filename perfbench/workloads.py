"""The benchmark's workloads: which table, which protocol, which checks.

Each workload stresses a different layer of ffep (see README.md):

* ``paper306`` - the paper's regime and the ``ffep run`` default. Scheme
  inner solvers and per-visit interpreter overhead dominate.
* ``wide_loop`` - a wide generated table in looping mode. Stored messages,
  the per-visit product check and the full-dataset trace cost dominate, and
  the wide CSV dominates set-up and memory.
* ``stream`` - a many-factor generated table in one streaming pass. No
  stored messages, no product check, a thinned trace: scheme and factor
  work dominate, and Powell makes the reference layer heavy.

The generated tables come from one fixed seed, so every run seed sees the
same examples. Powell's line-search count is chaotic in the data: on the
``stream`` table it ranged over 180-324 across freshly drawn tables and
over 363-484 across row orders of one table, which alone spreads the
reference time wider than any bound the benchmark may set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SCHEMES = ("la", "qla", "gq", "vq")

# column layout and seed of the generated tables (see gen.py)
TABLE_SEED = 306
LABEL = "label"
LABEL_MAP = {"1": 1, "0": -1}


def feature_names(n_features: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(n_features))


@dataclass(frozen=True)
class Invocation:
    """One ``ffep run``: the workload's losses under one protocol."""

    schemes: tuple[str, ...]
    mode: str  # looping | streaming
    sweeps: int
    references: bool = True


@dataclass(frozen=True)
class Workload:
    name: str
    losses: tuple[str, ...]
    batch_size: int
    cost_every: int
    invocations: tuple[Invocation, ...]  # together they run every scheme once
    n_examples: int | None = None  # None: the bundled synthetic306 table
    dim: int | None = None  # coordinates after preprocessing, baseline included
    # (loss, scheme) pairs that must land within 1% of the reference cost
    near_reference: tuple[tuple[str, str], ...] = ()

    def expected_visits(self, n_examples: int, scheme: str) -> int:
        sweeps = next(i.sweeps for i in self.invocations if scheme in i.schemes)
        return math.ceil(n_examples / self.batch_size) * sweeps


# Table sizes keep one pass of the sequence at a few seconds, so a run
# takes several passes and reports their median.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper306",
            losses=("logistic", "hinge", "quasi01"),
            batch_size=10, cost_every=1,
            invocations=(Invocation(SCHEMES, "looping", 5),),
            near_reference=(("logistic", "la"), ("logistic", "qla"), ("logistic", "vq")),
        ),
        # vq's surrogate Newton costs tens of ms per visit at d=100, so it
        # makes one streaming pass (bit-identical to the first looping
        # sweep) in a second ``ffep run`` without references; the other
        # schemes loop.
        Workload(
            name="wide_loop",
            losses=("logistic",),
            batch_size=100, cost_every=1,
            invocations=(Invocation(("la", "qla", "gq"), "looping", 5),
                         Invocation(("vq",), "streaming", 1, references=False)),
            n_examples=8000, dim=100,
            near_reference=(("logistic", "la"), ("logistic", "qla")),
        ),
        Workload(
            name="stream",
            losses=("logistic", "hinge"),
            batch_size=10, cost_every=10,
            invocations=(Invocation(SCHEMES, "streaming", 1),),
            n_examples=3000, dim=20,
            near_reference=(("logistic", "la"), ("logistic", "qla")),
        ),
    )
}
