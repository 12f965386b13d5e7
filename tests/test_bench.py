"""Tests for the reference solvers and the experiment harness.

The regression constants below were frozen from two independent routes: the
one-dimensional optimum from a scalar root-finding oracle, and the
full-dataset values cross-checked against scipy's general-purpose minimizers
(L-BFGS-B for the smooth objective, scipy's own Powell for the rest).
"""

import csv
import json
import re
import shutil

import numpy as np
import pytest
import scipy.optimize

from ffep import bench
from ffep.bench import (
    PowellResult,
    RunConfig,
    TimingRow,
    reference_newton_logistic,
    reference_powell,
    run_experiment,
    total_cost,
    write_trace,
)
from ffep.engine import EpTrace, TraceRecord
from ffep.factors import PriorFactor
from ffep.ingest import ColumnSchema, Dataset, bundled_synthetic_path
from ffep.losses import hinge, logistic, loss_kinks, loss_value, quasi01
from ffep.schemes import SchemeKind, _line_minimize

from oracles import grid_min_2d

# One example x=1, y=+1, prior N(0, 25): stationarity reads
# sigmoid(-theta) = theta/25; frozen from a bracketing root-finding oracle.
ONE_D_THETA = 2.292873151052469
ONE_D_COST = 0.20134233728830608

# Bundled synthetic dataset, prior N(0, 25), default protocol.  Pinned after
# cross-checking against scipy (objective agreement ~1e-10 relative for the
# smooth losses, ~0.2% for the non-convex quasi 0-1, which has nearby local
# minima).
SYNTH_NEWTON_THETA = np.array(
    [-6.518907255519361, 1.241924747980995, -10.852122169371885, 1.1102382312315164]
)
SYNTH_LOGISTIC_COST = 153.8396007474309
SYNTH_HINGE_COST = 154.29731977318255
SYNTH_HINGE_COST_WITH_PRIOR = 155.81329671328663
# The exact hinge optimum's classification cost, from the dual box QP; the
# Powell value above stops 2.15e-5 relative above its objective.
SYNTH_HINGE_EXACT_COST = 154.29177718833
SYNTH_QUASI01_COST = 74.08285810797496
# Powell's quasi 0-1 answer from the logistic start, bit for bit, and the
# number of line searches it took.
SYNTH_QUASI01_THETA = ("-0x1.2ae3754ef0195p+0", "0x1.6e687fb36da4ep-1",
                       "-0x1.754a766e36393p+2", "0x1.02bbaa7f69169p-1")
SYNTH_QUASI01_LINE_SEARCHES = 54

PRIOR = PriorFactor(variance=25.0)


def quasi01_toy():
    """Eight points in the plane with no separating direction."""
    features = np.array(
        [
            [1.0, 0.2], [0.8, -0.3], [-0.2, 1.0], [-1.0, 0.1],
            [-0.7, -0.5], [0.3, -1.0], [-0.5, -0.5], [0.5, 0.5],
        ]
    )
    labels = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0, 1.0, -1.0])
    return Dataset(features=features, labels=labels)


class TestTotalCost:
    def test_logistic_at_origin_is_n_log_two(self, synthetic_dataset):
        n = synthetic_dataset.n_examples
        cost = total_cost(np.zeros(synthetic_dataset.dim), synthetic_dataset,
                          logistic())
        assert cost == pytest.approx(n * np.log(2.0), rel=1e-12)

    def test_piecewise_losses_at_origin_cost_one_per_example(self, synthetic_dataset):
        zeros = np.zeros(synthetic_dataset.dim)
        n = synthetic_dataset.n_examples
        assert total_cost(zeros, synthetic_dataset, hinge()) == pytest.approx(n)
        assert total_cost(zeros, synthetic_dataset, quasi01(0.1)) == pytest.approx(n)

    def test_separable_hinge_reaches_zero(self):
        ds = Dataset(features=np.array([[1.0, 0.0], [-1.0, 0.0]]),
                     labels=np.array([1.0, -1.0]))
        assert total_cost(np.array([1.0, 0.0]), ds, hinge()) == 0.0

    def test_prior_term_is_half_squared_distance_over_variance(self):
        ds = Dataset(features=np.array([[1.0, 0.0]]), labels=np.array([1.0]))
        theta = np.array([1.0, 2.0])
        gap = total_cost(theta, ds, hinge(), PriorFactor(variance=2.0)) \
            - total_cost(theta, ds, hinge())
        assert gap == pytest.approx((1.0 + 4.0) / 4.0, rel=1e-12)


class TestNewtonReference:
    def test_single_example_worked_optimum(self):
        ds = Dataset(features=np.array([[1.0]]), labels=np.array([1.0]))
        theta = reference_newton_logistic(ds, PRIOR)
        assert theta[0] == pytest.approx(ONE_D_THETA, abs=1e-10)
        obj = total_cost(theta, ds, logistic(), PRIOR)
        assert obj == pytest.approx(ONE_D_COST, rel=1e-12)

    def test_symmetric_data_pins_the_optimum_at_zero(self):
        ds = Dataset(features=np.array([[1.0], [1.0]]),
                     labels=np.array([1.0, -1.0]))
        theta = reference_newton_logistic(ds, PRIOR)
        assert abs(theta[0]) <= 1e-8

    def test_gradient_sup_norm_at_solution(self, synthetic_dataset):
        from scipy.special import expit

        theta = reference_newton_logistic(synthetic_dataset, PRIOR)
        z = synthetic_dataset.labels[:, None] * synthetic_dataset.features
        grad = -(z.T @ expit(-(z @ theta))) + theta / PRIOR.variance
        assert np.max(np.abs(grad)) <= 1e-8

    def test_matches_scipy_lbfgs_objective(self, synthetic_dataset):
        z = synthetic_dataset.labels[:, None] * synthetic_dataset.features

        def objective(t):
            return float(np.sum(np.logaddexp(0.0, -(z @ t)))) \
                + 0.5 * float(t @ t) / 25.0

        theta = reference_newton_logistic(synthetic_dataset, PRIOR)
        res = scipy.optimize.minimize(
            objective, np.zeros(synthetic_dataset.dim), method="L-BFGS-B",
            options={"ftol": 1e-14, "gtol": 1e-10, "maxiter": 2000})
        assert objective(theta) == pytest.approx(res.fun, rel=1e-8)
        assert objective(theta) <= res.fun + 1e-8

    def test_frozen_synthetic_solution(self, synthetic_dataset):
        theta = reference_newton_logistic(synthetic_dataset, PRIOR)
        np.testing.assert_allclose(theta, SYNTH_NEWTON_THETA, rtol=1e-9)
        cost = total_cost(theta, synthetic_dataset, logistic())
        assert cost == pytest.approx(SYNTH_LOGISTIC_COST, rel=1e-10)


class TestPowellReference:
    def test_pure_quadratic_bowl_recovers_the_prior_mean(self):
        # The single example has all-zero features, so its hinge loss is 1
        # everywhere and the objective is the prior quadratic plus 1.
        ds = Dataset(features=np.array([[0.0, 0.0]]), labels=np.array([1.0]))
        prior = PriorFactor(variance=2.0)
        result = reference_powell(ds, hinge(), np.array([2.5, -1.5]), prior)
        assert result.converged
        np.testing.assert_allclose(result.theta, [0.0, 0.0], atol=1e-6)
        assert result.cost == pytest.approx(1.0, abs=1e-12)

    def test_separable_hinge_stops_at_the_kink(self):
        # Along theta = (t, 0) the objective is 2*max(0, 1-t) + t^2/25,
        # decreasing up to the kink at t=1 and increasing after it.
        ds = Dataset(features=np.array([[1.0, 0.0], [-1.0, 0.0]]),
                     labels=np.array([1.0, -1.0]))
        result = reference_powell(ds, hinge(), np.zeros(2), PRIOR)
        assert result.converged
        np.testing.assert_allclose(result.theta, [1.0, 0.0], atol=1e-5)
        assert total_cost(result.theta, ds, hinge()) <= 1e-10

    def test_beats_dense_grid_on_nonconvex_toy(self):
        ds = quasi01_toy()
        result = reference_powell(ds, quasi01(0.1), np.zeros(2), PRIOR)

        def classification(theta):
            return total_cost(theta, ds, quasi01(0.1))

        grid_best = grid_min_2d(classification, -6.0, 6.0, n=200)
        assert total_cost(result.theta, ds, quasi01(0.1)) <= grid_best + 1e-12

    def test_never_moves_uphill_from_the_start(self, synthetic_dataset):
        rng = np.random.default_rng(50)
        for _ in range(5):
            start = rng.normal(size=synthetic_dataset.dim)
            result = reference_powell(synthetic_dataset, hinge(), start, PRIOR)
            assert result.cost <= total_cost(start, synthetic_dataset,
                                             hinge(), PRIOR) + 1e-12

    def test_spent_budget_returns_the_best_point_unconverged(self, synthetic_dataset,
                                                             monkeypatch):
        # one line search per dimension: a single cycle, with no composite step
        monkeypatch.setattr(bench, "_POWELL_BUDGET_PER_DIM", 1)
        d = synthetic_dataset.dim
        start = np.zeros(d)
        result = reference_powell(synthetic_dataset, quasi01(0.1), start, PRIOR)
        assert not result.converged
        assert result.n_line_searches == d
        assert result.cost == total_cost(result.theta, synthetic_dataset, quasi01(0.1), PRIOR)
        assert result.cost < total_cost(start, synthetic_dataset, quasi01(0.1), PRIOR)

    def test_smooth_loss_is_refused(self, synthetic_dataset):
        with pytest.raises(ValueError):
            reference_powell(synthetic_dataset, logistic(),
                             np.zeros(synthetic_dataset.dim), PRIOR)

    def test_frozen_synthetic_hinge_solution(self, synthetic_dataset):
        theta_log = reference_newton_logistic(synthetic_dataset, PRIOR)
        result = reference_powell(synthetic_dataset, hinge(), theta_log, PRIOR)
        assert isinstance(result, PowellResult)
        assert result.converged
        cls = total_cost(result.theta, synthetic_dataset, hinge())
        assert cls == pytest.approx(SYNTH_HINGE_COST, rel=1e-9)
        assert result.cost == pytest.approx(SYNTH_HINGE_COST_WITH_PRIOR, rel=1e-9)

    def test_frozen_synthetic_quasi01_solution(self, synthetic_dataset):
        theta_log = reference_newton_logistic(synthetic_dataset, PRIOR)
        result = reference_powell(synthetic_dataset, quasi01(0.1), theta_log, PRIOR)
        assert result.converged
        cls = total_cost(result.theta, synthetic_dataset, quasi01(0.1))
        assert cls == pytest.approx(SYNTH_QUASI01_COST, rel=1e-9)
        assert [float(v).hex() for v in result.theta] == list(SYNTH_QUASI01_THETA)
        assert result.n_line_searches == SYNTH_QUASI01_LINE_SEARCHES

    def test_quasi01_lands_near_scipy_powell(self, synthetic_dataset):
        # Non-convex objective: the two implementations settle in nearby
        # local minima (ours observed ~0.3% below scipy's), so agreement is
        # asserted to 3%.
        theta_log = reference_newton_logistic(synthetic_dataset, PRIOR)

        def objective(t):
            return total_cost(t, synthetic_dataset, quasi01(0.1), PRIOR)

        ours = reference_powell(synthetic_dataset, quasi01(0.1), theta_log, PRIOR)
        res = scipy.optimize.minimize(objective, theta_log, method="Powell",
                                      options={"xtol": 1e-8, "ftol": 1e-10})
        assert ours.cost == pytest.approx(res.fun, rel=0.03)


def stream_shaped_table(n=3000, d=20, seed=17):
    """n noisy examples in d coordinates, a baseline column included.

    Features are standard normals, labels follow a logistic link on a random
    direction and a tenth of them are flipped, so the hinge optimum has
    hundreds of rows on or inside the margin.
    """
    rng = np.random.default_rng(seed)
    X = np.column_stack([rng.standard_normal((n, d - 1)), np.ones(n)])
    w = rng.standard_normal(d)
    w *= 1.5 / np.linalg.norm(w)
    y = np.where(rng.random(n) < 1.0 / (1.0 + np.exp(-X @ w)), 1.0, -1.0)
    y[rng.random(n) < 0.1] *= -1.0
    return Dataset(features=X, labels=y)


class TestHingeReference:
    """The hinge reference is the exact optimum, solved as the dual box QP."""

    @pytest.fixture(scope="class")
    def stream_table(self):
        return stream_shaped_table()

    def test_frozen_synthetic_exact_hinge_solution(self, synthetic_dataset):
        ref = bench._compute_references(synthetic_dataset, (hinge(),), PRIOR)["hinge"]
        assert ref["cost"] == pytest.approx(SYNTH_HINGE_EXACT_COST, rel=1e-9)
        assert ref["converged"]

    @pytest.mark.parametrize("table", ["synthetic306", "stream_table"])
    def test_duality_gap_certifies_it_and_powell_is_never_below(self, table, request):
        ds = request.getfixturevalue("synthetic_dataset" if table == "synthetic306" else table)
        refs = bench._compute_references(ds, (logistic(), hinge()), PRIOR)
        ref = refs["hinge"]
        assert abs(ref["duality_gap"]) <= 1e-12
        assert ref["converged"]
        assert refs["logistic"]["duality_gap"] is None
        theta_log = np.array(refs["logistic"]["theta"])
        powell = reference_powell(ds, hinge(), theta_log, PRIOR)
        assert ref["cost_with_prior"] <= powell.cost

    def test_matches_the_separable_kink(self):
        # as in TestPowellReference: the optimum puts both margins on the kink
        ds = Dataset(features=np.array([[1.0, 0.0], [-1.0, 0.0]]),
                     labels=np.array([1.0, -1.0]))
        ref = bench._compute_references(ds, (hinge(),), PRIOR)["hinge"]
        np.testing.assert_allclose(ref["theta"], [1.0, 0.0], rtol=0.0, atol=1e-15)
        assert ref["cost_with_prior"] == pytest.approx(1.0 / 25.0 / 2.0, rel=1e-15)


def kinked_line(loss, reach):
    """A line problem whose breakpoints include t = -reach and t = +reach.

    Rows 0 and 1 are constant along the line (b = 0), rows 2 and 3 are equal
    (repeated breakpoints), and rows 4 and 5 sit on the loss's last kink at
    t = +reach and t = -reach.
    """
    rng = np.random.default_rng(31)
    theta = rng.normal(size=3)
    direction = np.array([1.0, -0.5, 0.0])
    Z = rng.normal(size=(12, 3))
    Z[0:2, :2] = 0.0
    Z[3] = Z[2]
    kink = loss_kinks(loss)[0][-1]
    for row, t in ((4, reach), (5, -reach)):
        point = theta + t * direction
        Z[row] += (kink - Z[row] @ point) / (point @ point) * point
    labels = rng.choice([-1.0, 1.0], size=12)
    return Dataset(features=labels[:, None] * Z, labels=labels), theta, direction


def powell_line(objective, z, loss, prior, theta, direction, f0):
    """schemes._line_minimize as Powell calls it: the prior is the quadratic, beta = 1."""
    c1 = float(theta @ direction) / prior.variance
    c2 = float(direction @ direction) / (2.0 * prior.variance)
    return _line_minimize(objective, z, loss_kinks(loss), theta, z @ theta, direction, f0,
                          c1, c2, 1.0)


class TestLineMinimizer:
    """schemes._line_minimize, the exact search along one Powell line."""

    def search(self, dataset, loss, prior, theta, direction):
        def objective(t):
            return total_cost(t, dataset, loss, prior)

        z = dataset.labels[:, None] * dataset.features
        f0 = objective(theta)
        moved, f = powell_line(objective, z, loss, prior, theta, direction, f0)
        return objective, f0, moved, f

    @pytest.mark.parametrize("loss", [hinge(), quasi01(0.1), quasi01(0.5)],
                             ids=["hinge", "quasi01_0.1", "quasi01_0.5"])
    def test_matches_a_dense_grid(self, loss):
        reach = 3.0
        dataset, theta, direction = kinked_line(loss, reach)
        prior = PriorFactor(variance=4.0)
        objective, f0, moved, f = self.search(dataset, loss, prior, theta, direction)

        ts = np.linspace(-reach, reach, 600_001)
        points = theta + ts[:, None] * direction
        margins = (points @ dataset.features.T) * dataset.labels
        grid = loss_value(loss, margins).sum(axis=1) \
            + (points * points).sum(axis=1) / (2.0 * prior.variance)
        t = (moved - theta)[0]
        np.testing.assert_allclose(moved, theta + t * direction, rtol=0, atol=1e-15)
        assert f == objective(moved) < f0
        assert f <= grid.min() + 1e-12
        assert abs(t - ts[np.argmin(grid)]) <= 2 * (ts[1] - ts[0])

    def test_line_without_descent_is_left_alone(self):
        # The single example's margin is 30, past the kink at t = -29, and the
        # line is orthogonal to theta, so the prior quadratic and with it the
        # objective are least at t = 0.
        ds = Dataset(features=np.array([[10.0, 1.0]]), labels=np.array([1.0]))
        theta = np.array([3.0, 0.0])
        prior = PriorFactor(variance=2.0)
        _, f0, moved, f = self.search(ds, hinge(), prior, theta, np.array([0.0, 1.0]))
        assert moved is theta and f == f0

    def test_point_scored_uphill_is_not_taken(self, synthetic_dataset):
        # The line from the origin descends, but the objective that scores
        # the chosen point says it is no better than f0.
        theta = np.zeros(synthetic_dataset.dim)
        z = synthetic_dataset.labels[:, None] * synthetic_dataset.features
        moved, f = powell_line(lambda t: 400.0, z, hinge(), PRIOR,
                               theta, np.eye(synthetic_dataset.dim)[0], 400.0)
        assert moved is theta and f == 400.0


class TestWriteTrace:
    def make_trace(self):
        trace = EpTrace()
        trace.records.append(TraceRecord(0, 0, "applied", 12.5, 0.25))
        trace.records.append(TraceRecord(0, 1, "scheme_failed", np.nan, 0.75))
        return trace

    def test_round_trip_with_reference_comment(self, tmp_path):
        path = tmp_path / "toy.trace.csv"
        write_trace(path, self.make_trace(), reference_cost=11.25)
        lines = path.read_text().splitlines()
        assert lines[0] == "# reference_cost=11.25"
        assert lines[1] == "sweep,factor_index,update_status,total_cost,cumulative_ms"
        rows = list(csv.reader(lines[2:]))
        assert rows[0] == ["0", "0", "applied", "12.5", "0.250000"]
        assert rows[1][2] == "scheme_failed"
        assert rows[1][3] == "nan"

    def test_no_comment_without_reference(self, tmp_path):
        path = tmp_path / "toy.trace.csv"
        write_trace(path, self.make_trace())
        assert path.read_text().startswith("sweep,")


class TestRunExperiment:
    @pytest.fixture()
    def small_csv(self, tmp_path):
        # First 40 data rows of the bundled file keep the harness test quick.
        src = bundled_synthetic_path()
        lines = open(src).read().splitlines()
        path = tmp_path / "small.csv"
        path.write_text("\n".join(lines[:41]) + "\n")
        return path

    def schema(self):
        return ColumnSchema(label="status", label_map={"1": 1, "2": -1},
                            numeric=("age", "year", "nodes"))

    def test_every_loss_scheme_pair_gets_a_trace(self, small_csv, tmp_path):
        out = tmp_path / "out"
        config = RunConfig(
            dataset_path=small_csv,
            schema=self.schema(),
            losses=(logistic(), hinge(), quasi01(0.1)),
            schemes=tuple(SchemeKind(kind=k) for k in ("la", "qla", "gq", "vq")),
            out_dir=out,
            dataset_name="small",
            prior=PRIOR,
        )
        manifest = run_experiment(config)

        traces = sorted(p.name for p in out.glob("*.trace.csv"))
        assert len(traces) == 12
        assert "small_logistic_la.trace.csv" in traces
        assert "small_quasi01_vq.trace.csv" in traces
        assert len(manifest["runs"]) == 12
        assert manifest["failures"] == []
        assert (out / "manifest.json").exists()

        with open(out / "timing.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["dataset", "N", "d", "s", "loss", "scheme",
                           "mean_ms_per_minibatch"]
        assert len(rows) == 13
        assert all(float(r[-1]) > 0 for r in rows[1:])

    def test_manifest_references_and_run_entries(self, small_csv, tmp_path):
        out = tmp_path / "out"
        config = RunConfig(
            dataset_path=small_csv,
            schema=self.schema(),
            losses=(logistic(),),
            schemes=(SchemeKind(kind="qla"),),
            out_dir=out,
            dataset_name="small",
            prior=PRIOR,
            timing_repetitions=1,
        )
        manifest = run_experiment(config)
        ref = manifest["references"]["logistic"]
        assert ref["converged"]
        assert len(ref["theta"]) == manifest["dataset"]["dim"]
        assert ref["cost"] <= ref["cost_with_prior"]

        run = manifest["runs"][0]
        assert run["loss"] == "logistic"
        assert run["scheme"] == "qla"
        assert run["reference_cost"] == pytest.approx(ref["cost"])
        assert run["final_cost"] <= run["final_cost_with_prior"]

        with open(out / run["trace_file"]) as fh:
            first = fh.readline()
        assert first.startswith("# reference_cost=")

        written = json.loads((out / "manifest.json").read_text())
        assert written["runs"][0]["scheme"] == "qla"
        sweeps = written["runs"][0]["sweeps"]
        assert [s["sweep"] for s in sweeps] == [0, 1, 2, 3, 4]
        assert set(sweeps[0]) == {"sweep", "max_mean_change", "max_precision_change",
                                  "applied", "rejected", "scheme_failed", "repeated"}
        assert sweeps[0]["max_mean_change"] > sweeps[-1]["max_mean_change"] >= 0.0
        for run in written["runs"]:
            assert run["rejected_updates"] == sum(s["rejected"] for s in run["sweeps"])
            assert run["scheme_failures"] == sum(s["scheme_failed"] for s in run["sweeps"])

    def test_timing_is_per_computed_visit(self, tmp_path, monkeypatch):
        # vq on quasi 0-1 rejects every visit, so sweeps 1-4 repeat sweep 0
        traces = []
        real = bench.ep_run

        def ep_run(*args):
            state, trace = real(*args)
            traces.append(trace)
            return state, trace

        monkeypatch.setattr(bench, "ep_run", ep_run)
        config = RunConfig(
            dataset_path=bundled_synthetic_path(),
            schema=self.schema(),
            losses=(quasi01(0.1),),
            schemes=(SchemeKind(kind="vq"),),
            out_dir=tmp_path / "out",
            prior=PRIOR,
            timing_repetitions=1,
            with_references=False,
        )
        (run,) = run_experiment(config)["runs"]
        (trace,) = traces
        assert [s["repeated"] for s in run["sweeps"]] == [0, 31, 31, 31, 31]
        assert run["mean_ms_per_minibatch"] == trace.total_ms / 31
        with open(tmp_path / "out" / "timing.csv") as fh:
            (row,) = list(csv.DictReader(fh))
        assert float(row["mean_ms_per_minibatch"]) == pytest.approx(
            trace.total_ms / 31, rel=1e-5)

    @pytest.mark.parametrize("cost_every", [1, 3])
    def test_final_cost_is_the_cost_at_the_final_mean(self, small_csv, tmp_path,
                                                      monkeypatch, cost_every):
        """final_cost, read from the trace, equals total_cost at the run's
        final posterior mean bit for bit, also when the trace is thinned, and
        so do both costs with the prior term: the run's at its final mean,
        each reference's at its theta."""
        finals = {}
        real = bench.ep_run

        def ep_run(cfg, dataset):
            state, trace = real(cfg, dataset)
            finals[cfg.loss.name, cfg.scheme.kind] = cfg.loss, state.global_approx.mean, dataset
            return state, trace

        monkeypatch.setattr(bench, "ep_run", ep_run)
        config = RunConfig(
            dataset_path=small_csv,
            schema=self.schema(),
            losses=(logistic(), hinge(), quasi01(0.1)),
            schemes=tuple(SchemeKind(kind=k) for k in ("la", "qla", "gq", "vq")),
            out_dir=tmp_path / "out",
            prior=PRIOR,
            cost_every=cost_every,
            timing_repetitions=1,
        )
        manifest = run_experiment(config)
        assert len(manifest["runs"]) == 12
        for run in manifest["runs"]:
            loss, mean, dataset = finals[run["loss"], run["scheme"]]
            assert run["final_cost"] == total_cost(mean, dataset, loss)
            assert run["final_cost_with_prior"] == total_cost(mean, dataset, loss, PRIOR)
        assert manifest["references"].keys() == {"logistic", "hinge", "quasi01"}
        for loss in config.losses:
            ref = manifest["references"][loss.name]
            assert ref["cost"] == total_cost(ref["theta"], dataset, loss)
            assert ref["cost_with_prior"] == total_cost(ref["theta"], dataset, loss, PRIOR)

    def test_reference_computation_can_be_disabled(self, small_csv, tmp_path):
        config = RunConfig(
            dataset_path=small_csv,
            schema=self.schema(),
            losses=(hinge(),),
            schemes=(SchemeKind(kind="la"),),
            out_dir=tmp_path / "out",
            dataset_name="small",
            prior=PRIOR,
            timing_repetitions=1,
            with_references=False,
        )
        manifest = run_experiment(config)
        assert manifest["references"] == {}
        assert manifest["runs"][0]["reference_cost"] is None

    def test_failed_reference_is_recorded_and_the_runs_go_on(self, small_csv, tmp_path,
                                                             monkeypatch):
        def no_reference(*args):
            raise RuntimeError("logistic Newton did not reach the gradient tolerance")

        monkeypatch.setattr(bench, "reference_newton_logistic", no_reference)
        config = RunConfig(
            dataset_path=small_csv,
            schema=self.schema(),
            losses=(logistic(), hinge()),
            schemes=(SchemeKind(kind="qla"),),
            out_dir=tmp_path / "out",
            dataset_name="small",
            prior=PRIOR,
            timing_repetitions=1,
        )
        manifest = run_experiment(config)
        assert manifest["failures"] == [{
            "stage": "reference",
            "error": "logistic Newton did not reach the gradient tolerance"}]
        assert manifest["references"] == {}
        assert [(r["loss"], r["reference_cost"]) for r in manifest["runs"]] == [
            ("logistic", None), ("hinge", None)]

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError, match="loss"):
            RunConfig(dataset_path="x.csv", schema=self.schema(), losses=(),
                      schemes=(SchemeKind(kind="la"),), out_dir=tmp_path)
        with pytest.raises(ValueError, match="scheme"):
            RunConfig(dataset_path="x.csv", schema=self.schema(),
                      losses=(hinge(),), schemes=(), out_dir=tmp_path)
        with pytest.raises(ValueError, match="repetitions"):
            RunConfig(dataset_path="x.csv", schema=self.schema(),
                      losses=(hinge(),), schemes=(SchemeKind(kind="la"),),
                      out_dir=tmp_path, timing_repetitions=0)
        for name, value, message in [
            ("timing_repetitions", 2.5, "timing_repetitions must be an integer, not 2.5"),
            ("timing_repetitions", True, "timing_repetitions must be an integer, not True"),
            ("with_references", "no", "with_references must be a bool, not 'no'"),
            ("with_references", 1, "with_references must be a bool, not 1"),
        ]:
            with pytest.raises(ValueError, match=re.escape(message)):
                RunConfig(dataset_path="x.csv", schema=self.schema(),
                          losses=(hinge(),), schemes=(SchemeKind(kind="la"),),
                          out_dir=tmp_path, **{name: value})

    def test_timing_row_requires_positive_time(self):
        with pytest.raises(ValueError, match="positive"):
            TimingRow("d", 10, 2, 10, "hinge", "la", 0.0)
