"""End-to-end tests of the command-line interface.

Exit-code contract: 0 success, 1 usage error (bad flags, bad config), 2 data
error (missing or malformed dataset), 3 when at least one configured run
failed while others may have succeeded.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ffep
from ffep import cli
from ffep.bench import RunConfig
from ffep.cli import main
from ffep.engine import EpConfig
from ffep.ingest import bundled_synthetic_path
from ffep.losses import LossKind
from ffep.schemes import SchemeKind


@pytest.fixture()
def small_csv(tmp_path):
    lines = open(bundled_synthetic_path()).read().splitlines()
    path = tmp_path / "small.csv"
    path.write_text("\n".join(lines[:41]) + "\n")
    return path


# a ``dataset_keys`` value that removes the key from the dataset section
MISSING = object()


def write_config(tmp_path, small_csv, dataset_keys=(), **overrides):
    """A config over ``small_csv``; ``dataset_keys`` changes single keys of
    its dataset section, the overrides replace whole top-level keys."""
    section = {
        "path": str(small_csv),
        "label": "status",
        "label_map": {"1": 1, "2": -1},
        "numeric": ["age", "year", "nodes"],
        "name": "small",
        **dict(dataset_keys),
    }
    cfg = {
        "dataset": {k: v for k, v in section.items() if v is not MISSING},
        "losses": ["logistic"],
        "schemes": ["qla"],
        "timing_repetitions": 1,
        "out": str(tmp_path / "results"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestRunCommand:
    def test_config_file_run_writes_all_outputs(self, tmp_path, small_csv, capsys):
        cfg = write_config(tmp_path, small_csv)
        assert main(["run", "--config", str(cfg)]) == 0
        out = tmp_path / "results"
        assert (out / "small_logistic_qla.trace.csv").exists()
        assert (out / "timing.csv").exists()
        assert (out / "manifest.json").exists()
        stdout = capsys.readouterr().out
        assert "final_cost=" in stdout
        assert "wrote 1 trace file(s)" in stdout

    def test_flags_override_the_config(self, tmp_path, small_csv):
        cfg = write_config(tmp_path, small_csv)
        out = tmp_path / "override"
        code = main(["run", "--config", str(cfg), "--loss", "hinge",
                     "--scheme", "la,qla", "--out", str(out)])
        assert code == 0
        names = sorted(p.name for p in out.glob("*.trace.csv"))
        assert names == ["small_hinge_la.trace.csv", "small_hinge_qla.trace.csv"]

    def test_defaults_to_the_bundled_dataset(self, tmp_path):
        out = tmp_path / "results"
        code = main(["run", "--loss", "logistic", "--scheme", "qla",
                     "--sweeps", "1", "--out", str(out)])
        assert code == 0
        assert (out / "synthetic306_logistic_qla.trace.csv").exists()

    def test_integer_real_settings_are_read_as_numbers(self, tmp_path, small_csv):
        cfg = write_config(tmp_path, small_csv, beta=2, prior_variance=4, epsilon=1,
                           newton_tol=1, gamma=3, losses=["quasi01"], schemes=["la", "vq"])
        assert main(["run", "--config", str(cfg)]) == 0
        manifest = json.loads((tmp_path / "results" / "manifest.json").read_text())
        assert manifest["protocol"]["beta"] == 2.0
        assert manifest["protocol"]["prior_variance"] == 4.0
        assert manifest["failures"] == []

    def test_an_empty_config_takes_the_owners_defaults(self):
        config = cli._build_run_config(cli._build_parser().parse_args(["run"]))
        assert config == RunConfig(
            dataset_path=config.dataset_path,
            schema=config.schema,
            losses=(LossKind("logistic"), LossKind("hinge"), LossKind("quasi01")),
            schemes=tuple(SchemeKind(k) for k in ("la", "qla", "gq", "vq")),
            out_dir="results",
            dataset_name="synthetic306",
        )
        assert config.ep_config == EpConfig(scheme=SchemeKind("la"), loss=LossKind("logistic"))

    def test_unknown_flag_exits_with_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--bogus"])
        assert exc.value.code == 1

    def test_unknown_scheme_name_is_a_usage_error(self, tmp_path, small_csv, capsys):
        cfg = write_config(tmp_path, small_csv)
        assert main(["run", "--config", str(cfg), "--scheme", "newton"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_config_key_is_a_usage_error(self, tmp_path, small_csv):
        cfg = write_config(tmp_path, small_csv, sweeeps=3)
        assert main(["run", "--config", str(cfg)]) == 1

    def test_missing_config_file_is_a_usage_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1

    def test_malformed_config_file_is_a_usage_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 1

    def test_missing_dataset_file_is_a_data_error(self, tmp_path, small_csv, capsys):
        cfg = write_config(tmp_path, small_csv)
        small_csv.unlink()
        assert main(["run", "--config", str(cfg)]) == 2
        assert "data error" in capsys.readouterr().err

    def test_headerless_file_takes_column_positions(self, tmp_path, small_csv):
        lines = small_csv.read_text().splitlines()
        small_csv.write_text("\n".join(lines[1:]) + "\n")
        header = lines[0].split(",")
        positions = {"label": header.index("status"),
                     "numeric": [header.index(c) for c in ("age", "year", "nodes")]}
        cfg = write_config(tmp_path, small_csv,
                           dataset_keys={"has_header": False, **positions})
        assert main(["run", "--config", str(cfg)]) == 0
        manifest = json.loads((tmp_path / "results" / "manifest.json").read_text())
        assert manifest["dataset"]["n_examples"] == 40

    def test_failed_runs_exit_with_code_three(self, tmp_path, small_csv, capsys):
        # Batches larger than the 40-row table fail every run, once it is read.
        cfg = write_config(tmp_path, small_csv, batch_size=41)
        assert main(["run", "--config", str(cfg)]) == 3
        assert "FAILED" in capsys.readouterr().err

    def test_run_never_imports_scipy(self, tmp_path):
        # every loss and scheme, so the Newton, box-QP and Powell references all run
        out = tmp_path / "results"
        script = (
            "import sys\n"
            "from ffep.cli import main\n"
            "code = main(['run', '--loss', 'logistic,hinge,quasi01',\n"
            "             '--scheme', 'la,qla,gq,vq', '--sweeps', '1',\n"
            f"             '--out', {str(out)!r}])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "sys.exit(code)\n"
        )
        src = str(Path(ffep.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert len(list(out.glob("*.trace.csv"))) == 12
        assert json.loads((out / "manifest.json").read_text())["references"].keys() \
            == {"logistic", "hinge", "quasi01"}
        assert proc.stdout.splitlines()[-1] == "[]"


class TestReferenceCommand:
    def test_writes_references_json(self, tmp_path, small_csv, capsys):
        cfg = write_config(tmp_path, small_csv,
                           losses=["logistic", "hinge"])
        assert main(["reference", "--config", str(cfg)]) == 0
        data = json.loads((tmp_path / "results" / "references.json").read_text())
        assert data["dataset"] == "small"
        logistic_ref = data["references"]["logistic"]
        assert logistic_ref["converged"]
        assert np.isfinite(logistic_ref["cost"])
        assert len(logistic_ref["theta"]) == 4  # three features plus baseline
        assert logistic_ref["duality_gap"] is None
        hinge_ref = data["references"]["hinge"]
        assert hinge_ref["converged"]
        assert abs(hinge_ref["duality_gap"]) <= 1e-12
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split()[-1] == "duality_gap=n/a"
        assert lines[1].split()[0] == "hinge"
        assert float(lines[1].split("duality_gap=")[1]) == pytest.approx(
            hinge_ref["duality_gap"], rel=1e-2, abs=0.0)

    def test_failed_reference_exits_three_without_a_traceback(self, tmp_path, small_csv,
                                                              capsys, monkeypatch):
        def failing(*args):
            raise RuntimeError("logistic Newton did not reach the gradient tolerance")

        monkeypatch.setattr(cli, "_compute_references", failing)
        cfg = write_config(tmp_path, small_csv)
        assert main(["reference", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err == (
            "FAILED: {'stage': 'reference', 'error': "
            "'logistic Newton did not reach the gradient tolerance'}\n")
        assert not (tmp_path / "results" / "references.json").exists()

    def test_accepts_the_bundled_dataset_token(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "dataset": {
                "path": "bundled:synthetic",
                "label": "status",
                "label_map": {"1": 1, "2": -1},
                "numeric": ["age", "year", "nodes"],
                "name": "synthetic",
            },
            "losses": ["logistic"],
            "out": str(tmp_path / "results"),
        }))
        assert main(["reference", "--config", str(cfg)]) == 0
        assert (tmp_path / "results" / "references.json").exists()


# (id, flags, config overrides, message): settings both subcommands read
BAD_SETTINGS = [
    ("unknown-loss", ["--loss", "foo"], {}, "unknown loss 'foo'"),
    ("zero-epsilon", [], {"losses": ["quasi01"], "epsilon": 0}, "epsilon must be positive"),
    ("negative-prior-variance", [], {"prior_variance": -1}, "prior variance must be positive"),
    ("null-prior-variance", [], {"prior_variance": None},
     "'prior_variance' must be a number, not None"),
    ("string-prior-variance", [], {"prior_variance": "4"},
     "'prior_variance' must be a number, not '4'"),
    ("bool-prior-variance", [], {"prior_variance": True},
     "'prior_variance' must be a number, not True"),
    ("huge-prior-variance", [], {"prior_variance": 10**400}, "too large to convert to float"),
    ("string-epsilon", [], {"losses": ["quasi01"], "epsilon": "0.1"},
     "'epsilon' must be a number, not '0.1'"),
    ("bool-epsilon", [], {"losses": ["quasi01"], "epsilon": True},
     "'epsilon' must be a number, not True"),
    ("losses-not-a-list", [], {"losses": "hinge"}, "'losses' must be a list of names"),
    ("int-out", [], {"out": 5}, "'out' must be a string, not 5"),
    ("string-has-header", [], {"dataset_keys": {"has_header": "no"}},
     "'dataset.has_header' must be true or false, not 'no'"),
    ("float-label-map", [], {"dataset_keys": {"label_map": {"1": 1.7, "2": -1}}},
     "'dataset.label_map' must be an object of integers, not {'1': 1.7, '2': -1}"),
    ("bool-label-map", [], {"dataset_keys": {"label_map": {"1": True, "2": -1}}},
     "'dataset.label_map' must be an object of integers, not {'1': True, '2': -1}"),
    ("out-of-range-label-map", [], {"dataset_keys": {"label_map": {"1": 2, "2": -1}}},
     "label_map values must be +1 or -1"),
    ("bool-label", [], {"dataset_keys": {"label": True}},
     "'dataset.label' must be a column name or position, not True"),
    ("string-numeric", [], {"dataset_keys": {"numeric": "age"}},
     "'dataset.numeric' must be a list of columns, not 'age'"),
    ("bool-categorical", [], {"dataset_keys": {"categorical": [False]}},
     "'dataset.categorical' must be a list of columns, not [False]"),
    ("int-path", [], {"dataset_keys": {"path": 7}}, "'dataset.path' must be a string, not 7"),
    ("int-name", [], {"dataset_keys": {"name": 5}},
     "'dataset.name' must be a string or null, not 5"),
    ("missing-label", [], {"dataset_keys": {"label": MISSING}},
     "config key 'dataset.label' is missing"),
    ("unknown-dataset-key", [], {"dataset_keys": {"has_headr": False}},
     "unknown dataset keys: has_headr"),
    ("dataset-not-an-object", [], {"dataset": "small.csv"},
     "config key 'dataset' must be an object, not 'small.csv'"),
]
# settings only ``ffep run`` reads: the schemes and the EP protocol
BAD_RUN_SETTINGS = [
    ("zero-batch-size", ["--batch-size", "0"], {}, "batch_size must be at least 1"),
    ("zero-sweeps", ["--sweeps", "0"], {}, "n_sweeps must be at least 1"),
    ("zero-beta", [], {"beta": 0}, "beta must be positive"),
    ("zero-cost-every", [], {"cost_every": 0}, "cost_every must be at least 1"),
    ("streaming-sweeps", ["--mode", "streaming", "--sweeps", "3"], {},
     "streaming mode is a single pass"),
    ("string-gamma", [], {"gamma": "x"}, "'gamma' must be a number or null, not 'x'"),
    ("bool-gamma", [], {"gamma": True}, "'gamma' must be a number or null, not True"),
    ("bool-beta", [], {"beta": True}, "'beta' must be a number, not True"),
    ("string-beta", [], {"beta": "2"}, "'beta' must be a number, not '2'"),
    ("null-beta", [], {"beta": None}, "'beta' must be a number, not None"),
    ("huge-beta", [], {"beta": 10**400}, "too large to convert to float"),
    ("string-newton-tol", [], {"newton_tol": "1e-5"},
     "'newton_tol' must be a number, not '1e-5'"),
    ("bool-newton-tol", [], {"newton_tol": False}, "'newton_tol' must be a number, not False"),
    ("schemes-not-a-list", [], {"schemes": "la"}, "'schemes' must be a list of names"),
    ("float-sweeps", [], {"sweeps": 1.5}, "'sweeps' must be an integer or null, not 1.5"),
    ("bool-sweeps", [], {"sweeps": True}, "'sweeps' must be an integer or null, not True"),
    ("float-batch-size", [], {"batch_size": 2.5}, "'batch_size' must be an integer, not 2.5"),
    ("string-batch-size", [], {"batch_size": "10"},
     "'batch_size' must be an integer, not '10'"),
    ("float-cost-every", [], {"cost_every": 2.5}, "'cost_every' must be an integer, not 2.5"),
    ("float-timing-repetitions", [], {"timing_repetitions": 1.5},
     "'timing_repetitions' must be an integer, not 1.5"),
    ("string-references", [], {"references": "no"},
     "'references' must be true or false, not 'no'"),
    ("integer-references", [], {"references": 0},
     "'references' must be true or false, not 0"),
]


class TestBadSettingsAreUsageErrors:
    """Bad settings are usage errors, reported before any data is read."""

    @pytest.mark.parametrize("command, flags, overrides, message", [
        pytest.param(command, flags, overrides, message, id=f"{name}-{command}")
        for name, flags, overrides, message in BAD_SETTINGS
        for command in ("run", "reference")
    ] + [
        pytest.param("run", flags, overrides, message, id=f"{name}-run")
        for name, flags, overrides, message in BAD_RUN_SETTINGS
    ])
    def test_exits_one_with_a_message(self, tmp_path, small_csv, capsys,
                                      command, flags, overrides, message):
        cfg = write_config(tmp_path, small_csv, **overrides)
        assert main([command, "--config", str(cfg)] + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("ffep: error: ")
        assert message in err
        assert not (tmp_path / "results").exists()


class TestTooFewRowsIsADataError:
    """A table with fewer than two usable rows cannot be standardized."""

    @pytest.mark.parametrize("command", ["run", "reference"])
    def test_one_row_table_exits_two(self, tmp_path, small_csv, capsys, command):
        small_csv.write_text("\n".join(small_csv.read_text().splitlines()[:2]) + "\n")
        cfg = write_config(tmp_path, small_csv)
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ffep: data error: ")
        assert "need at least 2 usable rows" in err


class TestNonFiniteValueIsADataError:
    """A nan, inf or overflowing token is named, not read as a number."""

    @pytest.mark.parametrize("token", ["nan", "-inf", "1e400"])
    @pytest.mark.parametrize("command", ["run", "reference"])
    def test_exits_two_naming_the_row_and_column(self, tmp_path, small_csv, capsys,
                                                 command, token):
        lines = small_csv.read_text().splitlines()
        header = lines[0].split(",")
        row = lines[5].split(",")
        row[header.index("age")] = token
        lines[5] = ",".join(row)
        small_csv.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, small_csv)
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ffep: data error: ")
        assert f"row 6 has non-finite value '{token}' in column 'age'" in err
        assert not any((tmp_path / "results").rglob("*.json"))  # no manifest, no references


class TestOverflowingColumnIsADataError:
    """A finite column that overflows when centered and scaled is named."""

    @pytest.mark.parametrize("path", ["block", "rows"])
    @pytest.mark.parametrize("command", ["run", "reference"])
    def test_exits_two_naming_the_column(self, tmp_path, small_csv, capsys, command, path):
        lines = ["age,year,nodes,status", "1.5e308,60,1,1", "1.5e308,61,2,2",
                 "-1e308,62,3,1", "5,63,4,2"]
        if path == "rows":  # a missing value sends the table to the row loop
            lines.append("30,?,0,1")
        small_csv.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, small_csv)
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ffep: data error: ")
        assert "column 'age' overflows" in err
        assert not any((tmp_path / "results").rglob("*.json"))


class TestReportCommand:
    def timing_lines(self, scheme):
        return (
            "dataset,N,d,s,loss,scheme,mean_ms_per_minibatch\n"
            f"toy,40,4,10,logistic,{scheme},0.5\n"
        )

    def test_merges_timing_tables(self, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        (tmp_path / "a" / "timing.csv").write_text(self.timing_lines("la"))
        (tmp_path / "b" / "timing.csv").write_text(self.timing_lines("vq"))
        assert main(["report", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("dataset,")
        assert sum("toy,40,4,10,logistic" in line for line in out) == 2

    def test_foreign_table_is_a_data_error_before_any_output(self, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        (tmp_path / "a" / "timing.csv").write_text(self.timing_lines("la"))
        foreign = tmp_path / "b" / "timing.csv"
        foreign.write_text("dataset,N\ntoy,40\n")
        assert main(["report", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(foreign) in captured.err
        assert "'d'" in captured.err
        assert "Traceback" not in captured.err

    def test_short_row_is_a_data_error(self, tmp_path, capsys):
        table = tmp_path / "timing.csv"
        table.write_text(self.timing_lines("la") + "toy,40,4,10,logistic\n")
        assert main(["report", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(table) in captured.err
        assert "row 3" in captured.err
        assert "'scheme'" in captured.err

    def test_empty_directory_is_a_data_error(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path)]) == 2
        assert "no timing.csv" in capsys.readouterr().err


class TestConsoleScript:
    """The ``ffep`` console script declared in pyproject.toml.

    The declared entry point is run the way an installer's wrapper runs it,
    against the checkout under test, so the test needs no install; an
    ``ffep`` script on PATH, where one exists, is run as well.
    """

    @staticmethod
    def assert_help_lists_subcommands(cmd, **kwargs):
        proc = subprocess.run(cmd + ["--help"], capture_output=True, text=True, **kwargs)
        assert proc.returncode == 0, proc.stderr
        # the subcommand choice list; bare words would also match the description
        assert "{run,reference,report}" in proc.stdout

    def test_entry_point_prints_subcommands(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        spec = tomllib.loads(pyproject.read_text())["project"]["scripts"]["ffep"]
        module, attr = (part.strip() for part in spec.split(":"))
        wrapper = (
            "import sys\n"
            "sys.argv[0] = 'ffep'\n"
            f"from {module} import {attr}\n"
            f"sys.exit({attr}())\n"
        )
        src = str(Path(ffep.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        self.assert_help_lists_subcommands(
            [sys.executable, "-c", wrapper], env=env, cwd=tmp_path
        )

        exe = shutil.which("ffep")
        if exe is not None:
            self.assert_help_lists_subcommands([exe])
