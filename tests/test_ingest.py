"""Dataset loading, one-hot encoding, normalization, mini-batch partition."""

import numpy as np
import pytest

from ffep import ingest
from ffep.ingest import (
    ColumnSchema,
    DataLoadError,
    Dataset,
    bundled_synthetic_path,
    bundled_synthetic_schema,
    load_csv,
    partition,
    preprocess,
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


YESNO = {"yes": 1, "no": -1}


class TestLoadCsv:
    def test_labels_mapped(self, tmp_path):
        path = write(tmp_path, "x,cls\n1.0,yes\n2.0,no\n3.0,yes\n")
        table = load_csv(path, ColumnSchema(label="cls", label_map=YESNO,
                                            numeric=("x",)))
        np.testing.assert_array_equal(table.labels, [1.0, -1.0, 1.0])
        np.testing.assert_array_equal(table.columns[:, 0], [1.0, 2.0, 3.0])

    def test_one_hot_levels_sorted(self, tmp_path):
        path = write(tmp_path, "color,cls\na,yes\nb,no\na,yes\n")
        table = load_csv(path, ColumnSchema(label="cls", label_map=YESNO,
                                            categorical=("color",)))
        assert table.column_names == ("color=a", "color=b")
        np.testing.assert_array_equal(table.columns[:, 0], [1.0, 0.0, 1.0])
        np.testing.assert_array_equal(table.columns[:, 1], [0.0, 1.0, 0.0])
        assert np.all(table.columns.sum(axis=1) == 1.0)

    def test_non_numeric_token_names_the_row(self, tmp_path):
        path = write(tmp_path, "x,cls\n1.0,yes\noops,no\n")
        with pytest.raises(DataLoadError, match="row 3"):
            load_csv(path, ColumnSchema(label="cls", label_map=YESNO,
                                        numeric=("x",)))

    @pytest.mark.parametrize("token", ["nan", "-inf", "1e400"])
    @pytest.mark.parametrize("categorical", [(), ("color",)], ids=["numeric", "categorical"])
    def test_non_finite_token_names_the_row_and_column(self, tmp_path, token, categorical):
        # an all-numeric table is parsed as a block first, the other row by row
        path = write(tmp_path, f"x,z,color,cls\n1.0,2.0,a,yes\n3.0,{token},b,no\n")
        schema = ColumnSchema(label="cls", label_map=YESNO, numeric=("x", "z"),
                              categorical=categorical)
        with pytest.raises(DataLoadError,
                           match=f"row 3 has non-finite value '{token}' in column 'z'"):
            load_csv(path, schema)

    @pytest.mark.parametrize("numeric, categorical", [
        (("x", "cls"), ()), (("x",), ("cls",)), (("x", 1), ("color",)),
    ], ids=["numeric", "categorical", "by-position"])
    def test_label_named_as_a_feature_is_a_load_error(self, tmp_path, numeric, categorical):
        # all-numeric schemas go to the block parse first, the others to the row loop
        path = write(tmp_path, "x,cls,color\n1.0,yes,a\n2.0,no,b\n")
        schema = ColumnSchema(label="cls", label_map=YESNO, numeric=numeric,
                              categorical=categorical)
        with pytest.raises(DataLoadError, match="label column 'cls' is also a feature column"):
            load_csv(path, schema)

    @pytest.mark.parametrize("numeric", [("x", "cls"), ("x", "nope"), ("x", 7)],
                             ids=["label-as-feature", "unknown-column", "index-out-of-range"])
    def test_schema_error_fails_without_reading_the_rows(self, tmp_path, monkeypatch, numeric):
        # the block parse finds it from the header and first row, as the row loop would
        path = write(tmp_path, "x,cls\n1.0,yes\n2.0,no\n")
        schema = ColumnSchema(label="cls", label_map=YESNO, numeric=numeric)
        with pytest.raises(DataLoadError) as from_rows:
            ingest._load_rows(path, schema)

        def unreachable(*args):
            raise AssertionError("the row loop re-read a file whose schema failed")

        monkeypatch.setattr(ingest, "_load_rows", unreachable)
        with pytest.raises(DataLoadError) as from_block:
            load_csv(path, schema)
        assert str(from_block.value) == str(from_rows.value)

    def test_unknown_label_names_the_row(self, tmp_path):
        path = write(tmp_path, "x,cls\n1.0,maybe\n")
        with pytest.raises(DataLoadError, match="row 2.*maybe"):
            load_csv(path, ColumnSchema(label="cls", label_map=YESNO,
                                        numeric=("x",)))

    def test_missing_file_is_a_load_error(self, tmp_path):
        with pytest.raises(DataLoadError):
            load_csv(tmp_path / "absent.csv",
                     ColumnSchema(label="cls", label_map=YESNO, numeric=("x",)))

    def test_positional_addressing_without_header(self, tmp_path):
        path = write(tmp_path, "1.0,yes\n2.0,no\n")
        table = load_csv(path, ColumnSchema(label=1, label_map=YESNO,
                                            numeric=(0,), has_header=False))
        np.testing.assert_array_equal(table.labels, [1.0, -1.0])

    def test_named_column_requires_header(self, tmp_path):
        path = write(tmp_path, "1.0,yes\n")
        with pytest.raises(DataLoadError, match="no header"):
            load_csv(path, ColumnSchema(label="cls", label_map=YESNO,
                                        numeric=(0,), has_header=False))

    def test_missing_numeric_rows_dropped_and_counted(self, tmp_path):
        path = write(tmp_path, "x,cls\n1.0,yes\n?,no\n,no\n3.0,yes\n")
        table = load_csv(path, ColumnSchema(label="cls", label_map=YESNO,
                                            numeric=("x",)))
        assert table.n_dropped == 2
        np.testing.assert_array_equal(table.columns[:, 0], [1.0, 3.0])

    def test_missing_categorical_becomes_own_level(self, tmp_path):
        path = write(tmp_path, "color,cls\na,yes\n?,no\nb,yes\n")
        table = load_csv(path, ColumnSchema(label="cls", label_map=YESNO,
                                            categorical=("color",)))
        assert "color=?" in table.column_names
        assert table.n_dropped == 0

    def test_ragged_row_rejected(self, tmp_path):
        path = write(tmp_path, "x,cls\n1.0,yes\n2.0\n")
        with pytest.raises(DataLoadError, match="row 3"):
            load_csv(path, ColumnSchema(label="cls", label_map=YESNO,
                                        numeric=("x",)))

    def test_schema_must_name_features(self):
        with pytest.raises(ValueError):
            ColumnSchema(label="cls", label_map=YESNO)


class TestPreprocess:
    def test_small_column_worked_example(self, tmp_path):
        path = write(tmp_path, "x,cls\n1,yes\n2,no\n3,yes\n")
        ds = preprocess(load_csv(path, ColumnSchema(label="cls", label_map=YESNO,
                                                    numeric=("x",))))
        np.testing.assert_allclose(ds.features[:, 0],
                                   [-0.70711, 0.0, 0.70711], atol=5e-6)

    def test_constant_column_becomes_inert_zeros(self, tmp_path):
        path = write(tmp_path, "x,y,cls\n5,1,yes\n5,2,no\n5,3,yes\n")
        ds = preprocess(load_csv(path, ColumnSchema(label="cls", label_map=YESNO,
                                                    numeric=("x", "y"))))
        np.testing.assert_array_equal(ds.features[:, 0], 0.0)

    def test_baseline_column_appended_last(self, tmp_path):
        path = write(tmp_path, "x,cls\n1,yes\n2,no\n")
        ds = preprocess(load_csv(path, ColumnSchema(label="cls", label_map=YESNO,
                                                    numeric=("x",))))
        np.testing.assert_array_equal(ds.features[:, -1], 1.0)
        assert ds.feature_names[-1] == "baseline"

    def test_columns_centered_and_unit_norm(self):
        rng = np.random.default_rng(8)
        from ffep.ingest import RawTable
        table = RawTable(columns=rng.normal(size=(40, 5)) * 7.0 + 3.0,
                         column_names=tuple("abcde"),
                         labels=np.sign(rng.normal(size=40)))
        ds = preprocess(table)
        body = ds.features[:, :-1]
        np.testing.assert_allclose(body.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(np.linalg.norm(body, axis=0), 1.0, rtol=1e-9)

    def test_idempotent_on_normalized_columns(self):
        rng = np.random.default_rng(9)
        from ffep.ingest import RawTable
        raw = rng.normal(size=(30, 3))
        raw -= raw.mean(axis=0)
        raw /= np.linalg.norm(raw, axis=0)
        table = RawTable(columns=raw, column_names=("a", "b", "c"),
                         labels=np.sign(rng.normal(size=30)))
        ds = preprocess(table)
        np.testing.assert_allclose(ds.features[:, :-1], raw, atol=1e-9)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("loader", ["_load_block", "_load_rows"])
    @pytest.mark.parametrize("column", [
        ("1.5e308", "1.5e308", "-1e308", "5"),  # the mean overflows: a NaN column
        ("1e200", "-1e200", "1e200", "5"),  # the norm overflows: a zero column
    ], ids=["mean-overflows", "norm-overflows"])
    def test_overflowing_column_is_a_data_error(self, tmp_path, loader, column):
        """A finite table whose column overflows while it is centered and
        scaled is a data error naming the column, with no numpy warning."""
        rows = "".join(f"{a},{b},{cls}\n" for a, b, cls in
                       zip(column, "1234", ("yes", "no", "yes", "no")))
        path = write(tmp_path, "a,b,cls\n" + rows)
        table = getattr(ingest, loader)(path, ColumnSchema(label="cls", label_map=YESNO,
                                                           numeric=("a", "b")))
        assert np.isfinite(table.columns).all()
        with pytest.raises(DataLoadError, match="column 'a' overflows"):
            preprocess(table, name="big")

    def test_too_few_examples_rejected(self):
        from ffep.ingest import RawTable
        table = RawTable(columns=np.array([[1.0]]), column_names=("a",),
                         labels=np.array([1.0]))
        with pytest.raises(ValueError):
            preprocess(table)


def stacked_features(columns):
    """The reference features: centered columns, the nonzero ones divided by
    their norms, and the baseline stacked on as a new column."""
    X = columns - columns.mean(axis=0)
    norms = np.linalg.norm(X, axis=0)
    nonzero = norms > 0
    X[:, nonzero] /= norms[nonzero]
    return np.column_stack([X, np.ones(X.shape[0])])


class TestPreprocessBits:
    """The in-place table against the column_stack formula, bit for bit."""

    @pytest.mark.parametrize("constant", [False, True], ids=["varying", "constant"])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
    @pytest.mark.parametrize("d", [1, 2, 17])
    @pytest.mark.parametrize("n", [2, 3, 7, 1025, 3000])
    def test_signed_rows_match_the_stacked_formula(self, n, d, scale, constant):
        rng = np.random.default_rng(1000 * n + d)
        columns = rng.normal(size=(n, d)) * scale + 3.0 * scale
        if constant:
            columns[:, 0] = 4.0  # centers to exact zeros: a zero norm
        labels = rng.choice([-1.0, 1.0], size=n)
        ds = preprocess(ingest.RawTable(columns=columns, column_names=tuple(map(str, range(d))),
                                        labels=labels))
        features = stacked_features(columns)
        assert ds.signed_rows.tobytes() == (labels[:, None] * features).tobytes()
        assert ds.features.tobytes() == features.tobytes()


class TestPartition:
    def make_dataset(self, n):
        return Dataset(features=np.ones((n, 2)), labels=np.ones(n))

    def test_remainder_batch_kept(self):
        part = partition(self.make_dataset(306), 10)
        sizes = [len(b) for b in part]
        assert len(part) == 31
        assert sizes == [10] * 30 + [6]

    def test_single_batch(self):
        part = partition(self.make_dataset(10), 10)
        assert [len(b) for b in part] == [10]

    def test_small_remainder(self):
        part = partition(self.make_dataset(5), 2)
        assert [len(b) for b in part] == [2, 2, 1]

    def test_coverage_is_a_permutation(self):
        part = partition(self.make_dataset(53), 7)
        flat = np.concatenate(part)
        np.testing.assert_array_equal(np.sort(flat), np.arange(53))

    def test_default_order_is_dataset_order(self):
        part = partition(self.make_dataset(6), 4)
        np.testing.assert_array_equal(np.concatenate(part), np.arange(6))

    def test_out_of_range_batch_size_rejected(self):
        with pytest.raises(ValueError):
            partition(self.make_dataset(5), 0)
        with pytest.raises(ValueError):
            partition(self.make_dataset(5), 6)


class TestDatasetType:
    def test_labels_validated(self):
        with pytest.raises(ValueError):
            Dataset(features=np.ones((2, 1)), labels=np.array([1.0, 2.0]))

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            Dataset(features=np.ones((2, 1)), labels=np.ones(3))

    def test_holds_signed_rows_only(self):
        X = np.array([[1.5, -0.0], [0.0, 2.0], [-3.0, 1.0]])
        ds = Dataset(X, labels=[1, -1, -1])
        assert ds.signed_rows.tobytes() == (np.array([[1.0], [-1.0], [-1.0]]) * X).tobytes()
        assert not ds.signed_rows.flags.writeable
        assert not np.shares_memory(ds.signed_rows, X)
        assert ds.features.tobytes() == X.tobytes()  # the sign of each zero too
        assert (ds.n_examples, ds.dim) == X.shape


class TestBundledSynthetic:
    def test_loads_with_expected_shape(self):
        ds = preprocess(load_csv(bundled_synthetic_path(),
                                 bundled_synthetic_schema()), name="synthetic")
        assert ds.n_examples == 306
        assert ds.dim == 4
        assert set(np.unique(ds.labels)) == {-1.0, 1.0}
        np.testing.assert_array_equal(ds.features[:, -1], 1.0)
        body = ds.features[:, :-1]
        np.testing.assert_allclose(body.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(np.linalg.norm(body, axis=0), 1.0, rtol=1e-9)

    def test_partition_into_31_minibatches(self):
        ds = preprocess(load_csv(bundled_synthetic_path(),
                                 bundled_synthetic_schema()))
        assert len(partition(ds, 10)) == 31
