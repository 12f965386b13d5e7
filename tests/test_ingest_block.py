"""load_csv's one-block numpy parse against its row loop.

``_load_rows`` is the oracle: on every table ``load_csv`` must return the
same columns (bit for bit, in C order), labels, names and dropped-row
count, or raise the same DataLoadError text.  The ``block`` flag says
whether the numpy parse serves the table itself or hands it to the loop.
A property test generates further tables, odd tokens and ragged rows
included, and checks the same equality wherever the block parse serves one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffep import ingest
from ffep.ingest import ColumnSchema, DataLoadError, load_csv

LABEL_MAP = {"1": 1, "0": -1}
BY_NAME = ColumnSchema(label="y", label_map=LABEL_MAP, numeric=("a", "b"))
BY_POSITION = ColumnSchema(label=2, label_map=LABEL_MAP, numeric=(0, 1), has_header=False)

TABLES = {
    # name: (file text, schema, served by the block parse)
    "plain": ("a,b,y\n1.5,-2,1\n3e-3,4,0\n-0.0,0.1,1\n", BY_NAME, True),
    "crlf": ("a,b,y\r\n1.5,-2,1\r\n3,4,0\r\n", BY_NAME, True),
    "blank_lines": ("\na,b,y\n\n1.5,-2,1\n\n3,4,0\n\n", BY_NAME, True),
    "padded_tokens": ("a , b , y\n 1.5 , -2 , 1 \n3 ,4,\t0\n", BY_NAME, True),
    "nan_and_inf": ("a,b,y\nnan,inf,1\n-inf,1e400,0\n", BY_NAME, False),
    "nan_token": ("a,b,y\n1.5,-2,1\n3,nan,0\n", BY_NAME, False),
    "minus_inf_token": ("a,b,y\n1.5,-2,1\n-inf,4,0\n", BY_NAME, False),
    "overflowing_token": ("a,b,y\n1.5,1e400,1\n3,4,0\n", BY_NAME, False),
    "nan_in_unused_column": ("a,c,b,y\n1,nan,2,1\n3,4,5,0\n", BY_NAME, True),
    "reordered_columns": ("y,b,a\n1,2,3\n0,4,5\n", BY_NAME, True),
    "no_header": ("1.5,-2,1\n3,4,0\n", BY_POSITION, True),
    "whitespace_only_line": ("a,b,y\n1.5,-2,1\n \n3,4,0\n", BY_NAME, False),
    "hash_leading_row": ("a,b,y\n1.5,-2,1\n#3,4,0\n", BY_NAME, False),
    "hash_leading_header": ("#a,b,y\n1.5,-2,1\n3,4,0\n",
                            ColumnSchema(label="y", label_map=LABEL_MAP,
                                         numeric=("#a", "b")), True),
    "quoted_numbers": ('a,b,y\n"1.5",-2,1\n3,"4","0"\n', BY_NAME, False),
    "underscore_digits": ("a,b,y\n1_0,-2,1\n3,4,0\n", BY_NAME, False),
    "non_ascii_digits": ("a,b,y\n١٢,-2,1\n3,４,0\n", BY_NAME, False),
    "missing_values": ("a,b,y\n1.5,?,1\n3,,0\n5,6,1\n7, ,0\n", BY_NAME, False),
    "all_rows_missing": ("a,b,y\n?,1,1\n2,,0\n", BY_NAME, False),
    "unknown_label": ("a,b,y\n1.5,-2,1\n3,4,7\n", BY_NAME, False),
    "non_numeric_token": ("a,b,y\n1.5,-2,1\n3,abc,0\n", BY_NAME, False),
    "hex_token": ("a,b,y\n0x10,-2,1\n", BY_NAME, False),
    "ragged_row": ("a,b,y\n1.5,-2,1\n3,4\n", BY_NAME, False),
    "long_row": ("a,b,y\n1.5,-2,1\n3,4,0,9\n", BY_NAME, False),
    "unused_text_column": ("a,name,b,y\n1,x,2,1\n3,z,4,0\n", BY_NAME, False),
    "label_also_a_feature": ("a,b,y\n1,2,1\n3,4,0\n",
                             ColumnSchema(label="y", label_map=LABEL_MAP,
                                          numeric=("a", "y")), False),
    "no_header_index_out_of_range": ("1.5,-2,1\n3,4,0\n",
                                     ColumnSchema(label=3, label_map=LABEL_MAP,
                                                  numeric=(0, 1), has_header=False),
                                     False),
    "unknown_column_name": ("a,b,y\n1,2,1\n",
                            ColumnSchema(label="y", label_map=LABEL_MAP,
                                         numeric=("a", "c")), False),
    "header_only": ("a,b,y\n", BY_NAME, False),
    "empty_file": ("", BY_NAME, False),
}


def outcome(fn, path, schema):
    try:
        return fn(path, schema)
    except DataLoadError as exc:
        return str(exc)


def assert_same_table(got, expect):
    assert got.columns.dtype == expect.columns.dtype == np.float64
    assert got.columns.shape == expect.columns.shape
    assert got.columns.tobytes() == expect.columns.tobytes()
    assert got.columns.flags.c_contiguous  # preprocess's column sums follow the layout
    assert got.labels.tobytes() == expect.labels.tobytes()
    assert got.column_names == expect.column_names
    assert got.n_dropped == expect.n_dropped


@pytest.mark.parametrize("name", sorted(TABLES))
def test_load_csv_matches_the_row_loop(tmp_path, name):
    text, schema, block = TABLES[name]
    path = tmp_path / f"{name}.csv"
    path.write_bytes(text.encode("utf-8"))
    expect = outcome(ingest._load_rows, path, schema)
    got = outcome(load_csv, path, schema)
    if isinstance(expect, str):
        assert got == expect
    else:
        assert_same_table(got, expect)
    if block:
        assert_same_table(ingest._load_block(path, schema), expect)
    else:
        with pytest.raises((ValueError, KeyError)):
            ingest._load_block(path, schema)


def test_missing_file_is_a_data_error(tmp_path):
    path = tmp_path / "absent.csv"
    with pytest.raises(DataLoadError, match="cannot read"):
        load_csv(path, BY_NAME)


def test_bundled_table_is_served_by_the_block():
    path, schema = ingest.bundled_synthetic_path(), ingest.bundled_synthetic_schema()
    assert_same_table(ingest._load_block(path, schema), ingest._load_rows(path, schema))


# tokens that read as one float, and tokens either parser may read differently
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["0", "-0", "2.5", "-3e-3", "1E3", ".5", "5.", "+5",
                     "0.1234567890123456789012345", "2.2250738585072011e-308"]),
)
ODD = ["nan", "NaN", "inf", "-Infinity", "1e400", "-1e400", "1e-400", "1_0", "#x",
       "?", "", " ", " 7 ", "\t4", "１", "٣", "0x10", '"1"', "abc", "1,5"]
LABELS_OK = st.sampled_from(["1", "0"])
LABELS = ["1", "0", " 1", "0 ", "7", "#x", "?", "", "１", '"1"']


@st.composite
def tables(draw):
    """CSV text and a schema: numeric columns a..c, label y and sometimes an
    unused column z, in any order, with a header or addressed by position;
    then up to three cells swapped for odd tokens, and ragged or blank lines."""
    names = ["a", "b", "c"][: draw(st.integers(1, 3))] + ["y"] + draw(
        st.sampled_from([[], ["z"]]))
    names = draw(st.permutations(names))
    rows = [[draw(LABELS_OK if n == "y" else NUMBERS) for n in names]
            for _ in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(0, 3))):
        r, c = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(names) - 1))
        rows[r][c] = draw(st.sampled_from(LABELS if names[c] == "y" else ODD))
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = draw(st.sampled_from([
            lines[i].rpartition(",")[0],  # one field short
            lines[i] + ",9",  # one field long
            "\n" + lines[i],  # a blank line before it
            " \n" + lines[i],  # a whitespace-only line before it
        ]))
    has_header = draw(st.booleans())
    if has_header:
        lines.insert(0, ",".join(names))
    columns = names if has_header else list(range(len(names)))
    numeric = [columns[names.index(n)] for n in "abc" if n in names]
    schema = ColumnSchema(label=columns[names.index("y")], label_map=LABEL_MAP,
                          numeric=draw(st.permutations(numeric)), has_header=has_header)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + end, schema


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(table=tables())
def test_block_parse_equals_the_row_loop_wherever_it_serves(tmp_path_factory, table):
    text, schema = table
    path = tmp_path_factory.getbasetemp() / "generated.csv"
    path.write_bytes(text.encode("utf-8"))
    try:
        got = ingest._load_block(path, schema)
    except (OSError, ValueError, KeyError):
        return  # load_csv hands the table to the row loop
    assert_same_table(got, ingest._load_rows(path, schema))
