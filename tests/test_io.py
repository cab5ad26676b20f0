import csv
import io
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dettree import (
    BuildConfig,
    DetTree,
    Ensemble,
    MarginalOrder,
    build_tree,
    read_csv,
    read_tree,
    write_csv,
    write_tree,
)
from dettree.build import MAX_DEPTH_LIMIT
from dettree.io import CsvFormatError, TreeDocumentError, document_to_tree, tree_to_document

from conftest import build_random_tree, leaf_tree, reference_read_csv


class TestReadCsv:
    def test_header_detected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        ens = read_csv(path)
        assert ens.column_names == ("a", "b")
        assert np.array_equal(ens.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_no_header_gets_default_names(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2\n3,4\n")
        ens = read_csv(path)
        assert ens.column_names == ("x1", "x2")
        assert ens.n == 2

    def test_missing_field_names_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,c\n1,2,3\n1,,3\n")
        with pytest.raises(CsvFormatError, match="row 3"):
            read_csv(path)

    def test_ragged_row_names_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2\n3,4,5\n")
        with pytest.raises(CsvFormatError, match="row 2"):
            read_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError, match="empty"):
            read_csv(path)

    def test_header_without_rows(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n")
        with pytest.raises(CsvFormatError):
            read_csv(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2\n3,inf\n")
        with pytest.raises(CsvFormatError, match="row 2"):
            read_csv(path)

    def test_round_trip_preserves_bits(self, tmp_path):
        rng = np.random.default_rng(44)
        pts = rng.standard_normal((50, 3)) * np.array([1e-7, 1.0, 1e9])
        path = tmp_path / "data.csv"
        write_csv(path, pts, ["a", "b", "c"])
        ens = read_csv(path)
        assert np.array_equal(ens.data, pts)
        assert ens.column_names == ("a", "b", "c")

    def test_byte_order_mark_skipped_without_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes("\ufeff1,2\n3,4\n5,6\n".encode("utf-8"))
        ens = read_csv(path)
        assert ens.n == 3
        assert ens.column_names == ("x1", "x2")
        assert np.array_equal(ens.data, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

    def test_byte_order_mark_skipped_before_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes("\ufeffa,b\n1,2\n".encode("utf-8"))
        ens = read_csv(path)
        assert ens.column_names == ("a", "b")
        assert np.array_equal(ens.data, [[1.0, 2.0]])

    def test_quoted_numeric_fields_parse(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text('"a","b"\n"1.5",2\n3,"-4e-3"\n')
        ens = read_csv(path)
        assert ens.column_names == ("a", "b")
        assert np.array_equal(ens.data, [[1.5, 2.0], [3.0, -4e-3]])

    def test_crlf_line_endings_parse(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"a,b\r\n1,2\r\n3,4\r\n")
        ens = read_csv(path)
        assert ens.column_names == ("a", "b")
        assert np.array_equal(ens.data, [[1.0, 2.0], [3.0, 4.0]])


BAD_ROWS = {
    "non-numeric": ("1,x,3", "contains a non-numeric field"),
    "ragged": ("1,2", "has 2 fields, expected 3"),
    "inf": ("1,inf,3", "contains a non-finite value"),
    "nan": ("nan,2,3", "contains a non-finite value"),
    "blank line": ("", "has 0 fields, expected 3"),
}


# a number 131,073 characters long: one more than the csv module's default field size limit
_LONG_FIELD = "0" * 131_072 + "1"


class TestReadCsvOverLongField:
    @pytest.mark.parametrize("row", [1, 2, 3])
    def test_names_the_row(self, tmp_path, row):
        lines = ["a,b", "1,2", "3,4", "5,6"]
        lines[row - 1] = f"7,{_LONG_FIELD}"
        path = tmp_path / "data.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CsvFormatError, match=rf": row {row} cannot be parsed: field larger than field limit"):
            read_csv(path)

    def test_after_a_bad_row_names_the_over_long_row(self, tmp_path):
        # as with undecodable bytes, a row the csv module refuses is reported before a malformed row
        path = tmp_path / "data.csv"
        path.write_text(f"1,2\n3\n4,{_LONG_FIELD}\n")
        with pytest.raises(CsvFormatError, match=": row 3 cannot be parsed"):
            read_csv(path)

    def test_cli_exits_2(self, tmp_path, capsys):
        from dettree.cli import main

        path = tmp_path / "data.csv"
        path.write_text(f"x1\n1\n{_LONG_FIELD}\n")
        assert main(["build", "--in", str(path), "--out", str(tmp_path / "tree.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "row 3 cannot be parsed" in err and "Traceback" not in err
        assert not (tmp_path / "tree.json").exists()


class TestReadCsvLargeFileErrors:
    """The whole-file parse falls back to a row scan only to name the first
    bad row; the 1-based row number must count the header like any row."""

    @pytest.mark.parametrize("kind", sorted(BAD_ROWS))
    @pytest.mark.parametrize("header", [False, True])
    def test_bad_row_named_exactly(self, tmp_path, kind, header):
        bad, message = BAD_ROWS[kind]
        lines = ["0.5,-1.25,3e8"] * 100_000
        if header:
            lines[0] = "a,b,c"
        lines[50_000] = bad  # file line 50,001
        lines.append("7,x,9")  # a later bad row must not be the one reported
        path = tmp_path / "data.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CsvFormatError, match=rf": row 50001 {message}$"):
            read_csv(path)


# CSV fields: numbers most of the time, else text that float() or csv.reader
# treats specially (blanks, whitespace, underscores, quotes, junk, non-finite)
_NUMBER = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr), st.integers(-10**6, 10**6).map(str))
_ODD_FIELD = st.sampled_from(["", " ", " 1.5 ", "\t2", "1_000", "1__0", "_1", "x", "a b", "1e", "0x10", "inf", "-inf",
                              "nan", "NaN", "1e999", '"2.5"', '" 3 "', '"a,b"', '""', 'x"y'])
_FIELD = st.one_of(_NUMBER, _NUMBER, _NUMBER, _ODD_FIELD)


@st.composite
def csv_texts(draw) -> str:
    """CSV text with an optional header, rows mostly of one width, blank
    lines anywhere, any line end and an optional byte-order mark."""
    width = draw(st.integers(1, 4))
    row = st.one_of(st.lists(_FIELD, min_size=width, max_size=width), st.lists(_FIELD, max_size=5))
    lines = [",".join(fields) for fields in draw(st.lists(row, max_size=12))]
    if draw(st.booleans()):
        lines.insert(0, ",".join(draw(st.lists(st.sampled_from(["a", "b", " c ", '"d,e"', "1"]),
                                               min_size=width, max_size=width))))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = eol.join(lines) + (eol if lines and draw(st.booleans()) else "")
    return ("\ufeff" if draw(st.booleans()) else "") + text


def _read_outcome(reader, path):
    """The bits, shape and names an ensemble reads as, or its error."""
    try:
        ens = reader(path)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return ens.data.tobytes(), ens.data.shape, ens.column_names


class TestReadCsvMatchesListReader:
    """The streaming reader against the list-based reader it replaced."""

    @settings(max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=csv_texts())
    @example(text="1,2\n3,inf\n4\n")  # a non-finite row before a ragged row
    @example(text="a,b\n")  # a header without rows
    @example(text="a,b\r\n\r\n")  # a header, then only a blank line
    @example(text="\n1,2\n3,4\n")  # a blank first line
    @example(text="\n\r\n\n")  # only blank lines
    @example(text="\ufeff")
    @example(text="1,2\n3,4\n\n")  # a trailing blank line
    def test_same_bits_names_and_errors(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _read_outcome(read_csv, path) == _read_outcome(reference_read_csv, path)

    def test_undecodable_bytes_after_a_bad_row_raise_the_decoding_error(self, tmp_path):
        # the list-based reader decoded the whole file before it parsed a row
        path = tmp_path / "data.csv"
        path.write_bytes(b"1,2\n3\n" + b"4,5\n" * 5000 + b"6,\xff\n")
        with pytest.raises(UnicodeDecodeError) as expected:
            reference_read_csv(path)
        with pytest.raises(UnicodeDecodeError) as got:
            read_csv(path)
        assert str(got.value) == str(expected.value)

    def test_peak_memory_is_the_output_plus_a_row(self, tmp_path):
        rng = np.random.default_rng(17)
        pts = rng.standard_normal((100_000, 3))
        path = tmp_path / "data.csv"
        write_csv(path, pts, ["a", "b", "c"])
        tracemalloc.start()
        try:
            ens = read_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(ens.data, pts)
        # the list-based reader held every row as Python strings: about 36 MB here
        assert peak <= 2 * pts.nbytes + 2**20


def _csv_writer_bytes(points, names) -> bytes:
    """The csv.writer formulation write_csv must reproduce byte for byte."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(names))
    for row in points:
        writer.writerow([repr(float(v)) for v in row])
    return buf.getvalue().encode()


AWKWARD = [5e-324, -0.0, 0.1, 1e16, 1e-07, 2.0**53 + 2, -1.7976931348623157e308]


class TestWriteCsv:
    def test_awkward_values_match_csv_writer(self, tmp_path):
        pts = np.array(AWKWARD + [0.0, 1.0]).reshape(3, 3)
        path = tmp_path / "out.csv"
        write_csv(path, pts, ["a", "b", "c"])
        assert path.read_bytes() == _csv_writer_bytes(pts, ["a", "b", "c"])
        assert np.array_equal(read_csv(path).data, pts)

    def test_many_blocks_match_csv_writer(self, tmp_path):
        # more rows than one formatting block, with awkward values scattered in
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((20_001, 2)) * 10.0 ** rng.integers(-300, 300, size=(20_001, 2))
        pts.ravel()[rng.choice(pts.size, len(AWKWARD), replace=False)] = AWKWARD
        path = tmp_path / "out.csv"
        write_csv(path, pts, ["u", "v"])
        assert path.read_bytes() == _csv_writer_bytes(pts, ["u", "v"])

    def test_header_needing_quotes_written_by_csv_writer(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, np.ones((1, 2)), ["a,b", 'say "hi"'])
        assert path.read_bytes() == _csv_writer_bytes(np.ones((1, 2)), ["a,b", 'say "hi"'])

    def test_zero_rows_write_header_only(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, np.empty((0, 3)), ["a", "b", "c"])
        assert path.read_bytes() == b"a,b,c\n"

    def test_one_dimensional_points_rejected(self, tmp_path):
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match="2-D"):
            write_csv(path, np.array([1.0, 2.0, 3.0]), ["a"])
        assert not path.exists()

    def test_name_count_must_match_columns(self, tmp_path):
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match="2 names for 3 columns"):
            write_csv(path, np.ones((4, 3)), ["a", "b"])
        assert not path.exists()


class TestTreeDocuments:
    def test_single_leaf_document_shape(self):
        tree = build_tree(Ensemble(np.array([[0.0], [1.0]])), BuildConfig())
        doc = tree_to_document(tree)
        assert doc["formatVersion"] == 1
        assert "count" in doc["root"] and "children" not in doc["root"]

    def test_round_trip_bit_exact(self, tmp_path):
        # clustered data forces a deep tree with >1000 leaves
        rng = np.random.default_rng(7)
        centers = rng.uniform(-5.0, 5.0, size=(60, 3))
        data = np.vstack([c + 0.05 * rng.standard_normal((800, 3)) for c in centers])
        tree = build_tree(Ensemble(data), BuildConfig(alpha=0.05, min_leaf_count=5))
        assert sum(1 for _ in tree.iter_leaves()) >= 1000
        path = tmp_path / "tree.json"
        write_tree(path, tree)
        first = path.read_bytes()
        loaded = read_tree(path)
        write_tree(path, loaded)
        assert path.read_bytes() == first

    def test_round_trip_preserves_evaluation(self, tmp_path):
        from dettree import det_density_many

        tree = build_random_tree(8, n=5000, d=2)
        path = tmp_path / "tree.json"
        write_tree(path, tree)
        loaded = read_tree(path)
        rng = np.random.default_rng(9)
        root = tree.root.cuboid
        pts = rng.uniform(root.lower, root.upper, size=(200, 2))
        assert np.array_equal(det_density_many(tree, pts), det_density_many(loaded, pts))

    def test_theta_out_of_range_rejected(self, tmp_path):
        tree = build_random_tree(10, n=500, d=1)
        doc = tree_to_document(tree)
        record = doc["root"]
        while "children" in record:
            record = record["children"][0]
        record["theta"] = [1.5]
        with pytest.raises(TreeDocumentError, match="theta"):
            document_to_tree(doc)

    def test_unknown_format_version(self):
        tree = build_random_tree(11, n=100, d=1)
        doc = tree_to_document(tree)
        doc["formatVersion"] = 99
        with pytest.raises(TreeDocumentError, match="formatVersion"):
            document_to_tree(doc)

    def test_tampered_split_position_rejected(self):
        tree = build_random_tree(12, n=5000, d=2)
        doc = tree_to_document(tree)
        assert "split" in doc["root"], "expected a split at the root for this seed"
        doc["root"]["split"]["position"] *= 1.01
        with pytest.raises(TreeDocumentError):
            document_to_tree(doc)

    def test_position_off_the_shared_face_names_the_record(self):
        doc = tree_to_document(build_random_tree(12, n=5000, d=2))
        record, where = doc["root"], "root"
        while "split" in record["children"][1]:
            record, where = record["children"][1], where + ".children[1]"
        assert where != "root", "expected a split below the root for this seed"
        record["split"]["position"] = record["lower"][record["split"]["dim"]]
        with pytest.raises(TreeDocumentError, match=rf"^{re.escape(where)}: split position is not its lower child's"):
            document_to_tree(doc)

    def test_corrupt_json_reports_location(self, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text('{"formatVersion": 1, "n": ')
        with pytest.raises(TreeDocumentError, match="line"):
            read_tree(path)

    def test_leaf_count_mismatch_rejected(self):
        tree = build_random_tree(13, n=1000, d=2)
        doc = tree_to_document(tree)
        doc["n"] = tree.n + 5
        with pytest.raises(TreeDocumentError, match="leaf counts"):
            document_to_tree(doc)

    def test_json_is_plain_data(self):
        tree = build_random_tree(14, n=300, d=2)
        text = json.dumps(tree_to_document(tree))
        assert json.loads(text) == tree_to_document(tree)


def _golden_tree(kind: str):
    if kind == "one_dim":
        return build_random_tree(21, n=3000, d=1)
    if kind == "constant_order":
        return build_random_tree(22, n=3000, d=3, order=MarginalOrder.CONSTANT)
    if kind == "deepest":
        # the data test_max_depth_limit grows to exactly MAX_DEPTH_LIMIT levels
        data = np.concatenate([np.zeros(50), np.full(50, 1e-300), [1.0]])[:, None]
        return build_tree(Ensemble(data), BuildConfig(max_depth=MAX_DEPTH_LIMIT))
    if kind == "awkward_names":
        rng = np.random.default_rng(23)
        names = ('say "hi"', "back\\slash", "\u00e9t\u00e9 \u2192 \U0001d465")
        return build_tree(Ensemble(rng.standard_normal((2000, 3)), column_names=names), BuildConfig())
    assert kind == "single_leaf"
    return build_tree(Ensemble(np.array([[0.0, -0.0], [1.0, 5e-324]])), BuildConfig())


class TestWriteTreeGolden:
    @pytest.mark.parametrize("kind", ["one_dim", "constant_order", "deepest", "awkward_names", "single_leaf"])
    def test_bytes_equal_indented_json_dump(self, tmp_path, kind):
        tree = _golden_tree(kind)
        expected = (json.dumps(tree_to_document(tree), indent=2) + "\n").encode("ascii")
        path = tmp_path / "tree.json"
        write_tree(path, tree)
        assert path.read_bytes() == expected
        write_tree(path, read_tree(path))
        assert path.read_bytes() == expected


def _split_tree(lower, upper, theta=0.5) -> DetTree:
    """A 1-D tree: the box [lower, upper] cut at lower/2 + upper/2,
    which is finite even where the midpoint (lower + upper)/2 overflows, into
    two leaves of one sample each."""
    cut = lower / 2.0 + upper / 2.0
    return DetTree(lower=[[lower], [lower], [cut]], upper=[[upper], [cut], [upper]], split_dim=[0, -1, -1],
                   count=[0, 1, 1], theta=[[0.0], [theta], [-0.25]], n=2,
                   order=MarginalOrder.LINEAR)


NON_FINITE_TREES = {  # kind: (tree, the constructor's message), so none reaches the writer
    "NaN lower bound": (lambda: leaf_tree([np.nan, 0.0], [1.0, 1.0], 3, 3), "box bounds must be finite"),
    "infinite upper bound": (lambda: leaf_tree([0.0, 0.0], [1.0, np.inf], 3, 3), "box bounds must be finite"),
    "NaN theta": (lambda: leaf_tree([0.0], [1.0], 3, 3, theta=[np.nan]), r"theta must lie in \[-1, 1\], got nan"),
    "infinite theta": (lambda: leaf_tree([0.0], [1.0], 3, 3, theta=[-np.inf]),
                       r"theta must lie in \[-1, 1\], got -inf"),
    "NaN theta in a lower leaf": (lambda: _split_tree(0.0, 1.0, theta=np.nan), r"theta must lie in \[-1, 1\]"),
}


class TestWriteTreeRefusesNonFinite:
    @pytest.mark.parametrize("kind", list(NON_FINITE_TREES))
    def test_raises_before_opening_the_file(self, tmp_path, kind):
        path = tmp_path / "tree.json"
        make, message = NON_FINITE_TREES[kind]
        with pytest.raises(ValueError, match=message):
            write_tree(path, make())
        assert not path.exists()

    def test_finite_split_tree_is_written(self, tmp_path):
        path = tmp_path / "tree.json"
        write_tree(path, _split_tree(0.0, 1.0))
        assert read_tree(path).count.tolist() == [0, 1, 1]

    def test_overflowing_midpoint_is_written(self, tmp_path):
        # (lower + upper) / 2 overflows here; the position is the children's shared face
        tree = _split_tree(1e308, 1.7e308)
        path = tmp_path / "tree.json"
        write_tree(path, tree)
        assert json.loads(path.read_text())["root"]["split"]["position"] == 1e308 / 2.0 + 1.7e308 / 2.0
        text = path.read_bytes()
        write_tree(path, read_tree(path))
        assert path.read_bytes() == text


def _split_document() -> dict:
    """A valid 1-D document: [0, 1] split at 0.5 into leaves of 1 and 2 samples."""
    return {
        "formatVersion": 1, "n": 3, "dims": 1, "columnNames": ["x1"], "order": "linear",
        "root": {"lower": [0.0], "upper": [1.0], "split": {"dim": 0, "position": 0.5}, "children": [
            {"lower": [0.0], "upper": [0.5], "count": 1, "theta": [0.5]},
            {"lower": [0.5], "upper": [1.0], "count": 2, "theta": [-0.25]},
        ]},
    }


def _edit(*changes):
    """Edit setting each (path, value): the path lists keys and list indices from the document top."""
    def edit(doc: dict) -> None:
        for path, value in changes:
            target = doc
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
    return edit


LEAF = ("root", "children", 1)
COUNT, THETA, UPPER = LEAF + ("count",), LEAF + ("theta", 0), LEAF + ("upper", 0)
DIM, POSITION = ("root", "split", "dim"), ("root", "split", "position")
WRONG_TYPES = {  # kind: (edit, text the error must contain)
    "float count and n": (_edit((COUNT, 2.7), (("n",), 3.7)), "'n' and 'dims' must be integers"),
    "float count": (_edit((COUNT, 2.0)), "root.children[1]: 'count' must be an integer"),
    "boolean count": (_edit((COUNT, True), (("n",), 2)), "root.children[1]: 'count' must be an integer"),
    "string theta": (_edit((THETA, "-0.25")), "root.children[1]: leaf needs a 'theta' array of 1 numbers"),
    "boolean theta": (_edit((THETA, False)), "root.children[1]: leaf needs a 'theta' array of 1 numbers"),
    "string bound": (_edit((UPPER, "1e0")), "root.children[1]: node needs 'lower' and 'upper' arrays"),
    "boolean bound": (_edit((UPPER, True)), "root.children[1]: node needs 'lower' and 'upper' arrays"),
    "string dims": (_edit((("dims",), "1")), "'n' and 'dims' must be integers"),
    "float n": (_edit((("n",), 3.0)), "'n' and 'dims' must be integers"),
    "string column names": (_edit((("columnNames",), "x")), "'columnNames' must be a list of strings"),
    "numeric column name": (_edit((("columnNames",), [1])), "'columnNames' must be a list of strings"),
    "float split dim": (_edit((DIM, 0.0)), "root: split needs an integer 'dim' and a number 'position'"),
    "boolean split dim": (_edit((DIM, False)), "root: split needs an integer 'dim' and a number 'position'"),
    "string split position": (_edit((POSITION, "0.5")), "root: split needs an integer 'dim' and a number 'position'"),
}


class TestStrictJsonTypes:
    def test_split_document_is_valid(self):
        tree = document_to_tree(_split_document())
        assert tree.count.tolist() == [0, 1, 2]
        assert tree_to_document(tree) == _split_document()

    @pytest.mark.parametrize("kind", list(WRONG_TYPES))
    def test_wrong_json_type_rejected(self, kind):
        edit, message = WRONG_TYPES[kind]
        doc = _split_document()
        edit(doc)
        with pytest.raises(TreeDocumentError) as info:
            document_to_tree(doc)
        assert message in str(info.value)

    def test_cli_exits_2_on_wrong_json_type(self, tmp_path, capsys):
        from dettree.cli import main

        doc = _split_document()
        _edit((COUNT, 2.0))(doc)
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(doc))
        assert main(["sample", "--tree", str(path), "--n", "5", "--out", str(tmp_path / "s.csv")]) == 2
        assert "root.children[1]: 'count' must be an integer" in capsys.readouterr().err
