import json

import numpy as np
import pytest

from dettree import BuildConfig, Ensemble, build_tree, read_csv, read_tree, write_csv, write_tree
from dettree.io import CsvFormatError, TreeDocumentError, document_to_tree, tree_to_document

from conftest import build_random_tree


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
