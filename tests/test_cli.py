import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import dettree
from dettree import det_density_many, read_csv, read_tree, write_csv
from dettree.build import MAX_DEPTH_LIMIT
from dettree.cli import main

REF_COV_FLAG = "0.35,0.25,0.5;0.25,0.4,0.6;0.5,0.6,1"


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def gaussian_csv(tmp_path):
    path = tmp_path / "data.csv"
    code = run("gen", "gaussian", "--mu", "0,0,0", "--cov", REF_COV_FLAG,
               "--n", "5000", "--seed", "3", "--out", str(path))
    assert code == 0
    return path


@pytest.fixture()
def tree_path(tmp_path, gaussian_csv):
    path = tmp_path / "tree.json"
    code = run("build", "--in", str(gaussian_csv), "--out", str(path))
    assert code == 0
    return path


class TestGen:
    def test_gaussian_writes_readable_csv(self, gaussian_csv):
        ens = read_csv(gaussian_csv)
        assert ens.data.shape == (5000, 3)
        assert ens.column_names == ("x1", "x2", "x3")

    def test_dirichlet(self, tmp_path):
        path = tmp_path / "dir.csv"
        assert run("gen", "dirichlet", "--alpha", "1.25,2,0.75", "--n", "100", "--seed", "1",
                   "--out", str(path)) == 0
        ens = read_csv(path)
        assert ens.data.shape == (100, 2)
        assert np.all(ens.data.sum(axis=1) < 1.0)

    @pytest.mark.parametrize("alpha", ["1e-300,1e-300,1e-300", "1e308,1e308,1e308"])
    def test_dirichlet_alpha_beyond_the_sampler(self, tmp_path, capsys, alpha):
        # once NaN or 0.0 rows and exit 0; a RuntimeWarning raised as an error was a traceback
        path = tmp_path / "dir.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run("gen", "dirichlet", "--alpha", alpha, "--n", "4", "--out", str(path)) == 2
        assert _error_lines(capsys) == 1
        assert not path.exists()

    def test_bad_alpha_syntax(self, tmp_path):
        assert run("gen", "dirichlet", "--alpha", "1.25;2", "--n", "10", "--seed", "1",
                   "--out", str(tmp_path / "x.csv")) == 1


# 10^14 rows of 3 float64 are 2.1 PiB, beyond the 128 TiB user address space:
# the allocation is refused at once and no memory is touched
IMPOSSIBLE_N = "100000000000000"


class TestImpossibleCount:
    def test_gen_exits_2_without_traceback(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        code = run("gen", "gaussian", "--mu", "0,0,0", "--cov", REF_COV_FLAG, "--n", IMPOSSIBLE_N,
                   "--out", str(out))
        assert code == 2
        assert _error_lines(capsys) == 1
        assert not out.exists()

    def test_sample_exits_2_without_traceback(self, tmp_path, tree_path, capsys):
        out = tmp_path / "s.csv"
        assert run("sample", "--tree", str(tree_path), "--n", IMPOSSIBLE_N, "--out", str(out)) == 2
        assert _error_lines(capsys) == 1
        assert not out.exists()


class TestBuild:
    def test_missing_input_is_usage_error(self, tmp_path):
        assert run("build", "--in", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "t.json")) == 1

    def test_malformed_csv_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n3,oops\n")
        assert run("build", "--in", str(bad), "--out", str(tmp_path / "t.json")) == 2

    def test_unwritable_output_is_data_error(self, tmp_path, gaussian_csv, capsys):
        code = run("build", "--in", str(gaussian_csv), "--out", str(tmp_path / "missing" / "t.json"))
        assert code == 2
        assert _error_lines(capsys) == 1

    def test_ulp_spaced_data_builds(self, tmp_path):
        data = tmp_path / "ulp.csv"
        write_csv(data, np.concatenate([np.zeros(80), np.full(20, 5e-324)])[:, None], ["x1"])
        out = tmp_path / "t.json"
        assert run("build", "--in", str(data), "--out", str(out), "--min-leaf", "1") == 0
        assert read_tree(out).n == 100

    def test_max_depth_beyond_limit_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "deep.csv"
        write_csv(data, np.concatenate([np.zeros(50), np.full(50, 1e-300), [1.0]])[:, None], ["x1"])
        out = tmp_path / "t.json"
        assert run("build", "--in", str(data), "--out", str(out), "--max-depth", "2000") == 2
        assert _error_lines(capsys) == 1
        # the deepest tree the limit allows survives the document round trip
        assert run("build", "--in", str(data), "--out", str(out), "--max-depth", str(MAX_DEPTH_LIMIT)) == 0
        assert run("sample", "--tree", str(out), "--n", "10", "--out", str(tmp_path / "s.csv")) == 0

    @pytest.mark.parametrize("padding", ["0", "1e-9"])
    def test_overflowing_range_is_data_error(self, tmp_path, capsys, padding):
        data = tmp_path / "huge.csv"
        write_csv(data, np.array([[-1e308, 0.0], [1e308, 1.0], [0.0, 0.5]]), ["x1", "x2"])
        out = tmp_path / "t.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("build", "--in", str(data), "--out", str(out), "--padding", padding) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "overflows" in err and "Traceback" not in err and "Warning" not in err

    def test_builds_valid_tree(self, tree_path):
        tree = read_tree(tree_path)
        assert tree.n == 5000
        assert tree.dims == 3


class TestRunAsModule:
    @pytest.mark.parametrize("module", ["dettree", "dettree.cli"])
    def test_python_m_runs_main(self, tmp_path, gaussian_csv, module):
        path = [str(Path(dettree.__file__).parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}

        def python_m(*argv):
            return subprocess.run([sys.executable, "-m", module, *argv], capture_output=True, env=env)

        out = tmp_path / "t.json"
        done = python_m("build", "--in", str(gaussian_csv), "--out", str(out))
        assert done.returncode == 0, done.stderr.decode()
        assert read_tree(out).n == 5000
        # the exit code of main is the process's
        assert python_m("build", "--in", str(tmp_path / "absent.csv"), "--out", str(out)).returncode == 1


class TestSample:
    def test_zero_samples_empty_csv_with_header(self, tmp_path, tree_path):
        out = tmp_path / "samples.csv"
        assert run("sample", "--tree", str(tree_path), "--n", "0", "--seed", "1", "--out", str(out)) == 0
        assert out.read_text() == "x1,x2,x3\n"

    def test_conditioned_sampling(self, tmp_path, tree_path):
        out = tmp_path / "samples.csv"
        code = run("sample", "--tree", str(tree_path), "--n", "50", "--seed", "2",
                   "--out", str(out), "--cond", "3=0")
        assert code == 0
        pts = read_csv(out).data
        assert pts.shape == (50, 3)
        assert np.all(pts[:, 2] == 0.0)

    def test_dimension_out_of_range(self, tmp_path, tree_path, capsys):
        code = run("sample", "--tree", str(tree_path), "--n", "10", "--seed", "1",
                   "--out", str(tmp_path / "s.csv"), "--cond", "5=0")
        assert code == 1
        assert "dimension out of range" in capsys.readouterr().err

    def test_duplicate_condition(self, tmp_path, tree_path):
        code = run("sample", "--tree", str(tree_path), "--n", "10", "--seed", "1",
                   "--out", str(tmp_path / "s.csv"), "--cond", "3=0", "--cond", "3=1")
        assert code == 1

    def test_unknown_flag(self, tmp_path, tree_path):
        assert run("sample", "--tree", str(tree_path), "--n", "10", "--frobnicate", "1",
                   "--out", str(tmp_path / "s.csv")) == 1

    def test_deeply_nested_document_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(_nested_document(60))
        assert read_tree(path).n == 1  # the same document, shallower, is valid
        path.write_text(_nested_document(3000))
        code = run("sample", "--tree", str(path), "--n", "10", "--out", str(tmp_path / "s.csv"))
        assert code == 2
        assert _error_lines(capsys) == 1

    def test_condition_outside_root_is_data_error(self, tmp_path, tree_path):
        code = run("sample", "--tree", str(tree_path), "--n", "10", "--seed", "1",
                   "--out", str(tmp_path / "s.csv"), "--cond", "3=99")
        assert code == 2

    @pytest.mark.parametrize("cond, dim", [("1=1e308", 1), ("3=99", 3), ("2=-1e308", 2)])
    def test_condition_outside_root_names_the_1_based_dimension(self, tmp_path, tree_path, capsys, cond, dim):
        # the library counts dimensions from 0, the command line from 1
        code = run("sample", "--tree", str(tree_path), "--n", "10", "--seed", "1",
                   "--out", str(tmp_path / "s.csv"), "--cond", "2=0" if dim != 2 else "3=0", "--cond", cond)
        assert code == 2
        err = capsys.readouterr().err
        assert f"for dimension {dim} lies outside the root cuboid" in err
        assert err.count("\n") == 1 and not (tmp_path / "s.csv").exists()


class TestDensity:
    def test_grid_slice_matches_library(self, tmp_path, tree_path):
        out = tmp_path / "grid.csv"
        code = run("density", "--tree", str(tree_path), "--grid", "1:-2:2:5,2:-2:2:5",
                   "--fix", "3=0", "--out", str(out))
        assert code == 0
        table = read_csv(out)
        assert table.column_names == ("x1", "x2", "density")
        tree = read_tree(tree_path)
        pts = np.column_stack([table.data[:, 0], table.data[:, 1], np.zeros(len(table.data))])
        assert np.array_equal(table.data[:, 2], det_density_many(tree, pts))

    def test_incomplete_coverage_rejected(self, tmp_path, tree_path):
        assert run("density", "--tree", str(tree_path), "--grid", "1:-2:2:5",
                   "--out", str(tmp_path / "g.csv")) == 1

    @pytest.mark.parametrize("spec", ["1:0:inf:3", "1:-inf:0:3", "1:nan:1:3", "1:-1e308:1e308:3"])
    def test_unrepresentable_range_is_usage_error(self, tmp_path, tree_path, capsys, spec):
        # an infinite bound, or finite bounds whose width overflows, has no finite grid
        out = tmp_path / "g.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("density", "--tree", str(tree_path), "--grid", f"{spec},2:-2:2:5", "--fix", "3=0",
                       "--out", str(out)) == 1
        assert "needs finite lo < hi" in capsys.readouterr().err
        assert not out.exists()

    def test_overlapping_fix_rejected(self, tmp_path, tree_path):
        assert run("density", "--tree", str(tree_path), "--grid", "1:-2:2:5,2:-2:2:5",
                   "--fix", "2=0", "--out", str(tmp_path / "g.csv")) == 1


class TestOverflowingDensity:
    """Data at subnormal scale builds a valid tree whose leaf densities
    overflow float64: density and conditional sampling are data errors."""

    @pytest.fixture()
    def subnormal_tree(self, tmp_path):
        data = tmp_path / "tiny.csv"
        write_csv(data, np.random.default_rng(0).standard_normal((2000, 2)) * 5e-322, ["x1", "x2"])
        path = tmp_path / "tiny.json"
        assert run("build", "--in", str(data), "--out", str(path)) == 0
        return path

    @pytest.mark.parametrize("command", [
        ["density", "--grid", "1:-1e-321:1e-321:5,2:-1e-321:1e-321:5"],
        ["sample", "--n", "10", "--seed", "1", "--cond", "1=0"],
    ])
    def test_exits_2_without_output(self, tmp_path, capsys, subnormal_tree, command):
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(*command, "--tree", str(subnormal_tree), "--out", str(out)) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "overflows float64" in err and "Traceback" not in err and "Warning" not in err


class TestValidate:
    def test_gaussian_validation_passes(self, tmp_path):
        data = tmp_path / "big.csv"
        tree = tmp_path / "big_tree.json"
        report = tmp_path / "report.txt"
        assert run("gen", "gaussian", "--mu", "0,0,0", "--cov", REF_COV_FLAG,
                   "--n", "20000", "--seed", "5", "--out", str(data)) == 0
        assert run("build", "--in", str(data), "--out", str(tree)) == 0
        code = run("validate", "--tree", str(tree), "--against", "gaussian",
                   "--params", f"mu=0,0,0;cov={REF_COV_FLAG.replace(';', '|')}",
                   "--report", str(report), "--n", "5000", "--seed", "11")
        assert code == 0
        text = report.read_text()
        assert "RESULT: PASS" in text
        assert "grid-ise" in text

    def test_wrong_params_usage_error(self, tmp_path, tree_path):
        assert run("validate", "--tree", str(tree_path), "--against", "gaussian",
                   "--params", "mu=0,0,0", "--report", str(tmp_path / "r.txt")) == 1

    def test_covariance_near_the_float64_maximum(self, tmp_path, tree_path, capsys):
        # symmetrizing the covariance summed 1e308 + 1e308, which overflowed with a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("validate", "--tree", str(tree_path), "--against", "gaussian",
                       "--params", "mu=0,0,0;cov=1e308,0,0|0,1e308,0|0,0,1e308", "--n", "20",
                       "--report", str(tmp_path / "r.txt"))
        assert code == 2
        assert "RESULT: FAIL" in capsys.readouterr().out

    def test_dirichlet_validation(self, tmp_path):
        data = tmp_path / "dir.csv"
        tree = tmp_path / "dir_tree.json"
        report = tmp_path / "rep.txt"
        assert run("gen", "dirichlet", "--alpha", "1.25,2,0.75", "--n", "20000",
                   "--seed", "6", "--out", str(data)) == 0
        assert run("build", "--in", str(data), "--out", str(tree)) == 0
        code = run("validate", "--tree", str(tree), "--against", "dirichlet",
                   "--params", "alpha=1.25,2,0.75", "--report", str(report),
                   "--n", "5000", "--seed", "12")
        assert code == 0
        assert "RESULT: PASS" in report.read_text()


class TestPipelineReproduction:
    def test_gaussian_conditional_through_cli(self, tmp_path):
        # full chain at reproduction scale: gen -> build -> conditional sample,
        # checked against the analytic conditional of the generating Gaussian
        data = tmp_path / "data.csv"
        tree = tmp_path / "tree.json"
        samples = tmp_path / "cond.csv"
        assert run("gen", "gaussian", "--mu", "0,0,0", "--cov", REF_COV_FLAG,
                   "--n", "100000", "--seed", "42", "--out", str(data)) == 0
        assert run("build", "--in", str(data), "--out", str(tree)) == 0
        assert run("sample", "--tree", str(tree), "--n", "10000", "--seed", "7",
                   "--out", str(samples), "--cond", "3=0") == 0
        pts = read_csv(samples).data
        assert np.all(pts[:, 2] == 0.0)
        mean = pts[:, :2].mean(axis=0)
        cov = np.cov(pts[:, :2], rowvar=False, ddof=1)
        assert np.all(np.abs(mean) < 0.05)
        assert np.all(np.abs(cov - np.array([[0.10, -0.05], [-0.05, 0.04]])) < 0.03)


class TestDeterminism:
    def test_build_is_bit_deterministic(self, tmp_path, gaussian_csv):
        paths = [tmp_path / "t1.json", tmp_path / "t2.json"]
        for p in paths:
            assert run("build", "--in", str(gaussian_csv), "--out", str(p)) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_fresh_process_reproduces_output(self, tmp_path, gaussian_csv, tree_path):
        import subprocess
        import sys

        in_process = tmp_path / "inproc.csv"
        assert run("sample", "--tree", str(tree_path), "--n", "200", "--seed", "13",
                   "--out", str(in_process), "--cond", "3=0.25") == 0
        fresh = tmp_path / "fresh.csv"
        code = subprocess.run(
            [sys.executable, "-c",
             "import sys; from dettree.cli import main; sys.exit(main(sys.argv[1:]))",
             "sample", "--tree", str(tree_path), "--n", "200", "--seed", "13",
             "--out", str(fresh), "--cond", "3=0.25"],
            capture_output=True,
        )
        assert code.returncode == 0, code.stderr.decode()
        assert fresh.read_bytes() == in_process.read_bytes()

    def test_pipeline_outputs_byte_identical(self, tmp_path):
        outputs = []
        for tag in ("one", "two"):
            base = tmp_path / tag
            base.mkdir()
            data = base / "data.csv"
            tree = base / "tree.json"
            samples = base / "samples.csv"
            grid = base / "grid.csv"
            assert run("gen", "gaussian", "--mu", "0,0,0", "--cov", REF_COV_FLAG,
                       "--n", "2000", "--seed", "9", "--out", str(data)) == 0
            assert run("build", "--in", str(data), "--out", str(tree)) == 0
            assert run("sample", "--tree", str(tree), "--n", "500", "--seed", "4",
                       "--out", str(samples), "--cond", "3=0.5") == 0
            assert run("density", "--tree", str(tree), "--grid", "1:-2:2:11,2:-2:2:11",
                       "--fix", "3=0", "--out", str(grid)) == 0
            outputs.append(tuple(p.read_bytes() for p in (data, tree, samples, grid)))
        assert outputs[0] == outputs[1]


def _error_lines(capsys) -> int:
    return sum(line.startswith("error:") for line in capsys.readouterr().err.splitlines())


def _nested_document(depth: int, dims: int = 3) -> str:
    """A valid tree document ``depth`` splits deep: each split halves the
    current box toward the origin along dimension depth % dims, the upper
    child is an empty leaf and the lower child recurses. Built as text,
    because the JSON encoder recurses once per nesting level."""
    upper = [1.0] * dims
    head, tail = [], []
    for k in range(depth):
        dim = k % dims
        position = upper[dim] / 2.0
        leaf_lower = [0.0] * dims
        leaf_lower[dim] = position
        head.append(f'{{"lower": {json.dumps([0.0] * dims)}, "upper": {json.dumps(upper)}, '
                    f'"split": {{"dim": {dim}, "position": {position!r}}}, "children": [')
        tail.append(f', {{"lower": {json.dumps(leaf_lower)}, "upper": {json.dumps(upper)}, '
                    f'"count": 0, "theta": {json.dumps([0.0] * dims)}}}]}}')
        upper = upper.copy()
        upper[dim] = position
    head.append(f'{{"lower": {json.dumps([0.0] * dims)}, "upper": {json.dumps(upper)}, '
                f'"count": 1, "theta": {json.dumps([0.0] * dims)}}}')
    names = json.dumps([f"x{i + 1}" for i in range(dims)])
    return (f'{{"formatVersion": 1, "n": 1, "dims": {dims}, "columnNames": {names}, "order": "linear", '
            f'"root": {"".join(head)}{"".join(reversed(tail))}}}')

