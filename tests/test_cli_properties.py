"""Property tests of the command line: malformed CSV text, mutated tree
documents and malformed option strings. ``main`` must return 0, 1 or 2 for
every input and never raise. Inputs are small by construction: every number
that can reach an array size is at most a few hundred, so no example
allocates more than a few MB."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dettree
from dettree import BuildConfig, Ensemble, build_tree, write_tree
from dettree.cli import main

EXIT_CODES = (0, 1, 2)
FUZZ = settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])

# Values that replace a document entry: wrong JSON types, out-of-range
# numbers and non-finite floats (which json.load accepts as NaN/Infinity).
JUNK = st.sampled_from([None, True, False, "1", "", [], {}, [1.0], [[0.0]], 0, -1, 2, 1.5, 10**30, -(10**30),
                        float("nan"), float("inf"), -float("inf"), 1e308, 5e-324])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A directory holding a valid 2-D tree document built from 400 points,
    and the document as a dict."""
    root = tmp_path_factory.mktemp("cli_fuzz")
    data = np.random.default_rng(5).standard_normal((400, 2))
    write_tree(root / "tree.json", build_tree(Ensemble(data), BuildConfig()))
    return root, json.loads((root / "tree.json").read_text())


def run_main(*argv) -> int:
    code = main([str(a) for a in argv])
    assert code in EXIT_CODES
    return code


# --- malformed CSV text -----------------------------------------------------

CSV_PIECES = st.sampled_from(["0", "1", "-2.5", "1e3", "1e308", "-1e308", "5e-324", "nan", "inf", "x", "x1", " ",
                              "", ",", ",,", "\n", "\r\n", "\r", '"', '"1,2"', "\x00", "﻿", "1_0", "é"])


@st.composite
def csv_bytes(draw) -> bytes:
    """Short CSV-like text: numbers, headers, separators, quotes, NUL and
    BOM characters in any order, sometimes with bytes that are not UTF-8."""
    text = "".join(draw(st.lists(CSV_PIECES, max_size=60)))
    raw = text.encode("utf-8", "surrogatepass")
    if draw(st.booleans()):
        cut = draw(st.integers(0, len(raw)))
        raw = raw[:cut] + draw(st.binary(max_size=4)) + raw[cut:]
    return raw


class TestMalformedCsv:
    @FUZZ
    @given(raw=csv_bytes(), order=st.sampled_from(["linear", "constant"]), min_leaf=st.sampled_from(["1", "10"]))
    def test_build_exits_with_a_code(self, workspace, raw, order, min_leaf):
        root, _ = workspace
        (root / "in.csv").write_bytes(raw)
        run_main("build", "--in", root / "in.csv", "--out", root / "built.json", "--order", order,
                 "--min-leaf", min_leaf)


# --- mutated tree documents -------------------------------------------------

def _records(doc: dict) -> list:
    """Every node record (a dict reached through lists of children) of a
    document, in preorder."""
    records, stack = [], [doc.get("root")]
    while stack:
        record = stack.pop()
        if isinstance(record, dict):
            records.append(record)
            if isinstance(record.get("children"), list):
                stack.extend(reversed(record["children"]))
    return records


@st.composite
def mutated_documents(draw, valid: dict) -> dict:
    """``valid`` with one to three mutations: a key dropped, a value of the
    wrong type, one child or three, a split position off the face, a split
    turned into a leaf or a leaf into a split (flags that are not the
    tree's), a bound list of the wrong length, or a top-level entry
    changed."""
    doc = copy.deepcopy(valid)
    for _ in range(draw(st.integers(1, 3))):
        records = _records(doc)
        record = draw(st.sampled_from(records))
        splits = [r for r in records if "split" in r]
        leaves = [r for r in records if "count" in r]
        kind = draw(st.sampled_from(["drop", "junk", "children", "position", "to leaf", "to split", "length",
                                     "top"]))
        if kind == "drop" and record:
            del record[draw(st.sampled_from(sorted(record)))]
        elif kind == "junk" and record:
            record[draw(st.sampled_from(sorted(record)))] = draw(JUNK)
        elif kind == "children" and splits:
            split = draw(st.sampled_from(splits))
            children = split.get("children")
            if isinstance(children, list) and children:
                split["children"] = children[:1] if draw(st.booleans()) else children + children[-1:]
        elif kind == "position" and splits:
            split = draw(st.sampled_from(splits))
            offset = draw(st.sampled_from([-1.0, 0.25, 1.0, 2.0]))
            try:  # a position off the face, where the entries it is made from are still intact
                dim = split["split"]["dim"]
                split["split"]["position"] = split["lower"][dim] + offset * (split["upper"][dim] - split["lower"][dim])
            except (TypeError, KeyError, IndexError):
                pass
        elif kind == "to leaf" and splits:
            split = draw(st.sampled_from(splits))
            for key in ("split", "children"):
                split.pop(key, None)
            split["count"], split["theta"] = draw(st.integers(0, 400)), [0.0, 0.0]
        elif kind == "to split" and leaves:
            leaf = draw(st.sampled_from(leaves))
            if draw(st.booleans()):
                leaf.pop("count", None)
            leaf["split"] = {"dim": 0, "position": 0.0}
            leaf["children"] = [copy.deepcopy(leaf) for _ in range(draw(st.integers(0, 2)))]
        elif kind == "length":
            key = draw(st.sampled_from(["lower", "upper", "theta"]))
            if type(record.get(key)) is list:
                record[key] = record[key][:-1] if draw(st.booleans()) else record[key] + [0.5]
        elif kind == "top":
            key = draw(st.sampled_from(["formatVersion", "n", "dims", "columnNames", "order", "root"]))
            if draw(st.booleans()):
                doc.pop(key, None)
            else:
                doc[key] = draw(st.one_of(JUNK, st.integers(-2, 5)))
            if not isinstance(doc.get("root"), dict):
                return doc
    return doc


class TestMutatedTreeDocuments:
    @FUZZ
    @given(data=st.data())
    def test_every_command_exits_with_a_code(self, workspace, data):
        root, valid = workspace
        doc = data.draw(mutated_documents(valid))
        path = root / "mutated.json"
        path.write_text(json.dumps(doc, indent=data.draw(st.sampled_from([None, 2]))))
        run_main("sample", "--tree", path, "--n", "5", "--out", root / "s.csv")
        run_main("sample", "--tree", path, "--n", "5", "--cond", "1=0", "--out", root / "s.csv")
        run_main("density", "--tree", path, "--grid", "1:-1:1:3", "--fix", "2=0", "--out", root / "d.csv")
        run_main("validate", "--tree", path, "--against", "gaussian", "--params", "mu=0,0;cov=1,0|0,1",
                 "--n", "20", "--report", root / "r.txt")


# --- malformed option strings -----------------------------------------------

DIMS = st.sampled_from(["1", "2", "3", "0", "-1", "+1", " 2", "x", "", "1.5", "1e0", "99999999999999999999"])
REALS = st.sampled_from(["0", "0.5", "-1", "1e308", "-1e308", "5e-324", "nan", "inf", "-inf", "", "x", "1,2",
                         "0x1p-3", "1_0"])
COUNTS = st.sampled_from(["0", "1", "2", "3", "8", "20", "-1", "-5", "x", "", "1.5", "1e2", "+3", "1_0"])


def _joined(parts, separators) -> st.SearchStrategy:
    return st.builds(lambda items, sep: sep.join(items), st.lists(parts, min_size=0, max_size=5),
                     st.sampled_from(separators))


PAIRS = st.one_of(st.builds(lambda d, v: f"{d}={v}", DIMS, REALS), _joined(st.one_of(DIMS, REALS), ["=", ":", ""]))
GRIDS = st.one_of(
    _joined(st.builds(lambda d, lo, hi, n: f"{d}:{lo}:{hi}:{n}", DIMS, REALS, REALS, COUNTS), [","]),
    _joined(st.one_of(DIMS, REALS, COUNTS), [":", ",", ";"]),
)
VECTORS = _joined(REALS, [",", ";", "|", ",,"])
PARAMS = st.one_of(
    st.builds(lambda mu, cov: f"mu={mu};cov={cov}", VECTORS, _joined(VECTORS, ["|", ";"])),
    st.builds(lambda alpha: f"alpha={alpha}", VECTORS),
    _joined(st.one_of(st.sampled_from(["mu", "cov", "alpha", "=", ";", "|", "mu=", "alpha="]), REALS), ["", ";", "="]),
)


class TestMalformedOptions:
    @FUZZ
    @given(conds=st.lists(PAIRS, max_size=3), n=COUNTS, seed=st.sampled_from(["0", "-1", "x", "2**64", "7"]))
    def test_sample(self, workspace, conds, n, seed):
        root, _ = workspace
        argv = ["sample", "--tree", root / "tree.json", "--n", n, "--seed", seed, "--out", root / "s.csv"]
        for cond in conds:
            argv += ["--cond", cond]
        run_main(*argv)

    @FUZZ
    @given(grid=GRIDS, fixes=st.lists(PAIRS, max_size=2))
    def test_density(self, workspace, grid, fixes):
        root, _ = workspace
        argv = ["density", "--tree", root / "tree.json", "--grid", grid, "--out", root / "d.csv"]
        for fix in fixes:
            argv += ["--fix", fix]
        run_main(*argv)

    @FUZZ
    @given(params=PARAMS, against=st.sampled_from(["gaussian", "dirichlet"]), n=COUNTS)
    def test_validate(self, workspace, params, against, n):
        root, _ = workspace
        run_main("validate", "--tree", root / "tree.json", "--against", against, "--params", params, "--n", n,
                 "--report", root / "r.txt")


# --- fresh processes --------------------------------------------------------

class TestFreshProcesses:
    """The same inputs through ``python -m dettree``: an error is one line
    on stderr, never a traceback."""

    @pytest.fixture()
    def python_m(self):
        path = [str(Path(dettree.__file__).parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        return lambda *argv: subprocess.run([sys.executable, "-m", "dettree", *map(str, argv)], capture_output=True,
                                            env=env, text=True)

    def test_malformed_csv(self, tmp_path, python_m):
        (tmp_path / "in.csv").write_bytes(b"x1,x2\n1,\xff\n")
        done = python_m("build", "--in", tmp_path / "in.csv", "--out", tmp_path / "t.json")
        assert done.returncode == 2 and "Traceback" not in done.stderr

    def test_mutated_document(self, tmp_path, workspace, python_m):
        root, valid = workspace
        doc = copy.deepcopy(valid)
        split = next(r for r in _records(doc) if "split" in r)
        split["children"] = split["children"] * 2
        (tmp_path / "t.json").write_text(json.dumps(doc))
        done = python_m("sample", "--tree", tmp_path / "t.json", "--n", "5", "--out", tmp_path / "s.csv")
        assert done.returncode == 2 and "Traceback" not in done.stderr

    def test_malformed_grid(self, workspace, tmp_path, python_m):
        root, _ = workspace
        done = python_m("density", "--tree", root / "tree.json", "--grid", "1:nan:1:3,2:0", "--out", tmp_path / "d.csv")
        assert done.returncode == 1 and "Traceback" not in done.stderr
