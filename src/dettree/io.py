"""CSV ingestion and JSON tree documents.

Reals are serialized with Python's shortest round-trip repr, so a document
(or CSV) parses back to bit-identical floats and re-serializes to identical
bytes. Tree documents are read with strict JSON types and validated on load
against the same invariants the builder guarantees.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Sequence

import numpy as np

from .build import Ensemble
from .core import DetTree, MarginalOrder, validate_tree

__all__ = [
    "CsvFormatError",
    "TreeDocumentError",
    "FORMAT_VERSION",
    "read_csv",
    "write_csv",
    "tree_to_document",
    "document_to_tree",
    "write_tree",
    "read_tree",
]

FORMAT_VERSION = 1

# rows formatted per string in write_csv: bounds the text held in memory
_WRITE_BLOCK_ROWS = 8192

# the Python types json.load gives JSON numbers; bool is not among them
_NUMBER_TYPES = frozenset((int, float))


class CsvFormatError(ValueError):
    """Malformed sample CSV (ragged rows, non-numeric fields, empty file)."""


class TreeDocumentError(ValueError):
    """Malformed or invariant-violating tree document."""


def read_csv(path) -> Ensemble:
    """Read a comma-separated ensemble: one sample per row, optional single
    header row (detected by any non-numeric field in row one), decimal-point
    reals. A UTF-8 byte-order mark is skipped. Errors name the offending
    1-based row.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        rows = list(csv.reader(fh))
    if not rows or all(len(r) == 0 for r in rows):
        raise CsvFormatError(f"{path}: file is empty")

    first = rows[0]
    names = None
    body_start = 0
    if _parse_row(first) is None:
        names = tuple(field.strip() for field in first)
        body_start = 1
    body = rows[body_start:]
    if not body:
        raise CsvFormatError(f"{path}: no data rows after the header")

    width = len(first)
    data = None
    if not any(len(r) != width for r in body):
        try:
            data = np.fromiter(map(float, itertools.chain.from_iterable(body)), dtype=np.float64,
                               count=len(body) * width)
        except ValueError:
            pass
    if data is None or not np.isfinite(data).all():
        _raise_first_bad_row(path, body, body_start + 1, width)
    return Ensemble(data=data.reshape(len(body), width), column_names=names or ())


def write_csv(path, points: np.ndarray, column_names: Sequence[str]) -> None:
    """Write points with a header row; floats use shortest round-trip repr so
    the file is byte-deterministic and re-readable by ``read_csv``. ``points``
    must be 2-D with one name per column.
    """
    points = np.asarray(points, dtype=np.float64)
    names = list(column_names)
    if points.ndim != 2:
        raise ValueError(f"points must be a 2-D array, got {points.ndim}-D")
    if len(names) != points.shape[1]:
        raise ValueError(f"need one column name per column: {len(names)} names for {points.shape[1]} columns")
    # a float repr holds no comma, quote or newline, so formatting each block
    # of rows in one pass gives the bytes csv.writer would
    row_format = ",".join(["%r"] * points.shape[1]) + "\n"
    with Path(path).open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(names)
        for start in range(0, points.shape[0], _WRITE_BLOCK_ROWS):
            block = points[start:start + _WRITE_BLOCK_ROWS]
            fh.write((row_format * block.shape[0]) % tuple(block.ravel().tolist()))


def tree_to_document(tree: DetTree) -> dict:
    """The nested document of a tree, built from its node arrays without
    recursion: children follow their parent in preorder, so a pass over the
    nodes in reverse finds both children's records already built."""
    lower, upper, theta = tree.lower.tolist(), tree.upper.tolist(), tree.theta.tolist()
    split_dim, upper_child, count = tree.split_dim.tolist(), tree.upper_child.tolist(), tree.count.tolist()
    records: list = [None] * len(split_dim)
    for node in reversed(range(len(split_dim))):
        record = {"lower": lower[node], "upper": upper[node]}
        dim = split_dim[node]
        if dim < 0:
            record["count"] = count[node]
            record["theta"] = theta[node]
        else:
            record["split"] = {"dim": dim, "position": (lower[node][dim] + upper[node][dim]) / 2.0}
            record["children"] = [records[node + 1], records[upper_child[node]]]
        records[node] = record
    return {
        "formatVersion": FORMAT_VERSION,
        "n": tree.n,
        "dims": tree.dims,
        "columnNames": list(tree.column_names),
        "order": tree.order.value,
        "root": records[0],
    }


def document_to_tree(doc: dict) -> DetTree:
    """Read a tree document strictly: ``n``, ``dims``, ``count`` and split
    ``dim`` must be JSON integers, bounds, ``theta`` and split ``position``
    JSON numbers (never booleans or strings) and ``columnNames`` a list of
    strings. The tree must pass ``validate_tree``."""
    if not isinstance(doc, dict):
        raise TreeDocumentError("tree document must be a JSON object")
    version = doc.get("formatVersion")
    if type(version) is not int or version != FORMAT_VERSION:
        raise TreeDocumentError(f"unknown formatVersion {version!r}, expected {FORMAT_VERSION}")
    try:
        order = MarginalOrder(doc["order"])
        n, dims, names = doc["n"], doc["dims"], doc["columnNames"]
        if type(n) is not int or type(dims) is not int:
            raise TreeDocumentError("'n' and 'dims' must be integers")
        if type(names) is not list or not all(type(name) is str for name in names):
            raise TreeDocumentError("'columnNames' must be a list of strings")
        tree = DetTree(**_document_nodes(doc["root"], dims), n=n, order=order, column_names=tuple(names))
        validate_tree(tree)
    except TreeDocumentError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise TreeDocumentError(f"invalid tree document: {exc}") from exc
    return tree


def write_tree(path, tree: DetTree) -> None:
    """Write the tree document as ``json.dump(doc, indent=2)`` would, plus a
    final newline. CPython serves indented dumps with its pure-Python
    encoder, so the layout is produced here directly."""
    text = _indented_json(tree_to_document(tree))
    with Path(path).open("w") as fh:
        fh.write(text)
        fh.write("\n")


def read_tree(path) -> DetTree:
    path = Path(path)
    try:
        with path.open() as fh:
            doc = json.load(fh)
        return document_to_tree(doc)
    except json.JSONDecodeError as exc:
        raise TreeDocumentError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise TreeDocumentError(f"{path}: tree document is nested too deeply") from None


def _indented_json(doc: dict) -> str:
    """``json.dumps(doc, indent=2)`` for a nonempty dict of dicts, lists,
    strings, ints and finite floats, byte for byte. Iterative, so a deep tree
    needs no recursion: the stack holds finished text and the (container,
    depth) pairs still to encode."""
    parts: list[str] = []
    stack: list = [(doc, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        value, depth = item
        inner = "\n" + "  " * (depth + 1)
        if isinstance(value, dict):
            parts.append("{")
            items = [(inner + encode_basestring_ascii(key) + ": ", v) for key, v in value.items()]
            close = "\n" + "  " * depth + "}"
        else:
            parts.append("[")
            items = [(inner, v) for v in value]
            close = "\n" + "  " * depth + "]"
        pending: list = []
        for prefix, v in items:
            if pending:
                prefix = "," + prefix
            flat = _flat_json(v, depth + 1)
            if flat is None:
                pending.append(prefix)
                pending.append((v, depth + 1))
            else:
                pending.append(prefix + flat)
        pending.append(close)
        stack.extend(reversed(pending))
    return "".join(parts)


def _flat_json(value, depth: int):
    """Text of a scalar, an empty container or a list of scalars at
    ``depth``; None for a container that holds containers."""
    if isinstance(value, list):
        if not value:
            return "[]"
        if any(isinstance(v, (dict, list)) for v in value):
            return None
        inner = "\n" + "  " * (depth + 1)
        return "[" + inner + ("," + inner).join(map(_json_scalar, value)) + "\n" + "  " * depth + "]"
    if isinstance(value, dict):
        return None if value else "{}"
    return _json_scalar(value)


def _json_scalar(value) -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"tree documents hold finite floats only, got {value!r}")
        return float.__repr__(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    raise TypeError(f"unexpected {type(value).__name__} in a tree document")


def _raise_first_bad_row(path: Path, body: list[list[str]], first_line: int, width: int):
    for line_no, row in enumerate(body, start=first_line):
        if len(row) != width:
            raise CsvFormatError(f"{path}: row {line_no} has {len(row)} fields, expected {width}")
        values = _parse_row(row)
        if values is None:
            raise CsvFormatError(f"{path}: row {line_no} contains a non-numeric field")
        if not all(np.isfinite(values)):
            raise CsvFormatError(f"{path}: row {line_no} contains a non-finite value")
    raise AssertionError("the whole-array parse failed but no row is malformed")


def _parse_row(row: list[str]):
    try:
        return [float(field) for field in row]
    except ValueError:
        return None


def _document_nodes(root, dims: int) -> dict:
    """The preorder node arrays (as lists) of the nested ``root`` record, read
    with an explicit stack. Checks each record's keys and JSON types, and
    that each split position is its box's midpoint; errors name the record's
    path (``root.children[0]...``)."""
    nodes, upper_child = [], []  # nodes: (lower, upper, split dim, count, theta) in preorder
    stack = [(root, "root", -1)]  # (record, path, id of the parent whose upper child it is)
    while stack:
        record, where, parent = stack.pop()
        if parent >= 0:
            upper_child[parent] = len(nodes)
        upper_child.append(-1)
        if not isinstance(record, dict):
            raise TreeDocumentError(f"{where}: node record must be an object")
        lo, hi = record.get("lower"), record.get("upper")
        if not (_numbers(lo, dims) and _numbers(hi, dims)):
            raise TreeDocumentError(f"{where}: node needs 'lower' and 'upper' arrays of {dims} numbers")
        if ("count" in record) == ("split" in record):
            raise TreeDocumentError(f"{where}: node must have exactly one of 'count' (leaf) or 'split'")
        if "count" in record:
            if type(record["count"]) is not int:
                raise TreeDocumentError(f"{where}: 'count' must be an integer")
            if not _numbers(record.get("theta"), dims):
                raise TreeDocumentError(f"{where}: leaf needs a 'theta' array of {dims} numbers")
            nodes.append((lo, hi, -1, record["count"], record["theta"]))
            continue
        split, children = record["split"], record.get("children")
        if not (isinstance(split, dict) and type(split.get("dim")) is int
                and type(split.get("position")) in _NUMBER_TYPES):
            raise TreeDocumentError(f"{where}: split needs an integer 'dim' and a number 'position'")
        dim = split["dim"]
        if not 0 <= dim < dims:
            raise TreeDocumentError(f"{where}: split dimension {dim} out of range")
        if split["position"] != (float(lo[dim]) + float(hi[dim])) / 2.0:
            raise TreeDocumentError(f"{where}: split position is not the midpoint of the box")
        if not isinstance(children, list) or len(children) != 2:
            raise TreeDocumentError(f"{where}: split needs exactly two children")
        nodes.append((lo, hi, dim, 0, [0.0] * dims))
        stack.append((children[1], f"{where}.children[1]", len(nodes) - 1))
        stack.append((children[0], f"{where}.children[0]", -1))
    lower, upper, split_dim, count, theta = zip(*nodes)
    return dict(lower=lower, upper=upper, split_dim=split_dim, upper_child=upper_child, count=count, theta=theta)


def _numbers(values, length: int) -> bool:
    return type(values) is list and len(values) == length and _NUMBER_TYPES.issuperset(map(type, values))
