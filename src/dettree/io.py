"""CSV ingestion and JSON tree documents.

Reals are serialized with Python's shortest round-trip repr, so a document
(or CSV) parses back to bit-identical floats and re-serializes to identical
bytes. Tree documents are validated on load against the same invariants the
builder guarantees.
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
from .core import (
    Cuboid,
    DetNode,
    DetTree,
    DistributionElement,
    MarginalOrder,
    Split,
    validate_tree,
)

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
    return {
        "formatVersion": FORMAT_VERSION,
        "n": tree.n,
        "dims": tree.dims,
        "columnNames": list(tree.column_names),
        "order": tree.order.value,
        "root": _node_to_record(tree.root),
    }


def document_to_tree(doc: dict) -> DetTree:
    if not isinstance(doc, dict):
        raise TreeDocumentError("tree document must be a JSON object")
    version = doc.get("formatVersion")
    if version != FORMAT_VERSION:
        raise TreeDocumentError(f"unknown formatVersion {version!r}, expected {FORMAT_VERSION}")
    try:
        order = MarginalOrder(doc["order"])
        n = int(doc["n"])
        dims = int(doc["dims"])
        names = tuple(str(s) for s in doc["columnNames"])
        root = _record_to_node(doc["root"], dims, where="root")
        tree = DetTree(root=root, n=n, order=order, column_names=names)
        validate_tree(tree)
    except TreeDocumentError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
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


def _node_to_record(node: DetNode) -> dict:
    record = {
        "lower": [float(v) for v in node.cuboid.lower],
        "upper": [float(v) for v in node.cuboid.upper],
    }
    if node.is_leaf:
        de = node.body
        record["count"] = de.count
        record["theta"] = [float(t) for t in de.theta]
    else:
        split = node.body
        record["split"] = {"dim": split.dim, "position": split.position}
        record["children"] = [_node_to_record(split.lower_child), _node_to_record(split.upper_child)]
    return record


def _record_to_node(record: dict, dims: int, where: str) -> DetNode:
    if not isinstance(record, dict):
        raise TreeDocumentError(f"{where}: node record must be an object")
    lower = record.get("lower")
    upper = record.get("upper")
    if not isinstance(lower, list) or not isinstance(upper, list) or len(lower) != dims or len(upper) != dims:
        raise TreeDocumentError(f"{where}: node needs 'lower' and 'upper' arrays of length {dims}")
    try:
        cuboid = Cuboid(np.array(lower, dtype=np.float64), np.array(upper, dtype=np.float64))
    except ValueError as exc:
        raise TreeDocumentError(f"{where}: {exc}") from exc

    is_leaf = "count" in record
    is_split = "split" in record
    if is_leaf == is_split:
        raise TreeDocumentError(f"{where}: node must have exactly one of 'count' (leaf) or 'split'")
    if is_leaf:
        theta = record.get("theta")
        if not isinstance(theta, list) or len(theta) != dims:
            raise TreeDocumentError(f"{where}: leaf needs a 'theta' array of length {dims}")
        try:
            theta = [float(t) for t in theta]
            element = DistributionElement(cuboid=cuboid, count=int(record["count"]), theta=theta)
        except ValueError as exc:
            raise TreeDocumentError(f"{where}: {exc}") from exc
        return DetNode(cuboid=cuboid, body=element)

    split = record["split"]
    children = record.get("children")
    if not isinstance(split, dict) or "dim" not in split or "position" not in split:
        raise TreeDocumentError(f"{where}: split needs 'dim' and 'position'")
    if not isinstance(children, list) or len(children) != 2:
        raise TreeDocumentError(f"{where}: split needs exactly two children")
    lower_child = _record_to_node(children[0], dims, where=f"{where}.children[0]")
    upper_child = _record_to_node(children[1], dims, where=f"{where}.children[1]")
    return DetNode(
        cuboid=cuboid,
        body=Split(int(split["dim"]), float(split["position"]), lower_child, upper_child),
    )
