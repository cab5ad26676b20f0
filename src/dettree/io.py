"""CSV ingestion and JSON tree documents.

Reals are serialized with Python's shortest round-trip repr, so a document
(or CSV) parses back to bit-identical floats and re-serializes to identical
bytes. A CSV is read as a stream: ``csv.reader`` rows go through ``float``
straight into the output array, so reading holds the output plus one row,
never the file's rows. Tree documents are read with strict JSON types and
validated on load against the same invariants the builder guarantees.
"""

from __future__ import annotations

import csv
import itertools
import json
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

    The rows stream from ``csv.reader`` through ``float`` into one array,
    so the call holds its output plus one row; the array grows by half again
    at a time and is trimmed at the end. Only a malformed file is read a
    second time, to name its first bad row.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        try:
            names, body, width = _split_header(csv.reader(fh))
            data = np.fromiter(map(float, _fields(body, width)), dtype=np.float64)
        except (ValueError, csv.Error):  # a ragged, non-numeric or over-long row, or undecodable text
            data = None
    if data is None or data.size == 0 or not np.isfinite(data).all():
        _raise_first_bad_row(path)
    return Ensemble(data=data.reshape(-1, width), column_names=names or ())


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
            record["split"] = {"dim": dim, "position": upper[node + 1][dim]}
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
    """Write the tree document as ``json.dump(tree_to_document(tree),
    indent=2)`` would, plus a final newline, straight from the node arrays.
    Nodes are formatted in preorder, which is the document's text order, each
    with one ``%`` template per (depth, leaf or split). A split's template
    ends where its lower child's record begins; after a leaf come the closing
    brackets of the splits whose subtrees end there and the comma before the
    next record, an upper child's. A non-finite bound or leaf theta raises
    ValueError before the file is opened.
    """
    nodes, dims = tree.split_dim.size, tree.dims
    for values in (tree.lower, tree.upper, tree.theta[tree.split_dim < 0]):
        bad = ~np.isfinite(values)
        if bad.any():
            raise ValueError(f"tree documents hold finite floats only, got {float(values[bad][0])!r}")
    lower, upper, theta = tree.lower.tolist(), tree.upper.tolist(), tree.theta.tolist()
    split_dim, upper_child, count = tree.split_dim.tolist(), tree.upper_child.tolist(), tree.count.tolist()
    names = ",\n    ".join(map(encode_basestring_ascii, tree.column_names))
    parts = [f'{{\n  "formatVersion": {FORMAT_VERSION},\n  "n": {tree.n},\n  "dims": {dims},\n'
             f'  "columnNames": [\n    {names}\n  ],\n  "order": {encode_basestring_ascii(tree.order.value)},\n'
             f'  "root": ']
    templates = {}
    depth = [0] * (nodes + 1)  # the last entry stands for the end of the document
    for node, dim in enumerate(split_dim):
        k, leaf = depth[node], dim < 0
        template = templates.get((k, leaf))
        if template is None:
            template = templates[k, leaf] = _record_template(k, dims, leaf)
        if not leaf:
            depth[node + 1] = depth[upper_child[node]] = k + 1
            parts.append(template % (*lower[node], *upper[node], dim, upper[node + 1][dim]))
            continue
        parts.append(template % (*lower[node], *upper[node], count[node], *theta[node]))
        # the next node is an upper child, so this leaf ends the subtrees of the splits deeper than its parent
        following = depth[node + 1]
        for closed in range(k - 1, following - 1, -1):
            parts.append("\n" + "  " * (2 + 2 * closed) + "]\n" + "  " * (1 + 2 * closed) + "}")
        if following:
            parts.append(",\n" + "  " * (1 + 2 * following))
    parts.append("\n}\n")
    text = "".join(parts)
    with Path(path).open("w") as fh:
        fh.write(text)


def _record_template(depth: int, dims: int, leaf: bool) -> str:
    """The ``%`` template of a node record at tree depth ``depth``, laid out
    as ``json.dumps(indent=2)`` does: a leaf's whole record, or a split's up
    to the first character of its lower child's record. It takes the lower
    and upper bounds, then a leaf's count and thetas or a split's dimension
    and position."""
    key = "\n" + "  " * (2 + 2 * depth)
    numbers = "[" + key + "  " + ("," + key + "  ").join(["%r"] * dims) + key + "]"
    head = "{" + key + '"lower": ' + numbers + "," + key + '"upper": ' + numbers + ","
    if leaf:
        return head + key + '"count": %d,' + key + '"theta": ' + numbers + "\n" + "  " * (1 + 2 * depth) + "}"
    return (head + key + '"split": {' + key + '  "dim": %d,' + key + '  "position": %r' + key + "},"
            + key + '"children": [' + "\n" + "  " * (3 + 2 * depth))


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


def _split_header(rows):
    """The column names (None without a header row), the data rows and the
    width of row one, from a fresh ``csv.reader``. An empty file reads as
    one empty row."""
    first = next(rows, [])
    if _parse_row(first) is None:
        return tuple(field.strip() for field in first), rows, len(first)
    return None, itertools.chain([first], rows), len(first)


def _fields(rows, width: int):
    """The fields of ``rows`` in order, one row held at a time; ValueError at
    the first row that is not ``width`` fields wide."""
    for row in rows:
        if len(row) != width:
            raise ValueError("ragged row")
        yield from row


def _raise_first_bad_row(path: Path):
    """Read the file anew and raise the CsvFormatError of its first malformed
    row, or of an empty file or a header without rows. Every row is read
    first, so a decoding error or a row that ``csv`` refuses (a field over
    its size limit) anywhere in the file is raised instead."""
    line_no = 0
    with path.open(newline="", encoding="utf-8-sig") as fh:
        try:
            names, body, width = _split_header(csv.reader(fh))
            first_line = 1 if names is None else 2
            message, line_no = None, first_line - 1
            for line_no, row in enumerate(body, start=first_line):
                if message is None and (error := _row_error(row, width)) is not None:
                    message = f"row {line_no} {error}"
        except csv.Error as exc:
            raise CsvFormatError(f"{path}: row {line_no + 1} cannot be parsed: {exc}") from None
    if message is None and line_no < first_line:
        message = "no data rows after the header"
    if message is None and width == 0:
        message = "file is empty"
    if message is None:
        raise AssertionError("the whole-file parse failed but no row is malformed")
    raise CsvFormatError(f"{path}: {message}")


def _row_error(row: list[str], width: int):
    if len(row) != width:
        return f"has {len(row)} fields, expected {width}"
    values = _parse_row(row)
    if values is None:
        return "contains a non-numeric field"
    if not all(np.isfinite(values)):
        return "contains a non-finite value"
    return None


def _parse_row(row: list[str]):
    try:
        return [float(field) for field in row]
    except ValueError:
        return None


def _document_nodes(root, dims: int) -> dict:
    """The preorder node arrays (as lists) of the nested ``root`` record, read
    with an explicit stack. Checks each record's keys and JSON types, and
    that each split position is its lower child's upper bound; errors name
    the record's path (``root.children[0]...``)."""
    nodes, cuts = [], []  # nodes: (lower, upper, split dim, count, theta) in preorder
    stack = [(root, "root")]
    while stack:
        record, where = stack.pop()
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
        if not isinstance(children, list) or len(children) != 2:
            raise TreeDocumentError(f"{where}: split needs exactly two children")
        cuts.append((len(nodes), dim, split["position"], where))
        nodes.append((lo, hi, dim, 0, [0.0] * dims))
        stack.append((children[1], f"{where}.children[1]"))
        stack.append((children[0], f"{where}.children[0]"))
    lower, upper, split_dim, count, theta = zip(*nodes)
    for node, dim, position, where in cuts:  # the lower child of a split is the next node
        if position != upper[node + 1][dim]:
            raise TreeDocumentError(f"{where}: split position is not its lower child's upper bound")
    return dict(lower=lower, upper=upper, split_dim=split_dim, count=count, theta=theta)


def _numbers(values, length: int) -> bool:
    return type(values) is list and len(values) == length and _NUMBER_TYPES.issuperset(map(type, values))
