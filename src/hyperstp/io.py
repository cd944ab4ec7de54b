"""File and text codecs: the .hm document and delta-notation.

A ``.hm`` file is a JSON object with exactly the fields ``shape``,
``data`` (flat, ID order) and ``scalar_kind``; unknown fields are
rejected so golden files stay a closed format.  Delta-notation is the
ASCII grammar ``d<m>[c1,c2,...,cn]`` for logical matrices.
"""

from __future__ import annotations

import json
import os
import re
import stat

import numpy as np

from .core import Hypermatrix, _check_budget, _owned
from .permutation import LogicalMatrix


class DocumentError(ValueError):
    """Malformed .hm document or delta-notation text."""


_HM_FIELDS = {"shape", "data", "scalar_kind"}
# JSON numbers parse to exactly these types, so a set of types decides a data list.
_DATA_TYPES = {"int": {int}, "float": {int, float}}


def dumps_hm(a: Hypermatrix) -> str:
    """Serialise a hypermatrix; integers exactly, floats shortest round-trip."""
    # tolist() gives Python floats, and Python ints whether or not the store is int64.
    # A float value was checked finite when it was filled; allow_nan=False is the backstop.
    doc = {"shape": list(a.dims), "data": a._flat().tolist(), "scalar_kind": a.kind}
    try:
        return _ENCODER.encode(doc)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def loads_hm(text: str) -> Hypermatrix:
    """Parse a .hm document, checking every field strictly."""
    try:
        if not isinstance(text, str):  # bytes are decoded, and other types refused, as json.loads does
            doc = json.loads(text, parse_constant=_reject_constant)
        elif text.startswith("\ufeff"):  # json.loads refuses a BOM; the shared decoder would not
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        else:
            doc = _DECODER.decode(text)
    except (ValueError, RecursionError) as exc:
        raise DocumentError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    unknown = set(doc) - _HM_FIELDS
    if unknown:
        raise DocumentError(f"unknown field(s): {', '.join(sorted(unknown))}")
    missing = _HM_FIELDS - set(doc)
    if missing:
        raise DocumentError(f"missing field(s): {', '.join(sorted(missing))}")
    shape = doc["shape"]
    if not isinstance(shape, list) or not all(isinstance(n, int) and not isinstance(n, bool) for n in shape):
        raise DocumentError("field 'shape' must be a list of integers")
    kind = doc["scalar_kind"]
    if kind not in ("int", "float"):
        raise DocumentError(f"field 'scalar_kind' must be 'int' or 'float', got {kind!r}")
    data = doc["data"]
    if not isinstance(data, list):
        raise DocumentError("field 'data' must be a list")
    # One pass over the types; only a bad type runs the loop that names the first bad value.
    if not set(map(type, data)) <= _DATA_TYPES[kind]:
        for pos, v in enumerate(data, start=1):
            if isinstance(v, bool):
                raise DocumentError(f"field 'data' position {pos}: booleans are not scalars")
            if kind == "int" and not isinstance(v, int):
                raise DocumentError(f"field 'data' position {pos}: {v!r} is not an integer")
            if kind == "float" and not isinstance(v, (int, float)):
                raise DocumentError(f"field 'data' position {pos}: {v!r} is not a number")
    try:
        # The types are checked above, so the value is built with no second type pass.
        return _owned(shape, data, kind)
    except (ValueError, OverflowError) as exc:
        raise DocumentError(str(exc)) from None


def _reject_constant(name):
    raise DocumentError(f"non-finite constant {name} is not allowed")


# One codec per process: ``json.loads`` and ``json.dumps`` build a new one
# on every call that passes them an option.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
_ENCODER = json.JSONEncoder(allow_nan=False)


def read_hm(path) -> Hypermatrix:
    """Read a .hm document: its bytes, decoded as UTF-8 once, without newline translation."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DocumentError(f"not UTF-8 text: {exc}") from None
    return loads_hm(text)


def write_hm(a: Hypermatrix, path) -> None:
    """Write ``a`` as a .hm document, rewriting an existing file in place.

    The document is serialised before the target is opened, so a value that
    cannot be written leaves the target as it was.  The target is opened
    without truncation and cut at the written length afterwards: ext4 and
    XFS flush a file's data on close once it was truncated on open.  Only a
    regular file is cut; a pipe, FIFO, tty or ``/dev/null`` is written as it
    comes.  A rewrite keeps the file's inode, hard links and mode, and a
    symlink stays a link; a new file gets ``0o666 & ~umask``.
    """
    doc = (dumps_hm(a) + "\n").encode("utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(doc)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate(len(doc))


# -- delta-notation ------------------------------------------------------

_DELTA_RE = re.compile(r"^d(\d+)\[(\d+(?:,\d+)*)\]$")


def print_delta(w: LogicalMatrix) -> str:
    """Canonical delta-notation: ``d<m>[c1,c2,...]``, no spaces."""
    return f"d{w.rows}[{','.join(str(c) for c in w.cols)}]"


def parse_delta(text: str) -> LogicalMatrix:
    """Parse delta-notation; inverse of print_delta on canonical form."""
    match = _DELTA_RE.match(text.strip())
    if not match:
        raise DocumentError(f"not delta-notation: {text!r}")
    m = int(match.group(1))
    cols = [int(tok) for tok in match.group(2).split(",")]
    for j, c in enumerate(cols, start=1):
        if not 1 <= c <= m:
            raise DocumentError(f"entry {j} is {c}, outside [1, {m}]")
    return LogicalMatrix(m, cols)


def densify(w: LogicalMatrix) -> np.ndarray:
    """Dense 0/1 matrix with column j equal to the basis vector cols[j].

    Above ``core.MAX_ENTRIES`` dense entries (rows x columns) it raises
    ``OverflowError`` before allocating anything.
    """
    _check_budget(w.rows * w.n_cols, "dense {} x {} matrix", w.rows, w.n_cols)
    out = np.zeros((w.rows, w.n_cols), dtype=np.int64)
    out[np.array(w.cols) - 1, np.arange(w.n_cols)] = 1
    return out
