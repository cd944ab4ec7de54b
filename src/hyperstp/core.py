"""Order-d hypermatrix storage with 1-based multi-indices in ID order.

A hypermatrix of shape (n1, ..., nd) is a flat array of ``n1*...*nd``
scalars ordered so that the first index is the most significant and the
last index varies fastest (row-major).  All public indices are 1-based;
``d = 0`` is allowed and denotes a scalar.

Two scalar backends are supported:

* ``"int"``  -- exact arbitrary-precision integers (numpy object array of
  Python ints), so golden comparisons are bit-exact and sums can never
  silently wrap;
* ``"float"`` -- IEEE binary64, finite values only (NaN and inf raise).

``as_scalars`` is the one rule that decides which backend data lives on;
every layer calls it (or ``as_scalars_joint`` for several raw operands)
instead of inspecting dtypes itself.  Int products multiply through the
checked int64 kernel, ``narrow`` then ``widen``: int64 when
``max|a| * max|b| * inner <= 2**63 - 1`` proves that no partial sum can
wrap, the object array otherwise, and Python ints out either way.  Sums
of vectors stay on the object array.  A hypermatrix built from an int64
product (``_from_int64``) also keeps that product as its read-only int64
form, which ``narrow`` takes without a scan or a cast, so a chain of
products does not round-trip through Python ints; its ``data`` still
holds Python ints.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

# Largest admissible total size: the platform index type.
MAX_SIZE = np.iinfo(np.intp).max

SCALAR_KINDS = ("int", "float")


def check_dims(dims: Iterable[int]) -> tuple[int, ...]:
    """Validate a shape vector and return it as a tuple.

    Every dimension must be a positive integer and the total size must
    fit the platform index type.
    """
    dims = tuple(int(n) for n in dims)
    for axis, n in enumerate(dims, start=1):
        if n < 1:
            raise ValueError(f"dimension at axis {axis} must be >= 1, got {n}")
    if size_of(dims) > MAX_SIZE:
        raise OverflowError(f"total size of shape {dims} exceeds the index type")
    return dims


def size_of(dims: Iterable[int]) -> int:
    """Total number of entries for a shape (1 for the empty shape)."""
    return math.prod(dims)


def linearize(dims: tuple[int, ...], idx: tuple[int, ...]) -> int:
    """Rank (1-based) of a multi-index in ID order over ``dims``.

    ID order is lexicographic with the first index most significant, so
    the rank is ``1 + sum_k (i_k - 1) * prod_{l>k} n_l``.
    """
    if len(idx) != len(dims):
        raise ValueError(f"index of length {len(idx)} for shape of order {len(dims)}")
    rank = 0
    for axis, (i, n) in enumerate(zip(idx, dims), start=1):
        if not 1 <= i <= n:
            raise IndexError(f"index {i} out of range [1, {n}] at axis {axis}")
        rank = rank * n + (i - 1)
    return rank + 1


def delinearize(dims: tuple[int, ...], rank: int) -> tuple[int, ...]:
    """Multi-index (1-based) at a given flat rank; inverse of linearize."""
    total = size_of(dims)
    if not 1 <= rank <= total:
        raise IndexError(f"rank {rank} out of range [1, {total}]")
    rem = rank - 1
    idx = [0] * len(dims)
    for axis in range(len(dims) - 1, -1, -1):
        rem, pos = divmod(rem, dims[axis])
        idx[axis] = pos + 1
    return tuple(idx)


def iter_indices(dims: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Yield every multi-index of a shape in ID order."""
    total = size_of(dims)
    for rank in range(1, total + 1):
        yield delinearize(dims, rank)


DTYPE = {"int": object, "float": np.float64}

# Array dtype kind -> scalar kind.  Object arrays are the int backend as they
# stand: their entries are trusted here, and scanned only by ``narrow``.
_ARRAY_KINDS = {"O": "int", "i": "int", "u": "int", "f": "float"}


def _sequence_kind(flat: list, types: set) -> str:
    """'int' when every value is an integer, 'float' when some is a float."""
    kind = "int"
    for t in types:
        if issubclass(t, (int, np.integer)) and t is not bool:
            continue
        if not issubclass(t, (float, np.floating)):
            pos, v = next((pos, v) for pos, v in enumerate(flat, start=1) if type(v) is t)
            raise TypeError(f"{v!r} at position {pos} is not a scalar")
        kind = "float"
    return kind


def _scanned(arr: np.ndarray) -> tuple[np.ndarray, str]:
    """An object array's kind by the sequence rule; int entries become Python ints."""
    flat = arr.reshape(-1).tolist()
    types = set(map(type, flat))
    have = _sequence_kind(flat, types)
    if have == "int" and types - {int}:
        arr = np.array([int(v) for v in flat], dtype=object).reshape(arr.shape)
    return arr, have


def as_scalars(values, kind: str | None = None) -> tuple[np.ndarray, str]:
    """The scalar-kind policy: ``values`` on one backend, and that backend.

    * An object array is int data and a float64 array is float data, taken
      as they are (an O(1) check, no scan); other integer or float arrays
      convert by dtype.  Boolean and any other arrays raise ``TypeError``.
    * Anything else is read as a (possibly nested) sequence: it is int when
      every value is an integer, float when some value is a float; a
      boolean or a non-number raises ``TypeError``.
    * ``kind`` asks for a backend.  Int data converts to float; float data
      never converts to int (``TypeError``).
    * Float data must be finite: NaN or +-inf raises ``ValueError`` naming
      the first such value and its 1-based flat position.

    The result keeps the shape of ``values``; int entries are Python ints.
    """
    if kind is not None and kind not in DTYPE:
        raise ValueError(f"unknown scalar kind {kind!r}")
    if isinstance(values, np.ndarray):
        have = _ARRAY_KINDS.get(values.dtype.kind)
        if have is None:
            raise TypeError(f"arrays of dtype {values.dtype} do not hold scalars")
        arr = values
    else:
        if isinstance(values, Iterator):
            values = list(values)
        arr, have = _scanned(np.array(values, dtype=object))
    if kind == "int" and have == "float":
        raise TypeError("float data does not convert to the int backend")
    kind = kind or have
    if arr.dtype != DTYPE[kind]:
        arr = arr.astype(DTYPE[kind])
    if kind == "float" and not np.isfinite(arr).all():
        pos = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise ValueError(f"non-finite value {float(arr.reshape(-1)[pos])} at position {pos + 1}")
    return arr, kind


def as_scalars_joint(*operands) -> tuple[list[np.ndarray], str]:
    """Several raw operands on one backend: float when any of them is float."""
    pairs = [as_scalars(x) for x in operands]
    kind = "float" if any(k == "float" for _, k in pairs) else "int"
    return [x if k == kind else as_scalars(x, kind)[0] for x, k in pairs], kind


_INT64_MAX = 2 ** 63 - 1


def _checked_ints(arr: np.ndarray) -> np.ndarray:
    """An int-backend object array with every entry a Python int.

    Other integer types convert; a float or a non-number raises
    ``TypeError`` naming the value and its 1-based flat position.
    """
    arr, have = _scanned(arr)
    if have == "float":
        flat = enumerate(arr.reshape(-1).tolist(), start=1)
        pos, v = next((pos, v) for pos, v in flat if isinstance(v, (float, np.floating)))
        raise TypeError(f"float {v!r} at position {pos} is not an int-backend value")
    return arr


def narrow(a: np.ndarray, b: np.ndarray, inner: int) -> tuple[np.ndarray, np.ndarray]:
    """Both factors of a product as int64 when no partial sum can overflow.

    For int factors whose products sum ``inner`` terms at most: when
    ``max|a| * max|b| * inner <= 2**63 - 1`` (in Python ints) both come
    back as int64, otherwise as object arrays of Python ints.  Object
    entries are scanned once, so a float or a boolean raises ``TypeError``
    instead of truncating; an int64 factor (a product's int64 form) is
    taken without a scan or a cast but still counts toward the bound.
    Float factors come back untouched.
    """
    if a.dtype.kind == "f" or b.dtype.kind == "f":
        return a, b
    a = a if a.dtype == np.int64 else _checked_ints(a)
    b = b if b.dtype == np.int64 else _checked_ints(b)
    try:
        a64, b64 = a.astype(np.int64, copy=False), b.astype(np.int64, copy=False)
    except OverflowError:
        return widen(a), widen(b)
    amax = max(int(a64.max(initial=0)), -int(a64.min(initial=0)))
    bmax = max(int(b64.max(initial=0)), -int(b64.min(initial=0)))
    if amax * bmax * inner > _INT64_MAX:
        return widen(a), widen(b)
    return a64, b64


def widen(out):
    """An int64 product back on the int backend: Python ints, as an object array or a scalar."""
    if getattr(out, "dtype", None) != np.int64:
        return out
    return out.astype(object) if isinstance(out, np.ndarray) else int(out)


def same_kind(*hms: "Hypermatrix") -> str:
    """The common declared kind of hypermatrix operands; a mismatch raises."""
    if len({h.kind for h in hms}) > 1:
        raise ValueError(f"scalar kind mismatch: {' vs '.join(h.kind for h in hms)}")
    return hms[0].kind


class Hypermatrix:
    """Immutable order-d array with flat row-major storage.

    The flat ``data`` vector lists entries in ID order, i.e. entry
    ``(i1, ..., id)`` sits at flat rank ``linearize(dims, idx)``.  A
    product of the int64 kernel also keeps its int64 form (``_int64``,
    read-only, equal to ``data`` entry for entry) so that the next product
    can skip the scan and the cast; every other hypermatrix holds None.
    """

    __slots__ = ("dims", "data", "kind", "_int64")

    def __init__(self, dims, data, kind: str | None = None):
        dims = check_dims(dims)
        flat, kind = as_scalars(data, kind)
        flat = flat.reshape(-1)
        if flat.size != size_of(dims):
            raise ValueError(f"data length {flat.size} does not match shape {dims} (expected {size_of(dims)})")
        self._fill(dims, flat, kind, None)

    def _fill(self, dims, data, kind, int64):
        for name, value in zip(self.__slots__, (dims, data, kind, int64)):
            object.__setattr__(self, name, value)
        data.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("Hypermatrix is immutable")

    def __reduce__(self):
        # Copies and pickles rebuild through the validating constructor;
        # the int64 form is not carried.
        return Hypermatrix, (self.dims, self.data, self.kind)

    # -- construction ------------------------------------------------

    @classmethod
    def from_flat(cls, dims, values, kind: str | None = None) -> "Hypermatrix":
        """Hypermatrix from a flat list of scalars in ID order."""
        return cls(dims, values, kind)

    @classmethod
    def from_nd(cls, array, kind: str | None = None) -> "Hypermatrix":
        """Hypermatrix from a (row-major) numpy array or nested lists."""
        arr, kind = as_scalars(array, kind)
        return cls(arr.shape, arr, kind)

    @classmethod
    def zeros(cls, dims, kind: str = "int") -> "Hypermatrix":
        return cls(dims, [0] * size_of(check_dims(dims)), kind)

    # -- views -------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def nd(self) -> np.ndarray:
        """Read-only numpy view of shape ``dims`` (row-major, zero copy)."""
        return self.data.reshape(self.dims)

    # -- element access ----------------------------------------------

    def get(self, idx: tuple[int, ...]):
        """Entry at a 1-based multi-index."""
        return self.data[linearize(self.dims, tuple(idx)) - 1]

    def items(self) -> Iterator[tuple[tuple[int, ...], object]]:
        """Iterate ``(multi_index, value)`` pairs in ID order."""
        for rank, idx in enumerate(iter_indices(self.dims)):
            yield idx, self.data[rank]

    def to_scalar(self):
        if self.size != 1:
            raise ValueError(f"hypermatrix of shape {self.dims} is not a scalar")
        return self.data[0]

    # -- comparison --------------------------------------------------

    def approx_equal(self, other: "Hypermatrix", tol: float = 0.0) -> bool:
        """Element-wise comparison.

        The int backend compares exactly (tol is ignored); the float
        backend admits ``|a - b| <= tol * max(1, |a|, |b|)`` per entry.
        """
        if self.dims != other.dims:
            raise ValueError(f"shape mismatch: {self.dims} vs {other.dims}")
        if same_kind(self, other) == "int":
            return all(a == b for a, b in zip(self.data, other.data))
        a, b = self.data, other.data
        bound = tol * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        return bool(np.all(np.abs(a - b) <= bound))

    def __eq__(self, other):
        if not isinstance(other, Hypermatrix):
            return NotImplemented
        return (
            self.dims == other.dims
            and self.kind == other.kind
            and all(a == b for a, b in zip(self.data, other.data))
        )

    def __hash__(self):
        return hash((self.dims, self.kind, tuple(self.data)))

    def __repr__(self):
        if self.size <= 8:
            return f"Hypermatrix(dims={self.dims}, data={list(self.data)}, kind={self.kind!r})"
        return f"Hypermatrix(dims={self.dims}, size={self.size}, kind={self.kind!r})"


def _from_int64(dims: tuple[int, ...], out: np.ndarray) -> Hypermatrix:
    """Trusted construction from an int64 kernel product of ``dims``' size.

    The result's ``data`` is widened to Python ints here, so it is a plain
    int hypermatrix to every reader; the product itself stays as the
    read-only int64 form that ``narrow`` takes without a scan.
    """
    flat = out.reshape(-1)
    flat.setflags(write=False)
    h = object.__new__(Hypermatrix)
    h._fill(dims, flat.astype(object), "int", flat)
    return h
