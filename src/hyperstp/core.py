"""Order-d hypermatrix storage with 1-based multi-indices in ID order.

A hypermatrix of shape (n1, ..., nd) is a flat array of ``n1*...*nd``
scalars ordered so that the first index is the most significant and the
last index varies fastest (row-major).  All public indices are 1-based;
``d = 0`` is allowed and denotes a scalar.

Two scalar backends are supported:

* ``"int"``  -- exact arbitrary-precision integers (``data`` reads them
  as Python ints), so golden comparisons are bit-exact and sums can never
  silently wrap;
* ``"float"`` -- IEEE binary64, finite values only (NaN and inf raise).

``as_scalars`` is the one rule that decides which backend data lives on,
and the one check of raw data; every layer calls it (or
``as_scalars_joint`` for several raw operands) instead of inspecting
dtypes itself.  It scans every object array it is given, whatever
backend is asked for, except a value's own ``data``, whose entries are
Python ints by construction and are taken unread.  So each input is
checked once, where it enters: a raw operand at the call that takes it,
a value's data at the ``Hypermatrix`` or ``MatrixExpression``
constructor.  What the library makes is of its kind by construction and
filled unscanned (``_stored``, ``_owned``, ``expression._expression``);
checked or library-made int data that a float puts on binary64 converts
directly, and ``narrow`` and the gathers trust their callers.

Int products multiply through ``checked_product``, on the tier that
``narrow`` picks from the bound ``max|a| * max|b| * inner``: float32
BLAS up to 2**24 and float64 BLAS up to 2**53, where every partial sum
is an integer that binary32, or binary64, holds exactly, with the
product cast back to int64 (a float32 one into a fresh store, a float64
one inside the buffer BLAS returned); int64 up to 2**63 - 1; the object
array of Python ints past that.  ``narrow`` picks the tier before the
factors are laid out, so the layout copies them straight into the tier's
dtype.  Sums of vectors stay on the object array.  The value types
share one immutable base, ``_Frozen``; public constructors copy any
array the caller still holds.  Every value, built or a library result,
is filled by one step, ``Hypermatrix._filled``: an int value holds one
store, its read-only int64 form when every entry fits int64, else its
object array of Python ints.  Products, gathers, comparisons and
one-entry reads read the store; only ``data``, ``nd`` and ``repr`` widen
an int64 form, once.  No value
keeps its ``max|v|``: ``narrow`` measures both int64 factors of every
product, and only ``core`` measures a magnitude.

One entry budget, ``MAX_ENTRIES``, bounds every array the library sizes
from its inputs rather than from data it was given: a permutation or
dense delta matrix, a semi-tensor result or repeated factor, a Kronecker
chain, a dimension-free sum, the stacked identity, a contraction's
result, a zero hypermatrix, an identity logical matrix and a logical
matrix's gather-product.  Each caller counts what it allocates and asks
``_check_budget`` before allocating it.
"""

from __future__ import annotations

import contextlib
import math
import operator
import weakref
from typing import Iterable, Iterator

import numpy as np

# Largest admissible total size: the platform index type.
MAX_SIZE = np.iinfo(np.intp).max

# Most entries of any array the library sizes from its inputs; larger
# requests raise ``OverflowError`` before allocating.
MAX_ENTRIES = 2 ** 24


def _checked_int(v) -> int:
    """An index argument as a Python int: an integer, numpy's too, but no bool; else ``TypeError`` naming it."""
    if type(v) is int:  # the common case, at the cost of ``int(v)``
        return v
    if not isinstance(v, (bool, np.bool_)):
        try:
            return operator.index(v)
        except TypeError:
            pass
    raise TypeError(f"{v!r} is not an integer")


def check_dims(dims: Iterable[int]) -> tuple[int, ...]:
    """Validate a shape vector and return it as a tuple.

    Every dimension must be a positive integer (``_checked_int``) and the
    total size must fit the platform index type.
    """
    dims = tuple(map(_checked_int, dims))
    for axis, n in enumerate(dims, start=1):
        if n < 1:
            raise ValueError(f"dimension at axis {axis} must be >= 1, got {n}")
    if size_of(dims) > MAX_SIZE:
        raise OverflowError(f"total size of shape {dims} exceeds the index type")
    return dims


def _check_budget(entries: int, what: str, *args, unit: str = "entries") -> int:
    """``entries``, the size of an array about to be allocated, when within ``MAX_ENTRIES``.

    Above it raises ``OverflowError`` naming the array (``what`` formatted
    with ``args``, only then), its size in ``unit`` and the budget.
    """
    if entries > MAX_ENTRIES:
        raise OverflowError(f"{what.format(*args)} has {entries} {unit}, above the budget of {MAX_ENTRIES}")
    return entries


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
    for axis, (i, n) in enumerate(zip(map(_checked_int, idx), dims), start=1):
        if not 1 <= i <= n:
            raise IndexError(f"index {i} out of range [1, {n}] at axis {axis}")
        rank = rank * n + (i - 1)
    return rank + 1


def delinearize(dims: tuple[int, ...], rank: int) -> tuple[int, ...]:
    """Multi-index (1-based) at a given flat rank; inverse of linearize."""
    rank = _checked_int(rank)
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

# Array dtype kind -> scalar kind.  Object arrays are the int backend:
# ``as_scalars`` scans their entries unless a value handed them out.
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
    """The scalar-kind policy, and the one check of raw data: ``values`` on one backend, and that backend.

    * An object array is int data: every entry must be an integer (numpy's
      become Python ints), and a float or a non-number raises ``TypeError``
      naming it and its 1-based flat position.  A value's own ``data``
      (``_is_value_data``) holds Python ints by construction and is taken
      unread.  A float64 array is float data as it stands; other integer
      or float arrays convert by dtype.  Boolean and any other arrays raise
      ``TypeError``.
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
    if isinstance(values, np.ndarray) and (values.dtype != object or _is_value_data(values)):
        have = _ARRAY_KINDS.get(values.dtype.kind)
        if have is None:
            raise TypeError(f"arrays of dtype {values.dtype} do not hold scalars")
        arr = values
    else:
        if isinstance(values, Iterator):
            values = list(values)
        arr, have = _scanned(np.asarray(values, dtype=object))
        if have == "float" and isinstance(values, np.ndarray):
            pos, v = next((pos, v) for pos, v in enumerate(arr.flat, start=1) if isinstance(v, (float, np.floating)))
            raise TypeError(f"float {v!r} at position {pos} is not an int-backend value")
    if kind == "int" and have == "float":
        raise TypeError("float data does not convert to the int backend")
    kind = kind or have
    if arr.dtype != DTYPE[kind]:
        arr = arr.astype(DTYPE[kind])
    if kind == "float" and not np.isfinite(arr).all():
        pos = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise ValueError(f"non-finite value {float(arr.reshape(-1)[pos])} at position {pos + 1}")
    return arr, kind


def as_scalars_joint(*operands, kind: str = "int") -> tuple[list[np.ndarray], str]:
    """Several raw operands on one backend: float when ``kind`` (a store they meet) or any of them is.

    Each operand is checked once, by ``as_scalars``; an int one that a
    float puts on binary64 converts directly, since an int never becomes
    a non-finite float.
    """
    pairs = [as_scalars(x) for x in operands]
    if any(k == "float" for _, k in pairs):
        kind = "float"
    return [x if k == kind else x.astype(np.float64) for x, k in pairs], kind


_INT64_MAX = 2 ** 63 - 1
# Integers of magnitude at most 2**24 are exact in binary32, at most 2**53 in binary64.
_FLOAT32_EXACT = 2 ** 24
_FLOAT64_EXACT = 2 ** 53


# The object arrays that values hand out as ``data``, by id, so that a reader can take them unread.
_VALUE_DATA: "weakref.WeakValueDictionary[int, np.ndarray]" = weakref.WeakValueDictionary()


def _handed_out(data: np.ndarray) -> np.ndarray:
    """``data``, recorded as a value's own: ``_is_value_data`` knows it from then on."""
    _VALUE_DATA[id(data)] = data
    return data


def _is_value_data(arr: np.ndarray) -> bool:
    """True for an object array that a value handed out as its ``data``: Python ints by construction."""
    return _VALUE_DATA.get(id(arr)) is arr


def _magnitude(arr: np.ndarray) -> int:
    """``max |v|`` over an int64 array as a Python int (0 when empty), so -2**63 cannot wrap."""
    return max(int(arr.max(initial=0)), -int(arr.min(initial=0)))


def narrow(a: np.ndarray, b: np.ndarray, inner: int) -> tuple[np.ndarray, np.ndarray, type]:
    """Both factors of a product, and the narrowest scalar type that keeps it exact.

    For int factors whose products sum ``inner`` terms at most, the bound
    ``max|a| * max|b| * inner`` (in Python ints) picks the tier:

    * at most 2**24: float32;
    * at most 2**53: float64;
    * at most 2**63 - 1: int64;
    * otherwise object arrays of Python ints.

    A float tier is exact: every partial sum, in any order and with or
    without FMA, is an integer of magnitude at most the bound, which
    binary32 (up to 2**24) or binary64 (up to 2**53) holds exactly.  An
    entry past the tier's exact range, rounded by the layout's cast, can
    only meet a bound whose other factor's term is 0: it is multiplied by
    exact zeros.  No int64 magnitude comes near binary32's maximum, so no
    entry becomes inf.  The thresholds are ``_tier``'s, the one place a
    bound becomes a tier, and ``narrow`` only chooses: it trusts its
    callers, whose factors ``as_scalars`` checked where they entered (a
    value's data at its constructor, a raw operand at the call that takes
    it), so an object factor holds Python ints.  Both int64 factors are
    measured here, on every call.  Int factors come back int64 or as
    Python ints, not yet in the tier's dtype: the caller lays them out in
    that dtype, so the cast costs no pass of its own.  Float factors come
    back untouched, with float64.
    """
    if a.dtype.kind == "f" or b.dtype.kind == "f":
        return a, b, np.float64
    try:
        a, b = a.astype(np.int64, copy=False), b.astype(np.int64, copy=False)
    except OverflowError:
        return a, b, object
    return a, b, _tier(_magnitude(a) * _magnitude(b) * inner)


def _tier(bound: int) -> type:
    """The narrowest scalar type holding exactly every int partial sum of magnitude at most ``bound``.

    float32 up to 2**24, float64 up to 2**53, int64 up to 2**63 - 1,
    object past that.  A float tier is exact for a bound ``max|a| *
    max|b| * inner``:

    * every partial sum, in any order and with or without FMA, is an
      integer of magnitude at most the bound;
    * binary32 holds every integer of magnitude at most 2**24 exactly,
      binary64 every one up to 2**53;
    * an operand entry past that range, which the cast to the tier
      rounds, occurs only when the other factor's term of the bound is
      0, so it is multiplied by exact zeros;
    * int64 magnitudes are far below binary32's maximum, so no entry
      becomes inf.

    Read by ``narrow`` and by a chain of products that bounds all its
    steps at once (``applications._ybe_chain``).
    """
    if bound > _INT64_MAX:
        return object
    if bound > _FLOAT64_EXACT:
        return np.int64
    return np.float64 if bound > _FLOAT32_EXACT else np.float32


def _cast_back(out: np.ndarray) -> np.ndarray:
    """An int product on any tier, with a float tier's result cast back to int64 exactly.

    A float32 product, half the itemsize, is cast into a fresh int64
    store; a float64 one inside its own buffer.  An int64 or object
    product is returned as it is.
    """
    if out.dtype == np.float32:
        return out.astype(np.int64)
    if out.dtype != np.float64:
        return out
    flat = out.reshape(-1)
    ints = flat.view(np.int64)
    # A 1-D copy between equal itemsizes over the same memory runs in place.
    np.copyto(ints, flat, casting="unsafe")
    return ints.reshape(out.shape)


def checked_product(op, a: np.ndarray, b: np.ndarray, inner: int) -> np.ndarray:
    """``op(a, b, dtype)``, the product computed in the dtype ``narrow`` picks for sums of ``inner`` terms.

    ``op`` receives the factors as ``narrow`` returns them and must
    multiply them in ``dtype`` into a fresh C-contiguous array.  Int
    products come back int64 or as Python ints, not widened: a float-tier
    product holds integers of magnitude at most 2**24 (float32) or 2**53
    (float64) and ``_cast_back`` casts it to int64 exactly.  Float factors
    multiply as they are.
    """
    na, nb, dtype = narrow(a, b, inner)
    out = op(na, nb, dtype)
    return out if a.dtype.kind == "f" else _cast_back(out)


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


# ``_Frozen._fill`` tests every slot value against it: a global read is cheaper than ``np.ndarray``.
_ndarray = np.ndarray


class _Frozen:
    """Immutable value; copies and pickles rebuild through the constructor from ``_args``."""

    __slots__ = ()
    _args: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # The slots' own setters, so that a write looks up no name.
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _fill(self, *values):
        """Write the slots in ``__slots__`` order and return the value; array values become read-only."""
        for put, value in zip(self._setters, values):
            # Reading the flag costs a third of setting it.
            if isinstance(value, _ndarray) and value.flags.writeable:
                value.setflags(write=False)
            put(self, value)
        return self

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._args)


class Hypermatrix(_Frozen):
    """Immutable order-d array with flat row-major storage.

    The flat ``data`` vector lists entries in ID order, i.e. entry
    ``(i1, ..., id)`` sits at flat rank ``linearize(dims, idx)``.  An int
    value holds one store (``_flat``): its read-only int64 form
    (``_int64``) when every entry fits int64, else the object array of
    Python ints (``_data``).  Over an int64 form, ``data`` is a cache,
    widened on first read; the hash is computed on first use and kept.
    """

    __slots__ = ("dims", "_data", "kind", "_int64", "_hash")

    def __init__(self, dims, data, kind: str | None = None):
        dims = check_dims(dims)
        # A numeric array goes to the fill step as it is, so an int array is never widened to Python ints.
        flat = data if isinstance(data, np.ndarray) and data.dtype != object else as_scalars(data, kind)[0]
        # A list never aliases; asking numpy would convert it first.
        if isinstance(data, np.ndarray) and np.may_share_memory(flat, data):
            flat = flat.copy()
        self._filled(dims, flat, kind)

    def _filled(self, dims: tuple[int, ...], flat: np.ndarray, kind: str | None):
        """The one fill step: the slots from an array of ``dims``' entries that no caller holds.

        Int entries (object ones are Python ints, checked or library-made) go
        to one store, or straight to binary64 when ``kind`` asks for float;
        other data takes the scalar policy.  ``astype`` wraps a uint64 entry
        past 2**63 - 1 silently, so an unsigned maximum is read first.
        """
        if flat.dtype == object and kind == "float":
            flat = flat.astype(np.float64)
        elif flat.dtype.kind not in "iuO" or kind not in (None, "int"):
            flat, kind = as_scalars(flat, kind)
        flat = flat.reshape(-1)
        if flat.size != size_of(dims):
            raise ValueError(f"data length {flat.size} does not match shape {dims} (expected {size_of(dims)})")
        if kind != "float":
            if flat.dtype.kind == "u" and flat.max(initial=0) > _INT64_MAX:
                flat = flat.astype(object)
            try:
                return self._fill(dims, None, "int", flat.astype(np.int64, copy=False), None)
            except OverflowError:
                kind = "int"
        return self._fill(dims, _handed_out(flat) if kind == "int" else flat, kind, None, None)

    @property
    def data(self) -> np.ndarray:
        """The read-only flat entries: Python ints on the int backend, binary64 on float."""
        if self._data is None:
            data = self._int64.astype(object)
            data.setflags(write=False)
            object.__setattr__(self, "_data", _handed_out(data))
        return self._data

    def _flat(self) -> np.ndarray:
        """The store: what products, gathers, comparisons and pickles read, never widened."""
        return self.data if self._int64 is None else self._int64

    def __reduce__(self):
        return type(self), (self.dims, self._flat(), self.kind)

    def _max_abs(self) -> int | None:
        """``max |v|`` of the int64 form, measured on each call; None without one."""
        return None if self._int64 is None else _magnitude(self._int64)

    # -- construction ------------------------------------------------

    @classmethod
    def from_flat(cls, dims, values, kind: str | None = None) -> "Hypermatrix":
        """Hypermatrix from a flat list of scalars in ID order."""
        return cls(dims, values, kind)

    @classmethod
    def from_nd(cls, array, kind: str | None = None) -> "Hypermatrix":
        """Hypermatrix from a (row-major) numpy array or nested lists."""
        if isinstance(array, np.ndarray):
            return cls(array.shape, array, kind)
        # Nested lists become a fresh array that no caller holds: no second copy.
        arr, kind = as_scalars(array, kind)
        return object.__new__(cls)._filled(check_dims(arr.shape), arr, kind)

    @classmethod
    def zeros(cls, dims, kind: str = "int") -> "Hypermatrix":
        dims = check_dims(dims)
        return _stored(dims, np.zeros(_check_budget(size_of(dims), "zero hypermatrix of shape {}", dims), int), kind)

    # -- views -------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return size_of(self.dims)

    @property
    def nd(self) -> np.ndarray:
        """Read-only numpy view of shape ``dims`` (row-major, zero copy)."""
        return self.data.reshape(self.dims)

    # -- element access ----------------------------------------------

    def get(self, idx: tuple[int, ...]):
        """Entry at a 1-based multi-index, read from the store: no cache is filled."""
        rank = linearize(self.dims, tuple(idx)) - 1
        return self._data[rank] if self._int64 is None else int(self._int64[rank])

    def items(self) -> Iterator[tuple[tuple[int, ...], object]]:
        """Iterate ``(multi_index, value)`` pairs in ID order."""
        yield from zip(iter_indices(self.dims), self._data if self._int64 is None else map(int, self._int64))

    def to_scalar(self):
        if self.size != 1:
            raise ValueError(f"hypermatrix of shape {self.dims} is not a scalar")
        return self.get((1,) * self.order)

    # -- comparison --------------------------------------------------

    def approx_equal(self, other: "Hypermatrix", tol: float = 0.0) -> bool:
        """Element-wise comparison.

        The int backend compares exactly (tol is ignored); the float
        backend admits ``|a - b| <= tol * max(1, |a|, |b|)`` per entry.
        """
        if self.dims != other.dims:
            raise ValueError(f"shape mismatch: {self.dims} vs {other.dims}")
        if same_kind(self, other) == "int":
            return self == other
        a, b = self.data, other.data
        bound = tol * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        return bool(np.all(np.abs(a - b) <= bound))

    def __eq__(self, other):
        if not isinstance(other, Hypermatrix):
            return NotImplemented
        return (
            self.dims == other.dims
            and self.kind == other.kind
            and np.array_equal(self._flat(), other._flat())
        )

    def __hash__(self):
        if self._hash is None:
            # tolist() of an int64 form yields the Python ints ``data`` holds.
            object.__setattr__(self, "_hash", hash((self.dims, self.kind, tuple(self._flat().tolist()))))
        return self._hash

    def __repr__(self):
        if self.size <= 8:
            return f"Hypermatrix(dims={self.dims}, data={list(self.data)}, kind={self.kind!r})"
        return f"Hypermatrix(dims={self.dims}, size={self.size}, kind={self.kind!r})"


def _owned(dims, values: list, kind: str) -> Hypermatrix:
    """A value from a flat list whose entries the caller has type-checked for ``kind``.

    The constructor's checks in its order (dims, the float conversion and
    finiteness, the length), without its type pass over the entries and
    without its copy: int entries go straight to int64 when they fit.
    """
    dims = check_dims(dims)
    if kind == "int":
        with contextlib.suppress(OverflowError):
            return _stored(dims, np.array(values, dtype=np.int64), kind)
    return _stored(dims, np.array(values, dtype=DTYPE[kind]), kind)


def _stored(dims: tuple[int, ...], out: np.ndarray, kind: str | None) -> Hypermatrix:
    """A library result from a fresh array ``out``, through the fill step unscanned and uncopied."""
    return object.__new__(Hypermatrix)._filled(dims, out, kind)
