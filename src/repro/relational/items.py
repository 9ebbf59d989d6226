"""Polymorphic ``item`` columns and the shared string pool.

The XQuery data model is a sequence of *items* (atomic values or nodes).
Pathfinder encodes sequences relationally as ``iter | pos | item`` tables
where ``item`` is a polymorphic column.  MonetDB realises the polymorphic
column with BATs plus the ``mposjoin`` operator; here an
:class:`ItemColumn` carries a ``kinds`` byte array alongside an ``int64``
payload array:

========== ===========================================================
kind        payload
========== ===========================================================
``K_INT``   the integer value itself
``K_DBL``   IEEE-754 bit pattern of the double (via ``view(int64)``)
``K_STR``   surrogate id into the :class:`StringPool`
``K_BOOL``  0 or 1
``K_NODE``  global node id (arena row index, document ordered)
``K_ATTR``  global attribute id (attribute-arena row index)
``K_UNTYPED`` surrogate id into the pool (``xs:untypedAtomic``)
``K_QNAME`` surrogate id into the pool
========== ===========================================================

The :class:`StringPool` plays the role of the paper's *property BATs*:
every distinct string is stored once and identified by its surrogate, so
value comparisons and equi-joins on strings reduce to ``int64`` equality
(Section 3.1, "surrogate sharing ... avoids expensive string comparisons").
"""

from __future__ import annotations

import math
import threading
from itertools import filterfalse
from typing import Iterable, Sequence

import numpy as np

from repro.errors import DynamicError, TypeError_

K_INT = 0
K_DBL = 1
K_STR = 2
K_BOOL = 3
K_NODE = 4
K_ATTR = 5
K_UNTYPED = 6
K_QNAME = 7
K_DEC = 8

KIND_NAMES = {
    K_INT: "xs:integer",
    K_DBL: "xs:double",
    K_STR: "xs:string",
    K_BOOL: "xs:boolean",
    K_NODE: "node",
    K_ATTR: "attribute",
    K_UNTYPED: "xs:untypedAtomic",
    K_QNAME: "xs:QName",
    K_DEC: "xs:decimal",
}


class XSDecimal(float):
    """An ``xs:decimal`` value (a float subclass used as a type tag).

    The engine stores decimals with double precision, but the *static
    type* matters for conformance: dividing exact numerics (integer or
    decimal) by zero is ``err:FOAR0001``, while only ``xs:double``
    division may yield INF/NaN (F&O 6.2.4).  The lexer tags decimal
    literals (``1.5``) with this class so both back-ends can tell
    ``1.0 div 0.0`` (an error) apart from ``1.0e0 div 0e0`` (INF).
    """

    __slots__ = ()

#: declared external-variable type → acceptable item kinds at bind time
#: (the compiler rejects declarations outside this table statically)
PARAM_TYPE_KINDS: dict[str, tuple[int, ...]] = {
    "xs:integer": (K_INT,),
    "xs:int": (K_INT,),
    "xs:long": (K_INT,),
    # numeric promotion: an integer binding satisfies a double declaration
    "xs:double": (K_DBL, K_DEC, K_INT),
    "xs:decimal": (K_DEC, K_DBL, K_INT),
    "xs:float": (K_DBL, K_DEC, K_INT),
    "xs:string": (K_STR,),
    "xs:untypedAtomic": (K_STR, K_UNTYPED),
    "xs:boolean": (K_BOOL,),
}

#: kinds whose payload is a pool surrogate
_POOLED = (K_STR, K_UNTYPED, K_QNAME)
#: kinds that participate in numeric arithmetic without casting
_NUMERIC = (K_INT, K_DBL, K_DEC)
#: exact numeric kinds — division by zero raises instead of yielding INF
_EXACT = (K_INT, K_DEC)

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_U8 = np.empty(0, dtype=np.uint8)

_EXACT_ARR = np.array(_EXACT, dtype=np.uint8)


#: ``kind -> carries a pool surrogate``, indexed by the uint8 kind
_IS_POOLED = np.zeros(256, dtype=bool)
_IS_POOLED[list(_POOLED)] = True


def is_pooled(kinds: np.ndarray) -> np.ndarray:
    """Which items of a kind column carry a pool surrogate."""
    return _IS_POOLED[kinds]


def pooled_strings(
    kinds: np.ndarray, data: np.ndarray, pool: "StringPool"
) -> tuple[list[bool], "Iterable[str]"]:
    """Batch-decode every pooled payload in an item column.

    Returns ``(mask, strings)``: ``mask[i]`` says whether item ``i``
    carries a pool surrogate, and ``strings`` iterates the decoded
    strings of exactly those items in order — one
    :meth:`StringPool.values` call instead of a ``pool.value`` round
    trip per item.  The shared decode core of ``ItemColumn.to_values``
    and the result value iterator.
    """
    pooled = is_pooled(kinds)
    decoded = pool.values(data[pooled]) if pooled.any() else []
    return pooled.tolist(), iter(decoded)


class StringPool:
    """Interning pool for strings, with per-surrogate memos of derived
    values.

    Surrogate ids are dense, starting at 0, and stable for the lifetime of
    the pool.  The strings live in one numpy object array, grown by
    doubling, so :meth:`values` decodes a whole column with one fancy
    index.

    Interning is thread-safe: concurrent queries share one pool, and a
    check-then-append race would mint two surrogates for equal strings —
    breaking the surrogate-equality property every string comparison
    relies on.  The common already-interned case stays lock-free (a dict
    read); only genuine misses take the mutex.  A string is stored before
    its surrogate is published, and a grow copies every stored string
    before the new array replaces the old, so a reader holding a
    surrogate finds its string in whichever array it reads.

    Values derived from pooled strings — the ``xs:double`` cast
    (:meth:`doubles_for`), the serializer's escaped forms
    (:meth:`memoised`) — are memoised per surrogate and computed only
    for the distinct ids a caller asks for that are not known yet: a
    cast touches the strings of its column, never the whole pool.
    """

    def __init__(self):
        self._strings = np.empty(64, dtype=object)
        self._count = 0
        self._ids: dict[str, int] = {}
        self._memos: dict = {}
        self._intern_lock = threading.Lock()

    def __len__(self) -> int:
        return self._count

    def _store_locked(self, strings: list[str]) -> None:
        """Store ``strings`` under the next surrogates; the caller holds
        the intern lock and publishes their ids in ``_ids`` afterwards."""
        n = self._count
        end = n + len(strings)
        if end > len(self._strings):
            grown = np.empty(max(end, 2 * len(self._strings)), dtype=object)
            grown[:n] = self._strings[:n]
            self._strings = grown
        self._strings[n:end] = strings
        self._count = end

    def intern(self, s: str) -> int:
        """Return the surrogate for ``s``, creating one if necessary."""
        sid = self._ids.get(s)
        if sid is not None:
            return sid
        with self._intern_lock:
            sid = self._ids.get(s)
            if sid is None:
                sid = self._count
                if sid < len(self._strings):
                    self._strings[sid] = s
                    self._count = sid + 1
                else:
                    self._store_locked([s])
                self._ids[s] = sid
            return sid

    def lookup(self, s: str) -> int:
        """Return the surrogate for ``s`` or ``-1`` if it was never interned.

        Useful for constant predicates: a constant that is not in the pool
        cannot match any stored string.
        """
        return self._ids.get(s, -1)

    def value(self, sid: int) -> str:
        """Return the string for a surrogate id."""
        if not 0 <= sid < self._count:
            raise IndexError(f"no pooled string {sid}")
        return self._strings[sid]

    def values(self, sids) -> list[str]:
        """Decode many surrogates at once (one fancy index)."""
        return self._strings[: self._count][np.asarray(sids, dtype=np.intp)].tolist()

    def intern_many(self, values: Sequence[str]) -> np.ndarray:
        """Intern a batch of strings, returning their surrogates.

        Surrogates come out as sequential :meth:`intern` calls would
        assign them: the batch's new strings are stored in the order of
        their first occurrence.  Every step runs at C level: a batch of
        hits takes no lock; otherwise the misses, deduplicated with
        ``dict.fromkeys``, take the intern mutex once and are stored with
        one slice assignment, and the batch is mapped through the id
        dict with one ``np.fromiter``.
        """
        ids = self._ids
        if not all(map(ids.__contains__, values)):
            with self._intern_lock:
                new = list(dict.fromkeys(filterfalse(ids.__contains__, values)))
                if new:
                    n = self._count
                    self._store_locked(new)
                    ids.update(zip(new, range(n, n + len(new))))
        return np.fromiter(map(ids.__getitem__, values), dtype=np.int64, count=len(values))

    def memoised(self, derive, sids, dtype=object) -> np.ndarray:
        """``derive`` applied to the strings of ``sids``, memoised per
        surrogate.

        ``derive`` maps a list of strings to as many results; it runs
        only on the distinct ids of ``sids`` whose result is not known
        yet, under the intern lock (so it must not intern).  Each memo is a ``(results, known)`` pair of arrays, grown
        with the pool and filled under the intern lock; readers index a
        local snapshot of the pair, and a grow copies both arrays before
        replacing them, so a concurrent fill can never shrink or un-mark
        what another thread reads.
        """
        sids = np.asarray(sids, dtype=np.intp)
        if len(sids) == 0:
            return np.empty(0, dtype=dtype)
        memo = self._memos.get(derive)
        if memo is not None:
            results, known = memo
            if sids.max() < len(known) and known[sids].all():
                return results[sids]
        with self._intern_lock:
            results, known = self._memos.get(derive) or (
                np.empty(0, dtype=dtype), np.zeros(0, dtype=bool)
            )
            if len(known) < self._count:
                size = self._count + self._count // 2
                grown = np.empty(size, dtype=dtype), np.zeros(size, dtype=bool)
                grown[0][: len(known)] = results
                grown[1][: len(known)] = known
                results, known = grown
                self._memos[derive] = grown
            missing = np.unique(sids[~known[sids]])
            if len(missing):
                results[missing] = derive(self.values(missing))
                known[missing] = True
        return results[sids]

    def doubles_for(self, sids: np.ndarray) -> np.ndarray:
        """Cast pooled strings to doubles, elementwise (NaN when invalid).

        The cast is memoised per surrogate (:meth:`memoised`): a column
        with many duplicate strings is parsed once per distinct value,
        and only the strings it holds are parsed.
        """
        return self.memoised(_parse_doubles, sids, np.float64)

    def sort_ranks(self, sids: np.ndarray) -> np.ndarray:
        """Return ranks such that rank order == lexicographic string order.

        Ranks are local to the given array (dense over its distinct
        values); they are only meant to be used as sort keys.
        """
        uniq, inverse = np.unique(np.asarray(sids, dtype=np.int64), return_inverse=True)
        decoded = self.values(uniq)
        order = sorted(range(len(decoded)), key=decoded.__getitem__)
        ranks_of_uniq = np.empty(len(uniq), dtype=np.int64)
        ranks_of_uniq[order] = np.arange(len(uniq), dtype=np.int64)
        return ranks_of_uniq[inverse]

    def bytes_used(self) -> int:
        """Approximate heap footprint of the pooled strings (for E3)."""
        return sum(len(s.encode("utf-8")) for s in self._strings[: self._count])


def _parse_doubles(strings: list[str]) -> list[float]:
    return [_parse_double(s) for s in strings]


def _parse_double(s: str) -> float:
    text = s.strip()
    if not text:
        return math.nan
    try:
        return float(text)
    except ValueError:
        if text == "INF":
            return math.inf
        if text == "-INF":
            return -math.inf
        return math.nan


def _bits(values: np.ndarray) -> np.ndarray:
    """View float64 values as their int64 bit patterns (canonical zero)."""
    values = np.asarray(values, dtype=np.float64)
    values = values + 0.0  # normalises -0.0 to +0.0
    return values.view(np.int64)


def _unbits(payload: np.ndarray) -> np.ndarray:
    return np.asarray(payload, dtype=np.int64).view(np.float64)


class ItemColumn:
    """A column of XQuery items: parallel ``kinds`` and ``data`` arrays."""

    __slots__ = ("kinds", "data")

    def __init__(self, kinds: np.ndarray, data: np.ndarray):
        self.kinds = np.asarray(kinds, dtype=np.uint8)
        self.data = np.asarray(data, dtype=np.int64)
        if self.kinds.shape != self.data.shape:
            raise ValueError("kinds/data length mismatch")

    # ---------------------------------------------------------------- build
    @classmethod
    def empty(cls) -> "ItemColumn":
        """A zero-length item column."""
        return cls(_EMPTY_U8, _EMPTY_I64)

    @classmethod
    def of_kind(cls, kind: int, data: np.ndarray) -> "ItemColumn":
        """A column whose every item has ``kind`` with payloads ``data``."""
        data = np.asarray(data, dtype=np.int64)
        return cls(np.full(len(data), kind, dtype=np.uint8), data)

    @classmethod
    def from_ints(cls, values) -> "ItemColumn":
        """Encode integers as ``xs:integer`` items."""
        return cls.of_kind(K_INT, np.asarray(values, dtype=np.int64))

    @classmethod
    def from_doubles(cls, values) -> "ItemColumn":
        """Encode floats as ``xs:double`` items (payload = raw IEEE bits)."""
        return cls.of_kind(K_DBL, _bits(np.asarray(values, dtype=np.float64)))

    @classmethod
    def from_decimals(cls, values) -> "ItemColumn":
        """Encode floats as ``xs:decimal`` items (payload = raw IEEE bits)."""
        return cls.of_kind(K_DEC, _bits(np.asarray(values, dtype=np.float64)))

    @classmethod
    def from_bools(cls, values) -> "ItemColumn":
        """Encode a boolean mask as ``xs:boolean`` items."""
        return cls.of_kind(K_BOOL, np.asarray(values, dtype=bool).astype(np.int64))

    @classmethod
    def from_nodes(cls, node_ids) -> "ItemColumn":
        """Encode arena node ids as node items."""
        return cls.of_kind(K_NODE, np.asarray(node_ids, dtype=np.int64))

    @classmethod
    def from_pooled(cls, kind: int, sids) -> "ItemColumn":
        """Encode pooled string ids as string/untypedAtomic items."""
        if kind not in _POOLED:
            raise ValueError("from_pooled requires a pooled kind")
        return cls.of_kind(kind, np.asarray(sids, dtype=np.int64))

    @classmethod
    def from_values(cls, values: Sequence, pool: StringPool) -> "ItemColumn":
        """Encode arbitrary Python scalars (bool/int/float/str)."""
        n = len(values)
        kinds = np.empty(n, dtype=np.uint8)
        data = np.empty(n, dtype=np.int64)
        for i, v in enumerate(values):
            if isinstance(v, bool):
                kinds[i] = K_BOOL
                data[i] = int(v)
            elif isinstance(v, int):
                kinds[i] = K_INT
                try:
                    data[i] = v
                except OverflowError:
                    raise TypeError_(
                        f"integer {v} exceeds the engine's 64-bit item range"
                    ) from None
            elif isinstance(v, XSDecimal):
                kinds[i] = K_DEC
                data[i] = _bits(np.float64(v))
            elif isinstance(v, float):
                kinds[i] = K_DBL
                data[i] = _bits(np.float64(v))
            elif isinstance(v, str):
                kinds[i] = K_STR
                data[i] = pool.intern(v)
            else:
                raise TypeError_(f"cannot encode {type(v).__name__} as an item")
        return cls(kinds, data)

    # ------------------------------------------------------------ structure
    def __len__(self) -> int:
        return len(self.data)

    def take(self, idx) -> "ItemColumn":
        """Row selection/reordering by index array or boolean mask."""
        return ItemColumn(self.kinds[idx], self.data[idx])

    @staticmethod
    def concat(columns: Sequence["ItemColumn"]) -> "ItemColumn":
        """Concatenate item columns (empty input gives an empty column)."""
        if not columns:
            return ItemColumn.empty()
        return ItemColumn(
            np.concatenate([c.kinds for c in columns]),
            np.concatenate([c.data for c in columns]),
        )

    def repeat(self, counts) -> "ItemColumn":
        """Repeat each item ``counts[i]`` times (``np.repeat`` semantics)."""
        return ItemColumn(np.repeat(self.kinds, counts), np.repeat(self.data, counts))

    def is_homogeneous(self, kind: int) -> bool:
        """True when every item (if any) has exactly ``kind``."""
        return bool(len(self) == 0 or np.all(self.kinds == kind))

    # -------------------------------------------------------------- decode
    def to_values(self, pool: StringPool) -> list:
        """Decode back to Python scalars (nodes decode to their ids).

        Pooled payloads (string/untyped/QName) are decoded with one
        batched :meth:`StringPool.values` call rather than a
        ``pool.value`` round-trip per item.
        """
        pooled, strings = pooled_strings(self.kinds, self.data, pool)
        out = []
        for kind, payload, is_pooled in zip(
            self.kinds.tolist(), self.data.tolist(), pooled
        ):
            out.append(
                next(strings) if is_pooled else decode_item(kind, payload, pool)
            )
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ItemColumn(n={len(self)}, kinds={set(self.kinds.tolist())})"


def decode_item(kind: int, payload: int, pool: StringPool):
    """Decode a single (kind, payload) pair to a Python value."""
    if kind == K_INT:
        return payload
    if kind == K_DBL:
        return float(np.int64(payload).view(np.float64))
    if kind == K_DEC:
        return XSDecimal(np.int64(payload).view(np.float64))
    if kind == K_BOOL:
        return bool(payload)
    if kind in _POOLED:
        return pool.value(payload)
    return payload  # node / attribute ids stay numeric


def encode_item(value, pool: StringPool) -> tuple[int, int]:
    """Encode one Python scalar as a (kind, payload) pair."""
    if isinstance(value, bool):
        return K_BOOL, int(value)
    if isinstance(value, int):
        return K_INT, int(value)
    if isinstance(value, XSDecimal):
        return K_DEC, int(_bits(np.float64(value))[()])
    if isinstance(value, float):
        return K_DBL, int(_bits(np.float64(value))[()])
    if isinstance(value, str):
        return K_STR, pool.intern(value)
    raise TypeError_(f"cannot encode {type(value).__name__} as an item")


# --------------------------------------------------------------------------
# casts
# --------------------------------------------------------------------------
def to_double(col: ItemColumn, pool: StringPool) -> np.ndarray:
    """Cast every item to ``xs:double`` (NaN when a string is not numeric).

    Node items may not appear here: the compiler atomizes before any
    arithmetic, so a node reaching an arithmetic map is a compiler bug.
    """
    kinds, data = col.kinds, col.data
    if col.is_homogeneous(K_INT):
        return data.astype(np.float64)
    if col.is_homogeneous(K_DBL):
        return _unbits(data)
    out = np.empty(len(col), dtype=np.float64)
    m = kinds == K_INT
    if m.any():
        out[m] = data[m].astype(np.float64)
    m = (kinds == K_DBL) | (kinds == K_DEC)
    if m.any():
        out[m] = _unbits(data[m])
    m = kinds == K_BOOL
    if m.any():
        out[m] = data[m].astype(np.float64)
    m = (kinds == K_STR) | (kinds == K_UNTYPED)
    if m.any():
        out[m] = pool.doubles_for(data[m])
    m = (kinds == K_NODE) | (kinds == K_ATTR)
    if m.any():
        raise DynamicError(
            "node item in numeric context (missing atomization)", code="err:XPTY0004"
        )
    return out


def to_string_ids(col: ItemColumn, pool: StringPool) -> np.ndarray:
    """Cast every item to a pooled string surrogate (lexical form)."""
    kinds, data = col.kinds, col.data
    if len(col) == 0:
        return _EMPTY_I64
    if col.is_homogeneous(K_STR) or col.is_homogeneous(K_UNTYPED):
        return data.copy()
    out = np.empty(len(col), dtype=np.int64)
    pooled = is_pooled(kinds)
    out[pooled] = data[pooled]
    rest = ~pooled
    if rest.any():
        idx = np.nonzero(rest)[0]
        for i in idx:
            out[i] = pool.intern(lexical(int(kinds[i]), int(data[i]), pool))
    return out


def lexical(kind: int, payload: int, pool: StringPool) -> str:
    """The XQuery lexical (string) form of one atomic item."""
    if kind == K_INT:
        return str(payload)
    if kind in (K_DBL, K_DEC):
        return format_double(float(np.int64(payload).view(np.float64)))
    if kind == K_BOOL:
        return "true" if payload else "false"
    if kind in _POOLED:
        return pool.value(payload)
    raise TypeError_(f"no lexical form for kind {KIND_NAMES.get(kind, kind)}")


def xpath_round(v: float) -> int:
    """fn:round semantics: round half toward positive infinity."""
    return int(math.floor(v + 0.5))


def xpath_substring(s: str, start: float, length: float | None = None) -> str:
    """``fn:substring`` per F&O 7.4.3, including the NaN/±INF edge cases.

    The spec keeps the characters at positions ``p`` with ``round(start)
    <= p`` and (three-argument form) ``p < round(start) + round(length)``;
    every comparison involving NaN is false, so a NaN start or length
    yields ``""`` — it must not crash the rounding step.
    """
    if math.isnan(start):
        return ""
    lo = start if math.isinf(start) else math.floor(start + 0.5)
    if length is None:
        hi = math.inf
    else:
        if math.isnan(length):
            return ""
        hi = lo + (length if math.isinf(length) else math.floor(length + 0.5))
        if math.isnan(hi):  # -INF start + INF length
            return ""
    begin = max(lo, 1)
    if math.isinf(begin) or hi <= begin:
        return ""
    end = len(s) + 1 if math.isinf(hi) else min(int(hi), len(s) + 1)
    return s[int(begin) - 1 : end - 1]


def format_double(v: float) -> str:
    """Serialise a double the way XQuery does for the common cases."""
    if math.isnan(v):
        return "NaN"
    if math.isinf(v):
        return "INF" if v > 0 else "-INF"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


# --------------------------------------------------------------------------
# elementwise operations
# --------------------------------------------------------------------------
_ARITH = {"add", "sub", "mul", "div", "idiv", "mod"}
_CMP = {"eq", "ne", "lt", "le", "gt", "ge"}


#: xs:integer is int64 in this engine: a result beyond it is an error,
#: never a wrapped value (``err:FOAR0002`` for arithmetic, ``err:FOCA0003``
#: for casts)
I64_MIN, I64_MAX = -(2**63), 2**63 - 1


def int_in_range(v: int, code: str) -> int:
    """``v``, or the error ``code`` when it lies outside xs:integer."""
    if not I64_MIN <= v <= I64_MAX:
        raise DynamicError(f"{v} is outside the xs:integer range", code=code)
    return v


def doubles_to_ints(v: np.ndarray, code: str) -> np.ndarray:
    """Doubles truncated to xs:integer; NaN, ±INF and values outside
    int64 raise ``code``."""
    t = np.trunc(v)
    if not np.all((t >= -(2.0**63)) & (t < 2.0**63)):  # NaN fails both
        raise DynamicError("value outside the xs:integer range", code=code)
    return t.astype(np.int64)


def _int_arith(op: str, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Integer-payload arithmetic for ``add/sub/mul/idiv/mod`` (zero-free
    y); a result outside int64 is ``err:FOAR0002``."""
    if op == "mod":
        # C remainder (sign of x); x mod -1 is 0, and fmod(MIN, -1) traps
        return np.fmod(x, np.where(y == -1, 1, y))
    if op == "add":
        r = x + y  # wraps; the sign test below catches it
        over = ((x ^ r) & (y ^ r)) < 0
    elif op == "sub":
        r = x - y
        over = ((x ^ y) & (x ^ r)) < 0
    elif op == "mul":
        r = x * y
        # below 2**62 the double product cannot hide an overflow; check
        # the rest with exact integers
        near = np.abs(x.astype(np.float64) * y.astype(np.float64)) >= 2.0**62
        over = np.zeros(len(r), dtype=bool)
        over[near] = [
            not I64_MIN <= int(a) * int(b) <= I64_MAX for a, b in zip(x[near], y[near])
        ]
    else:  # idiv truncates toward zero; numpy floor-divides
        over = (x == I64_MIN) & (y == -1)
        y = np.where(over, 1, y)
        r = x // y
        r += (x % y != 0) & ((x < 0) != (y < 0))
    if over.any():
        raise DynamicError("xs:integer overflow", code="err:FOAR0002")
    return r


def arithmetic(op: str, a: ItemColumn, b: ItemColumn, pool: StringPool) -> ItemColumn:
    """Elementwise arithmetic with XQuery numeric promotion.

    Promotion is decided **per row**: integer op integer stays integral
    for ``add/sub/mul/idiv/mod``; two exact numerics (integer/decimal)
    stay decimal; anything else promotes to double.  Untyped operands are
    cast to double first (the F&O rule for untypedAtomic in arithmetic).
    Per-row typing matters for plan-rewrite stability — a row's result
    type may not depend on which other rows happen to share the column,
    or pruning rows would change results.  Dividing exact numerics by
    zero is ``err:FOAR0001`` — only ``xs:double`` division yields
    INF/NaN (``idiv`` by zero raises for every numeric type, F&O 6.2.5).
    """
    if op not in _ARITH:
        raise ValueError(f"unknown arithmetic op {op!r}")
    int_rows = (a.kinds == K_INT) & (b.kinds == K_INT)
    integral = op in ("add", "sub", "mul", "idiv", "mod")
    if integral and int_rows.all():
        x, y = a.data, b.data
        if op in ("idiv", "mod") and np.any(y == 0):
            raise DynamicError("integer division by zero", code="err:FOAR0001")
        return ItemColumn.from_ints(_int_arith(op, x, y))
    exact_rows = np.isin(a.kinds, _EXACT_ARR) & np.isin(b.kinds, _EXACT_ARR)
    x = to_double(a, pool)
    y = to_double(b, pool)
    if op == "idiv":
        # idiv returns xs:integer whatever the operand types (F&O 6.2.5)
        if np.any(y == 0):
            raise DynamicError("integer division by zero", code="err:FOAR0001")
        with np.errstate(over="ignore", invalid="ignore"):
            q = x / y
        return ItemColumn.from_ints(doubles_to_ints(q, "err:FOAR0002"))
    if op in ("div", "mod") and np.any(exact_rows & (y == 0)):
        raise DynamicError(
            "integer/decimal division by zero", code="err:FOAR0001"
        )
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if op == "add":
            r = x + y
        elif op == "sub":
            r = x - y
        elif op == "mul":
            r = x * y
        elif op == "div":
            r = x / y
        else:  # mod
            r = np.fmod(x, y)
    # closure over exact numerics: integer div integer (and any op mixing
    # integers with decimals) has type xs:decimal, so nested division by
    # zero is still detected
    kinds = np.where(exact_rows, K_DEC, K_DBL).astype(np.uint8)
    data = _bits(r)
    if integral and int_rows.any():
        # redo the all-integer rows in int64 so they keep exact payloads
        kinds[int_rows] = K_INT
        data[int_rows] = _int_arith(op, a.data[int_rows], b.data[int_rows])
    return ItemColumn(kinds, data)


def negate(a: ItemColumn, pool: StringPool) -> ItemColumn:
    """Unary minus with the same per-row promotion as :func:`arithmetic`."""
    int_rows = a.kinds == K_INT
    if np.any(a.data[int_rows] == I64_MIN):
        raise DynamicError("xs:integer overflow", code="err:FOAR0002")
    if int_rows.all():
        return ItemColumn.from_ints(-a.data)
    kinds = np.where(np.isin(a.kinds, _EXACT_ARR), K_DEC, K_DBL).astype(np.uint8)
    data = _bits(-to_double(a, pool))
    if int_rows.any():
        kinds[int_rows] = K_INT
        data[int_rows] = -a.data[int_rows]
    return ItemColumn(kinds, data)


def compare(op: str, a: ItemColumn, b: ItemColumn, pool: StringPool) -> np.ndarray:
    """Elementwise general-comparison semantics; returns a bool array.

    Per pair: if either side is numeric (int/double/bool) the comparison is
    numeric (untyped/string operands are cast, non-numeric strings compare
    false); if both sides are strings/untyped the comparison is
    lexicographic.
    """
    if op not in _CMP:
        raise ValueError(f"unknown comparison op {op!r}")
    n = len(a)
    if n != len(b):
        raise ValueError("comparison arity mismatch")
    if n == 0:
        return np.empty(0, dtype=bool)
    numeric_a = np.isin(a.kinds, np.array(_NUMERIC + (K_BOOL,), dtype=np.uint8))
    numeric_b = np.isin(b.kinds, np.array(_NUMERIC + (K_BOOL,), dtype=np.uint8))
    strings = ~(numeric_a | numeric_b)
    out = np.zeros(n, dtype=bool)
    # integer pairs compare exactly: doubles merge neighbours beyond 2**53
    ints = (a.kinds == K_INT) & (b.kinds == K_INT)
    if ints.any():
        out[ints] = _cmp_arrays(op, a.data[ints], b.data[ints])
    use_numeric = ~(strings | ints)
    if use_numeric.any():
        xa = to_double(a.take(use_numeric), pool)
        xb = to_double(b.take(use_numeric), pool)
        out[use_numeric] = _cmp_arrays(op, xa, xb)
    if strings.any():
        sa = to_string_ids(a.take(strings), pool)
        sb = to_string_ids(b.take(strings), pool)
        if op == "eq":
            out[strings] = sa == sb
        elif op == "ne":
            out[strings] = sa != sb
        else:
            joint = np.concatenate([sa, sb])
            ranks = pool.sort_ranks(joint)
            ra, rb = ranks[: len(sa)], ranks[len(sa):]
            out[strings] = _cmp_arrays(op, ra, rb)
    return out


def _cmp_arrays(op: str, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if op == "eq":
        return x == y
    if op == "ne":
        return x != y
    if op == "lt":
        return x < y
    if op == "le":
        return x <= y
    if op == "gt":
        return x > y
    return x >= y


def ebv(col: ItemColumn, pool: StringPool) -> np.ndarray:
    """Effective boolean value of each *single* item (bool array)."""
    kinds, data = col.kinds, col.data
    out = np.zeros(len(col), dtype=bool)
    m = kinds == K_BOOL
    out[m] = data[m] != 0
    m = kinds == K_INT
    out[m] = data[m] != 0
    m = (kinds == K_DBL) | (kinds == K_DEC)
    if m.any():
        v = _unbits(data[m])
        out[m] = (v != 0) & ~np.isnan(v)
    m = is_pooled(kinds)
    if m.any():
        lengths = np.fromiter(
            map(len, pool.values(data[m])), dtype=np.int64, count=int(m.sum())
        )
        out[m] = lengths > 0
    m = (kinds == K_NODE) | (kinds == K_ATTR)
    out[m] = True
    return out


def order_columns(col: ItemColumn, pool: StringPool) -> list[np.ndarray]:
    """Sort keys for an item column, usable with ``np.lexsort``.

    Returns ``[class, value]`` where ``class`` separates numeric items from
    strings from nodes (mixed-type ``order by`` keys sort by class first,
    a pragmatic total order) and ``value`` orders within the class.
    NaN sorts first within numerics (XQuery's "empty least" treats NaN as
    least among doubles).
    """
    kinds, data = col.kinds, col.data
    n = len(col)
    cls = np.zeros(n, dtype=np.int64)
    val = np.zeros(n, dtype=np.float64)
    numeric = np.isin(kinds, np.array(_NUMERIC + (K_BOOL,), dtype=np.uint8))
    if numeric.any():
        cls[numeric] = 1
        v = to_double(col.take(numeric), pool)
        v = np.where(np.isnan(v), -np.inf, v)
        val[numeric] = v
    pooled = is_pooled(kinds)
    if pooled.any():
        cls[pooled] = 2
        val[pooled] = pool.sort_ranks(data[pooled]).astype(np.float64)
    nodes = (kinds == K_NODE) | (kinds == K_ATTR)
    if nodes.any():
        cls[nodes] = 3
        val[nodes] = data[nodes].astype(np.float64)
    return [cls, val]


def join_keys(col: ItemColumn) -> tuple[np.ndarray, np.ndarray]:
    """Normalise an item column for equi-join key comparison.

    Returns ``(kinds, payload)`` with untyped folded into string so that a
    ``K_STR`` probe matches ``K_UNTYPED`` content (both carry pool ids).
    The compiler casts both join sides to a common kind, so this is a
    safety net rather than full cross-kind equality.
    """
    kinds = col.kinds.copy()
    kinds[kinds == K_UNTYPED] = K_STR
    # decimals carry double bit patterns, so value-equal keys match
    kinds[kinds == K_DEC] = K_DBL
    return kinds, col.data
