"""Relational schema export: the node arena as SQL tables.

The encoding mirrors the arena (``pre|size|level`` plus properties), with
two SQL-host-specific choices:

* property surrogates are decoded to TEXT on export — a SQL query cannot
  intern new strings into the Python pool, so strings travel as values;
* each node row carries its precomputed ``strval`` (the node's XPath
  string-value), which makes atomization a plain column reference —
  playing the role of an RDBMS materialised index.
"""

from __future__ import annotations

import math
import sqlite3

import numpy as np

from repro.encoding.arena import NodeArena
from repro.relational.items import xpath_substring

DDL = """
CREATE TABLE nodes (
    id      INTEGER PRIMARY KEY,
    kind    INTEGER NOT NULL,
    size    INTEGER NOT NULL,
    level   INTEGER NOT NULL,
    frag    INTEGER NOT NULL,
    parent  INTEGER NOT NULL,
    name    TEXT,
    value   TEXT,
    strval  TEXT,
    fragend INTEGER NOT NULL
);
CREATE TABLE attrs (
    id     INTEGER PRIMARY KEY,
    owner  INTEGER NOT NULL,
    name   TEXT NOT NULL,
    value  TEXT NOT NULL
);
CREATE INDEX idx_nodes_parent ON nodes(parent);
CREATE INDEX idx_nodes_name   ON nodes(name);
CREATE INDEX idx_attrs_owner  ON attrs(owner);
"""


def _register_functions(con: sqlite3.Connection) -> None:
    """XQuery cast semantics as SQL scalar functions."""

    def xq_double(text):
        if text is None:
            return None
        try:
            t = str(text).strip()
            if not t:
                return None
            if t == "INF":
                return math.inf
            if t == "-INF":
                return -math.inf
            return float(t)
        except (ValueError, TypeError):
            return None  # NaN is represented as NULL inside the SQL host

    def xq_fmt_double(value):
        if value is None:
            return "NaN"
        from repro.relational.items import format_double

        return format_double(float(value))

    def xq_mod(x, y):
        if x is None or y is None or y == 0:
            return None
        return float(np.fmod(x, y))

    def xq_substring2(s, start):
        if s is None or start is None:
            return ""
        return xpath_substring(s, float(start))

    def xq_substring3(s, start, length):
        if s is None or start is None or length is None:
            return ""
        return xpath_substring(s, float(start), float(length))

    def xq_substring_before(s, sub):
        if not sub or sub not in (s or ""):
            return ""
        return s.partition(sub)[0]

    def xq_substring_after(s, sub):
        if not sub or sub not in (s or ""):
            return ""
        return s.partition(sub)[2]

    def xq_normalize_space(s):
        return " ".join((s or "").split())

    con.create_function("xq_double", 1, xq_double, deterministic=True)
    con.create_function("xq_fmt_double", 1, xq_fmt_double, deterministic=True)
    con.create_function("xq_mod", 2, xq_mod, deterministic=True)
    con.create_function("xq_substring2", 2, xq_substring2, deterministic=True)
    con.create_function("xq_substring3", 3, xq_substring3, deterministic=True)
    con.create_function(
        "xq_substring_before", 2, xq_substring_before, deterministic=True
    )
    con.create_function(
        "xq_substring_after", 2, xq_substring_after, deterministic=True
    )
    con.create_function(
        "xq_normalize_space", 1, xq_normalize_space, deterministic=True
    )
    def _finite(fn):
        """floor/ceil/round are identities on non-finite doubles (and NaN
        travels as NULL, already handled by the None check)."""

        def wrapped(v):
            if v is None:
                return None
            v = float(v)
            if math.isinf(v):
                return v
            return float(fn(v))

        return wrapped

    con.create_function(
        "xq_floor", 1, _finite(math.floor), deterministic=True
    )
    con.create_function(
        "xq_ceiling", 1, _finite(math.ceil), deterministic=True
    )
    con.create_function(
        "xq_round", 1, _finite(lambda v: math.floor(v + 0.5)),
        deterministic=True,
    )
    con.create_function(
        "xq_abs", 1, lambda v: None if v is None else abs(float(v)),
        deterministic=True,
    )


def export_arena(arena: NodeArena, roots=None) -> sqlite3.Connection:
    """Create an in-memory SQLite database holding the arena.

    ``roots`` (an iterable of fragment-root row ids, e.g. the document
    catalog's values) restricts the export to those subtrees.  Row ids
    are stored explicitly, so region predicates over the exported subset
    behave exactly as over a full export — but superseded document
    versions the arena has not popped yet, and other queries'
    constructed nodes, stop being copied into every new SQL host.
    ``roots=None`` exports everything.
    """
    con = sqlite3.connect(":memory:")
    con.executescript(DDL)
    _register_functions(con)
    # the export scans whole columns (attribute owners in particular are
    # read unrestricted): fault every paged fragment in first
    arena.ensure_all()
    pool = arena.pool
    if roots is None:
        node_ids = np.arange(arena.num_nodes, dtype=np.int64)
    else:
        spans = [
            np.arange(root, root + int(arena.size[root]) + 1, dtype=np.int64)
            for root in sorted(roots)
        ]
        node_ids = (
            np.concatenate(spans) if spans else np.empty(0, dtype=np.int64)
        )
    if len(node_ids):
        strvals = arena.string_value_ids(node_ids)
        fragends = arena.frag_end(node_ids)
        rows = []
        for pos, i in enumerate(node_ids):
            i = int(i)
            name_id = int(arena.name[i])
            value_id = int(arena.value[i])
            rows.append(
                (
                    i,
                    int(arena.kind[i]),
                    int(arena.size[i]),
                    int(arena.level[i]),
                    int(arena.frag[i]),
                    int(arena.parent[i]),
                    pool.value(name_id) if name_id >= 0 else None,
                    pool.value(value_id) if value_id >= 0 else None,
                    pool.value(int(strvals[pos])),
                    int(fragends[pos]),
                )
            )
        con.executemany("INSERT INTO nodes VALUES (?,?,?,?,?,?,?,?,?,?)", rows)
    if arena.num_attrs:
        if roots is None:
            attr_ids = range(arena.num_attrs)
        else:
            live = set(node_ids.tolist())
            attr_ids = [
                j
                for j in range(arena.num_attrs)
                if int(arena.attr_owner[j]) in live
            ]
        arows = [
            (
                j,
                int(arena.attr_owner[j]),
                pool.value(int(arena.attr_name[j])),
                pool.value(int(arena.attr_value[j])),
            )
            for j in attr_ids
        ]
        con.executemany("INSERT INTO attrs VALUES (?,?,?,?)", arows)
    con.commit()
    return con
