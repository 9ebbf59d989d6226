"""The SQL host back-end: execute algebra plans on SQLite.

Export the arena once, translate each plan to one SQL query
(:mod:`repro.sqlhost.sqlgen`), run it, and decode the fetched rows back
into a column-store :class:`~repro.relational.table.Table` so results are
interchangeable with the numpy evaluator's.
"""

from __future__ import annotations

import math
import sqlite3

import numpy as np

from repro.encoding.arena import NodeArena
from repro.errors import DynamicError, NotSupportedError
from repro.relational import algebra as alg
from repro.relational.items import (
    ItemColumn,
    K_ATTR,
    K_BOOL,
    K_DBL,
    K_DEC,
    K_INT,
    K_NODE,
    K_STR,
    K_UNTYPED,
)
from repro.relational.table import Column, Table
from repro.sqlhost.schema import export_arena
from repro.sqlhost.sqlgen import SQLGenerator

_POOLED = (K_STR, K_UNTYPED)


class SQLHostBackend:
    """Run (non-constructing) algebra plans on a SQLite database."""

    def __init__(self, arena: NodeArena, documents: dict[str, int]):
        self.arena = arena
        self.documents = dict(documents)
        # export only the live document subtrees: superseded versions
        # still waiting in the arena (a held result, a live document
        # above them) never participate in SQL evaluation
        self.connection: sqlite3.Connection = export_arena(
            arena, roots=self.documents.values()
        )

    def close(self) -> None:
        """Close the SQLite connection holding the exported arena."""
        self.connection.close()

    # ------------------------------------------------------------------ API
    def sql_for(self, plan: alg.Op) -> str:
        """The SQL text a plan translates to (for inspection/tests)."""
        return SQLGenerator(self.documents).generate(plan)

    def execute(self, plan: alg.Op) -> Table:
        """Translate, run and decode one plan."""
        for op in alg.walk(plan):
            if isinstance(op, (alg.ElemConstr, alg.TextConstr, alg.AttrConstr)):
                raise NotSupportedError(
                    "the SQL host cannot evaluate node constructors"
                )
        sql = self.sql_for(plan)
        rows = self.connection.execute(sql).fetchall()
        return self._decode(plan, rows)

    def execute_query(self, query: str, default_document: str | None = None) -> Table:
        """Compile an XQuery string and run it on the SQL host."""
        from repro.compiler.loop_lifting import Compiler
        from repro.relational.optimizer import optimize
        from repro.xquery.core import desugar_module
        from repro.xquery.parser import parse_query

        module = desugar_module(parse_query(query))
        compiler = Compiler(self.documents, default_document)
        plan = optimize(compiler.compile_module(module))
        return self.execute(plan)

    # -------------------------------------------------------------- decode
    def _decode(self, plan: alg.Op, rows: list[tuple]) -> Table:
        schema = plan.columns
        item_cols = plan.item_columns
        pool = self.arena.pool
        columns: dict[str, Column] = {}
        idx = 0
        n = len(rows)
        for name in schema:
            if name in item_cols:
                kinds = np.empty(n, dtype=np.uint8)
                data = np.empty(n, dtype=np.int64)
                for r, row in enumerate(rows):
                    k = int(row[idx])
                    if k < 0:
                        # sentinel kinds: SQL cannot raise, so dynamic
                        # errors travel as impossible kind codes
                        from repro.sqlhost.sqlgen import ERR_KIND_FOAR0001

                        if k == ERR_KIND_FOAR0001:
                            raise DynamicError(
                                "integer/decimal division by zero",
                                code="err:FOAR0001",
                            )
                        raise DynamicError(
                            "aggregate over non-numeric items",
                            code="err:FORG0006",
                        )
                    kinds[r] = k
                    if k in (K_INT, K_BOOL, K_NODE, K_ATTR):
                        data[r] = int(row[idx + 1])
                    elif k in (K_DBL, K_DEC):
                        v = row[idx + 2]
                        value = math.nan if v is None else float(v)
                        data[r] = np.float64(value).view(np.int64)
                    else:  # pooled kinds: re-intern the travelled text
                        data[r] = pool.intern(row[idx + 3] or "")
                columns[name] = ItemColumn(kinds, data)
                idx += 4
            else:
                columns[name] = np.asarray(
                    [int(row[idx]) for row in rows], dtype=np.int64
                )
                idx += 1
        return Table(columns)
