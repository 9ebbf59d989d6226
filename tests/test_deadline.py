"""Deadlines inside the engine: the evaluator's per-operator check.

A deadline is an absolute ``time.monotonic()`` expiry on
:class:`EvalContext`; ``evaluate()`` checks it before each operator.
The API passes it down as a budget in seconds
(``PreparedQuery.execute(deadline=)``/``Session.execute(deadline=)``),
and an aborted execution must leave the arena as a finished one does:
no transient rows, no live lease.
"""

from __future__ import annotations

import math
import time

import pytest

import repro
from repro.encoding.arena import NodeArena
from repro.errors import DeadlineExceeded
from repro.relational import algebra as alg
from repro.relational import evaluate as ev

LIT = alg.Lit(("iter", "item"), ((1, 10), (2, 20)), frozenset({"item"}))


class TestEvaluator:
    def test_spent_deadline_stops_before_the_first_operator(self):
        ctx = ev.EvalContext(
            NodeArena(), trace={}, deadline=time.monotonic() - 1.0
        )
        with pytest.raises(DeadlineExceeded):
            ev.evaluate(alg.Project(LIT, (("iter", "iter"),)), ctx)
        assert ctx.trace == {}


class TestApi:
    def test_execute_deadline_raises_and_plain_execute_runs(self):
        session = repro.connect()
        with pytest.raises(DeadlineExceeded):
            session.execute("count(1 to 10)", deadline=-1.0)
        assert session.execute("count(1 to 10)", deadline=60.0).serialize() == "10"

    def test_external_deadline_is_bound_through_the_dict(self):
        prepared = repro.connect().prepare(
            "declare variable $deadline external; $deadline + 1"
        )
        assert prepared.execute({"deadline": 41}).serialize() == "42"

    def test_aborted_construction_leaves_no_transient_rows(self, monkeypatch):
        """The deadline passes right after the first constructor ran:
        the evaluator stops at the next operator, and the constructed
        rows go with the execution's lease."""
        session = repro.connect()
        database = session.database
        database.load_document("r.xml", "<r><v>1</v></r>")
        constructed = []
        construct = ev._HANDLERS[alg.ElemConstr]

        def construct_then_expire(node, inputs, ctx):
            table = construct(node, inputs, ctx)
            constructed.append(database.arena_report()["transient_rows"])
            ctx.deadline = -math.inf
            return table

        monkeypatch.setitem(ev._HANDLERS, alg.ElemConstr, construct_then_expire)
        with pytest.raises(DeadlineExceeded):
            session.execute(
                "count(for $i in 1 to 50 return <a>{$i}</a>)", deadline=60.0
            )
        assert constructed and constructed[0] > 0
        report = database.arena_report()
        assert report["transient_rows"] == 0
        assert report["live_leases"] == 0
