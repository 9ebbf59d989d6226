"""The plan schedule: one straight-line program per plan root.

``evaluate()`` runs ``root.schedule`` — the operators in ``walk`` order,
each step's input slots, and the slots that die after each step — so a
cached plan is walked once, however often it runs, and each intermediate
result is dropped after its last consumer.  These tests hold the
schedule's shape on hand-built DAGs with shared subplans and on every
XMark plan, show that it is built once per plan, and that dropping
results changes no answer.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import connect
from repro.relational import algebra as alg
from repro.relational.algebra import Schedule
from repro.xmark import XMARK_QUERIES, generate_document


def _shared_dag() -> alg.Op:
    """A DAG whose leaf feeds three consumers, one of them twice."""
    leaf = alg.Lit(("iter", "item"), ((1, 10), (2, 20)), frozenset({"item"}))
    renamed = alg.Project(leaf, (("iter1", "iter"), ("item1", "item")))
    self_cross = alg.Cross(renamed, alg.Project(leaf, (("iter2", "iter"),)))
    picked = alg.Project(self_cross, (("iter", "iter1"), ("item", "item1")))
    return alg.Union((picked, leaf))


def _check_releases(sched: Schedule) -> None:
    """Every slot but the root's dies exactly once, right after the step
    of its last consumer; the root's never does."""
    n = len(sched.inputs)
    last_use: dict[int, int] = {}
    for step, inputs in enumerate(sched.inputs):
        assert all(i < step for i in inputs)  # inputs run first
        for i in inputs:
            last_use[i] = step
    released = [(i, step) for step, dead in enumerate(sched.releases) for i in dead]
    assert sorted(i for i, _ in released) == list(range(n - 1))
    assert dict(released) == last_use


class TestShape:
    def test_walk_order_and_input_slots(self):
        root = _shared_dag()
        ops = [op for op, _, _ in root.schedule.steps(root)]
        assert ops == list(alg.walk(root))
        for op, inputs, _ in root.schedule.steps(root):
            assert tuple(ops[i] for i in inputs) == op.children

    def test_schedule_does_not_refer_to_its_root(self):
        # it is cached on the root: a reference back would be a cycle
        root = _shared_dag()
        assert root not in root.schedule.body
        assert len(root.schedule.body) == len(root.schedule.inputs) - 1

    def test_shared_subplan_released_once_after_last_consumer(self):
        root = _shared_dag()
        sched = root.schedule
        _check_releases(sched)
        leaf = sched.body.index(root.inputs[1])
        # the leaf's consumers: two projections and the root union
        assert sum(leaf in inputs for inputs in sched.inputs) == 3
        # the root is the last consumer of both its inputs
        assert leaf in sched.releases[-1]
        assert sched.releases[-1] == tuple(sorted(sched.inputs[-1]))

    def test_same_input_twice(self):
        leaf = alg.Lit(("n",), ((1,),), frozenset())
        root = alg.Union((leaf, leaf))
        sched = root.schedule
        assert sched.inputs == ((), (0, 0))
        assert sched.releases == ((), (0,))

    def test_single_operator_plan(self):
        root = alg.Lit(("n",), ((1,),), frozenset())
        assert root.schedule == Schedule((), ((),), ((),))

    def test_cached_on_the_root(self):
        root = _shared_dag()
        assert root.schedule is root.schedule


@pytest.fixture(scope="module")
def xmark_text():
    return generate_document(0.005, seed=42)


def _database(text: str):
    session = connect()
    session.database.load_document("auction.xml", text)
    return session.database


def test_every_xmark_plan_releases_each_slot_once(xmark_text):
    database = _database(xmark_text)
    for query in XMARK_QUERIES.values():
        for one_shot in (True, False):
            plan = database.compile_query(query, True, one_shot=one_shot).plan
            _check_releases(plan.schedule)


def test_prepared_query_builds_one_schedule(xmark_text, monkeypatch):
    built = []
    of = Schedule.of.__func__

    def counting(cls, root):
        built.append(root)
        return of(cls, root)

    monkeypatch.setattr(Schedule, "of", classmethod(counting))
    prepared = _database(xmark_text).connect().prepare(XMARK_QUERIES["Q8"])
    first = prepared.execute().serialize()
    assert prepared.execute().serialize() == first
    assert len(built) == 1


def test_releasing_results_changes_no_answer(xmark_text, monkeypatch):
    """XMark Q1-Q20 answer byte for byte the same when every result is
    kept to the end of the query (each schedule's releases emptied)."""
    queries = list(XMARK_QUERIES.values())
    session = _database(xmark_text).connect()
    released = [session.execute(q).serialize() for q in queries]
    of = Schedule.of.__func__
    built = []

    def keep_all(cls, root):
        built.append(root)
        sched = of(cls, root)
        return dataclasses.replace(sched, releases=((),) * len(sched.inputs))

    monkeypatch.setattr(Schedule, "of", classmethod(keep_all))
    session = _database(xmark_text).connect()
    kept = [session.execute(q).serialize() for q in queries]
    assert len(built) == len(queries)  # every query ran a release-free schedule
    assert kept == released
