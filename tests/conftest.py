"""Shared fixtures: arenas, documents and sessions."""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro import Session, connect
from repro.baseline import Interpreter
from repro.compiler.loop_lifting import Compiler
from repro.compiler.serialize import iter_serialized_chunks
from repro.encoding.arena import NodeArena
from repro.encoding.shred import shred_text
from repro.relational.evaluate import EvalContext, evaluate
from repro.relational.items import StringPool
from repro.relational.optimizer import CardinalityEstimator, optimize
from repro.server import RouterServer
from repro.xquery.core import desugar_module
from repro.xquery.parser import parse_query

SMALL_XML = (
    '<site><a i="z">1</a><a>2</a><b f="q">x</b>'
    "<nest><a>3</a><deep><a>4</a></deep></nest></site>"
)


@pytest.fixture
def pool():
    return StringPool()


@pytest.fixture
def arena():
    return NodeArena()


@pytest.fixture
def small_arena():
    a = NodeArena()
    doc = shred_text(a, SMALL_XML)
    return a, doc


def open_session(uri: str, xml: str, **settings) -> Session:
    """A session (``settings`` as for :func:`repro.connect`) over a fresh
    database holding one document."""
    session = connect(**settings)
    session.database.load_document(uri, xml)
    return session


@pytest.fixture
def session():
    return open_session("doc.xml", SMALL_XML)


@pytest.fixture
def xmark_session():
    from repro.xmark import generate_document

    return open_session("auction.xml", generate_document(0.001, seed=11))


def run_pf(session: Session, query: str) -> str:
    """Execute on Pathfinder, returning serialised output."""
    return session.execute(query).serialize()


def run_plan(
    database,
    query: str,
    *,
    use_optimizer: bool = True,
    use_join_recognition: bool = True,
    disabled: frozenset[str] = frozenset(),
    use_staircase: bool = True,
) -> str:
    """``query``'s serialized answer over ``database`` in one reference
    configuration, built below the session API:
    ``Compiler(use_join_recognition=)`` → ``optimize(disabled=)``
    (skipped without ``use_optimizer``) → ``evaluate`` (on the naive axis
    steps without ``use_staircase``) → serialize."""
    with database.read_locked():
        core = desugar_module(parse_query(query))
        plan = Compiler(
            database.documents,
            database.default_document,
            use_join_recognition=use_join_recognition,
        ).compile_module(core)
        if use_optimizer:
            estimator = CardinalityEstimator.from_database(
                database.arena, database.documents
            )
            plan = optimize(plan, disabled=disabled, estimator=estimator)
        ctx = EvalContext(
            database.arena,
            documents=database.documents,
            use_staircase=use_staircase,
        )
        table = evaluate(plan, ctx)
        return "".join(iter_serialized_chunks(table, database.arena))


def baseline_for(session: Session, **kw) -> Interpreter:
    """The nested-loop baseline interpreter over ``session``'s documents."""
    database = session.database
    return Interpreter(
        database.arena, database.documents, database.default_document, **kw
    )


def run_baseline(session: Session, query: str, **kw) -> str:
    """Execute the same query on the nested-loop baseline over the same
    documents; returns serialised output."""
    interp = baseline_for(session, **kw)
    return interp.serialize(interp.execute(desugar_module(parse_query(query))))


@contextmanager
def live_server(service, shutdown_service: bool = True):
    """``service`` behind the HTTP front end on an ephemeral port;
    yields ``host:port``."""
    server = RouterServer(service)
    host, port = server.start()
    try:
        yield f"{host}:{port}"
    finally:
        server.stop(shutdown_service=shutdown_service)
