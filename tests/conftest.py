"""Shared fixtures: arenas, documents and engines."""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro import PathfinderEngine
from repro.baseline import Interpreter
from repro.encoding.arena import NodeArena
from repro.encoding.shred import shred_text
from repro.relational.items import StringPool
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


@pytest.fixture
def engine():
    e = PathfinderEngine()
    e.load_document("doc.xml", SMALL_XML)
    return e


@pytest.fixture
def xmark_engine():
    from repro.xmark import generate_document

    e = PathfinderEngine()
    e.load_document("auction.xml", generate_document(0.001, seed=11))
    return e


def run_pf(engine: PathfinderEngine, query: str) -> str:
    """Execute on Pathfinder, returning serialised output."""
    return engine.execute(query).serialize()


def run_baseline(engine: PathfinderEngine, query: str, **kw) -> str:
    """Execute the same query on the nested-loop baseline over the same
    documents; returns serialised output."""
    module = desugar_module(parse_query(query))
    interp = Interpreter(
        engine.arena, engine.documents, engine.default_document, **kw
    )
    return interp.serialize(interp.execute(module))


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
