"""Rounds of {1 update + 2 reads}: the body of a ``store-update`` block,
and of the short run of rounds the other workloads append so that
``update_p50_ms`` and ``read_after_update_p50_ms`` mean the same thing
everywhere (``execute_update`` → returned; a read between two updates,
which recompiles because the update moved the document's epoch).

The caller says how an update and a read are issued — a library session
here, ``POST /update`` and ``POST /query`` in ``wl_serve`` — and corrects
the raw times with the speed factor of the batch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.api.database import Database
from repro.errors import PathfinderError
from repro.xml.serializer import serialize_node

from perf import oracle
from perf.common import in_memory

CHECKPOINT_EVERY = 10


@dataclass
class RoundLog:
    """Raw seconds and outputs of a run of rounds, in order."""

    update_seconds: list[float] = field(default_factory=list)
    #: whether each update reported exactly the one primitive it asked for
    applied_ok: list[bool] = field(default_factory=list)
    #: per read: (round, query name, seconds, output or None if it failed)
    reads: list[tuple[int, str, float, str | None]] = field(
        default_factory=list)


def run_rounds(apply_update: Callable[[str], dict | None],
               read: Callable[[str], str | None],
               updates, reads, checkpoint=None) -> RoundLog:
    """``apply_update(text)`` returns the applied-primitive counts (None
    if the update failed), ``read(query name)`` the serialized result
    (None if it failed); ``checkpoint()`` runs every 10 rounds."""
    log = RoundLog()
    for r, ((kind, text), names) in enumerate(zip(updates, reads)):
        t0 = time.perf_counter()
        applied = apply_update(text)
        log.update_seconds.append(time.perf_counter() - t0)
        log.applied_ok.append(applied == {kind: 1})
        for name in names:
            t0 = time.perf_counter()
            output = read(name)
            log.reads.append((r, name, time.perf_counter() - t0, output))
        if checkpoint and r % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1:
            checkpoint()
    return log


def library_calls(session, query_text: Callable[[str], str]):
    """``(apply_update, read)`` over a library session."""
    def apply_update(text: str) -> dict | None:
        try:
            return session.execute_update(text)["applied"]
        except PathfinderError:
            return None

    def read(name: str) -> str | None:
        try:
            return session.execute(query_text(name)).serialize()
        except PathfinderError:
            return None

    return apply_update, read


def rebuilt(database: Database, uri: str):
    """A fresh in-memory session over ``uri`` as ``database`` serializes
    it now, and that text: the reference reads are compared with (a new
    arena, so nothing an update left behind can leak into it)."""
    with database.read_locked():
        text = serialize_node(database.arena, database.documents[uri])
    return in_memory({uri: text}).connect(), text


def round_references(text: str, uri: str, updates, reads,
                     query_text: Callable[[str], str]):
    """What every read of the rounds must return: the updates are applied
    to an in-memory database, and after each one the two reads run on a
    fresh database rebuilt from the serialized post-update document.
    Returns ``((round, query name) -> sha256, final document text)``."""
    database = in_memory({uri: text})
    session = database.connect()
    hashes = {}
    for r, ((_kind, update), names) in enumerate(zip(updates, reads)):
        session.execute_update(update)
        fresh, text = rebuilt(database, uri)
        for name in names:
            hashes[r, name] = oracle.sha(
                fresh.execute(query_text(name)).serialize())
    return hashes, text
