"""The readers/writer lock that guards a Database's document catalog.

:class:`RWLock` is a write-preferring readers/writer lock.  Query
compilation and execution hold the lock *shared* (many concurrent
readers), catalog mutations (``load_document``/``unload_document``)
hold it *exclusive*.  Writers are preferred: once a writer is waiting,
new readers queue behind it, so a stream of queries cannot starve a hot
document replace.

It is the classic shape (Go's ``sync.RWMutex``); the implementation is
deliberately simple condition-variable code because the protected
sections — catalog updates and query execution — run for milliseconds,
not nanoseconds.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager


class RWLock:
    """A write-preferring readers/writer lock.

    Any number of readers may hold the lock concurrently; a writer holds
    it alone.  A waiting writer blocks *new* readers (write preference),
    so catalog mutations cannot be starved by a steady query stream.

    The read side is reentrant per thread: a thread already holding a
    shared lock may acquire it again even while a writer waits (the
    writer cannot be active, so this is safe and avoids self-deadlock on
    nested API calls such as ``execute -> revalidate -> prepare``).  The
    write side is not reentrant, and readers must not upgrade.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0
        self._local = threading.local()

    @contextmanager
    def read_locked(self):
        """Context manager: hold the lock shared."""
        self.acquire_read()
        try:
            yield self
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self):
        """Context manager: hold the lock exclusive."""
        self.acquire_write()
        try:
            yield self
        finally:
            self.release_write()

    def acquire_read(self) -> None:
        """Block until the lock can be held shared (reentrant per thread)."""
        held = getattr(self._local, "read_count", 0)
        with self._cond:
            if held == 0:
                while self._writer or self._writers_waiting:
                    self._cond.wait()
            self._readers += 1
        self._local.read_count = held + 1

    def release_read(self) -> None:
        """Release one shared hold."""
        self._local.read_count = getattr(self._local, "read_count", 1) - 1
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        """Block until the lock can be held exclusive."""
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        """Release the exclusive hold."""
        with self._cond:
            self._writer = False
            self._cond.notify_all()
