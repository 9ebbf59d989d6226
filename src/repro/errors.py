"""Exception hierarchy shared by every Pathfinder subsystem.

The hierarchy mirrors the stages of the stack: XML parsing, XQuery
parsing/static analysis, compilation, and dynamic (runtime) evaluation.
Where the W3C specifications assign an error code (``err:XPST0003`` and
friends), the code is carried in :attr:`PathfinderError.code` so tests can
assert on it without string-matching messages.
"""

from __future__ import annotations


class PathfinderError(Exception):
    """Base class for every error raised by the repro package.

    :param message: human readable description.
    :param code: W3C-style error code (``err:XPST0003``, ...) when one
        applies, otherwise ``None``.
    """

    def __init__(self, message: str, code: str | None = None):
        self.code = code
        if code:
            message = f"[{code}] {message}"
        super().__init__(message)


class XMLSyntaxError(PathfinderError):
    """Raised by :mod:`repro.xml.parser` on malformed XML input."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


class XQuerySyntaxError(PathfinderError):
    """Raised by the XQuery lexer/parser (spec code ``err:XPST0003``)."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        super().__init__(
            f"{message} (line {line}, column {column})", code="err:XPST0003"
        )


class StaticError(PathfinderError):
    """Static (compile-time) XQuery error, e.g. an undefined variable."""


class TypeError_(PathfinderError):
    """XQuery type error (``err:XPTY****`` family)."""


class DynamicError(PathfinderError):
    """Runtime XQuery error, e.g. division by zero (``err:FOAR0001``)."""


class AlgebraError(PathfinderError):
    """An algebra plan is malformed or violates an operator precondition
    (e.g. the disjointness requirement of the union operator)."""


class NotSupportedError(PathfinderError):
    """The construct is valid XQuery but outside the supported dialect."""


class ResultClosedError(PathfinderError):
    """A ``QueryResult`` (or a ``NodeHandle`` it handed out) was used
    after it was explicitly closed: its lease on the arena is gone, so
    the rows it referenced may have been popped."""


class DeadlineExceeded(DynamicError):
    """A request (or a budgeted evaluation) ran past its wall-clock
    deadline: it waited too long for a session, or an operator boundary
    found the budget spent.  The server answers it with HTTP 504."""
