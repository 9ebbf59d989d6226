"""Oracle tests for the pattern-driven XML scanner (:mod:`repro.xml.parser`).

:func:`_reference_events` below is a character-at-a-time scanner (the
shape the token pattern replaced), kept here as the oracle:

1. generated well-formed documents — attributes in both quote styles
   with whitespace around ``=`` and before ``>``/``/>``, references in
   text and attribute values, CDATA next to text, comments and PIs, a
   prolog with an XML declaration and a DOCTYPE with an internal subset,
   trailing misc — fire identical event sequences;
2. mutated documents (truncated, a dropped ``>`` or quote, a renamed end
   tag, a stray ``&`` anywhere or after a newline) fail with the same exception class at the same
   line and column.  The three forms the reference accepted and the
   scanner rejects (a duplicate attribute, no whitespace between
   attributes, ``<`` in a value) are left out: where the scanner raises
   one of them, the reference must accept the document or fail later;
3. XMark instances shred to byte-identical arena columns through the
   event shredder driven by either scanner;
4. hostile inputs parse or fail within a time bound, which catches a
   pattern that backtracks.
"""

import re
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
import repro.encoding.shred as shred
from repro.encoding.arena import NodeArena
from repro.errors import XMLSyntaxError
from repro.xmark import generate_document
from repro.xml.escape import resolve_entities
from repro.xml.parser import XMLEventHandler, parse_events

from tests.reference_xml import parse_document, shred_events


# ------------------------------------------------------------- reference
_NAME_START = set("_:abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_NAME_CHARS = _NAME_START | set("-.0123456789")


class _Cursor:
    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def line_col_at(self, pos: int) -> tuple[int, int]:
        upto = self.text[:pos]
        return upto.count("\n") + 1, pos - (upto.rfind("\n") + 1) + 1

    def error(self, message: str) -> XMLSyntaxError:
        return XMLSyntaxError(message, *self.line_col_at(self.pos))

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos : self.pos + 1]

    def startswith(self, s: str) -> bool:
        return self.text.startswith(s, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def read_until(self, delim: str, what: str) -> str:
        end = self.text.find(delim, self.pos)
        if end < 0:
            raise self.error(f"unterminated {what}")
        out = self.text[self.pos : end]
        self.pos = end + len(delim)
        return out

    def read_name(self) -> str:
        start = self.pos
        if start >= len(self.text) or self.text[start] not in _NAME_START:
            raise self.error("expected a name")
        self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos] in _NAME_CHARS:
            self.pos += 1
        return self.text[start : self.pos]

    def expect(self, s: str) -> None:
        if not self.startswith(s):
            raise self.error(f"expected {s!r}")
        self.pos += len(s)


def _reference_events(text: str, handler: XMLEventHandler) -> None:
    cur = _Cursor(text)
    _skip_misc(cur, prolog=True)
    if cur.eof() or cur.peek() != "<":
        raise cur.error("expected the root element")
    _reference_elements(cur, handler)
    _skip_misc(cur, prolog=False)


def _skip_misc(cur: _Cursor, prolog: bool) -> None:
    while True:
        cur.skip_ws()
        if prolog and cur.startswith("<?xml"):
            cur.pos += 5
            cur.read_until("?>", "XML declaration")
        elif cur.startswith("<!--"):
            cur.pos += 4
            cur.read_until("-->", "comment")
        elif prolog and cur.startswith("<!DOCTYPE"):
            cur.pos += 9
            depth = 1
            while depth and not cur.eof():
                ch = cur.peek()
                if ch == "[":
                    cur.read_until("]", "DTD internal subset")
                    continue
                depth += {"<": 1, ">": -1}.get(ch, 0)
                cur.pos += 1
            if depth:
                raise cur.error("unterminated DOCTYPE")
        elif cur.startswith("<?"):
            cur.pos += 2
            cur.read_until("?>", "processing instruction")
        elif prolog or cur.eof():
            return
        else:
            raise cur.error("content after the root element")


def _reference_start_tag(cur: _Cursor, handler: XMLEventHandler) -> tuple[str, bool]:
    cur.expect("<")
    name = cur.read_name()
    attributes = []
    while True:
        cur.skip_ws()
        if cur.startswith("/>") or cur.startswith(">"):
            self_closing = cur.startswith("/>")
            cur.pos += 2 if self_closing else 1
            handler.start_element(name, attributes)
            if self_closing:
                handler.end_element(name)
            return name, self_closing
        attr_name = cur.read_name()
        cur.skip_ws()
        cur.expect("=")
        cur.skip_ws()
        quote = cur.peek()
        if quote not in ("'", '"'):
            raise cur.error("attribute value must be quoted")
        cur.pos += 1
        start = cur.pos
        raw = cur.read_until(quote, "attribute value")
        if "&" in raw:
            raw = resolve_entities(raw, *cur.line_col_at(start))
        attributes.append((attr_name, raw))


def _reference_elements(cur: _Cursor, handler: XMLEventHandler) -> None:
    stack: list[str] = []
    parts: list[str] = []

    def flush() -> None:
        merged = "".join(parts)
        parts.clear()
        if merged:
            handler.text(merged)

    while True:
        name, self_closing = _reference_start_tag(cur, handler)
        if not self_closing:
            stack.append(name)
        if not stack:
            return
        while True:
            if cur.eof():
                raise cur.error(f"unterminated element <{stack[-1]}>")
            if cur.peek() != "<":
                start = cur.pos
                end = cur.text.find("<", start)
                if end < 0:
                    raise cur.error(f"unterminated element <{stack[-1]}>")
                raw = cur.text[start:end]
                cur.pos = end
                if "&" in raw:
                    raw = resolve_entities(raw, *cur.line_col_at(start))
                parts.append(raw)
            elif cur.startswith("</"):
                flush()
                cur.pos += 2
                end_name = cur.read_name()
                open_name = stack.pop()
                if end_name != open_name:
                    raise cur.error(f"mismatched end tag </{end_name}> for <{open_name}>")
                cur.skip_ws()
                cur.expect(">")
                handler.end_element(end_name)
                if not stack:
                    return
            elif cur.startswith("<!--"):
                flush()
                cur.pos += 4
                handler.comment(cur.read_until("-->", "comment"))
            elif cur.startswith("<![CDATA["):
                cur.pos += 9
                parts.append(cur.read_until("]]>", "CDATA section"))
            elif cur.startswith("<?"):
                flush()
                cur.pos += 2
                target, _, data = cur.read_until("?>", "processing instruction").partition(" ")
                handler.pi(target, data.strip())
            else:
                flush()
                break


class _Recorder(XMLEventHandler):
    def __init__(self):
        self.events = []

    def start_element(self, name, attributes):
        self.events.append(("start", name, tuple(attributes)))

    def end_element(self, name):
        self.events.append(("end", name))

    def text(self, data):
        self.events.append(("text", data))

    def comment(self, data):
        self.events.append(("comment", data))

    def pi(self, target, data):
        self.events.append(("pi", target, data))


def _outcome(scan, text: str):
    """``("ok", events)`` or ``("error", exception)``."""
    recorder = _Recorder()
    try:
        scan(text, recorder)
    except XMLSyntaxError as exc:
        return "error", exc
    return "ok", recorder.events


# ------------------------------------------------------------- documents
_ws = st.sampled_from(["", " ", "  ", "\n", "\t", " \r\n "])
_names = st.sampled_from(
    ["a", "b", "item", "x:y", "d-e", "f.g", "_h", "k9", "a-name-longer-than-24-chars"]
)
_refs = st.sampled_from(["&lt;", "&gt;", "&amp;", "&quot;", "&apos;", "&#65;", "&#x3b1;"])


def _chars(exclude: str) -> st.SearchStrategy[str]:
    return st.text(
        st.sampled_from([c for c in "ab z>\n\t-]?'\"é€中😀" if c not in exclude]),
        max_size=6,
    )


def _with_refs(exclude: str) -> st.SearchStrategy[str]:
    return st.lists(st.one_of(_chars(exclude), _refs), max_size=4).map("".join)


_text = _with_refs("<&")
_comment = _chars("-").map(lambda s: f"<!--{s}-->")
_cdata = _chars("]").map(lambda s: f"<![CDATA[{s}<&]]>")
_pi = st.tuples(st.sampled_from(["t", "go", "x-y"]), _chars("?")).map(
    lambda p: f"<?{p[0]} {p[1]}?>"
)


@st.composite
def _attribute(draw) -> str:
    quote = draw(st.sampled_from(['"', "'"]))
    value = draw(_with_refs("<&" + quote))
    return f"{draw(_ws)}={draw(_ws)}{quote}{value}{quote}"


@st.composite
def _start(draw, name: str, self_closing: bool) -> str:
    names = draw(st.lists(_names, unique=True, max_size=3))
    attrs = "".join(
        f"{draw(_ws.filter(bool))}{n}{draw(_attribute())}" for n in names
    )
    return f"<{name}{attrs}{draw(_ws)}{'/>' if self_closing else '>'}"


@st.composite
def _element(draw, depth: int = 3) -> str:
    name = draw(_names)
    if depth == 0 or draw(st.integers(0, 4)) == 0:
        return draw(_start(name, True))
    leaf = st.one_of(_text, _cdata, _comment, _pi)
    kids = draw(
        st.lists(st.one_of(leaf, leaf, _element(depth - 1)), max_size=5)
    )
    return f"{draw(_start(name, False))}{''.join(kids)}</{name}{draw(_ws)}>"


_prolog = st.lists(
    st.sampled_from(
        [
            " ",
            "\n",
            "<!-- prolog -->",
            "<?style a='1'?>",
            "<!DOCTYPE a [<!ELEMENT a ANY><!-- c --><!ATTLIST a x CDATA #IMPLIED>]>",
            '<!DOCTYPE a SYSTEM "a.dtd">',
        ]
    ),
    max_size=3,
).map("".join)
_misc = st.lists(st.sampled_from([" ", "\n", "<!-- end -->", "<?t d?>"]), max_size=3).map("".join)


@st.composite
def _document(draw) -> str:
    decl = draw(st.sampled_from(["", '<?xml version="1.0"?>', "<?xml version='1.0' encoding='UTF-8'?>\n"]))
    return decl + draw(_prolog) + draw(_element()) + draw(_misc)


# ------------------------------------------------------------ mutations
def _truncate(doc: str, at: int) -> str:
    return doc[: at % len(doc)]


def _drop(doc: str, chars: str, at: int) -> str:
    spots = [i for i, c in enumerate(doc) if c in chars]
    if not spots:
        return doc
    i = spots[at % len(spots)]
    return doc[:i] + doc[i + 1 :]


def _rename_end_tag(doc: str, at: int) -> str:
    ends = list(re.finditer(r"</([^\s>]+)", doc))
    if not ends:
        return doc
    end = ends[at % len(ends)]
    return doc[: end.start(1)] + "zz" + doc[end.end(1) :]


def _stray_amp(doc: str, at: int) -> str:
    i = at % (len(doc) + 1)
    return doc[:i] + "&" + doc[i:]


def _newline_and_amp(doc: str, at: int) -> str:
    """A newline and a stray ``&`` opening the character data after a
    tag, where the line count inside a text run matters."""
    spots = [i + 1 for i, c in enumerate(doc) if c == ">"]
    i = spots[at % len(spots)]
    return doc[:i] + "\n&" + doc[i:]


_MUTATIONS = [
    _truncate,
    lambda doc, at: _drop(doc, ">", at),
    lambda doc, at: _drop(doc, "\"'", at),
    _rename_end_tag,
    _stray_amp,
    _newline_and_amp,
]

#: the rules the scanner enforces beyond the reference
_NEW_RULES = ("duplicate attribute", "must be separated by whitespace", "'<' in an attribute value")

_SETTINGS = settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ------------------------------------------------------------------ tests
@_SETTINGS
@given(doc=_document())
def test_generated_documents_fire_the_reference_events(doc):
    expected = _outcome(_reference_events, doc)
    assert expected[0] == "ok", expected
    assert _outcome(parse_events, doc) == expected


@_SETTINGS
@given(doc=_document(), kind=st.integers(0, len(_MUTATIONS) - 1), at=st.integers(0, 10**6))
def test_mutated_documents_fail_like_the_reference(doc, kind, at):
    bad = _MUTATIONS[kind](doc, at)
    expected = _outcome(_reference_events, bad)
    got = _outcome(parse_events, bad)
    if got[0] == "error" and any(rule in str(got[1]) for rule in _NEW_RULES):
        # a form the reference accepted: it must not have failed earlier
        if expected[0] == "error":
            assert (expected[1].line, expected[1].column) > (got[1].line, got[1].column)
        return
    assert got[0] == expected[0], (got, expected)
    if got[0] == "ok":
        assert got[1] == expected[1]
    else:
        assert type(got[1]) is type(expected[1])
        assert (got[1].line, got[1].column) == (expected[1].line, expected[1].column), (
            str(got[1]),
            str(expected[1]),
        )


def _columns(arena: NodeArena) -> list[bytes]:
    names = ("kind", "size", "level", "frag", "parent", "name", "value")
    attrs = ("attr_owner", "attr_name", "attr_value")
    return [getattr(arena, c).tobytes() for c in names + attrs]


@pytest.mark.parametrize("seed", [42, 43])
def test_xmark_columns_are_byte_identical(seed):
    text = generate_document(0.005, seed=seed)
    arena = NodeArena()
    shred_events(arena, text)
    reference = NodeArena()
    shred_events(reference, text, parse=_reference_events)
    assert _columns(arena) == _columns(reference)
    assert [arena.pool.value(i) for i in range(len(arena.pool))] == [
        reference.pool.value(i) for i in range(len(reference.pool))
    ]


# ------------------------------------------------ the columnar shredder
def _shredded(shred_text, text: str):
    """``("ok", columns, pool)`` after shredding ``text`` into an arena
    that already holds a document, or ``("error", class, message, line,
    column)`` — and then the arena holds no more rows or attributes."""
    arena = NodeArena()
    shred_text(arena, "<seed a='1'>x<?p d?></seed>")
    before = (arena.num_nodes, arena.num_attrs)
    try:
        shred_text(arena, text)
    except XMLSyntaxError as exc:
        assert (arena.num_nodes, arena.num_attrs) == before
        return "error", type(exc), str(exc), exc.line, exc.column
    return "ok", _columns(arena), arena.pool.values(range(len(arena.pool)))


@contextmanager
def _chunks_of(chars: int):
    """Cut the columnar shredder's chunks after ``chars`` characters."""
    saved = shred.CHUNK_CHARS
    shred.CHUNK_CHARS = chars
    try:
        yield
    finally:
        shred.CHUNK_CHARS = saved


#: chunk sizes that put cuts inside tags, text runs, comments, CDATA
#: sections and references (a chunk then runs on to the next tag)
_CHUNKS = st.sampled_from([1, 2, 3, 5, 8, 13, 21, 64, shred.CHUNK_CHARS])


@_SETTINGS
@given(doc=_document(), chunk=_CHUNKS)
def test_generated_documents_shred_like_the_event_shredder(doc, chunk):
    expected = _shredded(shred_events, doc)
    assert expected[0] == "ok", expected
    with _chunks_of(chunk):
        assert _shredded(shred.shred_text, doc) == expected


@_SETTINGS
@given(
    doc=_document(),
    kind=st.integers(0, len(_MUTATIONS) - 1),
    at=st.integers(0, 10**6),
    chunk=_CHUNKS,
)
def test_mutated_documents_shred_like_the_event_shredder(doc, kind, at, chunk):
    bad = _MUTATIONS[kind](doc, at)
    expected = _shredded(shred_events, bad)
    with _chunks_of(chunk):
        assert _shredded(shred.shred_text, bad) == expected


@settings(max_examples=150, deadline=None, suppress_health_check=_SETTINGS.suppress_health_check)
@given(doc=_document(), kind=st.integers(0, len(_MUTATIONS) - 1), at=st.integers(0, 10**6))
def test_mutated_documents_fail_the_loader_like_the_scanner(doc, kind, at):
    """Through ``Database.load_document``: the scanner's error (class,
    message, line, column), and no rows or attributes added."""
    bad = _MUTATIONS[kind](doc, at)
    expected = _outcome(parse_events, bad)
    database = repro.connect().database
    database.load_document("seed.xml", "<seed a='1'>x</seed>")
    arena = database.arena
    before = (arena.num_nodes, arena.num_attrs)
    if expected[0] == "ok":
        database.load_document("d.xml", bad)
        return
    with pytest.raises(XMLSyntaxError) as exc:
        database.load_document("d.xml", bad)
    error = expected[1]
    assert (type(exc.value), str(exc.value), exc.value.line, exc.value.column) == (
        type(error), str(error), error.line, error.column)
    assert (arena.num_nodes, arena.num_attrs) == before
    assert "d.xml" not in database.documents


def test_colliding_span_keys_only_split_groups(monkeypatch):
    """With every span key hashed to one value, every span is read on
    its own and the columns do not change."""
    text = generate_document(0.0005, seed=42)
    expected = _shredded(shred_events, text)
    monkeypatch.setattr(shred, "_MIX", np.uint64(0))
    assert _shredded(shred.shred_text, text) == expected


_HOSTILE = {
    "unterminated start tag, 40 000 attributes": lambda: "<a"
    + "".join(f' x{i}="v"' for i in range(40_000)),
    "1 MB unterminated comment": lambda: "<a><!--" + "-" * 1_000_000,
    "100 000 nested elements": lambda: "<a>" * 100_000 + "</a>" * 100_000,
    "200 000 '<'": lambda: "<" * 200_000,
    "200 000 '<' in content": lambda: "<r>" + "<" * 200_000,
    "1 MB text without an end tag": lambda: "<r>" + "x" * 1_000_000,
    "1 MB attribute value without a closing quote": lambda: '<r a="' + "x" * 1_000_000,
    "100 000 comments holding a '<'": lambda: "<r>" + "<!--<a>-->" * 100_000 + "</r>",
    "100 000 CDATA sections holding a '<'": lambda: "<r>" + "<![CDATA[a<b]]>" * 100_000 + "</r>",
    "100 000 PIs holding a '<'": lambda: "<r>" + "<?p <a>?>" * 100_000 + "</r>",
}


@pytest.mark.parametrize("name", list(_HOSTILE))
def test_hostile_input_is_answered_quickly(name):
    doc = _HOSTILE[name]()
    start = time.perf_counter()
    try:
        parse_events(doc, XMLEventHandler())
    except XMLSyntaxError:
        pass
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("name", list(_HOSTILE))
def test_hostile_input_is_shredded_quickly(name):
    doc = _HOSTILE[name]()
    start = time.perf_counter()
    got = _shredded(shred.shred_text, doc)
    assert time.perf_counter() - start < 2.0
    assert got == _shredded(shred_events, doc)


def _lines_run_in(path: str, fn) -> int:
    """How many lines of the module at ``path`` run while ``fn`` does."""
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename == path else None

    sys.settrace(calls)
    try:
        fn()
    finally:
        sys.settrace(None)
    return lines


def test_deep_document_shreds_without_a_loop_per_level():
    """100 000 nested elements shred within the time bound, with no
    Python line run per level, to the event shredder's columns."""
    depth = 100_000
    doc = "<a>" * depth + "x" + "</a>" * depth
    start = time.perf_counter()
    got = _shredded(shred.shred_text, doc)
    assert time.perf_counter() - start < 2.0
    assert got == _shredded(shred_events, doc)
    assert _lines_run_in(shred.__file__, lambda: shred.shred_text(NodeArena(), doc)) < depth // 10


# ------------------------------------------------- well-formedness rules
@pytest.mark.parametrize(
    "doc, message, column",
    [
        ('<a x="1" x="2"/>', "duplicate attribute x", 10),
        ('<a x="1"y="2"/>', "attributes must be separated by whitespace", 9),
        ('<a x="<"/>', "'<' in an attribute value", 7),
        ("<r><a y='1' b=\"2\" y='3'></a></r>", "duplicate attribute y", 19),
    ],
)
def test_rejected_attribute_forms(doc, message, column):
    with pytest.raises(XMLSyntaxError) as exc:
        parse_document(doc)
    assert message in str(exc.value)
    assert (exc.value.line, exc.value.column) == (1, column)


def test_duplicate_attribute_rejected_by_the_loader():
    session = repro.connect()
    with pytest.raises(XMLSyntaxError):
        session.database.load_document("d.xml", '<a x="1" x="2"/>')
    assert "d.xml" not in session.database.documents


def test_pi_target_ends_at_any_whitespace():
    root = parse_document("<a><?t\nd?><?u\tx  y ?><?v?></a>")
    assert [(c.target, c.data) for c in root.children] == [("t", "d"), ("u", "x  y"), ("v", "")]
    session = repro.connect()
    session.database.load_document("p.xml", "<a><?t\nd?></a>")
    assert session.execute("count(//processing-instruction(t))").serialize() == "1"


def test_byte_order_mark_is_skipped():
    assert parse_document("\ufeff<a/>").name == "a"
    session = repro.connect()
    session.database.load_document("b.xml", "\ufeff<?xml version='1.0'?>\n<b>x</b>")
    assert session.execute("string(doc('b.xml')/b)").serialize() == "x"
    with pytest.raises(XMLSyntaxError):
        parse_document("<a/>\ufeff")


@pytest.mark.parametrize(
    "doc",
    [
        "<a>x\ny\n  &bogus; z</a>",
        "<a>\n<b/>\n\n&amp &lt;</a>",
        "<a>one\n<![CDATA[\n]]>two\nthree &#xZZ;</a>",
        "<a x='\n&q;'/>",
        "<a\n x='1'\n y=\"\n\n&#0;\"/>",
        "<a>\r\n\t&;</a>",
    ],
)
def test_reference_positions_after_newlines(doc):
    """Hand-made cases with the fault after a newline inside the same
    text run or attribute value (the mutation test reaches them only by
    chance)."""
    expected = _outcome(_reference_events, doc)
    got = _outcome(parse_events, doc)
    assert expected[0] == got[0] == "error"
    assert (got[1].line, got[1].column) == (expected[1].line, expected[1].column)
    assert str(got[1]) == str(expected[1])
