"""Oracle for the pending-update collector (``repro.compiler.updates``).

The collector writes every update primitive straight into the
per-document :class:`~repro.encoding.arena.TreeDelta` it belongs to.
The reference below is the collector it replaced, kept verbatim (the
way ``tests/test_rebuild.py`` keeps its row emitter): it built a flat
list of :class:`UpdatePrimitive` values, checked the ``upd:mergeUpdates``
rules on that list (:func:`_check_merge`), and folded it into the deltas
(:func:`_delta_for` and the grouping loop of
:func:`collect_update_deltas`).

A hypothesis grammar draws updating modules over a two-document catalog
— every primitive kind, attribute targets included, FLWOR updates with
``where`` and positional variables, multi-target deletes, copies from
the other document, conflicting pairs on loaded and on constructed
targets, transient targets and attribute-name collisions — and both
collectors must return the same deltas (every field, dict and list
order included), the same ``applied`` summary and the same WAL payload,
or raise the same error code.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.database import Database
from repro.baseline.interpreter import BAttr, BNode, Interpreter, _lexical
from repro.compiler import updates
from repro.encoding.arena import (
    NK_COMMENT,
    NK_DOC,
    NK_ELEM,
    NK_PI,
    NK_TEXT,
    NodeArena,
    TreeDelta,
)
from repro.encoding.store import serialize_delta
from repro.errors import DynamicError, PathfinderError, StaticError
from repro.xmark import generate_document
from repro.xquery import ast
from repro.xquery.core import desugar_module, is_updating
from repro.xquery.parser import parse_query

# --------------------------------------------------------------------------
# the reference: the list-of-primitives collector, verbatim
# --------------------------------------------------------------------------
#: primitive kinds that target an attribute id instead of a node row
_ATTR_KINDS = frozenset(
    {"deleteAttr", "replaceAttr", "replaceAttrValue", "renameAttr"}
)


@dataclass(frozen=True)
class UpdatePrimitive:
    """One entry of the pending update list.

    ``kind`` names the primitive (``insertInto``, ``insertFirst``,
    ``insertLast``, ``insertBefore``, ``insertAfter``, ``insertAttrs``,
    ``delete``, ``deleteAttr``, ``replaceNode``, ``replaceAttr``,
    ``replaceValue``, ``replaceContent``, ``replaceAttrValue``,
    ``rename``, ``renameAttr``); ``target`` is an arena node row — or an
    attribute id for the ``*Attr*`` kinds; ``content`` holds constructor
    entries (``("copy", row)`` / ``("text", sid)``) or ``(name, value)``
    sid pairs for attribute payloads; ``value`` is the new value/name sid
    where one applies.
    """

    kind: str
    target: int
    content: tuple = ()
    value: int = -1


class PendingUpdateCompiler:
    """Collects an updating module into a pending update list."""

    def __init__(
        self,
        arena: NodeArena,
        documents: dict[str, int],
        default_document: str | None,
        deadline: float | None = None,
    ):
        self.arena = arena
        self.interp = Interpreter(arena, documents, default_document)
        if deadline is not None:
            self.interp.set_deadline(deadline)

    # ------------------------------------------------------------- compile
    def compile_module(
        self, module: ast.Module, bindings: dict | None = None
    ) -> list[UpdatePrimitive]:
        """Walk the module body, returning its merged pending update list."""
        if not is_updating(module.body):
            raise StaticError(
                "not an updating expression (expected insert/delete/"
                "replace/rename node)",
                code="err:XUST0001",
            )
        self.interp._functions = {
            (f.name, len(f.params)): f for f in module.functions
        }
        env: dict[str, list] = {}
        for name, value in (bindings or {}).items():
            seq = list(value) if isinstance(value, (list, tuple)) else [value]
            env[name.lstrip("$")] = seq
        pul: list[UpdatePrimitive] = []
        self._collect(module.body, env, pul)
        _check_merge(pul)
        return pul

    # ------------------------------------------------------------- walking
    def _collect(self, e: ast.Expr, env: dict, out: list) -> None:
        if isinstance(e, ast.EmptySeq):
            return
        if isinstance(e, ast.Sequence):
            for item in e.items:
                self._collect(item, env, out)
            return
        if isinstance(e, ast.IfExpr):
            branch = e.then if self.interp._ebv(self.interp.eval(e.cond, env)) else e.els
            self._collect(branch, env, out)
            return
        if isinstance(e, ast.Typeswitch):
            operand = self.interp.eval(e.operand, env)
            for case in e.cases:
                if self.interp._matches_type(operand, case.test):
                    inner = dict(env)
                    if case.var is not None:
                        inner[case.var] = operand
                    self._collect(case.expr, inner, out)
                    return
            inner = dict(env)
            if e.default_var is not None:
                inner[e.default_var] = operand
            self._collect(e.default, inner, out)
            return
        if isinstance(e, ast.FLWOR):
            self._flwor(e, env, out)
            return
        if isinstance(e, ast.InsertExpr):
            self._insert(e, env, out)
            return
        if isinstance(e, ast.DeleteExpr):
            self._delete(e, env, out)
            return
        if isinstance(e, ast.ReplaceExpr):
            self._replace(e, env, out)
            return
        if isinstance(e, ast.ReplaceValueExpr):
            self._replace_value(e, env, out)
            return
        if isinstance(e, ast.RenameExpr):
            self._rename(e, env, out)
            return
        raise StaticError(
            f"{type(e).__name__} is not an updating expression here",
            code="err:XUST0001",
        )

    def _flwor(self, e: ast.FLWOR, env: dict, out: list) -> None:
        """Iterate a FLWOR whose return clause is updating.  The pending
        update list is unordered (XQUF 2.4), so ``order by`` is ignored."""

        def run(idx: int, cur_env: dict) -> None:
            if idx == len(e.clauses):
                if e.where is not None and not self.interp._ebv(
                    self.interp.eval(e.where, cur_env)
                ):
                    return
                self._collect(e.ret, cur_env, out)
                return
            clause = e.clauses[idx]
            if isinstance(clause, ast.LetClause):
                inner = dict(cur_env)
                inner[clause.var] = self.interp.eval(clause.expr, cur_env)
                run(idx + 1, inner)
                return
            seq = self.interp.eval(clause.expr, cur_env)
            for position, item in enumerate(seq, start=1):
                inner = dict(cur_env)
                inner[clause.var] = [item]
                if clause.pos_var is not None:
                    inner[clause.pos_var] = [position]
                run(idx + 1, inner)

        run(0, env)

    # ---------------------------------------------------------- primitives
    def _content(self, items: list) -> tuple[list, list]:
        """Source sequence → (constructor entries, attribute pairs).

        Mirrors element-constructor content semantics: adjacent atomics
        join with single spaces into one text node, nodes are deep-copy
        entries.  Attribute items must precede everything else
        (``err:XUTY0004``).
        """
        arena = self.arena
        spec: list = []
        attrs: list = []
        run: list[str] = []

        def flush() -> None:
            if run:
                spec.append(("text", arena.pool.intern(" ".join(run))))
                run.clear()

        for item in items:
            if isinstance(item, BAttr):
                if spec or run:
                    raise DynamicError(
                        "attribute nodes must come first in insert/replace "
                        "content",
                        code="err:XUTY0004",
                    )
                attrs.append(
                    (
                        int(arena.attr_name[item.aid]),
                        int(arena.attr_value[item.aid]),
                    )
                )
            elif isinstance(item, BNode):
                flush()
                spec.append(("copy", item.row))
            else:
                run.append(_lexical(item))
        flush()
        return spec, attrs

    def _single_node(self, e: ast.Expr, env: dict, what: str):
        seq = self.interp.eval(e, env)
        if len(seq) != 1:
            raise DynamicError(
                f"the {what} of an update must be exactly one node "
                f"(got {len(seq)} items)",
                code="err:XUDY0027" if not seq else "err:XUTY0008",
            )
        item = seq[0]
        if not isinstance(item, (BNode, BAttr)):
            raise DynamicError(
                f"the {what} of an update must be a node", code="err:XUTY0008"
            )
        return item

    def _insert(self, e: ast.InsertExpr, env: dict, out: list) -> None:
        spec, attrs = self._content(self.interp.eval(e.source, env))
        target = self._single_node(e.target, env, "insert target")
        arena = self.arena
        if isinstance(target, BAttr):
            raise DynamicError(
                "cannot insert into an attribute", code="err:XUTY0005"
            )
        row = target.row
        kind = int(arena.kind[row])
        if e.position in ("into", "first", "last"):
            if kind not in (NK_ELEM, NK_DOC):
                raise DynamicError(
                    "the target of 'insert into' must be an element or "
                    "document node",
                    code="err:XUTY0005",
                )
            if attrs:
                if kind != NK_ELEM:
                    raise DynamicError(
                        "attributes can only be inserted into elements",
                        code="err:XUTY0022",
                    )
                out.append(UpdatePrimitive("insertAttrs", row, tuple(attrs)))
            if spec:
                prim = {"into": "insertInto", "first": "insertFirst",
                        "last": "insertLast"}[e.position]
                out.append(UpdatePrimitive(prim, row, tuple(spec)))
            return
        # before / after
        if attrs:
            raise DynamicError(
                "attributes cannot be inserted before/after a node",
                code="err:XUTY0022",
            )
        parent = int(arena.parent[row])
        if parent < 0 or int(arena.kind[parent]) == NK_DOC:
            # siblings of the root element would multi-root the document
            raise DynamicError(
                "the target of 'insert before/after' must have an element "
                "parent",
                code="err:XUDY0029",
            )
        if spec:
            prim = "insertBefore" if e.position == "before" else "insertAfter"
            out.append(UpdatePrimitive(prim, row, tuple(spec)))

    def _delete(self, e: ast.DeleteExpr, env: dict, out: list) -> None:
        arena = self.arena
        for item in self.interp.eval(e.target, env):
            if isinstance(item, BAttr):
                out.append(UpdatePrimitive("deleteAttr", item.aid))
                continue
            if not isinstance(item, BNode):
                raise DynamicError(
                    "delete node requires node targets", code="err:XUTY0007"
                )
            row = item.row
            parent = int(arena.parent[row])
            if (
                int(arena.kind[row]) == NK_DOC
                or parent < 0
                or int(arena.kind[parent]) == NK_DOC
            ):
                # a loaded document must keep its root element
                raise DynamicError(
                    "cannot delete a document root", code="err:XUDY0020"
                )
            out.append(UpdatePrimitive("delete", row))

    def _replace(self, e: ast.ReplaceExpr, env: dict, out: list) -> None:
        target = self._single_node(e.target, env, "replace target")
        spec, attrs = self._content(self.interp.eval(e.source, env))
        arena = self.arena
        if isinstance(target, BAttr):
            if spec:
                raise DynamicError(
                    "an attribute can only be replaced by attributes",
                    code="err:XUTY0011",
                )
            out.append(
                UpdatePrimitive("replaceAttr", target.aid, tuple(attrs))
            )
            return
        row = target.row
        if int(arena.kind[row]) == NK_DOC or int(arena.parent[row]) < 0:
            raise DynamicError(
                "cannot replace a document root", code="err:XUDY0009"
            )
        if attrs:
            raise DynamicError(
                "a non-attribute node cannot be replaced by attributes",
                code="err:XUTY0010",
            )
        out.append(UpdatePrimitive("replaceNode", row, tuple(spec)))

    def _replace_value(
        self, e: ast.ReplaceValueExpr, env: dict, out: list
    ) -> None:
        target = self._single_node(e.target, env, "replace-value target")
        text = self.interp._joined_string(self.interp.eval(e.value, env))
        sid = self.arena.pool.intern(text)
        if isinstance(target, BAttr):
            out.append(UpdatePrimitive("replaceAttrValue", target.aid, value=sid))
            return
        row = target.row
        kind = int(self.arena.kind[row])
        if kind == NK_ELEM:
            out.append(UpdatePrimitive("replaceContent", row, value=sid))
        elif kind in (NK_TEXT, NK_COMMENT, NK_PI):
            out.append(UpdatePrimitive("replaceValue", row, value=sid))
        else:
            raise DynamicError(
                "replace value of node requires an element, attribute, "
                "text, comment or PI target",
                code="err:XUTY0008",
            )

    def _rename(self, e: ast.RenameExpr, env: dict, out: list) -> None:
        target = self._single_node(e.target, env, "rename target")
        atom = self.interp._first_atom(self.interp.eval(e.name, env))
        if atom is None:
            raise DynamicError(
                "rename requires a non-empty new name", code="err:XPTY0004"
            )
        name = _lexical(atom)
        sid = self.arena.pool.intern(name)
        if isinstance(target, BAttr):
            out.append(UpdatePrimitive("renameAttr", target.aid, value=sid))
            return
        row = target.row
        if int(self.arena.kind[row]) not in (NK_ELEM, NK_PI):
            raise DynamicError(
                "only elements, attributes and processing-instructions "
                "can be renamed",
                code="err:XUTY0012",
            )
        out.append(UpdatePrimitive("rename", row, value=sid))


# --------------------------------------------------------------------------
# merge checks + application
# --------------------------------------------------------------------------
def _check_merge(pul: list[UpdatePrimitive]) -> None:
    """``upd:mergeUpdates`` compatibility: at most one rename, one replace
    node and one replace value per target (XUDY0015/0016/0017)."""
    rules = (
        (("rename", "renameAttr"), "err:XUDY0015", "rename"),
        (("replaceNode", "replaceAttr"), "err:XUDY0016", "replace node"),
        (
            ("replaceValue", "replaceContent", "replaceAttrValue"),
            "err:XUDY0017",
            "replace value of node",
        ),
    )
    for kinds, code, label in rules:
        counts = Counter(
            (p.kind in _ATTR_KINDS, p.target) for p in pul if p.kind in kinds
        )
        for (_, target), n in counts.items():
            if n > 1:
                raise DynamicError(
                    f"two '{label}' primitives target the same node "
                    f"(row {target})",
                    code=code,
                )


_PRIMITIVE_LABELS = {
    "insertInto": "insert",
    "insertFirst": "insert",
    "insertLast": "insert",
    "insertBefore": "insert",
    "insertAfter": "insert",
    "insertAttrs": "insert",
    "delete": "delete",
    "deleteAttr": "delete",
    "replaceNode": "replace",
    "replaceAttr": "replace",
    "replaceValue": "replace_value",
    "replaceContent": "replace_value",
    "replaceAttrValue": "replace_value",
    "rename": "rename",
    "renameAttr": "rename",
}


def _delta_for(delta: TreeDelta, p: UpdatePrimitive) -> None:
    """Fold one primitive into the per-document delta."""
    if p.kind == "insertInto" or p.kind == "insertLast":
        delta.insert_last.setdefault(p.target, []).extend(p.content)
    elif p.kind == "insertFirst":
        delta.insert_first.setdefault(p.target, []).extend(p.content)
    elif p.kind == "insertBefore":
        delta.insert_before.setdefault(p.target, []).extend(p.content)
    elif p.kind == "insertAfter":
        delta.insert_after.setdefault(p.target, []).extend(p.content)
    elif p.kind == "insertAttrs":
        delta.insert_attrs.setdefault(p.target, []).extend(p.content)
    elif p.kind == "delete":
        delta.delete.add(p.target)
    elif p.kind == "deleteAttr":
        delta.delete_attrs.add(p.target)
    elif p.kind == "replaceNode":
        delta.replace[p.target] = list(p.content)
    elif p.kind == "replaceAttr":
        delta.replace_attr[p.target] = list(p.content)
    elif p.kind == "replaceValue":
        delta.replace_value[p.target] = p.value
    elif p.kind == "replaceContent":
        delta.replace_content[p.target] = p.value
    elif p.kind == "replaceAttrValue":
        delta.replace_attr_value[p.target] = p.value
    elif p.kind == "renameAttr":
        delta.rename_attr[p.target] = p.value
    else:  # rename
        delta.rename[p.target] = p.value


def collect_update_deltas(
    module: ast.Module,
    arena: NodeArena,
    documents: dict[str, int],
    default_document: str | None,
    bindings: dict | None = None,
    deadline: float | None = None,
) -> tuple[dict[str, TreeDelta], dict]:
    """Collect and check one updating module; do **not** apply it.

    Runs the pending-update-list pipeline up to (and including) the
    per-document :class:`~repro.encoding.arena.TreeDelta` grouping and
    returns ``(deltas, applied_counts)`` with the arena untouched.  The
    split exists for write-ahead logging: the Database serialises these
    deltas to the WAL (and fsyncs) *before* any arena mutation, then
    applies them with :meth:`~repro.encoding.arena.NodeArena.rebuild_with_delta`.
    """
    compiler = PendingUpdateCompiler(arena, documents, default_document, deadline)
    pul = compiler.compile_module(module, bindings)

    root_to_uri = {root: uri for uri, root in documents.items()}
    deltas: dict[str, TreeDelta] = {}
    applied: Counter = Counter()
    for p in pul:
        if p.kind in _ATTR_KINDS:
            owner = int(arena.attr_owner[p.target])
            if owner < 0:
                raise DynamicError(
                    "the target attribute is not attached to a document",
                    code="err:XUDY0014",
                )
            root = int(arena.root_of(np.asarray([owner], dtype=np.int64))[0])
        else:
            root = int(arena.root_of(np.asarray([p.target], dtype=np.int64))[0])
        uri = root_to_uri.get(root)
        if uri is None:
            raise DynamicError(
                "update targets must live in a loaded document "
                "(constructed fragments are transient)",
                code="err:XUDY0014",
            )
        _delta_for(deltas.setdefault(uri, TreeDelta()), p)
        applied[_PRIMITIVE_LABELS[p.kind]] += 1
    for delta in deltas.values():
        _check_attribute_names(arena, delta)
    return deltas, dict(sorted(applied.items()))


def _check_attribute_names(arena: NodeArena, delta: TreeDelta) -> None:
    """``err:XUDY0021`` if the delta leaves an element with two attributes
    of one name (a document the loader would reject).

    Checked on the final attribute names of every element whose
    attributes the delta touches: its existing names minus deleted,
    replaced and renamed ones, plus inserted names, rename targets and
    replacement pairs.  Elements the delta removes (they or an ancestor
    are deleted or replaced) are skipped.
    """
    owners = set(delta.insert_attrs)
    for aid in (*delta.delete_attrs, *delta.replace_attr, *delta.rename_attr):
        owners.add(int(arena.attr_owner[aid]))
    removed = delta.delete | delta.replace.keys()
    for owner in sorted(owners):
        row = owner
        while row >= 0 and row not in removed:
            row = int(arena.parent[row])
        if row >= 0:
            continue
        names = []
        for aid in arena.attrs_in_span(owner, owner + 1)[0].tolist():
            if aid in delta.delete_attrs:
                continue
            if aid in delta.replace_attr:
                names.extend(name for name, _ in delta.replace_attr[aid])
            else:
                names.append(delta.rename_attr.get(aid, int(arena.attr_name[aid])))
        names.extend(name for name, _ in delta.insert_attrs.get(owner, ()))
        twice = [name for name, n in Counter(names).items() if n > 1]
        if twice:
            raise DynamicError(
                f"the update leaves <{arena.name_of(owner)}> with two "
                f"attributes named {arena.pool.value(twice[0])!r}",
                code="err:XUDY0021",
            )


# --------------------------------------------------------------------------
# the comparison
# --------------------------------------------------------------------------
DOC_A = (
    '<site><people><person id="p1" a="x"><name>Ann</name><age>30</age></person>'
    '<person id="p2"><name>Bob</name>note<!--c--><?pi v?></person>'
    '<person id="p3"><name>Cy</name></person></people>'
    '<item price="5"><price>5</price></item></site>'
)
DOC_B = '<lib><book year="2001"><title>T1</title></book><book><title>T2</title></book></lib>'
A, B = 'doc("a.xml")', 'doc("b.xml")'


def _reference(db: Database, module: ast.Module):
    return collect_update_deltas(module, db.arena, db.documents, db.default_document)


def _current(db: Database, module: ast.Module):
    return updates.PendingUpdateCompiler(
        db.arena, db.documents, db.default_document
    ).collect(module)


def _outcome(db: Database, collect, text: str):
    """``("error", code)``, or the deltas — every field, in order — the
    ``applied`` items and each document's WAL payload."""
    module = desugar_module(parse_query(text))
    # the scope's close pops what the walk constructed, so both
    # collectors see the same arena and construct the same rows
    with db.arena.page_scope():
        try:
            deltas, applied = collect(db, module)
        except PathfinderError as error:
            return "error", error.code
        images = [
            (
                uri,
                [
                    (f.name, sorted(v) if isinstance(v, set) else list(v.items()))
                    for f in dataclasses.fields(TreeDelta)
                    for v in [getattr(delta, f.name)]
                ],
                json.dumps(serialize_delta(db.arena, db.documents[uri], delta)),
            )
            for uri, delta in deltas.items()
        ]
        return "ok", images, list(applied.items())


@pytest.fixture(scope="module")
def db():
    db = Database()
    db.load_document("a.xml", DOC_A)
    db.load_document("b.xml", DOC_B)
    return db


def _same(db: Database, text: str):
    expected = _outcome(db, _reference, text)
    assert _outcome(db, _current, text) == expected
    return expected


# --------------------------------------------------------------------------
# the grammar
# --------------------------------------------------------------------------
#: single-node targets; "$t…" are constructed (transient) ones, bound by
#: the ``let`` every module starts with
NODE_TARGETS = (
    f"{A}/site/people/person[1]",
    f"{A}//person[2]/name",
    f"{A}//name[1]/text()",
    f"{A}//comment()",
    f"{A}//processing-instruction()",
    f"{A}/site/item",
    f"{A}/site",
    A,
    f"{B}/lib/book[1]",
    f"({B}//title)[2]",
    "$t",
    "$t/y",
)
ATTR_TARGETS = (
    f"{A}//person[1]/@id",
    f"{A}//person[1]/@a",
    f"{A}/site/item/@price",
    f"{B}//book[1]/@year",
    "$t/@k",
    'attribute loose {"1"}',
)
#: delete targets: any number of nodes or attributes
MULTI_TARGETS = (
    f"{A}//person/@id",
    f"{A}//name",
    f"{B}//book",
    f"{A}//person[position() > 1]",
    f"({A}//age, {B}//title[1])",
    "()",
    "$t/y",
)
SOURCES = (
    '<new k="v"/>',
    '"txt"',
    '(1, "two")',
    'attribute b {"v"}',
    'attribute id {"dup"}',
    '(attribute c {"1"}, <e/>)',
    f"{B}//title[1]",
    f"{B}",
    f"{A}//person[1]/@a",
    f"{A}//name",
    "()",
)
ATTR_SOURCES = (
    'attribute b {"v"}',
    'attribute id {"dup"}',
    f"{A}//person[1]/@a",
    "()",
)
NAMES = ('"fullname"', '"id"', '"a"', '"year"')
VALUES = ('"new"', "42", '("x", 1)', "()")
#: the kinds a pair can conflict on, with the clause of each
EXCLUSIVE = {
    "rename": "rename node {t} as {v}",
    "replace": "replace node {t} with {v}",
    "replace_value": "replace value of node {t} with {v}",
}


def _update(draw, targets: tuple, attrs: tuple, multi: tuple) -> str:
    kind = draw(st.sampled_from(
        ("insert", "delete", "replace", "replace_value", "rename", "pair")
    ))
    if kind == "insert":
        position = draw(st.sampled_from(
            ("into", "as first into", "as last into", "before", "after")
        ))
        target = draw(st.sampled_from(targets))
        return f"insert node {draw(st.sampled_from(SOURCES))} {position} {target}"
    if kind == "delete":
        return f"delete node {draw(st.sampled_from(multi + attrs))}"
    target = draw(st.sampled_from(targets + attrs))
    pair = kind == "pair"
    if pair:
        kind = draw(st.sampled_from(sorted(EXCLUSIVE)))
    if kind == "rename":
        pool = NAMES
    elif kind == "replace":
        pool = ATTR_SOURCES if target in attrs else SOURCES
    else:
        pool = VALUES
    clause = EXCLUSIVE[kind]
    first = clause.format(t=target, v=draw(st.sampled_from(pool)))
    if not pair:
        return first
    return f"({first}, {clause.format(t=target, v=draw(st.sampled_from(pool)))})"


#: updates around one element's attribute names (err:XUDY0021 or not)
COLLISIONS = (
    f'insert node attribute id {{"dup"}} into {A}//person[1]',
    f'rename node {A}//person[1]/@a as "id"',
    f'replace node {A}//person[1]/@a with attribute id {{"x"}}',
    f'(delete node {A}//person[1]/@id, rename node {A}//person[1]/@a as "id")',
    f'insert node (attribute q {{"1"}}, attribute q {{"2"}}) into {B}//book[2]',
    f'(for $p in {A}//person return insert node attribute id {{"dup"}} into $p)',
    f'(delete node {A}//person[1], insert node attribute id {{"x"}} into {A}//person[1])',
)


@st.composite
def modules(draw) -> str:
    parts = []
    for _ in range(draw(st.sampled_from((1, 1, 2, 3)))):
        shape = draw(st.sampled_from(("update", "update", "flwor", "collision")))
        if shape == "collision":
            parts.append(draw(st.sampled_from(COLLISIONS)))
        elif shape == "flwor":
            where = draw(st.sampled_from(
                ("", " where $i mod 2 = 1", ' where $p/@id != "p2"')
            ))
            inner = _update(
                draw, ("$p", "$p/name"), ("$p/@id",), ("$p/name", "$p/@id", "$p")
            )
            parts.append(f"(for $p at $i in {A}//person{where} return {inner})")
        else:
            parts.append(_update(draw, NODE_TARGETS, ATTR_TARGETS, MULTI_TARGETS))
    return f'let $t := <x k="1"><y/>z</x> return ({", ".join(parts)})'


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=modules())
def test_collector_matches_the_primitive_list_reference(db, text):
    _same(db, text)


#: error precedence: walk errors, merge conflicts (rename, replace,
#: replace value — constructed targets included), err:XUDY0014, err:XUDY0021
PINNED = (
    ('let $e := <x/> return (rename node $e as "a", rename node $e as "b")', "err:XUDY0015"),
    ('let $e := <x/> return rename node $e as "a"', "err:XUDY0014"),
    (
        f'(rename node {A}/site as "a", rename node {A}/site as "b", '
        f"insert node <x/> into {A}/nothing)",
        "err:XUDY0027",
    ),
    (
        f'(replace value of node ({A}//@id)[1] with "a", rename node <x/> as "y", '
        f'replace value of node ({A}//@id)[1] with "b", replace node {A}//age with <x/>, '
        f"replace node {A}//age with <y/>)",
        "err:XUDY0016",
    ),
    (
        f'(rename node attribute a {{1}} as "b", replace value of node {A}//age with "1", '
        f'replace value of node {A}//age with "2")',
        "err:XUDY0017",
    ),
    (
        f'(insert node attribute id {{"x"}} into {A}//person[1], rename node <x/> as "y")',
        "err:XUDY0014",
    ),
    (f'insert node attribute id {{"x"}} into {A}//person[1]', "err:XUDY0021"),
    (f'rename node {A}//person[1]/@a as "id"', "err:XUDY0021"),
)


@pytest.mark.parametrize("text,code", PINNED)
def test_error_precedence(db, text, code):
    assert _same(db, text) == ("error", code)


#: the four update kinds of the benchmark's update rounds
BENCHMARK_UPDATES = (
    'insert node <watch open="yes"><note>perf 0</note></watch> '
    "into /site/people/person[3]",
    'replace value of node /site/closed_auctions/closed_auction[2]/price with "17.05"',
    "delete node /site/open_auctions/open_auction[4]/bidder[1]",
    'rename node /site/people/person[5]/name as "fullname"',
)


def test_benchmark_updates_log_the_same_wal_payload():
    db = Database()
    db.load_document("auction.xml", generate_document(0.0005))
    texts = (*BENCHMARK_UPDATES, "(" + ", ".join(BENCHMARK_UPDATES) + ")")
    for text in texts:
        kind, images, _ = _same(db, text)
        assert kind == "ok" and images and all(wal != "{}" for _, _, wal in images)
