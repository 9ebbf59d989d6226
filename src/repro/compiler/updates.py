"""The pending-update-list stage of the XQuery Update Facility.

Updating queries go through the same front end as reads (parse →
desugar), then take this separate back end instead of loop-lifting:

1. **Collect** — :class:`PendingUpdateCompiler` walks the updating
   expression, evaluating every embedded *non*-updating expression
   (targets, sources, FLWOR bindings, conditionals) with the nested-loop
   interpreter over the current arena.  Each update primitive is
   written straight into the :class:`~repro.encoding.arena.TreeDelta`
   of its target's document: the per-document deltas *are* the pending
   update list (XQUF 3.2).  Nothing is modified during collection, so a
   failed update leaves the database untouched.
2. **Check** — after the walk, in this order: the merge rules of
   ``upd:mergeUpdates`` (two renames, two ``replace node`` or two
   ``replace value of`` primitives on one target are
   ``err:XUDY0015``/``0016``/``0017``, constructed targets included),
   then ``err:XUDY0014`` for a target outside every loaded document,
   then ``err:XUDY0021`` for an element left with two attributes of one
   name.  The writer notes the first two as it goes; raising them only
   after the walk lets every error of the walk itself come first.
3. **Apply** — the caller (``Database.apply_update``, and the WAL
   replay with the same routine) rebuilds each affected document as a
   fresh arena fragment
   (:meth:`~repro.encoding.arena.NodeArena.rebuild_with_delta`), swaps
   the catalog roots and bumps the document epochs under its exclusive
   lock, so concurrent readers see the old tree or the new one, never a
   torn state — and then pops the superseded copy off the arena
   (:meth:`~repro.encoding.arena.NodeArena.reclaim`) unless a result
   still holds it.

Update queries are expected to be small and rare relative to reads, so
the item-at-a-time interpreter is the honest evaluator here — the
column-store machinery stays dedicated to the read path, which is the
trade-off the paper's updatability argument (Section 5) makes as well.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.baseline.interpreter import BAttr, BNode, Interpreter, _lexical
from repro.encoding.arena import (
    NK_COMMENT,
    NK_DOC,
    NK_ELEM,
    NK_PI,
    NK_TEXT,
    NodeArena,
    TreeDelta,
)
from repro.errors import DynamicError, StaticError
from repro.xquery import ast
from repro.xquery.core import is_updating

#: ``upd:mergeUpdates``: the ``applied`` labels of which a target (node
#: or attribute) takes at most one primitive, in the order they are checked
_EXCLUSIVE = {
    "rename": ("err:XUDY0015", "rename"),
    "replace": ("err:XUDY0016", "replace node"),
    "replace_value": ("err:XUDY0017", "replace value of node"),
}


class PendingUpdateCompiler:
    """Collects one updating module into per-document deltas."""

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
        self._uri_of_root = {root: uri for uri, root in documents.items()}
        #: the pending update list: one delta per target document
        self._deltas: dict[str, TreeDelta] = {}
        self._applied: Counter = Counter()
        #: ``(label, is attribute, target)`` of every exclusive primitive
        self._exclusive: set[tuple[str, bool, int]] = set()
        #: exclusive label → the first target it was written to twice
        self._conflicts: dict[str, int] = {}
        #: the first primitive whose target is in no loaded document
        self._transient: DynamicError | None = None

    def collect(
        self, module: ast.Module, bindings: dict | None = None
    ) -> tuple[dict[str, TreeDelta], dict]:
        """Walk and check the module body; do **not** apply it.

        Returns ``(deltas, applied_counts)`` with the catalog untouched.
        The split exists for write-ahead logging: the Database
        serialises these deltas to the WAL (and fsyncs) *before* any
        arena mutation, then applies them.
        """
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
        self._collect(module.body, env)
        for label, (code, what) in _EXCLUSIVE.items():
            if label in self._conflicts:
                raise DynamicError(
                    f"two '{what}' primitives target the same node "
                    f"(row {self._conflicts[label]})",
                    code=code,
                )
        if self._transient is not None:
            raise self._transient
        for delta in self._deltas.values():
            _check_attribute_names(self.arena, delta)
        return self._deltas, dict(sorted(self._applied.items()))

    def _write(self, label: str, field: str, target: int, payload=None) -> None:
        """Write one primitive into its target's document delta.

        ``field`` names the :class:`TreeDelta` map; ``target`` is a node
        row, or an attribute id for the attribute-keyed fields.  Content
        lists extend, ``delete``/``delete_attrs`` add, the one-string
        fields are set.  ``label`` is the ``applied`` summary key.
        """
        attr = field in TreeDelta.ATTR_FIELDS
        if label in _EXCLUSIVE:
            key = (label, attr, target)
            if key in self._exclusive:
                self._conflicts.setdefault(label, target)
            self._exclusive.add(key)
        self._applied[label] += 1
        row = int(self.arena.attr_owner[target]) if attr else target
        uri = None
        if row >= 0:
            root = int(self.arena.root_of(np.asarray([row], dtype=np.int64))[0])
            uri = self._uri_of_root.get(root)
        if uri is None:
            if self._transient is None:
                self._transient = DynamicError(
                    "update targets must live in a loaded document "
                    "(constructed nodes and attributes are transient)",
                    code="err:XUDY0014",
                )
            return
        table = getattr(self._deltas.setdefault(uri, TreeDelta()), field)
        if isinstance(table, set):
            table.add(target)
        elif isinstance(payload, list):
            table.setdefault(target, []).extend(payload)
        else:
            table[target] = payload

    # ------------------------------------------------------------- walking
    def _collect(self, e: ast.Expr, env: dict) -> None:
        if isinstance(e, ast.EmptySeq):
            return
        if isinstance(e, ast.Sequence):
            for item in e.items:
                self._collect(item, env)
            return
        if isinstance(e, ast.IfExpr):
            branch = e.then if self.interp._ebv(self.interp.eval(e.cond, env)) else e.els
            self._collect(branch, env)
            return
        if isinstance(e, ast.Typeswitch):
            operand = self.interp.eval(e.operand, env)
            for case in e.cases:
                if self.interp._matches_type(operand, case.test):
                    inner = dict(env)
                    if case.var is not None:
                        inner[case.var] = operand
                    self._collect(case.expr, inner)
                    return
            inner = dict(env)
            if e.default_var is not None:
                inner[e.default_var] = operand
            self._collect(e.default, inner)
            return
        if isinstance(e, ast.FLWOR):
            self._flwor(e, env)
            return
        if isinstance(e, ast.InsertExpr):
            self._insert(e, env)
            return
        if isinstance(e, ast.DeleteExpr):
            self._delete(e, env)
            return
        if isinstance(e, ast.ReplaceExpr):
            self._replace(e, env)
            return
        if isinstance(e, ast.ReplaceValueExpr):
            self._replace_value(e, env)
            return
        if isinstance(e, ast.RenameExpr):
            self._rename(e, env)
            return
        raise StaticError(
            f"{type(e).__name__} is not an updating expression here",
            code="err:XUST0001",
        )

    def _flwor(self, e: ast.FLWOR, env: dict) -> None:
        """Iterate a FLWOR whose return clause is updating.  The pending
        update list is unordered (XQUF 2.4), so ``order by`` is ignored."""

        def run(idx: int, cur_env: dict) -> None:
            if idx == len(e.clauses):
                if e.where is not None and not self.interp._ebv(
                    self.interp.eval(e.where, cur_env)
                ):
                    return
                self._collect(e.ret, cur_env)
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

    def _insert(self, e: ast.InsertExpr, env: dict) -> None:
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
                self._write("insert", "insert_attrs", row, attrs)
            if spec:
                field = "insert_first" if e.position == "first" else "insert_last"
                self._write("insert", field, row, spec)
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
            self._write("insert", f"insert_{e.position}", row, spec)

    def _delete(self, e: ast.DeleteExpr, env: dict) -> None:
        arena = self.arena
        for item in self.interp.eval(e.target, env):
            if isinstance(item, BAttr):
                self._write("delete", "delete_attrs", item.aid)
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
            self._write("delete", "delete", row)

    def _replace(self, e: ast.ReplaceExpr, env: dict) -> None:
        target = self._single_node(e.target, env, "replace target")
        spec, attrs = self._content(self.interp.eval(e.source, env))
        arena = self.arena
        if isinstance(target, BAttr):
            if spec:
                raise DynamicError(
                    "an attribute can only be replaced by attributes",
                    code="err:XUTY0011",
                )
            self._write("replace", "replace_attr", target.aid, attrs)
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
        self._write("replace", "replace", row, spec)

    def _replace_value(self, e: ast.ReplaceValueExpr, env: dict) -> None:
        target = self._single_node(e.target, env, "replace-value target")
        text = self.interp._joined_string(self.interp.eval(e.value, env))
        sid = self.arena.pool.intern(text)
        if isinstance(target, BAttr):
            self._write("replace_value", "replace_attr_value", target.aid, sid)
            return
        row = target.row
        kind = int(self.arena.kind[row])
        if kind == NK_ELEM:
            self._write("replace_value", "replace_content", row, sid)
        elif kind in (NK_TEXT, NK_COMMENT, NK_PI):
            self._write("replace_value", "replace_value", row, sid)
        else:
            raise DynamicError(
                "replace value of node requires an element, attribute, "
                "text, comment or PI target",
                code="err:XUTY0008",
            )

    def _rename(self, e: ast.RenameExpr, env: dict) -> None:
        target = self._single_node(e.target, env, "rename target")
        atom = self.interp._first_atom(self.interp.eval(e.name, env))
        if atom is None:
            raise DynamicError(
                "rename requires a non-empty new name", code="err:XPTY0004"
            )
        name = _lexical(atom)
        sid = self.arena.pool.intern(name)
        if isinstance(target, BAttr):
            self._write("rename", "rename_attr", target.aid, sid)
            return
        row = target.row
        if int(self.arena.kind[row]) not in (NK_ELEM, NK_PI):
            raise DynamicError(
                "only elements, attributes and processing-instructions "
                "can be renamed",
                code="err:XUTY0012",
            )
        self._write("rename", "rename", row, sid)


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
