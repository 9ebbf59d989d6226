"""Static plan validation: check algebra preconditions before evaluation.

The paper's "assembly-style" algebra is efficient exactly because of the
restrictions it obeys (disjoint unions, equi-joins only, π without
duplicate elimination).  This validator walks a plan DAG and checks every
operator's static preconditions — referenced columns exist, join output
schemas don't collide, unions agree on schemas, aggregates reference real
columns — so compiler bugs surface as precise static errors instead of
deep evaluator failures.  The test suite validates every compiled XMark
plan (optimized and unoptimized) and every differential-battery plan.
"""

from __future__ import annotations

from repro.errors import AlgebraError
from repro.relational import algebra as alg


def validate(plan: alg.Op) -> int:
    """Validate a plan DAG; returns the operator count, raises
    :class:`AlgebraError` with the offending operator's label otherwise."""
    count = 0
    for node in alg.walk(plan):
        count += 1
        try:
            _check(node)
        except AlgebraError as exc:
            raise AlgebraError(f"{node.label()}: {exc}") from None
    return count


_CMP_OPS = frozenset({"eq", "ne", "lt", "le", "gt", "ge"})


def _require(schema: tuple[str, ...], *cols: str) -> None:
    for c in cols:
        if c is not None and c not in schema:
            raise AlgebraError(f"references unknown column {c!r} (have {schema})")


def _operand_check(schema, operand):
    tag, v = operand
    if tag == "col":
        _require(schema, v)


def _check(node: alg.Op) -> None:
    child_schemas = [c.columns for c in node.children]

    if isinstance(node, alg.Lit):
        if len(set(node.schema)) != len(node.schema):
            raise AlgebraError("duplicate column names in literal schema")
        for row in node.rows:
            if len(row) != len(node.schema):
                raise AlgebraError("row arity differs from schema")
        unknown = node.item_cols - frozenset(node.schema)
        if unknown:
            raise AlgebraError(f"item_cols not in schema: {sorted(unknown)}")
        return

    if isinstance(node, alg.Project):
        (schema,) = child_schemas
        news = [n for n, _ in node.cols]
        if len(set(news)) != len(news):
            raise AlgebraError("duplicate output columns")
        _require(schema, *[old for _, old in node.cols])
        return

    if isinstance(node, alg.Select):
        (schema,) = child_schemas
        _operand_check(schema, node.lhs)
        _operand_check(schema, node.rhs)
        return

    if isinstance(node, alg.Union):
        if not node.inputs:
            raise AlgebraError("union of zero inputs")
        first = set(child_schemas[0])
        for s in child_schemas[1:]:
            if set(s) != first:
                raise AlgebraError(
                    f"union inputs disagree: {sorted(first)} vs {sorted(s)}"
                )
        return

    if isinstance(node, alg.Difference):
        left, right = child_schemas
        _require(left, *node.keys)
        _require(right, *node.keys)
        return

    if isinstance(node, alg.Distinct):
        (schema,) = child_schemas
        _require(schema, *node.keys)
        if node.order_col:
            _require(schema, node.order_col)
        return

    if isinstance(node, (alg.Join, alg.ThetaJoin, alg.SemiJoin)):
        left, right = child_schemas
        _require(left, *[l for l, _ in node.keys])
        _require(right, *[r for _, r in node.keys])
        if not isinstance(node, alg.SemiJoin):
            overlap = set(left) & set(right)
            if overlap:
                raise AlgebraError(f"output schema collision: {sorted(overlap)}")
        if isinstance(node, alg.ThetaJoin):
            if node.op not in _CMP_OPS:
                raise AlgebraError(f"unknown comparison {node.op!r}")
            _require(left + right, node.lhs, node.rhs)
            if (node.lhs in left) == (node.rhs in left):
                raise AlgebraError("θ operands must come one from each side")
        return

    if isinstance(node, alg.Cross):
        left, right = child_schemas
        overlap = set(left) & set(right)
        if overlap:
            raise AlgebraError(f"output schema collision: {sorted(overlap)}")
        return

    if isinstance(node, alg.RowNum):
        (schema,) = child_schemas
        if node.target in schema:
            raise AlgebraError(f"target {node.target!r} already exists")
        _require(schema, *[c for c, _ in node.order])
        if node.group:
            _require(schema, node.group)
        return

    if isinstance(node, alg.Map):
        (schema,) = child_schemas
        for a in node.args:
            _operand_check(schema, a)
        return

    if isinstance(node, alg.Aggr):
        (schema,) = child_schemas
        if node.kind not in ("count", "sum", "avg", "min", "max", "str_join"):
            raise AlgebraError(f"unknown aggregate {node.kind!r}")
        if node.kind != "count" and node.arg is None:
            raise AlgebraError(f"{node.kind} needs an argument column")
        _require(schema, *(c for c in (node.arg, node.group, node.order_col) if c))
        return

    if isinstance(node, alg.StepJoin):
        (schema,) = child_schemas
        _require(schema, node.iter_col, node.item_col)
        return

    if isinstance(node, alg.StructuralTwigJoin):
        (schema,) = child_schemas
        _require(schema, node.iter_col, node.item_col)
        if not node.steps:
            raise AlgebraError("twig join with zero steps")
        return

    if isinstance(node, alg.Atomize):
        (schema,) = child_schemas
        _require(schema, node.arg)
        return

    if isinstance(node, alg.GenRange):
        (schema,) = child_schemas
        _require(schema, "iter", node.lo_col, node.hi_col)
        return

    if isinstance(node, (alg.ElemConstr, alg.AttrConstr)):
        for s in child_schemas:
            _require(s, "iter", "item")
        return

    if isinstance(node, alg.TextConstr):
        _require(child_schemas[0], "iter", "item")
        return

    if isinstance(node, alg.DocRoot):
        return

    if isinstance(node, alg.ParamTable):
        if not node.name:
            raise AlgebraError("parameter table without a variable name")
        return

    raise AlgebraError(f"unknown operator {type(node).__name__}")
