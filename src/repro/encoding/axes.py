"""XPath axes and node tests.

With the XPath Accelerator encoding, every axis is a *region* in
(pre, size, level) space (paper, Section 2: "XPath axes").  The region
predicates live here, in one place, and serve double duty: they are the
reference oracle that the staircase-join kernels are property-tested
against, and the implementation of the deliberately tree-unaware
``naive_step`` baseline used in the staircase ablation (E5).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Axis(enum.Enum):
    """The XPath axes supported by Pathfinder (full axis feature)."""

    CHILD = "child"
    DESCENDANT = "descendant"
    DESCENDANT_OR_SELF = "descendant-or-self"
    SELF = "self"
    PARENT = "parent"
    ANCESTOR = "ancestor"
    ANCESTOR_OR_SELF = "ancestor-or-self"
    FOLLOWING = "following"
    FOLLOWING_SIBLING = "following-sibling"
    PRECEDING = "preceding"
    PRECEDING_SIBLING = "preceding-sibling"
    ATTRIBUTE = "attribute"


#: axes whose result is naturally reverse document order: a step
#: predicate numbers their nodes from the context node outwards
#: (``ancestor::a[1]`` is the nearest), though the delivered result is in
#: document order, as XQuery requires and our kernels produce.
REVERSE_AXES = frozenset(
    {Axis.PARENT, Axis.ANCESTOR, Axis.ANCESTOR_OR_SELF, Axis.PRECEDING,
     Axis.PRECEDING_SIBLING}
)


@dataclass(frozen=True)
class NodeTest:
    """A node test: kind test plus optional name restriction.

    ``kind`` is one of ``element``, ``attribute``, ``text``, ``comment``,
    ``processing-instruction``, ``document-node`` or ``node``; ``name`` is
    the required name or ``None`` for a wildcard.
    """

    kind: str = "node"
    name: str | None = None

    def __str__(self) -> str:
        if self.kind == "element":
            return self.name if self.name is not None else "*"
        if self.kind == "attribute":
            return "@" + (self.name if self.name is not None else "*")
        inner = self.name or ""
        return f"{self.kind}({inner})"


ANY_NODE = NodeTest("node")
ANY_ELEMENT = NodeTest("element")


def element(name: str | None = None) -> NodeTest:
    """Node test for elements, optionally name-restricted."""
    return NodeTest("element", name)


def attribute(name: str | None = None) -> NodeTest:
    """Node test for attributes, optionally name-restricted."""
    return NodeTest("attribute", name)


def text() -> NodeTest:
    """Node test for text nodes."""
    return NodeTest("text")


def axis_region_holds(arena, v: int, w: int, axis: Axis) -> bool:
    """Reference oracle: does node ``w`` lie on ``axis`` of context ``v``?

    Implemented directly from the region characterisation of the XPath
    Accelerator (e.g. *w is a descendant of v* ⇔ ``v < w ≤ v+size(v)``).
    Arena row ids are pre-order ranks rebased per fragment, so containment
    arithmetic on row ids is exactly the paper's pre/post plane test.
    Intentionally scalar and slow — used by tests and the naive baseline.
    """
    arena.ensure_rows((v, w))
    size = arena.size
    if axis is Axis.SELF:
        return w == v
    if axis is Axis.CHILD:
        return arena.parent[w] == v
    if axis is Axis.DESCENDANT:
        return v < w <= v + size[v]
    if axis is Axis.DESCENDANT_OR_SELF:
        return v <= w <= v + size[v]
    if axis is Axis.PARENT:
        return arena.parent[v] == w
    if axis is Axis.ANCESTOR:
        return w < v <= w + size[w]
    if axis is Axis.ANCESTOR_OR_SELF:
        return w <= v <= w + size[w]
    if axis is Axis.FOLLOWING:
        return arena.frag[w] == arena.frag[v] and w > v + size[v]
    if axis is Axis.PRECEDING:
        return arena.frag[w] == arena.frag[v] and w < v and w + size[w] < v
    if axis is Axis.FOLLOWING_SIBLING:
        return arena.parent[w] == arena.parent[v] >= 0 and w > v
    if axis is Axis.PRECEDING_SIBLING:
        return arena.parent[w] == arena.parent[v] >= 0 and w < v
    raise ValueError(f"axis {axis} has no node-region characterisation")
