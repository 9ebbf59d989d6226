"""The X-Hive-shaped baseline: a conventional nested-loop XQuery engine.

The paper (Section 2) contrasts Pathfinder's bulk-oriented loop-lifting
with "other XQuery engines, which in a sense only do nested loop, i.e.,
recursive, processing".  This subpackage is exactly such an engine: a
recursive AST interpreter evaluating item-at-a-time over the same
documents and the same parsed queries, so the differential test suites
compare evaluation *strategies*, not front-ends, and the benchmark's
reference results come from it.  An optional attribute-value hash
index stands in for the value indices the authors added to X-Hive.
"""

from repro.baseline.interpreter import Interpreter, BNode, BAttr

__all__ = ["Interpreter", "BNode", "BAttr"]
