"""Look under the hood of relational XQuery compilation (paper Section 4).

Shows every stage for the paper's Figure 5 query — the source, the
desugared core, the loop-lifted algebra plan, the optimized plan with
per-pass statistics and plan diffs, and the per-operator intermediate
results (Figure 3's tables) — then dumps Graphviz dot for offline
rendering.  The rewrite-pass pipeline itself is documented in
``docs/ARCHITECTURE.md``.

Run:  python examples/plan_explorer.py ["your query"]
"""

import sys
from collections import Counter

import repro
from repro.relational import algebra as alg
from repro.relational.optimizer import CardinalityEstimator, optimize

FIGURE5 = "for $v in (10,20) return $v + 100"
FIGURE3 = "for $v in (10,20), $w in (100,200) return $v + $w"


def print_pass_diffs(database: repro.Database, plan: alg.Op) -> None:
    """Re-optimize ``plan`` with tracing on and print, for every step that
    changed the plan — a global pass, or a normalizer traversal labelled
    with the local rules that fired in it (``cse+fold``) — the node-count
    delta and which operators (by label) appeared or disappeared."""
    estimator = CardinalityEstimator.from_database(
        database.arena, database.documents
    )
    trace: list = []
    optimize(plan, estimator=estimator, trace=trace)
    previous = plan
    for label, snapshot in trace:
        before = Counter(op.label() for op in alg.walk(previous))
        after = Counter(op.label() for op in alg.walk(snapshot))
        delta = alg.op_count(snapshot) - alg.op_count(previous)
        gone = before - after
        added = after - before
        parts = [f"{delta:+4d} ops  {label}"]
        if gone:
            parts.append("-[" + ", ".join(sorted(gone.elements())[:4]) + "]")
        if added:
            parts.append("+[" + ", ".join(sorted(added.elements())[:4]) + "]")
        print("   ", "  ".join(parts))
        previous = snapshot


def main() -> None:
    query = sys.argv[1] if len(sys.argv) > 1 else FIGURE5
    session = repro.connect()
    database = session.database
    database.load_document("doc.xml", "<site><a>1</a><a>2</a></site>")

    report = session.explain(query)
    print("query:")
    print("   ", query)
    print(
        f"\nloop-lifted plan: {report.stats.ops_before} operators, "
        f"{report.stats.ops_after} after {report.stats.passes} rewrite "
        f"rounds (-{report.stats.reduction_pct:.0f}%)\n"
    )
    print("-- per-pass statistics (Session.explain → report.pass_table) --")
    print(report.pass_table)

    print("\n-- per-pass plan diffs (each global pass / normalizer traversal) --")
    print_pass_diffs(database, report.plan)

    print("\n-- optimized plan (shared subplans shown once as @N) --")
    print(report.plan_ascii)

    print("\n-- Graphviz (render with `dot -Tpng`) --")
    print(report.plan_dot[:400] + ("..." if len(report.plan_dot) > 400 else ""))

    print("\n-- as a MIL program (what the demo shipped to MonetDB) --")
    mil = report.mil
    print("\n".join(mil.splitlines()[:24]))
    print(f"... ({len(mil.splitlines())} lines total)")

    # trace: the intermediate table of every operator (Figure 3 style)
    result = session.execute(FIGURE3, trace=True)
    print(f"\n-- intermediate results of: {FIGURE3} --")
    interesting = []
    for table in result.trace.values():
        if set(table.schema) == {"iter", "pos", "item"} and 0 < table.num_rows <= 4:
            rows = table.to_rows(database.arena.pool)
            if rows not in interesting:
                interesting.append(rows)
    for rows in interesting[:8]:
        print("   ", rows)
    print("\nresult:", result.serialize())


if __name__ == "__main__":
    main()
