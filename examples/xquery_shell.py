"""An interactive XQuery shell over an XMark instance.

The paper's demonstration let visitors "state their own ad hoc queries"
against pre-loaded XMark instances, with hooks to look under the hood.
This is that console.  Commands:

    \\plan   toggle printing the optimized plan for each query
    \\mil    toggle printing the generated MIL program
    \\base   toggle cross-checking against the nested-loop baseline
    \\quit   exit

Run:  python examples/xquery_shell.py [scale]
"""

from __future__ import annotations

import sys
import time

import repro
from repro.baseline.interpreter import Interpreter
from repro.errors import PathfinderError
from repro.xmark import generate_document
from repro.xquery.core import desugar_module
from repro.xquery.parser import parse_query


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.002
    print(f"loading XMark instance at scale {scale} ...")
    session = repro.connect()
    database = session.database
    nodes = database.load_document("auction.xml", generate_document(scale))
    print(f"{nodes} nodes loaded; default document: auction.xml")
    print('try:  for $p in /site/people/person[position() <= 3] return $p/name')
    print("commands: \\plan \\mil \\base \\quit\n")

    show_plan = show_mil = cross_check = False
    while True:
        try:
            line = input("xquery> ").strip()
        except (EOFError, KeyboardInterrupt):
            print()
            return
        if not line:
            continue
        if line == "\\quit":
            return
        if line == "\\plan":
            show_plan = not show_plan
            print(f"plan printing {'on' if show_plan else 'off'}")
            continue
        if line == "\\mil":
            show_mil = not show_mil
            print(f"MIL printing {'on' if show_mil else 'off'}")
            continue
        if line == "\\base":
            cross_check = not cross_check
            print(f"baseline cross-check {'on' if cross_check else 'off'}")
            continue
        try:
            t0 = time.perf_counter()
            result = session.execute(line)
            elapsed = time.perf_counter() - t0
            out = result.serialize()
            print(out if len(out) < 2000 else out[:2000] + " ...")
            print(f"-- {elapsed * 1000:.1f} ms "
                  f"(compile {result.compile_seconds * 1000:.1f}, "
                  f"execute {result.execute_seconds * 1000:.1f})")
            if show_plan:
                report = session.explain(line)
                print(report.plan_ascii)
            if show_mil:
                print(session.explain(line).mil)
            if cross_check:
                module = desugar_module(parse_query(line))
                interp = Interpreter(
                    database.arena, database.documents, database.default_document
                )
                interp.set_deadline(30)
                agree = interp.serialize(interp.execute(module)) == out
                print(f"-- baseline agrees: {agree}")
        except PathfinderError as exc:
            print(f"error: {exc}")


if __name__ == "__main__":
    main()
