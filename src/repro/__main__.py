"""Command-line front end: compile and run XQuery from the shell.

The original Pathfinder shipped as a command-line compiler.  Usage::

    python -m repro -q 'count(//item)' --doc auction.xml=path/to.xml
    python -m repro -f query.xq --doc data.xml=input.xml --explain
    echo '1+1' | python -m repro

Prepared-query mode: queries may declare external variables and bind
them from the command line, and ``--repeat`` re-executes the compiled
plan to show the compile-once amortization::

    python -m repro -q 'declare variable $n as xs:integer external;
                        (1 to $n)' --bind n=5 --repeat 3

Options mirror the demo's "under the hood" hooks: ``--explain`` prints
the plan stages, ``--mil`` the generated MIL program, ``--baseline``
cross-checks against the nested-loop interpreter, ``--xmark SCALE``
loads a generated XMark instance instead of files.

Serving mode (``python -m repro serve --xmark 0.002 --port 8080``)
starts the HTTP query service instead of running one query; its options
live in :mod:`repro.server.cli` and its operations guide in
``docs/serving.md``.
"""

from __future__ import annotations

import argparse
import sys

from repro import connect
from repro.errors import PathfinderError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Pathfinder: XQuery - The Relational Way (reproduction)",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument("-q", "--query", help="query text")
    source.add_argument("-f", "--file", help="read the query from a file")
    parser.add_argument(
        "--doc",
        action="append",
        default=[],
        metavar="URI=PATH",
        help="load an XML document (repeatable; first one is the default)",
    )
    parser.add_argument(
        "--xmark",
        type=float,
        metavar="SCALE",
        help="load a generated XMark instance as 'auction.xml'",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        help="persistent document store directory (created if missing; "
        "previously persisted documents are recovered, updates are "
        "durable — see docs/storage.md)",
    )
    parser.add_argument(
        "--bind",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="bind an external variable (repeatable; VALUE parses as "
        "int, then float, else string)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="execute the prepared query N times (plan compiled once)",
    )
    parser.add_argument("--explain", action="store_true", help="print plan stages")
    parser.add_argument("--mil", action="store_true", help="print the MIL program")
    parser.add_argument(
        "--baseline",
        action="store_true",
        help="also run the nested-loop baseline and compare",
    )
    parser.add_argument(
        "--no-optimizer", action="store_true", help="skip plan optimization"
    )
    parser.add_argument(
        "--disable-pass",
        action="append",
        default=[],
        metavar="NAME",
        help="disable one optimizer rewrite pass (repeatable; see "
        "--explain for the pass list)",
    )
    parser.add_argument(
        "--time", action="store_true", help="print compile/execute timings"
    )
    return parser


def parse_binding(spec: str) -> tuple[str, str]:
    """``name=value`` → (name, raw value); typing happens against the
    query's declared parameter types in :func:`coerce_binding`."""
    name, sep, raw = spec.partition("=")
    if not sep or not name:
        raise PathfinderError(f"bad --bind {spec!r}, expected NAME=VALUE")
    return name.lstrip("$"), raw


def coerce_binding(raw: str, type_name: str | None) -> object:
    """Convert a command-line value to the declared parameter type.

    A declared ``xs:string`` keeps the raw text (so ``--bind zip=02134``
    stays a string); numeric/boolean declarations convert strictly; an
    untyped declaration falls back to int, then float, else string.  The
    declared-type table is ``PARAM_TYPE_KINDS`` — the same one the
    compiler and the bind-time checker use.
    """
    from repro.relational.items import (
        K_BOOL,
        K_DBL,
        K_INT,
        PARAM_TYPE_KINDS,
    )

    kinds = PARAM_TYPE_KINDS.get(type_name) if type_name else None
    if kinds is not None:
        primary = kinds[0]
        try:
            if primary == K_INT:
                return int(raw)
            if primary == K_DBL:
                return float(raw)
        except ValueError:
            raise PathfinderError(
                f"cannot convert {raw!r} to declared type {type_name}"
            ) from None
        if primary == K_BOOL:
            if raw in ("true", "1"):
                return True
            if raw in ("false", "0"):
                return False
            raise PathfinderError(f"cannot convert {raw!r} to xs:boolean")
        return raw  # string-kinded declarations keep the raw text
    try:
        return int(raw)
    except ValueError:
        try:
            return float(raw)
        except ValueError:
            return raw


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point: one-shot query mode, or the ``serve`` subcommand."""
    out = out or sys.stdout
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "serve":
        from repro.server.cli import serve_main

        return serve_main(argv[1:], out=out)
    args = build_parser().parse_args(argv)

    if args.query:
        query = args.query
    elif args.file:
        with open(args.file, "r", encoding="utf-8") as handle:
            query = handle.read()
    else:
        query = sys.stdin.read()
    if not query.strip():
        print("no query given", file=sys.stderr)
        return 2
    if args.repeat < 1:
        print("--repeat must be >= 1", file=sys.stderr)
        return 2

    from repro.relational.optimizer import check_disabled_passes

    try:
        disabled = check_disabled_passes(args.disable_pass)
    except PathfinderError as exc:
        print(exc, file=sys.stderr)
        return 2

    try:
        session = connect(
            use_optimizer=not args.no_optimizer,
            disabled_passes=disabled,
            store=args.store,
        )
        database = session.database
        raw_bindings = dict(parse_binding(spec) for spec in args.bind)
        # with a store, URIs may already exist from recovery — replace
        replace = args.store is not None
        if args.xmark is not None:
            from repro.xmark import generate_document

            database.load_document(
                "auction.xml", generate_document(args.xmark), replace=replace
            )
        for spec in args.doc:
            uri, _, path = spec.partition("=")
            if not path:
                print(f"bad --doc {spec!r}, expected URI=PATH", file=sys.stderr)
                return 2
            with open(path, "r", encoding="utf-8") as handle:
                database.load_document(uri, handle.read(), replace=replace)

        from repro.xquery.core import is_updating
        from repro.xquery.parser import parse_query

        module = parse_query(query)
        if is_updating(module.body):
            if args.explain or args.mil or args.baseline:
                print(
                    "--explain/--mil/--baseline do not apply to updating "
                    "queries",
                    file=sys.stderr,
                )
                return 2
            declared_types = {v.name: v.type_name for v in module.external_vars}
            bindings = {
                name: coerce_binding(raw, declared_types.get(name))
                for name, raw in raw_bindings.items()
            }
            summary = session.execute_update(query, bindings)
            applied = ", ".join(
                f"{kind}={n}" for kind, n in summary["applied"].items()
            )
            docs = ", ".join(
                f"{uri} (epoch {info['epoch']}, {info['nodes']} nodes)"
                for uri, info in summary["documents"].items()
            )
            print(f"applied: {applied or 'nothing'}", file=out)
            print(f"updated: {docs or 'no documents'}", file=out)
            if args.time:
                print(f"# update {summary['seconds'] * 1000:.1f} ms", file=out)
            return 0

        if args.explain or args.mil:
            if args.bind or args.repeat > 1:
                print(
                    "warning: --bind/--repeat have no effect with "
                    "--explain/--mil (the query is not executed)",
                    file=sys.stderr,
                )
            report = session.explain(query)
            if args.explain:
                print(
                    f"# plan: {report.stats.ops_before} operators, "
                    f"{report.stats.ops_after} after optimization",
                    file=out,
                )
                if report.stats.pass_stats:
                    print("# optimizer passes:", file=out)
                    for line in report.pass_table.splitlines():
                        print(f"#   {line}", file=out)
                print(report.plan_ascii, file=out)
            if args.mil:
                print(report.mil, file=out)
            return 0

        prepared = session.prepare(query)
        declared_types = {v.name: v.type_name for v in prepared.parameters}
        bindings = {
            name: coerce_binding(raw, declared_types.get(name))
            for name, raw in raw_bindings.items()
        }
        result = prepared.execute(bindings)
        for i in range(1, args.repeat):
            result = prepared.execute(bindings)
            if args.time:
                print(
                    f"# run {i + 1}: execute "
                    f"{result.execute_seconds * 1000:.1f} ms (plan cached)",
                    file=out,
                )
        print(result.serialize(), file=out)
        if args.time:
            print(
                f"# compile {prepared.compile_seconds * 1000:.1f} ms, "
                f"execute {result.execute_seconds * 1000:.1f} ms, "
                f"{args.repeat} run(s)",
                file=out,
            )
        if args.baseline:
            if prepared.parameters:
                print(
                    "# baseline skipped: the nested-loop interpreter does "
                    "not support external variables",
                    file=out,
                )
                return 0
            from repro.baseline.interpreter import Interpreter
            from repro.xquery.core import desugar_module
            from repro.xquery.parser import parse_query

            interp = Interpreter(
                database.arena, database.documents, database.default_document
            )
            module = desugar_module(parse_query(query))
            agree = interp.serialize(interp.execute(module)) == result.serialize()
            print(f"# baseline agrees: {agree}", file=out)
            if not agree:
                return 1
        return 0
    except PathfinderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
