"""Command line: ``python -m perf {run,expected,compare}``."""

from __future__ import annotations

import argparse
import os
import signal
import sys

from perf import SRC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m perf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run one workload (--workload) or all five")
    run.add_argument("--workload", help="run only this workload, in process")
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--seconds", type=float, default=20.0,
                     help="length of the timed phase of one run")
    run.add_argument("--trace", type=int, nargs="?", const=1, choices=(0, 1),
                     help="1: the traced per-layer run; 0: end-to-end only "
                     "(default: 0 for one workload, both for all)")
    run.add_argument("--repeat", type=int, default=1,
                     help="all-workload mode: runs per workload, seeds "
                     "seed..seed+repeat-1 (a set of runs for `compare`)")
    run.add_argument("--out", help="where to write the result record")
    run.add_argument("--smoke", action="store_true",
                     help="tiny documents, one pass (for the tests)")
    run.add_argument("--emit-record", action="store_true",
                     help=argparse.SUPPRESS)

    expected = sub.add_parser(
        "expected",
        help="regenerate perf/expected/*-seed<N>.json from the baseline "
        "interpreter")
    expected.add_argument("--seed", type=int, required=True)

    compare = sub.add_parser(
        "compare", help="compare two result records metric by metric")
    compare.add_argument("base")
    compare.add_argument("change")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so servers and temp stores are removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.command == "compare":
        from perf.compare import compare_files

        return compare_files(args.base, args.change)
    if not (SRC / "repro").is_dir():
        print(f"the program under test is missing: no {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    if args.command == "expected":
        from perf import inputs, oracle
        from perf.metrics import WORKLOADS

        for workload in WORKLOADS[:2]:
            scale = inputs.SCALES[workload]
            print(f"{workload} seed {args.seed} scale {scale}")
            oracle.write_expected(
                workload, args.seed, scale,
                inputs.document(scale, args.seed),
                inputs.xmark_queries(workload))
        return 0
    if os.environ.get("PYTHONHASHSEED") != "0":
        # the optimizer's choices follow set iteration order: at equal
        # --seed the interpreter's random hash seed moved xmark-prepared's
        # query_geomean_ms by 6 %.  Pin it, for this process and every
        # server it spawns, by starting over once.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [
            sys.executable, "-m", "perf",
            *(sys.argv[1:] if argv is None else argv)])
    from perf import runner
    from perf.common import Config
    from perf.metrics import WORKLOADS

    if args.workload is None:
        traces = [0, 1] if args.trace is None else [args.trace]
        return runner.run_all(
            args.seed, args.seconds, traces, args.repeat, args.out)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r} "
              f"(one of: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    cfg = Config(args.workload, args.seed, args.seconds,
                 bool(args.trace), args.smoke)
    return runner.run_one(cfg, args.emit_record)


if __name__ == "__main__":
    raise SystemExit(main())
