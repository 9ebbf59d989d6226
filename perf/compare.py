"""``python -m perf compare BASE.json CHANGE.json``

Compares two result records (each written by ``python -m perf run``,
ideally with ``--repeat 10`` so every workload has a set of runs) per
(workload, end-to-end metric): both medians, their ratio with its base,
and a verdict against the metric's bound in ``BENCHMARK.json``:

* ``regression`` — the change's median is worse than the base's by more
  than the bound;
* ``unresolved`` — either side's own spread (first to third quartile,
  as a share of the median) is wider than the bound, so a difference of
  that size cannot be told from noise (``setup_s`` is exempt, as in the
  benchmark contract);
* ``ok`` otherwise.

Counts that must repeat exactly are compared run by run on equal seeds.
"""

from __future__ import annotations

import json

from perf import ROOT, stats

EXACT_COUNTS = (
    "stored_bytes_per_xml_byte",
    "compiler.looplift_ops",
    "relational.optimizer.ops_after",
    "relational.evaluate.rows_materialized",
    "encoding.paging.faults",
)


def load_bounds() -> dict[str, dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m for m in json.load(handle)["end_to_end"]}


def grouped(record: dict) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values over the record's untraced runs."""
    out: dict[tuple[str, str], list[float]] = {}
    for run in record["runs"]:
        if run["trace"]:
            continue
        for name, metric in run["metrics"].items():
            out.setdefault((run["workload"], name), []).append(metric["value"])
    return out


def verdict(base: list[float], change: list[float], spec: dict):
    """``(base median, change median, worsening share, spread, verdict)``."""
    b, c = stats.median(base), stats.median(change)
    worse = (c - b) / b if spec["better"] == "lower" else (b - c) / b
    spreads = [stats.quartile_spread(v) for v in (base, change) if len(v) >= 4]
    spread = max(spreads) if spreads else None
    if worse > spec["bound"]:
        word = "regression"
    elif spec["name"] != "setup_s" and spread is not None \
            and spread > spec["bound"]:
        word = "unresolved"
    else:
        word = "ok"
    return b, c, worse, spread, word


def exact_differences(base: dict, change: dict) -> list[str]:
    """Exact counts that differ between runs of equal (workload, seed, trace)."""
    def keyed(record):
        return {(r["workload"], r["seed"], r["trace"]): r["metrics"]
                for r in record["runs"]}

    theirs = keyed(change)
    out = []
    for key, metrics in keyed(base).items():
        for name in EXACT_COUNTS:
            if name in metrics and key in theirs and name in theirs[key] \
                    and metrics[name]["value"] != theirs[key][name]["value"]:
                out.append(f"{key[0]} seed {key[1]} {name}: "
                           f"{metrics[name]['value']} != "
                           f"{theirs[key][name]['value']}")
    return out


def compare_files(base_path: str, change_path: str) -> int:
    with open(base_path, encoding="utf-8") as handle:
        base = json.load(handle)
    with open(change_path, encoding="utf-8") as handle:
        change = json.load(handle)
    bounds = load_bounds()
    theirs = grouped(change)
    bad = 0
    print(f"base   {base_path}  sha {base.get('git_sha')}\n"
          f"change {change_path}  sha {change.get('git_sha')}")
    print(f"{'workload':<15} {'metric':<26} {'base':>12} {'change':>12} "
          f"{'change/base':>11} {'spread':>7} {'bound':>6}  verdict")
    for (workload, name), values in sorted(grouped(base).items()):
        if (workload, name) not in theirs or name not in bounds:
            continue
        b, c, _worse, spread, word = verdict(
            values, theirs[workload, name], bounds[name])
        bad += word != "ok"
        shown = "-" if spread is None else f"{spread:.3f}"
        print(f"{workload:<15} {name:<26} {b:>12.4f} {c:>12.4f} "
              f"{c / b:>11.4f} {shown:>7} {bounds[name]['bound']:>6}  {word} "
              f"(n={len(values)}/{len(theirs[workload, name])})")
    differences = exact_differences(base, change)
    for line in differences:
        print("exact count differs: " + line)
    if not differences:
        print("exact counts: identical on every pair of runs with equal seeds")
    return 1 if bad or differences else 0
