"""Reference outputs the measured outputs are checked against.

Committed references (``perf/expected/<workload>-seed<N>.json``, seeds
42 and 43) come from the nested-loop baseline interpreter — never from
the numpy evaluator's optimized plans.  A query the baseline cannot
finish in its budget is hashed from the naive plan (no optimizer, no
staircase join) and marked so.  For any other seed the reference is
computed at run time from the unoptimized plan: a weaker oracle (it
shares the evaluator with the code under test), and the run says so.
"""

from __future__ import annotations

import hashlib
import json

import repro
from repro.baseline.interpreter import Interpreter, QueryTimeout
from repro.xmark import XMARK_QUERIES
from repro.xquery.core import desugar_module
from repro.xquery.parser import parse_query

from perf import EXPECTED_DIR

BASELINE_BUDGET_S = 120.0
URI = "auction.xml"


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def expected_path(workload: str, seed: int):
    return EXPECTED_DIR / f"{workload}-seed{seed}.json"


def baseline_references(xml_text: str, query_names, log=print) -> dict:
    """Hash every query's output under the baseline interpreter (value
    indexes on, the paper's X-Hive tuning), falling back to the naive
    plan where the baseline exceeds its budget."""
    session = repro.connect()
    database = session.database
    database.load_document(URI, xml_text)
    naive = database.connect(use_optimizer=False, use_staircase=False)
    out = {}
    for name in query_names:
        interp = Interpreter(
            database.arena, database.documents, URI, use_indexes=True
        )
        interp.add_value_index("person")
        interp.add_value_index("income")
        interp.set_deadline(BASELINE_BUDGET_S)
        module = desugar_module(parse_query(XMARK_QUERIES[name]))
        try:
            text = interp.serialize(interp.execute(module))
            oracle = "baseline"
        except QueryTimeout:
            text = naive.execute(XMARK_QUERIES[name]).serialize()
            oracle = "naive-plan"
        out[name] = {"sha256": sha(text), "bytes": len(text.encode("utf-8")),
                     "oracle": oracle}
        log(f"  {name}: {oracle}, {out[name]['bytes']} bytes")
    return out


def write_expected(workload: str, seed: int, scale: float, xml_text: str,
                   query_names, log=print) -> None:
    record = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "xml_sha256": sha(xml_text),
        "queries": baseline_references(xml_text, query_names, log),
    }
    EXPECTED_DIR.mkdir(exist_ok=True)
    with open(expected_path(workload, seed), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")


def unoptimized_references(xml_text: str, query_names) -> dict[str, str]:
    """The run-time fallback: hashes from the unoptimized plan."""
    session = repro.connect(use_optimizer=False)
    session.database.load_document(URI, xml_text)
    return {
        name: sha(session.execute(XMARK_QUERIES[name]).serialize())
        for name in query_names
    }


def references(workload: str, seed: int, xml_text: str, query_names,
               smoke: bool = False) -> tuple[dict[str, str], str]:
    """``(query name -> sha256, oracle label)`` for one generated input."""
    path = expected_path(workload, seed)
    if not smoke and path.exists():
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        if record["xml_sha256"] == sha(xml_text):
            return (
                {q: record["queries"][q]["sha256"] for q in query_names},
                "baseline-interpreter (committed)",
            )
        print(f"{path.name} is stale (the generated document changed); "
              "regenerate it with `python -m perf expected`")
    return (
        unoptimized_references(xml_text, query_names),
        "unoptimized-plan (weaker: computed at run time, shares the evaluator)",
    )
