"""``xmark-cold`` and ``xmark-prepared``: the library user's workloads.

Both run XMark Q1-Q20 except Q10 in process through ``repro.connect()``
over one eager in-memory document.  ``xmark-cold`` clears the plan cache
before every query (compile + execute + serialize; compile-bound at its
scale), ``xmark-prepared`` prepares each query once per pass and times
only ``execute().serialize()`` (execute-bound; the front end does
nothing in its timed phase).  ``xmark-cold`` also times Q10 after every
pass, as a kind of its own (``inputs.COLD_ALONE`` says why).

Constructed nodes are never freed from the append-only arena, so a
long-lived session gets slower pass by pass.  Every pass therefore
starts from a fresh ``Database`` (shredded outside the timed region):
passes are identically distributed, and the per-pass set-up gives
``setup_s`` and ``reopen_first_query_ms`` as many samples as passes.
"""

from __future__ import annotations

import gc
import time

import repro
from repro.errors import PathfinderError
from repro.xmark import XMARK_QUERIES

from perf import inputs, oracle, rounds, stats
from perf.common import Config, Outcome, Samples, end_to_end, peak_rss_mb
from perf.speed import Speed

URI = oracle.URI


class Loaded:
    """One complete set-up: generated, shredded, first Q1 answered and —
    for the prepared workload — every query prepared."""

    def __init__(self, cfg: Config):
        t0 = time.perf_counter()
        self.text = inputs.document(cfg.scale, cfg.seed)
        t_open = time.perf_counter()
        self.session = repro.connect()
        database = self.session.database
        self.nodes = database.load_document(URI, self.text)
        report = database.storage_report()
        self.stored_ratio = report.encoded_bytes / report.xml_bytes
        self.first = self.session.execute(XMARK_QUERIES["Q1"]).serialize()
        self.reopen_seconds = time.perf_counter() - t_open
        self.prepared = None
        if cfg.workload == "xmark-prepared":
            self.prepared = {
                name: self.session.prepare(XMARK_QUERIES[name])
                for name in inputs.XMARK_PASS
            }
        self.setup_seconds = time.perf_counter() - t0

    def run(self, name: str) -> str | None:
        """One timed operation: query text (or prepared plan) -> string,
        None if it raised."""
        try:
            if self.prepared is not None:
                return self.prepared[name].execute().serialize()
            self.session.database.plan_cache.clear()
            return self.session.execute(XMARK_QUERIES[name]).serialize()
        except PathfinderError:
            return None


def check(outputs, expected: dict[str, str], samples: Samples) -> None:
    """Count every output against its reference hash.  ``outputs`` holds
    ``(query, text or None if it raised, index of its timed pass or
    None)``."""
    for name, text, batch in outputs:
        samples.count(
            text is not None and oracle.sha(text) == expected[name], batch)


def pass_rounds(cfg: Config, loaded: Loaded, batch: int, samples: Samples,
                speed: Speed):
    """The ``PASS_ROUNDS`` rounds of {1 update + 2 reads} that end every
    pass, on the pass's database (it is discarded afterwards).  Updates
    are checked by the primitives they report; returns the round log."""
    first = batch * inputs.PASS_ROUNDS % inputs.ROUND_CYCLE
    chosen = slice(first, first + inputs.PASS_ROUNDS)
    log = rounds.run_rounds(
        *rounds.library_calls(loaded.session, XMARK_QUERIES.__getitem__),
        inputs.update_rounds(cfg.seed, cfg.scale, inputs.ROUND_CYCLE)[chosen],
        inputs.round_reads(inputs.ROUND_CYCLE)[chosen])
    _, factor = speed.stop()
    samples.updates.extend(s * factor for s in log.update_seconds)
    samples.reads_after_update.extend(s * factor for _, _, s, _ in log.reads)
    for ok in log.applied_ok:
        samples.count(ok)
    return log


def run(cfg: Config) -> Outcome:
    cold = cfg.workload == "xmark-cold"
    names = inputs.XMARK_PASS
    samples = Samples()
    speed = Speed()
    outputs: list[tuple[str, str | None, int | None]] = []
    loaded = None
    started = time.perf_counter()
    while cfg.wants_more(len(samples.passes), started):
        gc.collect()
        speed.start()
        loaded = Loaded(cfg)
        _, factor = speed.stop()
        samples.setups.append(loaded.setup_seconds * factor)
        samples.reopens.append(loaded.reopen_seconds * factor)
        outputs.append(("Q1", loaded.first, None))
        batch = len(samples.passes)
        raw = []
        for name in names:
            t0 = time.perf_counter()
            text = loaded.run(name)
            raw.append(time.perf_counter() - t0)
            outputs.append((name, text, batch))
        seconds, factor = speed.stop()
        samples.passes.append(seconds)
        samples.batch_seconds.append(seconds)
        samples.batches.append([latency * factor for latency in raw])
        for name, latency in zip(names, raw):
            samples.add(name, latency * factor)
        if cold:
            outputs.append(
                (inputs.COLD_ALONE, loaded.run(inputs.COLD_ALONE), None))
            samples.add(inputs.COLD_ALONE, speed.stop()[0])
        log = pass_rounds(cfg, loaded, batch, samples, speed)
    # the reads between the updates are checked once, on the last pass:
    # those of its last round against a rebuild of the updated document
    fresh, _ = rounds.rebuilt(loaded.session.database, URI)
    for r, name, _, output in log.reads:
        if r == inputs.PASS_ROUNDS - 1:
            samples.count(
                output == fresh.execute(XMARK_QUERIES[name]).serialize())
    timed = inputs.xmark_queries(cfg.workload)
    expected, oracle_label = oracle.references(
        cfg.workload, cfg.seed, loaded.text, timed, cfg.smoke)
    check(outputs, expected, samples)
    return Outcome(
        metrics=end_to_end(samples, peak_rss_mb(), loaded.stored_ratio),
        attempted=samples.attempted,
        failed=samples.failed,
        info={
            "scale": cfg.scale,
            "nodes": loaded.nodes,
            "xml_bytes": len(loaded.text.encode("utf-8")),
            "queries": len(timed),
            "passes": len(samples.passes),
            "oracle": oracle_label,
            "speed_factor": speed.summary(),
        },
        extras={
            f"query.{name}_ms": (1000.0 * stats.median(v), "ms")
            for name, v in samples.by_kind.items()
        },
    )
