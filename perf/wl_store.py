"""``store-update``: the operator's workload — writes beside reads over a
persistent store whose working set is larger than the pager budget.

The same layers as the read workloads, used differently: every update
bumps the document epoch, so the plan cache misses instead of hits and
the next read of each text recompiles; the store appends and fsyncs its
WAL instead of only mmap-reading; the pager works under a budget of a
quarter of the fragment bytes; the append-only arena grows by one
document copy per update, which slows the constructor-heavy reads.

The work is a sequence of identical *blocks*.  A block copies the
pristine store, opens it paged, runs ``STORE_ROUNDS`` rounds of {1
seeded update + 2 reads} with a checkpoint every 10 rounds, then reopens
the store five times and answers Q1.  Blocks start from the same state
and apply the same updates, so they are identically distributed, a run
can take as many as fit ``--seconds``, every count inside a block
repeats exactly, and one set of reference outputs checks every read of
every block.
"""

from __future__ import annotations

import gc
import os
import shutil
import time

import repro
from repro.api.database import Database
from repro.errors import PathfinderError
from repro.xmark import XMARK_QUERIES

from perf import inputs, oracle, rounds
from perf.common import (
    Config, Outcome, Samples, end_to_end, in_memory, peak_rss_mb, scratch_dir,
)
from perf.speed import Speed

URI = oracle.URI
#: a set-up is ~60 ms with two fsyncs in it: take the median of several
SETUP_REPEATS = 7
REOPENS_PER_BLOCK = 5


def persist(cfg: Config, store: str) -> tuple[str, int]:
    """One complete set-up: generate, shred, persist, reopen paged.
    Returns the document text and the pager budget."""
    text = inputs.document(cfg.scale, cfg.seed)
    database = repro.connect(store=store).database
    database.load_document(URI, text)
    database.checkpoint()
    budget = database.store_status()["fragment_bytes"] // 4
    Database.open(store, page_budget_bytes=budget)
    return text, budget


def fold(log: rounds.RoundLog, factor: float, references: dict,
         samples: Samples) -> None:
    """One block's raw round times, speed-corrected, and its outputs
    checked against the references, into ``samples`` as a new batch."""
    batch = len(samples.batches)
    samples.batches.append([])
    for seconds, ok in zip(log.update_seconds, log.applied_ok):
        samples.updates.append(seconds * factor)
        samples.batches[batch].append(seconds * factor)
        samples.count(ok, batch)
    for r, name, seconds, output in log.reads:
        samples.add(name, seconds * factor)
        samples.reads_after_update.append(seconds * factor)
        samples.batches[batch].append(seconds * factor)
        samples.count(
            output is not None and oracle.sha(output) == references[r, name],
            batch)


def run_block(store: str, budget: int, updates, reads, references: dict,
              q1_reference: str, samples: Samples, speed: Speed) -> int:
    """One block on a private copy of the store; returns the fragment
    bytes after its last checkpoint."""
    database = Database.open(store, page_budget_bytes=budget)
    apply_update, read = rounds.library_calls(
        database.connect(), XMARK_QUERIES.__getitem__)
    speed.start()
    log = rounds.run_rounds(
        apply_update, read, updates, reads, checkpoint=database.checkpoint)
    seconds, factor = speed.stop()
    samples.passes.append(seconds)
    samples.batch_seconds.append(seconds)
    fold(log, factor, references, samples)
    fragment_bytes = database.store_status()["fragment_bytes"]
    del apply_update, read, database
    raw = []
    speed.start()
    for _ in range(REOPENS_PER_BLOCK):
        gc.collect()
        t0 = time.perf_counter()
        reopened = Database.open(store, page_budget_bytes=budget)
        try:
            answer = reopened.connect().execute(XMARK_QUERIES["Q1"]).serialize()
        except PathfinderError:
            answer = None
        raw.append(time.perf_counter() - t0)
        samples.count(answer == q1_reference)
        del reopened
    _, factor = speed.stop()
    samples.reopens.extend(seconds * factor for seconds in raw)
    return fragment_bytes


def run(cfg: Config) -> Outcome:
    samples = Samples()
    speed = Speed()
    with scratch_dir("store-update-") as tmp:
        for i in range(1 if cfg.smoke else SETUP_REPEATS):
            pristine = os.path.join(tmp, f"pristine{i}")
            speed.start()
            text, budget = persist(cfg, pristine)
            samples.setups.append(speed.stop()[0])
        updates = inputs.update_rounds(
            cfg.seed, cfg.scale, inputs.STORE_ROUNDS)
        reads = inputs.round_reads(inputs.STORE_ROUNDS)
        references, final_text = rounds.round_references(
            text, URI, updates, reads, XMARK_QUERIES.__getitem__)
        q1_reference = in_memory({URI: final_text}).connect().execute(
            XMARK_QUERIES["Q1"]).serialize()
        started = time.perf_counter()
        while cfg.wants_more(len(samples.passes), started):
            store = os.path.join(tmp, "block")
            shutil.copytree(pristine, store)
            gc.collect()
            fragment_bytes = run_block(
                store, budget, updates, reads, references, q1_reference,
                samples, speed)
            shutil.rmtree(store)
    return Outcome(
        metrics=end_to_end(
            samples, peak_rss_mb(),
            fragment_bytes / len(final_text.encode("utf-8")),
        ),
        attempted=samples.attempted,
        failed=samples.failed,
        info={
            "scale": cfg.scale,
            "xml_bytes": len(text.encode("utf-8")),
            "page_budget_bytes": budget,
            "blocks": len(samples.passes),
            "updates": len(samples.updates),
            "oracle": "every read against a fresh in-memory database "
                      "rebuilt from the serialized post-update document "
                      "of its round",
            "speed_factor": speed.summary(),
        },
    )

