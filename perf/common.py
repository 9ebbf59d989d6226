"""What every workload shares: its configuration, the samples its timed
phase collects, and the arithmetic from samples to end-to-end metrics."""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.api.database import Database

from perf import OUT_DIR, stats
from perf.inputs import scale_for
from perf.metrics import END_TO_END

#: a timed phase takes at least this many passes, however short --seconds
MIN_PASSES = 3


@dataclass(frozen=True)
class Config:
    workload: str
    seed: int = 42
    seconds: float = 20.0
    trace: bool = False
    #: tiny documents and one short pass — for perf/test_perf.py
    smoke: bool = False

    @property
    def scale(self) -> float:
        return scale_for(self.workload, self.smoke)

    def wants_more(self, passes_done: int, started: float) -> bool:
        """Whether the timed phase takes another pass: until ``seconds``
        have elapsed, and at least MIN_PASSES (one in smoke mode)."""
        if passes_done < (1 if self.smoke else MIN_PASSES):
            return True
        return time.perf_counter() - started < self.seconds


@dataclass
class Samples:
    """What a workload's timed phase collected: seconds throughout, every
    time already speed-corrected (``perf/speed.py``)."""

    #: read-query kind -> latencies (what query_geomean_ms averages)
    by_kind: dict[str, list[float]] = field(default_factory=dict)
    #: per batch of the timed loop (an xmark pass, a serve segment, a
    #: store-update block): the latency of every operation in it, the
    #: seconds it took and how many of its operations were correct
    batches: list[list[float]] = field(default_factory=list)
    batch_seconds: list[float] = field(default_factory=list)
    batch_ok: list[int] = field(default_factory=list)
    #: wall time of each fixed amount of work (what pass_s is the median of)
    passes: list[float] = field(default_factory=list)
    #: wall time of each complete set-up
    setups: list[float] = field(default_factory=list)
    #: (re)start on existing data -> first Q1 answer
    reopens: list[float] = field(default_factory=list)
    #: ``execute_update`` latencies, and those of the reads between them
    updates: list[float] = field(default_factory=list)
    reads_after_update: list[float] = field(default_factory=list)
    #: every operation checked (timed or not) and those that raised,
    #: returned an error or mismatched their reference
    attempted: int = 0
    failed: int = 0

    def add(self, kind: str, seconds: float) -> None:
        self.by_kind.setdefault(kind, []).append(seconds)

    def count(self, ok: bool, batch: int | None = None) -> None:
        """One checked operation; ``batch`` is the index of the timed
        batch it belongs to, None outside the timed loop."""
        self.attempted += 1
        self.failed += not ok
        if batch is not None:
            while len(self.batch_ok) <= batch:
                self.batch_ok.append(0)
            self.batch_ok[batch] += bool(ok)


@dataclass
class Outcome:
    """One run of one workload: ``metrics`` maps a declared name to
    ``(value, unit, sample count)``; ``extras`` are diagnostics that are
    printed and recorded but not part of the contract."""

    metrics: dict[str, tuple[float, str, int]]
    attempted: int
    failed: int
    info: dict = field(default_factory=dict)
    extras: dict[str, tuple[float, str]] = field(default_factory=dict)


def peak_rss_mb(pids=None) -> float:
    """Sum of ``VmHWM`` over the given processes (default: this one)."""
    total_kb = 0
    for pid in pids or [os.getpid()]:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def end_to_end(samples: Samples, rss_mb: float, stored_ratio: float) -> dict:
    """The declared end-to-end metrics from one run's samples.  The
    latency percentiles and the throughput are taken per batch and the
    median over the batches is reported: batches are identically
    distributed, and a burst of interference spoils one of them, not
    the run."""
    medians = [stats.median(v) for v in samples.by_kind.values()]
    operations = sum(len(b) for b in samples.batches)
    values = {
        "setup_s": (stats.median(samples.setups), len(samples.setups)),
        "query_geomean_ms": (stats.geomean(medians) * 1000.0, len(medians)),
        "pass_s": (stats.median(samples.passes), len(samples.passes)),
        "peak_rss_mb": (rss_mb, 1),
        "latency_p50_ms": (
            stats.median(stats.median(b) for b in samples.batches) * 1000.0,
            operations),
        "latency_p95_ms": (
            stats.median(
                stats.percentile(b, 95) for b in samples.batches) * 1000.0,
            operations),
        "throughput_rps": (
            stats.median(
                ok / seconds for ok, seconds
                in zip(samples.batch_ok, samples.batch_seconds)),
            sum(samples.batch_ok)),
        "update_p50_ms": (
            stats.median(samples.updates) * 1000.0, len(samples.updates)),
        "read_after_update_p50_ms": (
            stats.median(samples.reads_after_update) * 1000.0,
            len(samples.reads_after_update)),
        "reopen_first_query_ms": (
            stats.median(samples.reopens) * 1000.0, len(samples.reopens)),
        "stored_bytes_per_xml_byte": (stored_ratio, 1),
        "correct_share": (
            1.0 - samples.failed / samples.attempted, samples.attempted),
    }
    return {
        name: (value, END_TO_END[name], n) for name, (value, n) in values.items()
    }


def in_memory(docs: dict[str, str]) -> Database:
    """A fresh eager in-memory Database holding ``uri -> XML text``."""
    database = Database()
    for uri, text in docs.items():
        database.load_document(uri, text)
    return database


@contextmanager
def scratch_dir(prefix: str):
    """A temporary directory under ``perf/out`` (the benchmark writes
    only inside its checkout), removed on exit, failure or Ctrl-C."""
    OUT_DIR.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=OUT_DIR)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
