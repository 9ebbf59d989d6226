"""Tests of the benchmark's own arithmetic, inputs and declarations.

Collected by the tier-1 command; no sockets, a few seconds.  The three
in-process workloads are actually run, at a tiny scale.
"""

from __future__ import annotations

import itertools
import json
import math
import re

import pytest

from perf import ROOT, inputs, oracle, rounds, speed, stats, wl_store, wl_xmark
from perf.common import Config, Samples, end_to_end
from perf.compare import verdict
from perf.metrics import END_TO_END, PER_LAYER, WORKLOADS
from perf.trace import Span, Tracer, self_time_by_name, self_times


def test_percentile_geomean_and_spread():
    values = list(range(1, 101))
    assert stats.median(values) == 50.5
    assert stats.percentile(values, 95) == pytest.approx(95.95)
    assert stats.percentile([7.0], 95) == 7.0
    assert stats.geomean([1.0, 100.0]) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        stats.geomean([1.0, 0.0])
    # quartiles of 1..9 are 2.5, 5, 7.5
    assert stats.quartile_spread(range(1, 10)) == pytest.approx(1.0)


def test_self_time_is_duration_minus_children():
    spans = [
        Span("op", 0.0, 10.0, None, 1),
        Span("compile", 1.0, 4.0, 0, 1),
        Span("parse", 1.5, 2.5, 1, 1),
        Span("evaluate", 4.0, 9.0, 0, 1),
    ]
    assert self_times(spans) == [2.0, 2.0, 1.0, 5.0]
    assert self_time_by_name(spans)["op"] == 2.0
    assert math.isclose(sum(self_times(spans)), 10.0)


def test_tracer_nests_by_call_structure():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert outer.parent is None and inner.parent == 0
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_end_to_end_arithmetic():
    samples = Samples(
        by_kind={"a": [0.001, 0.002, 0.003], "b": [0.008]},
        batches=[[0.001, 0.003], [0.002, 0.004], [0.003, 0.009]],
        batch_seconds=[1.0, 2.0, 4.0], batch_ok=[2, 2, 1],
        passes=[1.0, 3.0], setups=[0.5], reopens=[0.25, 0.75],
        updates=[0.004, 0.006], reads_after_update=[0.01, 0.03, 0.02],
        attempted=10, failed=1,
    )
    metrics = end_to_end(samples, rss_mb=10.0, stored_ratio=2.5)
    assert set(metrics) == set(END_TO_END)
    assert metrics["query_geomean_ms"][0] == pytest.approx(4.0)  # sqrt(2*8)
    assert metrics["pass_s"][0] == 2.0
    # per batch, then the median over the batches
    assert metrics["latency_p50_ms"][0] == pytest.approx(3.0)
    assert metrics["throughput_rps"][0] == 1.0
    assert metrics["update_p50_ms"][0] == pytest.approx(5.0)
    assert metrics["read_after_update_p50_ms"][0] == pytest.approx(20.0)
    assert metrics["reopen_first_query_ms"][0] == 500.0
    assert metrics["correct_share"][0] == pytest.approx(0.9)
    assert all(unit == END_TO_END[n] for n, (_, unit, _) in metrics.items())


def test_speed_factor_scales_to_the_reference(monkeypatch):
    kernels = iter([0.02, 0.02, 0.01])
    monkeypatch.setattr(speed, "kernel", lambda: next(kernels))
    meter = speed.Speed()
    meter.start()
    seconds, factor = meter.stop()
    # a box at half the reference speed: its times count half
    assert factor == pytest.approx(speed.REFERENCE_S / 0.02)
    assert 0 <= seconds < 1.0
    # the next batch shares the kernel run that ended the first
    assert meter.stop()[1] == pytest.approx(speed.REFERENCE_S / 0.015)
    assert len(meter.factors) == 2


def test_rounds_log_times_outputs_and_applied_counts():
    applied = iter([{"insert": 1}, {"delete": 2}, None])
    checkpoints = []
    log = rounds.run_rounds(
        lambda text: next(applied), lambda name: name.lower(),
        [("insert", "u0"), ("delete", "u1"), ("rename", "u2")],
        [("Q1", "Q2")] * 3, checkpoint=lambda: checkpoints.append(1))
    assert log.applied_ok == [True, False, False]
    assert [(r, name, out) for r, name, _, out in log.reads] == [
        (0, "Q1", "q1"), (0, "Q2", "q2"), (1, "Q1", "q1"), (1, "Q2", "q2"),
        (2, "Q1", "q1"), (2, "Q2", "q2")]
    assert len(log.update_seconds) == 3 and not checkpoints


def test_compare_verdicts():
    lower = {"name": "pass_s", "better": "lower", "bound": 0.08}
    steady = [1.0, 1.01, 0.99, 1.0, 1.0]
    assert verdict(steady, [x * 1.2 for x in steady], lower)[4] == "regression"
    assert verdict(steady, [x * 1.05 for x in steady], lower)[4] == "ok"
    noisy = [1.0, 1.3, 0.8, 1.1, 0.9]
    assert verdict(steady, noisy, lower)[4] == "unresolved"
    higher = {"name": "throughput_rps", "better": "higher", "bound": 0.1}
    assert verdict(steady, [x * 0.8 for x in steady], higher)[4] == "regression"
    assert verdict(steady, [x * 1.5 for x in steady], higher)[4] == "ok"


def test_inputs_are_a_function_of_the_seed():
    def head(seed, client):
        stream = inputs.request_stream(seed, client, 0.005)
        return list(itertools.islice(stream, 200))

    assert head(42, 0) == head(42, 0)
    assert head(42, 0) != head(42, 1)
    assert head(42, 0) != head(43, 0)
    kinds = [kind for kind, _, _ in head(42, 0)]
    assert set(kinds) == set(inputs.SERVE_KINDS)
    # every block of 40 holds the 70/20/10 mix exactly
    for start in range(0, 200, inputs.SERVE_BLOCK):
        block = kinds[start:start + inputs.SERVE_BLOCK]
        assert block.count("param") == 8 and block.count("Q17") == 4
        assert all(block.count(q) == 7 for q in inputs.SERVE_CHEAP)
    assert inputs.update_rounds(42, 0.005, 20) == inputs.update_rounds(
        42, 0.005, 20)
    assert inputs.update_rounds(42, 0.005, 20) != inputs.update_rounds(
        43, 0.005, 20)
    assert [k for k, _ in inputs.update_rounds(7, 0.0005, 8)][:4] == list(
        inputs.UPDATE_KINDS)
    assert 'doc("auction-0.xml")/site' in inputs.update_rounds(
        7, 0.005, 4, "auction-0.xml")[0][1]


def test_benchmark_json_declares_what_the_runner_emits():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer"}
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in contract["workloads"])
    for section, declared in (("end_to_end", END_TO_END),
                              ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in contract[section]}
        assert listed == declared
        assert all(name.fullmatch(n) and unit.fullmatch(u)
                   for n, u in listed.items())
        assert all(m["better"] in ("lower", "higher")
                   for m in contract[section])
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    all_names = [w["name"] for w in contract["workloads"]] + \
        [m["name"] for s in ("end_to_end", "per_layer") for m in contract[s]]
    assert len(all_names) == len(set(all_names))


@pytest.fixture
def quick(monkeypatch):
    """Fewer rounds and no calibration work, so the smoke runs stay short."""
    monkeypatch.setattr(inputs, "STORE_ROUNDS", 10)
    monkeypatch.setattr(speed, "kernel", lambda: speed.REFERENCE_S)


@pytest.mark.parametrize("workload", ["xmark-cold", "xmark-prepared"])
def test_xmark_workloads_run_and_check(workload, quick):
    outcome = wl_xmark.run(Config(workload, seed=5, seconds=0.0, smoke=True))
    assert set(outcome.metrics) == set(END_TO_END)
    assert outcome.failed == 0 and outcome.attempted >= 20 + inputs.PASS_ROUNDS
    assert all(value > 0 for value, _, _ in outcome.metrics.values())


def test_store_update_runs_and_checks(quick):
    outcome = wl_store.run(
        Config("store-update", seed=5, seconds=0.0, smoke=True))
    assert set(outcome.metrics) == set(END_TO_END)
    assert outcome.failed == 0
    assert outcome.info["updates"] == inputs.STORE_ROUNDS
    assert all(value > 0 for value, _, _ in outcome.metrics.values())


def test_store_update_counts_a_wrong_read_as_failed():
    log = rounds.RoundLog(
        update_seconds=[0.01], applied_ok=[True],
        reads=[(0, "Q1", 0.02, "right"), (0, "Q2", 0.03, "wrong"),
               (0, "Q5", 0.04, None)])
    references = {(0, "Q1"): oracle.sha("right"), (0, "Q2"): oracle.sha("x"),
                  (0, "Q5"): oracle.sha("")}
    samples = Samples()
    wl_store.fold(log, 0.5, references, samples)
    assert (samples.attempted, samples.failed, samples.batch_ok) == (4, 2, [2])
    assert samples.batches == [[0.005, 0.01, 0.015, 0.02]]
    assert samples.updates == [0.005]
    assert samples.reads_after_update == [0.01, 0.015, 0.02]


def test_corrupted_reference_counts_as_failed():
    outputs = [("Q1", "Ada", 0), ("Q5", "7", 0), ("Q6", None, 0)]
    expected = {"Q1": oracle.sha("Ada"), "Q5": oracle.sha("7"),
                "Q6": oracle.sha("")}
    samples = Samples()
    wl_xmark.check(outputs, expected, samples)
    assert (samples.attempted, samples.failed, samples.batch_ok) == (3, 1, [2])
    expected["Q5"] = expected["Q5"][::-1]
    samples = Samples()
    wl_xmark.check(outputs, expected, samples)
    assert samples.failed == 2 and samples.failed / samples.attempted > 0
