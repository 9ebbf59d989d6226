"""``python -m perf run``: one workload in this process, or all five —
each in its own child process — untraced and traced, with one result
record written at the end."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

from perf import OUT_DIR, ROOT
from perf.common import Config, Outcome
from perf.metrics import END_TO_END, PER_LAYER, WORKLOADS

RECORD_PREFIX = "record: "


def run_workload(cfg: Config) -> Outcome:
    if cfg.trace:
        from perf import layers

        return layers.run(cfg)
    if cfg.workload.startswith("xmark-"):
        from perf import wl_xmark as module
    elif cfg.workload.startswith("serve-"):
        from perf import wl_serve as module
    else:
        from perf import wl_store as module
    return module.run(cfg)


def print_report(cfg: Config, outcome: Outcome) -> None:
    print(f"== {cfg.workload}  seed {cfg.seed}  {cfg.seconds:g} s  "
          f"trace {'on' if cfg.trace else 'off'} ==")
    print("  " + ", ".join(f"{k}: {v}" for k, v in outcome.info.items()))
    for name, (value, unit, n) in outcome.metrics.items():
        if n:
            print(f"  {name:<44} {value:>14.4f} {unit:<6} (n={n})")
        else:
            print(f"  {name:<44} {'-':>14} {unit:<6} "
                  "(not measured on this workload; reads 0)")
    for name, (value, unit) in sorted(outcome.extras.items()):
        print(f"  [extra] {name:<36} {value:>14.4f} {unit}")
    share = outcome.failed / outcome.attempted
    print(f"  failed_share {share:.6f} "
          f"({outcome.failed} of {outcome.attempted} operations)")


def contract_line(cfg: Config, outcome: Outcome) -> str:
    """The last line of standard output the driver reads."""
    declared = PER_LAYER if cfg.trace else END_TO_END
    missing = set(declared) - set(outcome.metrics)
    if missing or set(outcome.metrics) - set(declared):
        raise RuntimeError(f"metrics differ from the declared set: {missing}")
    return json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _n) in outcome.metrics.items()
        },
    })


def run_one(cfg: Config, emit_record: bool) -> int:
    outcome = run_workload(cfg)
    print_report(cfg, outcome)
    if emit_record:
        print(RECORD_PREFIX + json.dumps({
            "workload": cfg.workload, "seed": cfg.seed, "trace": cfg.trace,
            "info": outcome.info,
            "extras": {k: {"value": v, "unit": u}
                       for k, (v, u) in outcome.extras.items()},
        }))
    print(contract_line(cfg, outcome))
    return 0


# ------------------------------------------------------------ all workloads
def git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a child process, echoing its report; returns
    its record merged with its contract line."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "perf", "run", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--emit-record"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    lines = []
    try:
        for line in proc.stdout:
            lines.append(line.rstrip("\n"))
            if not line.startswith(("{", RECORD_PREFIX)):
                print(line, end="", flush=True)
        proc.wait()
    except BaseException:
        # the child cleans up after itself (servers, temp stores) on
        # SIGINT; give it the chance before this process goes away
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} exited with code {proc.returncode}")
    record = next(
        json.loads(l[len(RECORD_PREFIX):])
        for l in lines if l.startswith(RECORD_PREFIX))
    record.update(json.loads(lines[-1]))
    return record


def run_all(seed: int, seconds: float, traces: list[int], repeat: int,
            out: str | None) -> int:
    started = time.time()
    runs = []
    for i in range(repeat):
        for trace in traces:
            for workload in WORKLOADS:
                runs.append(run_child(workload, seed + i, seconds, trace))
    print_derived(runs)
    record = {
        "git_sha": git_sha(),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
        "started_unix": started,
        "wall_seconds": time.time() - started,
        "runs": runs,
        "claim": None,
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = out or str(OUT_DIR / f"result-seed{seed}-{int(started)}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    failed = sum(r["failed"] for r in runs)
    print(f"\nresult record: {path}  "
          f"({len(runs)} runs, {failed} failed operations)")
    return 0 if failed == 0 else 1


def print_derived(runs: list[dict]) -> None:
    """The one number that needs two workloads: the router hop."""
    p50 = {
        run["workload"]: run["metrics"]["latency_p50_ms"]["value"]
        for run in runs if not run["trace"]
    }
    if "serve-single" in p50 and "serve-cluster" in p50:
        single, cluster = p50["serve-single"], p50["serve-cluster"]
        print("\n== derived across workloads ==")
        print(f"  server.router.hop_ms     {cluster - single:10.4f} ms "
              f"(serve-cluster p50 {cluster:.4f} - serve-single p50 {single:.4f})")
