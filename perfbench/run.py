"""Benchmark of the unisecant package: four seeded workloads, one closed-loop client.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload bezout_pairs --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --write-reference

``--trace 0`` reports the end-to-end metrics: set-up time (median of several
cold starts, each a fresh interpreter through the first result), then
throughput, median and tail latency, CPU per operation and peak memory of a
closed loop (one operation at a time, no threads).  ``--trace 1`` runs the
same rounds untraced and then traced, and reports the per-layer metrics.
The last line of standard output is the JSON result of the workload.

A run has a fixed number of whole rounds of inputs (see worker.rounds_for).
Every operation is checked against what its input's construction
guarantees; round 0 is a seed-independent reference round whose outputs
digest is pinned (``perfbench/reference.json``, rewritten by
``--write-reference`` when an output change is intended).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

sys.path.insert(0, HERE)
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_CHILDREN = 2          # plus the measuring worker's own cold start
RUN_BUDGET_S = 170.0        # hard limit on one invocation


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: str, seconds: float, mode: str,
          budget: float) -> tuple[dict, float | None]:
    """Run one worker to completion; returns (summary, seconds to first result)."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", seed,
           "--seconds", str(seconds), "--mode", mode]
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(budget, proc.kill)
    watchdog.start()
    first = None
    summary = None
    try:
        for line in proc.stdout:
            event = json.loads(line)
            if event["event"] == "first_result" and first is None:
                first = time.perf_counter() - t0
                if not event["ok"]:
                    raise WorkerError(f"{workload}: first result of a cold start is wrong")
            elif event["event"] == "done":
                summary = event
    except BaseException:
        proc.kill()
        raise
    finally:
        watchdog.cancel()
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or (summary is None and mode != "setup"):
        raise WorkerError(f"{workload} {mode} worker exited with code {code}")
    return summary or {}, first


def measure(workload: str, seed: str, seconds: float, deadline: float) -> dict:
    setup = []
    for _ in range(SETUP_CHILDREN):
        _, first = spawn(workload, seed, seconds, "setup", deadline - time.monotonic())
        setup.append(first)
    summary, first = spawn(workload, seed, seconds, "measure", deadline - time.monotonic())
    setup.append(first)
    metrics, facts = stats.end_to_end(summary["latencies"], summary["cpu"],
                                      summary["peak_rss_kb"], setup,
                                      summary["attempted"], summary["failed"])
    return {"summary": summary, "metrics": metrics, "facts": facts}


def trace(workload: str, seed: str, seconds: float, deadline: float) -> dict:
    summary, _ = spawn(workload, seed, seconds, "trace", deadline - time.monotonic())
    names = tracing.metric_names()
    raw = summary["metrics"]
    metrics = {n: (raw[n], unit) for n, (unit, _) in names.items()}
    facts = {"spans_file": os.path.relpath(summary["spans_file"], ROOT),
             "missing_spans": summary["missing_spans"],
             "error_rate": summary["failed"] / summary["attempted"]}
    return {"summary": summary, "metrics": metrics, "facts": facts}


def report(workload: str, seed: str, result: dict) -> dict:
    """Print the human-readable lines; return the JSON result object."""
    s, facts = result["summary"], result["facts"]
    correct = s["failed"] == 0 and all(s["checks"].values())
    print(f"== {workload} seed={seed} rounds={s['rounds']} attempted={s['attempted']} "
          f"failed={s['failed']} error_rate={facts['error_rate']:g} correct={correct}")
    for name, (value, unit) in result["metrics"].items():
        print(f"   {name:58s} {value:>16.6g} {unit}")
    for key, value in facts.items():
        if key != "error_rate":
            print(f"   {key} = {value}")
    print(f"   checks = {s['checks']}")
    print(f"   inputs_digest = {s['inputs_digest']}")
    print(f"   outputs_digest = {s['outputs_digest']}")
    for failure in s["failures"]:
        print(f"   FAILED {failure}")
    return {"correct": correct, "attempted": s["attempted"], "failed": s["failed"],
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in result["metrics"].items()}}


def write_reference() -> int:
    digests = {}
    for name in wl.WORKLOADS:
        summary, _ = spawn(name, wl.REFERENCE_SEED, 0, "reference", RUN_BUDGET_S)
        if not summary["ok"]:
            print(f"{name}: the reference round fails its checks", file=sys.stderr)
            return 1
        digests[name] = summary["reference_digest"]
        print(f"{name} {digests[name]}")
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2)
        fh.write("\n")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS) + ["all"])
    ap.add_argument("--seed", default="1")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    a = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "unisecant", "__init__.py")):
        print(f"error: the package sources are missing ({SRC}/unisecant); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    if a.write_reference:
        return write_reference()
    if a.workload is None:
        ap.error("--workload is required")

    names = sorted(wl.WORKLOADS) if a.workload == "all" else [a.workload]
    deadline = time.monotonic() + RUN_BUDGET_S * len(names)
    results = []
    for name in names:
        try:
            result = (trace if a.trace else measure)(name, a.seed, a.seconds, deadline)
        except WorkerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        results.append(report(name, a.seed, result))
    for res in results:
        print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
