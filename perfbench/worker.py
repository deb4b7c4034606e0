"""One workload process of the benchmark (started by run.py, one at a time).

A run executes a fixed number of whole rounds (``rounds_for``): round 0 is
the seed-independent reference round, whose outputs digest is pinned in
``reference.json``, and the other rounds are drawn from ``--seed``.

Modes:

* ``setup``: fresh interpreter -> the run's inputs -> first operation;
  reports the first result and exits (run.py times it from the outside).
* ``measure``: as ``setup``, then the closed loop over all rounds.
* ``trace``: the rounds of a half-length run untraced, then the same rounds
  again with spans recorded.
* ``reference``: prints the outputs digest of the reference round.

Each mode writes JSON lines to stdout; the last one is the summary.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import stats
import workloads as wl

# Fewest rounds in a run, so that even cli_cold (13 slow children per round)
# has a tail percentile with at least 10 operations beyond it.
MIN_ROUNDS = 3
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")            # spans and CLI working directories
REFERENCE_FILE = os.path.join(HERE, "reference.json")


class OpTimeout(BaseException):
    """The per-operation deadline passed (a BaseException, so no handler in
    the package can swallow it)."""


def _alarm(signum, frame):
    raise OpTimeout()


def emit(event: str, **payload) -> None:
    sys.stdout.write(json.dumps({"event": event, **payload}) + "\n")
    sys.stdout.flush()


def cpu_seconds(who) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


class Runner:
    """Executes and checks operations of one workload, keeping the tallies."""

    def __init__(self, workload, in_process_cli: bool = False, on_first=None):
        self.w = workload
        self.in_process_cli = in_process_cli
        # cli_cold operations are child processes unless run in-process for tracing
        self.children = workload.name == "cli_cold" and not in_process_cli
        self.on_first = on_first    # called with the check of the first operation
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []
        self.cpu: list[float] = []

    def call(self, args):
        if self.in_process_cli:
            return self._cli_main(args)
        return self.w.run(args)

    def _cli_main(self, argv):
        """``cli.main(argv)`` in-process, in an empty working directory."""
        import unisecant.cli as cli

        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        tmp = tempfile.mkdtemp(prefix="op-", dir=self.w.workdir)
        try:
            os.chdir(tmp)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            os.chdir(cwd)
            shutil.rmtree(tmp, ignore_errors=True)
        return code, out.getvalue(), err.getvalue()

    def op(self, inp):
        """Run, time and check one operation; returns (ok, digest record)."""
        args = self.w.prepare(inp)
        who = resource.RUSAGE_CHILDREN if self.children else resource.RUSAGE_SELF
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        c0 = cpu_seconds(who)
        if not self.children:  # a child gets a subprocess timeout instead
            signal.setitimer(signal.ITIMER_REAL, self.w.deadline_s)
        t0 = time.perf_counter()
        try:
            result = self.call(args)
        except (Exception, OpTimeout) as exc:
            result = exc
        finally:
            elapsed = time.perf_counter() - t0
            if not self.children:
                signal.setitimer(signal.ITIMER_REAL, 0)
            if self.tracer is not None:
                self.tracer.op = None
        cpu = cpu_seconds(who) - c0
        ok, rec = self.w.check(inp, result)
        self.latencies.append(elapsed)
        self.cpu.append(cpu)
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"op {self.attempted}: {str(rec)[:300]}")
        if self.attempted == 1 and self.on_first:
            self.on_first(ok)
        return ok, rec

    def loop(self, rounds) -> list[str]:
        """Run whole rounds in order; returns the outputs digest of each round."""
        digests = []
        for rnd in rounds:
            d = stats.Digest()
            for inp in rnd:
                d.add(self.op(inp)[1])
            digests.append(d.hexdigest())
        return digests


def rounds_for(workload, seconds: float) -> int:
    """Rounds in a run of about ``seconds`` on the baseline host.

    A fixed function of the workload and ``--seconds``, never of how fast
    the code under test runs: the sample count, the tail percentile and the
    input mix are then the same on every commit.
    """
    return max(MIN_ROUNDS, round(seconds / workload.round_s))


def run_inputs(workload, seed, count: int) -> list[list]:
    """Round 0 is the reference round; rounds 1 .. count-1 come from ``seed``."""
    return (wl.make_rounds(workload, wl.REFERENCE_SEED, 1)
            + wl.make_rounds(workload, seed, count - 1))


def reference_digests() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def import_times(src: str, samples: int = 3) -> tuple[float, float]:
    """Median cold import times (ms) of sympy and of the package, from children."""
    code = ("import time; t0 = time.perf_counter(); import sympy; t1 = time.perf_counter(); "
            "import unisecant.cli; t2 = time.perf_counter(); "
            "print((t1 - t0) * 1e3, (t2 - t1) * 1e3)")
    sym, own = [], []
    for _ in range(samples):
        out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=60, check=True).stdout
        a, b = out.split()
        sym.append(float(a))
        own.append(float(b))
    return statistics.median(sym), statistics.median(own)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace", "reference"))
    a = ap.parse_args()

    signal.signal(signal.SIGALRM, _alarm)
    w = wl.WORKLOADS[a.workload]
    os.makedirs(OUT, exist_ok=True)
    if w.name == "cli_cold":
        w.open(OUT, SRC)
    try:
        return _run_mode(a, w)
    finally:
        if w.name == "cli_cold":
            w.close()


def _run_mode(a, w) -> int:
    seconds = a.seconds / 2 if a.mode == "trace" else a.seconds
    count = 1 if a.mode == "reference" else rounds_for(w, seconds)
    rounds = run_inputs(w, a.seed, count)   # input generation counts towards set-up
    inputs_digest = stats.digest_of(rounds[1:])
    first = (lambda ok: emit("first_result", ok=ok)) if a.mode in ("setup", "measure") else None
    runner = Runner(w, in_process_cli=(a.mode == "trace" and w.name == "cli_cold"),
                    on_first=first)

    if a.mode == "setup":
        runner.op(rounds[0][0])
        return 0
    if a.mode == "reference":
        (digest,) = runner.loop(rounds)
        emit("done", ok=runner.failed == 0, reference_digest=digest)
        return 0

    expected = reference_digests().get(w.name)
    if a.mode == "measure":
        digests = runner.loop(rounds)
        who = resource.RUSAGE_CHILDREN if w.name == "cli_cold" else resource.RUSAGE_SELF
        emit("done", checks={"reference_digest_matches": digests[0] == expected},
             attempted=runner.attempted, failed=runner.failed,
             failures=runner.failures, latencies=runner.latencies, cpu=runner.cpu,
             peak_rss_kb=resource.getrusage(who).ru_maxrss,
             inputs_digest=inputs_digest, outputs_digest=stats.digest_of(digests),
             rounds=len(digests))
        return 0

    # trace: the same whole rounds untraced, then traced.
    import tracing

    # sympy memoizes expressions; both phases start from an empty cache so the
    # second pass over the same inputs is not faster for that reason alone.
    from sympy.core.cache import clear_cache

    clear_cache()
    untraced_digests = runner.loop(rounds)
    untraced_busy = sum(runner.latencies)
    n_untraced = len(runner.latencies)
    tracer = tracing.Tracer()
    tracer.install()
    runner.tracer = tracer
    clear_cache()
    try:
        traced_digests = runner.loop(rounds)
    finally:
        tracer.uninstall()
    traced_busy = sum(runner.latencies) - untraced_busy
    n_traced = len(runner.latencies) - n_untraced
    spans_file = os.path.join(OUT, f"spans-{w.name}-{a.seed}.jsonl")
    tracer.write(spans_file)
    metrics = tracer.metrics()
    metrics["import.sympy_ms"], metrics["import.unisecant_ms"] = import_times(SRC)
    metrics["trace.untraced_ops_per_s"] = n_untraced / untraced_busy
    metrics["trace.traced_ops_per_s"] = n_traced / traced_busy
    metrics["trace.overhead"] = (traced_busy / n_traced) / (untraced_busy / n_untraced) - 1.0
    metrics["trace.spans"] = len(tracer.spans)
    missing = sorted(set(tracing.FIRES[w.name]) - tracer.fired())
    checks = {"reference_digest_matches": untraced_digests[0] == expected,
              "digests_equal": untraced_digests == traced_digests,
              "expected_spans_fired": not missing}
    emit("done", checks=checks, attempted=runner.attempted, failed=runner.failed,
         failures=runner.failures, missing_spans=missing, metrics=metrics, spans_file=spans_file,
         inputs_digest=inputs_digest, outputs_digest=stats.digest_of(untraced_digests),
         rounds=len(rounds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
