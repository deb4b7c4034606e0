"""End-to-end metrics of a run, the tail rule and output digests."""

from __future__ import annotations

import hashlib
import json
import statistics

# The tail percentile is the highest one with at least this many samples beyond it.
TAIL_BEYOND = 10


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest well-supported percentile.

    With n samples sorted ascending, the nearest-rank percentile p covers the
    first ceil(p n) samples; the highest p leaving at least ``TAIL_BEYOND``
    samples above its value is p = (n - 10) / n, read at index n - 11.  With
    fewer than 11 samples no percentile qualifies and the maximum is
    returned with 0 samples beyond.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    k = n - TAIL_BEYOND
    return ordered[k - 1], 100.0 * k / n, n - k


class Digest:
    """Running sha256 over canonical JSON records."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, record) -> None:
        self._h.update(json.dumps(record, sort_keys=True, separators=(",", ":")).encode())
        self._h.update(b"\n")

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def digest_of(records) -> str:
    d = Digest()
    for r in records:
        d.add(r)
    return d.hexdigest()


def end_to_end(latencies_s: list[float], cpu_s: list[float], peak_rss_kb: int,
               setup_s: list[float], attempted: int, failed: int) -> tuple[dict, dict]:
    """The end-to-end metrics of one run, plus the facts that qualify them."""
    value, pct, beyond = tail(latencies_s)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (len(latencies_s) / sum(latencies_s), "1/s"),
        "op_p50_ms": (1000.0 * statistics.median(latencies_s), "ms"),
        "op_tail_ms": (1000.0 * value, "ms"),
        "cpu_ms_per_op": (1000.0 * sum(cpu_s) / len(cpu_s), "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }
    facts = {
        "samples": len(latencies_s),
        "tail_percentile": round(pct, 2),
        "tail_beyond": beyond,
        "setup_samples": len(setup_s),
        "error_rate": failed / attempted if attempted else 1.0,
    }
    return metrics, facts
