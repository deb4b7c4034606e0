"""Summarise two sets of benchmark runs: per-metric median and spread.

Usage:

    python3 perfbench/spread.py perfbench/results/alt-a.jsonl perfbench/results/alt-b.jsonl

Each input line is one run: ``{"w": workload, "s": seed, "res": <the JSON
result line of run.py>, "wall": seconds}``.  For every workload and
end-to-end metric of ``BENCHMARK.json`` this prints, per set, the median and
the spread (distance between the first and third quartile over the median,
as ``statistics.quantiles(values, n=4)`` gives them), and how much worse the
second median is than the first, as a share of the first.  ``!`` marks a
spread above the metric's bound (``setup_s`` exempt) or a second median
worse than the first by more than the bound.
"""

from __future__ import annotations

import collections
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict:
    runs = collections.defaultdict(lambda: collections.defaultdict(list))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            r = json.loads(line)
            for name, m in r["res"]["metrics"].items():
                runs[r["w"]][name].append(m["value"])
    return runs


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(first: str, second: str) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    a, b = load(first), load(second)
    flagged = 0
    for w in [x["name"] for x in spec["workloads"]]:
        if w not in a or w not in b:
            continue
        print(w)
        for m in spec["end_to_end"]:
            x, y = a[w][m["name"]], b[w][m["name"]]
            mx, my = statistics.median(x), statistics.median(y)
            worse = (my - mx) / mx if m["better"] == "lower" else (mx - my) / mx
            sx, sy = spread(x), spread(y)
            bad = worse > m["bound"] or (m["name"] != "setup_s" and max(sx, sy) > m["bound"])
            flagged += bad
            print(f"  {m['name']:14s} median {mx:10.4g} {my:10.4g}  spread {sx:.3f} {sy:.3f}"
                  f"  worse {worse:+.3f}  bound {m['bound']}{'  !' if bad else ''}")
    return 1 if flagged else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
