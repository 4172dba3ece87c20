"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the lines ``run.py --out FILE`` appends. For every
workload and metric it prints both medians, their ratio, and whether
the new median is worse than the base by more than the metric's bound
in ``BENCHMARK.json``. Results whose labels differ are refused: a
different kernel backend is a different program (exit 2); a different
CPU count or Python version is refused too, since every number depends
on them.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

LABELS = ("kernel_backend", "cpu_count", "python")


def _load(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = (_load(path) for path in argv)
    labels = {tuple(r["labels"][k] for k in LABELS) for r in base + new}
    if len(labels) != 1:
        print(f"refusing to compare: results differ in {LABELS}: "
              f"{sorted(labels)}", file=sys.stderr)
        return 2
    spec_path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             os.pardir, "BENCHMARK.json")
    with open(spec_path) as handle:
        spec = json.load(handle)
    better = {m["name"]: m["better"] for m in
              spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    def medians(results):
        values = defaultdict(list)
        for r in results:
            for name, entry in r["metrics"].items():
                values[(r["workload"], r["trace"], name)].append(entry["value"])
        return {key: statistics.median(v) for key, v in values.items()}

    old, cur = medians(base), medians(new)
    worse_any = False
    for key in sorted(old.keys() & cur.keys()):
        workload, _trace, name = key
        a, b = old[key], cur[key]
        ratio = b / a if a else float("nan")
        verdict = ""
        if name in bounds and a:
            change = (b - a) / a if better[name] == "lower" else (a - b) / a
            if change > bounds[name]:
                verdict = f"WORSE by {change:.1%} (bound {bounds[name]:.0%})"
                worse_any = True
        print(f"{workload:13s} {name:26s} {a:14.6g} {b:14.6g} "
              f"{ratio:8.3f} {verdict}")
    return 1 if worse_any else 0


if __name__ == "__main__":
    sys.exit(main())
