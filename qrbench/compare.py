"""Compare two sets of benchmark results, one workload and metric at a time.

    python3 qrbench/run.py --compare BASE NEW

BASE and NEW are each a ``result.json`` or a directory searched for them
(the runs of the parent commit and of the change). Only untraced runs
count. Runs pair up by seed; seeds found on one side only are left out of
the pairs. For each end-to-end metric the report gives each side's median
and quartiles, the share of pairs the change won (ties count for neither)
and a verdict:

- improved: the change won at least 9 in 10 pairs, and the medians differ
  by more than the base runs' spread (third minus first quartile);
- no worse: the change's median is not worse than the base median by more
  than the metric's bound in BENCHMARK.json, and either both sides' spreads
  are within that bound or every change run beats every base run;
- unresolved: anything else, including a change that is worse.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(where: str) -> dict:
    """workload -> seed -> metric -> value, from untraced runs. A seed run
    more than once keeps its last result."""
    path = Path(where)
    files = sorted(path.rglob("result.json")) if path.is_dir() else [path]
    out: dict = {}
    for f in files:
        rec = json.loads(f.read_text())
        if rec["trace"] or not rec["correct"]:
            continue
        out.setdefault(rec["workload"], {})[rec["seed"]] = {
            k: v["value"] for k, v in rec["metrics"].items()
        }
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], new: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> tuple[str, float]:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    won = wins / len(pairs) if pairs else 0.0
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    if won >= 0.9 and sign * (nmed - bmed) > (bq3 - bq1):
        return "improved", won
    worse_by = -sign * (nmed - bmed) / abs(bmed)
    steady = (bq3 - bq1) <= bound * abs(bmed) and (nq3 - nq1) <= bound * abs(nmed)
    beats_all = all(sign * (n - b) > 0 for n in new for b in base)
    if worse_by <= bound and (steady or beats_all):
        return "no worse", won
    return "unresolved", won


def main(base_dir: str, new_dir: str) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(base_dir), load(new_dir)
    rows = [("workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "change", "won", "verdict")]
    for workload in sorted(set(base) & set(new)):
        seeds = sorted(set(base[workload]) & set(new[workload]))
        for m in spec["end_to_end"]:
            name = m["name"]
            b = [r[name] for r in base[workload].values()]
            n = [r[name] for r in new[workload].values()]
            pairs = [(base[workload][s][name], new[workload][s][name]) for s in seeds]
            v, won = verdict(b, n, pairs, m["better"], m["bound"])
            bq, nq = quartiles(b), quartiles(n)
            rows.append((
                workload, name,
                f"{bq[1]:.5g} [{bq[0]:.5g}, {bq[2]:.5g}]",
                f"{nq[1]:.5g} [{nq[0]:.5g}, {nq[2]:.5g}]",
                f"{(nq[1] - bq[1]) / abs(bq[1]):+.1%}",
                f"{won:.0%} of {len(pairs)}",
                f"{v} (runs {len(b)}/{len(n)})",
            ))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return 0
