"""qmlrob benchmark: run one workload for a fixed time and print its metrics.

    python3 qrbench/run.py --workload noisy_train --seed 1 --seconds 40 --trace 0
    python3 qrbench/run.py --workload all --seed 1
    python3 qrbench/run.py --compare BASE_DIR NEW_DIR

A run repeats rounds until the next one would end after ``--seconds``. A
round is one fresh ``python3`` process (``child.py``) that loads the
workload's YAML config and hands it to ``qmlrob.cli.main`` with the seed.
After the rounds, the run checks the outputs of its first round against the
reference simulator and other computations made apart from qmlrob.

With ``--trace 0`` every round is untraced and the run reports the
end-to-end metrics as medians over its rounds. With ``--trace 1`` it
alternates untraced and traced rounds and reports the per-layer metrics
from the traced ones. The last line of standard output is one JSON object;
the whole record of the run goes to ``.qrbench_runs/<run>/result.json``,
which ``--compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".qrbench_runs"
BLAS_THREADS = 1
# A run must end within 180 s; rounds stop being started after this, and a
# round still running then is killed.
ROUND_DEADLINE_S = 140.0

E2E_UNITS = {"setup_s": "s", "run_s": "s", "train_samples_per_s": "samples/s", "peak_rss_mb": "MB"}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


@dataclass
class Round:
    index: int
    traced: bool
    wall_s: float
    rc: int
    rss_mb: float
    report: dict | None  # child.py's report.json
    out: Path  # the CLI's output directory

    @property
    def ok(self) -> bool:
        return self.rc == 0 and self.report is not None and self.report["rc"] == 0


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_round(run_dir: Path, index: int, command: str, seed: int, traced: bool,
              capture: bool, spans: bool, deadline: float) -> Round:
    rdir = run_dir / f"round{index:02d}"
    rdir.mkdir(parents=True)
    argv = [sys.executable, str(HERE / "child.py"), "--config", str(run_dir / "config.yaml"),
            "--command", command, "--seed", str(seed), "--out", str(rdir / "out"),
            "--report", str(rdir / "report.json")]
    if traced:
        argv.append("--trace")
    if spans:
        argv += ["--spans", str(rdir / "spans.npz")]
    if capture:
        argv += ["--capture", str(rdir / "capture")]
    t0 = time.monotonic()
    proc = subprocess.Popen(argv + ["--t0", repr(t0)], env=_child_env(), stdout=subprocess.DEVNULL)
    killer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.monotonic() - t0
    report_path = rdir / "report.json"
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    # ru_maxrss is in KiB on Linux.
    return Round(index, traced, wall, proc.returncode, usage.ru_maxrss / 1024.0, report, rdir / "out")


def _median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(rounds: list[Round]) -> dict:
    done = [r for r in rounds if r.ok and not r.traced]
    return {
        "setup_s": _median([r.report["setup_s"] for r in done]),
        "run_s": _median([r.report["run_s"] for r in done]),
        "train_samples_per_s": _median([r.report["train_visits"] / r.report["train_s"] for r in done]),
        "peak_rss_mb": _median([r.rss_mb for r in done]),
    }


def per_layer(rounds: list[Round]) -> dict:
    import spans

    traced = [r for r in rounds if r.ok and r.traced]
    values = [spans.layer_values(r.report["trace"]) for r in traced]
    out = {}
    for name in values[0]:
        vals = [v[name] for v in values]
        out[name] = _median(vals) if _layer_unit(name) == "s" else vals[0]
    out["bench.trace_overhead_s"] = (
        _median([r.report["run_s"] for r in traced]) - end_to_end(rounds)["run_s"]
    )
    return out


def self_time_shares(rounds: list[Round]) -> dict:
    """Median share of traced run time spent in each span name itself."""
    traced = [r for r in rounds if r.ok and r.traced]
    shares = {}
    for r in traced:
        run_s = r.report["run_s"]
        for name, s in r.report["trace"]["spans"].items():
            shares.setdefault(name, []).append(s["self_s"] / run_s)
        shares.setdefault("(outside spans)", []).append(r.report["trace"]["outside_spans_s"] / run_s)
    return {k: _median(v) for k, v in sorted(shares.items(), key=lambda kv: -_median(kv[1]))}


def run_checks(workload: str, config: dict, seed: int, rounds: list[Round]) -> list[tuple[str, bool, str]]:
    """Every check is one operation: (name, passed, detail)."""
    import checks
    import refsim
    import spans

    results = []

    def attempt(name, fn, *args):
        try:
            results.append((name, bool(fn(*args)), ""))
        except Exception as exc:  # a crashed check is a failed operation, reported
            results.append((name, False, f"{type(exc).__name__}: {exc}"))

    for name, fn in refsim.SELF_CHECKS.items():
        attempt(name, fn)
    done = [r for r in rounds if r.ok]
    tables = [(r.out / "table.tsv").read_bytes() for r in done]
    attempt("table_identical_in_every_round", lambda: len(tables) == len(rounds) and len(set(tables)) == 1)
    traced = [
        {k: v for k, v in spans.layer_values(r.report["trace"]).items() if _layer_unit(k) != "s"}
        for r in done if r.traced
    ]
    if len(traced) > 1:
        attempt("trace_counts_repeat", lambda: all(c == traced[0] for c in traced))
    first = rounds[0]
    for fn in checks.CHECKS[workload]:
        attempt(fn.__name__, lambda fn=fn: first.ok and fn(
            checks.Evidence(config, seed, first.out, first.out.parent / "capture")))
    return results


def measure(args) -> int:
    from workloads import WORKLOADS

    if not (SRC / "qmlrob" / "__init__.py").is_file():
        print(f"error: no qmlrob sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import yaml

    command, config, phases = WORKLOADS[args.workload]
    run_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    (run_dir / "config.yaml").write_text(yaml.safe_dump(config))

    # Compile qmlrob's bytecode once, as any first use would, before timing.
    subprocess.run([sys.executable, "-c", "import qmlrob.cli"], env=_child_env(), check=True)

    start = time.monotonic()
    deadline = start + ROUND_DEADLINE_S
    rounds: list[Round] = []
    unit = 2 if args.trace else 1  # a traced run measures untraced/traced pairs
    while True:
        t_unit = time.monotonic()
        for _ in range(unit):
            i = len(rounds)
            traced = bool(args.trace) and i % 2 == 1
            rounds.append(run_round(run_dir, i, command, args.seed, traced, capture=i == 0,
                                    spans=traced and i == 1, deadline=deadline))
        now = time.monotonic()
        if now + (now - t_unit) > min(start + args.seconds, deadline):
            break

    attempted = len(phases) * len(rounds)
    failed = 0
    for r in rounds:
        done = [p for p, _ in r.report["phases"]] if r.report else []
        failed += sum(max(0, phases.count(p) - done.count(p)) for p in set(phases))
    results = run_checks(args.workload, config, args.seed, rounds)
    attempted += len(results)
    failed += sum(1 for _, ok, _ in results if not ok)
    correct = all(ok for _, ok, _ in results)

    if not {False, bool(args.trace)} <= {r.traced for r in rounds if r.ok}:
        print(f"error: no {'traced ' if args.trace else ''}round ran to its end; see {run_dir}",
              file=sys.stderr)
        return 1
    if args.trace:
        values, units = per_layer(rounds), None
    else:
        values, units = end_to_end(rounds), E2E_UNITS
    metrics = {
        k: {"value": v, "unit": units[k] if units else _layer_unit(k)} for k, v in values.items()
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
        "checks": results,
        "rounds": [{"index": r.index, "traced": r.traced, "wall_s": r.wall_s, "rc": r.rc,
                    "peak_rss_mb": r.rss_mb, "report": r.report} for r in rounds],
        "machine": {"nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
                    "python": sys.version.split()[0]},
    }
    if args.trace:
        record["self_time_shares"] = self_time_shares(rounds)
    (run_dir / "result.json").write_text(json.dumps(record, indent=1))

    for name, ok, detail in results:
        if not ok:
            print(f"check failed: {name} {detail}".rstrip())
    if args.trace:
        for name, share in record["self_time_shares"].items():
            if share >= 0.0005:
                print(f"self time {share:7.2%}  {name}")
    print(f"qrbench: workload={args.workload} seed={args.seed} rounds={len(rounds)} "
          f"blas_threads={BLAS_THREADS} nproc={os.cpu_count()} "
          f"result={run_dir.relative_to(ROOT) / 'result.json'}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="a workload name, or 'all' to run each in turn")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                   help="compare two sets of result.json files (directories or files)")
    args = p.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare)
    if not args.workload:
        p.error("--workload is required")
    if args.workload == "all":
        from workloads import WORKLOADS

        return max(measure(argparse.Namespace(**{**vars(args), "workload": w})) for w in WORKLOADS)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
