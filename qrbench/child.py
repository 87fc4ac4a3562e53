"""One benchmark round: a fresh interpreter loads a workload config, hands it
to ``qmlrob.cli.main`` with the seed as ``--seed``, and writes its timings
as JSON to ``--report``.

``run.py`` starts this script with ``PYTHONPATH`` set to the checkout's
``src`` and passes ``--t0``, its ``time.monotonic()`` just before the start,
so that set-up time covers the interpreter's start-up. ``CLOCK_MONOTONIC``
is one clock for every process on the machine.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--config", required=True)
    p.add_argument("--command", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--trace", action="store_true", help="record spans and counts")
    p.add_argument("--spans", default=None, help="also write every span to this .npz")
    p.add_argument("--capture", default=None, help="save inputs and outputs here for the checks")
    return p.parse_args(argv)


class Phases:
    """Times each call the runner makes into a phase function, and keeps
    what the checks need from it. Installed in every round, traced or not,
    so all rounds run the same code."""

    def __init__(self):
        self.done: list[tuple[str, float]] = []
        self.train_s = 0.0
        self.train_visits = 0
        self.data = None
        self.models: list[tuple[str, object]] = []
        self.records = None
        self.weight_history = None
        self.adversarial = None

    def install(self):
        from qmlrob import attacks, bench, defense, training

        table = [
            (bench, "_prepare_data", "prepare"),
            (training, "fit", "fit"),
            (defense, "defended_train", "defend"),
            (training, "evaluate", "evaluate"),
            (attacks, "label_flip", "poison"),
            (attacks, "quid_poison", "poison"),
            (attacks, "fgsm", "evade"),
            (attacks, "pgd", "evade"),
            (attacks, "poison_success_rate", "success_rate"),
            (attacks, "attack_success_rate", "success_rate"),
            (bench, "emit_report", "report"),
        ]
        for module, attr, phase in table:
            setattr(module, attr, self._wrap(getattr(module, attr), phase))

    def _wrap(self, fn, phase):
        def wrapper(*args, **kwargs):
            t = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t
            self.done.append((phase, dt))
            self._keep(phase, dt, args, out)
            return out

        return wrapper

    def _keep(self, phase, dt, args, out):
        if phase in ("fit", "defend"):
            # fit(model, train_ds, config, ...) and
            # defended_train(model, dataset, train_config, ...).
            self.train_s += dt
            self.train_visits += args[2].epochs * len(args[1])
            if phase == "defend":
                condition = "defended"
            else:
                condition = "attacked" if any(c == "baseline" for c, _ in self.models) else "baseline"
            self.models.append((condition, out[0]))
            if phase == "defend":
                self.weight_history = out[1]
        elif phase == "prepare":
            self.data = out
        elif phase == "poison":
            self.records = out[1]
        elif phase == "evade":
            self.adversarial = out

    def save(self, directory: Path, seed: int) -> None:
        import numpy as np
        from qmlrob import models

        directory.mkdir(parents=True, exist_ok=True)
        train, test, bounds = self.data
        arrays = {
            "train_x": train.features, "train_y": train.labels,
            "test_x": test.features, "test_y": test.labels,
            "bounds": np.array(bounds, dtype=float),
        }
        if self.records is not None:
            arrays["records"] = np.array(
                [(r.index, r.original_label, r.poisoned_label) for r in self.records], dtype=int
            ).reshape(-1, 3)
        if self.weight_history is not None:
            arrays["weight_history"] = self.weight_history
        if self.adversarial is not None:
            arrays["adversarial"] = self.adversarial
        np.savez(directory / "capture.npz", **arrays)
        for condition, model in self.models:
            models.save_model(directory / f"model_{condition}.npz", model, seed)


def main(argv=None) -> int:
    args = _parse(argv)
    import yaml
    from qmlrob import bench, cli

    with open(args.config) as fh:
        bench.parse_config(yaml.safe_load(fh))
    t_setup = time.monotonic()

    phases = Phases()
    phases.install()
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    rc = cli.main(
        [args.command, "--config", args.config, "--seed", str(args.seed), "--out", args.out]
    )
    t_end = time.monotonic()

    report = {
        "rc": rc,
        "setup_s": t_setup - args.t0,
        "run_s": t_end - t_setup,
        "phases": phases.done,
        "train_s": phases.train_s,
        "train_visits": phases.train_visits,
    }
    if tracer is not None:
        report["trace"] = tracer.summary(t_end - t_setup)
        if args.spans:
            tracer.write(args.spans)
    if args.capture and rc == 0:
        phases.save(Path(args.capture), args.seed)
    Path(args.report).write_text(json.dumps(report))
    return rc


if __name__ == "__main__":
    sys.exit(main())
