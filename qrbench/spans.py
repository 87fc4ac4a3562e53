"""Tracing for the benchmark's traced rounds.

The tracer replaces, in the running process, the module attributes through
which one qmlrob module calls the next one down (``models`` -> ``sim``,
``training`` -> ``models``, ``bench`` -> ``training``/``attacks``/
``defense``, ...) with wrappers that record a span (name, start, end,
parent) and a few counts. Spans stay in memory in flat arrays and are
written once, when the round ends. Nothing under ``src/`` changes, and the
wrappers call straight through, so a traced round writes the same
``table.tsv`` as an untraced one.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.codes: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()

    def code(self, name: str) -> int:
        if name not in self.codes:
            self.codes[name] = len(self.names)
            self.names.append(name)
        return self.codes[name]

    def wrap(self, fn, name, count=None, pick=None):
        """``fn`` recording a span named ``name``. ``pick(parent_code, args,
        kwargs)``, when given, returns the span's name code per call;
        ``count(counts, code, args, kwargs, result)`` adds to the counts."""
        static = self.code(name) if name is not None else None
        names, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack
        counts, clock = self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            code = static if pick is None else pick(names[stack[-1]] if stack[-1] >= 0 else -1, args, kwargs)
            i = len(start)
            names.append(code)
            parent.append(stack[-1])
            start.append(clock())
            end.append(0.0)
            stack.append(i)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                end[i] = clock()
            if count is not None:
                count(counts, code, args, kwargs, out)
            return out

        return wrapper

    # -- results ------------------------------------------------------------

    def arrays(self):
        return (
            np.frombuffer(self.name, dtype=np.uint16).astype(np.int64),
            np.frombuffer(self.parent, dtype=np.int32).astype(np.int64),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def summary(self, run_s: float) -> dict:
        """Per span name: calls, inclusive and self seconds; counts; and the
        number of calls of each name under each direct parent name."""
        name, parent, start, end = self.arrays()
        dur = end - start
        k = len(self.names)
        child = np.bincount(parent + 1, weights=dur, minlength=len(dur) + 1)[1:]
        self_s = dur - child
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_s, minlength=k)
        top = float(dur[parent < 0].sum())
        pname = np.where(parent >= 0, name[np.maximum(parent, 0)], k)
        pairs = Counter()
        for (p, c), v in Counter(zip(pname.tolist(), name.tolist())).items():
            pairs[f"{self.names[p] if p < k else '<run>'} > {self.names[c]}"] = v
        return {
            "spans": {
                n: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(own[i])}
                for i, n in enumerate(self.names)
            },
            "outside_spans_s": run_s - top,
            "counts": {f"{self.names[c]}{field}": v for (c, field), v in self.counts.items()},
            "calls_by_parent": dict(pairs),
        }

    def write(self, path) -> None:
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent, start=start, end=end)


def _samples(counts, code, args, kwargs, out):
    counts[(code, "_samples")] += len(args[1])


def _io_bytes(counts, code, args, kwargs, out):
    counts[(code, "_bytes")] += args[0].nbytes + out.nbytes


def _anneal_trials(counts, code, args, kwargs, out):
    losses, config = args[0], args[1]
    counts[(code, "_flip_trials")] += config.sweeps * len(losses)


def install(tracer: Tracer) -> None:
    """Wrap qmlrob's layer boundaries. Call before the run starts."""
    from qmlrob import attacks, bench, defense, encoding, models, sim, training

    sv, dm = tracer.code("sim.sv_kernel"), tracer.code("sim.dm_kernel")
    dm_gate = tracer.code("models.dm_gate")
    pure, mixed = tracer.code("models.forward_pure"), tracer.code("models.forward_mixed")

    def kernel(parent_code, args, kwargs):
        # Kernels called straight from a density-matrix gate pass act on rho.
        return dm if parent_code == dm_gate else sv

    def forward_mode(parent_code, args, kwargs):
        mode = args[2] if len(args) > 2 else kwargs.get("mode", "pure")
        return pure if mode == "pure" else mixed

    probes = [
        (sim, "apply_1q", None, _io_bytes, kernel),
        (sim, "apply_controlled_1q", None, _io_bytes, kernel),
        (sim, "apply_channel_entries", "sim.channel", _io_bytes, None),
        (models, "_apply_instr_dm", "models.dm_gate", None, None),
        (models, "forward_batch", None, _samples, forward_mode),
        (models, "_quantum_backward", "models.backward", _samples, None),
        (models, "spsa_grad", "models.spsa", None, None),
        (training, "train_epoch", "training.train_epoch", None, None),
        (training, "adam_step", "training.adam_step", None, None),
        (training, "evaluate", "training.evaluate", _samples, None),
        (training, "per_sample_losses", "training.loss_scan", None, None),
        (training, "fit", "training.fit", None, None),
        (defense, "defended_train", "defense.defended_train", None, None),
        (defense, "anneal_mask", "defense.anneal", _anneal_trials, None),
        (attacks, "label_flip", "attacks.poison", None, None),
        (attacks, "quid_poison", "attacks.poison", None, None),
        (attacks, "class_centroids", "attacks.centroids", None, None),
        (attacks, "fgsm", "attacks.evasion", None, None),
        (attacks, "pgd", "attacks.evasion", None, None),
        (attacks, "_input_grads", "attacks.evasion_grad", None, None),
        (attacks, "poison_success_rate", "attacks.success_rate", None, None),
        (attacks, "attack_success_rate", "attacks.success_rate", None, None),
        (attacks, "encode_state", "encoding.encode_state", None, None),
        (encoding, "encode_state", "encoding.encode_state", None, None),
        (bench, "_prepare_data", "bench.prepare", None, None),
        (bench, "emit_report", "bench.report", None, None),
    ]
    for module, attr, name, count, pick in probes:
        setattr(module, attr, tracer.wrap(getattr(module, attr), name, count, pick))


# Per-layer metric -> (span name, field). Field "calls", "incl_s" or a count
# suffix such as "_bytes".
LAYER_METRICS = {
    "sim.sv_kernel_calls": ("sim.sv_kernel", "calls"),
    "sim.sv_kernel_s": ("sim.sv_kernel", "incl_s"),
    "sim.sv_kernel_bytes": ("sim.sv_kernel", "_bytes"),
    "sim.dm_kernel_calls": ("sim.dm_kernel", "calls"),
    "sim.dm_kernel_s": ("sim.dm_kernel", "incl_s"),
    "sim.dm_kernel_bytes": ("sim.dm_kernel", "_bytes"),
    "sim.channel_calls": ("sim.channel", "calls"),
    "sim.channel_s": ("sim.channel", "incl_s"),
    "sim.channel_bytes": ("sim.channel", "_bytes"),
    "models.forward_pure_samples": ("models.forward_pure", "_samples"),
    "models.forward_pure_s": ("models.forward_pure", "incl_s"),
    "models.forward_mixed_samples": ("models.forward_mixed", "_samples"),
    "models.forward_mixed_s": ("models.forward_mixed", "incl_s"),
    "models.backward_samples": ("models.backward", "_samples"),
    "models.backward_s": ("models.backward", "incl_s"),
    "models.spsa_calls": ("models.spsa", "calls"),
    "models.spsa_s": ("models.spsa", "incl_s"),
    "training.train_s": ("training.train_epoch", "incl_s"),
    "training.adam_s": ("training.adam_step", "incl_s"),
    "training.eval_samples": ("training.evaluate", "_samples"),
    "training.eval_s": ("training.evaluate", "incl_s"),
    "training.loss_scan_s": ("training.loss_scan", "incl_s"),
    "attacks.poison_s": ("attacks.poison", "incl_s"),
    "attacks.centroid_s": ("attacks.centroids", "incl_s"),
    "attacks.evasion_s": ("attacks.evasion", "incl_s"),
    "attacks.evasion_grad_calls": ("attacks.evasion_grad", "calls"),
    "attacks.success_rate_s": ("attacks.success_rate", "incl_s"),
    "defense.anneal_calls": ("defense.anneal", "calls"),
    "defense.anneal_s": ("defense.anneal", "incl_s"),
    "defense.anneal_flip_trials": ("defense.anneal", "_flip_trials"),
    "encoding.encode_state_calls": ("encoding.encode_state", "calls"),
    "encoding.encode_state_s": ("encoding.encode_state", "incl_s"),
    "bench.prepare_s": ("bench.prepare", "incl_s"),
    "bench.report_s": ("bench.report", "incl_s"),
}


def layer_values(summary: dict) -> dict:
    """Per-layer metric values of one traced round (0 for layers it never
    entered), plus ``training.steps``: Adam steps plus SPSA steps."""
    spans, counts = summary["spans"], summary["counts"]
    out = {}
    for metric, (span, field) in LAYER_METRICS.items():
        if field.startswith("_"):
            out[metric] = counts.get(f"{span}{field}", 0)
        else:
            out[metric] = spans.get(span, {}).get(field, 0)
    out["training.steps"] = sum(
        spans.get(s, {}).get("calls", 0) for s in ("training.adam_step", "models.spsa")
    )
    return out
