"""Config-driven experiment runner: train baselines, run attacks and
defenses, and emit deterministic reports.

Every run is a pure function of (config, seed): the data, init, attack,
defense, and training RNG streams are independent children of the seed, so
identical configs reproduce byte-identical machine-readable tables.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
import time
import types
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import attacks as attacks_mod
from . import datasets as data_mod
from . import defense as defense_mod
from . import models as models_mod
from . import training as training_mod
from .attacks import AttackConfig
from .defense import QDetectConfig
from .encoding import EncodingSpec, check_features, feature_bounds, rescale
from .sim import KrausChannel, make_amplitude_damping, make_depolarizing
from .training import Metrics, TrainConfig

TOOL_VERSION = "qmlrob 0.1.0"

QMLP_SWEEP_LAYERS = (2, 5, 10, 50)


class ConfigError(ValueError):
    """Raised for invalid or unknown experiment-config content."""


@dataclass(frozen=True)
class DataConfig:
    kind: str  # blobs | mnist | csv
    n_classes: int = 4
    dim: int = 8
    per_class_train: int = 100
    per_class_test: int = 50
    spread: float = 0.3
    pca_dim: int | None = None
    image_path: str | None = None
    label_path: str | None = None
    csv_path: str | None = None

    def __post_init__(self):
        if self.kind not in ("blobs", "mnist", "csv"):
            raise ConfigError(f"unknown dataset kind {self.kind!r}")
        for key in ("dim", "per_class_train", "per_class_test", "pca_dim"):
            if getattr(self, key) is not None and getattr(self, key) < 1:
                raise ConfigError(f"data.{key} must be >= 1")
        if self.n_classes < 2:
            raise ConfigError("data.n_classes must be >= 2")
        for key in {"csv": ("csv_path",), "mnist": ("image_path", "label_path")}.get(self.kind, ()):
            if getattr(self, key) is None:
                raise ConfigError(f"data.kind {self.kind} needs data.{key}")


@dataclass(frozen=True)
class ModelSpecConfig:
    kind: str  # qmlp | qnn | cmlp
    encoding: str = "angle"  # qmlp only: angle | amplitude
    layers: int = 2
    n_qubits: int = 4
    hidden_dim: int = 64  # cmlp only
    input_range: tuple[float, float] | None = None  # defaults per model kind
    reupload: bool = True

    def __post_init__(self):
        if self.kind not in ("qmlp", "qnn", "cmlp"):
            raise ConfigError(f"unknown model kind {self.kind!r}")
        if self.kind == "qmlp" and self.encoding not in ("angle", "amplitude"):
            raise ConfigError(f"unknown qmlp encoding {self.encoding!r}")

    def resolved_range(self) -> tuple[float, float]:
        if self.input_range is not None:
            return self.input_range
        if self.kind == "qnn":
            return (-math.pi, math.pi)
        if self.kind == "qmlp" and self.encoding == "angle":
            return (0.0, math.pi)
        return (0.0, 1.0)


_CHANNELS = {"depolarizing": make_depolarizing, "amplitude_damping": make_amplitude_damping}


@dataclass(frozen=True)
class ModeConfig:
    kind: str = "pure"  # pure | mixed
    channels: tuple[tuple[str, float], ...] = ()  # (kind, p) pairs

    def __post_init__(self):
        if self.kind not in ("pure", "mixed"):
            raise ConfigError(f"unknown mode {self.kind!r}")
        if self.kind == "pure" and self.channels:
            raise ConfigError("pure mode takes no noise channels")
        for kind, p in self.channels:
            if kind not in _CHANNELS:
                raise ConfigError(f"unknown noise channel {kind!r}")
            if not 0.0 <= p <= 1.0:
                raise ConfigError("noise probability must be in [0, 1]")

    def build_channels(self) -> tuple[KrausChannel, ...]:
        return tuple(_CHANNELS[kind](p) for kind, p in self.channels)


@dataclass(frozen=True)
class ExperimentConfig:
    data: DataConfig
    model: ModelSpecConfig
    mode: ModeConfig = ModeConfig()
    attack: AttackConfig | None = None
    defense: QDetectConfig | None = None
    train: TrainConfig = TrainConfig()
    seeds: tuple[int, ...] = (0,)
    out_dir: str = "results"
    train_mode: str = "pure"  # evaluation noise by default does not retrain

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("seeds list must not be empty")
        if self.train_mode not in ("pure", "mixed"):
            raise ConfigError(f"unknown train_mode {self.train_mode!r}")
        if self.attack is not None:
            if self.attack.kind in ("fgsm", "pgd") and self.mode.kind == "mixed":
                raise ConfigError(
                    "gradient attacks are not supported in mixed mode"
                )
            if self.attack.kind == "quid" and self.model.kind == "cmlp":
                raise ConfigError("quid poisoning needs a quantum encoder")
        if self.defense is not None and (
            self.attack is None or not self.attack.is_poisoning
        ):
            raise ConfigError("the reweighting defense applies to poisoning attacks")


@dataclass
class ReportRow:
    seed: int
    model: str
    condition: str  # baseline | attacked | defended
    eval_mode: str  # pure | mixed
    metrics: Metrics
    relative_accuracy: float | None = None
    asr: float | None = None


@dataclass
class ExperimentReport:
    config_echo: dict
    config_hash: str
    tool_version: str
    rows: list[ReportRow]
    runtime_s: float


def relative_accuracy(acc_attack: float, acc_baseline: float) -> float:
    """Accuracy under attack over clean baseline accuracy (unrounded)."""
    if acc_baseline <= 0:
        raise ValueError("baseline accuracy must be positive")
    return acc_attack / acc_baseline


# ---------------------------------------------------------------------------
# Config parsing. The dataclasses above are the schema: a section's keys are
# its fields, a field without a default is required, and each value must fit
# the field's annotation. Kind and range checks live in ``__post_init__``.
# ---------------------------------------------------------------------------


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _as_float(name: str, value) -> float:
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer too large for a float
            pass
    raise ConfigError(f"{name} must be a finite number, got {value!r}")


def _parse_pair(name: str, raw) -> tuple[float, float]:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ConfigError(f"{name} must be a list of two numbers, got {raw!r}")
    return (_as_float(name, raw[0]), _as_float(name, raw[1]))


def _parse_channels(name: str, raw) -> tuple[tuple[str, float], ...]:
    if not isinstance(raw, (list, tuple)) or not all(
        isinstance(ch, dict) and set(ch) == {"kind", "p"} and isinstance(ch["kind"], str)
        for ch in raw
    ):
        raise ConfigError(f"{name} must be a list of {{kind, p}} mappings, got {raw!r}")
    return tuple((ch["kind"], _as_float(f"{name} p", ch["p"])) for ch in raw)


def _parse_seeds(name: str, raw) -> tuple[int, ...]:
    if not isinstance(raw, (list, tuple)) or not all(_is_int(s) for s in raw):
        raise ConfigError(f"{name} must be a list of integers, got {raw!r}")
    return tuple(int(s) for s in raw)


# Annotations whose values need more than a type check.
_PARSERS = {
    tuple[float, float]: _parse_pair,
    tuple[tuple[str, float], ...]: _parse_channels,
    tuple[int, ...]: _parse_seeds,
}
_SCALARS = {
    int: (_is_int, "an integer"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    str: (lambda v: isinstance(v, str), "a string"),
}


def _parse_value(annotation, value, name: str):
    if typing.get_origin(annotation) in (typing.Union, types.UnionType):  # X | None
        if value is None:
            return None
        (annotation,) = [a for a in typing.get_args(annotation) if a is not type(None)]
    if annotation in _PARSERS:
        return _PARSERS[annotation](name, value)
    if dataclasses.is_dataclass(annotation):
        return _parse_section(annotation, value, name)
    if annotation is float:
        _as_float(name, value)
        return value  # as given: an integer stays one in config_echo and config_hash
    accepts, what = _SCALARS[annotation]
    if not accepts(value):
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return value


def _parse_section(cls, raw, name: str):
    """``raw`` as a ``cls``, each value parsed by its field's annotation.
    ``name`` is the section's key in error messages, "" for the root."""
    where = f"section {name!r}" if name else "config"
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a mapping")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(raw) - set(fields), key=str)
    if unknown:
        raise ConfigError(
            f"unknown keys in {name!r}: {unknown}" if name else f"unknown top-level keys: {unknown}"
        )
    missing = [k for k, f in fields.items() if k not in raw and f.default is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"{where} requires {missing}")
    hints = typing.get_type_hints(cls)
    kwargs = {k: _parse_value(hints[k], v, f"{name}.{k}" if name else k) for k, v in raw.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:  # a kind or range check in __post_init__
        raise ConfigError(str(exc)) from exc


def parse_config(raw: dict) -> ExperimentConfig:
    """The experiment a YAML mapping describes. A top-level ``sweep`` is
    skipped: the CLI expands it into one config per cell."""
    if isinstance(raw, dict):
        raw = {k: v for k, v in raw.items() if k != "sweep"}
    return _parse_section(ExperimentConfig, raw, "")


def config_echo(config: ExperimentConfig) -> dict:
    def scrub(obj):
        if isinstance(obj, dict):
            return {k: scrub(v) for k, v in sorted(obj.items())}
        if isinstance(obj, (list, tuple)):
            return [scrub(v) for v in obj]
        return obj

    return scrub(dataclasses.asdict(config))


def config_hash(config: ExperimentConfig) -> str:
    echo = config_echo(config)
    echo.pop("out_dir", None)  # output location carries no experiment semantics
    blob = json.dumps(echo, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Pipeline pieces
# ---------------------------------------------------------------------------


def _load_raw_dataset(cfg: DataConfig, rng: np.random.Generator) -> data_mod.Dataset:
    if cfg.kind == "blobs":
        return data_mod.synth_blobs(
            cfg.n_classes, cfg.dim, cfg.per_class_train + cfg.per_class_test, cfg.spread, rng
        )
    if cfg.kind == "mnist":
        return data_mod.load_mnist_idx(cfg.image_path, cfg.label_path)
    return data_mod.load_csv_features(cfg.csv_path)


def _prepare_data(config: ExperimentConfig, rng: np.random.Generator):
    """Load, split, reduce, and rescale into the model's input range."""
    raw = _load_raw_dataset(config.data, rng)
    train, test = data_mod.stratified_sample(
        raw, config.data.per_class_train, config.data.per_class_test, rng
    )
    if config.data.pca_dim is not None:
        pca = data_mod.pca_fit(train.features, config.data.pca_dim)
        train_f = data_mod.pca_transform(pca, train.features)
        test_f = data_mod.pca_transform(pca, test.features)
    else:
        train_f, test_f = train.features, test.features
    bounds = feature_bounds(train_f)
    rng_range = config.model.resolved_range()
    train = data_mod.Dataset(rescale(train_f, bounds, rng_range), train.labels, "train")
    test = data_mod.Dataset(rescale(test_f, bounds, rng_range), test.labels, "test")
    return train, test, rng_range


def _check_features(config: ExperimentConfig, n_features: int) -> None:
    """Reject a model that cannot take the data's ``n_features``."""
    spec = config.model
    if spec.kind != "cmlp":
        try:
            check_features("dense_angle" if spec.kind == "qnn" else spec.encoding, spec.n_qubits, n_features)
        except ValueError as err:
            raise ConfigError(f"{spec.kind}: {err} from the data") from None


def _build_model(config: ExperimentConfig, n_features: int, n_classes: int, rng):
    spec = config.model
    if spec.kind == "cmlp":
        return models_mod.init_cmlp(
            models_mod.CmlpConfig(n_features, spec.hidden_dim, n_classes), rng
        )
    if spec.kind == "qnn":
        return models_mod.init_pqc6(
            models_mod.Pqc6Config(n_qubits=spec.n_qubits, n_classes=n_classes), rng
        )
    return models_mod.init_qmlp(
        models_mod.QmlpConfig(
            layers=spec.layers,
            encoding=_encoder_spec(config),
            n_classes=n_classes,
            n_qubits=spec.n_qubits,
            reupload=spec.reupload if spec.encoding == "angle" else False,
        ),
        rng,
    )


def _encoder_spec(config: ExperimentConfig) -> EncodingSpec:
    spec = config.model
    if spec.kind == "qnn":
        return EncodingSpec("dense_angle", spec.n_qubits, spec.resolved_range())
    if spec.kind == "qmlp":
        return EncodingSpec(spec.encoding, spec.n_qubits, spec.resolved_range())
    raise ConfigError("quid poisoning needs a quantum encoder")


def _eval_modes(config: ExperimentConfig):
    modes = [("pure", ())]
    if config.mode.kind == "mixed":
        modes.append(("mixed", config.mode.build_channels()))
    return modes


def _train_seeded(config, train_ds, init_seq, train_seed, log_path, defense_seed=None):
    """Build a model from the seed's init stream and train it with the seed's
    training stream, through the reweighting defense when given its seed.
    Returns (model, history): fit's per-epoch stats, or the defense's weights."""
    n_classes = config.data.n_classes
    model = _build_model(
        config, train_ds.features.shape[1], n_classes, np.random.default_rng(init_seq)
    )
    cfg = dataclasses.replace(config.train, seed=train_seed)
    train_noise = config.mode.build_channels() if config.train_mode == "mixed" else ()
    if defense_seed is None:
        return training_mod.fit(
            model, train_ds, cfg, config.train_mode, train_noise,
            log_path=log_path, n_classes=n_classes,
        )
    return defense_mod.defended_train(
        model, train_ds, cfg, dataclasses.replace(config.defense, seed=defense_seed),
        config.train_mode, train_noise, n_classes=n_classes, log_path=log_path,
    )


def _rows(config, seed, condition, model, test_ds, base_acc=None, asr=None,
          modes=None) -> list[ReportRow]:
    """Evaluate ``model`` on ``test_ds`` under each eval mode (default: the
    config's) and build its rows. Without ``base_acc`` the rows are baseline
    rows (relative accuracy 1.0, no ASR); otherwise the ASR cell is
    ``asr(model, mode, channels)``."""
    rows = []
    for mode_name, channels in modes or _eval_modes(config):
        m = training_mod.evaluate(model, test_ds, mode_name, channels)
        if base_acc is None:
            rel, rate = 1.0, None
        else:
            rel = relative_accuracy(m.accuracy, base_acc[mode_name])
            rate = asr(model, mode_name, channels)
        rows.append(ReportRow(seed, config.model.kind, condition, mode_name, m, rel, rate))
    return rows


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Train, attack, defend, and measure per seed; deterministic per seed."""
    t0 = time.perf_counter()
    rows: list[ReportRow] = []
    out = Path(config.out_dir)
    for seed in config.seeds:
        seed_dir = out / f"seed_{seed}"
        streams = np.random.SeedSequence(seed).spawn(5)
        data_rng = np.random.default_rng(streams[0])
        init_seq = streams[1]
        attack_rng = np.random.default_rng(streams[2])
        defense_seed = int(streams[3].generate_state(1)[0])
        train_seed = int(streams[4].generate_state(1)[0])

        # Shape errors surface before the run writes anything for the seed.
        train_ds, test_ds, rng_range = _prepare_data(config, data_rng)
        _check_features(config, train_ds.features.shape[1])
        seed_dir.mkdir(parents=True, exist_ok=True)
        n_classes = config.data.n_classes

        baseline, _ = _train_seeded(
            config, train_ds, init_seq, train_seed, seed_dir / "train_log.tsv"
        )
        base_rows = _rows(config, seed, "baseline", baseline, test_ds)
        rows += base_rows
        base_acc = {r.eval_mode: r.metrics.accuracy for r in base_rows}

        if config.attack is None:
            continue

        atk = config.attack
        if atk.is_poisoning:
            if atk.kind == "label_flip":
                poisoned, records = attacks_mod.label_flip(
                    train_ds, atk.ratio, n_classes, attack_rng
                )
            else:
                poisoned, records = attacks_mod.quid_poison(
                    train_ds, _encoder_spec(config), atk.ratio, attack_rng, atk.quid_variant
                )
            attacks_mod.write_poison_manifest(records, seed_dir / "poison_manifest.txt")

            def poison_asr(model, mode_name, channels):
                if not records:
                    return 0.0
                return attacks_mod.poison_success_rate(
                    model, train_ds.features, records, mode_name, channels
                )

            attacked, _ = _train_seeded(
                config, poisoned, init_seq, train_seed, seed_dir / "attacked_train_log.tsv"
            )
            rows += _rows(config, seed, "attacked", attacked, test_ds, base_acc, poison_asr)
            if config.defense is not None:
                defended, weight_history = _train_seeded(
                    config, poisoned, init_seq, train_seed,
                    seed_dir / "defended_train_log.tsv", defense_seed,
                )
                defense_mod.write_weight_history(
                    weight_history, seed_dir / "weight_history.tsv"
                )
                rows += _rows(
                    config, seed, "defended", defended, test_ds, base_acc, poison_asr
                )
        else:
            if atk.kind == "fgsm":
                adv = attacks_mod.fgsm(
                    baseline, test_ds.features, test_ds.labels, atk.eps, rng_range
                )
            else:
                adv = attacks_mod.pgd(
                    baseline,
                    test_ds.features,
                    test_ds.labels,
                    atk.eps,
                    atk.step,
                    atk.iters,
                    rng_range,
                    rng=attack_rng if atk.random_start else None,
                )
            adv_ds = data_mod.Dataset(adv, test_ds.labels, "test")
            rows += _rows(
                config, seed, "attacked", baseline, adv_ds, base_acc,
                lambda model, *_: attacks_mod.attack_success_rate(model, adv, test_ds.labels),
                [("pure", ())],
            )

    return ExperimentReport(
        config_echo=config_echo(config),
        config_hash=config_hash(config),
        tool_version=TOOL_VERSION,
        rows=rows,
        runtime_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Report emission: a byte-stable TSV table plus a human-readable summary.
# ---------------------------------------------------------------------------

_TABLE_COLUMNS = (
    "seed",
    "model",
    "condition",
    "eval_mode",
    "accuracy",
    "macro_f1",
    "fpr",
    "fnr",
    "relative_accuracy",
    "asr",
    "config_hash",
)


def _fmt(value, decimals=4) -> str:
    return "" if value is None else f"{value:.{decimals}f}"


def render_table(report: ExperimentReport) -> str:
    lines = ["\t".join(_TABLE_COLUMNS)]
    for r in report.rows:
        lines.append(
            "\t".join(
                [
                    str(r.seed),
                    r.model,
                    r.condition,
                    r.eval_mode,
                    _fmt(r.metrics.accuracy),
                    _fmt(r.metrics.macro_f1),
                    _fmt(r.metrics.fpr),
                    _fmt(r.metrics.fnr),
                    _fmt(r.relative_accuracy, 2),
                    _fmt(r.asr),
                    report.config_hash,
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _median(values: list[float]) -> float:
    """``np.median``'s float operations, without its import of ``numpy.ma``."""
    v, h = sorted(values), len(values) // 2
    return float(v[h] if len(v) % 2 else (v[h - 1] + v[h]) / 2)


def _median_block(rows: list[ReportRow]) -> list[str]:
    lines = []
    keys = sorted({(r.condition, r.eval_mode) for r in rows})
    for cond, mode in keys:
        grp = [r for r in rows if r.condition == cond and r.eval_mode == mode]
        acc = _median([r.metrics.accuracy for r in grp])
        line = f"  {cond:<9s} {mode:<6s} acc={acc:6.2f}"
        rels = [r.relative_accuracy for r in grp if r.relative_accuracy is not None]
        if rels:
            line += f"  rel_acc={_median(rels):.2f}"
        asrs = [r.asr for r in grp if r.asr is not None]
        if asrs:
            line += f"  asr={_median(asrs):6.2f}"
        lines.append(line)
    return lines


def render_summary(report: ExperimentReport) -> str:
    cfg = report.config_echo

    def section_kind(name):
        section = cfg.get(name)
        return section.get("kind", "?") if isinstance(section, dict) else "none"

    lines = [
        f"{report.tool_version}  config {report.config_hash}",
        f"model={section_kind('model')} data={section_kind('data')} "
        f"mode={section_kind('mode')} attack={section_kind('attack')} "
        f"defense={'qdetect' if cfg.get('defense') else 'none'}",
        f"seeds={cfg.get('seeds')}  runtime={report.runtime_s:.1f}s",
        "medians across seeds:",
    ]
    lines.extend(_median_block(report.rows))
    return "\n".join(lines) + "\n"


def emit_report(report: ExperimentReport, out_dir, formats: str = "both") -> list[Path]:
    """Write table.tsv (machine-readable, byte-stable) and/or summary.txt."""
    if formats not in ("table", "summary", "both"):
        raise ValueError(f"unknown format {formats!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if formats in ("table", "both"):
        path = out / "table.tsv"
        path.write_text(render_table(report))
        written.append(path)
    if formats in ("summary", "both"):
        path = out / "summary.txt"
        path.write_text(render_summary(report))
        written.append(path)
    return written


def read_table(path) -> list[dict]:
    """Parse a table.tsv back into row dicts (for the report subcommand)."""
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split("\t")
    rows = []
    for line in lines[1:]:
        rows.append(dict(zip(header, line.split("\t"))))
    return rows
