"""Experiment runner, report emission, and the CLI."""

import dataclasses
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import qmlrob
from qmlrob import bench, cli
from qmlrob.bench import (
    ConfigError,
    ExperimentReport,
    ReportRow,
    config_hash,
    emit_report,
    parse_config,
    relative_accuracy,
    render_table,
    run_experiment,
)
from qmlrob.attacks import AttackConfig
from qmlrob.defense import QDetectConfig
from qmlrob.training import Metrics, TrainConfig


def base_raw(**overrides):
    raw = {
        "data": {
            "kind": "blobs",
            "n_classes": 3,
            "dim": 4,
            "per_class_train": 12,
            "per_class_test": 6,
            "spread": 0.1,
        },
        "model": {"kind": "cmlp", "hidden_dim": 8},
        "train": {"lr": 0.02, "epochs": 4, "batch_size": 16},
        "seeds": [0, 1],
    }
    raw.update(overrides)
    return raw


class TestRelativeAccuracy:
    def test_reference_ratio_rounds_to_published_value(self):
        raw = relative_accuracy(46.42, 49.77)
        assert raw == pytest.approx(0.93269, abs=1e-4)
        assert round(raw, 2) == 0.93

    def test_equal_values(self):
        assert relative_accuracy(50.0, 50.0) == 1.0

    def test_zero_attack_accuracy(self):
        assert relative_accuracy(0.0, 50.0) == 0.0

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            relative_accuracy(10.0, 0.0)


# YAML-shaped values: what yaml.safe_load can return.
YAML_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.floats(), st.text(max_size=6)
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)
# Values that are valid for a key, so that parsing often gets past its first
# checks and reaches the dataclass constructors.
VALID = {
    "data": {
        "kind": ["blobs", "csv"], "n_classes": [2, 3], "dim": [4], "per_class_train": [3],
        "per_class_test": [2], "spread": [0.1], "pca_dim": [None, 2], "csv_path": ["x.csv"],
    },
    "model": {
        "kind": ["qmlp", "qnn", "cmlp"], "encoding": ["angle", "amplitude"], "layers": [1, 2],
        "n_qubits": [2, 4], "hidden_dim": [8], "input_range": [[0.0, 1.0]], "reupload": [True],
    },
    "mode": {"kind": ["pure", "mixed"], "channels": [[{"kind": "depolarizing", "p": 0.01}]]},
    "attack": {
        "kind": ["label_flip", "quid", "fgsm", "pgd"], "ratio": [0.5], "eps": [0.1],
        "step": [0.05], "iters": [2], "quid_variant": ["least_similar"], "random_start": [False],
    },
    "defense": {
        "wan_lr": [0.05], "anneal_coeff": [1.0], "beta_range": [[0.1, 2.0]], "sweeps": [5],
        "keep_fraction": [0.7], "seed": [0],
    },
    "train": {
        "lr": [0.01], "weight_decay": [0.0], "batch_size": [8], "epochs": [1],
        "label_smoothing": [0.0], "optimizer": ["auto", "adam", "spsa"], "spsa_step": [0.01],
        "spsa_perturb": [0.02], "seed": [0],
    },
}


# The dataclass of each section: its fields are the section's keys.
SECTIONS = {
    "data": bench.DataConfig, "model": bench.ModelSpecConfig, "mode": bench.ModeConfig,
    "attack": AttackConfig, "defense": QDetectConfig, "train": TrainConfig,
}
TOP_KEYS = {f.name for f in dataclasses.fields(bench.ExperimentConfig)} | {"sweep"}


def _section(name, hostile):
    """A section mapping whose values are mostly valid; ``hostile`` sections
    may also carry an unknown key or be no mapping at all."""

    def value(key):  # valid nine times in ten
        valid = st.sampled_from(VALID[name].get(key, [None]))
        return st.integers(0, 9).flatmap(lambda i: YAML_VALUES if i == 0 else valid)

    keys = sorted(f.name for f in dataclasses.fields(SECTIONS[name]))
    optional = {k: value(k) for k in keys if k != "kind"}
    if hostile:
        optional["bogus"] = YAML_VALUES
    mapping = st.fixed_dictionaries(
        {"kind": value("kind")} if "kind" in keys else {}, optional=optional
    )
    return st.one_of(mapping, YAML_VALUES) if hostile else mapping


def _configs(hostile):
    return st.fixed_dictionaries(
        {"data": _section("data", hostile), "model": _section("model", hostile)},
        optional={
            **{name: _section(name, hostile) for name in ("mode", "attack", "defense", "train")},
            "seeds": st.one_of(st.just([0, 1]), YAML_VALUES),
            "out_dir": YAML_VALUES,
            "train_mode": YAML_VALUES,
            "sweep": YAML_VALUES,
        },
    )


CONFIGS = st.one_of(
    _configs(hostile=False),
    _configs(hostile=True),
    st.dictionaries(st.sampled_from(sorted(TOP_KEYS) + ["bogus"]), YAML_VALUES, max_size=4),
)


class TestConfigParsing:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown top-level"):
            parse_config(base_raw(bogus=1))

    def test_unknown_section_key(self):
        raw = base_raw()
        raw["data"]["pixels"] = 8
        with pytest.raises(ConfigError, match="unknown keys in 'data'"):
            parse_config(raw)

    def test_missing_sections(self):
        with pytest.raises(ConfigError, match="requires"):
            parse_config({"seeds": [0]})

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigError, match="seeds"):
            parse_config(base_raw(seeds=[]))

    def test_gradient_attack_in_mixed_mode_rejected(self):
        raw = base_raw(
            mode={"kind": "mixed", "channels": [{"kind": "depolarizing", "p": 0.01}]},
            attack={"kind": "fgsm", "eps": 0.1},
        )
        with pytest.raises(ConfigError, match="gradient attacks"):
            parse_config(raw)

    def test_quid_needs_quantum_encoder(self):
        raw = base_raw(attack={"kind": "quid", "ratio": 0.5})
        with pytest.raises(ConfigError, match="quantum encoder"):
            parse_config(raw)

    def test_defense_requires_poisoning(self):
        raw = base_raw(
            attack={"kind": "fgsm", "eps": 0.1},
            defense={"keep_fraction": 0.7},
        )
        with pytest.raises(ConfigError, match="poisoning"):
            parse_config(raw)

    def test_pure_mode_rejects_channels(self):
        raw = base_raw(
            mode={"kind": "pure", "channels": [{"kind": "depolarizing", "p": 0.01}]}
        )
        with pytest.raises(ConfigError, match="pure mode"):
            parse_config(raw)

    @pytest.mark.parametrize(
        "channels",
        [
            [{"kind": "depolarizing"}],
            [{"p": 0.01}],
            ["depolarizing"],
            [{"kind": "depolarizing", "p": "high"}],
            {"kind": "depolarizing", "p": 0.01},
            [{"kind": "bogus", "p": 0.1}],
        ],
    )
    def test_malformed_channels_rejected(self, channels):
        with pytest.raises(ConfigError, match="channel"):
            parse_config(base_raw(mode={"kind": "mixed", "channels": channels}))

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("train", "batch_size", "a"),
            ("train", "epochs", 2.5),
            ("train", "lr", "fast"),
            ("train", "seed", True),
            ("attack", "iters", "3"),
            ("attack", "eps", None),
            ("defense", "wan_lr", "0.1"),
            ("defense", "sweeps", 1.0),
            pytest.param("train", "lr", 10**400, id="train-lr-huge_integer"),
            ("train", "lr", float("nan")),
            ("defense", "anneal_coeff", float("inf")),
            ("attack", "random_start", 1),
        ],
    )
    def test_wrongly_typed_numbers_rejected(self, section, key, value):
        raw = base_raw(attack={"kind": "label_flip", "ratio": 0.5}, defense={})
        raw.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            parse_config(raw)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("data", "per_class_test", "3"),
            ("data", "n_classes", 3.0),
            ("data", "dim", True),
            ("data", "spread", "wide"),
            ("data", "pca_dim", 2.5),
            ("model", "layers", "two"),
            ("model", "n_qubits", None),
            ("model", "hidden_dim", False),
            pytest.param("data", "spread", 10**400, id="data-spread-huge_integer"),
            ("model", "reupload", "no"),
        ],
    )
    def test_wrongly_typed_data_and_model_numbers_rejected(self, section, key, value):
        raw = base_raw()
        raw[section][key] = value
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            parse_config(raw)

    def test_null_pca_dim_accepted(self):
        raw = base_raw()
        raw["data"]["pca_dim"] = None
        assert parse_config(raw).data.pca_dim is None

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("model", "input_range", [0.0]),
            ("model", "input_range", [0.0, "pi"]),
            ("model", "input_range", 3),
            ("defense", "beta_range", [0.1, 2.0, 3.0]),
            ("defense", "beta_range", [0.1, 10**400]),
        ],
    )
    def test_malformed_ranges_rejected(self, section, key, value):
        raw = base_raw(attack={"kind": "label_flip", "ratio": 0.5}, defense={})
        raw[section][key] = value
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            parse_config(raw)

    @pytest.mark.parametrize(
        "section, payload",
        [
            ("attack", {}),
            ("attack", {"kind": "teleport"}),
            ("train", {"optimizer": "sgd"}),
            ("defense", {"beta_range": [2.0, 1.0]}),
            ("train_mode", "bogus"),
            ("data", {"kind": "blobs", "dim": 0}),
            ("data", {"kind": "blobs", "per_class_train": 0}),
            ("data", {"kind": "blobs", "pca_dim": 0}),
            ("data", {"kind": "csv"}),
            ("data", {"kind": "mnist", "image_path": "x"}),
        ],
    )
    def test_dataclass_range_errors_are_config_errors(self, section, payload):
        raw = base_raw(attack={"kind": "label_flip", "ratio": 0.5})
        raw[section] = payload
        with pytest.raises(ConfigError):
            parse_config(raw)

    @settings(max_examples=300, deadline=None)
    @given(CONFIGS)
    def test_any_yaml_mapping_parses_or_raises_config_error(self, raw):
        try:
            parse_config(raw)
        except ConfigError:
            pass

    @pytest.mark.parametrize("seeds", [3, "0", [0, "1"], [0.5], [True]])
    def test_seeds_must_be_a_list_of_ints(self, seeds):
        with pytest.raises(ConfigError, match="seeds"):
            parse_config(base_raw(seeds=seeds))

    @pytest.mark.parametrize("section", ["data", "model"])
    def test_section_kind_required(self, section):
        raw = base_raw()
        del raw[section]["kind"]
        with pytest.raises(ConfigError, match="kind"):
            parse_config(raw)

    def test_round_trip_of_valid_config(self):
        cfg = parse_config(base_raw(attack={"kind": "label_flip", "ratio": 0.5}))
        assert cfg.attack.kind == "label_flip"
        assert cfg.seeds == (0, 1)
        assert config_hash(cfg) == config_hash(parse_config(base_raw(attack={"kind": "label_flip", "ratio": 0.5})))


class TestRunExperiment:
    def test_baseline_only_rows(self, tmp_path):
        cfg = parse_config(base_raw(out_dir=str(tmp_path)))
        report = run_experiment(cfg)
        assert {r.condition for r in report.rows} == {"baseline"}
        assert all(r.relative_accuracy == 1.0 for r in report.rows)
        assert len(report.rows) == 2  # one pure row per seed

    def test_label_flip_produces_ratios_and_asr(self, tmp_path):
        cfg = parse_config(
            base_raw(attack={"kind": "label_flip", "ratio": 0.5}, out_dir=str(tmp_path))
        )
        report = run_experiment(cfg)
        attacked = [r for r in report.rows if r.condition == "attacked"]
        assert len(attacked) == 2
        for r in attacked:
            assert r.relative_accuracy is not None
            assert 0.0 <= r.asr <= 100.0
        assert (tmp_path / "seed_0" / "poison_manifest.txt").exists()
        assert (tmp_path / "seed_0" / "train_log.tsv").exists()

    def test_fgsm_zero_eps_keeps_baseline_accuracy(self, tmp_path):
        cfg = parse_config(
            base_raw(attack={"kind": "fgsm", "eps": 0.0}, out_dir=str(tmp_path))
        )
        report = run_experiment(cfg)
        by_seed = {}
        for r in report.rows:
            by_seed.setdefault(r.seed, {})[r.condition] = r
        for rows in by_seed.values():
            assert rows["attacked"].metrics.accuracy == rows["baseline"].metrics.accuracy
            assert rows["attacked"].relative_accuracy == 1.0

    def test_mixed_mode_adds_noisy_rows(self, tmp_path):
        raw = base_raw(
            model={"kind": "qmlp", "encoding": "angle", "layers": 1, "n_qubits": 4},
            mode={"kind": "mixed", "channels": [{"kind": "depolarizing", "p": 0.05}]},
            out_dir=str(tmp_path),
            seeds=[0],
        )
        raw["data"]["dim"] = 4
        raw["train"]["epochs"] = 2
        report = run_experiment(parse_config(raw))
        modes = {r.eval_mode for r in report.rows}
        assert modes == {"pure", "mixed"}

    def test_defended_rows_and_weight_history(self, tmp_path):
        raw = base_raw(
            attack={"kind": "label_flip", "ratio": 0.3},
            defense={"keep_fraction": 0.7, "sweeps": 10},
            out_dir=str(tmp_path),
            seeds=[0],
        )
        report = run_experiment(parse_config(raw))
        assert {r.condition for r in report.rows} == {"baseline", "attacked", "defended"}
        assert (tmp_path / "seed_0" / "weight_history.tsv").exists()
        log = tmp_path / "seed_0" / "defended_train_log.tsv"
        assert len(log.read_text().splitlines()) == raw["train"]["epochs"]

    def test_deterministic_table_across_invocations(self, tmp_path):
        raw = base_raw(attack={"kind": "label_flip", "ratio": 0.5})
        tables = []
        for i in range(2):
            cfg = parse_config({**raw, "out_dir": str(tmp_path / f"run{i}")})
            tables.append(render_table(run_experiment(cfg)))
        assert tables[0] == tables[1]

    def test_mixed_training_uses_spsa(self, tmp_path):
        raw = {
            "data": {"kind": "blobs", "n_classes": 2, "dim": 2, "per_class_train": 8,
                     "per_class_test": 4, "spread": 0.1, "pca_dim": 2},
            "model": {"kind": "qmlp", "encoding": "angle", "layers": 1, "n_qubits": 2},
            "mode": {"kind": "mixed",
                     "channels": [{"kind": "depolarizing", "p": 0.05},
                                  {"kind": "amplitude_damping", "p": 0.05}]},
            "train": {"lr": 0.02, "epochs": 2, "batch_size": 8},
            "train_mode": "mixed",
            "seeds": [0],
            "out_dir": str(tmp_path),
        }
        report = run_experiment(parse_config(raw))
        assert {r.eval_mode for r in report.rows} == {"pure", "mixed"}
        for r in report.rows:
            assert 0.0 <= r.metrics.accuracy <= 100.0


def fixture_report():
    rows = [
        ReportRow(0, "cmlp", "baseline", "pure", Metrics(96.0, 95.5, 1.25, 4.5), 1.0, None),
        ReportRow(0, "cmlp", "attacked", "pure", Metrics(48.0, 45.25, 13.0, 52.0), 0.5, 37.5),
    ]
    return ExperimentReport(
        config_echo={"demo": True},
        config_hash="deadbeefdeadbeef",
        tool_version="qmlrob 0.1.0",
        rows=rows,
        runtime_s=1.25,
    )


GOLDEN_TABLE = (
    "seed\tmodel\tcondition\teval_mode\taccuracy\tmacro_f1\tfpr\tfnr\t"
    "relative_accuracy\tasr\tconfig_hash\n"
    "0\tcmlp\tbaseline\tpure\t96.0000\t95.5000\t1.2500\t4.5000\t1.00\t\tdeadbeefdeadbeef\n"
    "0\tcmlp\tattacked\tpure\t48.0000\t45.2500\t13.0000\t52.0000\t0.50\t37.5000\tdeadbeefdeadbeef\n"
)


class TestEmission:
    def test_table_matches_golden(self):
        assert render_table(fixture_report()) == GOLDEN_TABLE

    def test_emission_is_byte_stable(self, tmp_path):
        report = fixture_report()
        a = emit_report(report, tmp_path / "a", "both")
        b = emit_report(report, tmp_path / "b", "both")
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_runtime_not_in_table(self, tmp_path):
        text = render_table(fixture_report())
        assert "1.25" not in text.replace("1.2500", "")

    def test_summary_mentions_medians(self):
        text = bench.render_summary(fixture_report())
        assert "medians" in text
        assert "rel_acc=0.50" in text

    @pytest.mark.parametrize("n_seeds", [1, 2, 3, 4])
    def test_summary_medians_equal_numpy_median(self, n_seeds, monkeypatch):
        # Odd and even seed counts: the middle value, or the mean of two.
        acc = [96.0, 48.25, 71.5, 100 / 3]
        rows = [row for seed in range(n_seeds) for row in (
            ReportRow(seed, "qmlp", "baseline", "pure", Metrics(acc[seed], 1.0, 2.0, 3.0), 1.0, None),
            ReportRow(seed, "qmlp", "attacked", "mixed", Metrics(acc[-1 - seed], 1.0, 2.0, 3.0),
                      acc[-1 - seed] / acc[seed], acc[seed] / 7),
        )]
        report = dataclasses.replace(fixture_report(), rows=rows)
        text = bench.render_summary(report)
        monkeypatch.setattr(bench, "_median", lambda v: float(np.median(v)))
        assert text.encode() == bench.render_summary(report).encode()

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(fixture_report(), tmp_path, "csv")

    def test_read_table_round_trip(self, tmp_path):
        emit_report(fixture_report(), tmp_path, "table")
        rows = bench.read_table(tmp_path / "table.tsv")
        assert rows[0]["condition"] == "baseline"
        assert rows[1]["asr"] == "37.5000"


def run_cli(args, cwd, command=("-m", "qmlrob.cli")):
    # The child must import the same qmlrob as this process, from any cwd: a
    # relative PYTHONPATH entry such as "src" does not resolve from tmp_path.
    package_root = str(Path(qmlrob.__file__).resolve().parent.parent)
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *command, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


class TestCli:
    def write_config(self, tmp_path, raw):
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(raw))
        return path

    def test_baseline_subcommand(self, tmp_path):
        path = self.write_config(tmp_path, base_raw(out_dir=str(tmp_path / "out"), seeds=[0]))
        result = run_cli(["baseline", "--config", str(path)], tmp_path)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "out" / "table.tsv").exists()
        assert (tmp_path / "out" / "summary.txt").exists()

    def test_baseline_run_does_not_import_numpy_ma(self, tmp_path):
        # numpy.ma costs some 7 ms to import; np.median's first call imports it.
        path = self.write_config(tmp_path, base_raw(out_dir=str(tmp_path / "out"), seeds=[0, 1]))
        code = ("import sys; from qmlrob import cli; rc = cli.main(sys.argv[1:]); "
                "print('numpy.ma' in sys.modules); sys.exit(rc)")
        result = run_cli(["baseline", "--config", str(path)], tmp_path, ("-c", code))
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "False"

    def test_baseline_rejects_attack_section(self, tmp_path):
        raw = base_raw(attack={"kind": "label_flip", "ratio": 0.5})
        path = self.write_config(tmp_path, raw)
        result = run_cli(["baseline", "--config", str(path)], tmp_path)
        assert result.returncode == 1
        assert "error:" in result.stderr
        assert result.stderr.count("\n") == 1

    def test_attack_subcommand_with_overrides(self, tmp_path):
        raw = base_raw(attack={"kind": "label_flip", "ratio": 0.5})
        path = self.write_config(tmp_path, raw)
        out = tmp_path / "ov"
        result = run_cli(
            ["attack", "--config", str(path), "--seed", "1", "--out", str(out), "--format", "table"],
            tmp_path,
        )
        assert result.returncode == 0, result.stderr
        table = (out / "table.tsv").read_text()
        assert "\n1\t" in table and "\n0\t" not in table
        assert not (out / "summary.txt").exists()

    def test_sweep_reports_label_flip_ratios_for_both_model_kinds(self, tmp_path):
        # one sweep run covers the quantum model and the classical baseline
        raw = base_raw(out_dir=str(tmp_path / "sweep"), seeds=[0])
        raw["data"]["dim"] = 4
        raw["data"]["n_classes"] = 4
        raw["data"]["per_class_train"] = 10
        raw["data"]["per_class_test"] = 5
        raw["model"] = {"kind": "cmlp", "hidden_dim": 8, "layers": 1, "n_qubits": 4}
        raw["attack"] = {"kind": "label_flip", "ratio": 0.5}
        raw["sweep"] = {"model.kind": ["cmlp", "qmlp"]}
        raw["train"]["epochs"] = 2
        path = self.write_config(tmp_path, raw)
        result = run_cli(["sweep", "--config", str(path)], tmp_path)
        assert result.returncode == 0, result.stderr
        for kind in ("cmlp", "qmlp"):
            rows = bench.read_table(tmp_path / "sweep" / f"kind={kind}" / "table.tsv")
            attacked = [r for r in rows if r["condition"] == "attacked"]
            assert attacked and all(r["relative_accuracy"] for r in attacked)

    def test_sweep_restricts_qmlp_depths(self, tmp_path):
        raw = base_raw()
        raw["model"] = {"kind": "qmlp", "encoding": "angle", "layers": 2, "n_qubits": 4}
        raw["data"]["dim"] = 4
        raw["sweep"] = {"model.layers": [2, 3]}
        path = self.write_config(tmp_path, raw)
        result = run_cli(["sweep", "--config", str(path)], tmp_path)
        assert result.returncode == 1
        assert "restricted" in result.stderr

    def test_report_rerenders_table(self, tmp_path):
        emit_report(fixture_report(), tmp_path, "table")
        result = run_cli(["report", "--table", str(tmp_path / "table.tsv")], tmp_path)
        assert result.returncode == 0
        assert result.stdout == (
            f"re-rendered from {tmp_path / 'table.tsv'}\n"
            "medians across seeds:\n"
            "  attacked  pure   acc= 48.00  rel_acc=0.50  asr= 37.50\n"
            "  baseline  pure   acc= 96.00  rel_acc=1.00\n"
        )

    def test_report_names_missing_columns_in_one_error_line(self, tmp_path):
        table = tmp_path / "table.tsv"
        table.write_text(
            "seed\tmodel\tcondition\teval_mode\taccuracy\n0\tqmlp\tbaseline\tpure\t0.9\n"
        )
        result = run_cli(["report", "--table", str(table)], tmp_path)
        assert result.returncode == 1
        assert result.stderr == (
            f"error: {table}: missing column(s) macro_f1, fpr, fnr, relative_accuracy, asr\n"
        )

    @pytest.mark.parametrize(
        "edit",
        [
            lambda raw: raw.update(mode={"kind": "mixed", "channels": [{"kind": "depolarizing"}]}),
            lambda raw: raw["data"].pop("kind"),
            lambda raw: raw["train"].update(batch_size=0),
            lambda raw: raw["train"].update(batch_size="a"),
            lambda raw: raw.update(seeds=3),
            lambda raw: raw.update(model={"kind": "qmlp", "layers": "two"}),
            lambda raw: raw["data"].update(per_class_test="3"),
            lambda raw: raw.update(mode={"kind": "mixed", "channels": [{"kind": "bogus", "p": 0.1}]}),
            lambda raw: raw.update(train_mode="bogus"),
            lambda raw: raw["model"].update(reupload="no"),
            lambda raw: raw.update(attack={"kind": "pgd", "eps": 0.1, "random_start": 1}),
            lambda raw: raw["train"].update(lr=10**400),
            lambda raw: raw["data"].update(spread=10**400),
            lambda raw: raw["train"].update(lr=float("inf")),
            lambda raw: raw["data"].update(per_class_test=0),
            lambda raw: raw["data"].update(kind="csv"),
            lambda raw: raw["data"].update(n_classes=1),
            # Found from the data's shape, still before seed_0/ exists.
            lambda raw: raw["data"].update(pca_dim=5),
            lambda raw: raw.update(model={"kind": "qnn", "n_qubits": 3}),
            lambda raw: raw.update(model={"kind": "qmlp", "encoding": "angle", "n_qubits": 3}),
            lambda raw: (raw["data"].update(dim=8),
                         raw.update(model={"kind": "qmlp", "encoding": "amplitude", "n_qubits": 2})),
        ],
        ids=[
            "channel_without_p",
            "data_without_kind",
            "zero_batch_size",
            "string_batch_size",
            "scalar_seeds",
            "string_model_layers",
            "string_per_class_test",
            "unknown_channel_kind",
            "unknown_train_mode",
            "string_reupload",
            "integer_random_start",
            "huge_integer_lr",
            "huge_integer_spread",
            "infinite_lr",
            "zero_per_class_test",
            "csv_without_path",
            "one_class",
            "pca_dim_above_the_data",
            "qnn_feature_mismatch",
            "angle_width_too_small",
            "amplitude_width_too_small",
        ],
    )
    def test_malformed_config_gives_one_error_line(self, tmp_path, edit):
        raw = base_raw(out_dir=str(tmp_path / "out"), seeds=[0])
        edit(raw)
        result = run_cli(["baseline", "--config", str(self.write_config(tmp_path, raw))], tmp_path)
        assert result.returncode == 1
        assert result.stderr.startswith("error:")
        assert result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr
        assert "range()" not in result.stderr
        assert not (tmp_path / "out" / "seed_0").exists()

    def test_malformed_yaml_gives_one_error_line(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("data: {kind: blobs\nmodel: {kind: cmlp}\n")
        result = run_cli(["baseline", "--config", str(path)], tmp_path)
        assert result.returncode == 1
        assert result.stderr.startswith(f"error: {path}: ")
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "axes",
        [
            {"model.layers": 3},
            {"data.kind.x": [1]},
            {"train.lr": [0.01, "fast"]},
            {"model.kind": ["cmlp", "qmlp"], "model.layers": [3]},
        ],
        ids=["scalar_axis", "key_below_a_value", "bad_second_cell", "qmlp_depth_of_a_swept_kind"],
    )
    def test_bad_sweep_axis_gives_one_error_line_before_any_cell_runs(self, tmp_path, axes):
        raw = base_raw(out_dir=str(tmp_path / "out"), seeds=[0], sweep=axes)
        result = run_cli(["sweep", "--config", str(self.write_config(tmp_path, raw))], tmp_path)
        assert result.returncode == 1
        assert result.stderr.startswith("error:")
        assert result.stderr.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "defense",
        [{"wan_lr": -1.0}, {"wan_lr": 1.5}, {"anneal_coeff": -5}],
        ids=["negative_wan_lr", "wan_lr_above_one", "negative_anneal_coeff"],
    )
    def test_bad_defense_config_gives_one_error_line(self, tmp_path, defense):
        raw = base_raw(out_dir=str(tmp_path / "out"), seeds=[0])
        raw["model"] = {"kind": "qnn", "n_qubits": 2}
        raw["attack"] = {"kind": "quid", "ratio": 0.5}
        raw["defense"] = defense
        result = run_cli(["defend", "--config", str(self.write_config(tmp_path, raw))], tmp_path)
        assert result.returncode == 1
        assert result.stderr.startswith("error:")
        assert result.stderr.count("\n") == 1
        assert next(iter(defense)) in result.stderr
        assert not (tmp_path / "out" / "table.tsv").exists()

    def test_missing_config_file_fails_cleanly(self, tmp_path):
        result = run_cli(["baseline", "--config", str(tmp_path / "nope.yaml")], tmp_path)
        assert result.returncode == 1
        assert "error:" in result.stderr


REPO = Path(__file__).resolve().parent.parent


def load_run_all_configs():
    path = REPO / "scripts" / "run_all_configs.py"
    spec = importlib.util.spec_from_file_location("run_all_configs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRunAllConfigs:
    def test_every_shipped_config_gets_a_subcommand_it_passes(self):
        plan = load_run_all_configs().plan()
        assert sorted(p.name for _, p in plan) == sorted(
            p.name for p in (REPO / "configs").glob("*.yaml")
        )
        for sub, path in plan:
            raw = yaml.safe_load(path.read_text())
            config = parse_config({k: v for k, v in raw.items() if k != "sweep"})
            cli.check_sections(sub, config, raw)
        chosen = {p.name: sub for sub, p in plan}
        assert chosen["malware_shape.yaml"] == "baseline"
        assert chosen["depth_sweep.yaml"] == "sweep"
        assert chosen["quid_defended.yaml"] == "defend"
        assert chosen["fgsm.yaml"] == "attack"

    @pytest.mark.parametrize(
        "raw, want",
        [
            ({"sweep": {"model.layers": [2]}, "attack": {"kind": "fgsm"}}, "sweep"),
            ({"attack": {"kind": "quid"}, "defense": {}}, "defend"),
            ({"attack": {"kind": "fgsm"}}, "attack"),
            ({"data": {"kind": "blobs"}}, "baseline"),
        ],
    )
    def test_subcommand_precedence(self, raw, want):
        assert cli.subcommand_for(raw) == want

    def test_plan_reads_a_config_dir_by_name(self, tmp_path):
        (tmp_path / "b.yaml").write_text(yaml.safe_dump({"attack": {"kind": "fgsm"}}))
        (tmp_path / "a.yaml").write_text(yaml.safe_dump({"data": {"kind": "blobs"}}))
        (tmp_path / "notes.txt").write_text("not a config")
        plan = load_run_all_configs().plan(tmp_path)
        assert plan == [("baseline", tmp_path / "a.yaml"), ("attack", tmp_path / "b.yaml")]

    def test_seed_and_out_reach_each_cli_call(self, tmp_path):
        module = load_run_all_configs()
        args = module.parse_args(["--seed", "0", "--out", str(tmp_path)])
        assert args.seed == 0 and args.out == tmp_path
        path = Path("configs") / "fgsm.yaml"
        assert module.cli_args("attack", path, args.seed, args.out) == [
            "attack", "--config", str(path), "--seed", "0", "--out", str(tmp_path / "fgsm"),
        ]
        defaults = module.parse_args([])
        assert defaults.seed is None and defaults.out is None
        assert module.cli_args("attack", path, defaults.seed, defaults.out) == [
            "attack", "--config", str(path),
        ]
        with pytest.raises(SystemExit):
            module.parse_args(["--seed", "one"])

    def test_each_config_ends_with_its_wall_seconds(self, tmp_path, capsys):
        path = tmp_path / "tiny.yaml"
        path.write_text(yaml.safe_dump(base_raw(seeds=[0])))
        assert load_run_all_configs().run_config("baseline", path, 0, tmp_path / "out") == 0
        lines = capsys.readouterr().out.splitlines()
        assert re.fullmatch(r"== baseline tiny\.yaml \d+\.\d\d s", lines[-1])
        assert (tmp_path / "out" / "tiny" / "table.tsv").exists()

    def test_each_config_runs_in_a_fresh_process(self, tmp_path, monkeypatch):
        # A config run in this process would meet the heap earlier ones left.
        module = load_run_all_configs()
        monkeypatch.setattr(module.cli, "main", lambda argv: pytest.fail("ran in this process"))
        path = tmp_path / "tiny.yaml"
        path.write_text(yaml.safe_dump(base_raw(seeds=[0])))
        assert module.run_config("baseline", path, 0, tmp_path / "out") == 0
        assert (tmp_path / "out" / "tiny" / "table.tsv").exists()
        path.write_text(yaml.safe_dump(base_raw(seeds=[0], train={"batch_size": 0})))
        assert module.run_config("baseline", path, 0, tmp_path / "bad") == 1


# config_hash is a column of every table.tsv: these values pin it for each
# shipped config and sweep cell, and for a config whose float fields are given
# as integers (kept as integers, except pairs and channel p, which become floats).
PINNED_HASHES = {
    "baseline_noise.yaml": "d158ba0197720726",
    "depth_sweep.yaml": "aec6a5f48d8e22d9",
    "depth_sweep.yaml:layers=2": "aec6a5f48d8e22d9",
    "depth_sweep.yaml:layers=10": "897ca44b808f0199",
    "fgsm.yaml": "e095c6f1b602ceef",
    "label_flip.yaml": "0bf681cbe39bda3f",
    "malware_shape.yaml": "33fda3d6e68d103e",
    "quid_defended.yaml": "d8c3057c7736fc94",
    "integer_floats": "6feb03150ac8fff0",
}


def test_config_hash_is_pinned():
    got = {}
    for path in sorted((REPO / "configs").glob("*.yaml")):
        raw = yaml.safe_load(path.read_text())
        got[path.name] = config_hash(parse_config(raw))
        if raw.get("sweep"):
            for cell in cli.sweep_cells(raw, Path("out")):
                got[f"{path.name}:{Path(cell.out_dir).name}"] = config_hash(cell)
    raw = base_raw(
        model={"kind": "qmlp", "n_qubits": 4, "input_range": [0, 1]},
        mode={"kind": "mixed", "channels": [{"kind": "depolarizing", "p": 0}]},
        attack={"kind": "label_flip", "ratio": 1},
        defense={"keep_fraction": 1, "beta_range": [0, 2]},
    )
    raw["data"]["spread"] = 1
    raw["train"]["lr"] = 1
    got["integer_floats"] = config_hash(parse_config(raw))
    assert got == PINNED_HASHES
