"""Command-line front end for the experiment runner.

Subcommands mirror the experiment matrix: ``baseline`` (no attack),
``attack`` (poisoning or evasion), ``defend`` (poisoning plus reweighting),
``sweep`` (cartesian grid over config fields), and ``report`` (re-render a
previous run). Each takes one YAML config plus overrides.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from dataclasses import replace
from pathlib import Path

import yaml

from . import bench
from .bench import ConfigError, QMLP_SWEEP_LAYERS, ReportRow
from .training import Metrics


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmlrob", description="quantum classifier robustness workbench"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("baseline", "train and evaluate clean baselines"),
        ("attack", "run the configured attack against fresh baselines"),
        ("defend", "run a poisoning attack with the reweighting defense"),
        ("sweep", "expand the config's sweep axes and run every cell"),
        ("report", "re-render summary/table from a previous run"),
    ):
        p = sub.add_parser(name, help=desc)
        if name == "report":
            p.add_argument("--table", required=True, help="path to a table.tsv")
            p.add_argument("--out", default=None, help="output directory")
        else:
            p.add_argument("--config", required=True, help="path to a YAML config")
            p.add_argument("--seed", type=int, default=None, help="override: run only this seed")
            p.add_argument("--out", default=None, help="override: output directory")
        p.add_argument(
            "--format",
            choices=("table", "summary", "both"),
            default="both",
            help="which report files to write",
        )
    return parser


def _load(args):
    with open(args.config) as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(f"{args.config}: config root must be a mapping")
    config = bench.parse_config({k: v for k, v in raw.items() if k != "sweep"})
    if args.seed is not None:
        config = replace(config, seeds=(args.seed,))
    if args.out is not None:
        config = replace(config, out_dir=args.out)
    return config, raw


def _run_single(config: bench.ExperimentConfig, fmt: str) -> None:
    report = bench.run_experiment(config)
    paths = bench.emit_report(report, config.out_dir, fmt)
    for p in paths:
        print(p)


def subcommand_for(raw: dict) -> str:
    """The subcommand a config's sections call for: ``sweep``, then
    ``defend`` (attack plus defense), then ``attack``, then ``baseline``."""
    if raw.get("sweep"):
        return "sweep"
    if raw.get("attack") is not None:
        return "defend" if raw.get("defense") is not None else "attack"
    return "baseline"


def check_sections(command: str, config: bench.ExperimentConfig, raw: dict) -> None:
    """Raise ConfigError unless the config has the sections ``command`` needs."""
    if command == "baseline":
        if config.attack is not None or config.defense is not None:
            raise ConfigError("baseline runs take no attack or defense section")
    elif command == "attack":
        if config.attack is None:
            raise ConfigError("attack runs need an attack section")
        if config.defense is not None:
            raise ConfigError("use the defend subcommand for defended runs")
    elif command == "defend":
        if config.attack is None or config.defense is None:
            raise ConfigError("defend runs need both attack and defense sections")
    elif command == "sweep":
        axes = raw.get("sweep")
        if not axes or not isinstance(axes, dict):
            raise ConfigError("sweep runs need a 'sweep' mapping of dotted keys to value lists")
        layers = axes.get("model.layers")
        if layers is not None and raw.get("model", {}).get("kind") == "qmlp":
            bad = set(layers) - set(QMLP_SWEEP_LAYERS)
            if bad:
                raise ConfigError(
                    f"qmlp depth sweeps are restricted to {QMLP_SWEEP_LAYERS}, got {sorted(bad)}"
                )


def _cmd_single(args) -> None:
    config, raw = _load(args)
    check_sections(args.command, config, raw)
    _run_single(config, args.format)


def _set_dotted(raw: dict, key: str, value):
    parts = key.split(".")
    node = raw
    for p in parts[:-1]:
        node = node.setdefault(p, {})
    node[parts[-1]] = value


def _cmd_sweep(args) -> None:
    config, raw = _load(args)
    check_sections("sweep", config, raw)
    axes = raw["sweep"]
    keys = sorted(axes)
    base_out = Path(args.out) if args.out else Path(config.out_dir)
    for values in itertools.product(*(axes[k] for k in keys)):
        cell_raw = {k: v for k, v in raw.items() if k != "sweep"}
        import copy

        cell_raw = copy.deepcopy(cell_raw)
        name = []
        for k, v in zip(keys, values):
            _set_dotted(cell_raw, k, v)
            name.append(f"{k.split('.')[-1]}={v}")
        cell = bench.parse_config(cell_raw)
        if args.seed is not None:
            cell = replace(cell, seeds=(args.seed,))
        cell = replace(cell, out_dir=str(base_out / "_".join(name)))
        _run_single(cell, args.format)


def _report_row(cells: dict) -> ReportRow:
    """A ``read_table`` row as a ReportRow; an empty cell reads as None."""
    metrics = Metrics(*(float(cells[k]) for k in ("accuracy", "macro_f1", "fpr", "fnr")))
    rel, asr = (float(cells[k]) if cells[k] else None for k in ("relative_accuracy", "asr"))
    return ReportRow(
        int(cells["seed"]), cells["model"], cells["condition"], cells["eval_mode"], metrics, rel, asr
    )


def _cmd_report(args) -> None:
    rows = bench.read_table(args.table)
    if not rows:
        raise ConfigError(f"{args.table}: empty table")
    needed = [c for c in bench._TABLE_COLUMNS if c != "config_hash"]
    missing = [c for c in needed if any(c not in r for r in rows)]
    if missing:
        raise ConfigError(f"{args.table}: missing column(s) {', '.join(missing)}")
    lines = [f"re-rendered from {args.table}", "medians across seeds:"]
    lines += bench._median_block([_report_row(r) for r in rows])
    text = "\n".join(lines) + "\n"
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "summary.txt").write_text(text)
        print(out / "summary.txt")
    else:
        print(text, end="")


_COMMANDS = {
    "baseline": _cmd_single,
    "attack": _cmd_single,
    "defend": _cmd_single,
    "sweep": _cmd_sweep,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
