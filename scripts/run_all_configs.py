#!/usr/bin/env python3
"""Run every experiment config under configs/ with the subcommand its
sections call for, and print where reports went."""

import sys
from pathlib import Path

import yaml

from qmlrob.cli import main, subcommand_for

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def plan(config_dir: Path = CONFIG_DIR) -> list[tuple[str, Path]]:
    """(subcommand, path) for each ``*.yaml`` in ``config_dir``, by name."""
    out = []
    for path in sorted(config_dir.glob("*.yaml")):
        with open(path) as fh:
            out.append((subcommand_for(yaml.safe_load(fh)), path))
    return out


if __name__ == "__main__":
    rc = 0
    for sub, path in plan():
        print(f"== {sub} {path.name}")
        rc |= main([sub, "--config", str(path)])
    sys.exit(rc)
