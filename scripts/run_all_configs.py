#!/usr/bin/env python3
"""Run every experiment config under configs/ with the subcommand its
sections call for, and print where reports went.

    python scripts/run_all_configs.py [--seed N] [--out DIR]

``--seed`` runs only seed N of each config; ``--out`` writes each config's
reports under ``DIR/<config stem>/``, so two checkouts' outputs compare with
``diff -r -x summary.txt``. After each config's report paths comes the line
``== <subcommand> <config file> <wall seconds> s``. Each config runs in a
fresh ``python -m qmlrob.cli`` process, so its time does not depend on the
heap that the configs before it left behind.
"""

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

import yaml

from qmlrob import cli

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
# The directory holding the qmlrob imported here, for the child processes.
PACKAGE_ROOT = str(Path(cli.__file__).resolve().parent.parent)


def plan(config_dir: Path = CONFIG_DIR) -> list[tuple[str, Path]]:
    """(subcommand, path) for each ``*.yaml`` in ``config_dir``, by name."""
    out = []
    for path in sorted(config_dir.glob("*.yaml")):
        with open(path) as fh:
            out.append((cli.subcommand_for(yaml.safe_load(fh)), path))
    return out


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=None, help="run only this seed of every config")
    p.add_argument("--out", type=Path, default=None, help="write each config's reports under OUT/<config stem>/")
    return p.parse_args(argv)


def cli_args(sub: str, path: Path, seed: int | None = None, out: Path | None = None) -> list[str]:
    """The ``qmlrob.cli`` argument list that runs one config."""
    args = [sub, "--config", str(path)]
    if seed is not None:
        args += ["--seed", str(seed)]
    if out is not None:
        args += ["--out", str(out / path.stem)]
    return args


def run_config(sub: str, path: Path, seed: int | None = None, out: Path | None = None) -> int:
    """Run one config in its own process, then print its ``==`` line;
    returns the CLI's exit code."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    rc = subprocess.run([sys.executable, "-m", "qmlrob.cli", *cli_args(sub, path, seed, out)], env=env).returncode
    print(f"== {sub} {path.name} {time.perf_counter() - t0:.2f} s", flush=True)
    return rc


def main(argv=None) -> int:
    args = parse_args(argv)
    rc = 0
    for sub, path in plan():
        rc |= run_config(sub, path, args.seed, args.out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
