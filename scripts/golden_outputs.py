#!/usr/bin/env python3
"""Write the simulate, analyze and montecarlo outputs of every shipped config.

    python3 scripts/golden_outputs.py OUTDIR

For each ``configs/<name>.json`` the script copies the config to
``OUTDIR/configs/<name>.json``, then runs, with OUTDIR as the working
directory, ``swarmchain simulate`` into ``traces/<name>.json`` and
``swarmchain analyze --output`` into ``reports/<name>.json``; a config
with adversaries also gets ``swarmchain montecarlo --runs 20 --trials
20000 --output montecarlo/<name>.json``, which holds its scenario-suite
counts.  Every manifest therefore holds the same relative paths whichever
OUTDIR is used, so two checkouts compare with one ``diff -r``::

    python3 scripts/golden_outputs.py /tmp/before   # in the old checkout
    python3 scripts/golden_outputs.py /tmp/after    # in the new checkout
    diff -r /tmp/before /tmp/after

The swarmchain it runs is the one in this checkout's ``src``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from swarmchain.cli import main as swarmchain  # noqa: E402


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = swarmchain(argv)
    if code != 0:
        raise SystemExit(f"swarmchain {' '.join(argv)} exited {code}")


def write_golden(outdir: Path) -> list[str]:
    """Write every config's outputs under ``outdir``; returns the names."""
    configs = sorted((ROOT / "configs").glob("*.json"))
    for sub in ("configs", "traces", "reports", "montecarlo"):
        (outdir / sub).mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(outdir)
    try:
        for config in configs:
            name = config.stem
            shutil.copyfile(config, Path("configs") / config.name)
            _run(["simulate", "--config", f"configs/{name}.json", "--output", f"traces/{name}.json"])
            _run(["analyze", "--trace", f"traces/{name}.json", "--output", f"reports/{name}.json"])
            if json.loads(config.read_text()).get("adversaries"):
                _run(["montecarlo", "--config", f"configs/{name}.json", "--runs", "20", "--trials", "20000",
                      "--output", f"montecarlo/{name}.json"])
    finally:
        os.chdir(cwd)
    return [config.stem for config in configs]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outdir", type=Path, help="directory to write the outputs into")
    args = parser.parse_args()
    names = write_golden(args.outdir.resolve())
    print(f"wrote the outputs of {len(names)} configs to {args.outdir}: {', '.join(names)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
