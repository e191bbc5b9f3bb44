"""Regenerate bench/golden/*.csv: each workload's CSV at the default seed.

    python3 bench/make_golden.py

The golden files pin the program's output; regenerate them only for a change
that is meant to alter the CSVs, and say so in CHANGES.md.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import BENCH, ROOT, SRC
from workloads import DEFAULT_SEED, OUTPUT_NAME, WORKLOADS, config_text


def main() -> None:
    golden = BENCH / "golden"
    golden.mkdir(exist_ok=True)
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for workload in WORKLOADS.values():
        workdir = Path(tempfile.mkdtemp(prefix="golden-", dir=scratch))
        try:
            (workdir / "config.json").write_text(
                config_text(workload, DEFAULT_SEED))
            subprocess.run([sys.executable, "-m", "tpqsim.cli",
                            workload.subcommand, "config.json"],
                           cwd=workdir, env=env, check=True)
            shutil.copyfile(workdir / OUTPUT_NAME,
                            golden / f"{workload.name}.csv")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"wrote {golden / (workload.name + '.csv')}")


if __name__ == "__main__":
    main()
