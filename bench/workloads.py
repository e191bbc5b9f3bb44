"""Benchmark workloads: one CLI subcommand plus a config generated from a seed.

Each workload stresses a different layer of the TPQ pipeline (random circuit,
filter e^{-beta H/2}, measurement, average over R).  Only
`random_circuit.seed` depends on the benchmark seed; every other field is
fixed, so the same seed always yields the same config bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

DEFAULT_SEED = 0
OUTPUT_NAME = "out.csv"

# the CLI's default 20-point grid 0.1 ... 2.0, written out so that a change of
# the CLI default does not silently change the workload
BETA_GRID = [round(0.1 * k, 10) for k in range(1, 21)]


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    body: dict          # config sections other than random_circuit and output

    @property
    def pairs(self) -> int:
        """Filtered (state, beta or epsilon) pairs one job computes."""
        if self.subcommand == "dilation-scan":
            scan = self.body["dilation"]
            return scan["R"] * len(scan["epsilons"])
        est = self.body["estimate"]
        return est["R"] * len(est["betas"])


WORKLOADS = {w.name: w for w in (
    Workload(
        "exact-chain10", "sweep-beta",
        {"model": {"dimension": 1, "extents": [10]},
         "backend": {"kind": "exact"},
         "estimate": {"betas": BETA_GRID, "R": 10}}),
    Workload(
        "qite-chain6", "sweep-beta",
        {"model": {"dimension": 1, "extents": [6]},
         "backend": {"kind": "qite", "n_steps": 5},
         "estimate": {"betas": [0.5, 1.0], "R": 2}}),
    Workload(
        "fable-chain6", "sweep-beta",
        {"model": {"dimension": 1, "extents": [6]},
         "backend": {"kind": "fable"},
         "estimate": {"betas": [0.5, 1.0], "R": 8}}),
    Workload(
        "dilation-grid3x3", "dilation-scan",
        {"model": {"dimension": 2, "extents": [3, 3]},
         "dilation": {"beta": 0.5, "epsilons": [0.001, 0.01, 0.1, 1.0],
                      "R": 25}}),
)}


def make_config(workload: Workload, seed: int) -> dict:
    """The JSON config one job of `workload` receives for benchmark `seed`."""
    config = json.loads(json.dumps(workload.body))  # deep copy
    config["random_circuit"] = {"depth": 20, "entangler": "cz",
                                "seed": seed % (1 << 32)}
    config["output"] = {"path": OUTPUT_NAME}
    return config


def config_text(workload: Workload, seed: int) -> str:
    return json.dumps(make_config(workload, seed), sort_keys=True, indent=1) + "\n"
