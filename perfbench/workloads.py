"""Workload definitions of the sweep benchmark.

Each workload is one ``hapsim`` CLI sweep.  The timed calls run at
``trials`` so that a run window holds well over a hundred of them (the
90th percentile then has at least ten samples beyond it).  The reference
call runs once per run at ``reference_trials`` and REFERENCE_SEED; it is
compared against the committed CSV and, being the largest call, sets the
worker's peak RSS at a size where stored draws dominate the import.

Why these three:

* snr_baseline: the paper's SNR curve (shipped scenario, 3x3, A=4, baseline
  on).  Draw-bound: 15 scattering matrices per trial, all-stream kernel on
  the 9 direct links, largest memory per trial.
* altitude_crosscheck: the paper's optimal-altitude result.  Builds two
  ensembles (grid sweep plus golden-section search), 67 grid points, and
  uses only the first-stream kernel.
* array_kernels: 4 platforms x 4 ground stations with A = relay antennas = 9
  and all_streams, no baseline.  Linear algebra grows about cubically with
  the array size and draws about quadratically, so the all-stream kernel
  (one solve per column) dominates; no first-stream kernel runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

REFERENCE_SEED = 12345

# The array_kernels scenario is not shipped; the benchmark writes it out.
ARRAY_KERNELS_YAML = """\
num_haps: 4
num_gs: 4
antennas_per_node: 9
relay_antennas: 9
hap_altitude_m: 18000.0
relay_altitude_m: 17000.0
kappa_up_db: 30.0
kappa_down_db: 15.0
ref_gain_up: 2.89e+8
ref_gain_down: 2.89e+8
all_streams: true
sweep_variable: snr_db
sweep_start: 0.0
sweep_stop: 30.0
sweep_step: 2.5
trials: 1000
master_seed: 12345
include_baseline: false
"""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # CLI subcommand
    config: str | None      # shipped scenario path; None means generated
    flags: tuple[str, ...]  # extra CLI flags
    trials: int             # trials of each timed call
    reference_trials: int   # trials of the reference call
    grid: tuple[float, float, float]  # (start, stop, step) the CSV must cover

    @property
    def altitude(self) -> bool:
        return self.command == "altitude-sweep"

    def config_path(self, out_dir: str) -> str:
        """The scenario file, written into out_dir when it is generated."""
        if self.config is not None:
            return self.config
        path = os.path.join(out_dir, f"{self.name}.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(ARRAY_KERNELS_YAML)
        return path

    def argv(self, config: str, out: str, trials: int, seed: int) -> list[str]:
        return [self.command, "--config", config, "--out", out, *self.flags,
                "--trials", str(trials), "--seed", str(seed)]


WORKLOADS = {
    w.name: w for w in (
        Workload("snr_baseline", "snr-sweep", "scenarios/snr_sweep.yaml",
                 (), 500, 8000, (0.0, 30.0, 2.5)),
        Workload("altitude_crosscheck", "altitude-sweep",
                 "scenarios/altitude_sweep.yaml", ("--cross-check",),
                 600, 8000, (1000.0, 17500.0, 250.0)),
        Workload("array_kernels", "snr-sweep", None,
                 (), 250, 4000, (0.0, 30.0, 2.5)),
    )
}
