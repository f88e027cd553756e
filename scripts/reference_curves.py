"""Record seed-independent reference curves of the shipped scenarios.

Usage, from any directory:

    python3 scripts/reference_curves.py

It runs each shipped scenario (snr_sweep.yaml with its baseline,
altitude_sweep.yaml and altitude_sweep_symmetric.yaml) through the library,
imported from this checkout's src/, at master seeds 1-10 with 10^5 trials
each.  It writes every point's pooled mean and standard error over the
10^6 trials, with this command line and the commit, to
tests/data/reference_curves.json.  That file is check data for
test_acceptance.py::test_curves_match_seed_independent_reference, which
runs each scenario once at another seed and compares point by point.
Regenerate it only when the model changes on purpose (a formula, a
default, a shipped scenario), never for a change of draws or of seeding,
and say why in CHANGES.md.  It takes about 40 s on two cores.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIOS = ("snr_sweep", "altitude_sweep", "altitude_sweep_symmetric")
SEEDS = range(1, 11)
TRIALS = 10**5
OUTPUT = os.path.join(ROOT, "tests", "data", "reference_curves.json")


def pooled(curves) -> dict:
    """One curve's points pooled over runs at different seeds: the mean and
    standard error of all their valid trials together, from each run's
    means, standard errors and valid-trial count."""
    xs = curves[0].xs
    counts = np.array([TRIALS - c.trials_failed for c in curves], dtype=float)
    if any((c.xs != xs).any() for c in curves) or (counts < 2).any():
        raise SystemExit("error: runs differ in grid or have < 2 valid trials")
    means = np.array([c.mean_rates for c in curves])
    # Each run's sample variance back from its standard error.
    variances = np.array([c.std_errs for c in curves]) ** 2 * counts[:, None]
    total = counts.sum()
    mean = counts @ means / total
    spread = (counts - 1) @ variances + counts @ (means - mean) ** 2
    return {"xs": xs.tolist(), "mean": mean.tolist(),
            "std_err": np.sqrt(spread / (total - 1) / total).tolist(),
            "valid_trials": int(total)}


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    from helpers import scenario_curves
    runs = {}
    for name in SCENARIOS:
        path = os.path.join(ROOT, "scenarios", f"{name}.yaml")
        for seed in SEEDS:
            for curve, result in scenario_curves(path, TRIALS, seed).items():
                runs.setdefault(f"{name}/{curve}", []).append(result)
            print(f"{name}: seed {seed} done", flush=True)
    commit = subprocess.run(["git", "describe", "--always", "--dirty"],
                            cwd=ROOT, capture_output=True, text=True)
    record = {"command": "python3 scripts/reference_curves.py",
              "commit": commit.stdout.strip() or "unknown",
              "seeds": list(SEEDS), "trials_per_seed": TRIALS,
              "curves": {key: pooled(curves) for key, curves in runs.items()}}
    os.makedirs(os.path.dirname(OUTPUT), exist_ok=True)
    with open(OUTPUT, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(OUTPUT, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
