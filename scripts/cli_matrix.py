"""Run a fixed matrix of hapsim CLI calls and keep every run's outputs.

Usage, from any directory:

    python3 scripts/cli_matrix.py OUTDIR

Each run calls ``python -m hapsim.cli`` with hapsim imported from this
checkout's src/, in OUTDIR as working directory, so that every path the
CLI prints is relative and the same for any checkout.  OUTDIR/<run>/ then
holds the run's out.csv (when it wrote one), stdout, stderr and exit code.
Each run also has the exit code it should give; the script exits 1 when
any run gives another, else 0.  Two checkouts give the same behaviour
when ``diff -r`` finds nothing between their OUTDIRs:

    python3 old/scripts/cli_matrix.py /tmp/old-matrix
    python3 new/scripts/cli_matrix.py /tmp/new-matrix
    diff -r /tmp/old-matrix /tmp/new-matrix

The scenarios under OUTDIR/inputs are written from their parsed mappings,
so the comparison sees a scenario's values, not its comments.

The matrix: snr-sweep on snr_sweep.yaml and on the benchmark's generated
array scenario, altitude-sweep --cross-check on altitude_sweep.yaml and
optimal-altitude on altitude_sweep_symmetric.yaml, each at 1, 999 and 5000
trials with seeds 7 and 0; snr-sweep and altitude-sweep --cross-check at
20000 trials, which take several sweep passes; an snr-sweep on
snr_sweep.yaml with all_streams on, where the uplink, downlink and direct
links share one kernel call per chunk; an snr-sweep whose hops are all
singular (Rician factor 200 dB on both), which exits 3; two snr-sweeps
whose uplink SNR overflows float64 where its trials are singular, which
exit 2, not 3: every uplink singular (200 dB) with ref_gain_up 1e200, and
only the second platform's uplink singular (3, 200 and 3 dB) with
ref_gain_up 3.16e158, where the other two overflow at 30 dB only; and an
altitude-sweep --cross-check on altitude_sweep.yaml with the second
platform's uplink at 90 dB, where 57 of 999 trials are singular, so both
the grid means and the golden-section search drop failed trials.  It
also runs geometry on the three shipped scenarios and the array scenario,
and two input errors that exit 2: an snr-sweep on snr_sweep.yaml with
relay_antennas 5, a downlink wider than tall, and an altitude-sweep
--cross-check on altitude_sweep.yaml with sweep_stop 17999.9, whose
search bracket ends 0.1 m below the platforms, inside the far field.
Then geometry on snr_sweep.yaml (baseline on, as shipped) with the
platforms at 1.9e154 m and the relay at 0.95e154 m, where only the direct
link's square overflows float64, so snr-sweep rejects it and geometry
reports far_field_ok=no.  And an snr-sweep on snr_sweep.yaml with a
second trials line appended, a key given twice, which exits 2, and an
optimal-altitude --tol inf on altitude_sweep_symmetric.yaml, which exits
2 before any draw, and an optimal-altitude --tol 16500 at 50 trials on
altitude_sweep.yaml, a tol as wide as the bracket, where the search still
takes its first step, and an altitude-sweep --cross-check at 50 trials on
altitude_sweep.yaml with a 1e-12 m step from 10000 m, a grid below float64
resolution whose points coincide, which exits 2 as it loads.  Two runs
check the --trials/--seed overrides: an snr-sweep on snr_sweep.yaml with
--trials 0, which exits 2 with the file key's "sweep: " message, and one
on a copy of snr_sweep.yaml with trials 0 run with --trials 7 --seed 7,
where the flag replaces the file's value before it is checked, so it
exits 0.  Three snr-sweeps on snr_sweep.yaml with --out '', an empty path,
check that the input error comes first and exits 2, not 4: one with the
relay at 0.2 m, so its downlink is inside the far field, one whose
sweep starts at -4000 dB, too small for a linear value, and one whose
sweep stops at 4000 dB, where 3085 dB is too large for one.  Last, the
command line itself: --help of the CLI and of each
subcommand, which exit 0, and a call with no arguments, which prints the
usage and exits 2.
Every run has COLUMNS=80 in its environment, so the help and usage text
wraps the same in any terminal.
"""

from __future__ import annotations

import os
import subprocess
import sys

import yaml

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def array_scenario_text() -> str:
    """perfbench's generated array scenario, read from its workload file."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import ARRAY_KERNELS_YAML
    return ARRAY_KERNELS_YAML


def write_inputs(inputs: str) -> None:
    """The shipped scenarios, the array scenario, ten variants of
    snr_sweep.yaml, all streams (baseline on, as shipped), all-singular,
    two whose singular uplinks overflow, a wide downlink, a direct link
    whose square overflows, zero trials, a relay inside the downlink's far
    field, a sweep from -4000 dB and a sweep to 4000 dB,
    and three of altitude_sweep.yaml, one with some singular trials, one
    whose sweep stops inside the platforms' far field and one whose grid
    points coincide in float64, and snr_sweep.yaml with its trials key
    given twice.  Each scenario and variant is written as yaml.safe_dump of
    its parsed mapping, so a comment-only edit of a shipped scenario
    changes no file under OUTDIR."""
    os.makedirs(inputs)
    texts = {"array": array_scenario_text()}
    for name, base, changes in (
            *((name, name, {}) for name in (
                "snr_sweep", "altitude_sweep", "altitude_sweep_symmetric")),
            ("all_streams", "snr_sweep", dict(all_streams=True)),
            ("singular", "snr_sweep", dict(kappa_up_db=200.0,
                                           kappa_down_db=200.0)),
            ("singular_overflow", "snr_sweep",
             dict(kappa_up_db=200.0, ref_gain_up=1.0e+200)),
            ("singular_link_overflow", "snr_sweep",
             dict(kappa_up_db=[3.0, 200.0, 3.0], ref_gain_up=3.16e+158)),
            ("wide_downlink", "snr_sweep", dict(relay_antennas=5)),
            ("direct_overflow", "snr_sweep",
             dict(hap_altitude_m=1.9e154, relay_altitude_m=0.95e154)),
            ("zero_trials", "snr_sweep", dict(trials=0)),
            ("near_field", "snr_sweep", dict(relay_altitude_m=0.2)),
            ("db_underflow", "snr_sweep", dict(sweep_start=-4000.0)),
            ("db_overflow", "snr_sweep", dict(sweep_stop=4000.0)),
            ("partly_singular", "altitude_sweep",
             dict(kappa_up_db=[30.0, 90.0, 30.0])),
            ("stop_in_far_field", "altitude_sweep",
             dict(sweep_stop=17999.9)),
            ("grid_below_resolution", "altitude_sweep",
             dict(sweep_start=10000.0, sweep_stop=10000.00000000001,
                  sweep_step=1.0e-12))):
        with open(os.path.join(ROOT, "scenarios", f"{base}.yaml"),
                  encoding="utf-8") as fh:
            mapping = yaml.safe_load(fh)
        texts[name] = yaml.safe_dump({**mapping, **changes}, sort_keys=False)
    # yaml.safe_dump cannot write a key twice, so the line goes in as text.
    texts["duplicate_key"] = texts["snr_sweep"] + "trials: 7\n"
    for name, text in texts.items():
        with open(os.path.join(inputs, f"{name}.yaml"), "w",
                  encoding="utf-8") as fh:
            fh.write(text)


def runs() -> list[tuple[str, list[str], int]]:
    """(name, CLI arguments, exit code it should give) of every run."""
    cases = [("snr", ["snr-sweep", "--config", "inputs/snr_sweep.yaml"]),
             ("array", ["snr-sweep", "--config", "inputs/array.yaml"]),
             ("altitude", ["altitude-sweep", "--config",
                           "inputs/altitude_sweep.yaml", "--cross-check"]),
             ("optimal", ["optimal-altitude", "--config",
                          "inputs/altitude_sweep_symmetric.yaml"])]
    out = []
    for name, argv in cases:
        for trials in (1, 999, 5000):
            for seed in (7, 0):
                out.append((f"{name}-t{trials}-s{seed}",
                            [*argv, "--trials", str(trials), "--seed",
                             str(seed)], 0))
    for name, argv in cases[0], cases[2]:
        out.append((f"{name}-t20000-s5",
                    [*argv, "--trials", "20000", "--seed", "5"], 0))
    out.append(("all-streams-t999-s7",
                ["snr-sweep", "--config", "inputs/all_streams.yaml",
                 "--trials", "999", "--seed", "7"], 0))
    out.append(("singular-t200-s1",
                ["snr-sweep", "--config", "inputs/singular.yaml",
                 "--trials", "200", "--seed", "1"], 3))
    for name in ("singular_overflow", "singular_link_overflow"):
        out.append((name.replace("_", "-"),
                    ["snr-sweep", "--config", f"inputs/{name}.yaml"], 2))
    out.append(("partly-singular-t999-s7",
                ["altitude-sweep", "--config", "inputs/partly_singular.yaml",
                 "--cross-check", "--trials", "999", "--seed", "7"], 0))
    for name in ("snr_sweep", "altitude_sweep", "altitude_sweep_symmetric",
                 "array"):
        out.append((f"geometry-{name.replace('_', '-')}",
                    ["geometry", "--config", f"inputs/{name}.yaml"], 0))
    out.append(("wide-downlink",
                ["snr-sweep", "--config", "inputs/wide_downlink.yaml"], 2))
    out.append(("stop-in-far-field",
                ["altitude-sweep", "--config", "inputs/stop_in_far_field.yaml",
                 "--cross-check"], 2))
    out.append(("geometry-direct-overflow",
                ["geometry", "--config", "inputs/direct_overflow.yaml"], 0))
    out.append(("duplicate-key",
                ["snr-sweep", "--config", "inputs/duplicate_key.yaml"], 2))
    out.append(("optimal-tol-inf",
                ["optimal-altitude", "--config",
                 "inputs/altitude_sweep_symmetric.yaml", "--tol", "inf"], 2))
    out.append(("optimal-tol-wide",
                ["optimal-altitude", "--config", "inputs/altitude_sweep.yaml",
                 "--tol", "16500", "--trials", "50"], 0))
    out.append(("grid-below-resolution",
                ["altitude-sweep", "--config",
                 "inputs/grid_below_resolution.yaml", "--cross-check",
                 "--trials", "50"], 2))
    out.append(("override-trials-zero",
                ["snr-sweep", "--config", "inputs/snr_sweep.yaml",
                 "--trials", "0"], 2))
    out.append(("override-replaces-file",
                ["snr-sweep", "--config", "inputs/zero_trials.yaml",
                 "--trials", "7", "--seed", "7"], 0))
    for name in ("near_field", "db_underflow", "db_overflow"):
        out.append((f"{name.replace('_', '-')}-empty-out",
                    ["snr-sweep", "--config", f"inputs/{name}.yaml",
                     "--out", ""], 2))
    out.append(("help", ["--help"], 0))
    for command in ("geometry", "snr-sweep", "altitude-sweep",
                    "optimal-altitude"):
        out.append((f"help-{command}", [command, "--help"], 0))
    out.append(("no-arguments", [], 2))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    outdir = os.path.abspath(argv[0])
    if os.path.exists(outdir):
        print(f"error: {outdir} exists; give a new directory", file=sys.stderr)
        return 2
    write_inputs(os.path.join(outdir, "inputs"))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               COLUMNS="80")
    mismatches = 0
    for name, args, want in runs():
        run_dir = os.path.join(outdir, name)
        os.makedirs(run_dir)
        if args[:1] in (["snr-sweep"], ["altitude-sweep"]) and "--out" not in args:
            args = [*args, "--out", os.path.join(name, "out.csv")]
        proc = subprocess.run([sys.executable, "-m", "hapsim.cli", *args],
                              cwd=outdir, env=env, capture_output=True)
        for key, data in (("stdout", proc.stdout), ("stderr", proc.stderr),
                          ("exit", f"{proc.returncode}\n".encode())):
            with open(os.path.join(run_dir, key), "wb") as fh:
                fh.write(data)
        print(f"{name}: exit {proc.returncode}")
        if proc.returncode != want:
            print(f"{name}: exit {proc.returncode}, expected {want}",
                  file=sys.stderr)
            mismatches += 1
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
