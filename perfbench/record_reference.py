"""Write the reference outputs the benchmark compares against.

Run from the root of a hapsim checkout, only when the benchmark's workloads
change or the program's numbers change on purpose:

    PYTHONPATH=src python3 perfbench/record_reference.py

For each workload it runs the CLI once at REFERENCE_SEED and
reference_trials and stores the CSV and the captured standard output
under perfbench/reference/.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile

from workloads import REFERENCE_SEED, WORKLOADS

import hapsim.cli


def main() -> int:
    ref_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
    os.makedirs(ref_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        for w in WORKLOADS.values():
            csv_path = os.path.join(tmp, f"{w.name}.csv")
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = hapsim.cli.main(w.argv(w.config_path(tmp), csv_path,
                                            w.reference_trials, REFERENCE_SEED))
            if rc != 0:
                print(f"error: {w.name} exited with code {rc}", file=sys.stderr)
                return 1
            with open(csv_path, encoding="utf-8") as src, \
                    open(os.path.join(ref_dir, f"{w.name}.csv"), "w",
                         encoding="utf-8", newline="\n") as dst:
                dst.write(src.read())
            with open(os.path.join(ref_dir, f"{w.name}.stdout"), "w",
                      encoding="utf-8", newline="\n") as dst:
                dst.write(buf.getvalue())
            print(f"{w.name}: {w.reference_trials} trials at seed {REFERENCE_SEED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
