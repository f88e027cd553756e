"""Sweep benchmark of the hapsim CLI: end-to-end metrics or a per-layer split.

Run from the root of a hapsim checkout:

    python3 perfbench/run.py --workload snr_baseline --seed 1 --seconds 25 --trace 0

--trace 0 prints the end-to-end metrics: median and 90th-percentile sweep
time, throughput, set-up time and peak RSS.  --trace 1 prints the
per-layer split of the same sweep.  Either way the outputs are checked, a
report goes to standard output, and the last line is one JSON object with
the keys correct, attempted, failed and metrics.  failed/attempted is the
failed ratio: CLI calls that exited non-zero or failed an output check.

Each run starts a fresh worker interpreter (worker.py) that imports hapsim
from the checkout's src/ and calls ``hapsim.cli.main`` in-process; --seed
is the CLI's --seed.  With --trace 0, set-up time is measured first by
starting fresh interpreters that import ``hapsim.cli``.

Times are scaled to a reference host speed (see worker.HostSpeed and
DEPENDENCIES_REF_S); the report also prints the unscaled medians.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from worker import HOST_REF_S, THREAD_VARS
from workloads import WORKLOADS

SETUP_PROBES = 5
# Set-up time is scaled like sweep time, but by a probe of the same kind:
# a fresh interpreter importing hapsim's third-party dependencies, which
# took DEPENDENCIES_REF_S on the host the benchmark was written on.
DEPENDENCIES = "numpy, scipy.linalg, yaml"
DEPENDENCIES_REF_S = 0.4
DEADLINE_S = 170.0  # the whole run, probes and worker together
OUT_DIR = ".perfbench_out"
MAX_PROBLEMS_SHOWN = 10


def worker_env(root: str, nproc: int) -> dict[str, str]:
    """hapsim from this checkout only; BLAS/OpenMP threads capped at nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for key in THREAD_VARS:
        try:
            wanted = int(env.get(key, nproc))
        except ValueError:
            wanted = nproc
        env[key] = str(max(1, min(wanted, nproc)))
    return env


def import_seconds(env: dict[str, str], modules: str, timeout: float) -> float:
    """Time from interpreter start until ``import <modules>`` has finished."""
    code = f"import {modules}, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"import {modules} failed (exit code {proc.returncode})")
    return seconds


def git_commit(root: str) -> str | None:
    """HEAD of the checkout when it is a git work tree; read from .git only."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def report(workload: str, args, result: dict) -> None:
    details = result["details"]
    prov = details["provenance"]
    print(f"perfbench workload={workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    n, beyond = details["samples"], details["samples_beyond_p90"]
    print(f"samples: {n} untraced sweeps of {prov['trials']} trials "
          f"({beyond} beyond p90)" + (f", {details['traced_samples']} traced"
                                     if "traced_samples" in details else ""))
    print(f"unscaled wall time: sweep median {details['raw_sweep_s']:.6g} s, "
          f"p90 {details['raw_sweep_p90_s']:.6g} s; host probe median "
          f"{details['host_probe_s']:.6g} s (times below are scaled to a "
          f"{HOST_REF_S:g} s probe)")
    if "raw_setup_s" in details:
        print(f"unscaled set-up time: median {details['raw_setup_s']:.6g} s "
              f"of {SETUP_PROBES} fresh interpreters")
    same, total = details["repeat_identical"]
    print(f"check: repeat byte-identical {same}/{total}; reference "
          f"(seed {prov['reference_seed']}, {prov['reference_trials']} trials) "
          f"byte-identical {details['reference_byte_identical']}/1")
    problems = details["problems"]
    for problem in problems[:MAX_PROBLEMS_SHOWN]:
        print(f"check: FAIL {problem}")
    if len(problems) > MAX_PROBLEMS_SHOWN:
        print(f"check: ... and {len(problems) - MAX_PROBLEMS_SHOWN} more")
    verdict = "pass" if result["correct"] else "FAIL"
    print(f"output check: {verdict}; failed_ratio {result['failed']}/{result['attempted']}"
          f" = {result['failed'] / result['attempted']:.6g}")
    if details.get("absent_boundaries"):
        print("absent boundaries (their metrics read 0): "
              + ", ".join(details["absent_boundaries"]))
    for name, m in result["metrics"].items():
        print(f"  {name:<30} {m['value']:>16.6g} {m['unit']}")
    if "kernels.input_mb" in result["metrics"]:
        print("kernels.input_mb is computed from the argument array sizes, not measured traffic")
    if args.trace == 1:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        parts = ("scenario.load_s", "channel.draw_s", "kernels.first_s", "kernels.all_s",
                 "simulator.rates_s", "simulator.self_s", "cli.self_s", "trace.unaccounted_s")
        print(f"layer medians sum to {sum(m[k] for k in parts):.6g} s against traced "
              f"sweep_s {m['trace.sweep_s']:.6g} s (unaccounted per call: "
              f"{m['trace.unaccounted_s']:.3g} s)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    t_start = time.perf_counter()

    def remaining() -> float:
        return max(1.0, DEADLINE_S - (time.perf_counter() - t_start))

    root = os.getcwd()
    workload = WORKLOADS[args.workload]
    needed = [os.path.join("src", "hapsim", "cli.py")]
    if workload.config is not None:
        needed.append(workload.config)
    missing = [p for p in needed if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print(f"error: not a hapsim checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = worker_env(root, nproc)
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    setup = []
    if args.trace == 0:
        try:
            for _ in range(SETUP_PROBES):
                setup.append((import_seconds(env, "hapsim.cli", remaining()),
                              import_seconds(env, DEPENDENCIES, remaining())))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: set-up probe: {exc}", file=sys.stderr)
            return 1

    here = os.path.dirname(os.path.abspath(__file__))
    cmd = [sys.executable, os.path.join(here, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=remaining())
    except subprocess.TimeoutExpired:
        print(f"error: run went over {DEADLINE_S:g} s", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    result["details"]["provenance"]["git_commit"] = git_commit(root)
    metrics = result["metrics"]
    if args.trace == 0:
        result["details"]["raw_setup_s"] = statistics.median(s for s, _ in setup)
        scaled = [s * DEPENDENCIES_REF_S / deps for s, deps in setup]
        metrics["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}

    report(args.workload, args, result)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
