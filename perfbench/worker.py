"""Benchmark worker: one workload's CLI sweeps in a fresh interpreter.

run.py starts this file with PYTHONPATH set to the checkout's src/ and the
checkout as working directory.  It prints one JSON object as the last line
of its standard output: correct/attempted/failed, the metrics, and details
(checks, sample counts, provenance) for run.py to report.

Untraced (--trace 0): a small warm-up call, then timed ``cli.main`` calls
at the workload size until --seconds have passed, then one reference call
at REFERENCE_SEED.  Traced (--trace 1): the same, but the timed calls
alternate between untraced and traced, and the traced ones give the
per-layer split.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

import checks
import spans
from workloads import REFERENCE_SEED, WORKLOADS

WARMUP_TRIALS = 16
MIN_SAMPLES = 110     # nearest-rank p90 needs n >= 100 for ten samples beyond
MAX_SECONDS = 120.0   # hard cap on the timed loop, whatever MIN_SAMPLES says
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Median HostSpeed.probe() time on the 2-core host the benchmark was written
# on; scaled times read as seconds on that host.
HOST_REF_S = 0.016


def rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux: KiB


def cpu_s() -> float:
    return sum(r.ru_utime + r.ru_stime for r in
               (resource.getrusage(resource.RUSAGE_SELF),
                resource.getrusage(resource.RUSAGE_CHILDREN)))


def nearest_rank(samples: list[float], pct: float) -> float:
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


class HostSpeed:
    """Fixed numpy work timed after every sweep, to take host speed out of times.

    On a shared host, throughput drifts by tens of percent over seconds:
    CPU time per sweep moves with wall time, so the cause is not scheduling.
    The probe does the kinds of work a sweep does (seeded per-trial
    streams, batched small Hermitian eigenproblems and solves) and does not
    depend on hapsim, so the ratio sweep/probe holds to a few percent where
    raw times do not.  Every time reported is a wall time multiplied by
    HOST_REF_S / (the probe time next to it).
    """

    def __init__(self):
        import numpy as np
        self.np = np
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2500, 4, 4)) + 1j * rng.standard_normal((2500, 4, 4))
        self.gram = a.conj().swapaxes(-1, -2) @ a
        self.rhs = a[..., :1]
        self.samples: list[float] = []

    def probe(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        for t in range(250):
            seq = np.random.SeedSequence(1, spawn_key=(t,))
            np.random.default_rng(seq).standard_normal((2, 16))
        np.linalg.eigvalsh(self.gram)
        np.linalg.solve(self.gram, self.rhs)
        return time.perf_counter() - t0

    def factor(self) -> float:
        seconds = self.probe()
        self.samples.append(seconds)
        return HOST_REF_S / seconds


class Runner:
    """Invokes ``cli.main`` and checks every output it writes."""

    def __init__(self, workload, main, csv_path: str):
        self.workload = workload
        self.main = main
        self.csv_path = csv_path
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._verdicts: dict[tuple[str, str], list[str]] = {}
        self.first_output: tuple[str, str] | None = None
        self.repeats = 0
        self.repeats_identical = 0

    def invoke(self, argv: list[str], main=None) -> tuple[int, float, str, str]:
        """One CLI call: (exit code, seconds, csv text, stdout text)."""
        main = main or self.main
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed invocation, not the end of the run
                traceback.print_exc()
                rc = -1
            seconds = time.perf_counter() - t0
        self.attempted += 1
        try:
            with open(self.csv_path, encoding="utf-8") as fh:
                csv_text = fh.read()
            os.remove(self.csv_path)
        except OSError:
            csv_text = ""
        return rc, seconds, csv_text, buf.getvalue()

    def judge(self, rc: int, csv_text: str, stdout_text: str, extra=()) -> None:
        """Count a failure unless rc is 0 and the output passes every check."""
        key = (csv_text, stdout_text)
        if key not in self._verdicts:
            self._verdicts[key] = checks.invariants(self.workload, csv_text, stdout_text)
        problems = ([f"exit code {rc}"] if rc != 0 else []) + self._verdicts[key] + list(extra)
        if problems:
            self.failed += 1
            self.problems.extend(p for p in problems if p not in self.problems)

    def repeat(self, rc: int, csv_text: str, stdout_text: str) -> None:
        """A timed call: its output must be byte-identical to the first one's."""
        self.repeats += 1
        if self.first_output is None:
            self.first_output = (csv_text, stdout_text)
        same = (csv_text, stdout_text) == self.first_output
        self.repeats_identical += same
        self.judge(rc, csv_text, stdout_text,
                   [] if same else ["output differs from the first timed call"])


def source_digest(src: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def optional_module(name: str):
    """A hapsim module that a later version may have removed, else None."""
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def provenance(workload, seed: int, src: str, kernels) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    try:
        backend = kernels.active_backend()
    except (AttributeError, RuntimeError, ValueError) as exc:
        backend = f"absent ({type(exc).__name__})"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "kernels.active_backend": backend,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "seed": seed,
        "trials": workload.trials,
        "warmup_trials": WARMUP_TRIALS,
        "reference_seed": REFERENCE_SEED,
        "reference_trials": workload.reference_trials,
        "source_sha256": source_digest(src),
    }


def timed_loop(seconds: float, step) -> None:
    """Call step(i) until `seconds` passed and MIN_SAMPLES calls were made."""
    t_start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - t_start
        if elapsed >= MAX_SECONDS or (elapsed >= seconds and i >= MIN_SAMPLES):
            return
        step(i)
        i += 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    root = os.getcwd()
    src = os.path.join(root, "src")

    import hapsim
    import hapsim.cli
    simulator = optional_module("hapsim.simulator")
    kernels = optional_module("hapsim.kernels")
    rss_import_mb = rss_mb(resource.RUSAGE_SELF)
    if os.path.commonpath([os.path.abspath(hapsim.__file__), src]) != src:
        print(f"error: hapsim imported from {hapsim.__file__}, not {src}", file=sys.stderr)
        return 2

    config = workload.config_path(args.out_dir)
    csv_path = os.path.join(args.out_dir, f"{workload.name}.csv")
    run = Runner(workload, hapsim.cli.main, csv_path)
    timed = workload.argv(config, csv_path, workload.trials, args.seed)

    rc, _, csv_text, _ = run.invoke(workload.argv(config, csv_path, WARMUP_TRIALS, args.seed))
    if rc != 0 or not csv_text:
        run.failed += 1
        run.problems.append(f"warm-up call failed (exit code {rc})")

    host = HostSpeed()
    untraced: list[float] = []  # host-scaled seconds of untraced timed calls
    raw: list[float] = []       # the same calls' wall seconds
    metrics: dict[str, tuple[float, str]] = {}
    details: dict = {}

    def timed_call() -> tuple[float, float]:
        """One untraced timed call: (host-speed factor, CPU seconds of the call)."""
        c0 = cpu_s()
        rc, seconds, csv_text, out = run.invoke(timed)
        cpu = cpu_s() - c0
        factor = host.factor()
        run.repeat(rc, csv_text, out)
        raw.append(seconds)
        untraced.append(seconds * factor)
        return factor, cpu

    if args.trace == 0:
        timed_loop(args.seconds, lambda _i: timed_call())
    else:
        tracer = spans.Tracer()
        boundaries = spans.Boundaries(tracer, hapsim.cli, simulator, kernels)
        traced_main = tracer.wrap("cli.main", hapsim.cli.main)
        traced: list[float] = []
        cpu: list[float] = []
        layers: dict[str, list[float]] = {}
        counts: dict | None = None

        def step(i):
            nonlocal counts
            if i % 2 == 0:
                factor, seconds = timed_call()
                cpu.append(seconds * factor)
                return
            tracer.reset()
            with boundaries:
                rc, seconds, csv_text, out = run.invoke(timed, traced_main)
            factor = host.factor()
            run.repeat(rc, csv_text, out)
            traced.append(seconds * factor)
            for name, value in spans.layer_metrics(tracer, seconds).items():
                scaled = value / factor if name.endswith("_per_s") else value * factor
                layers.setdefault(name, []).append(scaled)
            got = spans.exact_counts(tracer)
            if counts is None:
                counts = got
            elif got != counts:
                run.problems.append(f"exact counts vary between calls: {counts} then {got}")

        timed_loop(args.seconds, step)
        absent = list(boundaries.absent)
        if tracer.counts["draw_matrices_unknown"]:
            absent.append("TrialEnsemble(cfg, trials, include_baseline) arguments")
        for name, values in layers.items():
            unit = "1/s" if name.endswith("_per_s") else "s"
            metrics[name] = (statistics.median(values), unit)
        for name, value in (counts or {}).items():
            unit = {"kernels.input_mb": "MiB", "kernels.singular_ratio": "ratio"}.get(name, "count")
            metrics[name] = (value, unit)
        traced_s = statistics.median(traced)
        untraced_s = statistics.median(untraced)
        metrics["trace.sweep_s"] = (traced_s, "s")
        metrics["trace.untraced_sweep_s"] = (untraced_s, "s")
        metrics["trace_overhead_s"] = (traced_s - untraced_s, "s")
        metrics["process.cpu_s"] = (statistics.median(cpu), "s")
        details["absent_boundaries"] = absent
        details["traced_samples"] = len(traced)

    # The reference call comes last so that its large allocations cannot
    # disturb the timed calls; it sets the worker's peak RSS.
    rc, _, ref_csv, ref_out = run.invoke(
        workload.argv(config, csv_path, workload.reference_trials, REFERENCE_SEED))
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "reference", f"{workload.name}.csv"), encoding="utf-8") as fh:
        want_csv = fh.read()
    with open(os.path.join(here, "reference", f"{workload.name}.stdout"), encoding="utf-8") as fh:
        want_out = fh.read()
    run.judge(rc, ref_csv, ref_out, checks.against_reference(ref_csv, ref_out, want_csv, want_out))
    peak_mb = max(rss_mb(resource.RUSAGE_SELF), rss_mb(resource.RUSAGE_CHILDREN))

    if args.trace == 0:
        sweep_s = statistics.median(untraced)
        metrics["sweep_s"] = (sweep_s, "s")
        metrics["sweep_p90_s"] = (nearest_rank(untraced, 90.0), "s")
        metrics["trials_per_s"] = (workload.trials / sweep_s, "1/s")
        metrics["peak_rss_mb"] = (peak_mb, "MiB")
    else:
        metrics["process.rss_over_import_mb"] = (peak_mb - rss_import_mb, "MiB")

    details.update({
        "samples": len(untraced),
        "raw_sweep_s": statistics.median(raw),
        "raw_sweep_p90_s": nearest_rank(raw, 90.0),
        "host_probe_s": statistics.median(host.samples),
        "samples_beyond_p90": len(untraced) - math.ceil(0.9 * len(untraced)),
        "repeat_identical": [run.repeats_identical, run.repeats],
        "reference_byte_identical": int((ref_csv, ref_out) == (want_csv, want_out)),
        "problems": run.problems,
        "provenance": provenance(workload, args.seed, src, kernels),
    })
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": details,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
