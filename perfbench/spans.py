"""Layer spans recorded from outside hapsim, by wrapping its public entry points.

``cli`` binds the simulator functions and ``load_scenario`` by name, so those
are wrapped on ``hapsim.cli``; the simulator calls ``kernels.*`` through the
module, so the kernels are wrapped on ``hapsim.kernels``.  A boundary that a
later version of hapsim no longer has is reported as absent: the metrics
that depend on it read 0 and its time counts to the enclosing span.

``geometry`` is left out: it is scalar set-up and takes a negligible share.
``zfcore`` and ``capacity`` are not on the CLI sweep path, so they go
unmeasured.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter, defaultdict


class Tracer:
    """Span stack plus per-call totals of inclusive time, self time and counts."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, seconds spent in child spans]
        self.reset()

    def reset(self) -> None:
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def in_span(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def wrap(self, name: str, fn, on_return=None):
        """fn timed as span ``name``; on_return(args, kwargs, result) counts work."""
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            self.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += dt
                self.inclusive[name] += dt
                self.self_time[name] += dt - frame[1]
                self.calls[name] += 1
            if on_return is not None:
                on_return(args, kwargs, result)
            return result
        return traced


class Boundaries:
    """The wrapped entry points; ``with boundaries:`` traces the calls inside."""

    def __init__(self, tracer: Tracer, cli, simulator, kernels):
        ensemble_cls = getattr(simulator, "TrialEnsemble", None)
        ensemble_sig = None
        if ensemble_cls is not None and "__init__" in vars(ensemble_cls):
            ensemble_sig = inspect.signature(ensemble_cls.__init__)

        def on_ensemble(args, kwargs, _result):
            try:
                bound = ensemble_sig.bind(*args, **kwargs)
                cfg = bound.arguments["cfg"]
                trials = int(bound.arguments["trials"])
                links = cfg.num_haps + cfg.num_gs
            except (TypeError, KeyError, AttributeError):
                tracer.counts["draw_matrices_unknown"] += 1
                return
            if bound.arguments.get("include_baseline", False):
                links += cfg.num_haps * cfg.num_gs
            tracer.counts["draw_matrices"] += trials * links

        def on_kernel(args, kwargs, result):
            los = kwargs["los"] if "los" in kwargs else args[0]
            nlos = kwargs["nlos"] if "nlos" in kwargs else args[1]
            trials, links = nlos.shape[:2]
            tracer.counts["matrices"] += trials * links
            tracer.counts["input_bytes"] += los.nbytes + nlos.nbytes
            tracer.counts["singular"] += int(result[1].sum())

        def on_rates(_args, _kwargs, _result):
            if tracer.in_span("simulator.golden"):
                tracer.counts["golden_evals"] += 1

        boundaries = [
            (cli, "hapsim.cli", "load_scenario", "scenario.load", None),
            (cli, "hapsim.cli", "run_snr_sweep", "simulator.sweep", None),
            (cli, "hapsim.cli", "run_altitude_sweep", "simulator.sweep", None),
            (cli, "hapsim.cli", "find_optimal_altitude", "simulator.golden", None),
            (ensemble_cls, "TrialEnsemble", "__init__", "simulator.ensemble", on_ensemble),
            (ensemble_cls, "TrialEnsemble", "relay_rates", "simulator.rates", on_rates),
            (ensemble_cls, "TrialEnsemble", "baseline_rates", "simulator.rates", on_rates),
            (kernels, "hapsim.kernels", "first_stream_quadforms", "kernels.first", on_kernel),
            (kernels, "hapsim.kernels", "all_stream_quadforms", "kernels.all", on_kernel),
        ]
        self.patches = []
        self.absent = []
        for owner, owner_name, attr, span, hook in boundaries:
            if owner is None or attr not in vars(owner):
                self.absent.append(f"{owner_name}.{attr}")
                continue
            original = vars(owner)[attr]
            self.patches.append((owner, attr, original, tracer.wrap(span, original, hook)))

    def __enter__(self) -> "Boundaries":
        for owner, attr, _original, traced in self.patches:
            setattr(owner, attr, traced)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original, _traced in self.patches:
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer figures of one traced ``cli.main`` call lasting wall_s."""
    inc, own, counts = tracer.inclusive, tracer.self_time, tracer.counts
    draw_s = own["simulator.ensemble"]
    kernel_s = inc["kernels.first"] + inc["kernels.all"]
    layers = {
        "scenario.load_s": inc["scenario.load"],
        "channel.draw_s": draw_s,
        "kernels.first_s": inc["kernels.first"],
        "kernels.all_s": inc["kernels.all"],
        "simulator.rates_s": inc["simulator.rates"],
        "simulator.self_s": own["simulator.sweep"] + own["simulator.golden"],
        "cli.self_s": own["cli.main"],
    }
    m = dict(layers)
    m["trace.unaccounted_s"] = wall_s - sum(layers.values())
    m["simulator.ensemble_s"] = inc["simulator.ensemble"]
    m["simulator.golden_s"] = inc["simulator.golden"]
    m["channel.draw_matrices_per_s"] = counts["draw_matrices"] / draw_s if draw_s > 0 else 0.0
    m["kernels.matrices_per_s"] = counts["matrices"] / kernel_s if kernel_s > 0 else 0.0
    return m


def exact_counts(tracer: Tracer) -> dict[str, float]:
    """Counts that must repeat exactly for the same code, seed and size."""
    calls, counts = tracer.calls, tracer.counts
    matrices = counts["matrices"]
    return {
        "simulator.ensembles": calls["simulator.ensemble"],
        "channel.draw_matrices": counts["draw_matrices"],
        "kernels.first_calls": calls["kernels.first"],
        "kernels.all_calls": calls["kernels.all"],
        "kernels.matrices": matrices,
        "kernels.input_mb": counts["input_bytes"] / 2**20,
        "kernels.singular_ratio": counts["singular"] / matrices if matrices else 0.0,
        "simulator.rate_evals": calls["simulator.rates"],
        "simulator.golden_evals": counts["golden_evals"],
    }
