"""Shared test utilities.

The one network builder the tests use (make_cfg over LAYOUT), seeded
random matrices with conditioning control, kernel inputs that carry given
matrices unchanged, an ensemble's failed trials on a hop, the eigenvalue
condition number the kernels' gate computes, a bootstrap interval the
tests use on the simulator's output, and the curves a shipped scenario's
sweep command computes, which the reference-curve check and
scripts/reference_curves.py share.
"""

from __future__ import annotations

import numpy as np

from hapsim.network import NetworkConfig, ScenarioLayout
from hapsim.scenario import load_scenario
from hapsim.simulator import (SNR_DB, SumRateCurve, TrialEnsemble,
                              run_altitude_sweep, run_snr_sweep)

LAYOUT = ScenarioLayout(hap_altitude_m=18000.0, relay_altitude_m=9000.0)


def make_cfg(m: int = 3, n: int = 3, antennas: int | None = None, **kwargs
             ) -> NetworkConfig:
    """M x N network over LAYOUT; its nodes default to the relay's
    (M-1)(N-1) antennas, so make_cfg() is 3 x 3 with A = 4."""
    relay = max(1, (m - 1) * (n - 1))
    return NetworkConfig(
        num_haps=m, num_gs=n,
        antennas_per_node=relay if antennas is None else antennas,
        layout=LAYOUT, **kwargs)


def random_complex(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    re = rng.standard_normal((rows, cols))
    im = rng.standard_normal((rows, cols))
    return (re + 1j * im) / np.sqrt(2.0)


def well_conditioned(rng: np.random.Generator, rows: int, cols: int,
                     cond_max: float = 1e6) -> np.ndarray:
    """Rejection-sample a complex Gaussian matrix with cond below cond_max."""
    while True:
        h = random_complex(rng, rows, cols)
        s = np.linalg.svd(h, compute_uv=False)
        if s[-1] > 0.0 and s[0] / s[-1] < cond_max:
            return h


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(random_complex(rng, n, n))
    d = np.diag(r)
    return q * (d / np.abs(d))


def kernel_inputs(hs) -> tuple[np.ndarray, ...]:
    """Kernel arguments whose mixed channels are exactly the matrices hs.

    One trial per matrix, one link, a zero line-of-sight matrix and weights
    a = 0, b = 1, so the kernel's H = a * los + b * nlos is each matrix
    unchanged.
    """
    hs = np.asarray(hs, dtype=np.complex128)
    return np.zeros(hs.shape[1:]), hs[:, None], np.zeros(1), np.ones(1)


def failed_trials(ens: TrialEnsemble, hop: int) -> np.ndarray:
    """(T,) bool: whether each trial of ens is singular on some link of hop,
    where the ensemble stores NaN forms."""
    return np.isnan(ens._q[hop]).any(axis=0)


def gram_condition(h) -> np.ndarray:
    """cond(H^H H) of each (.., r, c) matrix from eigvalsh; inf unless positive.

    The same Gram product and eigenvalue ratio as the kernels' gate, so
    is_singular of this value is the flag the kernels must report.
    """
    h = np.asarray(h, dtype=np.complex128)
    ev = np.linalg.eigvalsh(np.conj(h).swapaxes(-1, -2) @ h)
    lmin = ev[..., 0]
    safe = lmin > 0.0
    return np.where(safe, ev[..., -1] / np.where(safe, lmin, 1.0), np.inf)


def bootstrap_mean_ci(samples: np.ndarray, confidence: float = 0.95,
                      n_resamples: int = 2000, seed: int = 0
                      ) -> tuple[float, float]:
    """Percentile bootstrap interval for the mean of the finite samples."""
    x = np.asarray(samples, dtype=float)
    x = x[np.isfinite(x)]
    if x.size < 2:
        raise ValueError("need at least 2 finite samples")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, x.size, size=(int(n_resamples), x.size))
    means = x[idx].mean(axis=1)
    alpha = 0.5 * (1.0 - confidence)
    return float(np.quantile(means, alpha)), float(np.quantile(means, 1.0 - alpha))


def scenario_curves(path, trials: int, master_seed: int
                    ) -> dict[str, SumRateCurve]:
    """The curves of the scenario file at path, by name, at the given
    trials and seed: "relay" and, where the file asks for it, "baseline"
    from an SNR sweep, or "relay" from an altitude sweep."""
    scenario = load_scenario(str(path), trials=trials, master_seed=master_seed)
    net, spec = scenario.network, scenario.sweep
    if spec.variable == SNR_DB:
        result = run_snr_sweep(net, spec, scenario.include_baseline)
        return {"relay": result.relay,
                **({"baseline": result.baseline} if result.baseline else {})}
    return {"relay": run_altitude_sweep(TrialEnsemble(net, trials, master_seed),
                                        spec)}
