"""Monte Carlo sweep orchestration.

Seeding contract: every trial owns an independent random stream derived
from (master_seed, trial index) alone, so the same scattering draws are
reused at every sweep point (common random numbers).  Comparisons along a
sweep are therefore pathwise: per-trial rates are monotone in power, curve
argmaxes are stable, and results are independent of evaluation order or
parallel scheduling.

The per-trial draw order inside a stream is fixed: the M uplink matrices,
then the N downlink matrices, then the M*N direct matrices (only when the
baseline is requested, and after the relay draws so relay results do not
depend on whether the baseline is enabled).

A TrialEnsemble runs the zero-forcing kernels once per configuration.  The
resulting quadratic forms are invariant under uniform scaling of a channel
matrix, so transmit power and the 1/d^2 path factors multiply in afterwards
and each sweep point costs only scalar arithmetic over the stored forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .capacity import NetworkConfig
from .channel import db_to_linear, los_channel, rayleigh_channel
from .geometry import FAR_FIELD_FACTOR, LinkGeometry

_LN2 = math.log(2.0)

SNR_DB = "snr_db"
RELAY_ALTITUDE_M = "relay_altitude_m"
SWEEP_VARIABLES = (SNR_DB, RELAY_ALTITUDE_M)

DEFAULT_TRIALS = 1000
DEFAULT_MASTER_SEED = 12345
DEFAULT_ALTITUDE_STEP_M = 250.0
DEFAULT_ALTITUDE_BAND_M = (1000.0, 17500.0)


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional sweep definition with its Monte Carlo budget."""

    variable: str
    start: float
    stop: float
    step: float
    trials: int = DEFAULT_TRIALS
    master_seed: int = DEFAULT_MASTER_SEED

    def __post_init__(self) -> None:
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(
                f"variable must be one of {SWEEP_VARIABLES}, got {self.variable!r}"
            )
        for key in ("start", "stop", "step"):
            v = float(getattr(self, key))
            if not math.isfinite(v):
                raise ValueError(f"{key} must be finite, got {v!r}")
            object.__setattr__(self, key, v)
        if not self.start < self.stop:
            raise ValueError(
                f"start must be < stop, got ({self.start!r}, {self.stop!r})"
            )
        if not self.step > 0.0:
            raise ValueError(f"step must be positive, got {self.step!r}")
        if self.num_points < 2:
            raise ValueError(
                f"step {self.step!r} yields fewer than 2 points over "
                f"[{self.start!r}, {self.stop!r}]"
            )
        if int(self.trials) < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials!r}")
        object.__setattr__(self, "trials", int(self.trials))
        seed = int(self.master_seed)
        if not 0 <= seed < 2**64:
            raise ValueError(f"master_seed must fit in 64 bits, got {seed!r}")
        object.__setattr__(self, "master_seed", seed)

    @property
    def num_points(self) -> int:
        return int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1

    def grid(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.num_points)


@dataclass(frozen=True)
class CurvePoint:
    """One sweep sample; mean_rate is NaN when every trial failed."""

    x: float
    mean_rate: float
    std_err: float
    trials_failed: int


@dataclass(frozen=True)
class SumRateCurve:
    """Sweep samples sorted by x, plus the argmax location."""

    points: tuple[CurvePoint, ...]

    def __post_init__(self) -> None:
        xs = [p.x for p in self.points]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("points must be strictly ascending in x")

    @property
    def argmax_x(self) -> float:
        """x of the largest mean rate; ties resolve to the smallest x."""
        best_x, best = math.nan, -math.inf
        for p in self.points:
            if math.isfinite(p.mean_rate) and p.mean_rate > best:
                best_x, best = p.x, p.mean_rate
        return best_x

    @property
    def xs(self) -> np.ndarray:
        return np.array([p.x for p in self.points])

    @property
    def mean_rates(self) -> np.ndarray:
        return np.array([p.mean_rate for p in self.points])

    @property
    def std_errs(self) -> np.ndarray:
        return np.array([p.std_err for p in self.points])

    @property
    def trials_failed(self) -> np.ndarray:
        return np.array([p.trials_failed for p in self.points])


@dataclass(frozen=True)
class SnrSweepResult:
    """Relay curve with an optional time-sharing baseline over the same draws."""

    relay: SumRateCurve
    baseline: SumRateCurve | None = None


def trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    """Random stream of one trial, identical at every sweep point."""
    seq = np.random.SeedSequence(int(master_seed), spawn_key=(int(trial),))
    return np.random.default_rng(seq)


def _aggregate(x: float, rates: np.ndarray) -> CurvePoint:
    finite = rates[np.isfinite(rates)]
    failed = int(rates.size - finite.size)
    if finite.size == 0:
        return CurvePoint(float(x), math.nan, 0.0, failed)
    if finite.size == 1:
        return CurvePoint(float(x), float(finite[0]), 0.0, failed)
    std_err = float(finite.std(ddof=1) / math.sqrt(finite.size))
    return CurvePoint(float(x), float(finite.mean()), std_err, failed)


class TrialEnsemble:
    """Channel draws and zero-forcing quadratic forms for a fixed scenario.

    The kernels run once at construction; relay_rates and baseline_rates
    then evaluate any (power, distance) operating point as scalar
    arithmetic over the stored forms.  Failed (singular) trials surface as
    NaN rates so callers can count and exclude them.
    """

    def __init__(self, cfg: NetworkConfig, trials: int, master_seed: int,
                 include_baseline: bool = False):
        if int(trials) < 1:
            raise ValueError(f"trials must be >= 1, got {trials!r}")
        self.cfg = cfg
        self.trials = int(trials)
        self.master_seed = int(master_seed)
        self.has_baseline = bool(include_baseline)

        m, n = cfg.num_haps, cfg.num_gs
        a_node, r_ant = cfg.antennas_per_node, cfg.relay_antennas
        lay = cfg.layout
        aoa = math.radians(cfg.aoa_deg)
        aod = math.radians(cfg.aod_deg)

        def los(distance_m: float, rows: int, cols: int) -> np.ndarray:
            geom = LinkGeometry(distance_m, cfg.wavelength_m, aoa, aod,
                                cfg.rx_spacing_m, cfg.tx_spacing_m)
            return los_channel(geom, rows, cols)

        los_up = np.broadcast_to(los(lay.d_sr_m, r_ant, a_node),
                                 (m, r_ant, a_node))
        los_dn = np.broadcast_to(los(lay.d_rd_m, a_node, r_ant),
                                 (n, a_node, r_ant))

        nlos_up = np.empty((self.trials, m, r_ant, a_node), dtype=np.complex128)
        nlos_dn = np.empty((self.trials, n, a_node, r_ant), dtype=np.complex128)
        nlos_dir = (np.empty((self.trials, m * n, a_node, a_node),
                             dtype=np.complex128) if include_baseline else None)
        for t in range(self.trials):
            rng = trial_rng(self.master_seed, t)
            for i in range(m):
                nlos_up[t, i] = rayleigh_channel(r_ant, a_node, rng)
            for j in range(n):
                nlos_dn[t, j] = rayleigh_channel(a_node, r_ant, rng)
            if include_baseline:
                for ij in range(m * n):
                    nlos_dir[t, ij] = rayleigh_channel(a_node, a_node, rng)

        def weights(kappas_db: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
            k = np.array([db_to_linear(v) for v in kappas_db])
            return np.sqrt(k / (1.0 + k)), np.sqrt(1.0 / (1.0 + k))

        a_up, b_up = weights(cfg.kappa_up_db)
        a_dn, b_dn = weights(cfg.kappa_down_db)
        relay_kernel = (kernels.all_stream_quadforms if cfg.all_streams
                        else kernels.first_stream_quadforms)
        q_up, s_up = relay_kernel(los_up, nlos_up, a_up, b_up)
        q_dn, s_dn = relay_kernel(los_dn, nlos_dn, a_dn, b_dn)
        if not cfg.all_streams:
            q_up = q_up[:, :, None]
            q_dn = q_dn[:, :, None]
        self._q_up, self._q_dn = q_up, q_dn
        self._relay_failed = s_up.any(axis=1) | s_dn.any(axis=1)
        self._gain_up = np.array(cfg.ref_gain_up)
        self._gain_dn = np.array(cfg.ref_gain_down)

        if include_baseline:
            los_dir = np.broadcast_to(los(lay.d_sd_m, a_node, a_node),
                                      (m * n, a_node, a_node))
            a_dir, b_dir = weights(cfg.kappa_direct_db)
            a_dir = np.repeat(a_dir, n)
            b_dir = np.repeat(b_dir, n)
            q_dir, s_dir = kernels.all_stream_quadforms(
                los_dir, nlos_dir, a_dir, b_dir)
            self._q_dir = q_dir
            self._baseline_failed = s_dir.any(axis=1)
            self._gain_dir = np.repeat(np.array(cfg.ref_gain_direct), n)

    def _path_factor(self, gains: np.ndarray, distance_m: float) -> np.ndarray:
        if self.cfg.snr_reference == "post_path_loss":
            return np.ones_like(gains)
        return (gains / float(distance_m) ** 2) ** 2

    def _check_distance(self, name: str, value: float) -> None:
        if not float(value) > 0.0:
            raise ValueError(f"{name} must be positive, got {value!r}")
        margin = FAR_FIELD_FACTOR * max(self.cfg.rx_spacing_m,
                                        self.cfg.tx_spacing_m)
        if not float(value) > margin:
            raise ValueError(
                f"{name} = {value!r} m is inside the far-field limit {margin:g} m"
            )

    def relay_rates(self, snr_scale_up: float, snr_scale_dn: float,
                    d_sr_m: float, d_rd_m: float) -> np.ndarray:
        """Per-trial relay sum-rates; NaN where a trial was singular."""
        if not float(snr_scale_up) > 0.0 or not float(snr_scale_dn) > 0.0:
            raise ValueError("snr scales must be positive")
        self._check_distance("d_sr_m", d_sr_m)
        self._check_distance("d_rd_m", d_rd_m)
        fu = float(snr_scale_up) * self._path_factor(self._gain_up, d_sr_m)
        fd = float(snr_scale_dn) * self._path_factor(self._gain_dn, d_rd_m)
        c1 = np.log1p(fu[None, :, None] * self._q_up).sum(axis=(1, 2)) / _LN2
        c2 = np.log1p(fd[None, :, None] * self._q_dn).sum(axis=(1, 2)) / _LN2
        rates = self.cfg.dof_prefactor * np.minimum(c1, c2)
        return np.where(self._relay_failed, np.nan, rates)

    def baseline_rates(self, snr_scale: float) -> np.ndarray:
        """Per-trial time-sharing baseline rates over the direct links."""
        if not self.has_baseline:
            raise RuntimeError("ensemble was built without baseline draws")
        if not float(snr_scale) > 0.0:
            raise ValueError("snr scale must be positive")
        d_sd = self.cfg.layout.d_sd_m
        self._check_distance("d_sd_m", d_sd)
        f = float(snr_scale) * self._path_factor(self._gain_dir, d_sd)
        rate = np.log1p(f[None, :, None] * self._q_dir).sum(axis=(1, 2)) / _LN2
        rate /= self.cfg.num_haps * self.cfg.num_gs
        return np.where(self._baseline_failed, np.nan, rate)


def _config_scales(cfg: NetworkConfig) -> tuple[float, float]:
    """Per-hop snr scales power/(noise * N_T) from the configured powers."""
    up = cfg.hap_power / (cfg.noise_power * cfg.uplink_streams())
    dn = cfg.relay_power / (cfg.noise_power * cfg.downlink_streams())
    return up, dn


def _check_altitude_band(cfg: NetworkConfig, lo: float, hi: float) -> None:
    lay = cfg.layout
    if not lay.gs_altitude_m < lo < hi < lay.hap_altitude_m:
        raise ValueError(
            f"altitude range [{lo:g}, {hi:g}] must lie strictly inside "
            f"({lay.gs_altitude_m:g}, {lay.hap_altitude_m:g})"
        )
    margin = FAR_FIELD_FACTOR * max(cfg.rx_spacing_m, cfg.tx_spacing_m)
    if lo - lay.gs_altitude_m <= margin or lay.hap_altitude_m - hi <= margin:
        raise ValueError(
            f"altitude range [{lo:g}, {hi:g}] leaves a link shorter than "
            f"the far-field limit {margin:g} m"
        )


def run_snr_sweep(cfg: NetworkConfig, spec: SweepSpec,
                  include_baseline: bool = False) -> SnrSweepResult:
    """Mean sum-rate versus transmit SNR at the configured layout.

    The swept value in dB is the per-hop scale E/(noise * N_T) applied to
    both hops (and to the baseline when enabled) ahead of path loss, or in
    place of it under snr_reference = "post_path_loss".
    """
    if spec.variable != SNR_DB:
        raise ValueError(f"spec.variable must be {SNR_DB!r}, got {spec.variable!r}")
    ens = TrialEnsemble(cfg, spec.trials, spec.master_seed,
                        include_baseline=include_baseline)
    lay = cfg.layout
    relay_pts = []
    base_pts = []
    for x in spec.grid():
        gamma = db_to_linear(x)
        relay_pts.append(
            _aggregate(x, ens.relay_rates(gamma, gamma, lay.d_sr_m, lay.d_rd_m)))
        if include_baseline:
            base_pts.append(_aggregate(x, ens.baseline_rates(gamma)))
    baseline = SumRateCurve(tuple(base_pts)) if include_baseline else None
    return SnrSweepResult(SumRateCurve(tuple(relay_pts)), baseline)


def run_altitude_sweep(cfg: NetworkConfig, spec: SweepSpec) -> SumRateCurve:
    """Mean relay sum-rate versus relay altitude at the configured powers."""
    if spec.variable != RELAY_ALTITUDE_M:
        raise ValueError(
            f"spec.variable must be {RELAY_ALTITUDE_M!r}, got {spec.variable!r}"
        )
    grid = spec.grid()
    _check_altitude_band(cfg, float(grid[0]), float(grid[-1]))
    ens = TrialEnsemble(cfg, spec.trials, spec.master_seed)
    scale_up, scale_dn = _config_scales(cfg)
    lay = cfg.layout
    points = []
    for alt in grid:
        rates = ens.relay_rates(scale_up, scale_dn,
                                lay.hap_altitude_m - float(alt),
                                float(alt) - lay.gs_altitude_m)
        points.append(_aggregate(alt, rates))
    return SumRateCurve(tuple(points))


def find_optimal_altitude(cfg: NetworkConfig, lo: float, hi: float, tol: float,
                          *, trials: int = DEFAULT_TRIALS,
                          master_seed: int = DEFAULT_MASTER_SEED) -> float:
    """Golden-section search for the relay altitude maximizing mean sum-rate.

    The objective reuses one fixed trial ensemble for every evaluation, so
    it is deterministic in altitude and the search result is reproducible.
    Returns the interval midpoint once the bracket is narrower than tol.
    """
    lo, hi, tol = float(lo), float(hi), float(tol)
    if not lo < hi:
        raise ValueError(f"lo must be < hi, got ({lo!r}, {hi!r})")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    _check_altitude_band(cfg, lo, hi)
    ens = TrialEnsemble(cfg, trials, master_seed)
    scale_up, scale_dn = _config_scales(cfg)
    lay = cfg.layout

    def objective(alt: float) -> float:
        rates = ens.relay_rates(scale_up, scale_dn,
                                lay.hap_altitude_m - alt,
                                alt - lay.gs_altitude_m)
        finite = rates[np.isfinite(rates)]
        return float(finite.mean()) if finite.size else -math.inf

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = objective(c), objective(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = objective(d)
    return 0.5 * (a + b)


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
