"""Monte Carlo sweep orchestration.

Seeding contract: every trial owns an independent random stream derived
from (master_seed, trial index) alone, so the same scattering draws are
reused at every sweep point (common random numbers).  Comparisons along a
sweep are therefore pathwise: per-trial rates are monotone in power, curve
argmaxes are stable, and results do not depend on evaluation order.  Each
trial takes one standard-normal fill from its stream (streams.trial_rng),
laid out in _hops() order; streams fills a chunk's rows at once.

A TrialEnsemble runs the zero-forcing kernels once per configuration, on
chunks of as many trials as fit _CHUNK_DRAWS draws, with one kernel call
per chunk for each run of hops that share a matrix shape and a kernel
(_runs), and keeps only the quadratic forms, NaN on a singular link,
trial-last: one row of T forms per link and stream.  The forms are
invariant under uniform scaling of a channel matrix, so transmit power and
path loss (amplitude gain/d^2, so an SNR falls as d^-4) multiply in
afterwards; neither the draws nor network.los_channel see a distance.  A
sweep evaluates its grid in passes of as many points as fit _CHUNK_DRAWS
rates, one rate call per pass giving one row of per-trial rates per
point; one rule, _budget_slices, cuts both the chunks and the passes.
One pass loop, _curves, serves every curve and frees each pass's
rows before the next call, so memory grows with the stored forms alone.
Operating points reach the hop rates along one checked path:
TrialEnsemble._checked_rates tests every hop's scales, distances and
overflow, against each stored row's largest form, before _hop_rate sums.

One reduction, _valid_trials, cuts rows of per-trial rates to their valid
trials for _curves and for the golden-section objective (_mean_relay_rate)
alike, so the search's value at a grid point is that point's curve mean,
bit for bit.  The altitude functions take their ensemble as an argument
and their rates from one altitude map, _altitude_rates, so
altitude-sweep --cross-check refines the grid argmax on the grid's draws.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels, streams
from .network import (NetworkConfig, _choice, _finite, _flag, _integer,
                      _number, check_far_field, db_to_linear, los_channel)

_LN2 = math.log(2.0)
# Scales two standard normals to the planes of a CN(0, 1) entry.  numpy
# divides a complex array by sqrt(2) as a multiply by this, so the bits are
# those of that division.
_INV_SQRT2 = 1.0 / np.sqrt(2.0)

SNR_DB = "snr_db"
RELAY_ALTITUDE_M = "relay_altitude_m"
SWEEP_VARIABLES = (SNR_DB, RELAY_ALTITUDE_M)

DEFAULT_TRIALS = 1000
DEFAULT_MASTER_SEED = 12345

# Points a sweep grid may hold, checked before any is allocated: its grid
# and each curve column take 8 MB at this size.
MAX_SWEEP_POINTS = 10**6

# Draws per chunk and rates per sweep pass (1 MiB of float64); any size gives
# the same results, and this one keeps the kernels' temporaries in cache.
_CHUNK_DRAWS = 2**17


def _trial_budget(trials: int, master_seed: int) -> tuple[int, int]:
    """(trials, master_seed) as ints; ValueError as network's counts, or for
    a value outside the seeded range."""
    trials, seed = _integer("trials", trials), _integer("master_seed", master_seed)
    if not 1 <= trials <= streams.MAX_TRIALS:
        raise ValueError(f"trials must be in [1, 2**32], got {trials!r}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"master_seed must fit in 64 bits, got {seed!r}")
    return trials, seed


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
        _choice("variable", self.variable, SWEEP_VARIABLES)
        for key in ("start", "stop", "step"):
            object.__setattr__(self, key, _finite(key, getattr(self, key)))
        if not self.start < self.stop:
            raise ValueError(
                f"start must be < stop, got ({self.start!r}, {self.stop!r})"
            )
        if not self.step > 0.0:
            raise ValueError(f"step must be positive, got {self.step!r}")
        if not (math.isfinite((self.stop - self.start) / self.step)
                and self.num_points <= MAX_SWEEP_POINTS):
            raise ValueError(
                f"step {self.step!r} yields too many points to count over "
                f"[{self.start!r}, {self.stop!r}]; a sweep has at most "
                f"{MAX_SWEEP_POINTS} points"
            )
        if self.num_points < 2:
            raise ValueError(
                f"step {self.step!r} yields fewer than 2 points over "
                f"[{self.start!r}, {self.stop!r}]"
            )
        # Rounding can merge neighbouring points only where the step is
        # within a few float64 spacings of the grid's largest magnitude, so
        # the grid is built only then.
        if (self.step <= 4 * np.spacing(max(abs(self.start), abs(self.stop)))
                and (np.diff(self.grid()) <= 0.0).any()):
            raise ValueError(
                f"step {self.step!r} is below float64 resolution over "
                f"[{self.start!r}, {self.stop!r}]: grid points coincide"
            )
        trials, seed = _trial_budget(self.trials, self.master_seed)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "master_seed", seed)

    @property
    def num_points(self) -> int:
        return int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1

    def grid(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.num_points)


@dataclass(frozen=True, eq=False)
class SumRateCurve:
    """A sweep as columns: the points xs, strictly ascending, with each
    point's mean rate and its standard error (1-D float64 arrays of one
    length), and the count of failed trials.  Singular trials do not depend
    on the operating point, so trials_failed is one count for the whole
    curve.  A mean is NaN, and its std error 0, where every trial failed."""

    xs: np.ndarray
    mean_rates: np.ndarray
    std_errs: np.ndarray
    trials_failed: int

    def __post_init__(self) -> None:
        for key in ("xs", "mean_rates", "std_errs"):  # xs first
            column = np.asarray(getattr(self, key), dtype=float)
            object.__setattr__(self, key, column)
            if column.shape != (self.xs.size,):
                raise ValueError("xs, mean_rates and std_errs must be 1-D of "
                                 f"one length, got {key} of shape {column.shape}")
        if not (np.diff(self.xs) > 0.0).all():
            raise ValueError("xs must be strictly ascending")
        failed = _integer("trials_failed", self.trials_failed)
        object.__setattr__(self, "trials_failed", failed)
        if failed < 0 or not (self.std_errs >= 0.0).all():
            raise ValueError("trials_failed and every std_err must be >= 0")

    @property
    def argmax_x(self) -> float:
        """x of the largest finite mean rate; ties resolve to the smallest
        x, and it is NaN when no mean is finite."""
        finite = np.isfinite(self.mean_rates)
        if not finite.any():
            return math.nan
        return float(self.xs[np.where(finite, self.mean_rates, -np.inf).argmax()])


@dataclass(frozen=True)
class SnrSweepResult:
    """Relay curve with an optional time-sharing baseline over the same draws."""

    relay: SumRateCurve
    baseline: SumRateCurve | None = None


def _budget_slices(count: int, per_item: int) -> Iterator[slice]:
    """Consecutive slices of count items, each at least one item and at most
    _CHUNK_DRAWS values at per_item values an item: an ensemble's chunks of
    trials and a sweep's passes of grid points."""
    step = max(1, _CHUNK_DRAWS // per_item)
    return (slice(lo, lo + step) for lo in range(0, count, step))


def _operating_points(*values) -> tuple[bool, list[np.ndarray]]:
    """values broadcast to 1-D float64 arrays by np.broadcast_arrays, and
    whether all were scalars.

    Each value must hold integers or floats: a bool, a string or any other
    object raises ValueError, as do a value of more than one axis and
    lengths that do not broadcast.
    """
    arrays = [np.asarray(v) for v in values]
    for v, a in zip(values, arrays):
        if a.dtype.kind not in "iuf":
            raise ValueError(f"operating points must be numbers, got {v!r}")
    if any(a.ndim > 1 for a in arrays):
        raise ValueError("operating points must be scalars or 1-D arrays")
    arrays = np.broadcast_arrays(*(a.astype(float, copy=False) for a in arrays))
    return arrays[0].ndim == 0, [a.reshape(-1) for a in arrays]


def _valid_trials(rates: np.ndarray) -> tuple[np.ndarray, int]:
    """Rows (points, trials) of rates, NaN on the same (failed) trials, cut
    to their valid trials, and how many: a C-contiguous copy, which numpy
    sums per row as it would sum that row alone, or as given when none or
    all are valid."""
    finite = np.isfinite(rates[0])
    n = int(np.count_nonzero(finite))
    if 0 < n < finite.size:
        rates = np.compress(finite, rates, axis=1)
    return rates, n


def _curves(grid: np.ndarray, trials: int,
            *rates_of: Callable[[slice], np.ndarray]) -> list[SumRateCurve]:
    """One SumRateCurve over grid per rates_of, in a single pass loop.

    rates_of[i](part) returns curve i's rows (points, trials) of per-trial
    rates at grid[part]; each pass calls them in order and reduces their
    _valid_trials to a mean and std per row.  Each call's rows are freed
    before the next.
    """
    means = np.empty((len(rates_of), len(grid)))
    std_errs = np.zeros_like(means)
    failed = [0] * len(rates_of)
    for part in _budget_slices(len(grid), trials):
        for i, rates_at in enumerate(rates_of):
            rates, n = _valid_trials(rates_at(part))
            failed[i] = trials - n
            means[i, part] = rates.mean(axis=1) if n else math.nan
            if n > 1:
                std_errs[i, part] = rates.std(axis=1, ddof=1) / math.sqrt(n)
            del rates
    return [SumRateCurve(grid, *columns)
            for columns in zip(means, std_errs, failed)]


class _Hop(NamedTuple):
    """One kind of link: its links share a line-of-sight matrix and a kernel."""

    distance: str                 # ScenarioLayout property holding the length
    snr_keys: str                 # scenario keys that set the hop's SNR
    links: int
    shape: tuple[int, int]        # (receive, transmit) antennas of every link
    span: slice                   # the hop's columns of a trial's fill
    los: np.ndarray               # the shape's line-of-sight matrix
    a: np.ndarray                 # per-link sqrt(k/(1+k)), k the Rician factor
    b: np.ndarray                 # per-link sqrt(1/(1+k))
    ref_gain: np.ndarray          # per-link reference gain
    all_streams: bool             # every column counts, not just the first


_UP, _DOWN, _DIRECT = range(3)


def _hops(cfg: NetworkConfig, include_baseline: bool) -> tuple[_Hop, ...]:
    """The hops of a trial ensemble, in the per-trial draw order.

    Each trial's fill holds every link of each hop in turn: the M uplink
    matrices (platform i to relay), then the N downlink matrices (relay to
    ground station j), then, only with the baseline and after the relay
    draws so that relay results do not depend on it, the M*N direct
    matrices (platform i to ground station j at index i*N + j, with
    platform i's Rician factor and gain).  A link takes 2*r*c values: the
    real parts of its r x c entries, then the imaginary parts.
    """
    m, n = cfg.num_haps, cfg.num_gs
    a_node, r_ant = cfg.antennas_per_node, cfg.relay_antennas
    kinds = [("d_sr_m", "hap_power/noise_power, ref_gain_up", m, (r_ant, a_node),
              cfg.kappa_up_db, cfg.ref_gain_up, cfg.all_streams),
             ("d_rd_m", "relay_power/noise_power, ref_gain_down", n,
              (a_node, r_ant), cfg.kappa_down_db, cfg.ref_gain_down,
              cfg.all_streams)]
    if include_baseline:
        kinds.append(("d_sd_m", "hap_power/noise_power, ref_gain_direct",
                      m * n, (a_node, a_node),
                      np.repeat(cfg.kappa_direct_db, n),
                      np.repeat(cfg.ref_gain_direct, n), True))
    hops, width = [], 0
    for distance, keys, links, shape, kappa_db, ref_gain, all_streams in kinds:
        span = slice(width, width + 2 * links * math.prod(shape))
        width = span.stop
        k = np.array([db_to_linear(v) for v in kappa_db])
        hops.append(_Hop(distance, keys, links, shape, span,
                         los_channel(cfg, *shape),
                         np.sqrt(k / (1.0 + k)), np.sqrt(1.0 / (1.0 + k)),
                         np.array(ref_gain), all_streams))
    return tuple(hops)


def _runs(hops: tuple[_Hop, ...]) -> tuple[tuple[_Hop, ...], ...]:
    """The hops grouped, in hop order, into runs of consecutive hops that
    share a matrix shape and a kernel, as the relay hops do in every CLI
    sweep, with the baseline under all_streams.  A chunk makes one kernel
    call for the whole run, on their shape's line-of-sight matrix, its hops'
    links joined in hop order; their draws are adjacent in a trial's fill."""
    return tuple(tuple(run) for _, run in itertools.groupby(
        hops, key=lambda hop: (hop.shape, hop.all_streams)))


def _draw_chunk(runs: tuple[tuple[_Hop, ...], ...], master_seed: int, lo: int,
                q_out: list[np.ndarray]) -> None:
    """Draw trials lo..lo+n-1 and reduce them into hop i's view q_out[i]
    (forms, n), trial-last, NaN on a singular link.  Each trial's fill, in
    hop order, becomes the CN(0, 1) scattering matrices of every link.  The
    fill is freed before the first kernel call, and no reference to a run's
    scattering matrices is kept past its call, so the kernel can free them
    once it has mixed H (where the interpreter hands the argument over, as
    CPython 3.11 does)."""
    n = q_out[0].shape[1]
    x = np.empty((n, runs[-1][-1].span.stop))
    streams.fill_trials(master_seed, lo, x)
    nlos = []
    for run in runs:
        shape = (n, sum(hop.links for hop in run), 2, *run[0].shape)
        z = x[:, run[0].span.start:run[-1].span.stop].reshape(shape)
        nlos.append(np.empty(z[:, :, 0].shape, dtype=np.complex128))
        np.multiply(z[:, :, 0], _INV_SQRT2, out=nlos[-1].real)
        np.multiply(z[:, :, 1], _INV_SQRT2, out=nlos[-1].imag)
    del x, z
    views = iter(q_out)
    for run in runs:
        kernel = (kernels.all_stream_quadforms if run[0].all_streams
                  else kernels.first_stream_quadforms)
        a, b = (np.concatenate(parts)
                for parts in zip(*((hop.a, hop.b) for hop in run)))
        q, singular = kernel(run[0].los, nlos.pop(0), a, b)
        q[singular] = np.nan
        bounds = np.cumsum([hop.links for hop in run])[:-1]
        for q_hop, q_view in zip(np.split(q, bounds, axis=1), views):
            q_view[...] = q_hop.reshape(n, -1).T


class TrialEnsemble:
    """Zero-forcing quadratic forms of a fixed scenario's trial draws.

    Construction runs _draw_chunk chunk by chunk and keeps only q (float64,
    one row of T per link and stream, link-major), NaN on a singular link,
    so relay_rates and baseline_rates give failed (singular) trials NaN rates.
    """

    def __init__(self, cfg: NetworkConfig, trials: int, master_seed: int,
                 include_baseline: bool = False):
        self.cfg = cfg
        self.trials, self.master_seed = _trial_budget(trials, master_seed)
        self.has_baseline = _flag("include_baseline", include_baseline)
        self._hops = _hops(cfg, self.has_baseline)
        runs = _runs(self._hops)
        self._q = [np.empty((h.links * (h.shape[1] if h.all_streams else 1),
                             self.trials)) for h in self._hops]
        for part in _budget_slices(self.trials, self._hops[-1].span.stop):
            _draw_chunk(runs, self.master_seed, part.start,
                        [q[:, part] for q in self._q])
        # Each stored row's largest form, a singular one as 0.
        self._top = [np.fmax.reduce(q, axis=1, initial=0.0) for q in self._q]

    def _hop_rate(self, index: int, f: np.ndarray) -> np.ndarray:
        """Per-trial sum of log2(1 + f q) over one hop's stored rows q.

        f holds one factor per operating point and row, (P, K), checked by
        _checked_rates, and the result one row of per-trial sums per point,
        (P, T).  Each stored row adds its log1p to every point's row, so a
        trial's sum runs over its forms in index order at any P; a NaN
        (singular) form makes it NaN.
        """
        q = self._q[index]
        rate = np.empty((len(f), self.trials))
        part = np.empty_like(rate) if len(q) > 1 else None
        for k, row in enumerate(q):
            out = part if k else rate
            np.multiply(f[:, k, None], row, out=out)
            np.log1p(out, out=out)
            if k:
                rate += part
        rate /= _LN2
        return rate

    def _checked_rates(self, *points) -> list[np.ndarray]:
        """Each point's (P, T) hop sums from _hop_rate, once all are checked.

        A point is a (hop index, scales, distances) triple of float64 arrays
        of one length P.  Hop by hop, in the given order, every scale must be
        positive and every distance pass check_far_field, under either
        snr_reference.  Then an SNR past float64 (a factor times its row's
        largest form, a singular one as 0, not finite) raises a ValueError
        naming the first such point and its first such hop, so it is not
        mistaken for a singular trial, and _curves names the same point and
        hop at any pass size, as --trials sets it.
        """
        factors = []
        with np.errstate(over="ignore", invalid="ignore"):
            for index, snr_scale, distance_m in points:
                hop, top = self._hops[index], self._top[index]
                if not (snr_scale > 0.0).all():
                    raise ValueError("snr scale must be positive")
                square = np.array([check_far_field(self.cfg, hop.distance, d)
                                   for d in distance_m])
                path = (np.ones((len(square), hop.links))
                        if self.cfg.snr_reference == "post_path_loss"
                        else (hop.ref_gain / square[:, None]) ** 2)
                f = np.repeat(snr_scale[:, None] * path, len(top) // hop.links, axis=1)
                factors.append((index, f, ~np.isfinite(f * top).all(axis=1)))
        bad = np.array([b for _, _, b in factors])
        if bad.any():
            hop = self._hops[points[bad[:, bad.any(axis=0).argmax()].argmax()][0]]
            raise ValueError(f"SNR on {hop.distance} overflows float64: lower "
                             f"{hop.snr_keys} or the swept SNR")
        return [self._hop_rate(index, f) for index, f, _ in factors]

    def relay_rates(self, snr_scale_up, snr_scale_dn, d_sr_m,
                    d_rd_m) -> np.ndarray:
        """Per-trial relay sum-rates; NaN where a trial was singular.

        The arguments are scalars or 1-D arrays of operating points and
        broadcast together: scalars give (T,) rates, arrays one row of
        per-trial rates per point, (P, T).
        """
        scalar, (up, dn, d_sr, d_rd) = _operating_points(
            snr_scale_up, snr_scale_dn, d_sr_m, d_rd_m)
        c1, c2 = self._checked_rates((_UP, up, d_sr), (_DOWN, dn, d_rd))
        rates = np.minimum(c1, c2, out=c1)
        rates *= self.cfg.dof_prefactor
        return rates[0] if scalar else rates

    def baseline_rates(self, snr_scale) -> np.ndarray:
        """Per-trial time-sharing baseline rates over the direct links.

        snr_scale is a scalar, giving (T,) rates, or a 1-D array of
        operating points, giving one row of per-trial rates per point.
        """
        if not self.has_baseline:
            raise RuntimeError("ensemble was built without baseline draws")
        scalar, (scale, d_sd) = _operating_points(snr_scale,
                                                  self.cfg.layout.d_sd_m)
        (rate,) = self._checked_rates((_DIRECT, scale, d_sd))
        rate /= self.cfg.num_haps * self.cfg.num_gs
        return rate[0] if scalar else rate


def check_sweep_variable(spec: SweepSpec, variable: str) -> None:
    """Raise ValueError unless spec sweeps the given variable."""
    if spec.variable != variable:
        raise ValueError(
            f"spec.variable must be {variable!r}, got {spec.variable!r}")


def check_altitude_bracket(cfg: NetworkConfig, lo: float, hi: float,
                           tol: float) -> tuple[float, float, float]:
    """The relay altitude bracket [lo, hi] and resolution tol as floats;
    ValueError unless they are numbers and usable.

    It needs lo < hi, a positive, finite tol (the golden-section stopping
    width or the grid step), a bracket strictly between the ground stations
    and the platforms that leaves each hop past the far-field limit and its
    square within float64, and a positive, finite snr scale on each hop.
    Callers that build a trial ensemble check first, so bad input costs no
    draws.
    """
    lo, hi, tol = _number("lo", lo), _number("hi", hi), _number("tol", tol)
    if not lo < hi:
        raise ValueError(f"lo must be < hi, got ({lo!r}, {hi!r})")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    tol = _finite("tol", tol)
    lay = cfg.layout
    if not lay.gs_altitude_m < lo < hi < lay.hap_altitude_m:
        raise ValueError(
            f"altitude range [{lo:g}, {hi:g}] must lie strictly inside "
            f"({lay.gs_altitude_m:g}, {lay.hap_altitude_m:g})"
        )
    # Each hop at its shortest, the far-field test's case, then at its
    # longest, the square's.
    check_far_field(cfg, "d_rd_m", lo - lay.gs_altitude_m)
    check_far_field(cfg, "d_sr_m", lay.hap_altitude_m - hi)
    check_far_field(cfg, "d_rd_m", hi - lay.gs_altitude_m)
    check_far_field(cfg, "d_sr_m", lay.hap_altitude_m - lo)
    _altitude_scales(cfg)
    return lo, hi, tol


def _altitude_scales(cfg: NetworkConfig) -> tuple[float, float]:
    """Each relay hop's snr scale power/(noise * N_T), N_T the configured
    streams_per_tx or else the hop's column count; ValueError at 0 or inf."""
    up = cfg.hap_power / (cfg.noise_power
                          * (cfg.streams_per_tx or cfg.antennas_per_node))
    dn = cfg.relay_power / (cfg.noise_power
                            * (cfg.streams_per_tx or cfg.relay_antennas))
    for scale, hop, keys in ((up, "d_sr_m", "hap_power/noise_power"),
                             (dn, "d_rd_m", "relay_power/noise_power")):
        if scale == 0.0:
            raise ValueError(f"SNR scale on {hop} underflows to 0: raise {keys}")
        if math.isinf(scale):
            raise ValueError(f"SNR scale on {hop} overflows float64: lower {keys}")
    return up, dn


def _altitude_rates(ens: TrialEnsemble) -> Callable[[np.ndarray], np.ndarray]:
    """ens.relay_rates at the configured powers, as a map of relay altitudes."""
    lay = ens.cfg.layout
    up, dn = _altitude_scales(ens.cfg)
    return lambda alt: ens.relay_rates(up, dn, lay.hap_altitude_m - alt,
                                       alt - lay.gs_altitude_m)


def _mean_relay_rate(ens: TrialEnsemble) -> Callable[[float], float]:
    """The mean relay rate at one altitude, the bits run_altitude_sweep
    reports there: one relay_rates call, cut by _valid_trials as _curves
    cuts a pass.  NaN when no trial is valid."""
    rates = _altitude_rates(ens)

    def mean_rate(alt: float) -> float:
        rows, n = _valid_trials(rates(alt)[None])
        return float(rows[0].mean()) if n else math.nan
    return mean_rate


def check_snr_hops(cfg: NetworkConfig, include_baseline: bool) -> None:
    """Raise ValueError unless include_baseline is a bool and every hop
    run_snr_sweep draws passes check_far_field at the layout's distance, in
    _hops() order: d_sr_m and d_rd_m, then d_sd_m with the baseline."""
    include_baseline = _flag("include_baseline", include_baseline)
    for name in ("d_sr_m", "d_rd_m", "d_sd_m")[:3 if include_baseline else 2]:
        check_far_field(cfg, name, getattr(cfg.layout, name))


def check_snr_sweep(cfg: NetworkConfig, spec: SweepSpec,
                    include_baseline: bool) -> np.ndarray:
    """The linear snr scale at each point of spec's grid, checked before any
    draw: ValueError unless spec sweeps snr_db, every hop passes
    check_snr_hops and no point's linear value is 0.  run_snr_sweep runs
    it; the CLI runs it first only when --out is unusable."""
    check_sweep_variable(spec, SNR_DB)
    check_snr_hops(cfg, include_baseline)
    grid = spec.grid()
    gammas = np.array([db_to_linear(x) for x in grid])
    if not gammas.all():  # argmin: the first 0, as no value is negative
        raise ValueError(f"snr_db sweep point {float(grid[gammas.argmin()])!r} "
                         "dB is too small for a linear value")
    return gammas


def run_snr_sweep(cfg: NetworkConfig, spec: SweepSpec,
                  include_baseline: bool = False) -> SnrSweepResult:
    """Mean sum-rate versus transmit SNR at the configured layout.

    The swept value in dB is the per-hop scale E/(noise * N_T) applied to
    both hops (and to the baseline when enabled) ahead of path loss, or in
    place of it under snr_reference = "post_path_loss".
    """
    gammas = check_snr_sweep(cfg, spec, include_baseline)
    grid = spec.grid()
    ens = TrialEnsemble(cfg, spec.trials, spec.master_seed,
                        include_baseline=include_baseline)
    lay = cfg.layout

    def relay(part: slice) -> np.ndarray:
        return ens.relay_rates(gammas[part], gammas[part], lay.d_sr_m,
                               lay.d_rd_m)

    def baseline(part: slice) -> np.ndarray:
        return ens.baseline_rates(gammas[part])

    return SnrSweepResult(*_curves(grid, spec.trials, relay,
                                   *([baseline] if include_baseline else [])))


def run_altitude_sweep(ens: TrialEnsemble, spec: SweepSpec) -> SumRateCurve:
    """Mean relay sum-rate versus relay altitude at the configured powers.

    The ensemble fixes the trials, so spec must ask for its trial count and
    master seed.
    """
    check_sweep_variable(spec, RELAY_ALTITUDE_M)
    if (spec.trials, spec.master_seed) != (ens.trials, ens.master_seed):
        raise ValueError(
            f"spec asks for {spec.trials} trials at master_seed "
            f"{spec.master_seed}, but the ensemble holds {ens.trials} "
            f"trials at master_seed {ens.master_seed}"
        )
    grid = spec.grid()
    check_altitude_bracket(ens.cfg, grid[0], grid[-1], spec.step)
    rates = _altitude_rates(ens)
    return _curves(grid, ens.trials, lambda part: rates(grid[part]))[0]


def find_optimal_altitude(ens: TrialEnsemble, lo: float, hi: float,
                          tol: float) -> float:
    """Golden-section search for the relay altitude maximizing mean sum-rate.

    Every evaluation reuses the ensemble's draws, so the objective is
    deterministic in altitude; given an altitude sweep's ensemble, the
    search refines that sweep's argmax.  Returns the bracket's midpoint after
    the first step that leaves it narrower than tol or a probe at its ends
    (it can then shrink no further in float64), or NaN when no trial is
    valid (a singular trial is singular at every altitude).
    """
    lo, hi, tol = check_altitude_bracket(ens.cfg, lo, hi, tol)
    objective = _mean_relay_rate(ens)
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = objective(c), objective(d)
    if math.isnan(fc):
        return math.nan
    while True:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = objective(d)
        if not (b - a > tol and a < c and d < b):
            return 0.5 * (a + b)

