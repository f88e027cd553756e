"""Monte Carlo sweep orchestration.

Seeding contract: every trial owns an independent random stream derived
from (master_seed, trial index) alone, so the same scattering draws are
reused at every sweep point (common random numbers).  Comparisons along a
sweep are therefore pathwise: per-trial rates are monotone in power, curve
argmaxes are stable, and results are independent of evaluation order or
parallel scheduling.  Each trial takes one standard-normal fill from its
stream, laid out in _hops() order.  trial_rng defines a trial's stream;
an ensemble seeds a whole chunk's streams at once (_fill_trials): it
runs numpy's SeedSequence hash over the chunk's trial indices as uint32
arrays and PCG64's 128-bit seeding step as 32-bit limbs in uint64 arrays,
which gives every trial's four PCG64 state words (_trial_states).  One
reused generator then draws each row after that row's words are written
into its {state, inc} pair through bit_generator.ctypes.state_address, in
the memory order probed before the first draw, so every row equals
trial_rng's draws
bit for bit.

A TrialEnsemble runs the zero-forcing kernels once per configuration, on
chunks of as many trials as fit _CHUNK_DRAWS draws, and keeps only the
singular flags and the quadratic forms, trial-last: one row of T forms per
link and stream.  The forms are invariant under uniform scaling of a
channel matrix, so transmit power and the 1/d^2 path factors multiply in
afterwards.  A sweep therefore evaluates its grid in passes of as many
points as fit _CHUNK_DRAWS rates: one rate call per pass scales each
stored row by every point's factor at once and sums the rows into one row
of per-trial rates per point, and the pass is aggregated row by row.
Memory grows with the stored forms alone.  Neither the draws nor the
line-of-sight part (network.los_channel, built from the config's
wavelength, spacings and angles) depend on a link distance, so the
ensemble never sees one; network.check_far_field tests each distance where
it enters a rate.

The altitude functions take their ensemble as an argument, so one command
draws its trials once: altitude-sweep --cross-check passes the grid's
ensemble to the golden-section search, which then refines the grid argmax
on the same draws.
"""

from __future__ import annotations

import ctypes
import functools
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .network import NetworkConfig, check_far_field, db_to_linear, los_channel

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

# Draws per chunk and rates per sweep pass (1 MiB of float64); any size gives
# the same results, and this one keeps the kernels' temporaries in cache.
_CHUNK_DRAWS = 2**17

# A trial's spawn key is one 32-bit word, and the master seed at most two.
_MAX_TRIALS = 2**32

# numpy's SeedSequence constants (pool of 4 uint32 words, hashmix and mix)
# and PCG64's 128-bit LCG multiplier; _trial_states repeats their seeding.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 2**32 - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# _pcg64_words holds a 128-bit value as 4 limbs of 32 bits in uint64 arrays.
_LIMBS = 4
_LIMB_BITS = np.uint64(32)
_LIMB_MASK = np.uint64(_MASK32)


def _trial_budget(trials: int, master_seed: int) -> tuple[int, int]:
    """(trials, master_seed) as ints; ValueError outside the seeded range."""
    trials, seed = int(trials), int(master_seed)
    if not 1 <= trials <= _MAX_TRIALS:
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
        trials, seed = _trial_budget(self.trials, self.master_seed)
        object.__setattr__(self, "trials", trials)
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


def _hasher(init: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """SeedSequence's uint32 hash; each call moves its constant on by mult."""
    const = init

    def hash_words(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(_XSHIFT))
    return hash_words


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of a pool word x with a hashed word y."""
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(_XSHIFT))


def _carry(columns: list[np.ndarray]) -> list[np.ndarray]:
    """32-bit limbs, mod 2**128, of uint64 column sums, low limb first."""
    limbs, carry = [], np.uint64(0)
    for column in columns:
        column = column + carry
        limbs.append(column & _LIMB_MASK)
        carry = column >> _LIMB_BITS
    return limbs


def _mul_add(x: list[np.ndarray], const: int,
             y: list[np.ndarray]) -> list[np.ndarray]:
    """(x * const + y) mod 2**128 on 32-bit limbs, low limb first.

    A product of two limbs fits a uint64; it adds its low half to its
    column and its high half to the next, so a column sums at most 8 terms
    below 2**32 and cannot overflow either.
    """
    m = [np.uint64(const >> 32 * j & _MASK32) for j in range(_LIMBS)]
    columns = list(y)
    for i in range(_LIMBS):
        for j in range(_LIMBS - i):
            product = x[i] * m[j]
            columns[i + j] = columns[i + j] + (product & _LIMB_MASK)
            if i + j + 1 < _LIMBS:
                columns[i + j + 1] = columns[i + j + 1] + (product >> _LIMB_BITS)
    return _carry(columns)


def _pcg64_words(half: list[np.ndarray]) -> np.ndarray:
    """PCG64's state words after seeding, from its seed words in halves.

    half holds SeedSequence.generate_state(4, uint64) as 8 uint32 halves in
    uint64 arrays, the low half of each word first; PCG64 reads words 0-1
    as initstate and 2-3 as initseq, high word first.  Its seeding sets
    inc = initseq << 1 | 1 and state = (initstate + inc) * MULT + inc,
    mod 2**128, here on 4 limbs of 32 bits a value.  Returns an (n, 4)
    uint64 array of the words (state high, state low, inc high, inc low),
    the order of the state setter's pcg64_set_state.
    """
    initstate = [half[2], half[3], half[0], half[1]]
    initseq = [half[6], half[7], half[4], half[5]]
    one = np.uint64(1)
    inc = [(initseq[0] << one | one) & _LIMB_MASK]
    inc += [(word << one | low >> np.uint64(31)) & _LIMB_MASK
            for low, word in zip(initseq, initseq[1:])]
    state = _mul_add(_carry([a + b for a, b in zip(initstate, inc)]),
                     _PCG64_MULT, inc)
    words = np.empty((len(half[0]), 4), dtype=np.uint64)
    for k, limbs in enumerate((state, inc)):
        words[:, 2 * k] = limbs[3] << _LIMB_BITS | limbs[2]
        words[:, 2 * k + 1] = limbs[1] << _LIMB_BITS | limbs[0]
    return words


def _trial_states(master_seed: int, lo: int, hi: int) -> np.ndarray:
    """PCG64 state words of trials lo..hi-1, as trial_rng seeds them.

    SeedSequence(master_seed, spawn_key=(t,)) hashes the entropy words
    [seed words zero-padded to the pool size, t] into a 4-word pool, and
    generate_state(4, uint64) hashes the pool into the seed words of
    PCG64 (_pcg64_words).  The hash constants follow a fixed sequence, so
    every step runs once over the whole chunk: the hash and mix as uint32
    arrays (their products wrap mod 2**32, as in numpy's C code), PCG64's
    128-bit seeding as uint64 arrays of 32-bit limbs.  Every array operand
    is an explicit np.uint32 or np.uint64, so the dtypes do not rest on
    numpy's promotion rules for Python ints; the hash constants advance as
    Python ints, which no numpy scalar overflow can touch.  Returns an
    (hi - lo, 4) uint64 array, one row of _pcg64_words per trial.
    """
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(np.array([master_seed >> 32 * i & _MASK32], np.uint32))
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    spawn = np.arange(lo, hi, dtype=np.uint32)
    for dst in range(_POOL_SIZE):
        pool[dst] = _mix(pool[dst], hashmix(spawn))

    generate = _hasher(_INIT_B, _MULT_B)
    return _pcg64_words([generate(pool[i % _POOL_SIZE]).astype(np.uint64)
                         for i in range(2 * _POOL_SIZE)])


def _state_pair(bit_gen: np.random.PCG64) -> np.ndarray:
    """A PCG64's {state, inc} pair as a writable array of 4 uint64 words.

    bit_gen.ctypes.state_address points to numpy's pcg64_state struct,
    whose first field points to the pair.  The view does not keep bit_gen
    alive.
    """
    pair = ctypes.c_void_p.from_address(bit_gen.ctypes.state_address).value
    return np.ctypeslib.as_array((ctypes.c_uint64 * 4).from_address(pair))


@functools.cache
def _pair_order() -> np.ndarray:
    """Which of _pcg64_words' columns each word of the pair holds in memory.

    numpy keeps the pair as two little-endian __uint128_t or, where it
    emulates 128-bit math, as two {high, low} structs; setting four
    distinct words through the public state setter and reading them back
    tells which.  Any other layout raises RuntimeError before a trial is
    drawn.  The probe runs on first use, not at import: numpy loads
    numpy.random lazily, and importing it would add about 20 ms to
    `import hapsim`.
    """
    written = [1, 2, 3, 4]
    bit_gen = np.random.PCG64(0)
    state = bit_gen.state
    state["state"] = {"state": written[0] << 64 | written[1],
                      "inc": written[2] << 64 | written[3]}
    bit_gen.state = state
    read = _state_pair(bit_gen).tolist()
    if sorted(read) != written:
        raise RuntimeError(f"unknown PCG64 state layout: wrote the words "
                           f"{written}, read back {read}")
    return np.array([written.index(word) for word in read])


def _fill_trials(master_seed: int, lo: int, out: np.ndarray) -> None:
    """Fill row i of out with trial lo + i's standard normals.

    Each row equals trial_rng(master_seed, lo + i).standard_normal(out=row)
    bit for bit.  _trial_states computes the state words of the whole chunk
    at once; one generator of trial_rng's kind draws every row, after that
    row's four words are written into its {state, inc} pair through
    ctypes.state_address (_state_pair), in the probed memory order.  Each
    write copies the four words as one 32-byte void scalar, a third of the
    cost of a 4-word slice assignment.  A normal fill never sets
    has_uint32, so it stays 0 as trial_rng has it.
    """
    rng = trial_rng(master_seed, lo)
    pair = _state_pair(rng.bit_generator).view("V32")
    words = np.ascontiguousarray(
        _trial_states(master_seed, lo, lo + len(out))[:, _pair_order()])
    for row, trial_words in zip(out, words.view("V32")[:, 0]):
        pair[0] = trial_words
        rng.standard_normal(out=row)


def _passes(points: int, trials: int) -> Iterator[slice]:
    """Slices of a grid of points, each holding at most _CHUNK_DRAWS rates."""
    step = max(1, _CHUNK_DRAWS // trials)
    return (slice(lo, lo + step) for lo in range(0, points, step))


def _operating_points(*values) -> tuple[bool, list[np.ndarray]]:
    """values broadcast to 1-D float64 arrays, and whether all were scalars."""
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in values))
    if arrays[0].ndim > 1:
        raise ValueError("operating points must be scalars or 1-D arrays")
    return arrays[0].ndim == 0, [a.reshape(-1) for a in arrays]


def _aggregate(xs: np.ndarray, rates: np.ndarray) -> list[CurvePoint]:
    """One CurvePoint per row of rates (points, trials).

    Every row is NaN on the same (failed) trials.  The row-wise mean and std
    run over a C-contiguous copy of the other trials, which numpy sums per
    row as it would sum that row alone.
    """
    finite = np.isfinite(rates[0])
    n = int(np.count_nonzero(finite))
    failed = finite.size - n
    if n == 0:
        return [CurvePoint(float(x), math.nan, 0.0, failed) for x in xs]
    if failed:
        rates = np.compress(finite, rates, axis=1)
    mean = rates.mean(axis=1)
    std_err = (rates.std(axis=1, ddof=1) / math.sqrt(n) if n > 1
               else np.zeros(len(xs)))
    return [CurvePoint(float(x), float(m), float(s), failed)
            for x, m, s in zip(xs, mean, std_err)]


class _Hop(NamedTuple):
    """One kind of link: its links share a line-of-sight matrix and a kernel."""

    distance: str                 # ScenarioLayout property holding the length
    snr_keys: str                 # scenario keys that set the hop's SNR
    links: int
    shape: tuple[int, int]        # (receive, transmit) antennas of every link
    kappa_db: tuple[float, ...]   # per-link Rician factor
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
    hops = [
        _Hop("d_sr_m", "hap_power/noise_power, ref_gain_up", m,
             (r_ant, a_node), cfg.kappa_up_db,
             np.array(cfg.ref_gain_up), cfg.all_streams),
        _Hop("d_rd_m", "relay_power/noise_power, ref_gain_down", n,
             (a_node, r_ant), cfg.kappa_down_db,
             np.array(cfg.ref_gain_down), cfg.all_streams),
    ]
    if include_baseline:
        hops.append(_Hop("d_sd_m", "hap_power/noise_power, ref_gain_direct",
                         m * n, (a_node, a_node),
                         tuple(np.repeat(cfg.kappa_direct_db, n)),
                         np.repeat(np.array(cfg.ref_gain_direct), n), True))
    return tuple(hops)


class TrialEnsemble:
    """Zero-forcing quadratic forms of a fixed scenario's trial draws.

    Construction draws and reduces the trials in chunks of as many trials
    as fit _CHUNK_DRAWS standard normals: one fill per trial, in hop order,
    becomes the CN(0, 1) scattering matrices of every link, and the kernels
    turn each chunk into quadratic forms q and singular flags.  Only q
    (float64, one row of T per link and stream, link-major) and the
    per-trial flags are kept, so results are the same at any chunk size.
    relay_rates and baseline_rates then evaluate one or many (power,
    distance) operating points as whole-row arithmetic over the stored
    forms.  Failed (singular) trials surface as NaN rates so callers can
    count and exclude them.
    """

    def __init__(self, cfg: NetworkConfig, trials: int, master_seed: int,
                 include_baseline: bool = False):
        self.cfg = cfg
        self.trials, self.master_seed = _trial_budget(trials, master_seed)
        self.has_baseline = bool(include_baseline)
        self._hops = _hops(cfg, include_baseline)

        stages, self._q, self._failed = [], [], []
        width = 0
        for hop in self._hops:
            rows, cols = hop.shape
            los = np.broadcast_to(los_channel(cfg, rows, cols),
                                  (hop.links, rows, cols))
            k = np.array([db_to_linear(v) for v in hop.kappa_db])
            kernel = (kernels.all_stream_quadforms if hop.all_streams
                      else kernels.first_stream_quadforms)
            span = slice(width, width + 2 * hop.links * rows * cols)
            width = span.stop
            stages.append((span, los, np.sqrt(k / (1.0 + k)),
                           np.sqrt(1.0 / (1.0 + k)), kernel))
            streams = cols if hop.all_streams else 1
            self._q.append(np.empty((hop.links * streams, self.trials)))
            self._failed.append(np.empty(self.trials, dtype=bool))

        chunk = max(1, _CHUNK_DRAWS // width)
        for lo in range(0, self.trials, chunk):
            hi = min(lo + chunk, self.trials)
            x = np.empty((hi - lo, width))
            _fill_trials(self.master_seed, lo, x)
            for hop, (span, los, a, b, kernel), q_out, failed_out in zip(
                    self._hops, stages, self._q, self._failed):
                z = x[:, span].reshape(hi - lo, hop.links, 2, *hop.shape)
                nlos = np.empty(z[:, :, 0].shape, dtype=np.complex128)
                np.multiply(z[:, :, 0], _INV_SQRT2, out=nlos.real)
                np.multiply(z[:, :, 1], _INV_SQRT2, out=nlos.imag)
                q, singular = kernel(los, nlos, a, b)
                q_out[:, lo:hi] = q.reshape(hi - lo, -1).T
                failed_out[lo:hi] = singular.any(axis=1)

    def _hop_rate(self, index: int, snr_scale: np.ndarray,
                  distance_m: np.ndarray) -> np.ndarray:
        """Per-trial sum of log2(1 + snr) over every stream of one hop.

        snr_scale and distance_m hold one value per operating point, and the
        result one row of per-trial sums per point, (P, T).  Each stored row
        adds its log1p to every point's row, so a trial's sum runs over its
        forms in index order at any number of points.
        """
        hop = self._hops[index]
        q = self._q[index]
        streams = len(q) // hop.links
        with np.errstate(over="ignore", invalid="ignore"):
            if self.cfg.snr_reference == "post_path_loss":
                path = np.ones((len(distance_m), hop.links))
            else:
                # Python's float power: it rounds some squares otherwise than
                # d * d, and the curves' bits depend on which one is used.
                square = np.array([float(d) ** 2 for d in distance_m])
                path = (hop.ref_gain / square[:, None]) ** 2
            f = snr_scale[:, None] * path
            rate = np.empty((len(f), self.trials))
            part = np.empty_like(rate) if len(q) > 1 else None
            for k, row in enumerate(q):
                out = part if k else rate
                np.multiply(f[:, k // streams, None], row, out=out)
                np.log1p(out, out=out)
                if k:
                    rate += part
            rate /= _LN2
        return rate

    def _check_finite(self, rates: dict[int, np.ndarray]) -> None:
        """Raise ValueError when a hop's SNR overflows float64.

        rates maps hop index to that hop's (P, T) sums.  The message names
        the first hop, in the given order, that overflows at the first such
        point, so an input too large to represent is not mistaken for a
        singular trial.
        """
        if all(np.isfinite(r).all() for r in rates.values()):
            return
        bad = np.array([~np.isfinite(r).all(axis=1) for r in rates.values()])
        hop = self._hops[list(rates)[bad[:, bad.any(axis=0).argmax()].argmax()]]
        raise ValueError(f"SNR on {hop.distance} overflows float64: lower "
                         f"{hop.snr_keys} or the swept SNR")

    def relay_rates(self, snr_scale_up, snr_scale_dn, d_sr_m,
                    d_rd_m) -> np.ndarray:
        """Per-trial relay sum-rates; NaN where a trial was singular.

        The arguments are scalars or 1-D arrays of operating points and
        broadcast together: scalars give (T,) rates, arrays one row of
        per-trial rates per point, (P, T).
        """
        scalar, (up, dn, d_sr, d_rd) = _operating_points(
            snr_scale_up, snr_scale_dn, d_sr_m, d_rd_m)
        if not ((up > 0.0).all() and (dn > 0.0).all()):
            raise ValueError("snr scales must be positive")
        for a, b in zip(d_sr, d_rd):
            check_far_field(self.cfg, self._hops[_UP].distance, a)
            check_far_field(self.cfg, self._hops[_DOWN].distance, b)
        c1 = self._hop_rate(_UP, up, d_sr)
        c2 = self._hop_rate(_DOWN, dn, d_rd)
        self._check_finite({_UP: c1, _DOWN: c2})
        rates = np.minimum(c1, c2, out=c1)
        rates *= self.cfg.dof_prefactor
        rates[:, self._failed[_UP] | self._failed[_DOWN]] = np.nan
        return rates[0] if scalar else rates

    def baseline_rates(self, snr_scale) -> np.ndarray:
        """Per-trial time-sharing baseline rates over the direct links.

        snr_scale is a scalar, giving (T,) rates, or a 1-D array of
        operating points, giving one row of per-trial rates per point.
        """
        if not self.has_baseline:
            raise RuntimeError("ensemble was built without baseline draws")
        scalar, (scale,) = _operating_points(snr_scale)
        if not (scale > 0.0).all():
            raise ValueError("snr scale must be positive")
        d_sd = self.cfg.layout.d_sd_m
        check_far_field(self.cfg, self._hops[_DIRECT].distance, d_sd)
        rate = self._hop_rate(_DIRECT, scale, np.full(len(scale), d_sd))
        self._check_finite({_DIRECT: rate})
        rate /= self.cfg.num_haps * self.cfg.num_gs
        rate[:, self._failed[_DIRECT]] = np.nan
        return rate[0] if scalar else rate


def check_sweep_variable(spec: SweepSpec, variable: str) -> None:
    """Raise ValueError unless spec sweeps the given variable."""
    if spec.variable != variable:
        raise ValueError(
            f"spec.variable must be {variable!r}, got {spec.variable!r}")


def check_altitude_bracket(cfg: NetworkConfig, lo: float, hi: float,
                           tol: float) -> None:
    """Raise ValueError unless the relay altitude bracket [lo, hi] is usable.

    It needs lo < hi and a positive resolution tol (the golden-section
    stopping width or the grid step).  It must lie strictly between the
    ground stations and the platforms, and at both ends leave each hop
    longer than the far-field limit, and each hop's snr scale must be
    positive and finite.  Callers that build a trial ensemble check first,
    so that bad input costs no draws.
    """
    lo, hi, tol = float(lo), float(hi), float(tol)
    if not lo < hi:
        raise ValueError(f"lo must be < hi, got ({lo!r}, {hi!r})")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    lay = cfg.layout
    if not lay.gs_altitude_m < lo < hi < lay.hap_altitude_m:
        raise ValueError(
            f"altitude range [{lo:g}, {hi:g}] must lie strictly inside "
            f"({lay.gs_altitude_m:g}, {lay.hap_altitude_m:g})"
        )
    check_far_field(cfg, "d_rd_m", lo - lay.gs_altitude_m)
    check_far_field(cfg, "d_sr_m", lay.hap_altitude_m - hi)
    _altitude_scales(cfg)


def _altitude_scales(cfg: NetworkConfig) -> tuple[float, float]:
    """Each relay hop's snr scale power/(noise * N_T); ValueError at 0 or inf."""
    up = cfg.hap_power / (cfg.noise_power * cfg.uplink_streams())
    dn = cfg.relay_power / (cfg.noise_power * cfg.downlink_streams())
    for scale, hop, keys in ((up, "d_sr_m", "hap_power/noise_power"),
                             (dn, "d_rd_m", "relay_power/noise_power")):
        if scale == 0.0:
            raise ValueError(f"SNR scale on {hop} underflows to 0: raise {keys}")
        if math.isinf(scale):
            raise ValueError(f"SNR scale on {hop} overflows float64: lower {keys}")
    return up, dn


def _altitude_points(ens: TrialEnsemble,
                     alts: np.ndarray) -> list[CurvePoint]:
    """CurvePoints of relay altitudes alts, on the ensemble's trials and
    scales; one relay_rates call per pass of the grid."""
    lay = ens.cfg.layout
    scale_up, scale_dn = _altitude_scales(ens.cfg)
    points = []
    for part in _passes(len(alts), ens.trials):
        x = alts[part]
        points += _aggregate(x, ens.relay_rates(
            scale_up, scale_dn, lay.hap_altitude_m - x, x - lay.gs_altitude_m))
    return points


def run_snr_sweep(cfg: NetworkConfig, spec: SweepSpec,
                  include_baseline: bool = False) -> SnrSweepResult:
    """Mean sum-rate versus transmit SNR at the configured layout.

    The swept value in dB is the per-hop scale E/(noise * N_T) applied to
    both hops (and to the baseline when enabled) ahead of path loss, or in
    place of it under snr_reference = "post_path_loss".
    """
    check_sweep_variable(spec, SNR_DB)
    # Reject bad input before any draw.
    for hop in _hops(cfg, include_baseline):
        check_far_field(cfg, hop.distance, getattr(cfg.layout, hop.distance))
    grid = spec.grid()
    gammas = np.array([db_to_linear(x) for x in grid])
    for x, gamma in zip(grid, gammas):
        if gamma == 0.0:
            raise ValueError(
                f"snr_db sweep point {float(x)!r} dB is too small for a linear value")
    ens = TrialEnsemble(cfg, spec.trials, spec.master_seed,
                        include_baseline=include_baseline)
    lay = cfg.layout
    relay_pts = []
    base_pts = []
    for part in _passes(len(grid), spec.trials):
        x, gamma = grid[part], gammas[part]
        relay_pts += _aggregate(
            x, ens.relay_rates(gamma, gamma, lay.d_sr_m, lay.d_rd_m))
        if include_baseline:
            base_pts += _aggregate(x, ens.baseline_rates(gamma))
    baseline = SumRateCurve(tuple(base_pts)) if include_baseline else None
    return SnrSweepResult(SumRateCurve(tuple(relay_pts)), baseline)


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
    return SumRateCurve(tuple(_altitude_points(ens, grid)))


def find_optimal_altitude(ens: TrialEnsemble, lo: float, hi: float,
                          tol: float) -> float:
    """Golden-section search for the relay altitude maximizing mean sum-rate.

    Every evaluation reuses the given trial ensemble, so the objective is
    deterministic in altitude and the search result is reproducible; given
    the ensemble of an altitude sweep, the search refines that sweep's
    argmax on the same draws.  Returns the interval midpoint once the
    bracket is narrower than tol, or NaN when no trial of the ensemble is
    valid (singular trials do not depend on altitude, so the objective is
    then NaN everywhere).
    """
    check_altitude_bracket(ens.cfg, lo, hi, tol)
    lo, hi, tol = float(lo), float(hi), float(tol)

    def objective(alt: float) -> float:
        return _altitude_points(ens, np.array([alt]))[0].mean_rate

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = objective(c), objective(d)
    if math.isnan(fc):
        return math.nan
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

