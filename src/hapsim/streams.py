"""Trial streams: each trial's standard normals from (master_seed, trial).

trial_rng defines a trial's stream.  fill_trials seeds a whole chunk's
streams at once: numpy's SeedSequence(master_seed) hashes the seed into its
pool, the spawn key's stage of the hash runs over the chunk's trial indices
as uint32 arrays, and PCG64's seeding up to its last LCG step runs as
uint64 words, which gives every trial's four PCG64 words (_trial_states).
One reused generator, of trial_rng's kind, then draws each row after that
row's words are written into its {state, inc} pair through
bit_generator.ctypes.state_address, in the memory order probed before the
first draw, and one random_raw() takes the last seeding step, so every row
equals trial_rng's draws bit for bit.  The probe also seeds one row that
way, of a two-word seed and a trial index with its top bit set, and raises
RuntimeError where it differs from trial_rng's, before any trial is drawn.
"""

from __future__ import annotations

import ctypes
import functools
from collections.abc import Callable

import numpy as np

# Trials a master seed can seed: a trial's spawn key is one 32-bit word,
# and the master seed at most two.
MAX_TRIALS = 2**32

# numpy's SeedSequence constants (hashmix and mix, and generate_state's hash);
# _trial_states repeats the spawn-key stage of the hash.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 2**32 - 1
# The hash constant of the spawn key's first hash: the pool took 16 before it
# (4 of the padded seed words, 12 in the mixing rounds).
_SPAWN_A = _INIT_A * _MULT_A**16 & _MASK32


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


def _prestep_words(seed: np.ndarray) -> np.ndarray:
    """PCG64's (state, inc) words, one LCG step short of its seeded state.

    seed holds generate_state(4, uint64) words as PCG64 reads them: initstate
    high and low, then initseq high and low, one row per trial.  PCG64 sets
    inc = initseq << 1 | 1 and state = initstate + inc, then takes one LCG
    step, which the generator's own random_raw() takes once these words are
    written.  Returns an (n, 4) uint64 array of (state high, state low,
    inc high, inc low), the order of the state setter's pcg64_set_state;
    each 64-bit word wraps, and the low state word carries into the high one.
    """
    one = np.uint64(1)
    words = np.empty_like(seed)
    words[:, 3] = seed[:, 3] << one | one
    words[:, 2] = seed[:, 2] << one | seed[:, 3] >> np.uint64(63)
    words[:, 1] = seed[:, 1] + words[:, 3]
    words[:, 0] = seed[:, 0] + words[:, 2] + (words[:, 1] < words[:, 3])
    return words


def _trial_states(pool: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """PCG64 words of trials lo..hi-1, one LCG step before trial_rng's state.

    pool is SeedSequence(master_seed).pool.  A seed below 2**128 fills at
    most the pool's 4 words, which numpy pads with zeros whether or not a
    spawn key follows, so that pool is the first stage of
    SeedSequence(master_seed, spawn_key=(t,))'s.  The spawn key's stage
    continues the hash from its 17th constant, and generate_state(4, uint64)
    hashes the mixed pool into PCG64's seed words (_prestep_words).  Every
    step runs once over the chunk's trial indices as uint32 arrays, whose
    products wrap mod 2**32 as in numpy's C code; every operand is an
    explicit np.uint32 or np.uint64, so the dtypes do not rest on numpy's
    promotion rules for Python ints.  Returns an (hi - lo, 4) uint64 array,
    one row of _prestep_words per trial.
    """
    hashmix = _hasher(_SPAWN_A, _MULT_A)
    spawn = np.arange(lo, hi, dtype=np.uint32)
    mixed = [_mix(pool[i:i + 1], hashmix(spawn)) for i in range(len(pool))]
    generate = _hasher(_INIT_B, _MULT_B)
    half = [generate(word).astype(np.uint64) for word in mixed + mixed]
    # generate_state's uint64 word k is uint32 words 2k (low) and 2k + 1.
    seed = np.stack([high << np.uint64(32) | low
                     for low, high in zip(half[::2], half[1::2])], axis=1)
    return _prestep_words(seed)


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
    """Which of _prestep_words' columns each word of the pair holds in memory.

    numpy keeps the pair as two little-endian __uint128_t or, where it
    emulates 128-bit math, as two {high, low} structs; setting four
    distinct words through the public state setter and reading them back
    tells which; any other layout raises RuntimeError, as does the seeding
    self-check, on the largest seed and trial.  The probe runs on first use,
    not at import: numpy loads numpy.random lazily, and importing it would
    add about 20 ms to `import hapsim`.
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
    order = np.array([written.index(word) for word in read])
    seed, trial, got = 2**64 - 1, MAX_TRIALS - 1, np.empty((1, 4))
    _draw_rows(seed, trial, got, order)
    want = trial_rng(seed, trial).standard_normal((1, 4))
    if got.tobytes() != want.tobytes():
        raise RuntimeError(f"trial seeding disagrees with trial_rng on numpy "
                           f"{np.__version__}: drew {got[0]}, want {want[0]}")
    return order


def _draw_rows(master_seed: int, lo: int, out: np.ndarray,
               order: np.ndarray) -> None:
    """fill_trials in a given pair order.  A row's words go in as one 32-byte
    void scalar, a third of the cost of a 4-word slice assignment, and
    has_uint32 stays 0 as trial_rng has it: no step or normal fill sets it."""
    seq = np.random.SeedSequence(master_seed)
    rng = np.random.default_rng(seq)
    step = rng.bit_generator.random_raw
    pair = _state_pair(rng.bit_generator).view("V32")
    words = np.ascontiguousarray(
        _trial_states(seq.pool, lo, lo + len(out))[:, order])
    for row, trial_words in zip(out, words.view("V32")[:, 0]):
        pair[0] = trial_words
        step()
        rng.standard_normal(out=row)


def fill_trials(master_seed: int, lo: int, out: np.ndarray) -> None:
    """Fill row i of out with trial lo + i's standard normals, equal to
    trial_rng(master_seed, lo + i).standard_normal(out=row) bit for bit."""
    _draw_rows(master_seed, lo, out, _pair_order())
