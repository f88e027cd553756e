"""Trial streams: each trial's standard normals from (master_seed, trial).

trial_rng defines a trial's stream.  fill_trials seeds a whole chunk's
streams at once: numpy's SeedSequence(master_seed) hashes the seed into its
pool, and the spawn key's stage of the hash and generate_state's hash run
over the chunk's trial indices as uint32 arrays, which gives every trial's
generate_state(4, uint64) words (_seed_words).  Each row is then drawn by
Generator(PCG64(seeds)), where seeds is one numpy ISeedSequence per chunk
that hands PCG64 the next trial's words, so every row equals trial_rng's
draws bit for bit through numpy's public seeding interface.  Once per
process, before any trial is drawn, the seeds of seed 2**64 - 1 and trial
2**32 - 1 draw one row that way, and RuntimeError is raised where it differs
from trial_rng's.
"""

from __future__ import annotations

import functools
from collections.abc import Callable

import numpy as np

# Trials a master seed can seed: a trial's spawn key is one 32-bit word,
# and the master seed at most two.
MAX_TRIALS = 2**32

# numpy's SeedSequence constants (hashmix and mix, and generate_state's hash);
# _seed_words repeats the spawn-key stage of the hash.
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


def _seed_words(pool: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """generate_state(4, uint64) of trials lo..hi-1's SeedSequences.

    pool is SeedSequence(master_seed).pool.  A seed below 2**128 fills at
    most the pool's 4 words, which numpy pads with zeros whether or not a
    spawn key follows, so that pool is the first stage of
    SeedSequence(master_seed, spawn_key=(t,))'s.  The spawn key's stage
    continues the hash from its 17th constant, and generate_state hashes the
    mixed pool into the seed words.  Every step runs once over the chunk's
    trial indices as uint32 arrays, whose products wrap mod 2**32 as in
    numpy's C code; every operand is an explicit np.uint32 or np.uint64, so
    the dtypes do not rest on numpy's promotion rules for Python ints.
    Returns a C-contiguous (hi - lo, 4) uint64 array, one row per trial.
    """
    hashmix = _hasher(_SPAWN_A, _MULT_A)
    spawn = np.arange(lo, hi, dtype=np.uint32)
    mixed = [_mix(pool[i:i + 1], hashmix(spawn)) for i in range(len(pool))]
    generate = _hasher(_INIT_B, _MULT_B)
    half = [generate(word).astype(np.uint64) for word in mixed + mixed]
    # generate_state's uint64 word k is uint32 words 2k (low) and 2k + 1.
    return np.stack([high << np.uint64(32) | low
                     for low, high in zip(half[::2], half[1::2])], axis=1)


@functools.cache
def _seeder() -> type:
    """The ISeedSequence class that seeds a chunk's trials, checked once.

    TrialSeeds(master_seed, lo, hi) answers PCG64's generate_state(4,
    uint64) with trial lo's words, then lo + 1's, and so on: PCG64 seeds
    itself from the returned array's data, which is why each row must be
    C-contiguous.  Any other request raises RuntimeError, as does the
    seeding self-check on the largest seed and trial.  The class is built on
    first use, not at import: numpy loads numpy.random lazily, and importing
    it would add about 20 ms to `import hapsim`.
    """
    from numpy.random.bit_generator import ISeedSequence

    class TrialSeeds(ISeedSequence):
        def __init__(self, master_seed: int, lo: int, hi: int):
            pool = np.random.SeedSequence(master_seed).pool
            self.rows = iter(_seed_words(pool, lo, hi))

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise RuntimeError(f"PCG64 asked for {n_words} words of "
                                   f"{dtype!r}; trial seeds are 4 np.uint64")
            return next(self.rows)

    seed, trial = 2**64 - 1, MAX_TRIALS - 1
    rng = np.random.Generator(np.random.PCG64(TrialSeeds(seed, trial, trial + 1)))
    got, want = rng.standard_normal(4), trial_rng(seed, trial).standard_normal(4)
    if got.tobytes() != want.tobytes():
        raise RuntimeError(f"trial seeding disagrees with trial_rng on numpy "
                           f"{np.__version__}: drew {got}, want {want}")
    return TrialSeeds


def fill_trials(master_seed: int, lo: int, out: np.ndarray) -> None:
    """Fill row i of out with trial lo + i's standard normals, equal to
    trial_rng(master_seed, lo + i).standard_normal(out=row) bit for bit."""
    seeds = _seeder()(master_seed, lo, lo + len(out))
    generator, pcg64 = np.random.Generator, np.random.PCG64
    for row in out:
        generator(pcg64(seeds)).standard_normal(out=row)
