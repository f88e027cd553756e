"""Per-trial random streams (hapsim.streams).

trial_rng defines trial t's stream.  fill_trials hashes a chunk's seed
words in one pass and seeds each row's PCG64 from them through numpy's
public ISeedSequence interface, and must give trial_rng's fill bit for bit.
The tests check that agreement, the dtypes of the hash against numpy's own
SeedSequence, and the seeds' refusal of any other request.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hapsim import streams
from hapsim.streams import trial_rng


class TestTrialRng:
    def test_repeatable(self):
        a = trial_rng(123, 7).standard_normal(5)
        b = trial_rng(123, 7).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_trials_are_distinct(self):
        a = trial_rng(123, 0).standard_normal(5)
        b = trial_rng(123, 1).standard_normal(5)
        assert not np.array_equal(a, b)

    def test_seeds_are_distinct(self):
        a = trial_rng(123, 0).standard_normal(5)
        b = trial_rng(124, 0).standard_normal(5)
        assert not np.array_equal(a, b)


class TestChunkSeeding:
    """fill_trials seeds a chunk's streams in one pass; every row must equal
    trial_rng's fill bit for bit."""

    ROWS = 64

    @settings(max_examples=25, deadline=None, database=None)
    @given(seed=st.integers(0, 2**64 - 1), lo=st.integers(0, 2**32 - ROWS))
    @example(seed=0, lo=0)
    @example(seed=2**32 - 1, lo=992)         # trials 1023 and 1024
    @example(seed=2**32, lo=2**32 - ROWS)    # the last trial, 2**32 - 1
    @example(seed=2**64 - 1, lo=992)
    @example(seed=2**64 - 1, lo=2**32 - ROWS)
    def test_rows_equal_trial_rng(self, seed, lo):
        got = np.empty((self.ROWS, 13))
        streams.fill_trials(seed, lo, got)
        want = np.empty_like(got)
        for t, row in enumerate(want, lo):
            trial_rng(seed, t).standard_normal(out=row)
        np.testing.assert_array_equal(got.view(np.uint64),
                                      want.view(np.uint64))

    @settings(max_examples=50, deadline=None, database=None)
    @given(seed=st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63,
                                           2**64 - 1]),
                          st.integers(0, 2**64 - 1)),
           lo=st.one_of(st.sampled_from([0, 1023, 2**31 - 2, 2**32 - 4]),
                        st.integers(0, 2**32 - 4)))
    @example(seed=0, lo=0)
    @example(seed=2**64 - 1, lo=2**32 - 4)
    def test_seeding_dtypes_are_explicit(self, seed, lo):
        # The hash and mix run on uint32 words under any promotion rules
        # for Python ints (numpy 1.24's value-based casting or NEP 50), no
        # numpy scalar overflows, and each row of uint64 seed words is
        # numpy's own generate_state(4, uint64) of the trial.
        dtypes = {"hash": set(), "mix": set()}
        hasher, mix = streams._hasher, streams._mix

        def spy_hasher(init, mult):
            hash_words = hasher(init, mult)

            def spied(value):
                out = hash_words(value)
                dtypes["hash"].update((value.dtype, out.dtype))
                return out
            return spied

        def spy_mix(x, y):
            out = mix(x, y)
            dtypes["mix"].update((x.dtype, y.dtype, out.dtype))
            return out

        pool = np.random.SeedSequence(seed).pool
        with pytest.MonkeyPatch.context() as mp, np.errstate(all="raise"):
            mp.setattr(streams, "_hasher", spy_hasher)
            mp.setattr(streams, "_mix", spy_mix)
            words = streams._seed_words(pool, lo, lo + 4)
        assert dtypes == {"hash": {np.dtype(np.uint32)},
                          "mix": {np.dtype(np.uint32)}}
        assert words.dtype == np.uint64 and words.flags.c_contiguous
        for t, row in enumerate(words, lo):
            want = np.random.SeedSequence(seed, spawn_key=(t,))
            np.testing.assert_array_equal(row, want.generate_state(4, np.uint64))

    @settings(max_examples=25, deadline=None, database=None)
    @given(seed=st.integers(0, 2**64 - 1), lo=st.integers(0, 2**32 - 4))
    @example(seed=2**64 - 1, lo=2**32 - 4)
    def test_written_words_set_the_public_state(self, seed, lo):
        # A PCG64 seeded from trial t's seed words is in trial_rng(seed,
        # t)'s state, as the public state dict reads it.
        seeds = streams._seeder()(seed, lo, lo + 4)
        for t in range(lo, lo + 4):
            state = np.random.PCG64(seeds).state
            assert state == trial_rng(seed, t).bit_generator.state
            assert state["has_uint32"] == 0

    def test_seeds_answer_only_four_uint64_words(self):
        seeds = streams._seeder()(5, 0, 2)
        for n_words, dtype in [(3, np.uint64), (5, np.uint64), (8, np.uint32),
                               (4, np.uint32), (4, np.int64), (4, "uint64")]:
            with pytest.raises(RuntimeError, match="trial seeds are 4 np.uint64"):
                seeds.generate_state(n_words, dtype)
        # A refused request takes no trial's words.
        for t in range(2):
            want = np.random.SeedSequence(5, spawn_key=(t,))
            np.testing.assert_array_equal(seeds.generate_state(4, np.uint64),
                                          want.generate_state(4, np.uint64))
