"""Per-trial random streams (hapsim.streams).

trial_rng defines trial t's stream.  fill_trials seeds a chunk's rows in
one pass, writing each trial's PCG64 state through numpy internals, and
must give trial_rng's fill bit for bit.  The tests check that agreement,
the dtypes and carries of the seeding arithmetic, and the probe of the
PCG64 state layout.
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

    def test_seeding_dtypes_are_explicit(self, monkeypatch):
        # The hash and mix run on uint32 words and PCG64's seeding on
        # uint64 words under any promotion rules for Python ints (numpy
        # 1.24's value-based casting or NEP 50), and no numpy scalar
        # overflows.
        dtypes = {"hash": set(), "mix": set(), "words": set()}
        hasher, mix = streams._hasher, streams._mix
        prestep_words = streams._prestep_words

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

        def spy_prestep_words(seed):
            out = prestep_words(seed)
            dtypes["words"].update((seed.dtype, out.dtype))
            return out

        monkeypatch.setattr(streams, "_hasher", spy_hasher)
        monkeypatch.setattr(streams, "_mix", spy_mix)
        monkeypatch.setattr(streams, "_prestep_words", spy_prestep_words)
        pool = np.random.SeedSequence(2**64 - 1).pool
        with np.errstate(all="raise"):
            words = streams._trial_states(pool, 2**32 - 8, 2**32)
        assert dtypes == {"hash": {np.dtype(np.uint32)},
                          "mix": {np.dtype(np.uint32)},
                          "words": {np.dtype(np.uint64)}}
        assert words.shape == (8, 4)
        assert (words[:, 3] % 2 == 1).all()
        bit_gen = np.random.PCG64(0)
        streams._state_pair(bit_gen)[:] = words[-1, streams._pair_order()]
        bit_gen.random_raw()
        assert (bit_gen.state
                == trial_rng(2**64 - 1, 2**32 - 1).bit_generator.state)

    @settings(max_examples=200, deadline=None, database=None)
    @given(seeds=st.lists(st.tuples(*[st.one_of(
        st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]),
        st.integers(0, 2**64 - 1))] * 4), min_size=1, max_size=8))
    @example(seeds=[(0, 0, 0, 0)])
    @example(seeds=[(2**64 - 1,) * 4])
    @example(seeds=[(0, 2**64 - 1, 0, 2**64 - 1), (2**64 - 1, 0, 2**64 - 1, 0)])
    def test_prestep_words_match_python_ints(self, seeds):
        # inc = initseq << 1 | 1 and state = initstate + inc on uint64
        # words equal the same arithmetic on Python ints mod 2**128, the
        # carries out of the low words included.
        with np.errstate(all="raise"):
            got = streams._prestep_words(np.array(seeds, dtype=np.uint64))
        mask = 2**128 - 1
        for (s_hi, s_lo, q_hi, q_lo), row in zip(seeds, got.tolist()):
            inc = ((q_hi << 64 | q_lo) << 1 | 1) & mask
            state = ((s_hi << 64 | s_lo) + inc) & mask
            assert row == [state >> 64, state & 2**64 - 1,
                           inc >> 64, inc & 2**64 - 1]

    @settings(max_examples=25, deadline=None, database=None)
    @given(seed=st.integers(0, 2**64 - 1), lo=st.integers(0, 2**32 - 4))
    @example(seed=2**64 - 1, lo=2**32 - 4)
    def test_written_words_set_the_public_state(self, seed, lo):
        # Writing trial t's words into the pair and taking one step with
        # random_raw() leaves the generator in trial_rng(seed, t)'s state,
        # as the public state dict reads it.
        rng = trial_rng(seed, lo)
        pair = streams._state_pair(rng.bit_generator)
        pool = np.random.SeedSequence(seed).pool
        words = streams._trial_states(pool, lo, lo + 4)
        for t, trial_words in enumerate(words[:, streams._pair_order()], lo):
            rng.standard_normal(3)
            pair[:] = trial_words
            rng.bit_generator.random_raw()
            state = rng.bit_generator.state
            assert state == trial_rng(seed, t).bit_generator.state
            assert state["has_uint32"] == 0

    def test_unknown_state_layout_raises(self, monkeypatch):
        assert sorted(streams._pair_order().tolist()) == [0, 1, 2, 3]
        monkeypatch.setattr(streams, "_state_pair",
                            lambda bit_gen: np.array([1, 2, 3, 5], np.uint64))
        with pytest.raises(RuntimeError, match="unknown PCG64 state layout"):
            streams._pair_order.__wrapped__()
