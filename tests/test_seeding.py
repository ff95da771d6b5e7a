import copy
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from betlab import seeding
from betlab.errors import DomainError
from betlab.seeding import DEFAULT_SEED, stream

SEEDS = st.integers(min_value=0, max_value=2**64 - 1)
KEYS = st.integers(min_value=0, max_value=2**32 - 1)


def oracle(root_seed, *key):
    """The stream's definition: numpy's SeedSequence with the key as spawn key."""
    return np.random.default_rng(np.random.SeedSequence(root_seed, spawn_key=key))


def assert_same_draws(a, b):
    assert a.bit_generator.state == b.bit_generator.state
    assert np.array_equal(a.random(7), b.random(7))
    assert np.array_equal(a.standard_normal(5), b.standard_normal(5))
    assert np.array_equal(a.integers(0, 2**40, size=6), b.integers(0, 2**40, size=6))


def assert_same_seed_seq(a, b):
    sa, sb = a.bit_generator.seed_seq, b.bit_generator.seed_seq
    assert np.array_equal(sa.generate_state(8), sb.generate_state(8))
    assert np.array_equal(sa.generate_state(4, np.uint64), sb.generate_state(4, np.uint64))
    assert np.array_equal(sa.generate_state(3, np.uint64), sb.generate_state(3, np.uint64))
    assert sa.entropy == sb.entropy
    assert sa.spawn_key == sb.spawn_key
    assert np.array_equal(sa.pool, sb.pool)


class TestOracle:
    @settings(max_examples=300)
    @given(SEEDS, KEYS)
    @example(0, 0)
    @example(2**32 - 1, 4095)
    @example(2**32, 4096)
    @example(2**64 - 1, 2**32 - 1)
    @example(DEFAULT_SEED, 1)
    def test_one_key(self, root_seed, key):
        assert_same_draws(stream(root_seed, key), oracle(root_seed, key))

    @settings(max_examples=100)
    @given(SEEDS, KEYS)
    @example(2**64 - 1, 4096)
    def test_seed_seq(self, root_seed, key):
        assert_same_seed_seq(stream(root_seed, key), oracle(root_seed, key))

    @pytest.mark.parametrize("root_seed, key", [(0, 0), (DEFAULT_SEED, 4097)])
    def test_seed_seq_repr(self, root_seed, key):
        mine = stream(root_seed, key).bit_generator.seed_seq
        assert repr(mine) == repr(oracle(root_seed, key).bit_generator.seed_seq)

    @settings(max_examples=100)
    @given(SEEDS, KEYS)
    @example(0, 4095)
    def test_spawn(self, root_seed, key):
        mine, theirs = stream(root_seed, key), oracle(root_seed, key)
        for _ in range(2):  # the second spawn continues the children's count
            children = mine.spawn(2)
            expected = theirs.spawn(2)
            for a, b in zip(children, expected):
                assert_same_draws(a, b)
                assert_same_seed_seq(a, b)
        assert mine.bit_generator.seed_seq.n_children_spawned == 4

    @settings(max_examples=100)
    @given(SEEDS, KEYS, st.integers(min_value=0, max_value=20))
    def test_pickle_and_deepcopy(self, root_seed, key, used):
        mine, theirs = stream(root_seed, key), oracle(root_seed, key)
        mine.random(used)
        theirs.random(used)
        for copied in (pickle.loads(pickle.dumps(mine)), copy.deepcopy(mine)):
            assert_same_seed_seq(copied, theirs)
            assert_same_draws(copied, copy.deepcopy(theirs))
            for a, b in zip(copied.spawn(2), copy.deepcopy(theirs).spawn(2)):
                assert_same_draws(a, b)
        assert_same_draws(mine, theirs)

    @settings(max_examples=100)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0, 1, 2**64 - 1]),
                st.one_of(st.integers(0, 3 * 4096), st.sampled_from([4095, 4096, 2**32 - 1])),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_interleaved_seeds_and_blocks(self, calls):
        # One cached block at a time: a call for another seed or block
        # replaces it, and generators made earlier must keep their words.
        made = [(stream(s, k), s, k) for s, k in calls]
        for gen, s, k in made:
            assert_same_draws(gen, oracle(s, k))
        for s, k in reversed(calls):
            assert_same_draws(stream(s, k), oracle(s, k))

    @pytest.mark.parametrize(
        "key", [(), (0, 0), (3, 2**32), (2**32,), (2**40,), (2**64,), (1, 2, 3)]
    )
    def test_other_key_shapes(self, key):
        for root_seed in (0, DEFAULT_SEED, 2**64 - 1):
            assert_same_draws(stream(root_seed, *key), oracle(root_seed, *key))

    def test_numpy_integers(self):
        assert_same_draws(stream(np.uint64(2**64 - 1), np.int64(4096)), oracle(2**64 - 1, 4096))
        assert_same_draws(stream(np.int32(5), np.uint32(7)), oracle(5, 7))

    def test_is_a_spawnable_seed_sequence(self):
        from numpy.random.bit_generator import ISpawnableSeedSequence

        assert isinstance(stream(1, 2).bit_generator.seed_seq, ISpawnableSeedSequence)


class TestValidation:
    @pytest.mark.parametrize(
        "root_seed",
        [1.5, 1.0, math.nan, math.inf, True, False, -1, 2**64, "3", None, np.float64(2.0)],
    )
    def test_bad_root_seed(self, root_seed):
        with pytest.raises(DomainError, match="root_seed"):
            stream(root_seed)
        with pytest.raises(DomainError, match="root_seed"):
            stream(root_seed, 3)

    @pytest.mark.parametrize("key", [-1, -(2**40), 1.5, 3.0, math.nan, "3", True, None])
    def test_bad_key(self, key):
        with pytest.raises(DomainError, match="key"):
            stream(1, key)
        with pytest.raises(DomainError, match="key"):
            stream(1, 0, key)

    @given(SEEDS.map(lambda s: -s - 1) | st.integers(min_value=2**64))
    def test_seed_out_of_range(self, root_seed):
        message = r"root_seed must lie in \[0, 18446744073709551615\]"
        with pytest.raises(DomainError, match=message):
            stream(root_seed, 0)


class TestMemory:
    def test_one_block_has_no_full_size_temporaries(self):
        # The result is 128 KB and one uint32 column 16 KB; temporaries the
        # size of the whole block would pass 400 KB.  The first call loads
        # what numpy loads lazily.
        seeding._seed_words(1, 0)
        seeding._seed_words.cache_clear()
        tracemalloc.start()
        try:
            seeding._seed_words(DEFAULT_SEED, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 256 * 1024
