"""Deterministic random-stream construction.

Every stochastic routine in the package draws from a stream built here, so
that any result is a pure function of a 64-bit root seed plus an integer
key path.  Streams for distinct keys are statistically independent, and the
stream for a given ``(root_seed, *key)`` never depends on how many other
streams exist or in which order they were created.  That makes per-path
simulation reproducible under any evaluation order, including parallel
execution.

Contract: ``stream(s, *key)`` is bit for bit
``np.random.default_rng(np.random.SeedSequence(s, spawn_key=key))``, and so
are its ``spawn`` children and its ``seed_seq``'s ``generate_state``,
``entropy`` and ``spawn_key``.

Simulations build one stream per path, ``stream(s, k)`` for k = 0, 1, ...,
and numpy's ``SeedSequence`` constructor is most of the cost of each.  For a
single key k in [0, 2**32) the keyed entropy pool differs from the pool of
``SeedSequence(s)`` only in a last mixing round: one ``hashmix(k)`` mixed
into each of the four pool words.  That round and ``generate_state(4,
uint64)``, the four words PCG64 seeds itself from, are uint32 arithmetic, so
they are computed here with numpy for a block of 4096 consecutive keys at
once (constants and word order as in numpy's ``SeedSequence``, after
O'Neill's ``seed_seq_fe``).  PCG64 then runs its own set-sequence
initialisation on those words (O'Neill, "PCG: A family of simple fast
space-efficient statistically good algorithms for random number
generation", 2014).  Every other key shape builds a ``SeedSequence``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import errors
from .errors import DEFAULT_SEED, integer  # DEFAULT_SEED: the package root exports it from here

# Keys whose seed words are derived together, in one cached block.
_BLOCK = 4096

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _hash_consts(init: int, mult: int, start: int, n: int) -> np.ndarray:
    """SeedSequence's hash constant at its ``start``-th to ``start+n-1``-th hash step."""
    steps = range(start, start + n)
    return np.array([init * pow(mult, j, 2**32) % 2**32 for j in steps], dtype=np.uint32)


@lru_cache(maxsize=1)
def _seed_words(root_seed: int, block: int) -> np.ndarray:
    """PCG64 seed words of keys ``block*_BLOCK + i``: read-only ``(_BLOCK, 4)`` uint64.

    Row i equals ``SeedSequence(root_seed, spawn_key=(key,)).generate_state(4,
    np.uint64)``.  One cached block serves a loop over consecutive keys.
    """
    from numpy.random import bit_generator

    bit_generator.ISpawnableSeedSequence.register(_KeyedSeedSequence)
    mix_l = bit_generator.SeedSequence(root_seed).pool * np.uint32(_MIX_L)
    a = _hash_consts(_INIT_A, _MULT_A, _POOL * _POOL, _POOL + 1)
    b = _hash_consts(_INIT_B, _MULT_B, 0, 2 * _POOL + 1)
    keys = np.arange(block * _BLOCK, (block + 1) * _BLOCK, dtype=np.uint32)
    state = np.empty((_BLOCK, 2 * _POOL), dtype="<u4")
    # The key is the fifth entropy word: hash steps 16-19 of mix_entropy hash
    # it once per pool word, and mix(pool word, hashed key) gives the pool.
    # generate_state(4, uint64) reads eight words cycling over the pool.
    for j in range(_POOL):
        h = (keys ^ a[j]) * a[j + 1]
        h = mix_l[j] - (h ^ h >> 16) * np.uint32(_MIX_R)
        state[:, j] = state[:, j + _POOL] = h ^ h >> 16
    # Hash the eight words, then pair them little-endian into four uint64.
    for j in range(2 * _POOL):
        h = (state[:, j] ^ b[j]) * b[j + 1]
        state[:, j] = h ^ h >> 16
    words = state.view("<u8").astype(np.uint64, copy=False)
    words.flags.writeable = False
    return words


class _KeyedSeedSequence:
    """``SeedSequence(root_seed, spawn_key=(key,))`` with its PCG64 words precomputed.

    ``generate_state(4, np.uint64)`` returns the precomputed (read-only)
    words; everything else -- ``spawn``, other sizes, ``entropy``,
    ``spawn_key``, pickling -- goes to a real ``SeedSequence``, built on
    first use.  Registered as an ``ISpawnableSeedSequence`` by
    ``_seed_words``.
    """

    __slots__ = ("_root_seed", "_key", "_words", "_seq")

    def __init__(self, root_seed: int, key: int, words: np.ndarray) -> None:
        self._root_seed = root_seed
        self._key = key
        self._words = words
        self._seq = None

    def _full(self) -> np.random.SeedSequence:
        if self._seq is None:
            self._seq = np.random.SeedSequence(self._root_seed, spawn_key=(self._key,))
        return self._seq

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words == 4 and np.dtype(dtype) == np.uint64:
            return self._words
        return self._full().generate_state(n_words, dtype)

    def __getattr__(self, name: str):
        return getattr(self._full(), name)

    def __reduce__(self):
        return self._full().__reduce__()

    def __repr__(self) -> str:
        return repr(self._full())


def stream(root_seed: int, *key: int) -> np.random.Generator:
    """Return the generator identified by ``(root_seed, *key)``.

    ``stream(s)`` is the base stream for seed ``s``; ``stream(s, k)`` is the
    k-th derived stream (used e.g. for simulation path ``k`` or player ``k``).
    The root seed must be an integer in [0, 2**64) and each key a
    nonnegative integer; numpy integers are accepted.
    """
    seed = errors.root_seed(root_seed)
    key = tuple([integer(k, "stream key", 0) for k in key])
    if len(key) == 1 and key[0] < 2**32:
        (k,) = key
        seq = _KeyedSeedSequence(seed, k, _seed_words(seed, k // _BLOCK)[k % _BLOCK])
        return np.random.Generator(np.random.PCG64(seq))
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
