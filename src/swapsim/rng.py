"""Seeded uniform streams from swapsim's own Philox4x64-10 kernel, on numpy alone.

``RandomSource`` supplies every uniform swapsim draws, one stream or many:
identical (seed, stream) pairs reproduce identical draws on any platform,
and distinct streams are independent.  ``trial_draws`` is the one place
that keys per-trial streams and picks a trial's settings, for the quantum
sampler, the classical generator and blind-check alike.  ``record_chunks``
is the one place that turns those chunks into RecordChunks, so each
sampler supplies only a kind table and the kinds of a chunk.  This module
needs nothing from the quantum stack, so the classical engine reaches the
kernel without loading it; ``swapsim.measure`` re-exports the same class.
"""

from __future__ import annotations

from itertools import starmap
from typing import Callable, Iterator, Sequence, Union

import numpy as np

from .records import CHUNK, RecordChunk, as_integer

_MASK64 = (1 << 64) - 1

# Philox4x64-10 constants (Salmon et al., SC'11), as in numpy's Philox.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_DOUBLE_SHIFT = np.uint64(11)
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53


def _mulhi(multiplier: int, x: np.ndarray, high: np.ndarray, scratch: list[np.ndarray]) -> None:
    """High 64-bit word of the 128-bit product multiplier * x into ``high``, from 32-bit limbs.

    Four limb products: u = hi*lo + (lo*lo >> 32), v = lo*hi + (u & M32),
    high = hi*hi + (u >> 32) + (v >> 32); no partial sum passes 2**64.  Every
    step writes into ``high`` or one of the four ``scratch`` arrays, never ``x``.
    """
    m_hi, m_lo = np.uint64(multiplier >> 32), np.uint64(multiplier & 0xFFFFFFFF)
    x_lo, x_hi, u, v = scratch
    np.bitwise_and(x, _LO32, out=x_lo)
    np.right_shift(x, _SHIFT32, out=x_hi)
    np.multiply(x_lo, m_hi, out=u)
    np.multiply(x_lo, m_lo, out=x_lo)
    np.right_shift(x_lo, _SHIFT32, out=x_lo)
    np.add(u, x_lo, out=u)
    np.multiply(x_hi, m_lo, out=v)
    np.bitwise_and(u, _LO32, out=x_lo)
    np.add(v, x_lo, out=v)
    np.multiply(x_hi, m_hi, out=high)
    np.right_shift(u, _SHIFT32, out=u)
    np.add(high, u, out=high)
    np.right_shift(v, _SHIFT32, out=v)
    np.add(high, v, out=high)


def _philox_words(seed: int, streams: np.ndarray, first_block: int, blocks: int) -> np.ndarray:
    """Philox4x64-10 output words of counter blocks first_block.. for key (seed, stream).

    Returns shape (len(streams), 4 * blocks): row i holds the words numpy's
    Philox(key=[seed, streams[i]]) emits from that block on, in order.  The
    four state words and every intermediate live in arrays allocated once
    per call; ``streams`` is only read.
    """
    shape = (len(streams), blocks)
    c0, c1, c2, c3, hi0, hi1, *scratch = (np.zeros(shape, dtype=np.uint64) for _ in range(10))
    c0[:] = np.arange(first_block, first_block + blocks, dtype=np.uint64)
    key1 = streams[:, None]
    k1 = np.empty((len(streams), 1), dtype=np.uint64)
    m0, m1 = np.uint64(_PHILOX_M[0]), np.uint64(_PHILOX_M[1])
    for r in range(_PHILOX_ROUNDS):
        k0 = np.uint64((seed + r * _PHILOX_W[0]) & _MASK64)
        np.add(key1, np.uint64((r * _PHILOX_W[1]) & _MASK64), out=k1)
        _mulhi(_PHILOX_M[0], c0, hi0, scratch)
        _mulhi(_PHILOX_M[1], c2, hi1, scratch)
        # (c0, c1, c2, c3) <- (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0); the low
        # words are the products mod 2**64, which uint64 multiplication gives
        np.bitwise_xor(hi1, c1, out=hi1)
        np.bitwise_xor(hi1, k0, out=hi1)
        np.multiply(c2, m1, out=c1)
        np.bitwise_xor(hi0, c3, out=hi0)
        np.bitwise_xor(hi0, k1, out=hi0)
        np.multiply(c0, m0, out=c3)
        c0, hi1 = hi1, c0
        c2, hi0 = hi0, c2
    return np.stack((c0, c1, c2, c3), axis=-1).reshape(len(streams), 4 * blocks)


class RandomSource:
    """Counter-based uniform stream keyed by (seed, stream), or many such streams.

    Every stream is swapsim's Philox4x64-10 kernel above, so streams with
    distinct keys are statistically independent and a given key always
    yields the same sequence of doubles.  An integer ``stream`` is the
    one-row case: ``uniform()`` returns a float and ``uniforms(count)`` has
    shape (count,).  A 1-D integer array of streams evaluates all keys at
    once: ``uniforms(count)`` then returns one row per stream, bit-identical
    to the integer form of that stream.  Successive calls continue each
    stream, and keys are taken mod 2**64.  A key is an int or a numpy
    integer, never a bool or float (TypeError).
    """

    __slots__ = ("seed", "stream", "_keys", "_drawn")

    def __init__(self, seed: int, stream: Union[int, np.ndarray] = 0) -> None:
        self.seed = as_integer("seed", seed) & _MASK64
        self._drawn = 0
        if np.ndim(stream) == 0:
            self.stream = as_integer("stream", stream) & _MASK64
            self._keys = np.array([self.stream], dtype=np.uint64)
            return
        streams = np.asarray(stream)
        if streams.ndim != 1 or streams.dtype.kind not in "iu":
            raise ValueError(f"streams must be a 1-D integer array, got {streams.dtype} {streams.shape}")
        self.stream = self._keys = streams.astype(np.uint64)  # two's complement: the same as mod 2**64

    def uniform(self) -> Union[float, np.ndarray]:
        """Next double in [0, 1): a float, or one per stream for an array of streams."""
        draws = self.uniforms(1)
        return float(draws[0]) if draws.ndim == 1 else draws[:, 0]

    def uniforms(self, count: int) -> np.ndarray:
        """Next ``count`` doubles; consumes the same stream as repeated uniform().

        Shape (count,) for one stream, (streams, count) for an array of them.
        """
        count = int(count)
        first, self._drawn = self._drawn, self._drawn + count
        # numpy's Philox advances its counter before the first block, so
        # draw j of a stream is word j % 4 of counter block j // 4 + 1.
        block = first // 4
        blocks = (first + count + 3) // 4 - block
        words = _philox_words(self.seed, self._keys, block + 1, blocks)
        offset = first - 4 * block
        draws = (words[:, offset:offset + count] >> _DOUBLE_SHIFT) * _DOUBLE_UNIT
        return draws if np.ndim(self.stream) else draws[0]


def trial_draws(seed: int, start: int, stop: int, count: int) -> Iterator[tuple[np.ndarray, ...]]:
    """(trial_ids, setting0, setting3, draws) for trials start..stop-1, CHUNK trials at a time.

    Trial t reads ``count`` uniforms from the stream (seed, t); row r of
    ``draws`` holds those of trial_ids[r].  The first two pick its settings:
    u < 0.5 picks index 0.  Streams are counter-based, so every chunking,
    one trial included, gives each trial the same draws.
    """
    for first in range(start, stop, CHUNK):
        trial_ids = np.arange(first, min(first + CHUNK, stop), dtype=np.int64)
        draws = RandomSource(seed, trial_ids).uniforms(count)
        yield trial_ids, (draws[:, 0] >= 0.5).astype(np.int64), (draws[:, 1] >= 0.5).astype(np.int64), draws
        del trial_ids, draws  # freed before the next chunk is drawn


def record_chunks(seed: int, start: int, stop: int, count: int, templates: Sequence,
                  kinds: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]) -> Iterator[RecordChunk]:
    """Trials start..stop-1 of trial_draws(seed, start, stop, count) as RecordChunks sharing ``templates``.

    ``kinds(setting0, setting3, draws)`` gives each row's kind_index into
    ``templates``.  starmap keeps no chunk's arrays once its RecordChunk is
    built, so they are freed before the next chunk is drawn.
    """
    def chunk(trial_ids, setting0, setting3, draws) -> RecordChunk:
        return RecordChunk(trial_ids.tolist(), kinds(setting0, setting3, draws).tolist(), templates)

    return starmap(chunk, trial_draws(seed, start, stop, count))
