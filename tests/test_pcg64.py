"""swapsim.pcg64 against numpy.random.default_rng, its reference, bit for bit."""

import numpy as np
import pytest

from swapsim import pcg64
from swapsim.pcg64 import PCG64

# 0..299, the 32- and 64-bit edges, and seeds of three and seven 32-bit
# words: a seed longer than SeedSequence's four-word pool is mixed in apart.
SEEDS = [*range(300), 2**32 - 1, 2**32, 2**40 + 7, 2**64 - 1, 2**64, (1 << 73) + 12345, 2**200 + 3]

# From seed 1, the first 340 725 normals (348 276 raw words) are the fewest
# that take every ziggurat branch: the fast return at every index but 1
# (ki_double[1] is 0), the wedge test at every index 1..255, and the tail.
BRANCH_COVERING_NORMALS = 340_725


def _hex(values) -> list[str]:
    return [float(value).hex() for value in values]


def test_a_fourier_models_draws_equal_default_rngs():
    mismatched = []
    for seed in SEEDS:
        ours = PCG64(seed)
        drawn = ([ours.uniform(0.0, np.pi) for _ in range(2)] + [ours.normal() for _ in range(9)]
                 + [ours.uniform(0.0, 2.0 * np.pi) for _ in range(9)])
        ref = np.random.default_rng(seed)
        expected = [*ref.uniform(0.0, np.pi, 2), *ref.normal(size=(3, 3)).ravel(),
                    *ref.uniform(0.0, 2.0 * np.pi, (3, 3)).ravel()]
        if _hex(drawn) != _hex(expected):
            mismatched.append(seed)
    assert mismatched == []


def test_raw_words_and_doubles_equal_pcg64s():
    ours, ref = PCG64(2**64 + 5), np.random.default_rng(2**64 + 5)
    assert [ours.next64() for _ in range(1000)] == [int(word) for word in ref.bit_generator.random_raw(1000)]
    assert _hex(ours.random() for _ in range(1000)) == _hex(ref.random(1000))


class _Logged(PCG64):
    """A PCG64 that keeps every raw word drawn after seeding."""

    def __init__(self, seed: int) -> None:
        self.words = []
        super().__init__(seed)
        self.words.clear()

    def next64(self) -> int:
        word = super().next64()
        self.words.append(word)
        return word


def _branches(call: list[int], fast: set, wedge: set, tail: set) -> None:
    """Add the ziggurat index of each branch one normal() took, from the raw words it drew.

    Each try draws a word; a fast return ends the call, the wedge test
    draws one double more and either ends it or tries again, and the tail
    (index 0) draws pairs of doubles until it ends the call.
    """
    at = 0
    while at < len(call):
        idx, rabs = call[at] & 0xFF, (call[at] >> 9) & 0x000FFFFFFFFFFFFF
        if rabs < pcg64._KI[idx]:
            fast.add(idx)
            at += 1
        elif idx == 0:
            tail.add(idx)
            at = len(call)
        else:
            wedge.add(idx)
            at += 2


def test_a_long_normal_stream_equals_numpys_and_takes_every_branch():
    ours = _Logged(1)
    fast, wedge, tail = set(), set(), set()
    drawn = np.empty(BRANCH_COVERING_NORMALS)
    for i in range(BRANCH_COVERING_NORMALS):
        start = len(ours.words)
        drawn[i] = ours.normal()
        _branches(ours.words[start:], fast, wedge, tail)
    assert drawn.tobytes() == np.random.default_rng(1).normal(size=BRANCH_COVERING_NORMALS).tobytes()
    assert len(ours.words) == 348_276
    assert (sorted(set(range(256)) - fast), sorted(set(range(1, 256)) - wedge), tail) == ([1], [], {0})


def test_a_second_long_normal_stream_equals_numpys():
    ours = PCG64(2)
    drawn = np.array([ours.normal() for _ in range(200_000)])
    assert drawn.tobytes() == np.random.default_rng(2).normal(size=200_000).tobytes()


def test_a_negative_seed_is_refused():
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1$"):
        PCG64(-1)
