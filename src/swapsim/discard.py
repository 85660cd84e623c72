"""Record-comparing discard rules and the one keep loop that applies them.

A discard rule is the classical counterpoint's "selection": an
after-the-fact decision that sees nothing but a record's own fields.  Two
rules manufacture a CHSH violation from local data — a deterministic target
rule reaching the algebraic maximum |S| = 4 and a probabilistic rule
reproducing the singlet's 2*sqrt(2).  The module needs numpy, the record
schema and the random kernel only, so ``classical discard`` runs without
the hidden-variable engine or the analysis; ``swapsim.classical``
re-exports the same objects.
"""

from __future__ import annotations

import math
from itertools import compress, islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .records import _CHSH_SIGNS, CHUNK, RecordChunk, _Frozen
from .rng import RandomSource

# Keep-decision draws live far above any trial's generation stream so a rule
# seeded like the generator never replays the generator's own uniforms.
_KEEP_STREAM_OFFSET = 1 << 48


class DiscardRule(_Frozen):
    """Run-retention rule that sees nothing but the record's own fields.

    ``kind`` is "deterministic" (keep_weight gives 0 or 1) or "probabilistic"
    (keep each record independently with its weight).
    """

    __slots__ = __match_args__ = ("kind", "description", "keep_weight")

    def __init__(self, kind: str, description: str, keep_weight: Callable[[object], float]) -> None:
        if kind not in ("deterministic", "probabilistic"):
            raise ValueError(f"rule kind must be deterministic|probabilistic, got {kind!r}")
        super().__init__(kind, description, keep_weight)

    def checked_weight(self, record) -> float:
        """keep_weight(record), rejected unless it lies in [0, 1]."""
        weight = float(self.keep_weight(record))
        if not 0.0 <= weight <= 1.0:
            raise ValueError(f"keep weight {weight!r} outside [0, 1] from rule {self.description}")
        return weight


def keep_mask(rule: DiscardRule, seed: int, trial_ids: Sequence[int], weights: np.ndarray) -> np.ndarray:
    """Keep decisions for rows with these trial ids and checked keep weights.

    A deterministic rule keeps weight >= 0.5.  A probabilistic rule keeps
    trial t when one uniform from the stream (seed, t + _KEEP_STREAM_OFFSET)
    falls below its weight, so decisions are reproducible, independent of
    how rows are grouped, and never collide with the draws that generated
    the record.
    """
    if rule.kind == "deterministic":
        return weights >= 0.5
    try:
        ids = np.array(trial_ids, dtype=np.int64)
    except OverflowError:  # an id past int64, which only a hand-written file holds
        ids = np.array([int(trial_id) % (1 << 64) for trial_id in trial_ids], dtype=np.uint64)
    # int64 to uint64 and uint64 array sums both wrap, so this is mod 2**64
    streams = ids.astype(np.uint64) + np.uint64(_KEEP_STREAM_OFFSET)
    return RandomSource(seed, streams).uniform() < weights


def discard_chunks(chunks: Iterable[RecordChunk], rule: DiscardRule, seed: int) -> Iterator[RecordChunk]:
    """The rows of each chunk that the rule keeps, as chunks sharing its templates.

    The rule weighs each template once, so it may read every field but
    trial_id, which its rows do not share; decisions are keep_mask's.
    """
    for chunk in chunks:
        kinds = np.array(chunk.kinds, dtype=np.intp)
        weights = np.array([rule.checked_weight(template) for template in chunk.templates])
        keep = keep_mask(rule, seed, chunk.trial_ids, weights[kinds])
        yield RecordChunk(list(compress(chunk.trial_ids, keep.tolist())), kinds[keep].tolist(), chunk.templates)


def apply_discard(records: Iterable, rule: DiscardRule, seed: int = 0) -> tuple[list, float]:
    """Retain records per the rule; returns (kept records, keep fraction).

    discard_chunks over CHUNK records at a time, each record its own
    template: keep_weight is called once per record, and the kept records
    are the input objects.
    """
    total = 0
    records = iter(records)

    def chunks():
        nonlocal total
        while chunk := list(islice(records, CHUNK)):
            total += len(chunk)
            yield RecordChunk([record.trial_id for record in chunk], list(range(len(chunk))), chunk)

    kept = [chunk.templates[kind] for chunk in discard_chunks(chunks(), rule, seed) for kind in chunk.kinds]
    return kept, (len(kept) / total if total else 0.0)


def pr_box_rule() -> DiscardRule:
    """Deterministic record-comparing rule that drives kept data to |S| = 4.

    Keep a record exactly when outcome0*outcome3 is its cell's sign in S
    (records._CHSH_SIGNS), so every kept cell is perfectly correlated with
    its sign in S and the kept ensemble reaches the algebraic maximum.
    """

    def weight(record) -> float:
        target = _CHSH_SIGNS[(record.setting0_index, record.setting3_index)]
        return 1.0 if record.outcome0 * record.outcome3 == target else 0.0

    return DiscardRule("deterministic", "pr-box", weight)


def quantum_mimic_rule() -> DiscardRule:
    """Probabilistic rule whose kept ensemble mimics singlet statistics.

    Keep weight w = (1 - outcome0*outcome3*cos 2(alpha-delta))/2, evaluated
    at the record's own analyzer angles.  On settings-uniform, outcome-uniform
    input the kept correlation is E(alpha, delta) = -cos 2(alpha-delta), the
    psi- curve, giving |S| = 2*sqrt(2) at canonical angles.
    """

    def weight(record) -> float:
        diff = math.radians(record.setting0_deg - record.setting3_deg)
        return (1.0 - record.outcome0 * record.outcome3 * math.cos(2.0 * diff)) / 2.0

    return DiscardRule("probabilistic", "quantum-mimic", weight)
