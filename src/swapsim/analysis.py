"""Correlation and CHSH estimation over (record, weight) pairs, with post-selection.

A weight is a count for sampled records and a probability for an exact
table (protocol.exact_records); both go through the one tally, _tally.

The estimators are plain mergeable counters: any partition of the records,
aggregated in any order, yields the same report.  Empty setting cells are a
hard error rather than a silent NaN, because post-selection can starve
cells and silence there would corrupt a conclusion.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple, Union

from .records import _SETTING_PAIRS, BsmOutcome, InsufficientDataError


class SelectionFilter(NamedTuple):
    """Deterministic record predicate used for post-selection."""

    description: str
    predicate: Callable[[object], bool]

    @staticmethod
    def none() -> "SelectionFilter":
        return SelectionFilter("none", lambda record: True)

    @staticmethod
    def bsm_equals(label: Union[BsmOutcome, str]) -> "SelectionFilter":
        wanted = label.value if isinstance(label, BsmOutcome) else str(label)
        return SelectionFilter(f"bsm={wanted}", lambda record: record.bsm_label == wanted)

    def keeps(self, record) -> bool:
        return self.predicate(record)


class CorrelationEstimate(NamedTuple):
    """E = (N++ + N-- - N+- - N-+)/N with binomial standard error."""

    e_value: float
    n: int
    std_err: float

    def to_json_dict(self) -> dict:
        return {"e": self.e_value, "n": self.n, "std_err": self.std_err}


class ChshReport(NamedTuple):
    """Four correlations, the combined S statistic, and selection bookkeeping."""

    e_ab: CorrelationEstimate
    e_ab_prime: CorrelationEstimate
    e_a_prime_b: CorrelationEstimate
    e_a_prime_b_prime: CorrelationEstimate
    s_value: float
    s_std_err: float
    filter_description: str
    kept: int
    total: int

    @property
    def s_abs(self) -> float:
        return abs(self.s_value)

    def to_json_dict(self) -> dict:
        return {
            "e_ab": self.e_ab.to_json_dict(),
            "e_ab_prime": self.e_ab_prime.to_json_dict(),
            "e_a_prime_b": self.e_a_prime_b.to_json_dict(),
            "e_a_prime_b_prime": self.e_a_prime_b_prime.to_json_dict(),
            "s": self.s_value,
            "s_abs": self.s_abs,
            "s_std_err": self.s_std_err,
            "filter": self.filter_description,
            "kept": self.kept,
            "total": self.total,
        }


class _Tally(NamedTuple):
    signed: dict  # cell -> sum of outcome0*outcome3*weight
    weights: dict  # cell -> sum of weight
    total: object  # every entry's weight, dropped ones included


def _tally(entries: Iterable[tuple[Union[tuple[int, int], None], int, object]]) -> _Tally:
    """The one accumulation over (cell, outcome0*outcome3, weight): per-cell signed and total weight.

    Weights are integer counts for records and probabilities for exact
    tables; the signed sum is accumulated as such.  A None cell marks weight
    the selection dropped, which counts only toward the returned total.
    """
    signed = dict.fromkeys(_SETTING_PAIRS, 0)
    weights = dict.fromkeys(_SETTING_PAIRS, 0)
    total = 0
    for cell, product, weight in entries:
        total += weight
        if cell is None:
            continue
        if cell not in weights:
            raise ValueError(f"setting indices {cell} outside the two-by-two design")
        signed[cell] += product * weight
        weights[cell] += weight
    return _Tally(signed, weights, total)


def _estimate(tally: _Tally, cell: tuple[int, int], filter_description: str) -> CorrelationEstimate:
    """E of one cell, signed over total weight, with its error; InsufficientDataError when the cell has none."""
    n = tally.weights[cell]
    if not n > 0:
        raise InsufficientDataError(f"setting cell {cell} is empty with filter {filter_description}")
    e = tally.signed[cell] / n
    return CorrelationEstimate(e, n, math.sqrt(max(0.0, 1.0 - e * e) / n))


def _report(tally: _Tally, filter_description: str, kept: int, total: int) -> ChshReport:
    estimates = {cell: _estimate(tally, cell, filter_description) for cell in _SETTING_PAIRS}
    e = {cell: estimate.e_value for cell, estimate in estimates.items()}
    s = e[(0, 0)] - e[(0, 1)] + e[(1, 0)] + e[(1, 1)]
    s_err = math.sqrt(sum(estimate.std_err ** 2 for estimate in estimates.values()))
    return ChshReport(*estimates.values(), s_value=float(s), s_std_err=float(s_err),
                      filter_description=filter_description, kept=kept, total=total)


def _record_entries(weighted: Iterable[tuple[object, int]], selection: SelectionFilter):
    """The tally entries of (record, count) pairs; the cell is None where the selection drops the record."""
    return (((record.setting0_index, record.setting3_index) if selection.keeps(record) else None,
             record.outcome0 * record.outcome3, count) for record, count in weighted)


def correlation_weighted(
    weighted: Iterable[tuple[object, int]],
    setting_pair: tuple[int, int],
    selection: Union[SelectionFilter, None] = None,
) -> CorrelationEstimate:
    """Estimate E for one setting cell over filtered (record, count) pairs; other cells may be empty."""
    selection = selection or SelectionFilter.none()
    pair = (int(setting_pair[0]), int(setting_pair[1]))
    if pair not in _SETTING_PAIRS:
        raise ValueError(f"setting pair {pair} outside the two-by-two design")
    return _estimate(_tally(_record_entries(weighted, selection)), pair, selection.description)


def chsh_from_counts(cell_counts, filter_description: str, kept: int, total: int) -> ChshReport:
    """A report from per-cell (aligned, opposed) counts, a dict keyed by cell.

    Counts summed across any partition of the records give the identical
    report.  Raises on any empty cell.
    """
    entries = ((cell, product, n) for cell in _SETTING_PAIRS for product, n in zip((+1, -1), cell_counts[cell]))
    return _report(_tally(entries), filter_description, kept, total)


def chsh_weighted(
    weighted: Iterable[tuple[object, int]],
    selection: Union[SelectionFilter, None] = None,
) -> ChshReport:
    """CHSH over (record, count) pairs, each standing for ``count`` copies of its record.

    Equal to chsh over the expanded records, so a caller that groups
    identical records (a columnar reader) pays one filter call per group.
    A count may be a probability (protocol.exact_records): each E and S is
    then exact, and ``kept`` is the probability the selection keeps.
    """
    selection = selection or SelectionFilter.none()
    tally = _tally(_record_entries(weighted, selection))
    return _report(tally, selection.description, sum(tally.weights.values()), tally.total)


def chsh(records: Iterable, selection: Union[SelectionFilter, None] = None) -> ChshReport:
    """Single-pass CHSH estimate: S = E(a,b) - E(a,b') + E(a',b) + E(a',b')."""
    return chsh_weighted(((record, 1) for record in records), selection)

