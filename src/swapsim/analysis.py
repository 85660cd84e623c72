"""Correlation and CHSH estimation over trial records, with post-selection.

The estimators are plain mergeable counters: any partition of the records,
aggregated in any order, yields the same report.  Empty setting cells are a
hard error rather than a silent NaN, because post-selection can starve
cells and silence there would corrupt a conclusion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Union

from .records import AnalyzerAngle, BsmOutcome, as_angle

# Cell roles in S = E(a,b) - E(a,b') + E(a',b) + E(a',b'); the minus sign
# sits on the (a, b') cell.  Fixed convention; reports carry |S| alongside.
_CELLS = ((0, 0), (0, 1), (1, 0), (1, 1))
_CELL_SIGNS = {(0, 0): +1.0, (0, 1): -1.0, (1, 0): +1.0, (1, 1): +1.0}


class InsufficientDataError(ValueError):
    """A requested estimate has an empty setting cell after filtering."""


class UndefinedPredictionError(ValueError):
    """No closed-form correlation exists for the requested outcome label."""


@dataclass(frozen=True)
class SelectionFilter:
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


@dataclass(frozen=True)
class CorrelationEstimate:
    """E = (N++ + N-- - N+- - N-+)/N with binomial standard error."""

    e_value: float
    n: int
    std_err: float

    def to_json_dict(self) -> dict:
        return {"e": self.e_value, "n": self.n, "std_err": self.std_err}


@dataclass(frozen=True)
class ChshReport:
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


def _tally(weighted: Iterable[tuple[object, int]], selection: SelectionFilter):
    """One streaming pass over (record, count) pairs: per-cell (aligned, opposed) counts plus totals."""
    counts = {cell: [0, 0] for cell in _CELLS}
    total = kept = 0
    for record, count in weighted:
        total += count
        if not selection.keeps(record):
            continue
        kept += count
        cell = (record.setting0_index, record.setting3_index)
        if cell not in counts:
            raise ValueError(f"setting indices {cell} outside the two-by-two design")
        counts[cell][0 if record.outcome0 == record.outcome3 else 1] += count
    return counts, kept, total


def _each_once(records: Iterable) -> Iterable[tuple[object, int]]:
    return ((record, 1) for record in records)


def correlation_from_counts(
    cell_counts,
    setting_pair: tuple[int, int],
    filter_description: str,
) -> CorrelationEstimate:
    """E for one cell from its (aligned, opposed) counts; ``cell_counts[setting_pair]`` holds them.

    Raises InsufficientDataError when the cell is empty.
    """
    aligned, opposed = cell_counts[setting_pair]
    n = aligned + opposed
    if n == 0:
        raise InsufficientDataError(
            f"no records in setting cell {setting_pair} with filter {filter_description}")
    e = (aligned - opposed) / n
    return CorrelationEstimate(e, n, math.sqrt(max(0.0, 1.0 - e * e) / n))


def correlation_weighted(
    weighted: Iterable[tuple[object, int]],
    setting_pair: tuple[int, int],
    selection: Union[SelectionFilter, None] = None,
) -> CorrelationEstimate:
    """Estimate E for one setting cell over filtered (record, count) pairs; other cells may be empty."""
    selection = selection or SelectionFilter.none()
    pair = (int(setting_pair[0]), int(setting_pair[1]))
    if pair not in _CELL_SIGNS:
        raise ValueError(f"setting pair {pair} outside the two-by-two design")
    counts, _, _ = _tally(weighted, selection)
    return correlation_from_counts(counts, pair, selection.description)


def correlation(
    records: Iterable,
    setting_pair: tuple[int, int],
    selection: Union[SelectionFilter, None] = None,
) -> CorrelationEstimate:
    """Estimate E for one setting cell over the filtered records."""
    return correlation_weighted(_each_once(records), setting_pair, selection)


def chsh_from_counts(
    cell_counts,
    filter_description: str,
    kept: int,
    total: int,
) -> ChshReport:
    """Combine per-cell (aligned, opposed) counts into a report.

    This is the mergeable-counter core: counts summed across any partition
    of the records give the identical report.  ``cell_counts`` is a dict
    keyed by cell.  Raises on any empty cell.
    """
    estimates = {cell: correlation_from_counts(cell_counts, cell, filter_description) for cell in _CELLS}
    s = sum(_CELL_SIGNS[cell] * estimates[cell].e_value for cell in _CELLS)
    s_err = math.sqrt(sum(estimates[cell].std_err ** 2 for cell in _CELLS))
    return ChshReport(
        e_ab=estimates[(0, 0)],
        e_ab_prime=estimates[(0, 1)],
        e_a_prime_b=estimates[(1, 0)],
        e_a_prime_b_prime=estimates[(1, 1)],
        s_value=float(s),
        s_std_err=float(s_err),
        filter_description=filter_description,
        kept=kept,
        total=total,
    )


def chsh_weighted(
    weighted: Iterable[tuple[object, int]],
    selection: Union[SelectionFilter, None] = None,
) -> ChshReport:
    """CHSH over (record, count) pairs, each standing for ``count`` copies of its record.

    Equal to chsh over the expanded records, so a caller that groups
    identical records (a columnar reader) pays one filter call per group.
    """
    selection = selection or SelectionFilter.none()
    counts, kept, total = _tally(weighted, selection)
    return chsh_from_counts(counts, selection.description, kept, total)


def chsh(records: Iterable, selection: Union[SelectionFilter, None] = None) -> ChshReport:
    """Single-pass CHSH estimate: S = E(a,b) - E(a,b') + E(a',b) + E(a',b')."""
    return chsh_weighted(_each_once(records), selection)


def chsh_exact(
    table: dict[tuple[int, int, int, int, BsmOutcome], float],
    label: Union[BsmOutcome, None],
) -> tuple[dict[tuple[int, int], float], float]:
    """Exact per-cell correlations and S of a joint table, conditioned on bsm == label.

    ``table`` maps (setting0, setting3, outcome0, outcome3, bsm) to a
    probability, as protocol.exact_joint_distribution gives it; ``label``
    None keeps every outcome.  A cell with no probability left after the
    condition raises InsufficientDataError, as an empty sampled cell does.
    """
    weights = {cell: 0.0 for cell in _CELLS}
    sums = {cell: 0.0 for cell in _CELLS}
    for (i0, i3, o0, o3, bsm), p in table.items():
        if label is not None and bsm is not label:
            continue
        weights[(i0, i3)] += p
        sums[(i0, i3)] += o0 * o3 * p
    description = "none" if label is None else f"bsm={label.value}"
    for cell in _CELLS:
        if weights[cell] <= 0.0:
            raise InsufficientDataError(f"no probability in setting cell {cell} with filter {description}")
    e = {cell: sums[cell] / weights[cell] for cell in _CELLS}
    return e, e[(0, 0)] - e[(0, 1)] + e[(1, 0)] + e[(1, 1)]


def predicted_correlation(
    bsm: BsmOutcome,
    alpha: Union[AnalyzerAngle, float],
    delta: Union[AnalyzerAngle, float],
) -> float:
    """Closed-form E(alpha, delta) for photons (0,3) given a resolving outcome.

    psi- and phi+ carry the angle difference, psi+ and phi- the angle sum;
    the psi states anticorrelate at equal angles, the phi states correlate.
    The coarse OTHER bucket mixes phi+ and phi-, whose correlations cancel
    at generic angles, so no single closed form applies.
    """
    a = as_angle(alpha).radians
    d = as_angle(delta).radians
    bsm = BsmOutcome(bsm)
    if bsm is BsmOutcome.PSI_MINUS:
        return -math.cos(2.0 * (a - d))
    if bsm is BsmOutcome.PSI_PLUS:
        return -math.cos(2.0 * (a + d))
    if bsm is BsmOutcome.PHI_PLUS:
        return math.cos(2.0 * (a - d))
    if bsm is BsmOutcome.PHI_MINUS:
        return math.cos(2.0 * (a + d))
    raise UndefinedPredictionError(
        "the coarse 'other' outcome has no single closed-form correlation"
    )
