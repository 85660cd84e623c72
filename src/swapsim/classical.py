"""Classical record generation and the discard rules that mine it.

This module is the counterpoint to the quantum protocol: outcomes come from
local hidden variables (one lambda per source pair, uniform on [0, pi)), and
"selection" is an after-the-fact rule that compares the two polarization
records.  Two rules manufacture a CHSH violation from such data — a
deterministic target rule reaching the algebraic maximum |S| = 4 and a
probabilistic rule reproducing the singlet's 2*sqrt(2) — while
settings-blind markers, the honest classical stand-in for a joint
measurement outcome used as a label, never push |S| past the local bound 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .analysis import ChshReport, chsh_from_counts, tally_cells
from .measure import RandomSource
from .records import CHUNK, AnalyzerAngle, ClassicalRecord, as_angle, setting_pair

# Keep-decision draws live far above any trial's generation stream so a rule
# seeded like the generator never replays the generator's own uniforms.
_KEEP_STREAM_OFFSET = 1 << 48

_DRAWS_PER_TRIAL = 4  # setting0, setting3, lambda0, lambda1


@dataclass(frozen=True)
class ClassicalConfig:
    """Batch description for hidden-variable runs: settings, size, seed."""

    angles0: tuple[AnalyzerAngle, AnalyzerAngle] = (AnalyzerAngle(0.0), AnalyzerAngle(45.0))
    angles3: tuple[AnalyzerAngle, AnalyzerAngle] = (AnalyzerAngle(22.5), AnalyzerAngle(67.5))
    trials: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "angles0", setting_pair("angles0", self.angles0))
        object.__setattr__(self, "angles3", setting_pair("angles3", self.angles3))
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "seed", int(self.seed))
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")


@dataclass(frozen=True)
class HiddenVariableModel:
    """Local deterministic outcome functions plus a settings-blind marker.

    ``outcome0(angle_rad, lam0)`` and ``outcome3(angle_rad, lam1)`` map numpy
    arrays to +-1 arrays; each sees only its own station's angle and its own
    pair's hidden variable.  ``marker(lam0, lam1)`` maps to indices into
    ``marker_labels``; its signature is the blindness guarantee — no angle or
    outcome ever reaches it.
    """

    name: str
    outcome0: Callable[[np.ndarray, np.ndarray], np.ndarray]
    outcome3: Callable[[np.ndarray, np.ndarray], np.ndarray]
    marker: Callable[[np.ndarray, np.ndarray], np.ndarray]
    marker_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        labels = tuple(str(l) for l in self.marker_labels)
        if not labels:
            raise ValueError("model needs at least one marker label")
        if len(set(labels)) != len(labels):
            raise ValueError(f"marker labels must be distinct, got {labels}")
        object.__setattr__(self, "marker_labels", labels)


def _raw_chunks(config: ClassicalConfig) -> Iterator[tuple]:
    """Per-chunk trial arrays (trial_ids, i0, i3, lam0, lam1).

    Trial t consumes 4 uniforms from stream (seed, t): setting0, setting3
    (u < 0.5 picks index 0, matching the quantum protocol), then the two
    hidden variables scaled onto [0, pi).
    """
    for start in range(0, config.trials, CHUNK):
        trial_ids = np.arange(start, min(start + CHUNK, config.trials), dtype=np.int64)
        u = RandomSource(config.seed, trial_ids).uniforms(_DRAWS_PER_TRIAL)
        i0 = (u[:, 0] >= 0.5).astype(np.int64)
        i3 = (u[:, 1] >= 0.5).astype(np.int64)
        lam0 = u[:, 2] * np.pi
        lam1 = u[:, 3] * np.pi
        yield trial_ids, i0, i3, lam0, lam1


def _evaluate(
    model: HiddenVariableModel,
    rad0: np.ndarray,
    rad3: np.ndarray,
    i0: np.ndarray,
    i3: np.ndarray,
    lam0: np.ndarray,
    lam1: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    o0 = np.asarray(model.outcome0(rad0[i0], lam0))
    o3 = np.asarray(model.outcome3(rad3[i3], lam1))
    marks = np.asarray(model.marker(lam0, lam1), dtype=np.int64)
    if not (np.abs(o0) == 1).all() or not (np.abs(o3) == 1).all():
        raise ValueError(f"model {model.name} produced outcomes outside +-1")
    if marks.min() < 0 or marks.max() >= len(model.marker_labels):
        raise ValueError(f"model {model.name} produced a marker index out of range")
    return o0.astype(np.int64), o3.astype(np.int64), marks


@dataclass(frozen=True)
class ClassicalChunk:
    """Consecutive hidden-variable trials, one array per record field.

    Outcomes are +-1; ``marks`` indexes the model's marker labels.
    """

    config: ClassicalConfig
    marker_labels: tuple[str, ...]
    trial_ids: np.ndarray
    setting0: np.ndarray
    setting3: np.ndarray
    outcome0: np.ndarray
    outcome3: np.ndarray
    marks: np.ndarray

    def kinds(self) -> np.ndarray:
        """Per row, an index of every record field but trial_id."""
        signs = (self.outcome0 < 0) * 2 + (self.outcome3 < 0)
        return ((self.setting0 * 2 + self.setting3) * 4 + signs) * len(self.marker_labels) + self.marks

    def records(self, rows=slice(None)) -> Iterator[ClassicalRecord]:
        """The selected rows (default all) as records, in row order."""
        deg0 = (self.config.angles0[0].degrees, self.config.angles0[1].degrees)
        deg3 = (self.config.angles3[0].degrees, self.config.angles3[1].degrees)
        labels = self.marker_labels
        columns = (self.trial_ids, self.setting0, self.setting3, self.outcome0, self.outcome3, self.marks)
        for trial_id, i0, i3, o0, o3, mark in zip(*(column[rows].tolist() for column in columns)):
            yield ClassicalRecord(trial_id, i0, deg0[i0], i3, deg3[i3], o0, o3, labels[mark])


def lhv_chunks(model: HiddenVariableModel, config: ClassicalConfig) -> Iterator[ClassicalChunk]:
    """Lazily yield the batch in chunks of CHUNK trials; deterministic for a given seed."""
    rad0 = np.array([config.angles0[0].radians, config.angles0[1].radians])
    rad3 = np.array([config.angles3[0].radians, config.angles3[1].radians])
    for trial_ids, i0, i3, lam0, lam1 in _raw_chunks(config):
        o0, o3, marks = _evaluate(model, rad0, rad3, i0, i3, lam0, lam1)
        yield ClassicalChunk(config, model.marker_labels, trial_ids, i0, i3, o0, o3, marks)


def run_lhv(model: HiddenVariableModel, config: ClassicalConfig) -> Iterator[ClassicalRecord]:
    """Lazily yield one record per trial; deterministic for a given seed."""
    for chunk in lhv_chunks(model, config):
        yield from chunk.records()


@dataclass(frozen=True)
class DiscardRule:
    """Run-retention rule that sees nothing but the record's own fields.

    ``kind`` is "deterministic" (keep_weight gives 0 or 1) or "probabilistic"
    (keep each record independently with its weight).
    """

    kind: str
    description: str
    keep_weight: Callable[[object], float]

    def __post_init__(self) -> None:
        if self.kind not in ("deterministic", "probabilistic"):
            raise ValueError(f"rule kind must be deterministic|probabilistic, got {self.kind!r}")

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
    streams = [(int(trial_id) + _KEEP_STREAM_OFFSET) % (1 << 64) for trial_id in trial_ids]
    return RandomSource(seed, np.array(streams, dtype=np.uint64)).uniform() < weights


def apply_discard(records: Iterable, rule: DiscardRule, seed: int = 0) -> tuple[list, float]:
    """Retain records per the rule; returns (kept records, keep fraction).

    keep_weight is called once per record; decisions are keep_mask's,
    taken CHUNK records at a time.
    """
    kept: list = []
    total = 0
    records = iter(records)
    while chunk := list(islice(records, CHUNK)):
        total += len(chunk)
        weights = np.array([rule.checked_weight(record) for record in chunk])
        keep = keep_mask(rule, seed, [record.trial_id for record in chunk], weights)
        kept.extend(record for record, keep_it in zip(chunk, keep.tolist()) if keep_it)
    return kept, (len(kept) / total if total else 0.0)


def _label_suffix(angle_labels) -> str:
    if angle_labels is None:
        return ""
    a, a_prime, b, b_prime = (as_angle(x).degrees for x in angle_labels)
    return f"({a:g},{a_prime:g};{b:g},{b_prime:g})"


def pr_box_rule(angle_labels=None) -> DiscardRule:
    """Deterministic record-comparing rule that drives kept data to |S| = 4.

    Keep a record exactly when outcome0*outcome3 hits the cell's target sign.
    The -1 target sits on the (a, b') cell — the one entering S with a minus
    sign — so every kept cell is perfectly correlated with its sign in S and
    the kept ensemble reaches the algebraic maximum.  ``angle_labels`` only
    annotates the description; the rule reads setting indices.
    """
    targets = {(0, 0): +1, (0, 1): -1, (1, 0): +1, (1, 1): +1}

    def weight(record) -> float:
        target = targets[(record.setting0_index, record.setting3_index)]
        return 1.0 if record.outcome0 * record.outcome3 == target else 0.0

    return DiscardRule("deterministic", "pr-box" + _label_suffix(angle_labels), weight)


def quantum_mimic_rule(angle_labels=None) -> DiscardRule:
    """Probabilistic rule whose kept ensemble mimics singlet statistics.

    Keep weight w = (1 - outcome0*outcome3*cos 2(alpha-delta))/2, evaluated
    at the record's own analyzer angles.  On settings-uniform, outcome-uniform
    input the kept correlation is E(alpha, delta) = -cos 2(alpha-delta), the
    psi- curve, giving |S| = 2*sqrt(2) at canonical angles.
    """

    def weight(record) -> float:
        diff = math.radians(record.setting0_deg - record.setting3_deg)
        return (1.0 - record.outcome0 * record.outcome3 * math.cos(2.0 * diff)) / 2.0

    return DiscardRule("probabilistic", "quantum-mimic" + _label_suffix(angle_labels), weight)


def _sign(values: np.ndarray) -> np.ndarray:
    # sgn with the tie broken upward so outputs are always +-1
    return np.where(values >= 0.0, 1, -1)


def sign_model() -> HiddenVariableModel:
    """Malus-law threshold model: outcome sgn(cos 2(angle - lambda)).

    The marker compares the two hidden variables the same way, never the
    settings, so it is the canonical settings-blind label.
    """
    return HiddenVariableModel(
        name="sign",
        outcome0=lambda angle, lam: _sign(np.cos(2.0 * (angle - lam))),
        outcome3=lambda angle, lam: _sign(np.cos(2.0 * (angle - lam))),
        marker=lambda lam0, lam1: (np.cos(2.0 * (lam0 - lam1)) < 0.0).astype(np.int64),
        marker_labels=("near", "far"),
    )


def uniform_model() -> HiddenVariableModel:
    """Angle-ignoring model: outcomes are fair +-1 coins driven by lambda.

    With lambda uniform on [0, pi), thresholding at pi/2 makes outcome0 and
    outcome3 independent uniform signs — the raw material for discard rules.
    """
    half = np.pi / 2.0
    return HiddenVariableModel(
        name="uniform",
        outcome0=lambda angle, lam: _sign(half - lam),
        outcome3=lambda angle, lam: _sign(half - lam),
        marker=lambda lam0, lam1: (np.cos(2.0 * (lam0 - lam1)) < 0.0).astype(np.int64),
        marker_labels=("near", "far"),
    )


def random_fourier_model(model_seed: int, harmonics: int = 3) -> HiddenVariableModel:
    """Randomized stress model with a Fourier-series marker.

    Outcome functions are threshold rules with a random phase per station;
    the marker thresholds a random low-order Fourier series in lam0, lam1
    and their difference.  Everything is fixed at construction from
    ``model_seed``, so the model is data, not code: its marker cannot read a
    setting because no setting is ever passed to it.
    """
    if harmonics < 1:
        raise ValueError(f"harmonics must be >= 1, got {harmonics}")
    rng = np.random.default_rng(model_seed)
    phase0, phase3 = rng.uniform(0.0, np.pi, size=2)
    amps = rng.normal(size=(harmonics, 3))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(harmonics, 3))

    def marker(lam0: np.ndarray, lam1: np.ndarray) -> np.ndarray:
        value = np.zeros_like(lam0)
        for k in range(harmonics):
            freq = 2.0 * (k + 1)
            value += amps[k, 0] * np.cos(freq * lam0 + phases[k, 0])
            value += amps[k, 1] * np.cos(freq * lam1 + phases[k, 1])
            value += amps[k, 2] * np.cos(freq * (lam0 - lam1) + phases[k, 2])
        return (value < 0.0).astype(np.int64)

    return HiddenVariableModel(
        name=f"fourier-{model_seed}",
        outcome0=lambda angle, lam: _sign(np.cos(2.0 * (angle - lam) + phase0)),
        outcome3=lambda angle, lam: _sign(np.cos(2.0 * (angle - lam) + phase3)),
        marker=marker,
        marker_labels=("plus", "minus"),
    )


@dataclass(frozen=True)
class LabelCheck:
    """Post-selected CHSH of one marker label of one model."""

    label: str
    report: ChshReport

    @property
    def within_bound(self) -> bool:
        return self.report.s_abs <= 2.0 + 5.0 * self.report.s_std_err


@dataclass(frozen=True)
class ModelCheck:
    """Bound verdict for one model across all its usable marker labels."""

    model: str
    labels: tuple[LabelCheck, ...]
    starved: tuple[str, ...]

    @property
    def max_s_abs(self) -> float:
        return max((check.report.s_abs for check in self.labels), default=0.0)

    @property
    def within_bound(self) -> bool:
        return all(check.within_bound for check in self.labels)


@dataclass(frozen=True)
class BlindCheckReport:
    """Outcome of the settings-blind selection stress test."""

    trials: int
    checks: tuple[ModelCheck, ...]

    @property
    def all_within_bound(self) -> bool:
        return all(check.within_bound for check in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "all_within_bound": self.all_within_bound,
            "models": [
                {
                    "model": check.model,
                    "within_bound": check.within_bound,
                    "max_s_abs": check.max_s_abs,
                    "starved": list(check.starved),
                    "labels": [
                        {
                            "label": label_check.label,
                            "s": label_check.report.s_value,
                            "s_abs": label_check.report.s_abs,
                            "s_std_err": label_check.report.s_std_err,
                            "kept": label_check.report.kept,
                            "within_bound": label_check.within_bound,
                        }
                        for label_check in check.labels
                    ],
                }
                for check in self.checks
            ],
        }


def settings_blind_check(
    models: Iterable[HiddenVariableModel],
    config: ClassicalConfig,
) -> BlindCheckReport:
    """Post-select on every settings-blind marker and test |S| <= 2 + 5 sigma.

    Every model is evaluated on the same trial stream (one pass over the
    hidden variables, all models scored per chunk).  A label that never
    occurs, or occurs but leaves a setting cell empty, is reported as
    starved and excluded from the bound rather than silently passed.  An
    empty model list raises ValueError: a check of nothing cannot pass.
    """
    models = list(models)
    if not models:
        raise ValueError("settings-blind check needs at least one model")
    rad0 = np.array([config.angles0[0].radians, config.angles0[1].radians])
    rad3 = np.array([config.angles3[0].radians, config.angles3[1].radians])

    # counts[m][label, i0, i3, 0|1]: aligned (outcome product +1) vs opposed
    counts = [np.zeros((len(m.marker_labels), 2, 2, 2), dtype=np.int64) for m in models]
    for _, i0, i3, lam0, lam1 in _raw_chunks(config):
        for index, model in enumerate(models):
            o0, o3, marks = _evaluate(model, rad0, rad3, i0, i3, lam0, lam1)
            tally_cells(counts[index], marks, i0, i3, o0 != o3)

    checks = []
    for index, model in enumerate(models):
        label_checks = []
        starved = []
        for label_index, label in enumerate(model.marker_labels):
            cells = counts[index][label_index]
            label_total = int(cells.sum())
            if label_total == 0 or (cells.sum(axis=2) == 0).any():
                starved.append(label)
                continue
            cell_counts = {
                (i, j): (int(cells[i, j, 0]), int(cells[i, j, 1]))
                for i in (0, 1)
                for j in (0, 1)
            }
            report = chsh_from_counts(
                cell_counts, f"bsm={label}", label_total, config.trials
            )
            label_checks.append(LabelCheck(label, report))
        checks.append(ModelCheck(model.name, tuple(label_checks), tuple(starved)))
    return BlindCheckReport(config.trials, tuple(checks))
