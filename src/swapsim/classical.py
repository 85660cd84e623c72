"""Classical record generation and the discard rules that mine it.

This module is the counterpoint to the quantum protocol: outcomes come from
local hidden variables (one lambda per source pair, uniform on [0, pi)), and
"selection" is an after-the-fact rule that compares the two polarization
records.  Two rules manufacture a CHSH violation from such data — a
deterministic target rule reaching the algebraic maximum |S| = 4 and a
probabilistic rule reproducing the singlet's 2*sqrt(2) — while
settings-blind markers, the honest classical stand-in for a joint
measurement outcome used as a label, never push |S| past the local bound 2.
The rules and their keep loop live in ``swapsim.discard``, which loads
without this engine; this module gives the same objects on first use.
"""

from __future__ import annotations

from functools import partial
from itertools import starmap
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .records import (_DEFAULT_ANGLES, AnalyzerAngle, ClassicalRecord, RecordChunk, _Frozen, as_integer,
                      kind_index, kind_templates, setting_pair)
from .rng import record_chunks, trial_draws

# Names of swapsim.discard this module gives on first use (PEP 562), so
# generate and blind-check never load the rules.
_DISCARD_NAMES = frozenset({"DiscardRule", "apply_discard", "discard_chunks", "keep_mask", "pr_box_rule",
                            "quantum_mimic_rule"})


def __getattr__(name: str):
    if name in _DISCARD_NAMES:
        from . import discard

        return getattr(discard, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# setting0, setting3 (picked by rng.trial_draws, as in the quantum protocol),
# then the two hidden variables, scaled onto [0, pi)
_DRAWS_PER_TRIAL = 4


class ClassicalConfig(_Frozen):
    """Batch description for hidden-variable runs: settings, size, seed."""

    __slots__ = __match_args__ = ("angles0", "angles3", "trials", "seed")

    def __init__(
        self,
        angles0: tuple[AnalyzerAngle, AnalyzerAngle] = _DEFAULT_ANGLES[0],
        angles3: tuple[AnalyzerAngle, AnalyzerAngle] = _DEFAULT_ANGLES[1],
        trials: int = 1,
        seed: int = 0,
    ) -> None:
        angles0, angles3 = setting_pair("angles0", angles0), setting_pair("angles3", angles3)
        trials, seed = as_integer("trials", trials), as_integer("seed", seed)
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        super().__init__(angles0, angles3, trials, seed)


_HARMONICS = 3  # Fourier orders in a random model's marker


class FourierTerms(_Frozen):
    """A Fourier model's closures as coefficients over the shared harmonic basis.

    ``marker`` holds one weight per row of _harmonic_basis: amp*cos(phase)
    and -amp*sin(phase) for each term amp*cos(2k*x + phase) of the marker
    series, whose value is negative exactly for label 1; ``marker_scale``
    is the sum of the |amp|.  Station s's outcome is
    sgn cos(2*(angle - lam) + phase_s).  Terms compare by identity.
    """

    __slots__ = __match_args__ = ("marker", "marker_scale", "phase0", "phase3")
    __eq__, __hash__ = object.__eq__, object.__hash__


class HiddenVariableModel(_Frozen):
    """Local deterministic outcome functions plus a settings-blind marker.

    ``outcome0(angle_rad, lam0)`` and ``outcome3(angle_rad, lam1)`` map numpy
    arrays to +-1 arrays; each sees only its own station's angle and its own
    pair's hidden variable.  ``marker(lam0, lam1)`` maps to indices into
    ``marker_labels``; its signature is the blindness guarantee — no angle or
    outcome ever reaches it.  ``terms``, when given, states the same
    functions as Fourier coefficients; the closures stay the reference.
    """

    __slots__ = __match_args__ = ("name", "outcome0", "outcome3", "marker", "marker_labels", "terms")

    def __init__(
        self,
        name: str,
        outcome0: Callable[[np.ndarray, np.ndarray], np.ndarray],
        outcome3: Callable[[np.ndarray, np.ndarray], np.ndarray],
        marker: Callable[[np.ndarray, np.ndarray], np.ndarray],
        marker_labels: tuple[str, ...],
        terms: Optional[FourierTerms] = None,
    ) -> None:
        labels = tuple(str(l) for l in marker_labels)
        if not labels:
            raise ValueError("model needs at least one marker label")
        if len(set(labels)) != len(labels):
            raise ValueError(f"marker labels must be distinct, got {labels}")
        super().__init__(name, outcome0, outcome3, marker, labels, terms)


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


# A Fourier model's fast value sits within about 1e-14 * sum|amp| of the
# exact series, and so does its closure's.  The closure forms arguments
# 2k*x + phase below 6*pi + 2*pi ~ 25 rad, to a few ulp (~6e-15 rad), and
# np.cos adds about an ulp per term.  The basis takes cos and sin of 2*lam
# to an ulp and reaches 4*lam, 6*lam and the differences by angle
# addition, a few ulp more; the 18 products amp*cos(phase) * cos(2k*x),
# summed in any order (BLAS picks the order, which may change with the
# thread count), add at most about 18 * 1.1e-16 * sqrt(2) * sum|amp|.  An
# outcome's value cos(2a + phase)*cos 2lam + sin(2a + phase)*sin 2lam has
# amplitude 1 and errors below 1e-14 likewise.  A row whose fast value lies
# farther from 0 than the bound below (1e-9, relative to the amplitude)
# therefore has the closure's sign, tie rule included, and every other row
# is decided by the closure itself.
_FALLBACK_BOUND = 1e-9


def _harmonic_basis(lam0: np.ndarray, lam1: np.ndarray) -> np.ndarray:
    """cos and sin of 2k*x for k = 1.._HARMONICS, x in (lam0, lam1, lam0 - lam1).

    Shape (_HARMONICS * 6, rows), row 6*(k-1) + 2*j + (0 for cos, 1 for sin)
    for x number j: the rows FourierTerms.marker weighs.  Four trig calls;
    the rest by angle addition.
    """
    basis = np.empty((_HARMONICS, 3, 2, len(lam0)))
    for j, lam in enumerate((lam0, lam1)):
        twice = 2.0 * lam
        np.cos(twice, out=basis[0, j, 0])
        np.sin(twice, out=basis[0, j, 1])
    cos1, sin1 = basis[0, :2, 0], basis[0, :2, 1]
    for k in range(1, _HARMONICS):  # 2(k+1)x = 2kx + 2x
        cos_k, sin_k = basis[k - 1, :2, 0], basis[k - 1, :2, 1]
        basis[k, :2, 0] = cos_k * cos1 - sin_k * sin1
        basis[k, :2, 1] = sin_k * cos1 + cos_k * sin1
    cos0, sin0, cos1, sin1 = basis[:, 0, 0], basis[:, 0, 1], basis[:, 1, 0], basis[:, 1, 1]
    basis[:, 2, 0] = cos0 * cos1 + sin0 * sin1  # 2k(lam0 - lam1)
    basis[:, 2, 1] = sin0 * cos1 - cos0 * sin1
    return basis.reshape(_HARMONICS * 6, len(lam0))


def _fourier_evaluate(
    model: HiddenVariableModel,
    basis: np.ndarray,
    rad0: np.ndarray,
    rad3: np.ndarray,
    i0: np.ndarray,
    i3: np.ndarray,
    lam0: np.ndarray,
    lam1: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_evaluate's decisions from the model's terms and the chunk's basis.

    Rows whose marker or outcome value lies within _FALLBACK_BOUND of 0 are
    evaluated again, on those rows only, by the model's closures.
    """
    terms = model.terms
    value = terms.marker @ basis
    unsure = np.abs(value) <= _FALLBACK_BOUND * terms.marker_scale
    marks = (value < 0.0).astype(np.int64)
    outcomes = []
    # cos(2(a - lam) + phase) = cos(2a + phase) cos 2lam + sin(2a + phase) sin 2lam
    for rad, index, phase, cos_row in ((rad0, i0, terms.phase0, 0), (rad3, i3, terms.phase3, 2)):
        shifted = 2.0 * rad + phase
        value = np.cos(shifted)[index] * basis[cos_row] + np.sin(shifted)[index] * basis[cos_row + 1]
        unsure |= np.abs(value) <= _FALLBACK_BOUND
        outcomes.append(1 - 2 * (value < 0.0))  # _sign's, as value is finite
    o0, o3 = outcomes
    rows = np.flatnonzero(unsure)
    if len(rows):
        reference = _evaluate(model, rad0, rad3, i0[rows], i3[rows], lam0[rows], lam1[rows])
        o0[rows], o3[rows], marks[rows] = reference
    return o0, o3, marks


def _radians(config: ClassicalConfig) -> tuple[np.ndarray, np.ndarray]:
    """The two analyzer angles of each station, in radians."""
    return (np.array([config.angles0[0].radians, config.angles0[1].radians]),
            np.array([config.angles3[0].radians, config.angles3[1].radians]))


def _kind_table(model: HiddenVariableModel, config: ClassicalConfig) -> tuple[ClassicalRecord, ...]:
    """One record per kind_index of the model's records, with trial_id 0."""
    return kind_templates(config.angles0, config.angles3, model.marker_labels, partial(ClassicalRecord, 0))


def lhv_chunks(model: HiddenVariableModel, config: ClassicalConfig) -> Iterator[RecordChunk]:
    """Lazily yield the batch in CHUNK-trial chunks that share one kind table; deterministic per seed."""
    rad0, rad3 = _radians(config)

    def kinds(i0, i3, draws) -> np.ndarray:
        evaluated = _evaluate(model, rad0, rad3, i0, i3, draws[:, 2] * np.pi, draws[:, 3] * np.pi)
        return kind_index(i0, i3, *evaluated, len(model.marker_labels))

    yield from record_chunks(config.seed, 0, config.trials, _DRAWS_PER_TRIAL, _kind_table(model, config), kinds)


def run_lhv(model: HiddenVariableModel, config: ClassicalConfig) -> Iterator[ClassicalRecord]:
    """Lazily yield one record per trial; deterministic for a given seed."""
    for chunk in lhv_chunks(model, config):
        yield from chunk.records()


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


def random_fourier_model(model_seed: int) -> HiddenVariableModel:
    """Randomized stress model with a Fourier-series marker.

    Outcome functions are threshold rules with a random phase per station;
    the marker thresholds a random low-order Fourier series in lam0, lam1
    and their difference.  Everything is fixed at construction from
    ``model_seed``, so the model is data, not code: its marker cannot read a
    setting because no setting is ever passed to it.  The seed is an int or
    a numpy integer, not a bool; the coefficients are the draws of
    ``numpy.random.default_rng(model_seed)``, made by ``swapsim.pcg64``.

    The closures are the reference.  The same coefficients ride along as
    ``terms``, so the classical engine scores every such model of a chunk
    from one shared basis of cos and sin of 2k*x, one matrix-vector product
    per model; a row whose value is too close to 0 for that float order to
    be trusted (see _FALLBACK_BOUND) is scored by the closures, so every
    decision is the closures'.
    """
    model_seed = as_integer("model seed", model_seed)
    if model_seed < 0:
        raise ValueError(f"model seed must be a non-negative integer, got {model_seed}")
    from .pcg64 import PCG64

    # numpy.random.default_rng(model_seed)'s draws, in the order it fills each array
    rng = PCG64(model_seed)
    phase0, phase3 = rng.uniform(0.0, np.pi), rng.uniform(0.0, np.pi)
    amps = np.array([rng.normal() for _ in range(_HARMONICS * 3)]).reshape(_HARMONICS, 3)
    phases = np.array([rng.uniform(0.0, 2.0 * np.pi) for _ in range(_HARMONICS * 3)]).reshape(_HARMONICS, 3)

    def marker(lam0: np.ndarray, lam1: np.ndarray) -> np.ndarray:
        value = np.zeros_like(lam0)
        for k in range(_HARMONICS):
            freq = 2.0 * (k + 1)
            value += amps[k, 0] * np.cos(freq * lam0 + phases[k, 0])
            value += amps[k, 1] * np.cos(freq * lam1 + phases[k, 1])
            value += amps[k, 2] * np.cos(freq * (lam0 - lam1) + phases[k, 2])
        return (value < 0.0).astype(np.int64)

    terms = FourierTerms(
        marker=np.stack([amps * np.cos(phases), -amps * np.sin(phases)], axis=-1).reshape(-1),
        marker_scale=float(np.abs(amps).sum()),
        phase0=float(phase0),
        phase3=float(phase3),
    )
    return HiddenVariableModel(
        name=f"fourier-{model_seed}",
        outcome0=lambda angle, lam: _sign(np.cos(2.0 * (angle - lam) + phase0)),
        outcome3=lambda angle, lam: _sign(np.cos(2.0 * (angle - lam) + phase3)),
        marker=marker,
        marker_labels=("plus", "minus"),
        terms=terms,
    )


class LabelCheck(_Frozen):
    """Post-selected CHSH of one marker label of one model."""

    __slots__ = __match_args__ = ("label", "report")

    @property
    def within_bound(self) -> bool:
        return self.report.s_abs <= 2.0 + 5.0 * self.report.s_std_err


class ModelCheck(_Frozen):
    """Bound verdict for one model across all its usable marker labels."""

    __slots__ = __match_args__ = ("model", "labels", "starved")

    @property
    def max_s_abs(self) -> float:
        return max((check.report.s_abs for check in self.labels), default=0.0)

    @property
    def within_bound(self) -> bool:
        return all(check.within_bound for check in self.labels)


class BlindCheckReport(_Frozen):
    """Outcome of the settings-blind selection stress test."""

    __slots__ = __match_args__ = ("trials", "checks")

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
    hidden variables, all models scored per chunk).  Models with Fourier
    terms share one harmonic basis per chunk and fall back to their own
    closures on the rows where the fast value is too near 0 to trust, so
    the counts are the closures' whatever the BLAS thread count.  A label
    is starved exactly when chsh_weighted over its records raises
    InsufficientDataError (it never occurs, or leaves a setting cell
    empty); it is reported and excluded from the bound rather than
    silently passed.  An empty model list raises ValueError: a check of
    nothing cannot pass.
    """
    from .analysis import InsufficientDataError, chsh_weighted

    models = list(models)
    if not models:
        raise ValueError("settings-blind check needs at least one model")
    rad0, rad3 = _radians(config)
    tables = [_kind_table(model, config) for model in models]

    fourier = any(model.terms is not None for model in models)

    def chunk_counts(trial_ids, i0, i3, draws) -> list[np.ndarray]:
        # Models with terms share one basis per chunk; one model's outcomes and markers live at a time.
        lam0, lam1 = draws[:, 2] * np.pi, draws[:, 3] * np.pi
        basis = _harmonic_basis(lam0, lam1) if fourier else None
        args = (rad0, rad3, i0, i3, lam0, lam1)
        return [np.bincount(kind_index(i0, i3, *(_evaluate(model, *args) if model.terms is None
                                                 else _fourier_evaluate(model, basis, *args)),
                                       len(model.marker_labels)),
                            minlength=len(table))
                for model, table in zip(models, tables)]

    # counts[m][k]: rows of model m's records of kind k
    counts = [np.zeros(len(table), dtype=np.int64) for table in tables]
    chunks = trial_draws(config.seed, 0, config.trials, _DRAWS_PER_TRIAL)
    for chunk in starmap(chunk_counts, chunks):
        for total, count in zip(counts, chunk):
            total += count

    checks = []
    for model, table, count in zip(models, tables, counts):
        weighted = list(zip(table, count.tolist()))
        label_checks = []
        starved = []
        for label in model.marker_labels:
            try:
                report = chsh_weighted(weighted, label)
            except InsufficientDataError:
                starved.append(label)
                continue
            label_checks.append(LabelCheck(label, report))
        checks.append(ModelCheck(model.name, tuple(label_checks), tuple(starved)))
    return BlindCheckReport(config.trials, tuple(checks))
