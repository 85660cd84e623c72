"""Orchestration of the four-photon swapping experiment, trial by trial.

Each trial prepares psi-(0,1) (x) psi-(2,3), draws one of two analyzer
settings per outer photon, then applies the joint Bell measurement on
photons (1,2) and the two polarization measurements in a configurable
temporal order.  "Time" here is logical: ordering is the sequence in which
collapses are applied, which is exactly the thing the order-invariance
checks exercise.

Randomness contract, fixed: trial t uses the stream (config.seed, t).  The
draw order within a trial is setting for photon 0, setting for photon 3
(u < 0.5 picks index 0), then one draw per measurement in the applied
order.  Sampling walks the exact conditional distribution of the trial's
measurement sequence (same branch enumeration as the exact tables), so a
batch is reproducible from (config, seed) alone on any platform.  Batches
run in chunks of CHUNK trials: one array of streams draws a chunk's
uniforms at once and the table walk runs on arrays, so a chunk of any size,
one trial included, gives the same records.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .entanglement import TwoQubitMetrics, metrics_for
from .measure import BellSpec, PolarizationSpec, RandomSource, bell_projectors, extend_frontier
from .qstate import BellKind, DensityMatrix, PureState, bell_state, partial_trace, prepare_swap_input, tensor
from .records import (
    CHUNK,
    AnalyzerAngle,
    BsmMode,
    BsmOutcome,
    Ordering,
    TrialRecord,
    bsm_outcomes,
    setting_pair,
)

_PHOTONS = 4
_BSM_PAIR = (1, 2)  # the inner photons, one from each source pair
_DRAWS_PER_TRIAL = 5  # setting0, setting3, then three measurement draws


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one batch.

    ``angles0`` are the two candidate settings (a, a') for photon 0 and
    ``angles3`` the pair (b, b') for photon 3; each trial picks one of each
    uniformly at random (the only setting policy supported).  ``visibility``
    degrades each source pair to V|psi-><psi-| + (1-V) I/4; the default 1.0
    is the ideal experiment.
    """

    angles0: tuple[AnalyzerAngle, AnalyzerAngle] = (AnalyzerAngle(0.0), AnalyzerAngle(45.0))
    angles3: tuple[AnalyzerAngle, AnalyzerAngle] = (AnalyzerAngle(22.5), AnalyzerAngle(67.5))
    trials: int = 1
    ordering: Ordering = Ordering.BSM_FIRST
    bsm_mode: BsmMode = BsmMode.FULL
    seed: int = 0
    visibility: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "angles0", setting_pair("angles0", self.angles0))
        object.__setattr__(self, "angles3", setting_pair("angles3", self.angles3))
        object.__setattr__(self, "ordering", Ordering(self.ordering))
        object.__setattr__(self, "bsm_mode", BsmMode(self.bsm_mode))
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "seed", int(self.seed))
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        vis = float(self.visibility)
        if not 0.0 <= vis <= 1.0:
            raise ValueError(f"visibility must lie in [0, 1], got {vis}")
        object.__setattr__(self, "visibility", vis)

    def _table_key(self) -> tuple:
        """Everything the per-trial distribution depends on (not trials/seed)."""
        return (self.angles0, self.angles3, self.ordering, self.bsm_mode, self.visibility)


@dataclass(frozen=True)
class StageSnapshot:
    """Reduced state of photons (0,3) at one logical stage of the protocol."""

    stage: str
    rho03: DensityMatrix
    metrics: TwoQubitMetrics


_EVENTS_BSM_FIRST = ("bsm", "pol0", "pol3")
_EVENTS_POL_FIRST = ("pol0", "pol3", "bsm")


def _preparation_components(visibility: float) -> tuple[tuple[float, PureState], ...]:
    """The source state as a pure-state mixture.

    Each degraded pair V psi- + (1-V) I/4 is rewritten as a Bell-diagonal
    mixture (weight V + (1-V)/4 on psi-, (1-V)/4 on each other kind), so the
    four-photon state is a weighted sum over at most 16 pure products.
    """
    if visibility == 1.0:
        return ((1.0, prepare_swap_input()),)
    base = (1.0 - visibility) / 4.0
    weights = {kind: base for kind in BellKind}
    weights[BellKind.PSI_MINUS] += visibility
    components = []
    for kind_a, w_a in weights.items():
        for kind_b, w_b in weights.items():
            w = w_a * w_b
            if w > 0.0:
                components.append((w, tensor(bell_state(kind_a), bell_state(kind_b))))
    return tuple(components)


def _measurement_plan(key: tuple, i0: int, i3: int):
    angles0, angles3, ordering, bsm_mode, _ = key
    pol0 = PolarizationSpec(0, angles0[i0])
    pol3 = PolarizationSpec(3, angles3[i3])
    joint = BellSpec(_BSM_PAIR, bsm_mode)
    if ordering is Ordering.BSM_FIRST:
        return (joint, pol0, pol3)
    return (pol0, pol3, joint)


# Holds interior frontiers only: a scan point needs at most seven (the root,
# two single-step and four two-step prefixes), and plan leaves never enter.
@lru_cache(maxsize=8)
def _frontiers(visibility: float, steps: tuple) -> tuple[tuple[float, list], ...]:
    """(weight, frontier) of every preparation component after the plan prefix ``steps``.

    Setting pairs and scan points that share a prefix share its branches:
    under bsm-first every plan starts with the same Bell step, so its
    branches are computed once per run.  Only interior prefixes are cached;
    the plan's last step is extended by the caller and not kept.
    """
    if not steps:
        return tuple((w, [((), 1.0, c.amplitudes)]) for w, c in _preparation_components(visibility))
    return tuple(
        (w, extend_frontier(frontier, steps[-1], _PHOTONS))
        for w, frontier in _frontiers(visibility, steps[:-1])
    )


@lru_cache(maxsize=16)
def _setting_joints(key: tuple) -> dict[tuple[int, int], dict[tuple, float]]:
    """Exact per-setting joint distribution, keyed by plan order of the config.

    Each entry is the preparation mixture of the components' walks,
    weight * p summed component by component in plan outcome order.
    """
    visibility = key[4]
    joints: dict[tuple[int, int], dict[tuple, float]] = {}
    for i0 in (0, 1):
        for i3 in (0, 1):
            plan = _measurement_plan(key, i0, i3)
            merged: dict[tuple, float] = {}
            for weight, frontier in _frontiers(visibility, plan[:-1]):
                for outcomes, p, _ in extend_frontier(frontier, plan[-1], _PHOTONS, keep_states=False):
                    merged[outcomes] = merged.get(outcomes, 0.0) + weight * p
            joints[(i0, i3)] = merged
    return joints


def _step_outcomes(key: tuple, depth: int) -> tuple:
    _, _, ordering, bsm_mode, _ = key
    pol_depths = (1, 2) if ordering is Ordering.BSM_FIRST else (0, 1)
    if depth in pol_depths:
        return (+1, -1)
    return bsm_outcomes(bsm_mode)


@lru_cache(maxsize=16)
def _sampling_tables(key: tuple):
    """Inverse-CDF tables of the chain-rule conditionals of each setting's joint.

    tables[(i0, i3)] is a triple of levels; level d maps an outcome prefix to
    (outcomes, cumulative probabilities) for the d-th measurement in plan
    order.  Every sampled trial walks these, in chunks of any size.
    """
    joints = _setting_joints(key)
    tables = {}
    for pair, joint in joints.items():
        margin1: dict[tuple, float] = {}
        margin2: dict[tuple, float] = {}
        for outcomes, p in joint.items():
            margin1[outcomes[:1]] = margin1.get(outcomes[:1], 0.0) + p
            margin2[outcomes[:2]] = margin2.get(outcomes[:2], 0.0) + p

        def cdf(prefix: tuple, depth: int, margins: dict, total: float):
            probs = [margins.get(prefix + (o,), 0.0) / total for o in _step_outcomes(key, depth)]
            return (_step_outcomes(key, depth), tuple(np.cumsum(probs)))

        level0 = {(): cdf((), 0, margin1, 1.0)}
        level1 = {p1: cdf(p1, 1, margin2, m) for p1, m in margin1.items() if m > 0.0}
        level2 = {p2: cdf(p2, 2, joint, m) for p2, m in margin2.items() if m > 0.0}
        tables[pair] = (level0, level1, level2)
    return tables


def _walk(levels, depth: int, prefix: tuple, rows: np.ndarray, draws: np.ndarray, picks: np.ndarray) -> None:
    """Inverse-CDF picks at one level for ``rows`` sharing ``prefix``, then each subtree.

    searchsorted(side="right") counts the edges <= u, which is the index of
    the first edge above u; clipping to the last index covers u beyond the
    last edge by float dust.
    """
    outcomes, cums = levels[depth][prefix]
    index = np.minimum(np.searchsorted(cums, draws[rows, 2 + depth], side="right"), len(cums) - 1)
    picks[rows, depth] = index
    if depth + 1 < len(levels):
        for k in np.unique(index).tolist():
            _walk(levels, depth + 1, prefix + (outcomes[k],), rows[index == k], draws, picks)


@dataclass(frozen=True)
class TrialChunk:
    """Consecutive trials of one batch, one array per record field.

    Outcomes are +-1; ``bsm`` indexes bsm_outcomes(config.bsm_mode).
    """

    config: ExperimentConfig
    trial_ids: np.ndarray
    setting0: np.ndarray
    setting3: np.ndarray
    outcome0: np.ndarray
    outcome3: np.ndarray
    bsm: np.ndarray

    def kinds(self) -> np.ndarray:
        """Per row, an index of every record field but trial_id; at most 64 distinct."""
        signs = (self.outcome0 < 0) * 2 + (self.outcome3 < 0)
        return ((self.setting0 * 2 + self.setting3) * 4 + signs) * 4 + self.bsm

    def records(self, rows=slice(None)) -> Iterator[TrialRecord]:
        """The selected rows (default all) as records, in row order."""
        config = self.config
        deg0 = (config.angles0[0].degrees, config.angles0[1].degrees)
        deg3 = (config.angles3[0].degrees, config.angles3[1].degrees)
        labels = bsm_outcomes(config.bsm_mode)
        events = _EVENTS_BSM_FIRST if config.ordering is Ordering.BSM_FIRST else _EVENTS_POL_FIRST
        columns = (self.trial_ids, self.setting0, self.setting3, self.outcome0, self.outcome3, self.bsm)
        for trial_id, i0, i3, o0, o3, b in zip(*(column[rows].tolist() for column in columns)):
            yield TrialRecord(trial_id, config.ordering, i0, deg0[i0], i3, deg3[i3], o0, o3, labels[b], events)


def _sample_chunk(config: ExperimentConfig, tables, start: int, stop: int) -> TrialChunk:
    trial_ids = np.arange(start, stop, dtype=np.int64)
    draws = RandomSource(config.seed, trial_ids).uniforms(_DRAWS_PER_TRIAL)
    setting0 = (draws[:, 0] >= 0.5).astype(np.int64)
    setting3 = (draws[:, 1] >= 0.5).astype(np.int64)
    picks = np.empty((len(trial_ids), 3), dtype=np.int64)
    for (i0, i3), levels in tables.items():
        rows = np.flatnonzero((setting0 == i0) & (setting3 == i3))
        if len(rows):
            _walk(levels, 0, (), rows, draws, picks)
    if config.ordering is Ordering.BSM_FIRST:
        bsm, pick0, pick3 = picks.T
    else:
        pick0, pick3, bsm = picks.T
    # polarization steps sample (+1, -1), so pick k is outcome 1 - 2k
    return TrialChunk(config, trial_ids, setting0, setting3, 1 - 2 * pick0, 1 - 2 * pick3, bsm)


def run_chunks(config: ExperimentConfig) -> Iterator[TrialChunk]:
    """Lazily yield the batch in chunks of CHUNK trials, in trial_id order."""
    tables = _sampling_tables(config._table_key())
    for start in range(0, config.trials, CHUNK):
        yield _sample_chunk(config, tables, start, min(start + CHUNK, config.trials))


def run_trial(config: ExperimentConfig, trial_id: int) -> TrialRecord:
    """Simulate one trial; identical (config, seed, trial_id) gives an identical record.

    A one-trial chunk, so it equals the matching record of run_batch by construction.
    """
    if trial_id < 0:
        raise ValueError(f"trial_id must be >= 0, got {trial_id}")
    tables = _sampling_tables(config._table_key())
    return next(_sample_chunk(config, tables, trial_id, trial_id + 1).records())


def run_batch(config: ExperimentConfig) -> Iterator[TrialRecord]:
    """Lazily yield trials 0..config.trials-1 in canonical trial_id order."""
    for chunk in run_chunks(config):
        yield from chunk.records()


def exact_joint_distribution(
    config: ExperimentConfig,
) -> dict[tuple[int, int, int, int, BsmOutcome], float]:
    """Exact probability of every (setting0, setting3, outcome0, outcome3, bsm) cell.

    Computed by branch enumeration, never sampling; cells impossible under
    the state appear with probability 0.0.  Keys use setting indices; both
    settings carry the uniform 1/4 weight of the per-trial random choice.
    """
    joints = _setting_joints(config._table_key())
    bsm_first = config.ordering is Ordering.BSM_FIRST
    table: dict[tuple[int, int, int, int, BsmOutcome], float] = {}
    for (i0, i3), joint in joints.items():
        for outcomes, p in joint.items():
            if bsm_first:
                bsm, o0, o3 = outcomes
            else:
                o0, o3, bsm = outcomes
            table[(i0, i3, o0, o3, bsm)] = 0.25 * p
    return table


def _embed_on_bsm_pair(op4: np.ndarray) -> np.ndarray:
    # qubit 0 (x) pair (1,2) (x) qubit 3, with qubit 0 most significant
    eye = np.eye(2)
    return np.kron(np.kron(eye, op4), eye)


def preparation_density(config: ExperimentConfig) -> DensityMatrix:
    """Full four-photon source state for the configured visibility."""
    entries = np.zeros((16, 16), dtype=complex)
    for weight, component in _preparation_components(config.visibility):
        entries += weight * np.outer(component.amplitudes, component.amplitudes.conj())
    return DensityMatrix(4, entries)


def stage_entanglement_report(config: ExperimentConfig) -> list[StageSnapshot]:
    """Reduced (0,3) state before the joint measurement and after each outcome.

    The pre stage always appears.  Conditional stages are reported for the
    bsm-first ordering, where the joint measurement really does act on the
    undisturbed state; one snapshot per outcome of the configured analyzer.
    """
    rho_full = preparation_density(config)
    pre = partial_trace(rho_full, (0, 3))
    snapshots = [StageSnapshot("pre-bsm", pre, metrics_for(pre))]
    if config.ordering is not Ordering.BSM_FIRST:
        return snapshots

    projectors = bell_projectors(config.bsm_mode)
    for outcome in bsm_outcomes(config.bsm_mode):
        proj = _embed_on_bsm_pair(projectors[outcome])
        unnormalized = proj @ rho_full.entries @ proj
        prob = float(np.trace(unnormalized).real)
        if prob < 1e-12:  # unreachable outcome; nothing to report
            continue
        conditional = DensityMatrix(4, unnormalized / prob)
        reduced = partial_trace(conditional, (0, 3))
        snapshots.append(StageSnapshot(f"post-bsm:{outcome.value}", reduced, metrics_for(reduced)))
    return snapshots
