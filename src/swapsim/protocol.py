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
order.  Sampling picks from the exact conditional distribution of the trial's
measurement sequence (same branch enumeration as the exact tables), so a
batch is reproducible from (config, seed) alone on any platform.  Batches
run in chunks of CHUNK trials: rng.trial_draws draws a chunk's uniforms at
once, and sampling is one inverse-CDF gather per plan step over all four
setting cells, so a chunk of any size, one trial included, gives the same
records.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import starmap
from typing import Iterator

import numpy as np

from .entanglement import TwoQubitMetrics, metrics_for
from .measure import BellSpec, PolarizationSpec, bell_projectors, extend_frontier
from .qstate import BellKind, DensityMatrix, PureState, bell_state, partial_trace, prepare_swap_input, tensor
from .records import (
    AnalyzerAngle,
    BsmMode,
    BsmOutcome,
    Ordering,
    RecordChunk,
    TrialRecord,
    bsm_outcomes,
    kind_index,
    kind_templates,
    setting_pair,
)
from .rng import trial_draws

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


_SETTING_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


@lru_cache(maxsize=64)
def _setting_joint(key: tuple, i0: int, i3: int) -> dict[tuple, float]:
    """Exact joint distribution of one setting pair, keyed by plan order of the config.

    The preparation mixture of the components' walks, weight * p summed
    component by component in plan outcome order.  Each setting pair is
    built on its own, so a caller that needs one cell walks only its plan.
    """
    plan = _measurement_plan(key, i0, i3)
    merged: dict[tuple, float] = {}
    for weight, frontier in _frontiers(key[4], plan[:-1]):
        for outcomes, p, _ in extend_frontier(frontier, plan[-1], _PHOTONS, keep_states=False):
            merged[outcomes] = merged.get(outcomes, 0.0) + weight * p
    return merged


@lru_cache(maxsize=16)
def _sampling_tables(key: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse-CDF edges of the chain-rule conditionals of all four setting cells.

    Shapes (4, n0), (4, n0, n1) and (4, n0, n1, n2): cell 2 * i0 + i3, then
    the picks of the earlier plan steps; the last axis holds the cumulative
    conditional probabilities of the next step's outcomes, in plan outcome
    order.  Marginals are running sums in that order, np.cumsum(...)[..., -1]
    rather than np.sum, whose pairwise summation rounds differently.  Every
    prefix has mass: each outer photon is unpolarized and the Bell outcomes
    have probabilities 1/4 or 1/2, before and after one other step, so each
    mass is at least 1/8.
    """
    _, _, ordering, bsm_mode, _ = key
    labels = len(bsm_outcomes(bsm_mode))
    shape = (labels, 2, 2) if ordering is Ordering.BSM_FIRST else (2, 2, labels)
    joint = np.array([list(_setting_joint(key, *pair).values()) for pair in _SETTING_PAIRS]).reshape(4, *shape)
    margin2 = np.cumsum(joint, axis=-1)[..., -1]
    margin1 = np.cumsum(joint.reshape(4, shape[0], -1), axis=-1)[..., -1]
    return (np.cumsum(margin1, axis=-1),
            np.cumsum(margin2 / margin1[..., None], axis=-1),
            np.cumsum(joint / margin2[..., None], axis=-1))


def _pick(edges: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF pick of each row: the index of its first edge above u[row].

    Counting the edges <= u is searchsorted(side="right") on each row's
    ascending edges; clipping to the last index covers u beyond the last
    edge by float dust.
    """
    return np.minimum((edges <= u[:, None]).sum(1), edges.shape[1] - 1)


@lru_cache(maxsize=16)
def _kind_table(key: tuple) -> tuple[TrialRecord, ...]:
    """One record per kind_index of the records of a config with this _table_key, with trial_id 0."""
    angles0, angles3, ordering, bsm_mode, _ = key
    deg0 = (angles0[0].degrees, angles0[1].degrees)
    deg3 = (angles3[0].degrees, angles3[1].degrees)
    labels = bsm_outcomes(bsm_mode)
    events = _EVENTS_BSM_FIRST if ordering is Ordering.BSM_FIRST else _EVENTS_POL_FIRST

    def make(i0, i3, o0, o3, b):
        return TrialRecord(0, ordering, i0, deg0[i0], i3, deg3[i3], o0, o3, labels[b], events)

    return kind_templates(make, len(labels))


def _sample_chunk(config: ExperimentConfig, tables: tuple, templates: tuple, trial_ids: np.ndarray,
                  setting0: np.ndarray, setting3: np.ndarray, draws: np.ndarray) -> RecordChunk:
    """The records of one chunk of rng.trial_draws: one gather per plan step over all four cells."""
    edges0, edges1, edges2 = tables
    cell = 2 * setting0 + setting3
    first = _pick(edges0[cell], draws[:, 2])
    second = _pick(edges1[cell, first], draws[:, 3])
    third = _pick(edges2[cell, first, second], draws[:, 4])
    if config.ordering is Ordering.BSM_FIRST:
        bsm, pick0, pick3 = first, second, third
    else:
        pick0, pick3, bsm = first, second, third
    # polarization steps sample (+1, -1), so pick k is outcome 1 - 2k
    label_count = len(bsm_outcomes(config.bsm_mode))
    kinds = kind_index(setting0, setting3, 1 - 2 * pick0, 1 - 2 * pick3, bsm, label_count)
    return RecordChunk(trial_ids.tolist(), kinds.tolist(), templates)


def _chunks(config: ExperimentConfig, start: int, stop: int) -> Iterator[RecordChunk]:
    """Trials start..stop-1 in RecordChunks sharing one kind table.

    starmap keeps no chunk's arrays once its records are built, so they are
    freed before the next chunk is drawn.
    """
    key = config._table_key()
    sample = partial(_sample_chunk, config, _sampling_tables(key), _kind_table(key))
    return starmap(sample, trial_draws(config.seed, start, stop, _DRAWS_PER_TRIAL))


def run_chunks(config: ExperimentConfig) -> Iterator[RecordChunk]:
    """Lazily yield the batch in chunks of CHUNK trials, in trial_id order, sharing one kind table."""
    yield from _chunks(config, 0, config.trials)


def run_trial(config: ExperimentConfig, trial_id: int) -> TrialRecord:
    """Simulate one trial; identical (config, seed, trial_id) gives an identical record.

    A one-trial chunk, so it equals the matching record of run_batch by construction.
    """
    if trial_id < 0:
        raise ValueError(f"trial_id must be >= 0, got {trial_id}")
    return next(next(_chunks(config, trial_id, trial_id + 1)).records())


def run_batch(config: ExperimentConfig) -> Iterator[TrialRecord]:
    """Lazily yield trials 0..config.trials-1 in canonical trial_id order."""
    for chunk in run_chunks(config):
        yield from chunk.records()


def exact_cell_distribution(
    config: ExperimentConfig, i0: int, i3: int,
) -> dict[tuple[int, int, int, int, BsmOutcome], float]:
    """The (i0, i3) setting cell of exact_joint_distribution, the same entries in the same order.

    Only that setting pair's plan is walked, so one cell costs a quarter of
    the whole table or less.
    """
    joint = _setting_joint(config._table_key(), i0, i3)
    bsm_first = config.ordering is Ordering.BSM_FIRST
    table: dict[tuple[int, int, int, int, BsmOutcome], float] = {}
    for outcomes, p in joint.items():
        if bsm_first:
            bsm, o0, o3 = outcomes
        else:
            o0, o3, bsm = outcomes
        table[(i0, i3, o0, o3, bsm)] = 0.25 * p
    return table


def exact_joint_distribution(
    config: ExperimentConfig,
) -> dict[tuple[int, int, int, int, BsmOutcome], float]:
    """Exact probability of every (setting0, setting3, outcome0, outcome3, bsm) cell.

    Computed by branch enumeration, never sampling; cells impossible under
    the state appear with probability 0.0.  Keys use setting indices; both
    settings carry the uniform 1/4 weight of the per-trial random choice.
    The table is the union of the four exact_cell_distribution cells.
    """
    table: dict[tuple[int, int, int, int, BsmOutcome], float] = {}
    for i0, i3 in _SETTING_PAIRS:
        table.update(exact_cell_distribution(config, i0, i3))
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
