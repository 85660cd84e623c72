"""Orchestration of the four-photon swapping experiment, trial by trial.

Each trial prepares psi-(0,1) (x) psi-(2,3), draws one of two analyzer
settings per outer photon, then applies the joint Bell measurement on
photons (1,2) and the two polarization measurements in a configurable
temporal order.  "Time" here is logical: ordering is the sequence in which
collapses are applied, which is exactly the thing the order-invariance
checks exercise.

The plan map _EVENTS, which names each ordering's steps ("bsm", "pol0",
"pol3") in applied order, is the one place that says when the joint
measurement happens.  The plan, the table shapes, the records' events and
the outcome names are read from it; tables and sampler loop over its steps.

Randomness contract, fixed: trial t uses the stream (config.seed, t).  The
draw order within a trial is setting for photon 0, setting for photon 3
(u < 0.5 picks index 0), then one draw per plan step in the applied
order.  Sampling picks from the exact conditional distribution of the trial's
measurement sequence (same branch enumeration as the exact tables), so a
batch is reproducible from (config, seed) alone on any platform.  Batches
run in chunks of CHUNK trials: rng.trial_draws draws a chunk's uniforms at
once, and sampling is one inverse-CDF gather per plan step over all four
setting cells, so a chunk of any size, one trial included, gives the same
records.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import product, starmap
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .measure import BellSpec, PolarizationSpec, bell_projectors, extend_frontier, step_outcomes
from .qstate import BellKind, DensityMatrix, PureState, bell_state, partial_trace, tensor
from .records import (_DEFAULT_ANGLES, _SETTING_PAIRS, AnalyzerAngle, BsmMode, BsmOutcome, Ordering, RecordChunk,
                      TrialRecord, _Frozen, bsm_outcomes, kind_index, kind_templates, setting_pair)
from .rng import record_chunks, trial_draws

if TYPE_CHECKING:
    from .entanglement import TwoQubitMetrics

_PHOTONS = 4
_BSM_PAIR = (1, 2)  # the inner photons, one from each source pair

# The plan map: each ordering's measurement steps by event name, in applied order.
_EVENTS = {
    Ordering.BSM_FIRST: ("bsm", "pol0", "pol3"),
    Ordering.POLARIZATIONS_FIRST: ("pol0", "pol3", "bsm"),
}
(_DRAWS_PER_TRIAL,) = {2 + len(events) for events in _EVENTS.values()}  # setting0, setting3, one per step


class ExperimentConfig(_Frozen):
    """Complete description of one batch.

    ``angles0`` are the two candidate settings (a, a') for photon 0 and
    ``angles3`` the pair (b, b') for photon 3; each trial picks one of each
    uniformly at random (the only setting policy supported).  ``visibility``
    degrades each source pair to V|psi-><psi-| + (1-V) I/4; the default 1.0
    is the ideal experiment.
    """

    __slots__ = __match_args__ = ("angles0", "angles3", "trials", "ordering", "bsm_mode", "seed", "visibility")

    def __init__(
        self,
        angles0: tuple[AnalyzerAngle, AnalyzerAngle] = _DEFAULT_ANGLES[0],
        angles3: tuple[AnalyzerAngle, AnalyzerAngle] = _DEFAULT_ANGLES[1],
        trials: int = 1,
        ordering: Ordering = Ordering.BSM_FIRST,
        bsm_mode: BsmMode = BsmMode.FULL,
        seed: int = 0,
        visibility: float = 1.0,
    ) -> None:
        angles0, angles3 = setting_pair("angles0", angles0), setting_pair("angles3", angles3)
        ordering, bsm_mode, trials, seed = Ordering(ordering), BsmMode(bsm_mode), int(trials), int(seed)
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        visibility = float(visibility)
        if not 0.0 <= visibility <= 1.0:
            raise ValueError(f"visibility must lie in [0, 1], got {visibility}")
        self._set(angles0, angles3, trials, ordering, bsm_mode, seed, visibility)

    def _table_key(self) -> tuple:
        """Everything the per-trial distribution depends on (not trials/seed)."""
        return (self.angles0, self.angles3, self.ordering, self.bsm_mode, self.visibility)


class StageSnapshot(_Frozen):
    """Reduced state of photons (0,3) at one logical stage of the protocol."""

    __slots__ = __match_args__ = ("stage", "rho03", "metrics")

    def __init__(self, stage: str, rho03: DensityMatrix, metrics: TwoQubitMetrics) -> None:
        self._set(stage, rho03, metrics)


def _preparation_components(visibility: float) -> tuple[tuple[float, PureState], ...]:
    """The source state as a pure-state mixture.

    Each degraded pair V psi- + (1-V) I/4 is rewritten as a Bell-diagonal
    mixture (weight V + (1-V)/4 on psi-, (1-V)/4 on each other kind), so the
    four-photon state is a weighted sum over at most 16 pure products.
    Products of weight 0 are left out, so V = 1 leaves psi- (x) psi- alone.
    """
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
    specs = {"bsm": BellSpec(_BSM_PAIR, bsm_mode),
             "pol0": PolarizationSpec(0, angles0[i0]),
             "pol3": PolarizationSpec(3, angles3[i3])}
    return tuple(specs[event] for event in _EVENTS[ordering])


# Holds interior frontiers only: a scan point needs at most seven (the root,
# two single-step and four two-step prefixes), and plan leaves never enter.
@lru_cache(maxsize=8)
def _frontiers(visibility: float, steps: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(weights, joints, amps) of the preparation mixture after the plan prefix ``steps``.

    One frontier holds every component: component c's branches are the c-th
    of len(weights) equal, consecutive row blocks of ``joints`` and ``amps``.
    Setting pairs and scan points that share a prefix share its branches:
    under bsm-first every plan starts with the same Bell step, so its
    branches are computed once per run.  Only interior prefixes are cached;
    the plan's last step is extended by the caller and not kept.
    """
    if not steps:
        weights, components = zip(*_preparation_components(visibility))
        return np.array(weights), np.ones(len(components)), np.array([c.amplitudes for c in components])
    weights, joints, amps = _frontiers(visibility, steps[:-1])
    return (weights, *extend_frontier(joints, amps, steps[-1], _PHOTONS))


def _setting_joint(key: tuple, i0: int, i3: int) -> dict[tuple, float]:
    """Exact joint distribution of one setting pair, keyed by plan order of the config.

    The preparation mixture of the components' walks: from zeros, weight *
    p is added component by component, in component order, to each entry,
    keyed in plan outcome order.  Each setting pair is built on its own, so
    a caller that needs one cell walks only its plan.
    """
    plan = _measurement_plan(key, i0, i3)
    weights, joints, amps = _frontiers(key[4], plan[:-1])
    leaves, _ = extend_frontier(joints, amps, plan[-1], _PHOTONS, keep_states=False)
    merged = np.zeros(len(leaves) // len(weights))
    for weight, row in zip(weights.tolist(), leaves.reshape(len(weights), -1)):
        merged = merged + weight * row
    return dict(zip(product(*map(step_outcomes, plan)), merged.tolist()))


@lru_cache(maxsize=16)
def _sampling_tables(key: tuple) -> tuple[np.ndarray, ...]:
    """Inverse-CDF edges of the chain-rule conditionals of all four setting cells.

    One edge array per plan step of _EVENTS[ordering], step d's of shape
    (4, n0, ..., nd): cell 2 * i0 + i3, the picks of the earlier steps, then
    the cumulative conditional probabilities of step d's outcomes in plan
    outcome order.  Marginals are running sums in that order,
    np.cumsum(...)[..., -1] rather than np.sum, whose pairwise summation
    rounds differently; the empty prefix has mass exactly 1.  Every prefix
    has mass: each outer photon is unpolarized and the Bell outcomes have
    probabilities 1/4 or 1/2, before and after one other step, so each
    mass is at least 1/8.
    """
    shape = tuple(len(step_outcomes(spec)) for spec in _measurement_plan(key, 0, 0))
    joint = np.array([list(_setting_joint(key, *pair).values()) for pair in _SETTING_PAIRS]).reshape(4, *shape)
    masses = [np.ones(4)] + [np.cumsum(joint.reshape(4, *shape[:d], -1), axis=-1)[..., -1]
                             for d in range(1, len(shape) + 1)]
    return tuple(np.cumsum(mass / prefix[..., None], axis=-1) for prefix, mass in zip(masses, masses[1:]))


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
    events = _EVENTS[ordering]
    return kind_templates(angles0, angles3, bsm_outcomes(bsm_mode),
                          lambda *fields: TrialRecord(0, ordering, *fields, events))


def _sample_kinds(config: ExperimentConfig, tables: tuple, setting0: np.ndarray, setting3: np.ndarray,
                  draws: np.ndarray) -> np.ndarray:
    """The kinds of one chunk of rng.trial_draws: one gather per plan step over all four cells.

    Step d gathers edge rows at the prefix (cell, pick 0, ..., pick d-1) and
    picks with draw 2 + d; the plan map's events name the picks.
    """
    prefix = (2 * setting0 + setting3,)
    for step, edges in enumerate(tables):
        prefix += (_pick(edges[prefix], draws[:, 2 + step]),)
    picks = dict(zip(_EVENTS[config.ordering], prefix[1:]))
    # polarization steps sample (+1, -1), so pick k is outcome 1 - 2k
    return kind_index(setting0, setting3, 1 - 2 * picks["pol0"], 1 - 2 * picks["pol3"], picks["bsm"],
                      len(bsm_outcomes(config.bsm_mode)))


def _sampler(config: ExperimentConfig) -> tuple[tuple[TrialRecord, ...], partial]:
    """The batch's kind table and the function that gives the kinds of a chunk of rng.trial_draws."""
    key = config._table_key()
    return _kind_table(key), partial(_sample_kinds, config, _sampling_tables(key))


def _chunks(config: ExperimentConfig, start: int, stop: int) -> Iterator[RecordChunk]:
    """Trials start..stop-1 in RecordChunks sharing one kind table."""
    return record_chunks(config.seed, start, stop, _DRAWS_PER_TRIAL, *_sampler(config))


def run_chunks(config: ExperimentConfig) -> Iterator[RecordChunk]:
    """Lazily yield the batch in chunks of CHUNK trials, in trial_id order, sharing one kind table."""
    yield from _chunks(config, 0, config.trials)


def kind_counts(config: ExperimentConfig) -> list[tuple[TrialRecord, int]]:
    """run_chunks counted, no row built: (record, count) of each kind sampled, in kind table order, as ints."""
    templates, kinds = _sampler(config)

    def chunk_counts(trial_ids, setting0, setting3, draws) -> np.ndarray:
        return np.bincount(kinds(setting0, setting3, draws), minlength=len(templates))

    # one bincount per chunk, summed over the batch; starmap keeps no chunk's arrays once counted
    counts = sum(starmap(chunk_counts, trial_draws(config.seed, 0, config.trials, _DRAWS_PER_TRIAL)))
    return [(template, count) for template, count in zip(templates, counts.tolist()) if count]


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


def exact_cell_records(config: ExperimentConfig, i0: int, i3: int) -> list[tuple[TrialRecord, float]]:
    """The (i0, i3) setting cell of exact_records: (record, probability) pairs in plan outcome order.

    Each record has trial_id 0 and the config's ordering and events; its
    weight is 1/4 (the uniform setting draw) times the probability of its
    outcomes.  Only that setting pair's plan is walked, so one cell costs a
    quarter of the whole table or less.  Both indices must be 0 or 1.
    """
    if (i0, i3) not in _SETTING_PAIRS:
        raise ValueError(f"setting indices must be 0 or 1, got ({i0!r}, {i3!r})")
    events = _EVENTS[config.ordering]
    deg0, deg3 = config.angles0[i0].degrees, config.angles3[i3].degrees
    cell = []
    for outcomes, p in _setting_joint(config._table_key(), i0, i3).items():
        named = dict(zip(events, outcomes))
        record = TrialRecord(0, config.ordering, i0, deg0, i3, deg3, named["pol0"], named["pol3"], named["bsm"],
                             events)
        cell.append((record, 0.25 * p))
    return cell


def exact_records(config: ExperimentConfig) -> list[tuple[TrialRecord, float]]:
    """Every outcome of a trial as a (record, probability) pair: the input of analysis.chsh_weighted.

    Computed by branch enumeration, never sampling; outcomes impossible
    under the state appear with probability 0.0.  The four
    exact_cell_records cells, in _SETTING_PAIRS order.
    """
    return [pair for i0, i3 in _SETTING_PAIRS for pair in exact_cell_records(config, i0, i3)]


def exact_joint_distribution(
    config: ExperimentConfig,
) -> dict[tuple[int, int, int, int, BsmOutcome], float]:
    """Exact probability of every (setting0, setting3, outcome0, outcome3, bsm) cell.

    The entries of exact_records, in its order, keyed by setting indices;
    both settings carry the uniform 1/4 weight of the per-trial random choice.
    """
    return {(record.setting0_index, record.setting3_index, record.outcome0, record.outcome3, record.bsm): p
            for record, p in exact_records(config)}


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
    from .entanglement import metrics_for  # only this report needs it

    rho_full = preparation_density(config)
    pre = partial_trace(rho_full, (0, 3))
    snapshots = [StageSnapshot("pre-bsm", pre, metrics_for(pre))]
    if _EVENTS[config.ordering][0] != "bsm":
        return snapshots

    projectors = bell_projectors(config.bsm_mode)
    for outcome in bsm_outcomes(config.bsm_mode):
        proj = _embed_on_bsm_pair(projectors[outcome])
        unnormalized = proj @ rho_full.entries @ proj
        prob = float(np.trace(unnormalized).real)  # 1/4 per Bell label, 1/2 for "other"
        reduced = partial_trace(DensityMatrix(4, unnormalized / prob), (0, 3))
        snapshots.append(StageSnapshot(f"post-bsm:{outcome.value}", reduced, metrics_for(reduced)))
    return snapshots
