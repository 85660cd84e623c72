"""Projective polarization and Bell-basis measurements and exact branch walks.

Outcomes come in a fixed order (binary: +1 then -1; full Bell: psi-, psi+,
phi-, phi+; partial Bell: psi-, psi+, other).  ``extend_frontier`` and
``outcome_distribution`` walk every branch of a measurement plan in that
order and give exact Born probabilities; sampling draws by inverse CDF from
those tables (see ``protocol``), never by collapsing states one trial at a
time.  ``RandomSource``, the seeded Philox4x64-10 stream engine, lives in
``swapsim.rng`` and is re-exported here as the same class.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .qstate import BellKind, PureState, bell_state
from .records import CHUNK, AnalyzerAngle, BsmMode, BsmOutcome, as_angle, bsm_outcomes  # noqa: F401 (re-exported)
from .rng import RandomSource  # noqa: F401 (re-exported)

log = logging.getLogger(__name__)


def polarization_observable(theta: Union[AnalyzerAngle, float]) -> tuple[np.ndarray, np.ndarray]:
    """Projectors (P_plus, P_minus) for a linear analyzer at ``theta``.

    P_plus projects onto cos(theta)|H> + sin(theta)|V>; P_minus onto the
    orthogonal ket.  P_plus - P_minus is the ±1 observable with matrix
    [[cos 2theta, sin 2theta], [sin 2theta, -cos 2theta]].
    """
    t = as_angle(theta).radians
    c, s = np.cos(t), np.sin(t)
    p_plus = np.array([[c * c, c * s], [c * s, s * s]])
    p_minus = np.array([[s * s, -c * s], [-c * s, c * c]])
    return p_plus, p_minus


def _bell_projector(kind: BellKind) -> np.ndarray:
    amps = bell_state(kind).amplitudes
    return np.outer(amps, amps.conj())


_BELL_PROJECTORS = {kind: _bell_projector(kind) for kind in BellKind}
_OTHER_PROJECTOR = _BELL_PROJECTORS[BellKind.PHI_MINUS] + _BELL_PROJECTORS[BellKind.PHI_PLUS]


def bell_projectors(mode: BsmMode) -> dict[BsmOutcome, np.ndarray]:
    """4x4 projectors of the analyzer's outcomes, keyed in sampling order.

    In partial mode the OTHER projector spans the whole phi-+ subspace, so the
    three projectors still resolve the identity.
    """
    if BsmMode(mode) is BsmMode.FULL:
        return {o: _BELL_PROJECTORS[o.bell_kind] for o in bsm_outcomes(BsmMode.FULL)}
    return {
        BsmOutcome.PSI_MINUS: _BELL_PROJECTORS[BellKind.PSI_MINUS],
        BsmOutcome.PSI_PLUS: _BELL_PROJECTORS[BellKind.PSI_PLUS],
        BsmOutcome.OTHER: _OTHER_PROJECTOR,
    }


def _check_qubit(num_qubits: int, qubit: int) -> None:
    if not 0 <= qubit < num_qubits:
        raise ValueError(f"qubit {qubit} out of range for {num_qubits}-qubit register")


@lru_cache(maxsize=64)
def _gather_index(n: int, axes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Flat amplitude indices with ``axes`` moved to the front (C order), and their inverse.

    amps.take(forward).reshape(2 ** len(axes), -1) is the contiguous operand
    that np.tensordot builds by transpose and reshape, so one np.dot on it
    does the same floating-point operations in the same order; taking the
    inverse indices of the product puts it back in register order.
    """
    order = axes + tuple(q for q in range(n) if q not in axes)
    forward = np.arange(2**n).reshape((2,) * n).transpose(order).reshape(-1)
    inverse = np.argsort(forward)
    forward.setflags(write=False)
    inverse.setflags(write=False)
    return forward, inverse


def _apply(amps: np.ndarray, gather: tuple[np.ndarray, np.ndarray], op: np.ndarray) -> np.ndarray:
    """``op`` on the qubits that ``gather`` brings to the front, back in register order.

    Two-qubit operators are indexed 2*q_i + q_j for gathered axes (i, j),
    matching the global convention that the lower-numbered qubit is the
    more significant bit.
    """
    forward, inverse = gather
    return np.dot(op, amps.take(forward).reshape(op.shape[1], -1)).reshape(-1).take(inverse)


def _norm_sq(amps: np.ndarray) -> float:
    return float(np.vdot(amps, amps).real)


def _clamped(p: float) -> float:
    """Clamp a tiny negative probability to zero; anything worse is an error."""
    if p < 0.0:
        if p < -1e-12:
            raise ValueError(f"negative probability {p!r} in outcome distribution")
        log.debug("clamped probability %r to 0 in outcome distribution", p)
        return 0.0
    return p


@dataclass(frozen=True)
class PolarizationSpec:
    """Plan step: analyzer at ``angle`` on one qubit; outcomes +1/-1."""

    qubit: int
    angle: AnalyzerAngle

    def __post_init__(self) -> None:
        object.__setattr__(self, "angle", as_angle(self.angle))


@dataclass(frozen=True)
class BellSpec:
    """Plan step: joint Bell analyzer on a qubit pair."""

    qubits: tuple[int, int]
    mode: BsmMode = BsmMode.FULL

    def __post_init__(self) -> None:
        pair = (int(self.qubits[0]), int(self.qubits[1]))
        if pair[0] == pair[1]:
            raise ValueError("bell spec needs two distinct qubits")
        object.__setattr__(self, "qubits", pair)
        object.__setattr__(self, "mode", BsmMode(self.mode))


MeasurementSpec = Union[PolarizationSpec, BellSpec]


def _step_operators(spec: MeasurementSpec, n: int) -> tuple[tuple[np.ndarray, np.ndarray], list]:
    """Gather indices and (outcome, projector) pairs of one plan step, in sampling order."""
    if isinstance(spec, PolarizationSpec):
        _check_qubit(n, spec.qubit)
        p_plus_op, p_minus_op = polarization_observable(spec.angle)
        return _gather_index(n, (spec.qubit,)), [(+1, p_plus_op), (-1, p_minus_op)]
    if isinstance(spec, BellSpec):
        i, j = spec.qubits
        _check_qubit(n, i)
        _check_qubit(n, j)
        projectors = bell_projectors(spec.mode)
        return _gather_index(n, (i, j)), [(o, projectors[o]) for o in bsm_outcomes(spec.mode)]
    raise TypeError(f"unknown measurement spec: {spec!r}")


# One branch of an exact walk: (outcomes so far, joint probability,
# normalized post-measurement amplitudes or None).
Branch = tuple[tuple, float, Optional[np.ndarray]]


def extend_frontier(
    frontier: Sequence[Branch],
    spec: MeasurementSpec,
    num_qubits: int,
    keep_states: bool = True,
) -> list[Branch]:
    """Apply one plan step to every branch of a frontier, in outcome order.

    Each branch splits into one child per outcome of ``spec``, children
    listed in sampling order right after one another, so a frontier grown
    from ``[((), 1.0, amplitudes)]`` lists full outcome tuples in
    lexicographic (depth-first) order.  A child carries joint * p, its
    Born probability p times its parent's joint.  A zero-probability child,
    and every child of a branch without a state, carries joint 0.0 and no
    state, so every outcome combination stays present.  ``keep_states=False``
    keeps no states at all, for a plan's last step.
    """
    gather, operators = _step_operators(spec, num_qubits)
    children: list[Branch] = []
    for outcomes, joint, amps in frontier:
        for outcome, op in operators:
            key = outcomes + (outcome,)
            if amps is None:
                children.append((key, 0.0, None))
                continue
            branch = _apply(amps, gather, op)
            p = _clamped(_norm_sq(branch))
            if p == 0.0:
                children.append((key, 0.0, None))
            else:
                children.append((key, joint * p, branch / np.sqrt(p) if keep_states else None))
    return children


def outcome_distribution(state: PureState, plan: Iterable[MeasurementSpec]) -> dict[tuple, float]:
    """Exact joint distribution of a sequence of measurements.

    Walks every branch of the plan in order, multiplying Born probabilities.
    The result maps each full outcome tuple (one entry per plan step, in plan
    order) to its probability; impossible combinations appear with 0.0 so the
    key set is the full cartesian product of step outcomes.
    """
    steps = tuple(plan)
    frontier: list[Branch] = [((), 1.0, state.amplitudes)]
    for depth, spec in enumerate(steps):
        frontier = extend_frontier(frontier, spec, state.num_qubits, keep_states=depth + 1 < len(steps))
    return {outcomes: joint for outcomes, joint, _ in frontier}
