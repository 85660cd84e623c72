"""Projective polarization and Bell-basis measurements with seeded sampling.

Sampling contract: every random choice is made by inverse CDF over a fixed
outcome order (binary: +1 then -1; full Bell: psi-, psi+, phi-, phi+;
partial Bell: psi-, psi+, other), driven by uniforms from a counter-based
stream.  Identical (seed, stream) pairs therefore reproduce identical
outcome sequences on any platform, and distinct streams are independent.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .qstate import BellKind, PureState, bell_state
from .records import CHUNK, AnalyzerAngle, BsmMode, BsmOutcome, as_angle, bsm_outcomes  # noqa: F401 (re-exported)

log = logging.getLogger(__name__)

_MASK64 = (1 << 64) - 1

# Outcome of a two-port polarization analyzer: +1 transmitted, -1 reflected.
BinaryOutcome = int

_DEGENERATE_BRANCH = 1e-15  # sampled branches must carry real probability


# Philox4x64-10 constants (Salmon et al., SC'11), as in numpy's Philox.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_DOUBLE_SHIFT = np.uint64(11)
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53


def _mulhilo(multiplier: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) 64-bit words of the 128-bit product multiplier * x, from 32-bit limbs."""
    m_hi, m_lo = np.uint64(multiplier >> 32), np.uint64(multiplier & 0xFFFFFFFF)
    x_hi, x_lo = x >> _SHIFT32, x & _LO32
    lo_lo, hi_lo, lo_hi = m_lo * x_lo, m_hi * x_lo, m_lo * x_hi
    carry = ((lo_lo >> _SHIFT32) + (hi_lo & _LO32) + (lo_hi & _LO32)) >> _SHIFT32
    high = m_hi * x_hi + (hi_lo >> _SHIFT32) + (lo_hi >> _SHIFT32) + carry
    return high, np.uint64(multiplier) * x  # uint64 array products wrap mod 2**64


def _philox_words(seed: int, streams: np.ndarray, first_block: int, blocks: int) -> np.ndarray:
    """Philox4x64-10 output words of counter blocks first_block.. for key (seed, stream).

    Returns shape (len(streams), 4 * blocks): row i holds the words numpy's
    Philox(key=[seed, streams[i]]) emits from that block on, in order.
    """
    c0 = np.arange(first_block, first_block + blocks, dtype=np.uint64)[None, :]
    c1 = c2 = c3 = np.zeros(1, dtype=np.uint64)
    key1 = streams[:, None]
    for r in range(_PHILOX_ROUNDS):
        k0 = np.uint64((seed + r * _PHILOX_W[0]) & _MASK64)
        k1 = key1 + np.uint64((r * _PHILOX_W[1]) & _MASK64)
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    shape = (len(streams), blocks)
    words = np.stack([np.broadcast_to(c, shape) for c in (c0, c1, c2, c3)], axis=-1)
    return words.reshape(len(streams), 4 * blocks)


class RandomSource:
    """Counter-based uniform stream keyed by (seed, stream), or many such streams.

    An integer ``stream`` wraps numpy's Philox generator, so streams with
    distinct keys are statistically independent and a given key always
    yields the same sequence of doubles.  A 1-D integer array of streams
    evaluates the same Philox4x64-10 function over all keys at once:
    ``uniforms(count)`` then returns one row per stream, bit-identical to
    the integer form of that stream, and successive calls continue each
    stream.  Keys are taken mod 2**64.
    """

    __slots__ = ("seed", "stream", "_gen", "_drawn")

    def __init__(self, seed: int, stream: Union[int, np.ndarray] = 0) -> None:
        self.seed = int(seed) & _MASK64
        if np.ndim(stream) == 0:
            self.stream = int(stream) & _MASK64
            key = np.array([self.seed, self.stream], dtype=np.uint64)
            self._gen = np.random.Generator(np.random.Philox(key=key))
            return
        streams = np.asarray(stream)
        if streams.ndim != 1 or streams.dtype.kind not in "iu":
            raise ValueError(f"streams must be a 1-D integer array, got {streams.dtype} {streams.shape}")
        self.stream = streams.astype(np.uint64)  # two's complement: the same as mod 2**64
        self._gen = None
        self._drawn = 0

    def uniform(self) -> Union[float, np.ndarray]:
        """Next double in [0, 1): a float, or one per stream for an array of streams."""
        if self._gen is None:
            return self.uniforms(1)[:, 0]
        return float(self._gen.random())

    def uniforms(self, count: int) -> np.ndarray:
        """Next ``count`` doubles; consumes the same stream as repeated uniform().

        Shape (count,) for one stream, (streams, count) for an array of them.
        """
        count = int(count)
        if self._gen is not None:
            return self._gen.random(count)
        first, self._drawn = self._drawn, self._drawn + count
        # numpy's Philox advances its counter before the first block, so
        # draw j of a stream is word j % 4 of counter block j // 4 + 1.
        block = first // 4
        blocks = (first + count + 3) // 4 - block
        words = _philox_words(self.seed, self.stream, block + 1, blocks)
        offset = first - 4 * block
        return (words[:, offset:offset + count] >> _DOUBLE_SHIFT) * _DOUBLE_UNIT


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


def measure_qubit(
    state: PureState,
    qubit: int,
    theta: Union[AnalyzerAngle, float],
    rng: RandomSource,
) -> tuple[BinaryOutcome, PureState]:
    """Measure one qubit through a linear analyzer and collapse the register.

    Draws a single uniform; returns the ±1 outcome with Born probability
    and the renormalized post-measurement state.
    """
    n = state.num_qubits
    _check_qubit(n, qubit)
    p_plus_op, p_minus_op = polarization_observable(theta)
    gather = _gather_index(n, (qubit,))

    branch_plus = _apply(state.amplitudes, gather, p_plus_op)
    p_plus = min(max(_norm_sq(branch_plus), 0.0), 1.0)
    if rng.uniform() < p_plus:
        outcome, branch = +1, branch_plus
    else:
        outcome, branch = -1, _apply(state.amplitudes, gather, p_minus_op)
    weight = _norm_sq(branch)
    if weight < _DEGENERATE_BRANCH:
        raise ValueError("sampled a zero-probability branch; state inconsistent")
    return outcome, PureState(n, branch / np.sqrt(weight))


def _clamped(probs: Sequence[float], context: str) -> list[float]:
    """Clamp tiny negative probabilities to zero; anything worse is an error."""
    out = []
    for p in probs:
        if p < 0.0:
            if p < -1e-12:
                raise ValueError(f"negative probability {p!r} in {context}")
            log.debug("clamped probability %r to 0 in %s", p, context)
            p = 0.0
        out.append(float(p))
    return out


def _pick(outcomes: Sequence, cums: Sequence[float], u: float):
    for outcome, edge in zip(outcomes, cums):
        if u < edge:
            return outcome
    return outcomes[-1]  # u beyond the last edge only by float dust


def bell_measurement(
    state: PureState,
    qubits: tuple[int, int],
    mode: BsmMode,
    rng: RandomSource,
) -> tuple[BsmOutcome, PureState]:
    """Joint Bell-basis measurement on a qubit pair.

    Full mode resolves all four Bell outcomes; partial mode resolves only
    psi- and psi+, lumping the phi-+ subspace into OTHER.  Draws a single
    uniform and collapses onto the selected outcome's subspace.
    """
    i, j = (int(qubits[0]), int(qubits[1]))
    n = state.num_qubits
    _check_qubit(n, i)
    _check_qubit(n, j)
    if i == j:
        raise ValueError("bell measurement needs two distinct qubits")

    projectors = bell_projectors(mode)
    order = bsm_outcomes(mode)
    gather = _gather_index(n, (i, j))
    branches = [_apply(state.amplitudes, gather, projectors[o]) for o in order]
    probs = _clamped([_norm_sq(b) for b in branches], "bell measurement")
    cums = np.cumsum(probs)

    outcome = _pick(order, cums, rng.uniform())
    branch = branches[order.index(outcome)]
    weight = _norm_sq(branch)
    if weight < _DEGENERATE_BRANCH:
        raise ValueError("sampled a zero-probability branch; state inconsistent")
    return outcome, PureState(n, branch / np.sqrt(weight))


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
            p = _clamped([_norm_sq(branch)], "outcome distribution")[0]
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
