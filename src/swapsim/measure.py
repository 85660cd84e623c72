"""Projective polarization and Bell-basis measurements and exact branch walks.

Outcomes come in a fixed order (binary: +1 then -1; full Bell: psi-, psi+,
phi-, phi+; partial Bell: psi-, psi+, other).  ``extend_frontier``,
folded over a measurement plan, walks every branch in that order and gives
exact Born probabilities; sampling draws by inverse CDF from those tables
(see ``protocol``), never by collapsing states one trial at a time.
``RandomSource``, the seeded Philox4x64-10 stream engine, lives in
``swapsim.rng`` and is re-exported here as the same class.

A frontier is two arrays: ``joints``, shaped (rows,), and ``amps``, shaped
(rows, 2**n), one row per branch.  A plan step is one gather of every row,
one np.matmul of the stacked projectors with all of them and one batched
norm, so a mixture's components walk together as consecutive row blocks.
The batch changes no bit.  np.matmul makes, row by row, the BLAS gemm call
that np.dot makes on one branch.  The norm conj(x) . x by np.matmul is one
zdotu of conj(x) and x per row; its real part sums a*a - (-b)*b over the
amplitudes a + bi, which is, term for term, the sum a*a + b*b that zdotc
(np.vdot) forms, so it rounds alike.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Union

import numpy as np

from .qstate import BellKind, bell_state
from .records import CHUNK, AnalyzerAngle, BsmMode, BsmOutcome, as_angle, bsm_outcomes  # noqa: F401 (re-exported)
from .records import _Frozen
from .rng import RandomSource  # noqa: F401 (re-exported)


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

    Row by row, amps.take(forward, axis=1) reshaped to 2 ** len(axes) rows
    of columns is the contiguous operand that np.tensordot builds by
    transpose and reshape, so one np.matmul over all rows does, per row, the
    floating-point operations of np.dot on that row's operand, in the same
    order; taking the inverse indices of the products puts each row back in
    register order.
    """
    order = axes + tuple(q for q in range(n) if q not in axes)
    forward = np.arange(2**n).reshape((2,) * n).transpose(order).reshape(-1)
    inverse = np.argsort(forward)
    forward.setflags(write=False)
    inverse.setflags(write=False)
    return forward, inverse


class PolarizationSpec(_Frozen):
    """Plan step: analyzer at ``angle`` on one qubit; outcomes +1/-1."""

    __slots__ = __match_args__ = ("qubit", "angle")

    def __init__(self, qubit: int, angle: AnalyzerAngle) -> None:
        self._set(qubit, as_angle(angle))


class BellSpec(_Frozen):
    """Plan step: joint Bell analyzer on a qubit pair."""

    __slots__ = __match_args__ = ("qubits", "mode")

    def __init__(self, qubits: tuple[int, int], mode: BsmMode = BsmMode.FULL) -> None:
        pair = (int(qubits[0]), int(qubits[1]))
        if pair[0] == pair[1]:
            raise ValueError("bell spec needs two distinct qubits")
        self._set(pair, BsmMode(mode))


MeasurementSpec = Union[PolarizationSpec, BellSpec]


def step_outcomes(spec: MeasurementSpec) -> tuple:
    """The outcomes of one plan step, in sampling order."""
    return bsm_outcomes(spec.mode) if isinstance(spec, BellSpec) else (+1, -1)


def _step_operators(spec: MeasurementSpec, n: int) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Gather indices and the stacked projectors of one plan step, in sampling order.

    Two-qubit projectors are indexed 2*q_i + q_j for the gathered axes
    (i, j), matching the global convention that the lower-numbered qubit is
    the more significant bit.
    """
    if isinstance(spec, PolarizationSpec):
        _check_qubit(n, spec.qubit)
        return _gather_index(n, (spec.qubit,)), np.array(polarization_observable(spec.angle))
    if isinstance(spec, BellSpec):
        i, j = spec.qubits
        _check_qubit(n, i)
        _check_qubit(n, j)
        projectors = bell_projectors(spec.mode)
        return _gather_index(n, (i, j)), np.array([projectors[o] for o in step_outcomes(spec)])
    raise TypeError(f"unknown measurement spec: {spec!r}")


def extend_frontier(
    joints: np.ndarray,
    amps: np.ndarray,
    spec: MeasurementSpec,
    num_qubits: int,
    keep_states: bool = True,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Apply one plan step to every row of a frontier; returns the children's (joints, amps).

    Each row splits into one child per outcome of ``spec``, children listed
    in sampling order right after one another, so a frontier grown from one
    row lists full outcome tuples in lexicographic (depth-first) order, that
    of itertools.product over the steps' outcomes.  A child's joint is its
    Born probability p times its parent's joint.  A zero-probability child
    has joint 0.0 and an all-zero row, and an all-zero row's children have
    p = 0, so every outcome combination stays present.  ``keep_states=False``
    returns no amplitudes, for a plan's last step.
    """
    (forward, inverse), ops = _step_operators(spec, num_qubits)
    gathered = amps.take(forward, axis=1).reshape(len(amps), 1, ops.shape[-1], -1)
    products = np.matmul(ops, gathered).reshape(len(amps) * len(ops), -1).take(inverse, axis=1)
    p = np.matmul(products.conj()[:, None, :], products[:, :, None])[:, 0, 0].real
    children = np.repeat(joints, len(ops)) * p  # 0.0 wherever p == 0: joints are finite
    if not keep_states:
        return children, None
    states = np.divide(products, np.sqrt(p)[:, None], out=np.zeros_like(products), where=(p > 0.0)[:, None])
    return children, states

