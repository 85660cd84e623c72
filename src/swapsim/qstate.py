"""Dense state-vector and density-matrix algebra for small qubit registers.

Index convention, fixed package-wide: basis index ``i = sum_k q_k * 2**(n-1-k)``,
so qubit 0 is the most significant bit, with H -> 0 and V -> 1.  A four-qubit
ket |HVHV> therefore sits at index 0b0101 = 5.  Registers are capped at
``MAX_QUBITS`` qubits, a range where plain dense numpy stays instant.

States are immutable once constructed: amplitude and entry arrays are copied
in and marked read-only, so values can be shared freely between callers.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .records import BsmOutcome, _Frozen

MAX_QUBITS = 12

# Algebraic identities (norms, traces, hermiticity) must hold to ATOL at this
# register scale; PSD_SLACK absorbs eigensolver jitter on mixed states.
ATOL = 1e-12
PSD_SLACK = 1e-9

_SQRT2_INV = 1.0 / np.sqrt(2.0)


class RegisterSizeError(ValueError):
    """An operation would leave the supported 1..MAX_QUBITS register range."""


def _read_only(values, length: int) -> np.ndarray:
    arr = np.array(values, dtype=complex).reshape(-1)
    if arr.shape != (length,):
        raise ValueError(f"expected {length} entries, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("non-finite amplitude")
    arr.setflags(write=False)
    return arr


class PureState(_Frozen):
    """Normalized state vector on ``num_qubits`` qubits.

    The amplitude vector is validated on construction: length ``2**num_qubits``,
    finite entries, squared norm within ``ATOL`` of 1.  States compare by identity.
    """

    __slots__ = __match_args__ = ("num_qubits", "amplitudes")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, num_qubits: int, amplitudes: np.ndarray) -> None:
        if not 1 <= num_qubits <= MAX_QUBITS:
            raise RegisterSizeError(
                f"register must hold 1..{MAX_QUBITS} qubits, got {num_qubits}"
            )
        arr = _read_only(amplitudes, 2**num_qubits)
        norm_sq = float(np.vdot(arr, arr).real)
        if abs(norm_sq - 1.0) > ATOL:
            raise ValueError(f"state not normalized: |psi|^2 = {norm_sq!r}")
        super().__init__(num_qubits, arr)


class DensityMatrix(_Frozen):
    """Density operator on ``num_qubits`` qubits.

    Construction validates hermiticity and unit trace to ``ATOL`` and
    positive semidefiniteness down to ``-PSD_SLACK`` on the spectrum, so a
    DensityMatrix in hand is always a usable physical state.  Matrices
    compare by identity.
    """

    __slots__ = __match_args__ = ("num_qubits", "entries")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, num_qubits: int, entries: np.ndarray) -> None:
        if not 1 <= num_qubits <= MAX_QUBITS:
            raise RegisterSizeError(
                f"register must hold 1..{MAX_QUBITS} qubits, got {num_qubits}"
            )
        dim = 2**num_qubits
        arr = np.array(entries, dtype=complex)
        if arr.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("non-finite entry")
        if np.abs(arr - arr.conj().T).max() > ATOL:
            raise ValueError("matrix is not hermitian")
        trace = complex(np.trace(arr))
        if abs(trace - 1.0) > ATOL:
            raise ValueError(f"trace must be 1, got {trace!r}")
        if float(np.linalg.eigvalsh(arr).min()) < -PSD_SLACK:
            raise ValueError("matrix is not positive semidefinite")
        arr.setflags(write=False)
        super().__init__(num_qubits, arr)

    def purity(self) -> float:
        """tr(rho^2); 1 for pure states, 1/dim for the maximally mixed state."""
        return float(np.trace(self.entries @ self.entries).real)


# The Bell states, keyed by the Bell outcome that resolves each, in canonical
# order: psi-+ = (|HV> -+ |VH>)/sqrt 2, phi-+ = (|HH> -+ |VV>)/sqrt 2.
_BELL_AMPLITUDES = {
    BsmOutcome.PSI_MINUS: np.array([0.0, 1.0, -1.0, 0.0]) * _SQRT2_INV,
    BsmOutcome.PSI_PLUS: np.array([0.0, 1.0, 1.0, 0.0]) * _SQRT2_INV,
    BsmOutcome.PHI_MINUS: np.array([1.0, 0.0, 0.0, -1.0]) * _SQRT2_INV,
    BsmOutcome.PHI_PLUS: np.array([1.0, 0.0, 0.0, 1.0]) * _SQRT2_INV,
}


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Trace out every qubit not listed in ``keep``.

    The reduced state carries the kept qubits in the order given, so
    ``keep=(3, 0)`` returns a state whose most significant qubit is qubit 3.
    """
    kept = tuple(int(q) for q in keep)
    n = rho.num_qubits
    if not kept:
        raise ValueError("keep must name at least one qubit")
    if len(set(kept)) != len(kept):
        raise ValueError(f"keep has repeated qubits: {kept}")
    if any(q < 0 or q >= n for q in kept):
        raise ValueError(f"keep {kept} out of range for {n} qubits")

    # Row axis of qubit q gets label q, column axis label n+q; tracing a qubit
    # means giving its column axis the row label so einsum sums the diagonal.
    tens = rho.entries.reshape((2,) * (2 * n))
    labels = list(range(n)) + [q if q not in kept else n + q for q in range(n)]
    out = [*kept, *(n + q for q in kept)]
    reduced = np.einsum(tens, labels, out)
    m = len(kept)
    return DensityMatrix(m, reduced.reshape(2**m, 2**m))
