"""Entanglement witnesses for two-qubit density matrices.

Both metrics vanish exactly on separable states and reach their maximum on
Bell states, which is what makes them useful as before/after evidence around
a joint measurement: the reduced state of the outer photon pair scores 0
before the swap and 1 (concurrence) after a resolving Bell outcome.
"""

from __future__ import annotations

import numpy as np

from .qstate import DensityMatrix
from .records import _Frozen

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)

# Eigenvalue jitter allowed below zero before sqrt/negativity bookkeeping.
_EIG_SLACK = 1e-9


class TwoQubitMetrics(_Frozen):
    """Entanglement scores of one reduced state."""

    __slots__ = __match_args__ = ("concurrence", "negativity", "purity")

    def __init__(self, concurrence: float, negativity: float, purity: float) -> None:
        self._set(concurrence, negativity, purity)


def _require_two_qubits(rho: DensityMatrix, what: str) -> None:
    if rho.num_qubits != 2:
        raise ValueError(f"{what} is defined on two qubits, got {rho.num_qubits}")


def concurrence(rho: DensityMatrix) -> float:
    """Wootters concurrence: max(0, l1 - l2 - l3 - l4).

    The l_k are the square roots of the eigenvalues of rho (sy x sy) rho*
    (sy x sy), sorted in decreasing order.  0 for separable states, 1 for
    Bell states.  Validity of rho (hermitian, unit trace, PSD) is enforced
    by the DensityMatrix constructor.
    """
    _require_two_qubits(rho, "concurrence")
    vals, vecs = np.linalg.eigh(rho.entries)
    if float(vals.min()) < -_EIG_SLACK:
        raise ValueError("spin-flipped spectrum is not real nonnegative")
    # The l_k equal the singular values of sqrt(flipped) @ sqrt(rho): that
    # product's Gram matrix is sqrt(rho) flipped sqrt(rho), which is similar
    # to rho @ flipped.  Computing them as singular values avoids taking
    # square roots of eigenvalues jittering near zero.
    sqrt_rho = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    sqrt_flipped = _SPIN_FLIP @ sqrt_rho.conj() @ _SPIN_FLIP
    roots = np.linalg.svd(sqrt_flipped @ sqrt_rho, compute_uv=False)  # descending
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))


def negativity(rho: DensityMatrix) -> float:
    """Sum of |negative eigenvalues| of the partial transpose over the second qubit.

    0 for separable two-qubit states, 1/2 for Bell states.
    """
    _require_two_qubits(rho, "negativity")
    pt = rho.entries.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    eigs = np.linalg.eigvalsh(pt)
    return float(-eigs[eigs < 0.0].sum() + 0.0)  # +0.0 folds the empty sum's -0.0


def metrics_for(rho: DensityMatrix) -> TwoQubitMetrics:
    """All witnesses of one state in a single record."""
    return TwoQubitMetrics(
        concurrence=concurrence(rho),
        negativity=negativity(rho),
        purity=rho.purity(),
    )
