"""Brute-force reference routes used to cross-check the package.

Everything here is written the slow, obvious way — index loops and explicit
Kronecker chains, one json.loads per record line — and never calls into the
package's linear-algebra helpers or its record reader, so a test comparing
both routes genuinely checks two independent computations of the same
number.
"""

import json

import numpy as np

from swapsim.classical import ClassicalRecord
from swapsim.cli import RecordFormatError
from swapsim.protocol import TrialRecord


def kron_chain(ops) -> np.ndarray:
    out = np.array([[1.0 + 0.0j]])
    for op in ops:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def embed_single(op: np.ndarray, n: int, qubit: int) -> np.ndarray:
    ops = [np.eye(2)] * n
    ops[qubit] = op
    return kron_chain(ops)


def embed_adjacent_pair(op4: np.ndarray, n: int, first: int) -> np.ndarray:
    """Embed a two-qubit operator acting on qubits (first, first+1)."""
    return kron_chain([np.eye(2)] * first + [op4] + [np.eye(2)] * (n - first - 2))


def bits_of(index: int, n: int) -> list:
    return [(index >> (n - 1 - k)) & 1 for k in range(n)]


def partial_trace_loops(mat: np.ndarray, n: int, keep) -> np.ndarray:
    """Partial trace by summing matrix elements index by index."""
    keep = tuple(keep)
    traced = [q for q in range(n) if q not in keep]
    m = len(keep)
    out = np.zeros((2**m, 2**m), dtype=complex)
    for row in range(2**n):
        row_bits = bits_of(row, n)
        for col in range(2**n):
            col_bits = bits_of(col, n)
            if any(row_bits[q] != col_bits[q] for q in traced):
                continue
            r = sum(row_bits[q] << (m - 1 - i) for i, q in enumerate(keep))
            c = sum(col_bits[q] << (m - 1 - i) for i, q in enumerate(keep))
            out[r, c] += mat[row, col]
    return out


def pure_concurrence(amplitudes) -> float:
    """Two-qubit pure-state concurrence in closed form: 2|ad - bc|."""
    a, b, c, d = np.asarray(amplitudes, dtype=complex)
    return float(2.0 * abs(a * d - b * c))


def negativity_loops(mat: np.ndarray) -> float:
    """Negativity from an element-wise partial transpose of the second qubit."""
    pt = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    pt[2 * i + j, 2 * k + l] = mat[2 * i + l, 2 * k + j]
    eigs = np.linalg.eigvalsh(pt)
    return float(-eigs[eigs < 0.0].sum() + 0.0)


def joint_prob_product(state_vector: np.ndarray, full_matrices) -> float:
    """P(outcome combo) = ||M_last ... M_first |psi>||^2 with explicit matrices."""
    vec = np.asarray(state_vector, dtype=complex)
    for mat in full_matrices:
        vec = mat @ vec
    return float(np.vdot(vec, vec).real)


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return amps / np.linalg.norm(amps)


def random_mixed(rng: np.random.Generator, n: int, rank: int = 3) -> np.ndarray:
    """Random density matrix as a convex mixture of random pure states."""
    weights = rng.dirichlet(np.ones(rank))
    out = np.zeros((2**n, 2**n), dtype=complex)
    for w in weights:
        psi = random_state(rng, n)
        out += w * np.outer(psi, psi.conj())
    return out


def random_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def polarization_projectors_explicit(theta_rad: float):
    """(P_plus, P_minus) built from the analyzer kets, not from the package."""
    ket_plus = np.array([np.cos(theta_rad), np.sin(theta_rad)], dtype=complex)
    ket_minus = np.array([-np.sin(theta_rad), np.cos(theta_rad)], dtype=complex)
    return np.outer(ket_plus, ket_plus.conj()), np.outer(ket_minus, ket_minus.conj())


_SQ = 1.0 / np.sqrt(2.0)
BELL_VECTORS = {
    "psi-minus": np.array([0.0, _SQ, -_SQ, 0.0], dtype=complex),
    "psi-plus": np.array([0.0, _SQ, _SQ, 0.0], dtype=complex),
    "phi-minus": np.array([_SQ, 0.0, 0.0, -_SQ], dtype=complex),
    "phi-plus": np.array([_SQ, 0.0, 0.0, _SQ], dtype=complex),
}


def bell_projector_explicit(label: str) -> np.ndarray:
    vec = BELL_VECTORS[label]
    return np.outer(vec, vec.conj())


def werner_matrix(p: float) -> np.ndarray:
    singlet = bell_projector_explicit("psi-minus")
    return p * singlet + (1.0 - p) * np.eye(4) / 4.0


def philox_uniforms(seed: int, stream: int, count: int) -> np.ndarray:
    """``count`` doubles from numpy's own Philox generator keyed (seed, stream) mod 2**64."""
    mask = (1 << 64) - 1
    key = np.array([seed & mask, stream & mask], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random(count)


def read_records_reference(path):
    """Yield the records of a JSONL file, one json.loads per non-blank line.

    The first line that is not a record raises RecordFormatError with its
    1-based line number, after the records above it.
    """
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                doc = json.loads(stripped)
                if doc.get("ordering") == "classical":
                    record = ClassicalRecord.from_json_dict(doc)
                else:
                    record = TrialRecord.from_json_dict(doc)
            except (ValueError, KeyError, TypeError) as exc:
                raise RecordFormatError(line_number, str(exc)) from exc
            yield record
