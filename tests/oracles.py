"""Brute-force reference routes used to cross-check the package.

Everything here is written the slow, obvious way — index loops and explicit
Kronecker chains, one json.loads per record line — and never calls into the
package's linear-algebra helpers or its record reader, so a test comparing
both routes genuinely checks two independent computations of the same
number.

The small constructors (basis kets, the Werner closed form, a constant
hidden-variable model) exist only for tests, so they live here too.

The tensordot routes at the end are the package's former measurement
kernels: a recursive, depth-first exact walk and the sampled collapses.
The walk takes the analyzer operators from the package, because the
package gathers amplitudes and calls np.dot on the very operands tensordot
builds, and tests require bit-identical exact tables from both.  The
package samples only from exact tables, so these collapses are the only
trial-by-trial sampling code: the measurement physics tests run on them.
"""

import json

import numpy as np

from swapsim.classical import ClassicalRecord, HiddenVariableModel
from swapsim.cli import RecordFormatError
from swapsim.measure import BellSpec, PolarizationSpec, bell_projectors, bsm_outcomes, polarization_observable
from swapsim.protocol import TrialRecord, _measurement_plan, _preparation_components
from swapsim.qstate import PureState


def basis_state(num_qubits: int, index: int) -> PureState:
    """Computational basis ket |index> under the H=0 / V=1 bit convention."""
    if not 0 <= index < 2**num_qubits:
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[index] = 1.0
    return PureState(num_qubits, amps)


def werner_concurrence(p: float) -> float:
    """Closed-form concurrence of the Werner state p|psi-><psi-| + (1-p) I/4: max(0, (3p - 1)/2)."""
    return max(0.0, (3.0 * p - 1.0) / 2.0)


def constant_model(value0: int = +1, value3: int = +1) -> HiddenVariableModel:
    """Degenerate model: fixed outcomes regardless of angle or lambda."""
    if value0 not in (-1, +1) or value3 not in (-1, +1):
        raise ValueError("constant outcomes must be +-1")
    return HiddenVariableModel(
        name=f"constant({value0:+d},{value3:+d})",
        outcome0=lambda angle, lam: np.full_like(lam, value0, dtype=np.int64),
        outcome3=lambda angle, lam: np.full_like(lam, value3, dtype=np.int64),
        marker=lambda lam0, lam1: np.zeros(len(lam0), dtype=np.int64),
        marker_labels=("all",),
    )


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


def apply_single_tensordot(amps: np.ndarray, n: int, qubit: int, mat: np.ndarray) -> np.ndarray:
    tens = amps.reshape((2,) * n)
    tens = np.moveaxis(np.tensordot(mat, tens, axes=([1], [qubit])), 0, qubit)
    return tens.reshape(-1)


def apply_pair_tensordot(amps: np.ndarray, n: int, i: int, j: int, mat4: np.ndarray) -> np.ndarray:
    # mat4 rows/columns are indexed 2*q_i + q_j
    op = mat4.reshape(2, 2, 2, 2)
    tens = amps.reshape((2,) * n)
    tens = np.moveaxis(np.tensordot(op, tens, axes=([2, 3], [i, j])), (0, 1), (i, j))
    return tens.reshape(-1)


def _norm_sq(amps: np.ndarray) -> float:
    return float(np.vdot(amps, amps).real)


def _clamp(p: float) -> float:
    if p < 0.0:
        if p < -1e-12:
            raise ValueError(f"negative probability {p!r}")
        return 0.0
    return p


def _branches(spec, n: int):
    """(outcome, apply) pairs of one plan step, in sampling order."""
    if isinstance(spec, PolarizationSpec):
        p_plus, p_minus = polarization_observable(spec.angle)
        return [(o, lambda a, op=op: apply_single_tensordot(a, n, spec.qubit, op))
                for o, op in ((+1, p_plus), (-1, p_minus))]
    assert isinstance(spec, BellSpec)
    i, j = spec.qubits
    projectors = bell_projectors(spec.mode)
    return [(o, lambda a, op=projectors[o]: apply_pair_tensordot(a, n, i, j, op))
            for o in bsm_outcomes(spec.mode)]


def _outcomes(spec) -> tuple:
    return (+1, -1) if isinstance(spec, PolarizationSpec) else bsm_outcomes(spec.mode)


def outcome_distribution_recursive(amps: np.ndarray, n: int, plan) -> dict:
    """Exact joint distribution by a depth-first walk that recomputes every branch.

    A zero-probability branch fills its whole subtree with 0.0.
    """
    steps = tuple(plan)
    table = {}

    def fill_zeros(prefix: tuple, depth: int) -> None:
        if depth == len(steps):
            table[prefix] = 0.0
            return
        for outcome in _outcomes(steps[depth]):
            fill_zeros(prefix + (outcome,), depth + 1)

    def walk(state: np.ndarray, prefix: tuple, joint: float) -> None:
        depth = len(prefix)
        if depth == len(steps):
            table[prefix] = joint
            return
        for outcome, apply in _branches(steps[depth], n):
            branch = apply(state)
            p = _clamp(_norm_sq(branch))
            if p == 0.0:
                fill_zeros(prefix + (outcome,), depth + 1)
            else:
                walk(branch / np.sqrt(p), prefix + (outcome,), joint * p)

    walk(amps, (), 1.0)
    return table


def setting_joints_reference(key: tuple, memo: dict) -> dict:
    """Per-setting joints of a protocol table key: the component mixture summed in order.

    Each component's walk is a pure function of its amplitudes and the plan,
    so ``memo`` keeps it across keys: the components at every V < 1 are the
    same 16 Bell products, only their weights differ.
    """
    components = _preparation_components(key[4])
    joints = {}
    for i0 in (0, 1):
        for i3 in (0, 1):
            plan = _measurement_plan(key, i0, i3)
            merged = {}
            for weight, component in components:
                walk_key = (component.amplitudes.tobytes(), plan)
                if walk_key not in memo:
                    memo[walk_key] = outcome_distribution_recursive(component.amplitudes, 4, plan)
                for outcomes, p in memo[walk_key].items():
                    merged[outcomes] = merged.get(outcomes, 0.0) + weight * p
            joints[(i0, i3)] = merged
    return joints


def pick(outcomes, cums, u: float):
    """Inverse-CDF pick: the first outcome whose cumulative edge lies above ``u``.

    ``u`` beyond the last edge (float dust) picks the last outcome.
    """
    return next((o for o, edge in zip(outcomes, cums) if u < edge), outcomes[-1])


def measure_qubit_tensordot(amps: np.ndarray, n: int, qubit: int, theta, u: float):
    """(outcome, collapsed amplitudes) of one analyzer given its uniform draw ``u``."""
    p_plus_op, p_minus_op = polarization_observable(theta)
    branch_plus = apply_single_tensordot(amps, n, qubit, p_plus_op)
    if u < min(max(_norm_sq(branch_plus), 0.0), 1.0):
        outcome, branch = +1, branch_plus
    else:
        outcome, branch = -1, apply_single_tensordot(amps, n, qubit, p_minus_op)
    return outcome, branch / np.sqrt(_norm_sq(branch))


def bell_measurement_tensordot(amps: np.ndarray, n: int, qubits, mode, u: float):
    """(outcome, collapsed amplitudes) of a Bell analyzer given its uniform draw ``u``."""
    i, j = qubits
    projectors = bell_projectors(mode)
    order = bsm_outcomes(mode)
    branches = [apply_pair_tensordot(amps, n, i, j, projectors[o]) for o in order]
    outcome = pick(order, np.cumsum([_clamp(_norm_sq(b)) for b in branches]), u)
    branch = branches[order.index(outcome)]
    return outcome, branch / np.sqrt(_norm_sq(branch))
