"""Brute-force reference routes used to cross-check the package.

Everything here is written the slow, obvious way — index loops and explicit
Kronecker chains, one json.loads per record line — and never calls into the
package's linear-algebra helpers or its record reader, so a test comparing
both routes genuinely checks two independent computations of the same
number.

The small constructors and closed forms (basis kets, Bell states, tensor
products, the swap input, the rank-one density projector, the Werner
concurrence, the per-outcome correlations, a constant hidden-variable
model) exist only for tests, so they live here too.

The former CHSH routes (the exact loop and the two-slot sampled tally)
are kept to check the package's one CHSH core against them bit for bit.

The tensordot routes at the end are the package's former measurement
kernels: a recursive, depth-first exact walk and the sampled collapses.
The package gathers amplitudes into the very operands tensordot builds and
multiplies them by np.matmul, one np.dot-equal gemm per row, and tests
require bit-identical exact tables from both.  The walk's analyzer
projectors (the partial analyzer's "other" as phi- + phi+, in that order),
the plans' step order and the source's Bell-diagonal mixture are written
out here, so a wrong entry in the package's own tables shows.  The
package samples only from exact tables, so these collapses are the only
trial-by-trial sampling code: the measurement physics tests run on them.
"""

import json
import math
from functools import lru_cache

import numpy as np

from swapsim.analysis import ChshReport, CorrelationEstimate, InsufficientDataError
from swapsim.classical import ClassicalRecord, HiddenVariableModel
from swapsim.measure import BellSpec, PolarizationSpec, bsm_outcomes
from swapsim.protocol import TrialRecord
from swapsim.qstate import DensityMatrix, PureState
from swapsim.records import BsmOutcome, Ordering, RecordFormatError


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


def bell_state(label) -> PureState:
    """Two-qubit Bell state of a resolving BsmOutcome or its BELL_VECTORS label.

    psi-+ = (|HV> -+ |VH>)/sqrt 2, phi-+ = (|HH> -+ |VV>)/sqrt 2.
    """
    return PureState(2, BELL_VECTORS[BsmOutcome(label).value])


def tensor(a: PureState, b: PureState) -> PureState:
    """Kronecker product a (x) b; a's qubits become the most significant block."""
    return PureState(a.num_qubits + b.num_qubits, np.kron(a.amplitudes, b.amplitudes))


def bell_projector_explicit(label: str) -> np.ndarray:
    """|v><v| of a BELL_VECTORS label; "other", the partial analyzer's bucket, is phi- + phi+ in that order."""
    if label == "other":
        return bell_projector_explicit("phi-minus") + bell_projector_explicit("phi-plus")
    vec = BELL_VECTORS[label]
    return np.outer(vec, vec.conj())


def werner_matrix(p: float) -> np.ndarray:
    singlet = bell_projector_explicit("psi-minus")
    return p * singlet + (1.0 - p) * np.eye(4) / 4.0


def stage_states_reference(visibility: float, mode: str) -> dict:
    """The (0,3) state of each stage of a bsm-first report, keyed by stage name, from the 16x16 source.

    Two Werner pairs joined by np.kron, photons 1 and 2 projected by explicit
    Bell projectors (phi- + phi+ for the partial analyzer's "other"), each
    projected state scaled to trace 1 and traced by loops.
    """
    source = np.kron(werner_matrix(visibility), werner_matrix(visibility))
    labels = ["psi-minus", "psi-plus", *(["phi-minus", "phi-plus"] if mode == "full" else ["other"])]
    states = {"pre-bsm": partial_trace_loops(source, 4, (0, 3))}
    for label in labels:
        projector = embed_adjacent_pair(bell_projector_explicit(label), 4, 1)
        projected = projector @ source @ projector
        states[f"post-bsm:{label}"] = partial_trace_loops(projected / np.trace(projected).real, 4, (0, 3))
    return states


def prepare_swap_input() -> PureState:
    """Four-photon source state psi-(0,1) (x) psi-(2,3), from the explicit singlet vector.

    Photons 0,1 form one singlet pair and photons 2,3 the other; photons 0 and 3
    share no correlations until a joint measurement on 1 and 2 creates them.
    """
    singlet = BELL_VECTORS["psi-minus"]
    return PureState(4, np.kron(singlet, singlet))


def to_density(state: PureState) -> DensityMatrix:
    """Rank-one projector |psi><psi|."""
    return DensityMatrix(state.num_qubits, np.outer(state.amplitudes, state.amplitudes.conj()))


class UndefinedPredictionError(ValueError):
    """No closed-form correlation exists for the requested outcome label."""


def predicted_correlation(bsm: BsmOutcome, alpha, delta) -> float:
    """Closed-form E(alpha, delta) for photons (0,3) given a resolving outcome; angles in degrees or AnalyzerAngle.

    psi- and phi+ carry the angle difference, psi+ and phi- the angle sum;
    the psi states anticorrelate at equal angles, the phi states correlate.
    The coarse OTHER bucket mixes phi+ and phi-, whose correlations cancel
    at generic angles, so no single closed form applies.
    """
    a, d = (math.radians(float(getattr(angle, "degrees", angle))) for angle in (alpha, delta))
    bsm = BsmOutcome(bsm)
    if bsm is BsmOutcome.PSI_MINUS:
        return -math.cos(2.0 * (a - d))
    if bsm is BsmOutcome.PSI_PLUS:
        return -math.cos(2.0 * (a + d))
    if bsm is BsmOutcome.PHI_PLUS:
        return math.cos(2.0 * (a - d))
    if bsm is BsmOutcome.PHI_MINUS:
        return math.cos(2.0 * (a + d))
    raise UndefinedPredictionError("the coarse 'other' outcome has no single closed-form correlation")


def philox_uniforms(seed: int, stream: int, count: int) -> np.ndarray:
    """``count`` doubles from numpy's own Philox generator keyed (seed, stream) mod 2**64."""
    mask = (1 << 64) - 1
    key = np.array([seed & mask, stream & mask], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random(count)


def read_records_reference(path):
    """Yield the records of a JSONL file, one json.loads per non-blank line.

    The first line that is not a record, or whose record gives a setting
    index another angle than a line above did, or an angle that, mod 180 at
    12 significant digits (a written 180 being 0), is the one a line above
    gave the station's other index, raises RecordFormatError with its
    1-based line number, after the records above it.
    """

    def written(degrees):
        text = "%.12g" % (degrees % 180.0)
        return 0.0 if text == "180" else float(text)

    angles = {}
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                doc = json.loads(stripped)
                if not isinstance(doc, dict):
                    raise TypeError(f"a record must be a JSON object, not {type(doc).__name__}")
                if doc.get("ordering") == "classical":
                    record = ClassicalRecord.from_json_dict(doc)
                else:
                    record = TrialRecord.from_json_dict(doc)
            except (ValueError, KeyError, TypeError, RecursionError) as exc:
                raise RecordFormatError(line_number, str(exc)) from exc
            for station, index, degrees in ((0, record.setting0_index, record.setting0_deg),
                                            (3, record.setting3_index, record.setting3_deg)):
                if angles.setdefault((station, index), degrees) != degrees:
                    raise RecordFormatError(
                        line_number, f"setting{station}_index {index} has angle {degrees!r} here "
                                     f"but {angles[station, index]!r} above: not one experiment")
                other = angles.get((station, 1 - index))
                if other is not None and written(other) == written(degrees):
                    raise RecordFormatError(
                        line_number, f"setting{station}_index 0 and 1 both have angle {written(degrees)!r} as written")
            yield record


_CELLS = ((0, 0), (0, 1), (1, 0), (1, 1))
_CELL_SIGNS = {(0, 0): +1.0, (0, 1): -1.0, (1, 0): +1.0, (1, 1): +1.0}


def chsh_exact_reference(table: dict, label):
    """The former exact CHSH loop: (per-cell probability, per-cell E, S) under bsm == label (None keeps all)."""
    weights = {cell: 0.0 for cell in _CELLS}
    sums = {cell: 0.0 for cell in _CELLS}
    for (i0, i3, o0, o3, bsm), p in table.items():
        if label is not None and bsm is not label:
            continue
        weights[(i0, i3)] += p
        sums[(i0, i3)] += o0 * o3 * p
    description = "none" if label is None else f"bsm={label.value}"
    for cell in _CELLS:
        if weights[cell] <= 0.0:
            raise InsufficientDataError(f"no probability in setting cell {cell} with filter {description}")
    e = {cell: sums[cell] / weights[cell] for cell in _CELLS}
    return weights, e, e[(0, 0)] - e[(0, 1)] + e[(1, 0)] + e[(1, 1)]


def tally_two_slot(weighted, label):
    """The former sampled tally: per-cell (aligned, opposed) counts, kept and total over (record, count) pairs.

    ``label`` is the bsm_label string kept, or None to keep every record.
    """
    counts = {cell: [0, 0] for cell in _CELLS}
    total = kept = 0
    for record, count in weighted:
        total += count
        if label is not None and record.bsm_label != label:
            continue
        kept += count
        counts[(record.setting0_index, record.setting3_index)][0 if record.outcome0 == record.outcome3 else 1] += count
    return counts, kept, total


def chsh_from_counts_reference(cell_counts, filter_description: str, kept: int, total: int) -> ChshReport:
    """The former sampled report: E = (aligned - opposed) / n per cell and S = sum(sign * E)."""
    estimates = {}
    for cell in _CELLS:
        aligned, opposed = cell_counts[cell]
        n = aligned + opposed
        if n == 0:
            raise InsufficientDataError(f"no records in setting cell {cell} with filter {filter_description}")
        e = (aligned - opposed) / n
        estimates[cell] = CorrelationEstimate(e, n, math.sqrt(max(0.0, 1.0 - e * e) / n))
    s = sum(_CELL_SIGNS[cell] * estimates[cell].e_value for cell in _CELLS)
    s_err = math.sqrt(sum(estimates[cell].std_err ** 2 for cell in _CELLS))
    return ChshReport(*(estimates[cell] for cell in _CELLS), s_value=float(s), s_std_err=float(s_err),
                      filter_description=filter_description, kept=kept, total=total)


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
    """(outcome, apply) pairs of one plan step, in sampling order, on projectors built here."""
    if isinstance(spec, PolarizationSpec):
        p_plus, p_minus = polarization_projectors_explicit(spec.angle.radians)
        return [(o, lambda a, op=op: apply_single_tensordot(a, n, spec.qubit, op))
                for o, op in ((+1, p_plus), (-1, p_minus))]
    assert isinstance(spec, BellSpec)
    i, j = spec.qubits
    return [(o, lambda a, op=bell_projector_explicit(o.value): apply_pair_tensordot(a, n, i, j, op))
            for o in bsm_outcomes(spec.mode)]


def _outcomes(spec) -> tuple:
    return (+1, -1) if isinstance(spec, PolarizationSpec) else bsm_outcomes(spec.mode)


def outcome_distribution_recursive(amps: np.ndarray, n: int, plan, memo=None) -> dict:
    """Exact joint distribution by a depth-first walk of every branch.

    A zero-probability branch fills its whole subtree with 0.0.  ``memo``,
    if given, keeps each interior step's collapsed branches by (amplitudes,
    plan prefix, outcome prefix), so walks that share a plan prefix collapse
    it once: the same tensordot calls on the same states, so the same bits.
    """
    steps = tuple(plan)
    root = amps.tobytes()
    memo = {} if memo is None else memo
    table = {}

    def fill_zeros(prefix: tuple, depth: int) -> None:
        if depth == len(steps):
            table[prefix] = 0.0
            return
        for outcome in _outcomes(steps[depth]):
            fill_zeros(prefix + (outcome,), depth + 1)

    def collapse(state: np.ndarray, depth: int) -> list:
        """(outcome, p, normalized branch or None) of step ``depth`` on ``state``."""
        branches = []
        for outcome, apply in _branches(steps[depth], n):
            branch = apply(state)
            p = _clamp(_norm_sq(branch))
            branches.append((outcome, p, branch / np.sqrt(p) if p else None))
        return branches

    def walk(state: np.ndarray, prefix: tuple, joint: float) -> None:
        depth = len(prefix)
        if depth == len(steps):
            table[prefix] = joint
            return
        if depth + 1 < len(steps):  # the last step's branches are not shared, so not kept
            key = (root, steps[:depth + 1], prefix)
            if key not in memo:
                memo[key] = collapse(state, depth)
            branches = memo[key]
        else:
            branches = collapse(state, depth)
        for outcome, p, branch in branches:
            if p == 0.0:
                fill_zeros(prefix + (outcome,), depth + 1)
            else:
                walk(branch, prefix + (outcome,), joint * p)

    walk(amps, (), 1.0)
    return table


# Each ordering's steps in applied order, written out here, not read from the engine's plan map.
_STEP_ORDER = {Ordering.BSM_FIRST: ("bsm", "pol0", "pol3"), Ordering.POLARIZATIONS_FIRST: ("pol0", "pol3", "bsm")}


def measurement_plan(key: tuple, i0: int, i3: int) -> tuple:
    """The specs of one setting pair of a protocol table key, in _STEP_ORDER: the Bell step on photons 1 and 2."""
    angles0, angles3, ordering, mode, _ = key
    specs = {"bsm": BellSpec((1, 2), mode), "pol0": PolarizationSpec(0, angles0[i0]),
             "pol3": PolarizationSpec(3, angles3[i3])}
    return tuple(specs[step] for step in _STEP_ORDER[ordering])


@lru_cache(maxsize=None)  # the grid's keys share six visibilities
def source_components(visibility: float) -> tuple:
    """The source as (weight, four-photon amplitudes) pairs: one product of two Bell states each.

    Each pair is Bell-diagonal, V + (1-V)/4 on psi- and (1-V)/4 on each
    other Bell state; products are listed in BELL_VECTORS order, first pair
    outer, and those of weight 0 are left out.
    """
    other = (1.0 - visibility) / 4.0
    weights = {label: visibility + other if label == "psi-minus" else other for label in BELL_VECTORS}
    return tuple((w_a * w_b, np.kron(BELL_VECTORS[a], BELL_VECTORS[b]))
                 for a, w_a in weights.items() for b, w_b in weights.items() if w_a * w_b > 0.0)


def setting_joints_reference(key: tuple, memo: dict) -> dict:
    """Per-setting joints of a protocol table key: the component mixture summed in order.

    Each component's walk is a pure function of its amplitudes and the plan,
    so ``memo`` keeps it across keys, and the walks keep their interior
    branches in it too: the components at every V < 1 are the same 16 Bell
    products, only their weights differ, and plans share their prefixes.
    """
    joints = {}
    for i0 in (0, 1):
        for i3 in (0, 1):
            plan = measurement_plan(key, i0, i3)
            merged = {}
            for weight, amplitudes in source_components(key[4]):
                walk_key = (amplitudes.tobytes(), plan)
                if walk_key not in memo:
                    memo[walk_key] = outcome_distribution_recursive(amplitudes, 4, plan, memo)
                for outcomes, p in memo[walk_key].items():
                    merged[outcomes] = merged.get(outcomes, 0.0) + weight * p
            joints[(i0, i3)] = merged
    return joints


def sampling_tables_reference(joint: dict, step_outcomes: tuple) -> tuple[dict, dict, dict]:
    """Per-prefix inverse-CDF edges of one setting pair's joint, level by level.

    Level d maps each outcome prefix of length d with positive mass to the
    running sums of the conditional probabilities of step d's outcomes, in
    ``step_outcomes[d]`` order.  Margins add the joint's entries one after
    another in its key order.
    """
    margins = [{(): 1.0}, {}, {}, joint]
    for outcomes, p in joint.items():
        for depth in (1, 2):
            margins[depth][outcomes[:depth]] = margins[depth].get(outcomes[:depth], 0.0) + p
    return tuple(
        {prefix: tuple(np.cumsum([margins[depth + 1].get(prefix + (o,), 0.0) / mass for o in step_outcomes[depth]]))
         for prefix, mass in margins[depth].items() if mass > 0.0}
        for depth in range(3)
    )


def pick(outcomes, cums, u: float):
    """Inverse-CDF pick: the first outcome whose cumulative edge lies above ``u``.

    ``u`` beyond the last edge (float dust) picks the last outcome.
    """
    return next((o for o, edge in zip(outcomes, cums) if u < edge), outcomes[-1])


def analyzer_branches_tensordot(amps: np.ndarray, n: int, spec):
    """What a sampled collapse by ``spec`` knows before its draw: (outcomes, cumulative edges, states).

    Outcomes are in sampling order, edges are the running sums of their
    Born probabilities, and each state is its collapsed, normalized
    amplitudes (None at probability 0).  All of it depends on ``amps``
    alone, so a caller may keep it per outcome prefix of a fixed plan.
    """
    branches = [apply(amps) for _, apply in _branches(spec, n)]
    probs = [_norm_sq(branch) for branch in branches]
    states = [branch / np.sqrt(p) if p > 0.0 else None for branch, p in zip(branches, probs)]
    return _outcomes(spec), np.cumsum([_clamp(p) for p in probs]), states


def pick_branch(branches, u: float):
    """(outcome, collapsed amplitudes) of the draw ``u`` on analyzer_branches_tensordot's result."""
    outcomes, cums, states = branches
    outcome = pick(outcomes, cums, u)
    return outcome, states[outcomes.index(outcome)]


def measure_qubit_tensordot(amps: np.ndarray, n: int, qubit: int, theta, u: float):
    """(outcome, collapsed amplitudes) of one analyzer given its uniform draw ``u``."""
    return pick_branch(analyzer_branches_tensordot(amps, n, PolarizationSpec(qubit, theta)), u)


def bell_measurement_tensordot(amps: np.ndarray, n: int, qubits, mode, u: float):
    """(outcome, collapsed amplitudes) of a Bell analyzer given its uniform draw ``u``."""
    return pick_branch(analyzer_branches_tensordot(amps, n, BellSpec(qubits, mode)), u)
