import numpy as np
import pytest

import oracles
from oracles import bell_state, tensor
from swapsim.qstate import (
    _BELL_AMPLITUDES,
    ATOL,
    MAX_QUBITS,
    DensityMatrix,
    PureState,
    RegisterSizeError,
    partial_trace,
)
from swapsim.records import BsmMode, BsmOutcome, bsm_outcomes

INV_SQRT2 = 1.0 / np.sqrt(2.0)


class TestPureState:
    def test_bell_amplitude_conventions(self):
        # the engine's own table: psi-+ = (|HV> -+ |VH>)/sqrt 2, phi-+ = (|HH> -+ |VV>)/sqrt 2
        assert np.allclose(_BELL_AMPLITUDES[BsmOutcome.PSI_MINUS], [0, INV_SQRT2, -INV_SQRT2, 0])
        assert np.allclose(_BELL_AMPLITUDES[BsmOutcome.PSI_PLUS], [0, INV_SQRT2, INV_SQRT2, 0])
        assert np.allclose(_BELL_AMPLITUDES[BsmOutcome.PHI_MINUS], [INV_SQRT2, 0, 0, -INV_SQRT2])
        assert np.allclose(_BELL_AMPLITUDES[BsmOutcome.PHI_PLUS], [INV_SQRT2, 0, 0, INV_SQRT2])

    def test_every_bell_state_normalized(self):
        assert list(_BELL_AMPLITUDES) == list(bsm_outcomes(BsmMode.FULL))
        for amps in _BELL_AMPLITUDES.values():
            assert abs(np.vdot(amps, amps).real - 1.0) <= ATOL

    def test_basis_index_convention(self):
        # qubit 0 is the most significant bit; H -> 0, V -> 1
        hv = tensor(oracles.basis_state(1, 0), oracles.basis_state(1, 1))
        assert np.allclose(hv.amplitudes, [0, 1, 0, 0])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            PureState(2, np.array([1.0, 0.0]))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            PureState(1, np.array([1.0, 1.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PureState(1, np.array([np.nan, 0.0]))

    def test_rejects_register_size(self):
        with pytest.raises(RegisterSizeError):
            PureState(0, np.array([1.0]))
        with pytest.raises(RegisterSizeError):
            PureState(MAX_QUBITS + 1, np.zeros(2 ** (MAX_QUBITS + 1)))

    def test_amplitudes_read_only(self):
        state = bell_state(BsmOutcome.PSI_MINUS)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0


class TestPrepareSwapInput:
    def test_hvhv_amplitude(self):
        state = oracles.prepare_swap_input()
        assert abs(state.amplitudes[0b0101] - 0.5) <= 1e-15

    def test_hhhh_amplitude_zero(self):
        assert oracles.prepare_swap_input().amplitudes[0] == 0.0

    def test_exactly_four_nonzeros_of_half_magnitude(self):
        amps = oracles.prepare_swap_input().amplitudes
        nonzero = np.flatnonzero(np.abs(amps) > 1e-15)
        assert list(nonzero) == [5, 6, 9, 10]
        assert np.allclose(np.abs(amps[nonzero]), 0.5)


class TestDensityMatrix:
    def test_h_projector(self):
        rho = oracles.to_density(oracles.basis_state(1, 0))
        assert np.allclose(rho.entries, [[1, 0], [0, 0]])

    def test_pure_state_trace_and_purity(self):
        rho = oracles.to_density(bell_state(BsmOutcome.PSI_MINUS))
        assert abs(np.trace(rho.entries) - 1.0) <= ATOL
        assert abs(rho.purity() - 1.0) <= 1e-12

    def test_singlet_off_diagonal(self):
        rho = oracles.to_density(bell_state(BsmOutcome.PSI_MINUS))
        assert abs(rho.entries[1, 2] - (-0.5)) <= 1e-15

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="hermitian"):
            DensityMatrix(1, bad)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(1, np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="semidefinite"):
            DensityMatrix(1, bad)

    def test_entries_read_only(self):
        rho = oracles.to_density(oracles.basis_state(1, 0))
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 0.0


class TestPartialTrace:
    def test_singlet_marginal_maximally_mixed(self):
        rho = partial_trace(oracles.to_density(bell_state(BsmOutcome.PSI_MINUS)), (0,))
        assert np.abs(rho.entries - np.eye(2) / 2).max() <= 1e-12
        assert abs(rho.purity() - 0.5) <= 1e-12

    def test_swap_input_outer_pair_is_identity(self):
        rho = partial_trace(oracles.to_density(oracles.prepare_swap_input()), (0, 3))
        assert np.abs(rho.entries - np.eye(4) / 4).max() <= 1e-12

    def test_keep_all_is_identity_operation(self, rng):
        rho = DensityMatrix(2, oracles.random_mixed(rng, 2))
        back = partial_trace(rho, (0, 1))
        assert np.abs(back.entries - rho.entries).max() <= 1e-12

    def test_keep_order_permutes_qubits(self):
        # |HV> with keep (1, 0) must read back as |VH>
        rho = oracles.to_density(tensor(oracles.basis_state(1, 0), oracles.basis_state(1, 1)))
        swapped = partial_trace(rho, (1, 0))
        expected = np.zeros((4, 4))
        expected[2, 2] = 1.0
        assert np.abs(swapped.entries - expected).max() <= 1e-12

    def test_matches_index_summation_on_random_states(self, rng):
        for _ in range(10):
            mat = oracles.random_mixed(rng, 3)
            rho = DensityMatrix(3, mat)
            for keep in [(0,), (1,), (2,), (0, 1), (1, 0), (0, 2), (2, 1), (0, 1, 2)]:
                ours = partial_trace(rho, keep).entries
                reference = oracles.partial_trace_loops(mat, 3, keep)
                assert np.abs(ours - reference).max() <= 1e-12

    def test_trace_preserved(self, rng):
        rho = DensityMatrix(3, oracles.random_mixed(rng, 3))
        reduced = partial_trace(rho, (1,))
        assert abs(np.trace(reduced.entries) - 1.0) <= ATOL

    def test_bad_keep_arguments(self):
        rho = oracles.to_density(oracles.prepare_swap_input())
        with pytest.raises(ValueError):
            partial_trace(rho, ())
        with pytest.raises(ValueError):
            partial_trace(rho, (0, 0))
        with pytest.raises(ValueError):
            partial_trace(rho, (0, 4))


def test_partial_trace_of_product_recovers_factor():
    # property suite: 100 randomized cases
    rng = np.random.default_rng(42)
    for _ in range(100):
        a = PureState(1, oracles.random_state(rng, 1))
        b = PureState(2, oracles.random_state(rng, 2))
        reduced = partial_trace(oracles.to_density(tensor(a, b)), (0,))
        assert np.abs(reduced.entries - oracles.to_density(a).entries).max() <= 1e-12


def test_random_states_stay_normalized_through_algebra():
    # property suite: 100 randomized cases
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = PureState(2, oracles.random_state(rng, 2))
        b = PureState(1, oracles.random_state(rng, 1))
        product = tensor(a, b)
        norm_sq = float(np.vdot(product.amplitudes, product.amplitudes).real)
        assert abs(norm_sq - 1.0) <= ATOL
        rho = oracles.to_density(product)
        assert abs(float(np.trace(rho.entries).real) - 1.0) <= ATOL
