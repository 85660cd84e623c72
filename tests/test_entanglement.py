import numpy as np
import pytest

import oracles
from oracles import bell_state
from swapsim.entanglement import TwoQubitMetrics, concurrence, metrics_for, negativity
from swapsim.qstate import DensityMatrix, PureState, partial_trace


def random_two_qubit_density(rng, rank=3) -> DensityMatrix:
    return DensityMatrix(2, oracles.random_mixed(rng, 2, rank))


class TestConcurrence:
    def test_bell_states_maximal(self):
        for label in oracles.BELL_VECTORS:
            assert abs(concurrence(oracles.to_density(bell_state(label))) - 1.0) <= 1e-9

    def test_maximally_mixed_zero(self):
        rho = DensityMatrix(2, np.eye(4) / 4)
        assert concurrence(rho) <= 1e-9

    def test_swap_input_outer_pair_zero(self):
        rho = partial_trace(oracles.to_density(oracles.prepare_swap_input()), (0, 3))
        assert concurrence(rho) <= 1e-9

    def test_matches_pure_state_closed_form(self, rng):
        # dual route: for pure states the concurrence is 2|ad - bc|
        for _ in range(100):
            amps = oracles.random_state(rng, 2)
            ours = concurrence(oracles.to_density(PureState(2, amps)))
            assert abs(ours - oracles.pure_concurrence(amps)) <= 1e-9

    def test_werner_closed_form_on_grid(self):
        for p in np.linspace(0.0, 1.0, 21):
            rho = DensityMatrix(2, oracles.werner_matrix(float(p)))
            assert abs(concurrence(rho) - oracles.werner_concurrence(float(p))) <= 1e-9

    def test_product_states_unentangled(self):
        # property suite: 100 randomized product states
        rng = np.random.default_rng(77)
        for _ in range(100):
            a = oracles.random_state(rng, 1)
            b = oracles.random_state(rng, 1)
            rho = oracles.to_density(PureState(2, np.kron(a, b)))
            assert concurrence(rho) <= 1e-9

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            concurrence(oracles.to_density(PureState(1, np.array([1.0, 0.0]))))


class TestNegativity:
    def test_bell_states_half(self):
        for label in oracles.BELL_VECTORS:
            assert abs(negativity(oracles.to_density(bell_state(label))) - 0.5) <= 1e-9

    def test_singlet_partial_transpose_spectrum(self):
        rho = oracles.to_density(bell_state("psi-minus"))
        pt = rho.entries.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        eigs = np.sort(np.linalg.eigvalsh(pt))
        assert np.allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-9)

    def test_maximally_mixed_zero(self):
        rho = DensityMatrix(2, np.eye(4) / 4)
        assert negativity(rho) == 0.0

    def test_matches_elementwise_partial_transpose(self, rng):
        for _ in range(100):
            mat = oracles.random_mixed(rng, 2)
            ours = negativity(DensityMatrix(2, mat))
            assert abs(ours - oracles.negativity_loops(mat)) <= 1e-9

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            negativity(oracles.to_density(PureState(1, np.array([0.0, 1.0]))))


def test_local_unitary_invariance():
    # property suite: 100 randomized states and local unitaries
    rng = np.random.default_rng(2024)
    for _ in range(100):
        mat = oracles.random_mixed(rng, 2, rank=int(rng.integers(1, 4)))
        u = oracles.random_unitary(rng)
        v = oracles.random_unitary(rng)
        local = np.kron(u, v)
        rotated = local @ mat @ local.conj().T
        before = metrics_for(DensityMatrix(2, mat))
        after = metrics_for(DensityMatrix(2, rotated))
        assert abs(before.concurrence - after.concurrence) <= 1e-9
        assert abs(before.negativity - after.negativity) <= 1e-9
        assert abs(before.purity - after.purity) <= 1e-9


def test_metric_ranges_and_agreement(rng):
    # concurrence and negativity vanish together on generic states
    for _ in range(50):
        rho = random_two_qubit_density(rng, rank=int(rng.integers(1, 4)))
        m = metrics_for(rho)
        assert isinstance(m, TwoQubitMetrics)
        assert -1e-9 <= m.concurrence <= 1.0 + 1e-9
        assert -1e-9 <= m.negativity <= 0.5 + 1e-9
        assert 0.0 < m.purity <= 1.0 + 1e-9
        if m.concurrence <= 1e-9:
            assert m.negativity <= 1e-6
        if m.negativity <= 1e-9:
            assert m.concurrence <= 1e-6
