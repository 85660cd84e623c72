import itertools

import numpy as np
import pytest

import oracles
from swapsim.measure import (
    CHUNK,
    AnalyzerAngle,
    BellSpec,
    BsmMode,
    BsmOutcome,
    PolarizationSpec,
    RandomSource,
    bell_projectors,
    bsm_outcomes,
    extend_frontier,
    polarization_observable,
    step_outcomes,
)
from swapsim.qstate import BellKind, PureState, bell_state, partial_trace
from swapsim.rng import trial_draws


class TestAnalyzerAngle:
    def test_canonicalized_mod_180(self):
        assert AnalyzerAngle(181.0).degrees == 1.0
        assert AnalyzerAngle(-45.0).degrees == 135.0
        assert AnalyzerAngle(360.0).degrees == 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            AnalyzerAngle(float("inf"))

    def test_radians(self):
        assert abs(AnalyzerAngle(90.0).radians - np.pi / 2) <= 1e-15


class TestPolarizationObservable:
    def test_at_zero(self):
        p_plus, p_minus = polarization_observable(0.0)
        assert np.allclose(p_plus, [[1, 0], [0, 0]])
        assert np.allclose(p_minus, [[0, 0], [0, 1]])

    def test_at_45(self):
        p_plus, _ = polarization_observable(45.0)
        assert np.allclose(p_plus, [[0.5, 0.5], [0.5, 0.5]])

    def test_completeness_and_idempotence(self):
        # property suite: 100 randomized cases
        rng = np.random.default_rng(5)
        for _ in range(100):
            theta = float(rng.uniform(0.0, 180.0))
            p_plus, p_minus = polarization_observable(theta)
            assert np.abs(p_plus + p_minus - np.eye(2)).max() <= 1e-12
            assert np.abs(p_plus @ p_plus - p_plus).max() <= 1e-12
            assert np.abs(p_minus @ p_minus - p_minus).max() <= 1e-12
            assert np.abs(p_plus @ p_minus).max() <= 1e-12

    def test_difference_is_rotated_sigma_z(self, rng):
        for _ in range(20):
            theta = float(rng.uniform(0.0, 180.0))
            p_plus, p_minus = polarization_observable(theta)
            t = np.deg2rad(theta)
            expected = np.array(
                [[np.cos(2 * t), np.sin(2 * t)], [np.sin(2 * t), -np.cos(2 * t)]]
            )
            assert np.abs((p_plus - p_minus) - expected).max() <= 1e-12


class TestRandomSource:
    def test_determinism_across_keys(self):
        # property suite: 100 randomized (seed, stream) keys
        rng = np.random.default_rng(11)
        for _ in range(100):
            seed = int(rng.integers(0, 2**63))
            stream = int(rng.integers(0, 2**63))
            first = RandomSource(seed, stream).uniforms(8)
            second = RandomSource(seed, stream).uniforms(8)
            assert np.array_equal(first, second)

    def test_distinct_streams_differ(self):
        a = RandomSource(3, 0).uniforms(16)
        b = RandomSource(3, 1).uniforms(16)
        assert not np.array_equal(a, b)

    def test_scalar_and_vector_draws_share_the_stream(self):
        bulk = RandomSource(9, 4).uniforms(6)
        source = RandomSource(9, 4)
        singles = [source.uniform() for _ in range(6)]
        assert np.allclose(bulk, singles)

    def test_range(self):
        draws = RandomSource(1, 2).uniforms(1000)
        assert draws.min() >= 0.0 and draws.max() < 1.0

    @pytest.mark.parametrize("seed", [0, -5, 2**64 - 1])
    def test_one_stream_needs_no_numpy_philox(self, seed, monkeypatch):
        # an integer stream is the one-row case of swapsim's own kernel
        streams = (0, 2**48 + 17, 2**64 - 1)
        reference = {stream: oracles.philox_uniforms(seed, stream, 9) for stream in streams}

        def refuse(*args, **kwargs):
            raise RuntimeError("numpy's Philox is only the tests' reference")

        monkeypatch.setattr(np.random, "Philox", refuse)
        for stream in streams:
            source = RandomSource(seed, stream)
            first = source.uniform()
            middle, last = source.uniforms(3), source.uniforms(5)
            assert type(first) is float
            assert middle.shape == (3,) and last.shape == (5,)
            assert np.array_equal(np.hstack([[first], middle, last]), reference[stream])


EDGE_STREAMS = list(range(3000)) + [2**48, 2**48 + 17, 2**64 - 1]


class TestRandomSourceArray:
    """An array of streams runs swapsim's own Philox4x64-10 kernel; numpy's Philox is the reference."""

    @pytest.mark.parametrize("seed", [0, 7, 2**63 + 5, 2**64 - 1])
    def test_every_stream_matches_numpy_philox(self, seed):
        reference = np.array([oracles.philox_uniforms(seed, s, 9) for s in EDGE_STREAMS])
        streams = np.array(EDGE_STREAMS, dtype=np.uint64)
        for count in (1, 4, 5, 9):
            draws = RandomSource(seed, streams).uniforms(count)
            assert draws.shape == (len(EDGE_STREAMS), count)
            assert np.array_equal(draws, reference[:, :count])

    def test_rows_equal_the_scalar_source(self):
        streams = [0, 1, 2**48 + 17, 2**64 - 1]
        draws = RandomSource(7, np.array(streams, dtype=np.uint64)).uniforms(5)
        for row, stream in zip(draws, streams):
            assert np.array_equal(row, RandomSource(7, stream).uniforms(5))

    def test_negative_seed_and_streams_are_masked(self):
        draws = RandomSource(-5, np.array([-1, 3], dtype=np.int64)).uniforms(6)
        assert np.array_equal(draws[0], oracles.philox_uniforms(2**64 - 5, 2**64 - 1, 6))
        assert np.array_equal(draws[0], RandomSource(-5, -1).uniforms(6))
        assert np.array_equal(draws[1], RandomSource(-5, 3).uniforms(6))

    def test_successive_calls_continue_each_stream(self):
        streams = np.arange(40, dtype=np.uint64)
        source = RandomSource(11, streams)
        joined = np.hstack([source.uniforms(3), source.uniforms(6)])
        assert np.array_equal(joined, RandomSource(11, streams).uniforms(9))
        for stream in (0, 39):
            assert np.array_equal(joined[stream], oracles.philox_uniforms(11, stream, 9))

    def test_uniform_draws_one_per_stream(self):
        streams = np.array([4, 9], dtype=np.uint64)
        source = RandomSource(9, streams)
        first, second = source.uniform(), source.uniform()
        assert np.array_equal(np.stack([first, second], axis=1), RandomSource(9, streams).uniforms(2))

    def test_rejects_non_integer_or_nested_streams(self):
        with pytest.raises(ValueError):
            RandomSource(0, np.array([0.5, 1.5]))
        with pytest.raises(ValueError):
            RandomSource(0, np.zeros((2, 2), dtype=np.int64))


class TestTrialDraws:
    def test_chunks_across_a_boundary_give_each_trial_its_own_stream(self):
        seed, start, stop, count = 13, 5, CHUNK + 9, 4
        chunks = list(trial_draws(seed, start, stop, count))
        assert [len(chunk[0]) for chunk in chunks] == [CHUNK, 4]
        trial_ids, setting0, setting3, draws = (np.concatenate(column) for column in zip(*chunks))
        assert trial_ids.tolist() == list(range(start, stop))
        # every 61st row, and the rows on each side of the boundary
        rows = sorted(set(range(0, stop - start, 61)) | {CHUNK - 2, CHUNK - 1, CHUNK, stop - start - 1})
        expected = np.array([RandomSource(seed, start + row).uniforms(count) for row in rows])
        assert np.array_equal(draws[rows], expected)
        assert setting0[rows].tolist() == (expected[:, 0] >= 0.5).tolist()
        assert setting3[rows].tolist() == (expected[:, 1] >= 0.5).tolist()


def walk(state: PureState, plan) -> dict:
    """Exact table of ``plan`` on ``state``: extend_frontier folded from the state's one row, as the commands walk.

    Maps each full outcome tuple (one entry per step, in plan order) to its
    probability; impossible combinations appear with 0.0.
    """
    steps = list(plan)
    joints, amps = np.ones(1), state.amplitudes[None, :]
    for depth, spec in enumerate(steps):
        joints, amps = extend_frontier(joints, amps, spec, state.num_qubits, keep_states=depth + 1 < len(steps))
    return dict(zip(itertools.product(*map(step_outcomes, steps)), joints.tolist()))


def _draws(seed: int, trials: int, count: int) -> np.ndarray:
    """Row t holds the first ``count`` uniforms of stream (seed, t), drawn in one array call."""
    return RandomSource(seed, np.arange(trials)).uniforms(count)


def _measure_qubit(state: PureState, qubit: int, theta: float, u: float):
    outcome, amps = oracles.measure_qubit_tensordot(state.amplitudes, state.num_qubits, qubit, theta, u)
    return outcome, PureState(state.num_qubits, amps)


def _bell_measurement(state: PureState, qubits, mode: BsmMode, u: float):
    outcome, amps = oracles.bell_measurement_tensordot(state.amplitudes, state.num_qubits, qubits, mode, u)
    return outcome, PureState(state.num_qubits, amps)


class TestMeasureQubit:
    """Born statistics and collapse of one analyzer, on the reference collapse in oracles."""

    def test_aligned_analyzer_is_certain(self):
        state = oracles.basis_state(1, 0)
        for u in _draws(0, 50, 1)[:, 0]:
            outcome, post = _measure_qubit(state, 0, 0.0, u)
            assert outcome == +1
            assert np.allclose(post.amplitudes, state.amplitudes)

    def test_diagonal_analyzer_is_fair(self):
        state = oracles.basis_state(1, 0)
        n = 20_000
        plus = sum(_measure_qubit(state, 0, 45.0, u)[0] == +1 for u in _draws(77, n, 1)[:, 0])
        sigma = np.sqrt(0.25 / n)
        assert abs(plus / n - 0.5) <= 5 * sigma

    def test_collapse_idempotence(self):
        # property suite: 100 randomized states/angles; repeated measurement
        # at the same angle must repeat the outcome with certainty
        rng = np.random.default_rng(21)
        draws = _draws(1000, 100, 2)
        for case in range(100):
            state = PureState(2, oracles.random_state(rng, 2))
            theta = float(rng.uniform(0.0, 180.0))
            qubit = int(rng.integers(0, 2))
            first, collapsed = _measure_qubit(state, qubit, theta, draws[case, 0])
            second, recollapsed = _measure_qubit(collapsed, qubit, theta, draws[case, 1])
            assert first == second
            assert np.abs(collapsed.amplitudes - recollapsed.amplitudes).max() <= 1e-12

    def test_singlet_anticorrelates_at_equal_angles(self):
        singlet = bell_state(BellKind.PSI_MINUS)
        draws = _draws(5, 200, 2)
        for trial in range(200):
            theta = float((trial * 7.3) % 180.0)
            first, collapsed = _measure_qubit(singlet, 0, theta, draws[trial, 0])
            second, _ = _measure_qubit(collapsed, 1, theta, draws[trial, 1])
            assert first == -second


class TestBellProjectors:
    @pytest.mark.parametrize("mode", [BsmMode.FULL, BsmMode.PARTIAL])
    def test_orthogonal_complete_idempotent(self, mode):
        projectors = bell_projectors(mode)
        order = bsm_outcomes(mode)
        total = sum(projectors[o] for o in order)
        assert np.abs(total - np.eye(4)).max() <= 1e-12
        for a, b in itertools.combinations(order, 2):
            assert np.abs(projectors[a] @ projectors[b]).max() <= 1e-12
        for o in order:
            p = projectors[o]
            assert np.abs(p @ p - p).max() <= 1e-12

    def test_full_projectors_match_bell_kets(self):
        projectors = bell_projectors(BsmMode.FULL)
        for outcome, projector in projectors.items():
            assert np.abs(projector - oracles.bell_projector_explicit(outcome.value)).max() <= 1e-15


class TestBellMeasurement:
    """Born statistics and collapse of the joint analyzer, on the reference collapse in oracles."""

    def test_quarter_probabilities_on_swap_input(self):
        state = oracles.prepare_swap_input()
        n = 20_000
        counts = {}
        for u in _draws(31, n, 1)[:, 0]:
            outcome, _ = _bell_measurement(state, (1, 2), BsmMode.FULL, u)
            counts[outcome] = counts.get(outcome, 0) + 1
        sigma = np.sqrt(0.25 * 0.75 / n)
        for outcome in bsm_outcomes(BsmMode.FULL):
            assert abs(counts[outcome] / n - 0.25) <= 5 * sigma

    def test_collapse_projects_outer_pair_onto_matching_bell_state(self):
        state = oracles.prepare_swap_input()
        seen = set()
        for u in _draws(8, 64, 1)[:, 0]:
            outcome, collapsed = _bell_measurement(state, (1, 2), BsmMode.FULL, u)
            seen.add(outcome)
            reduced = partial_trace(oracles.to_density(collapsed), (0, 3))
            expected = oracles.to_density(bell_state(outcome.bell_kind)).entries
            assert np.abs(reduced.entries - expected).max() <= 1e-12
        assert seen == set(bsm_outcomes(BsmMode.FULL))

    def test_partial_mode_probabilities(self):
        state = oracles.prepare_swap_input()
        n = 20_000
        counts = {o: 0 for o in bsm_outcomes(BsmMode.PARTIAL)}
        for u in _draws(13, n, 1)[:, 0]:
            outcome, _ = _bell_measurement(state, (1, 2), BsmMode.PARTIAL, u)
            counts[outcome] += 1
        for outcome, p in [(BsmOutcome.PSI_MINUS, 0.25), (BsmOutcome.PSI_PLUS, 0.25), (BsmOutcome.OTHER, 0.5)]:
            sigma = np.sqrt(p * (1 - p) / n)
            assert abs(counts[outcome] / n - p) <= 5 * sigma

    def test_other_outcome_leaves_outer_pair_separable_mixture(self):
        state = oracles.prepare_swap_input()
        for u in _draws(99, 40, 1)[:, 0]:
            outcome, collapsed = _bell_measurement(state, (1, 2), BsmMode.PARTIAL, u)
            if outcome is not BsmOutcome.OTHER:
                continue
            reduced = partial_trace(oracles.to_density(collapsed), (0, 3))
            assert np.abs(reduced.entries - np.diag([0.5, 0, 0, 0.5])).max() <= 1e-12


class TestOutcomeDistribution:
    @pytest.mark.parametrize("make_spec", [
        lambda: PolarizationSpec(4, AnalyzerAngle(0.0)),
        lambda: BellSpec((1, 4), BsmMode.FULL),
        lambda: BellSpec((1, 1)),
    ], ids=["pol-qubit-out-of-range", "bell-pair-out-of-range", "bell-pair-repeated"])
    def test_rejects_bad_qubits(self, make_spec):
        with pytest.raises(ValueError):
            walk(oracles.prepare_swap_input(), [make_spec()])

    def test_empty_plan(self):
        assert walk(oracles.prepare_swap_input(), []) == {(): 1.0}

    def test_bsm_plan_gives_quarters(self):
        table = walk(oracles.prepare_swap_input(), [BellSpec((1, 2), BsmMode.FULL)])
        assert set(table) == {(o,) for o in bsm_outcomes(BsmMode.FULL)}
        for p in table.values():
            assert abs(p - 0.25) <= 1e-12

    def test_single_polarizer_born_rule(self, rng):
        state = tensor_h_first()
        for _ in range(20):
            theta = float(rng.uniform(0.0, 180.0))
            table = walk(state, [PolarizationSpec(0, AnalyzerAngle(theta))])
            t = np.deg2rad(theta)
            assert abs(table[(+1,)] - np.cos(t) ** 2) <= 1e-12
            assert abs(table[(-1,)] - np.sin(t) ** 2) <= 1e-12

    def test_probabilities_sum_to_one_on_random_plans(self):
        # property suite: 100 randomized states and plans
        rng = np.random.default_rng(3)
        for _ in range(100):
            state = PureState(4, oracles.random_state(rng, 4))
            plan = [
                PolarizationSpec(0, AnalyzerAngle(float(rng.uniform(0, 180)))),
                BellSpec((1, 2), BsmMode.FULL if rng.integers(2) else BsmMode.PARTIAL),
                PolarizationSpec(3, AnalyzerAngle(float(rng.uniform(0, 180)))),
            ]
            table = walk(state, plan)
            assert abs(sum(table.values()) - 1.0) <= 1e-12

    def test_matches_explicit_matrix_products(self, rng):
        # dual route: joint probability by multiplying full-space projectors
        for _ in range(10):
            state = PureState(4, oracles.random_state(rng, 4))
            alpha = float(rng.uniform(0, 180))
            delta = float(rng.uniform(0, 180))
            plan = [
                BellSpec((1, 2), BsmMode.PARTIAL),
                PolarizationSpec(0, AnalyzerAngle(alpha)),
                PolarizationSpec(3, AnalyzerAngle(delta)),
            ]
            table = walk(state, plan)

            pol0 = oracles.polarization_projectors_explicit(np.deg2rad(alpha))
            pol3 = oracles.polarization_projectors_explicit(np.deg2rad(delta))
            bell_ops = {
                BsmOutcome.PSI_MINUS: oracles.bell_projector_explicit("psi-minus"),
                BsmOutcome.PSI_PLUS: oracles.bell_projector_explicit("psi-plus"),
                BsmOutcome.OTHER: (
                    oracles.bell_projector_explicit("phi-minus")
                    + oracles.bell_projector_explicit("phi-plus")
                ),
            }
            for (bsm, o0, o3), p in table.items():
                mats = [
                    oracles.embed_adjacent_pair(bell_ops[bsm], 4, 1),
                    oracles.embed_single(pol0[0 if o0 == +1 else 1], 4, 0),
                    oracles.embed_single(pol3[0 if o3 == +1 else 1], 4, 3),
                ]
                reference = oracles.joint_prob_product(state.amplitudes, mats)
                assert abs(p - reference) <= 1e-12

    def test_repeated_measurement_of_same_qubit_is_consistent(self):
        state = bell_state(BellKind.PSI_MINUS)
        spec = PolarizationSpec(0, AnalyzerAngle(30.0))
        table = walk(state, [spec, spec])
        assert abs(table[(+1, +1)] - 0.5) <= 1e-12
        assert abs(table[(-1, -1)] - 0.5) <= 1e-12
        assert table[(+1, -1)] <= 1e-12
        assert table[(-1, +1)] <= 1e-12

    def test_sampled_frequencies_match_exact_distribution(self):
        # one fixed plan, N = 1e5 sequential collapses, every cell within 5 sigma
        state = oracles.prepare_swap_input()
        plan = [
            BellSpec((1, 2), BsmMode.PARTIAL),
            PolarizationSpec(0, AnalyzerAngle(30.0)),
            PolarizationSpec(3, AnalyzerAngle(75.0)),
        ]
        exact = walk(state, plan)
        n = 100_000
        draws = _draws(555, n, 3).tolist()
        # a trial's state before each step depends only on its outcomes so
        # far, so each prefix's branches are computed once
        branches = {}
        outcomes = []
        for u in draws:
            prefix, amps = (), state.amplitudes
            for spec, u_step in zip(plan, u):
                if prefix not in branches:
                    branches[prefix] = oracles.analyzer_branches_tensordot(amps, 4, spec)
                outcome, amps = oracles.pick_branch(branches[prefix], u_step)
                prefix += (outcome,)
            outcomes.append(prefix)
        uncached = []
        for u_bsm, u0, u3 in draws[:2000]:
            bsm, after_bsm = oracles.bell_measurement_tensordot(state.amplitudes, 4, (1, 2), BsmMode.PARTIAL, u_bsm)
            o0, after_pol0 = oracles.measure_qubit_tensordot(after_bsm, 4, 0, 30.0, u0)
            o3, _ = oracles.measure_qubit_tensordot(after_pol0, 4, 3, 75.0, u3)
            uncached.append((bsm, o0, o3))
        assert outcomes[:2000] == uncached
        counts = {key: 0 for key in exact}
        for key in outcomes:
            counts[key] += 1
        for key, p in exact.items():
            sigma = np.sqrt(p * (1.0 - p) / n)
            assert abs(counts[key] / n - p) <= 5.0 * sigma + 1e-12


def _random_plan(rng: np.random.Generator, n: int) -> list:
    plan = []
    for _ in range(int(rng.integers(1, 5))):
        if n >= 2 and rng.integers(2):
            i, j = (int(q) for q in rng.choice(n, size=2, replace=False))
            plan.append(BellSpec((i, j), BsmMode.FULL if rng.integers(2) else BsmMode.PARTIAL))
        else:
            plan.append(PolarizationSpec(int(rng.integers(n)), AnalyzerAngle(float(rng.uniform(0, 180)))))
    return plan


def _hex_items(table: dict) -> list:
    return [(key, p.hex()) for key, p in table.items()]


class TestTensordotReference:
    """Bit-exact agreement with the former tensordot exact walk in oracles."""

    def test_outcome_distribution_on_random_states(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            state = PureState(n, oracles.random_state(rng, n))
            plan = _random_plan(rng, n)
            want = oracles.outcome_distribution_recursive(state.amplitudes, n, plan)
            assert _hex_items(walk(state, plan)) == _hex_items(want)

    def test_outcome_distribution_with_zero_probability_branches(self):
        plans = {
            2: [PolarizationSpec(0, AnalyzerAngle(0.0)), BellSpec((1, 0), BsmMode.FULL),
                PolarizationSpec(1, AnalyzerAngle(90.0))],
            3: [BellSpec((0, 2), BsmMode.PARTIAL), PolarizationSpec(1, AnalyzerAngle(0.0)),
                PolarizationSpec(2, AnalyzerAngle(45.0))],
            4: [BellSpec((1, 2), BsmMode.FULL), PolarizationSpec(0, AnalyzerAngle(90.0)),
                PolarizationSpec(3, AnalyzerAngle(0.0)), BellSpec((0, 3), BsmMode.PARTIAL)],
        }
        zeros = 0
        for n, plan in plans.items():
            for index in range(2**n):
                state = oracles.basis_state(n, index)
                got = walk(state, plan)
                want = oracles.outcome_distribution_recursive(state.amplitudes, n, plan)
                assert _hex_items(got) == _hex_items(want)
                zeros += sum(p == 0.0 for p in got.values())
        assert zeros > 0


class TestBatchedStep:
    """A row of a stacked frontier extends to the bits it gets extended alone."""

    @staticmethod
    def _bits(joints: np.ndarray, amps) -> tuple:
        return [x.hex() for x in joints.tolist()], None if amps is None else amps.view(np.uint64).tobytes()

    @pytest.mark.parametrize("rows", [1, 2, 7, 64])
    @pytest.mark.parametrize("n", [2, 4, 7, 12])
    def test_each_row_extends_as_if_alone(self, n, rows):
        rng = np.random.default_rng(1000 * n + rows)
        amps = np.array([oracles.random_state(rng, n) for _ in range(rows)])
        joints = rng.uniform(0.01, 1.0, size=rows)
        zero = np.arange(rows) % 3 == 1  # every third row from the second has no state
        amps[zero], joints[zero] = 0.0, 0.0
        i, j = (int(q) for q in rng.choice(n, size=2, replace=False))
        specs = [PolarizationSpec(i, AnalyzerAngle(float(rng.uniform(0, 180)))),
                 BellSpec((i, j), BsmMode.FULL), BellSpec((j, i), BsmMode.PARTIAL)]
        for spec, keep in itertools.product(specs, (True, False)):
            got_joints, got_amps = extend_frontier(joints, amps, spec, n, keep_states=keep)
            k = len(got_joints) // rows
            for row in range(rows):
                alone = extend_frontier(joints[row:row + 1], amps[row:row + 1], spec, n, keep_states=keep)
                block = slice(k * row, k * (row + 1))
                got = (got_joints[block], None if got_amps is None else got_amps[block])
                assert self._bits(*got) == self._bits(*alone), (spec, row)
                if zero[row]:
                    assert not got_joints[block].any() and (got_amps is None or not got_amps[block].any())


def tensor_h_first() -> PureState:
    """|H> on qubit 0 with junk on qubit 1, for single-analyzer tests."""
    amps = np.zeros(4, dtype=complex)
    amps[0] = np.sqrt(0.7)
    amps[1] = np.sqrt(0.3)
    return PureState(2, amps)
