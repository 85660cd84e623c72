import argparse
import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest

import oracles
from oracles import bell_state
from swapsim.analysis import chsh_weighted, correlation_weighted
from swapsim.measure import CHUNK, BellSpec, BsmMode, BsmOutcome, PolarizationSpec, bsm_outcomes
from swapsim.cli import _scan_config, _scan_grid, main
from swapsim.protocol import (
    ExperimentConfig,
    Ordering,
    TrialRecord,
    _EVENTS,
    _SETTING_PAIRS,
    _frontiers,
    _pick,
    _sampling_tables,
    _setting_joint,
    exact_cell_records,
    exact_joint_distribution,
    exact_records,
    kind_counts,
    run_batch,
    run_chunks,
    run_trial,
    stage_entanglement_report,
)
from swapsim.qstate import PureState, partial_trace
from swapsim.rng import RandomSource
from test_classical import _traced_peak_kb


def config(**kwargs) -> ExperimentConfig:
    base = dict(angles0=(0.0, 45.0), angles3=(22.5, 67.5), trials=10, seed=7)
    base.update(kwargs)
    return ExperimentConfig(**base)


def conditional_correlation(table, i0, i3, outcome: BsmOutcome) -> float:
    num = den = 0.0
    for (a, b, o0, o3, bsm), p in table.items():
        if (a, b) == (i0, i3) and bsm is outcome:
            num += o0 * o3 * p
            den += p
    return num / den


class TestExperimentConfig:
    def test_accepts_plain_floats_and_strings(self):
        cfg = ExperimentConfig(
            angles0=(0, 45), angles3=(22.5, 67.5), trials=5,
            ordering="pol-first", bsm_mode="partial", seed=3,
        )
        assert cfg.ordering is Ordering.POLARIZATIONS_FIRST
        assert cfg.bsm_mode is BsmMode.PARTIAL
        assert cfg.angles0[1].degrees == 45.0
        assert cfg.angles3[0].radians == pytest.approx(math.radians(22.5))

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            config(trials=0)

    def test_rejects_coinciding_settings(self):
        # 190 degrees is the same analyzer orientation as 10 degrees
        with pytest.raises(ValueError):
            config(angles0=(10.0, 190.0))

    def test_rejects_visibility_outside_unit_interval(self):
        # checked before rounding, which writes 1.0000000000001 as 1; -1e-13 is a tiny negative one
        for bad in (-0.1, 1.0001, 1.0000000000001, -1e-13):
            with pytest.raises(ValueError):
                config(visibility=bad)

    def test_rejects_unknown_ordering(self):
        with pytest.raises(ValueError):
            config(ordering="simultaneous")

    def test_negative_zero_visibility_is_zero(self):
        cfg = config(visibility=-0.0)
        assert cfg == config(visibility=0.0) and math.copysign(1.0, cfg.visibility) == 1.0
        assert cfg._table_key() == config(visibility=0.0)._table_key()


class TestTrialRecord:
    def test_json_round_trip(self):
        rec = run_trial(config(), 3)
        doc = json.loads(json.dumps(rec.to_json_dict()))
        assert TrialRecord.from_json_dict(doc) == rec

    def test_from_json_rejects_bad_outcome(self):
        doc = run_trial(config(), 0).to_json_dict()
        doc["outcome0"] = 0
        with pytest.raises(ValueError):
            TrialRecord.from_json_dict(doc)

    def test_from_json_rejects_unknown_bsm_label(self):
        doc = run_trial(config(), 0).to_json_dict()
        doc["bsm"] = "sideways"
        with pytest.raises(ValueError):
            TrialRecord.from_json_dict(doc)

    def test_from_json_rejects_missing_field(self):
        doc = run_trial(config(), 0).to_json_dict()
        del doc["setting3_index"]
        with pytest.raises(KeyError):
            TrialRecord.from_json_dict(doc)

    def test_event_sequence_tracks_ordering(self):
        first = run_trial(config(ordering=Ordering.BSM_FIRST), 0)
        assert first.to_json_dict()["events"] == ["bsm", "pol0", "pol3"]
        second = run_trial(config(ordering=Ordering.POLARIZATIONS_FIRST), 0)
        assert second.to_json_dict()["events"] == ["pol0", "pol3", "bsm"]

    def test_bsm_label_matches_enum_value(self):
        rec = run_trial(config(), 1)
        assert rec.bsm_label == rec.bsm.value

    def test_setting_degrees_match_configured_pair(self):
        cfg = config(trials=64)
        for rec in run_batch(cfg):
            assert rec.setting0_deg == cfg.angles0[rec.setting0_index].degrees
            assert rec.setting3_deg == cfg.angles3[rec.setting3_index].degrees


class TestRunTrial:
    def test_deterministic_across_config_instances(self):
        a, b = config(trials=50), config(trials=50)
        assert a is not b
        for trial_id in range(50):
            assert run_trial(a, trial_id) == run_trial(b, trial_id)

    def test_seed_changes_the_stream(self):
        base = [run_trial(config(seed=7), i) for i in range(100)]
        other = [run_trial(config(seed=8), i) for i in range(100)]
        assert base != other

    def test_rejects_negative_trial_id(self):
        with pytest.raises(ValueError):
            run_trial(config(), -1)


class TestRunBatch:
    def test_matches_run_trial_per_id(self):
        cfg = config(trials=200, ordering=Ordering.POLARIZATIONS_FIRST, bsm_mode=BsmMode.PARTIAL)
        batch = list(run_batch(cfg))
        assert [r.trial_id for r in batch] == list(range(200))
        for rec in batch:
            assert run_trial(cfg, rec.trial_id) == rec

    @pytest.mark.parametrize("ordering", list(Ordering))
    def test_matches_run_trial_across_the_chunk_boundary(self, ordering):
        cfg = config(trials=CHUNK + 2, ordering=ordering, visibility=0.8)
        batch = list(run_batch(cfg))
        assert len(batch) == CHUNK + 2
        for trial_id in (CHUNK - 1, CHUNK, CHUNK + 1):
            assert run_trial(cfg, trial_id) == batch[trial_id]

    def test_is_lazy(self):
        it = run_batch(config(trials=3))
        assert next(it).trial_id == 0
        assert next(it).trial_id == 1

    def test_bsm_frequencies_full_mode(self):
        n = 40_000
        counts = {k: 0 for k in (BsmOutcome.PSI_MINUS, BsmOutcome.PSI_PLUS,
                                 BsmOutcome.PHI_MINUS, BsmOutcome.PHI_PLUS)}
        for rec in run_batch(config(trials=n, seed=11)):
            counts[rec.bsm] += 1
        bound = 5.0 * math.sqrt(0.25 * 0.75 / n)
        for k, c in counts.items():
            assert abs(c / n - 0.25) <= bound, k

    def test_bsm_frequencies_partial_mode(self):
        n = 40_000
        other = sum(1 for rec in run_batch(config(trials=n, seed=12, bsm_mode=BsmMode.PARTIAL))
                    if rec.bsm is BsmOutcome.OTHER)
        assert abs(other / n - 0.5) <= 5.0 * math.sqrt(0.25 / n)


class TestKindCounts:
    """kind_counts is run_chunks counted: the same kinds and counts, as Python ints, in kind table order."""

    @pytest.mark.parametrize("trials", [1, CHUNK - 1, CHUNK, CHUNK + 1])
    @pytest.mark.parametrize("ordering", list(Ordering))
    @pytest.mark.parametrize("mode", list(BsmMode))
    def test_equals_counting_the_kinds_of_run_chunks(self, trials, ordering, mode):
        cfg = config(trials=trials, seed=trials, ordering=ordering, bsm_mode=mode, visibility=0.8)
        chunks = list(run_chunks(cfg))
        want = Counter(chunk.templates[kind] for chunk in chunks for kind in chunk.kinds)
        got = kind_counts(cfg)
        assert dict(got) == want and len(got) == len(want)
        assert [template for template, _ in got] == [template for template in chunks[0].templates if template in want]
        assert all(type(count) is int for _, count in got)


class TestArrayWalk:
    """The array pick chooses what the scalar inverse-CDF loop chooses.

    Zero-probability outcomes make tied edges (u = 0.5 on [0.5, 0.5, 1.0]
    must skip "b"), and float dust can leave u beyond the last edge.
    """

    @pytest.mark.parametrize("cums", [(0.5, 0.5, 1.0), (0.3, 0.3, 0.9999999), (0.0, 0.6, 0.6)])
    def test_matches_scalar_pick(self, cums):
        outcomes = ("a", "b", "c")
        u = np.array([0.0, 0.25, 0.3, 0.5, 0.6, 0.75, 0.99999995, 1.0 - 2**-53])
        picks = _pick(np.tile(cums, (len(u), 1)), u)
        assert [outcomes[k] for k in picks] == [oracles.pick(outcomes, cums, x) for x in u]


class TestSamplingTablesBitExact:
    """The flat edge arrays hold the per-prefix dict tables' edges, bit for bit."""

    @pytest.mark.parametrize("ordering", list(Ordering))
    @pytest.mark.parametrize("mode", list(BsmMode))
    def test_edges_match_the_per_prefix_tables(self, ordering, mode):
        pol = (+1, -1)
        labels = bsm_outcomes(mode)
        steps = (labels, pol, pol) if ordering is Ordering.BSM_FIRST else (pol, pol, labels)
        for visibility, delta in itertools.product((1.0, 0.9, 0.5, 1.0 / 3.0, 0.0), (0.0, 10.0, 22.5, 33.3, 67.5)):
            key = config(angles3=(delta, delta + 90.0), ordering=ordering, bsm_mode=mode,
                         visibility=visibility)._table_key()
            edges = _sampling_tables(key)
            for cell, pair in enumerate(_SETTING_PAIRS):
                levels = oracles.sampling_tables_reference(_setting_joint(key, *pair), steps)
                for depth, level in enumerate(levels):
                    for prefix, cums in level.items():
                        row = edges[depth][(cell, *(steps[d].index(o) for d, o in enumerate(prefix)))]
                        assert [x.hex() for x in row.tolist()] == [float(x).hex() for x in cums], (key, prefix)


class TestOutcomeNaming:
    """Sampled records name each pick by its plan step's spec, whatever the ordering.

    The reference walks each trial's measurement plan with the scalar pick
    over the per-prefix tables and names every pick from its spec alone: a
    BellSpec is the bsm label and a PolarizationSpec on qubit q is outcome q.
    """

    TRIALS = 300
    ANGLES = [((0.0, 45.0), (22.5, 67.5)), ((15.0, 60.0), (10.0, 100.0))]

    @staticmethod
    def _reference(cfg: ExperimentConfig) -> list:
        key = cfg._table_key()
        joints = {pair: _setting_joint(key, *pair) for pair in _SETTING_PAIRS}
        draws = RandomSource(cfg.seed, np.arange(cfg.trials)).uniforms(5)
        records = []
        for trial_id, u in enumerate(draws.tolist()):
            i0, i3 = int(u[0] >= 0.5), int(u[1] >= 0.5)
            plan = oracles.measurement_plan(key, i0, i3)
            steps = [bsm_outcomes(spec.mode) if isinstance(spec, BellSpec) else (+1, -1) for spec in plan]
            levels = oracles.sampling_tables_reference(joints[i0, i3], steps)
            prefix, named, events = (), {}, []
            for depth, spec in enumerate(plan):
                outcome = oracles.pick(steps[depth], levels[depth][prefix], u[2 + depth])
                prefix += (outcome,)
                if isinstance(spec, BellSpec):
                    named["bsm"] = outcome
                    events.append("bsm")
                else:
                    assert isinstance(spec, PolarizationSpec) and spec.qubit in (0, 3)
                    named[f"outcome{spec.qubit}"] = outcome
                    events.append(f"pol{spec.qubit}")
            assert tuple(events) == _EVENTS[cfg.ordering]
            records.append(TrialRecord(trial_id, cfg.ordering, i0, cfg.angles0[i0].degrees, i3,
                                       cfg.angles3[i3].degrees, named["outcome0"], named["outcome3"],
                                       named["bsm"]))
        return records

    @pytest.mark.parametrize("ordering", list(Ordering))
    @pytest.mark.parametrize("mode", list(BsmMode))
    @pytest.mark.parametrize("visibility", [1.0, 0.9, 1.0 / 3.0])
    @pytest.mark.parametrize("angles", ANGLES, ids=["canonical", "skewed"])
    def test_records_match_the_per_trial_plan_walk(self, ordering, mode, visibility, angles):
        cfg = config(angles0=angles[0], angles3=angles[1], ordering=ordering, bsm_mode=mode,
                     visibility=visibility, trials=self.TRIALS, seed=29)
        got = [record for chunk in run_chunks(cfg) for record in chunk.records()]
        assert got == self._reference(cfg)


def _bits(joints: dict) -> list:
    """Keys and float bits of per-setting joints, in dict order."""
    return [(pair, [(key, p.hex()) for key, p in joint.items()]) for pair, joint in joints.items()]


class TestSettingJointsBitExact:
    """The prefix-shared walk against the former per-component recursive walk."""

    VISIBILITIES = (1.0, 0.9, 0.8, 0.5, 1.0 / 3.0, 0.0)
    DELTAS = tuple(_scan_grid(7.5)) + (10.0, 33.3, 179.0)
    ANGLES0 = ((0.0, 45.0), (15.0, 60.0))

    def test_grid_matches_reference_mixture(self):
        memo = {}
        grid = list(itertools.product(Ordering, BsmMode, self.ANGLES0, self.VISIBILITIES, self.DELTAS))
        assert len(grid) == 768
        for ordering, mode, angles0, visibility, delta in grid:
            key = config(angles0=angles0, angles3=(delta, delta + 90.0), ordering=ordering,
                         bsm_mode=mode, visibility=visibility)._table_key()
            joints = {pair: _setting_joint(key, *pair) for pair in _SETTING_PAIRS}
            assert _bits(joints) == _bits(oracles.setting_joints_reference(key, memo)), key

    def test_frontier_cache_stays_bounded_over_a_fine_scan(self, capsys):
        _frontiers.cache_clear()
        assert main(["report", "--exact", "--scan", "--scan-step", "1.8", "--visibility", "0.9"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 51
        info = _frontiers.cache_info()
        assert info.currsize <= info.maxsize
        # bsm-first, cell (0,0) only: the root, the Bell step and the prefix
        # with photon 0 at 0 degrees, each computed once for all 51 points
        assert info.misses == 3


class TestSourceFrontier:
    """The exact walk's root, built from the engine's Bell amplitude table, against the oracle's np.kron mixture."""

    @staticmethod
    def _hex_rows(rows) -> list:
        return [[(z.real.hex(), z.imag.hex()) for z in row] for row in rows]

    @pytest.mark.parametrize("visibility", TestSettingJointsBitExact.VISIBILITIES)
    def test_root_matches_reference_mixture_bit_for_bit(self, visibility):
        weights, joints, amps = _frontiers(visibility, ())
        reference = oracles.source_components(visibility)
        assert len(weights) == len(joints) == len(amps) == len(reference) == (1 if visibility == 1.0 else 16)
        assert [w.hex() for w in weights.tolist()] == [w.hex() for w, _ in reference]
        assert joints.tolist() == [1.0] * len(reference)
        assert self._hex_rows(amps.tolist()) == self._hex_rows(a.tolist() for _, a in reference)

    def test_no_command_builds_a_pure_state(self, tmp_path, monkeypatch, capsys):
        built = []
        init = PureState.__init__

        def counting_init(self, *args, **kwargs):
            built.append(type(self))
            init(self, *args, **kwargs)

        monkeypatch.setattr(PureState, "__init__", counting_init)
        _frontiers.cache_clear()
        _sampling_tables.cache_clear()
        for argv in (["report", "--exact", "--visibility", "0.9"],
                     ["report", "--ordering", "pol-first", "--visibility", "0.8"],
                     ["report", "--exact", "--scan", "--visibility", "0.9"],
                     ["simulate", "--visibility", "0.7", "--out", str(tmp_path / "runs.jsonl")]):
            assert main(argv) == 0, argv
        assert not built, f"{len(built)} PureStates built"


class TestOneCellScan:
    """report --exact --scan walks cell (0,0) alone; its E equals that of the whole table, bit for bit."""

    DELTAS = sorted(set(_scan_grid(7.5)) | set(_scan_grid(1.8)) | set(_scan_grid(45.0)))

    @pytest.mark.parametrize("ordering", list(Ordering))
    @pytest.mark.parametrize("mode", list(BsmMode))
    @pytest.mark.parametrize("visibility", [1.0, 0.9, 0.5, 1.0 / 3.0, 0.0])
    def test_cell_matches_the_whole_table(self, ordering, mode, visibility):
        args = argparse.Namespace(ordering=ordering.value, bsm_mode=mode.value, seed=None,
                                  visibility=visibility)
        for delta in self.DELTAS:
            cfg = _scan_config(delta, args, trials=1)
            cell = exact_cell_records(cfg, 0, 0)
            whole = exact_records(cfg)
            assert [(record, p.hex()) for record, p in cell] == \
                [(record, p.hex()) for record, p in whole if (record.setting0_index, record.setting3_index) == (0, 0)]
            for label in (BsmOutcome.PSI_MINUS, None):
                got = correlation_weighted(cell, (0, 0), label).e_value
                want = chsh_weighted(whole, label).e_ab.e_value
                assert got.hex() == want.hex(), (delta, label)


class TestExactCellIndices:
    """A setting index other than 0 or 1 is refused before any walk or cache entry."""

    @pytest.mark.parametrize("i0, i3", [(-1, 0), (2, 0), (0, -1), (0, 2)])
    def test_rejects_out_of_range_setting_index(self, i0, i3):
        _frontiers.cache_clear()
        with pytest.raises(ValueError, match="setting indices"):
            exact_cell_records(config(), i0, i3)
        assert _frontiers.cache_info().currsize == 0

    @pytest.mark.parametrize("i0, i3", [(0.0, 0), (0, 1.0), (False, True)], ids=repr)
    def test_rejects_a_float_or_bool_setting_index(self, i0, i3):
        # unchecked, a float fails late as a tuple index and a bool becomes a record's setting index
        _frontiers.cache_clear()
        with pytest.raises(TypeError, match="must be an integer"):
            exact_cell_records(config(), i0, i3)
        assert _frontiers.cache_info().currsize == 0

    def test_numpy_integer_indices_give_int_records(self):
        cell = exact_cell_records(config(), np.int64(1), np.uint8(0))
        assert cell == exact_cell_records(config(), 1, 0)
        assert {type(record.setting0_index) for record, _ in cell} == {int}


class TestExactJointDistribution:
    @pytest.mark.parametrize("ordering", list(Ordering))
    @pytest.mark.parametrize("mode", list(BsmMode))
    def test_is_the_dict_of_exact_records(self, ordering, mode):
        cfg = config(angles0=(17.3, 49.2), angles3=(63.1, 5.8), ordering=ordering, bsm_mode=mode, visibility=0.8)
        records = exact_records(cfg)
        assert [(key, p.hex()) for key, p in exact_joint_distribution(cfg).items()] == [
            ((r.setting0_index, r.setting3_index, r.outcome0, r.outcome3, r.bsm), p.hex()) for r, p in records]
        for record, _ in records:
            assert (record.trial_id, record.ordering) == (0, ordering)
            assert record.to_json_dict()["events"] == list(_EVENTS[ordering])
            assert record.setting0_deg == cfg.angles0[record.setting0_index].degrees
            assert record.setting3_deg == cfg.angles3[record.setting3_index].degrees

    @pytest.mark.parametrize("ordering", list(Ordering))
    @pytest.mark.parametrize("mode", list(BsmMode))
    @pytest.mark.parametrize("visibility", [1.0, 0.7])
    def test_normalized(self, ordering, mode, visibility):
        table = exact_joint_distribution(
            config(ordering=ordering, bsm_mode=mode, visibility=visibility))
        outcomes = 4 if mode is BsmMode.FULL else 3
        assert len(table) == 2 * 2 * 2 * 2 * outcomes
        assert abs(sum(table.values()) - 1.0) <= 1e-12

    def test_bsm_marginals(self):
        table = exact_joint_distribution(config())
        for outcome in (BsmOutcome.PSI_MINUS, BsmOutcome.PSI_PLUS,
                        BsmOutcome.PHI_MINUS, BsmOutcome.PHI_PLUS):
            mass = sum(p for key, p in table.items() if key[4] is outcome)
            assert abs(mass - 0.25) <= 1e-12
        partial = exact_joint_distribution(config(bsm_mode=BsmMode.PARTIAL))
        mass = sum(p for key, p in partial.items() if key[4] is BsmOutcome.OTHER)
        assert abs(mass - 0.5) <= 1e-12

    def test_polarization_marginals_unbiased(self):
        table = exact_joint_distribution(config())
        for i0 in (0, 1):
            for i3 in (0, 1):
                plus0 = sum(p for (a, b, o0, _, _), p in table.items()
                            if (a, b) == (i0, i3) and o0 == +1)
                plus3 = sum(p for (a, b, _, o3, _), p in table.items()
                            if (a, b) == (i0, i3) and o3 == +1)
                assert abs(plus0 - 0.125) <= 1e-12
                assert abs(plus3 - 0.125) <= 1e-12

    def test_unconditional_correlation_vanishes(self):
        table = exact_joint_distribution(config())
        for i0 in (0, 1):
            for i3 in (0, 1):
                e = sum(o0 * o3 * p for (a, b, o0, o3, _), p in table.items()
                        if (a, b) == (i0, i3)) / 0.25
                assert abs(e) <= 1e-12

    def test_conditional_correlations_by_outcome(self):
        cfg = config()
        table = exact_joint_distribution(cfg)
        for i0 in (0, 1):
            for i3 in (0, 1):
                alpha = cfg.angles0[i0].radians
                delta = cfg.angles3[i3].radians
                expected = {
                    BsmOutcome.PSI_MINUS: -math.cos(2.0 * (alpha - delta)),
                    BsmOutcome.PSI_PLUS: -math.cos(2.0 * (alpha + delta)),
                    BsmOutcome.PHI_PLUS: +math.cos(2.0 * (alpha - delta)),
                    BsmOutcome.PHI_MINUS: +math.cos(2.0 * (alpha + delta)),
                }
                for outcome, value in expected.items():
                    e = conditional_correlation(table, i0, i3, outcome)
                    assert abs(e - value) <= 1e-12, (i0, i3, outcome)

    @pytest.mark.parametrize("mode", list(BsmMode))
    @pytest.mark.parametrize("visibility", [1.0, 0.8])
    def test_order_invariance(self, mode, visibility):
        first = exact_joint_distribution(
            config(ordering=Ordering.BSM_FIRST, bsm_mode=mode, visibility=visibility))
        second = exact_joint_distribution(
            config(ordering=Ordering.POLARIZATIONS_FIRST, bsm_mode=mode, visibility=visibility))
        assert first.keys() == second.keys()
        for key, p in first.items():
            assert abs(p - second[key]) <= 1e-12

    def test_matches_projector_products(self):
        # dual route: every cell probability recomputed as |P3 P0 Pi_k |state>|^2
        # with explicitly embedded 16x16 projectors
        cfg = config(angles0=(13.7, 58.3), angles3=(71.9, 29.1))
        table = exact_joint_distribution(cfg)
        state = np.kron(oracles.BELL_VECTORS["psi-minus"], oracles.BELL_VECTORS["psi-minus"])
        eye2, eye8 = np.eye(2), np.eye(8)
        for (i0, i3, o0, o3, bsm), p in table.items():
            bell = np.kron(np.kron(eye2, oracles.bell_projector_explicit(bsm.value)), eye2)
            pol0 = oracles.polarization_projectors_explicit(cfg.angles0[i0].radians)[0 if o0 == +1 else 1]
            pol3 = oracles.polarization_projectors_explicit(cfg.angles3[i3].radians)[0 if o3 == +1 else 1]
            direct = oracles.joint_prob_product(
                state, [bell, np.kron(pol0, eye8), np.kron(eye8, pol3)])
            assert abs(p - 0.25 * direct) <= 1e-12

    def test_visibility_scales_conditional_correlations(self):
        # swapping two degraded pairs of visibility V yields conditional
        # correlations scaled by V^2
        v = 0.8
        ideal = exact_joint_distribution(config())
        noisy = exact_joint_distribution(config(visibility=v))
        for i0 in (0, 1):
            for i3 in (0, 1):
                for outcome in (BsmOutcome.PSI_MINUS, BsmOutcome.PSI_PLUS,
                                BsmOutcome.PHI_MINUS, BsmOutcome.PHI_PLUS):
                    want = v * v * conditional_correlation(ideal, i0, i3, outcome)
                    got = conditional_correlation(noisy, i0, i3, outcome)
                    assert abs(got - want) <= 1e-12


def test_equal_angle_anticorrelation_in_sampled_records():
    cfg = ExperimentConfig(angles0=(0.0, 45.0), angles3=(0.0, 67.5), trials=4000, seed=21)
    kept = [rec for rec in run_batch(cfg)
            if rec.setting0_index == 0 and rec.setting3_index == 0
            and rec.bsm is BsmOutcome.PSI_MINUS]
    assert len(kept) > 100
    assert all(rec.outcome0 == -rec.outcome3 for rec in kept)


class TestStageReport:
    def test_full_mode_stages(self):
        snaps = stage_entanglement_report(config())
        assert [s.stage for s in snaps] == [
            "pre-bsm", "post-bsm:psi-minus", "post-bsm:psi-plus",
            "post-bsm:phi-minus", "post-bsm:phi-plus",
        ]
        pre = snaps[0]
        assert np.max(np.abs(pre.rho03.entries - np.eye(4) / 4.0)) <= 1e-12
        marg0 = partial_trace(pre.rho03, (0,)).entries
        marg1 = partial_trace(pre.rho03, (1,)).entries
        assert np.max(np.abs(pre.rho03.entries - np.kron(marg0, marg1))) <= 1e-12
        assert pre.metrics.concurrence <= 1e-9
        for snap in snaps[1:]:
            expected = oracles.to_density(bell_state(snap.stage.removeprefix("post-bsm:"))).entries
            assert np.max(np.abs(snap.rho03.entries - expected)) <= 1e-12
            assert abs(snap.metrics.concurrence - 1.0) <= 1e-9
            assert abs(snap.metrics.negativity - 0.5) <= 1e-9
            assert abs(snap.metrics.purity - 1.0) <= 1e-9

    def test_partial_mode_other_outcome_is_separable(self):
        snaps = stage_entanglement_report(config(bsm_mode=BsmMode.PARTIAL))
        assert [s.stage for s in snaps] == [
            "pre-bsm", "post-bsm:psi-minus", "post-bsm:psi-plus", "post-bsm:other",
        ]
        other = snaps[-1]
        assert np.max(np.abs(other.rho03.entries - np.diag([0.5, 0.0, 0.0, 0.5]))) <= 1e-12
        assert other.metrics.concurrence <= 1e-9
        assert other.metrics.negativity <= 1e-9

    def test_polarizations_first_reports_only_pre(self):
        snaps = stage_entanglement_report(config(ordering=Ordering.POLARIZATIONS_FIRST))
        assert [s.stage for s in snaps] == ["pre-bsm"]

    def test_degraded_sources_swap_to_squared_visibility(self):
        # two Werner pairs of weight V leave photons (0,3) in a Werner state
        # of weight V^2 after a psi- outcome
        v = 0.8
        snaps = stage_entanglement_report(config(visibility=v))
        pre = snaps[0]
        assert np.max(np.abs(pre.rho03.entries - np.eye(4) / 4.0)) <= 1e-12
        post = {s.stage: s for s in snaps}["post-bsm:psi-minus"]
        assert np.max(np.abs(post.rho03.entries - oracles.werner_matrix(v * v))) <= 1e-12
        assert abs(post.metrics.concurrence - oracles.werner_concurrence(v * v)) <= 1e-9

    @pytest.mark.parametrize("visibility", [1.0, 0.95, 0.9, 0.8, 0.72, 0.5, 1.0 / 3.0, 0.0])
    @pytest.mark.parametrize("mode", list(BsmMode))
    @pytest.mark.parametrize("ordering", list(Ordering))
    def test_every_stage_matches_the_density_matrix_reference(self, ordering, mode, visibility):
        want = oracles.stage_states_reference(visibility, mode.value)
        snaps = stage_entanglement_report(config(ordering=ordering, bsm_mode=mode, visibility=visibility))
        assert [s.stage for s in snaps] == (list(want) if _EVENTS[ordering][0] == "bsm" else ["pre-bsm"])
        for snap in snaps:
            assert np.max(np.abs(snap.rho03.entries - want[snap.stage])) <= 1e-12, snap.stage


class TestOneWalk:
    """The stage report reads the frontiers the exact tables walk and builds no state of its own."""

    def test_bsm_first_stages_walk_the_source_and_the_bell_step(self):
        _frontiers.cache_clear()
        stage_entanglement_report(config(visibility=0.9))
        assert _frontiers.cache_info().misses == 2

    @pytest.mark.parametrize("ordering, misses", [(Ordering.BSM_FIRST, 4), (Ordering.POLARIZATIONS_FIRST, 7)])
    def test_exact_summary_walks_only_what_its_tables_walk(self, ordering, misses, capsys):
        _frontiers.cache_clear()
        exact_records(config(ordering=ordering, visibility=0.9))
        assert _frontiers.cache_info().misses == misses
        _frontiers.cache_clear()
        assert main(["report", "--exact", "--ordering", ordering.value, "--visibility", "0.9"]) == 0
        assert _frontiers.cache_info().misses == misses


class TestChunkLifetime:
    """The quantum sampler, like the classical one, frees each chunk's arrays before the next is drawn."""

    CONFIGS = [dict(), dict(ordering="pol-first", bsm_mode="partial", visibility=0.8)]

    @staticmethod
    def _peak(trials, sampler=lambda cfg: [None for _ in run_chunks(cfg)], **kwargs) -> float:
        """Peak KB of ``sampler`` run to the end of the batch; run_chunks by default."""
        cfg = config(trials=trials, **kwargs)
        _sampling_tables(cfg._table_key())  # built before tracing, as the first of many batches would
        return _traced_peak_kb(lambda: sampler(cfg))

    @pytest.mark.parametrize("kwargs", CONFIGS, ids=["bsm-first", "pol-first-partial"])
    def test_run_chunks_hold_one_chunk_at_a_time(self, kwargs):
        # One 4096-row chunk's draws, Philox words, picks and kinds peak at
        # about 1300 KB at 20 000 trials; the classical sampler's pin holds.
        assert self._peak(20_000, **kwargs) < 2000

    @pytest.mark.parametrize("kwargs", CONFIGS, ids=["bsm-first", "pol-first-partial"])
    def test_many_chunks_peak_about_as_high_as_one(self, kwargs):
        # About 1.17 times one chunk's peak, as the loop variable keeps the
        # last chunk; keeping the previous chunk's arrays alive while the next
        # is drawn takes it to about 1.4.
        assert self._peak(3 * CHUNK + 7, **kwargs) < 1.3 * self._peak(CHUNK, **kwargs)

    @pytest.mark.parametrize("kwargs", CONFIGS, ids=["bsm-first", "pol-first-partial"])
    def test_kind_counts_hold_one_chunk_at_a_time(self, kwargs):
        # About 1125 KB at any batch size, one chunk's peak: no chunk is kept
        # and no chunk's kinds become lists, so it stays below run_chunks.
        many, one = self._peak(3 * CHUNK + 7, kind_counts, **kwargs), self._peak(CHUNK, kind_counts, **kwargs)
        assert many < 1.1 * one and many < self._peak(3 * CHUNK + 7, **kwargs)
