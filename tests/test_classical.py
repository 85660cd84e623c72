import json
import math
import re
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

import oracles
from swapsim import classical
from swapsim.analysis import InsufficientDataError, chsh
from swapsim.classical import (
    BlindCheckReport,
    ClassicalConfig,
    ClassicalRecord,
    DiscardRule,
    HiddenVariableModel,
    apply_discard,
    keep_mask,
    lhv_chunks,
    pr_box_rule,
    quantum_mimic_rule,
    random_fourier_model,
    run_lhv,
    settings_blind_check,
    sign_model,
    uniform_model,
)
from swapsim.measure import RandomSource
from swapsim.records import CHUNK
from swapsim.rng import trial_draws

CANONICAL = dict(angles0=(0.0, 45.0), angles3=(22.5, 67.5))

# Documented stream contract for keep decisions; frozen here on purpose so a
# change to the offset breaks loudly.
KEEP_OFFSET = 1 << 48


def config(**kwargs) -> ClassicalConfig:
    base = dict(trials=100, seed=9, **CANONICAL)
    base.update(kwargs)
    return ClassicalConfig(**base)


@dataclass(frozen=True)
class Plain:
    """Minimal record shape the discard rules read."""

    trial_id: int
    setting0_index: int
    setting3_index: int
    setting0_deg: float
    setting3_deg: float
    outcome0: int
    outcome3: int


class TestClassicalConfig:
    def test_angle_coercion(self):
        cfg = config()
        assert cfg.angles0[1].degrees == 45.0
        assert cfg.angles3[0].radians == pytest.approx(math.radians(22.5))

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            config(trials=0)

    def test_rejects_coinciding_settings(self):
        with pytest.raises(ValueError):
            config(angles3=(12.0, 192.0))


class TestClassicalRecord:
    def test_json_round_trip(self):
        rec = next(run_lhv(sign_model(), config()))
        doc = json.loads(json.dumps(rec.to_json_dict()))
        assert ClassicalRecord.from_json_dict(doc) == rec

    def test_wire_schema_matches_quantum_records(self):
        doc = next(run_lhv(sign_model(), config())).to_json_dict()
        assert doc["ordering"] == "classical"
        assert doc["events"] == []
        assert set(doc) == {
            "trial_id", "ordering", "setting0_index", "setting0_deg",
            "setting3_index", "setting3_deg", "outcome0", "outcome3",
            "bsm", "events",
        }

    def test_from_json_rejects_quantum_ordering(self):
        doc = next(run_lhv(sign_model(), config())).to_json_dict()
        doc["ordering"] = "bsm-first"
        with pytest.raises(ValueError):
            ClassicalRecord.from_json_dict(doc)

    def test_from_json_rejects_bad_outcome(self):
        doc = next(run_lhv(sign_model(), config())).to_json_dict()
        doc["outcome3"] = 2
        with pytest.raises(ValueError):
            ClassicalRecord.from_json_dict(doc)

    def test_marker_doubles_as_bsm_label(self):
        rec = next(run_lhv(sign_model(), config()))
        assert rec.bsm_label == rec.marker


class TestHiddenVariableModel:
    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            HiddenVariableModel(
                "dup", lambda a, l: l, lambda a, l: l, lambda a, b: a, ("x", "x"))

    def test_rejects_empty_labels(self):
        with pytest.raises(ValueError):
            HiddenVariableModel(
                "none", lambda a, l: l, lambda a, l: l, lambda a, b: a, ())


class TestRunLhv:
    def test_constant_model_records(self):
        records = list(run_lhv(oracles.constant_model(+1, -1), config(trials=64)))
        assert [r.trial_id for r in records] == list(range(64))
        assert all(r.outcome0 == +1 and r.outcome3 == -1 for r in records)
        assert all(r.marker == "all" for r in records)

    def test_constant_model_sits_exactly_at_local_bound(self):
        records = list(run_lhv(oracles.constant_model(), config(trials=400)))
        report = chsh(records)
        assert report.s_value == 2.0
        assert report.s_std_err == 0.0

    def test_deterministic_across_chunk_boundary(self):
        cfg = config(trials=10_000)
        first = list(run_lhv(sign_model(), cfg))
        second = list(run_lhv(sign_model(), cfg))
        assert first == second

    def test_seed_changes_records(self):
        a = list(run_lhv(sign_model(), config(trials=200, seed=1)))
        b = list(run_lhv(sign_model(), config(trials=200, seed=2)))
        assert a != b

    def test_settings_are_uniform(self):
        n = 10_000
        records = list(run_lhv(sign_model(), config(trials=n)))
        bound = 5.0 * math.sqrt(0.25 / n)
        assert abs(sum(r.setting0_index for r in records) / n - 0.5) <= bound
        assert abs(sum(r.setting3_index for r in records) / n - 0.5) <= bound
        for rec in records[:100]:
            assert rec.setting0_deg in (0.0, 45.0)
            assert rec.setting3_deg in (22.5, 67.5)

    def test_stations_are_independent_so_correlation_vanishes(self):
        n = 20_000
        records = list(run_lhv(sign_model(), config(trials=n)))
        report = chsh(records)
        assert abs(report.s_value) <= 5.0 * report.s_std_err

    def test_rejects_outcomes_outside_pm_one(self):
        broken = HiddenVariableModel(
            "broken",
            outcome0=lambda angle, lam: np.zeros_like(lam),
            outcome3=lambda angle, lam: np.ones_like(lam),
            marker=lambda lam0, lam1: np.zeros(len(lam0), dtype=np.int64),
            marker_labels=("x",),
        )
        with pytest.raises(ValueError):
            list(run_lhv(broken, config()))

    def test_rejects_marker_index_out_of_range(self):
        broken = HiddenVariableModel(
            "broken",
            outcome0=lambda angle, lam: np.ones_like(lam),
            outcome3=lambda angle, lam: np.ones_like(lam),
            marker=lambda lam0, lam1: np.ones(len(lam0), dtype=np.int64),
            marker_labels=("only",),
        )
        with pytest.raises(ValueError):
            list(run_lhv(broken, config()))


def _traced_peak_kb(run) -> float:
    """Peak KB of memory numpy and Python allocate while ``run()`` runs."""
    run()  # caches, lazily imported modules
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


class TestChunkLifetime:
    """No chunk's arrays outlive it: they are freed before the next chunk is drawn."""

    @pytest.mark.parametrize("model", [sign_model(), random_fourier_model(0)], ids=["sign", "fourier"])
    def test_lhv_chunks_hold_one_chunk_at_a_time(self, model):
        # One 4096-row chunk's draws, Philox words and records peak at about
        # 800 KB, well under this pin, which was set for 8192-row chunks:
        # there, keeping the previous chunk's arrays alive while the next was
        # drawn took the peak from about 1600 to 2300 KB, and a Fourier
        # model's harmonic basis to about 2750 KB.  The next test checks the
        # same at any chunk size.
        def run():
            for _ in lhv_chunks(model, config(trials=20_000)):
                pass

        assert _traced_peak_kb(run) < 2000

    @pytest.mark.parametrize("model", [sign_model(), random_fourier_model(0)], ids=["sign", "fourier"])
    def test_many_chunks_peak_about_as_high_as_one(self, model):
        # Over several chunks the peak is about 1.3 times one chunk's, since
        # the loop variable keeps the last chunk's records; keeping that
        # chunk's arrays alive too takes it to about 1.7.
        def peak(trials):
            def run():
                for _ in lhv_chunks(model, config(trials=trials)):
                    pass

            return _traced_peak_kb(run)

        assert peak(3 * CHUNK + 7) < 1.5 * peak(CHUNK)

    def test_blind_check_basis_does_not_raise_the_peak(self):
        # 20 Fourier models from 4096-row bases peak at about 1200 KB; the
        # per-model closures over 8192-row chunks peaked at about 2060 KB.
        models = [random_fourier_model(model_seed) for model_seed in range(20)]
        peak = _traced_peak_kb(lambda: settings_blind_check(models, config(trials=20_000)))
        assert peak < 1600


class TestKeepMask:
    # ids the reader accepts (tests/test_cli.py BENIGN): "-5", "-0", 18 and
    # 19 digits, and past 2**64
    IDS = [-5, int("-0"), int("9" * 18), int("9" * 19), 2**64 + 3, 5, 12]

    @pytest.mark.parametrize("ids", [IDS, [-5, 0, int("9" * 18), 5, 12]], ids=["past-int64", "int64"])
    def test_decisions_follow_the_per_id_stream(self, ids):
        weights = np.linspace(0.05, 0.95, len(ids))
        got = keep_mask(quantum_mimic_rule(), 77, ids, weights)
        want = [RandomSource(77, (t + KEEP_OFFSET) % 2**64).uniform() < w for t, w in zip(ids, weights)]
        assert got.tolist() == want


class TestFourierFastPath:
    """Fourier models scored from the shared basis decide every row as their closures do."""

    @staticmethod
    def _chunks(cfg):
        rad0, rad3 = classical._radians(cfg)
        for _, i0, i3, draws in trial_draws(cfg.seed, 0, cfg.trials, 4):
            yield rad0, rad3, i0, i3, draws[:, 2] * np.pi, draws[:, 3] * np.pi

    def _assert_closure_decisions(self, models, cfg):
        for args in self._chunks(cfg):
            basis = classical._harmonic_basis(*args[-2:])  # lam0, lam1
            for model in models:
                fast = classical._fourier_evaluate(model, basis, *args)
                reference = classical._evaluate(model, *args)
                for got, want in zip(fast, reference):
                    assert np.array_equal(got, want), model.name

    @pytest.mark.parametrize("cfg", [
        ClassicalConfig(trials=20_000, seed=20_260_817, **CANONICAL),  # acceptance criterion 7
        ClassicalConfig(trials=20_000, seed=0),  # the in-memory bench's blind-check, seeds 0, 31, 63
        ClassicalConfig(trials=20_000, seed=31),
        ClassicalConfig(trials=20_000, seed=63),
    ], ids=["criterion-7", "bench-0", "bench-31", "bench-63"])
    def test_fast_decisions_equal_the_closures_without_fallback(self, cfg, monkeypatch):
        monkeypatch.setattr(classical, "_FALLBACK_BOUND", 0.0)
        self._assert_closure_decisions([random_fourier_model(s) for s in range(20)], cfg)

    def test_no_fallback_and_all_fallback_give_the_same_report(self, monkeypatch):
        models = [random_fourier_model(s) for s in range(5)]
        cfg = config(trials=20_000)
        documents = []
        for bound in (0.0, math.inf, classical._FALLBACK_BOUND):
            monkeypatch.setattr(classical, "_FALLBACK_BOUND", bound)
            documents.append(json.dumps(settings_blind_check(models, cfg).to_json_dict()))
        assert documents[0] == documents[1] == documents[2]

    def test_closures_on_scattered_rows_match_the_whole_chunk(self, monkeypatch):
        # a loose bound sends scattered rows (about four in five) to the
        # closures, which must decide them as they do within the whole chunk
        monkeypatch.setattr(classical, "_FALLBACK_BOUND", 0.3)
        fallback_rows = []
        evaluate = classical._evaluate

        def counting_evaluate(model, rad0, rad3, i0, i3, lam0, lam1):
            fallback_rows.append(len(lam0))
            return evaluate(model, rad0, rad3, i0, i3, lam0, lam1)

        models = [random_fourier_model(s) for s in range(3)]
        cfg = config(trials=10_000)
        for args in self._chunks(cfg):
            monkeypatch.setattr(classical, "_evaluate", counting_evaluate)
            basis = classical._harmonic_basis(*args[-2:])  # lam0, lam1
            fast = [classical._fourier_evaluate(model, basis, *args) for model in models]
            monkeypatch.setattr(classical, "_evaluate", evaluate)
            for model, got in zip(models, fast):
                for column, want in zip(got, evaluate(model, *args)):
                    assert np.array_equal(column, want), model.name
        assert len(fallback_rows) == 3 * 3
        assert 0 < sum(fallback_rows) < 3 * cfg.trials

    def test_mixed_list_reports_each_model_as_alone(self):
        models = [sign_model(), random_fourier_model(3), uniform_model()]
        cfg = config(trials=20_000)
        together = settings_blind_check(models, cfg)
        alone = [settings_blind_check([model], cfg).checks[0] for model in models]
        assert together.checks == tuple(alone)

    def test_basis_is_the_direct_trig_within_a_few_ulp(self):
        rng = np.random.default_rng(3)
        lam0, lam1 = rng.uniform(0.0, np.pi, size=(2, 5000))
        basis = classical._harmonic_basis(lam0, lam1).reshape(3, 3, 2, -1)
        for k in range(3):
            for j, x in enumerate((lam0, lam1, lam0 - lam1)):
                assert np.abs(basis[k, j, 0] - np.cos(2 * (k + 1) * x)).max() < 1e-14
                assert np.abs(basis[k, j, 1] - np.sin(2 * (k + 1) * x)).max() < 1e-14

    def test_generated_records_equal_the_closure_records(self):
        model = random_fourier_model(5)
        plain = HiddenVariableModel(model.name, model.outcome0, model.outcome3, model.marker, model.marker_labels)
        cfg = config(trials=20_000)
        assert list(run_lhv(model, cfg)) == list(run_lhv(plain, cfg))


class TestApplyDiscard:
    def test_keep_all(self):
        records = list(run_lhv(uniform_model(), config(trials=50)))
        rule = DiscardRule("deterministic", "keep-all", lambda r: 1.0)
        kept, fraction = apply_discard(records, rule)
        assert kept == records
        assert fraction == 1.0

    def test_drop_all_starves_the_estimator(self):
        records = list(run_lhv(uniform_model(), config(trials=50)))
        rule = DiscardRule("deterministic", "drop-all", lambda r: 0.0)
        kept, fraction = apply_discard(records, rule)
        assert kept == [] and fraction == 0.0
        with pytest.raises(InsufficientDataError):
            chsh(kept)

    def test_empty_input(self):
        kept, fraction = apply_discard([], pr_box_rule())
        assert kept == [] and fraction == 0.0

    def test_rejects_weight_outside_unit_interval(self):
        rule = DiscardRule("probabilistic", "bad", lambda r: 1.5)
        with pytest.raises(ValueError):
            apply_discard(list(run_lhv(uniform_model(), config(trials=3))), rule)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            DiscardRule("fuzzy", "bad", lambda r: 1.0)

    def test_probabilistic_rule_refuses_a_float_seed(self):
        # the keep streams would otherwise be those of seed 2
        with pytest.raises(TypeError, match="seed must be an integer"):
            apply_discard(list(run_lhv(uniform_model(), config(trials=3))), quantum_mimic_rule(), seed=2.7)

    def test_probabilistic_keeps_reproduce_by_seed(self):
        records = list(run_lhv(uniform_model(), config(trials=2000)))
        rule = quantum_mimic_rule()
        kept_a, frac_a = apply_discard(records, rule, seed=77)
        kept_b, frac_b = apply_discard(records, rule, seed=77)
        assert kept_a == kept_b and frac_a == frac_b
        kept_c, _ = apply_discard(records, rule, seed=78)
        assert kept_a != kept_c

    def test_keep_draws_use_the_offset_stream(self):
        # reproduce every keep decision from the documented draw contract
        records = list(run_lhv(uniform_model(), config(trials=500)))
        rule = quantum_mimic_rule()
        kept, _ = apply_discard(records, rule, seed=77)
        manual = [
            rec for rec in records
            if RandomSource(77, rec.trial_id + KEEP_OFFSET).uniform() < rule.keep_weight(rec)
        ]
        assert kept == manual

    def test_generation_seed_is_safe_to_reuse(self):
        # seeding the rule with the generation seed must not replay the
        # generator's own uniforms; keep draws come from disjoint streams
        cfg = config(trials=2000, seed=55)
        records = list(run_lhv(uniform_model(), cfg))
        rule = DiscardRule("probabilistic", "half", lambda r: 0.5)
        kept, fraction = apply_discard(records, rule, seed=cfg.seed)
        assert abs(fraction - 0.5) <= 5.0 * math.sqrt(0.25 / len(records))
        kept_outcomes = sum(1 for r in kept if r.outcome0 == +1) / len(kept)
        assert abs(kept_outcomes - 0.5) <= 5.0 * math.sqrt(0.25 / len(kept))


class TestPrBoxRule:
    def test_description(self):
        assert pr_box_rule().description == "pr-box"

    def test_kept_cells_hit_their_targets_exactly(self):
        n = 20_000
        records = list(run_lhv(uniform_model(), config(trials=n)))
        kept, fraction = apply_discard(records, pr_box_rule())
        assert abs(fraction - 0.5) <= 5.0 * math.sqrt(0.25 / n)
        targets = {(0, 0): +1, (0, 1): -1, (1, 0): +1, (1, 1): +1}
        for rec in kept:
            cell = (rec.setting0_index, rec.setting3_index)
            assert rec.outcome0 * rec.outcome3 == targets[cell]
        report = chsh(kept)
        assert report.s_value == 4.0
        assert report.s_std_err == 0.0


class TestQuantumMimicRule:
    def test_description(self):
        assert quantum_mimic_rule().description == "quantum-mimic"

    def test_keep_weight_formula(self):
        rule = quantum_mimic_rule()
        rng = np.random.default_rng(31)
        for _ in range(1000):
            a, d = rng.uniform(0.0, 180.0, size=2)
            o0, o3 = rng.choice([-1, 1], size=2)
            rec = Plain(0, 0, 0, float(a), float(d), int(o0), int(o3))
            want = (1.0 - o0 * o3 * math.cos(2.0 * math.radians(a - d))) / 2.0
            assert rule.keep_weight(rec) == pytest.approx(want, abs=1e-15)

    def test_equal_angles_keep_only_anticorrelated_pairs(self):
        cfg = ClassicalConfig(angles0=(0.0, 45.0), angles3=(0.0, 45.0), trials=4000, seed=3)
        records = list(run_lhv(uniform_model(), cfg))
        kept, _ = apply_discard(records, quantum_mimic_rule(), seed=1)
        same_angle = [r for r in kept if r.setting0_deg == r.setting3_deg]
        assert len(same_angle) > 300
        assert all(r.outcome0 * r.outcome3 == -1 for r in same_angle)

    def test_kept_correlation_tracks_singlet_curve_on_grid(self):
        # bulk statistics via the same closed form the rule encodes; the
        # keep_weight formula itself is pinned exactly in the test above
        rng = np.random.default_rng(17)
        n = 100_000
        grid = np.linspace(0.0, 90.0, 13)
        for alpha in grid:
            for delta in grid:
                c = math.cos(2.0 * math.radians(alpha - delta))
                o0 = rng.choice([-1.0, 1.0], size=n)
                o3 = rng.choice([-1.0, 1.0], size=n)
                keep = rng.random(n) < (1.0 - o0 * o3 * c) / 2.0
                kept_product = (o0 * o3)[keep]
                e = float(kept_product.mean())
                sigma = math.sqrt((1.0 - e * e) / len(kept_product))
                assert abs(e - (-c)) <= 5.0 * sigma, (alpha, delta)

    def test_overall_keep_fraction_is_half(self):
        n = 20_000
        records = list(run_lhv(uniform_model(), config(trials=n)))
        _, fraction = apply_discard(records, quantum_mimic_rule(), seed=5)
        assert abs(fraction - 0.5) <= 5.0 * math.sqrt(0.25 / n)

    def test_kept_ensemble_reaches_the_quantum_bound(self):
        records = list(run_lhv(uniform_model(), config(trials=40_000)))
        kept, _ = apply_discard(records, quantum_mimic_rule(), seed=8)
        report = chsh(kept)
        assert abs(report.s_abs - 2.0 * math.sqrt(2.0)) <= 5.0 * report.s_std_err


class TestModels:
    def test_constant_model_validates_values(self):
        with pytest.raises(ValueError):
            oracles.constant_model(0, 1)

    def test_outcome_functions_return_signs(self):
        rng = np.random.default_rng(41)
        lam = rng.uniform(0.0, np.pi, size=500)
        angles = rng.uniform(0.0, np.pi, size=500)
        for model in (sign_model(), uniform_model(), random_fourier_model(7)):
            for fn in (model.outcome0, model.outcome3):
                out = np.asarray(fn(angles, lam))
                assert set(np.unique(out)).issubset({-1, 1})
            marks = np.asarray(model.marker(lam, lam[::-1]))
            assert marks.min() >= 0
            assert marks.max() < len(model.marker_labels)

    def test_uniform_model_ignores_the_angle(self):
        lam = np.linspace(0.0, np.pi, 100, endpoint=False)
        model = uniform_model()
        a = model.outcome0(np.zeros_like(lam), lam)
        b = model.outcome0(np.full_like(lam, 1.2), lam)
        assert np.array_equal(a, b)

    def test_fourier_model_rejects_a_negative_seed_by_name(self):
        with pytest.raises(ValueError, match=r"^model seed must be a non-negative integer, got -1$"):
            random_fourier_model(-1)

    @pytest.mark.parametrize("seed", [True, False, "3", None, 3.0, np.float64(3.0)], ids=repr)
    def test_fourier_model_refuses_a_seed_that_is_not_an_integer_by_name(self, seed):
        with pytest.raises(TypeError, match=rf"^model seed must be an integer, got {re.escape(repr(seed))}$"):
            random_fourier_model(seed)

    @pytest.mark.parametrize("seed, same_as", [(np.int64(3), 3), (np.uint8(3), 3), (2**70, 2**70)],
                             ids=["int64", "uint8", "2**70"])
    def test_fourier_model_is_named_and_drawn_from_the_integer_seed(self, seed, same_as):
        model, reference = random_fourier_model(seed), random_fourier_model(same_as)
        assert model.name == reference.name == f"fourier-{int(same_as)}"
        rng = np.random.default_rng(int(same_as))  # the coefficients' reference stream
        phase0, phase3 = rng.uniform(0.0, np.pi, size=2)
        amps, phases = rng.normal(size=(3, 3)), rng.uniform(0.0, 2.0 * np.pi, size=(3, 3))
        expected = np.stack([amps * np.cos(phases), -amps * np.sin(phases)], axis=-1).reshape(-1)
        assert model.terms.marker.tobytes() == expected.tobytes()
        assert (model.terms.marker_scale, model.terms.phase0, model.terms.phase3) == (
            float(np.abs(amps).sum()), float(phase0), float(phase3))
        cfg = config(trials=5_000)
        assert list(run_lhv(model, cfg)) == list(run_lhv(reference, cfg))

    def test_fourier_model_is_reproducible_from_its_seed(self):
        lam0 = np.linspace(0.0, np.pi, 200, endpoint=False)
        lam1 = lam0[::-1].copy()
        a, b = random_fourier_model(123), random_fourier_model(123)
        assert np.array_equal(a.marker(lam0, lam1), b.marker(lam0, lam1))
        other = random_fourier_model(124)
        assert not np.array_equal(a.marker(lam0, lam1), other.marker(lam0, lam1))


class TestSettingsBlindCheck:
    def test_no_model_is_an_error(self):
        with pytest.raises(ValueError, match="at least one model"):
            settings_blind_check([], config(trials=100))

    def test_constant_model_sits_exactly_on_the_bound(self):
        report = settings_blind_check([oracles.constant_model()], config(trials=2000))
        assert isinstance(report, BlindCheckReport)
        check = report.checks[0]
        assert check.starved == ()
        assert check.max_s_abs == 2.0
        assert check.within_bound
        assert report.all_within_bound

    def test_sign_model_stays_local(self):
        report = settings_blind_check([sign_model()], config(trials=100_000))
        check = report.checks[0]
        assert {lc.label for lc in check.labels} == {"near", "far"}
        assert sum(lc.report.kept for lc in check.labels) == 100_000
        assert report.all_within_bound

    def test_fourier_models_stay_local(self):
        models = [random_fourier_model(s) for s in (1, 2, 3)]
        report = settings_blind_check(models, config(trials=50_000))
        assert [c.model for c in report.checks] == [m.name for m in models]
        assert report.all_within_bound

    def test_matches_streaming_estimator_exactly(self):
        # the one-pass vectorized tally must agree with analysis.chsh over
        # the very records run_lhv yields, float for float
        cfg = config(trials=20_000)
        report = settings_blind_check([sign_model()], cfg)
        records = list(run_lhv(sign_model(), cfg))
        by_label = {lc.label: lc.report for lc in report.checks[0].labels}
        for label in ("near", "far"):
            assert by_label[label] == chsh(records, label)

    def test_unreachable_label_is_starved_not_passed(self):
        model = HiddenVariableModel(
            "sparse",
            outcome0=lambda angle, lam: np.ones_like(lam),
            outcome3=lambda angle, lam: np.ones_like(lam),
            marker=lambda lam0, lam1: np.zeros(len(lam0), dtype=np.int64),
            marker_labels=("seen", "never"),
        )
        report = settings_blind_check([model], config(trials=2000))
        check = report.checks[0]
        assert check.starved == ("never",)
        assert [lc.label for lc in check.labels] == ["seen"]

    def test_single_trial_starves_every_cell(self):
        report = settings_blind_check([sign_model()], config(trials=1))
        check = report.checks[0]
        assert check.labels == ()
        assert set(check.starved) == {"near", "far"}
        assert check.max_s_abs == 0.0

    def test_json_shape(self):
        doc = settings_blind_check([sign_model()], config(trials=5000)).to_json_dict()
        assert set(doc) == {"trials", "all_within_bound", "models"}
        model_doc = doc["models"][0]
        assert set(model_doc) == {"model", "within_bound", "max_s_abs", "starved", "labels"}
        assert set(model_doc["labels"][0]) == {
            "label", "s", "s_abs", "s_std_err", "kept", "within_bound",
        }
