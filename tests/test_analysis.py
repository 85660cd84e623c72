import math
from dataclasses import dataclass

import numpy as np
import pytest

import oracles
from swapsim.analysis import (
    CorrelationEstimate,
    InsufficientDataError,
    chsh,
    chsh_from_counts,
    chsh_weighted,
    correlation_weighted,
)
from swapsim.measure import AnalyzerAngle, BsmMode, BsmOutcome, bsm_outcomes
from swapsim.protocol import (ExperimentConfig, Ordering, _SETTING_PAIRS, exact_joint_distribution, exact_records,
                              kind_counts, run_batch)

CANONICAL = dict(angles0=(0.0, 45.0), angles3=(22.5, 67.5))


@dataclass(frozen=True)
class FakeRecord:
    """Anything with the five analysis attributes works as a record."""

    setting0_index: int
    setting3_index: int
    outcome0: int
    outcome3: int
    bsm_label: str = "psi-minus"


def cell_records(cell, aligned, opposed, label="psi-minus"):
    out = []
    for _ in range(aligned):
        out.append(FakeRecord(cell[0], cell[1], +1, +1, label))
    for _ in range(opposed):
        out.append(FakeRecord(cell[0], cell[1], +1, -1, label))
    return out


def once(records):
    """Each record as a (record, 1) pair, the count-1 input form of correlation_weighted."""
    return [(record, 1) for record in records]


def all_cells(aligned_by_cell, opposed_by_cell):
    records = []
    for cell in ((0, 0), (0, 1), (1, 0), (1, 1)):
        records.extend(cell_records(cell, aligned_by_cell[cell], opposed_by_cell[cell]))
    return records


class TestSelectionLabel:
    """A selection is a label: the records whose bsm_label equals it, or every record for None."""

    # every cell under psi-minus, and three more records under psi-plus
    RECORDS = all_cells({(0, 0): 3, (0, 1): 1, (1, 0): 2, (1, 1): 4},
                        {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 1}) + cell_records((0, 1), 2, 1, label="psi-plus")

    def test_none_keeps_every_record_and_reports_none(self):
        report = chsh(self.RECORDS, None)
        assert report == chsh(self.RECORDS)
        assert (report.filter_description, report.kept, report.total) == ("none", 19, 19)

    def test_enum_and_string_give_the_same_report(self):
        by_enum = chsh(self.RECORDS, BsmOutcome.PSI_MINUS)
        assert by_enum == chsh(self.RECORDS, "psi-minus")
        assert (by_enum.filter_description, by_enum.kept, by_enum.total) == ("bsm=psi-minus", 16, 19)
        assert correlation_weighted(once(self.RECORDS), (0, 1), BsmOutcome.PSI_PLUS) == \
            correlation_weighted(once(self.RECORDS), (0, 1), "psi-plus")


class TestCorrelation:
    def test_perfect_alignment(self):
        est = correlation_weighted(once(cell_records((0, 0), aligned=40, opposed=0)), (0, 0))
        assert est == CorrelationEstimate(1.0, 40, 0.0)

    def test_balanced_counts(self):
        est = correlation_weighted(once(cell_records((1, 1), aligned=50, opposed=50)), (1, 1))
        assert est.e_value == 0.0
        assert est.n == 100
        assert est.std_err == pytest.approx(0.1, abs=1e-15)

    def test_binomial_error_formula(self):
        est = correlation_weighted(once(cell_records((0, 1), aligned=3, opposed=1)), (0, 1))
        assert est.e_value == pytest.approx(0.5)
        assert est.std_err == pytest.approx(math.sqrt((1.0 - 0.25) / 4.0))

    def test_empty_cell_names_cell_and_filter(self):
        records = cell_records((0, 0), 5, 5, label="psi-plus")
        with pytest.raises(InsufficientDataError) as err:
            correlation_weighted(once(records), (0, 0), "psi-minus")
        assert "(0, 0)" in str(err.value)
        assert "bsm=psi-minus" in str(err.value)

    def test_rejects_setting_pair_outside_design(self):
        with pytest.raises(ValueError):
            correlation_weighted(once(cell_records((0, 0), 1, 0)), (0, 2))

    def test_rejects_a_float_setting_index(self):
        # int() would truncate (0.9, 0.2) to cell (0, 0)
        with pytest.raises(TypeError, match="setting0 index"):
            correlation_weighted(once(cell_records((0, 0), 1, 0)), (0.9, 0.2))

    def test_rejects_record_with_out_of_design_indices(self):
        bad = [FakeRecord(3, 0, 1, 1)]
        with pytest.raises(ValueError):
            correlation_weighted(once(bad), (0, 0))


class TestChsh:
    def test_all_aligned_gives_s_two(self):
        counts = {cell: 25 for cell in ((0, 0), (0, 1), (1, 0), (1, 1))}
        report = chsh(all_cells(counts, {cell: 0 for cell in counts}))
        assert report.s_value == 2.0
        assert report.s_std_err == 0.0
        assert report.kept == report.total == 100

    def test_minus_sign_sits_on_ab_prime(self):
        aligned = {(0, 0): 30, (0, 1): 0, (1, 0): 30, (1, 1): 30}
        opposed = {(0, 0): 0, (0, 1): 30, (1, 0): 0, (1, 1): 0}
        report = chsh(all_cells(aligned, opposed))
        assert report.s_value == 4.0
        assert report.e_ab_prime.e_value == -1.0

    def test_report_json_shape(self):
        counts = {cell: 10 for cell in ((0, 0), (0, 1), (1, 0), (1, 1))}
        doc = chsh(all_cells(counts, counts)).to_json_dict()
        assert set(doc) == {
            "e_ab", "e_ab_prime", "e_a_prime_b", "e_a_prime_b_prime",
            "s", "s_abs", "s_std_err", "filter", "kept", "total",
        }
        assert set(doc["e_ab"]) == {"e", "n", "std_err"}

    def test_order_invariance_under_shuffles(self):
        cfg = ExperimentConfig(trials=2000, seed=5, **CANONICAL)
        records = list(run_batch(cfg))
        reference = chsh(records, BsmOutcome.PSI_MINUS)
        rng = np.random.default_rng(99)
        for _ in range(100):
            rng.shuffle(records)
            assert chsh(records, BsmOutcome.PSI_MINUS) == reference

    def test_partition_merge_equals_single_pass(self):
        # independent tally here; merged counts must reproduce chsh exactly
        cfg = ExperimentConfig(trials=5000, seed=6, **CANONICAL)
        records = list(run_batch(cfg))
        sums = {cell: [0, 0] for cell in ((0, 0), (0, 1), (1, 0), (1, 1))}
        kept = 0
        for start in range(0, len(records), 7):
            for rec in records[start:start + 7]:
                if rec.bsm_label != "psi-minus":
                    continue
                kept += 1
                cell = (rec.setting0_index, rec.setting3_index)
                sums[cell][0 if rec.outcome0 == rec.outcome3 else 1] += 1
        merged = chsh_from_counts(
            {cell: tuple(v) for cell, v in sums.items()}, "bsm=psi-minus", kept, len(records))
        assert merged == chsh(records, "psi-minus")

    def test_empty_cell_after_filtering_raises(self):
        records = cell_records((0, 0), 5, 5, label="psi-minus")
        with pytest.raises(InsufficientDataError):
            chsh(records, "phi-plus")

    def test_selected_singlet_outcomes_reach_quantum_bound(self):
        cfg = ExperimentConfig(trials=20_000, seed=13, **CANONICAL)
        records = list(run_batch(cfg))
        report = chsh(records, BsmOutcome.PSI_MINUS)
        assert abs(report.s_value - (-2.0 * math.sqrt(2.0))) <= 5.0 * report.s_std_err
        assert report.kept < report.total

    def test_unfiltered_records_show_no_correlation(self):
        cfg = ExperimentConfig(trials=20_000, seed=14, **CANONICAL)
        report = chsh(run_batch(cfg))
        assert abs(report.s_value) <= 5.0 * report.s_std_err
        assert report.kept == report.total == 20_000

    def test_filters_partition_the_counts(self):
        cfg = ExperimentConfig(trials=8000, seed=15, **CANONICAL)
        records = list(run_batch(cfg))
        unconditional = chsh(records)
        labels = ("psi-minus", "psi-plus", "phi-minus", "phi-plus")
        reports = [chsh(records, lab) for lab in labels]
        assert sum(r.kept for r in reports) == unconditional.kept
        pooled_num = sum(r.e_ab.e_value * r.e_ab.n for r in reports)
        pooled_n = sum(r.e_ab.n for r in reports)
        assert pooled_n == unconditional.e_ab.n
        assert abs(pooled_num / pooled_n - unconditional.e_ab.e_value) <= 1e-12

    def test_every_filter_respects_quantum_bound(self):
        cfg = ExperimentConfig(trials=20_000, seed=16, **CANONICAL)
        records = list(run_batch(cfg))
        for label in ("psi-minus", "psi-plus", "phi-minus", "phi-plus"):
            report = chsh(records, label)
            assert report.s_abs <= 2.0 * math.sqrt(2.0) + 5.0 * report.s_std_err


class TestChshFromCounts:
    def test_matches_direct_formula(self):
        counts = {(0, 0): (80, 20), (0, 1): (30, 70), (1, 0): (75, 25), (1, 1): (60, 40)}
        report = chsh_from_counts(counts, "none", 400, 400)
        es = {cell: (a - o) / (a + o) for cell, (a, o) in counts.items()}
        want_s = es[(0, 0)] - es[(0, 1)] + es[(1, 0)] + es[(1, 1)]
        assert report.s_value == pytest.approx(want_s, abs=1e-15)
        want_err = math.sqrt(sum((1 - e * e) / 100 for e in es.values()))
        assert report.s_std_err == pytest.approx(want_err, abs=1e-15)

    def test_raises_on_empty_cell(self):
        counts = {(0, 0): (10, 0), (0, 1): (0, 0), (1, 0): (5, 5), (1, 1): (1, 1)}
        with pytest.raises(InsufficientDataError) as err:
            chsh_from_counts(counts, "bsm=other", 22, 40)
        assert "(0, 1)" in str(err.value)
        assert "bsm=other" in str(err.value)


class TestChshWeighted:
    def test_equals_chsh_of_the_expanded_records(self, rng):
        kinds = all_cells({(0, 0): 3, (0, 1): 1, (1, 0): 2, (1, 1): 4},
                          {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 1})
        kinds += cell_records((0, 1), 2, 1, label="other")
        counts = rng.integers(1, 50, size=len(kinds)).tolist()
        expanded = [record for record, count in zip(kinds, counts) for _ in range(count)]
        for label in (None, "psi-minus"):
            assert chsh_weighted(zip(kinds, counts), label) == chsh(expanded, label)

    def test_rejects_kept_record_outside_the_design(self):
        with pytest.raises(ValueError, match=r"\(2, 0\)"):
            chsh_weighted([(FakeRecord(2, 0, 1, 1), 3)])


def _estimates(report):
    """The report's estimate of every setting cell, keyed by cell."""
    return dict(zip(_SETTING_PAIRS, (report.e_ab, report.e_ab_prime, report.e_a_prime_b, report.e_a_prime_b_prime)))


class TestChshExact:
    """chsh_weighted over exact_records: each weight a probability, each E and S exact."""

    def test_matches_sums_over_the_table(self):
        config = ExperimentConfig(angles0=(17.3, 49.2), angles3=(63.1, 5.8))
        table = exact_joint_distribution(config)
        for label in (BsmOutcome.PSI_MINUS, BsmOutcome.PHI_PLUS, None):
            report = chsh_weighted(exact_records(config), label)
            e = {cell: estimate.e_value for cell, estimate in _estimates(report).items()}
            for cell in e:
                rows = [(o0 * o3, p) for (i0, i3, o0, o3, bsm), p in table.items()
                        if (i0, i3) == cell and label in (None, bsm)]
                want = sum(x * p for x, p in rows) / sum(p for _, p in rows)
                assert e[cell] == pytest.approx(want, abs=1e-15)
            assert report.s_value == e[(0, 0)] - e[(0, 1)] + e[(1, 0)] + e[(1, 1)]
            assert report.kept == pytest.approx(sum(p for key, p in table.items() if label in (None, key[4])),
                                                abs=1e-15)

    def test_singlet_reaches_tsirelson(self):
        report = chsh_weighted(exact_records(ExperimentConfig(**CANONICAL)), BsmOutcome.PSI_MINUS)
        assert report.s_value == pytest.approx(-2.0 * math.sqrt(2.0), abs=1e-12)

    def test_empty_cell_raises(self):
        # psi- never occurs in cell (1, 0): hand-built (record, probability) pairs
        weighted = []
        for i0 in (0, 1):
            for i3 in (0, 1):
                for bsm in ("psi-minus", "psi-plus"):
                    p = 0.0 if (i0, i3, bsm) == (1, 0, "psi-minus") else 1.0 / 32.0
                    weighted += [(FakeRecord(i0, i3, +1, -1, bsm), p), (FakeRecord(i0, i3, -1, +1, bsm), p)]
        assert chsh_weighted(weighted, "psi-plus").s_value == -2.0
        assert chsh_weighted(weighted).s_value == -2.0
        with pytest.raises(InsufficientDataError) as err:
            chsh_weighted(weighted, "psi-minus")
        assert "(1, 0)" in str(err.value) and "bsm=psi-minus" in str(err.value)


def _hex_report(report):
    """Every number of a report, floats as float.hex so that -0.0 and the last bit count."""
    cells = (report.e_ab, report.e_ab_prime, report.e_a_prime_b, report.e_a_prime_b_prime)
    return ([(est.e_value.hex(), est.n, est.std_err.hex()) for est in cells],
            report.s_value.hex(), report.s_std_err.hex(), report.filter_description, report.kept, report.total)


def _outcome_or_error(compute):
    try:
        return compute()
    except InsufficientDataError:
        return "empty"


class TestOneCoreMatchesFormerRoutes:
    """The one CHSH core against the former exact loop and two-slot tally (tests/oracles.py), bit for bit."""

    OFFSETS = (0.0, 7.5, 13.1, 30.0, 45.0, 51.7, 90.0, 101.3, 144.9, 179.0)

    def test_exact_tables(self):
        checked = 0
        for ordering in Ordering:
            for mode in BsmMode:
                for visibility in (1.0, 0.9, 0.8, 0.5, 1.0 / 3.0, 0.0):
                    for offset in self.OFFSETS:
                        config = ExperimentConfig(
                            angles0=(offset, 45.0 + offset), angles3=(22.5 + offset / 2.0, 67.5 + offset),
                            ordering=ordering, bsm_mode=mode, visibility=visibility)
                        records = exact_records(config)
                        table = exact_joint_distribution(config)
                        for label in bsm_outcomes(mode) + (None,):
                            weights, e, s = oracles.chsh_exact_reference(table, label)
                            report = chsh_weighted(records, label)
                            estimates = _estimates(report)
                            assert {c: x.n.hex() for c, x in estimates.items()} == {c: w.hex() for c, w in weights.items()}
                            assert {c: x.e_value.hex() for c, x in estimates.items()} == {c: x.hex() for c, x in e.items()}
                            assert report.s_value.hex() == s.hex()
                            checked += 1
        assert checked == 1080

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
    def test_sampled_tallies(self, seed):
        config = ExperimentConfig(trials=(40 if seed == 6 else 20_000), seed=seed,
                                  bsm_mode=BsmMode.PARTIAL if seed % 2 else BsmMode.FULL,
                                  visibility=0.9 if seed % 3 else 1.0, **CANONICAL)
        weighted = kind_counts(config)
        for label in bsm_outcomes(config.bsm_mode)[:3] + (None,):
            description = "none" if label is None else f"bsm={label.value}"
            counts, kept, total = oracles.tally_two_slot(weighted, None if label is None else label.value)
            want = _outcome_or_error(lambda: _hex_report(oracles.chsh_from_counts_reference(
                counts, description, kept, total)))
            assert _outcome_or_error(lambda: _hex_report(chsh_weighted(weighted, label))) == want
            assert _outcome_or_error(lambda: _hex_report(chsh_from_counts(
                counts, description, kept, total))) == want


class TestPredictedCorrelation:
    def test_equal_angle_values(self):
        assert oracles.predicted_correlation(BsmOutcome.PSI_MINUS, 30.0, 30.0) == pytest.approx(-1.0)
        assert oracles.predicted_correlation(BsmOutcome.PHI_PLUS, 17.0, 17.0) == pytest.approx(+1.0)

    def test_orthogonal_offset_vanishes(self):
        assert abs(oracles.predicted_correlation(BsmOutcome.PSI_MINUS, 0.0, 45.0)) <= 1e-12

    def test_angle_sum_family(self):
        assert oracles.predicted_correlation(BsmOutcome.PSI_PLUS, 10.0, 20.0) == pytest.approx(
            -math.cos(math.radians(60.0)))
        assert oracles.predicted_correlation(BsmOutcome.PHI_MINUS, 10.0, 20.0) == pytest.approx(
            +math.cos(math.radians(60.0)))

    def test_accepts_analyzer_angles(self):
        value = oracles.predicted_correlation(BsmOutcome.PSI_MINUS, AnalyzerAngle(0.0), AnalyzerAngle(22.5))
        assert value == pytest.approx(-math.cos(math.radians(45.0)))

    def test_other_has_no_prediction(self):
        with pytest.raises(oracles.UndefinedPredictionError):
            oracles.predicted_correlation(BsmOutcome.OTHER, 0.0, 22.5)

    def test_matches_exact_tables_at_generic_angles(self):
        # dual route: closed forms against the branch-enumeration tables
        cfg = ExperimentConfig(angles0=(17.3, 49.2), angles3=(63.1, 5.8), trials=1)
        table = exact_joint_distribution(cfg)
        for i0 in (0, 1):
            for i3 in (0, 1):
                for outcome in (BsmOutcome.PSI_MINUS, BsmOutcome.PSI_PLUS,
                                BsmOutcome.PHI_MINUS, BsmOutcome.PHI_PLUS):
                    num = den = 0.0
                    for (a, b, o0, o3, bsm), p in table.items():
                        if (a, b) == (i0, i3) and bsm is outcome:
                            num += o0 * o3 * p
                            den += p
                    want = oracles.predicted_correlation(
                        outcome, cfg.angles0[i0], cfg.angles3[i3])
                    assert abs(num / den - want) <= 1e-12
