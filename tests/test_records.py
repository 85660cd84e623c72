import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import swapsim
from swapsim import analysis, classical, discard, measure, protocol, qstate, records, rng
from swapsim.records import AnalyzerAngle, BsmOutcome, ClassicalRecord, Ordering, TrialRecord, setting_pair


class TestAnalyzerAngleMatchesNumpy:
    """The stdlib angle gives the doubles np.deg2rad gave, so exact tables and records keep their bytes."""

    @staticmethod
    def _check(values):
        for x in values:
            angle = AnalyzerAngle(x)
            assert angle.degrees == x % 180.0, x
            assert angle.radians.hex() == float(np.deg2rad(x % 180.0)).hex(), x

    def test_tenth_degree_grid(self):
        self._check((np.arange(-36000, 36001) / 10.0).tolist())

    def test_random_floats(self):
        rng = np.random.default_rng(20)
        self._check(rng.uniform(-1e4, 1e4, size=20_000).tolist())
        scales = 10.0 ** rng.integers(-300, 300, size=5_000)
        self._check((rng.standard_normal(5_000) * scales).tolist())

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_raises(self, value):
        with pytest.raises(ValueError, match="finite"):
            AnalyzerAngle(value)


class TestSettingPair:
    def test_converts_both_settings(self):
        assert setting_pair("angles0", (181.0, AnalyzerAngle(45.0))) == (AnalyzerAngle(1.0), AnalyzerAngle(45.0))

    @pytest.mark.parametrize("make", [protocol.ExperimentConfig, classical.ClassicalConfig])
    @pytest.mark.parametrize("field", ["angles0", "angles3"])
    def test_both_configs_reject_a_repeated_setting_alike(self, make, field):
        with pytest.raises(ValueError) as info:
            make(**{field: (10.0, 190.0)})
        pair = (AnalyzerAngle(10.0), AnalyzerAngle(10.0))
        assert str(info.value) == f"{field} must hold two distinct settings, got {pair}"


class TestLazyPackage:
    def test_every_public_name_is_the_object_of_its_home_module(self):
        for name in swapsim.__all__:
            value = getattr(swapsim, name)
            if name == "__version__":
                continue
            assert getattr(sys.modules[value.__module__], name) is value, name

    def test_moved_names_are_re_exported_where_they_were(self):
        assert measure.AnalyzerAngle is records.AnalyzerAngle is swapsim.AnalyzerAngle
        assert measure.BsmMode is records.BsmMode and measure.BsmOutcome is records.BsmOutcome
        assert measure.as_angle is records.as_angle and measure.bsm_outcomes is records.bsm_outcomes
        assert measure.CHUNK == records.CHUNK
        assert qstate.BellKind is records.BellKind
        assert protocol.Ordering is records.Ordering and protocol.TrialRecord is records.TrialRecord
        assert classical.ClassicalRecord is records.ClassicalRecord
        assert measure.RandomSource is rng.RandomSource is swapsim.RandomSource

    def test_discard_rules_and_the_data_error_keep_one_class_each(self):
        for name in ("DiscardRule", "apply_discard", "discard_chunks", "keep_mask", "pr_box_rule",
                     "quantum_mimic_rule"):
            assert getattr(classical, name) is getattr(discard, name), name
        assert analysis.InsufficientDataError is records.InsufficientDataError is swapsim.InsufficientDataError

    def test_star_import_and_dir_list_every_name(self):
        namespace = {}
        exec("from swapsim import *", namespace)
        assert set(swapsim.__all__) <= set(namespace)
        assert set(swapsim.__all__) <= set(dir(swapsim))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            swapsim.no_such_name  # noqa: B018

    def test_resolved_names_are_not_stored_in_the_package(self):
        swapsim.run_batch, swapsim.BsmOutcome  # noqa: B018
        assert "run_batch" not in vars(swapsim) and "BsmOutcome" not in vars(swapsim)

    def test_bare_import_loads_no_submodule_until_one_is_named(self):
        src = str(Path(swapsim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        probe = ("import sys, swapsim; print(sorted(m for m in sys.modules if m.startswith('swapsim'))); "
                 "print(swapsim.protocol.__name__)")
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["['swapsim']", "swapsim.protocol"]

    def test_discard_names_load_no_classical_engine(self):
        src = str(Path(swapsim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        probe = ("import sys, swapsim; swapsim.apply_discard, swapsim.quantum_mimic_rule; "
                 "print(*sorted(m for m in sys.modules if m.startswith('swapsim')))")
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["swapsim", "swapsim.discard", "swapsim.records", "swapsim.rng"]


class TestKindTables:
    """kind_index and kind_templates are inverse, for every record family the samplers yield."""

    @pytest.fixture(params=["full", "partial", "classical"])
    def table(self, request):
        if request.param == "classical":
            model = classical.sign_model()
            chunk = next(classical.lhv_chunks(model, classical.ClassicalConfig(trials=3)))
            labels = model.marker_labels
            return chunk.templates, [labels.index(t.marker) for t in chunk.templates], len(labels)
        mode = records.BsmMode(request.param)
        chunk = next(protocol.run_chunks(protocol.ExperimentConfig(trials=3, bsm_mode=mode)))
        labels = records.bsm_outcomes(mode)
        return chunk.templates, [labels.index(t.bsm) for t in chunk.templates], len(labels)

    def test_kind_index_of_each_template_is_its_position(self, table):
        templates, label_of, label_count = table
        assert len(templates) == 16 * label_count
        for k, (template, label) in enumerate(zip(templates, label_of)):
            assert records.kind_index(template.setting0_index, template.setting3_index, template.outcome0,
                                      template.outcome3, label, label_count) == k

    def test_arrays_index_like_ints(self, table):
        templates, label_of, label_count = table
        columns = [np.array([getattr(t, name) for t in templates])
                   for name in ("setting0_index", "setting3_index", "outcome0", "outcome3")]
        kinds = records.kind_index(*columns, np.array(label_of), label_count)
        assert kinds.tolist() == list(range(len(templates)))

    def test_chunk_rows_are_their_kind_with_their_id(self):
        templates = [records.ClassicalRecord(0, 0, 0.0, 1, 67.5, 1, -1, "near"),
                     records.ClassicalRecord(5, 1, 45.0, 0, 22.5, -1, -1, "far")]
        chunk = records.RecordChunk([3, 9, 4], [1, 0, 1], templates)
        assert list(chunk.records()) == [
            records.ClassicalRecord(3, 1, 45.0, 0, 22.5, -1, -1, "far"),
            records.ClassicalRecord(9, 0, 0.0, 1, 67.5, 1, -1, "near"),
            records.ClassicalRecord(4, 1, 45.0, 0, 22.5, -1, -1, "far"),
        ]


def _quantum_record(trial_id=7):
    return TrialRecord(trial_id, Ordering.BSM_FIRST, 0, 0.0, 1, 67.5, 1, -1, BsmOutcome.PSI_MINUS,
                       ("bsm", "pol0", "pol3"))


def _classical_record(trial_id=7):
    return ClassicalRecord(trial_id, 0, 0.0, 1, 67.5, 1, -1, "psi-minus")


def _value_objects():
    report = analysis.chsh_from_counts({cell: (3, 1) for cell in analysis._CELLS}, "none", 16, 20)
    return [_quantum_record(), _classical_record(), AnalyzerAngle(10.0),
            records.RecordChunk([3, 9], [0, 0], (_classical_record(),)),
            analysis.SelectionFilter.none(), report.e_ab, report]


class TestValueClasses:
    """What the record and report classes promise, whatever builds them."""

    @pytest.mark.parametrize("value", _value_objects(), ids=lambda value: type(value).__name__)
    def test_assignment_raises(self, value):
        name = next(iter(type(value).__match_args__))
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))

    @pytest.mark.parametrize("value", _value_objects(), ids=lambda value: type(value).__name__)
    def test_new_attribute_raises(self, value):
        # a frozen slots dataclass raised TypeError here on CPython 3.11
        with pytest.raises(AttributeError):
            value.no_such_field = 1

    @pytest.mark.parametrize("value", [value for value in _value_objects()  # a lambda predicate does not pickle
                                       if not isinstance(value, analysis.SelectionFilter)],
                             ids=lambda value: type(value).__name__)
    def test_pickle_round_trip(self, value):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and type(copy) is type(value)

    @pytest.mark.parametrize("record", [_quantum_record(), _classical_record()], ids=lambda r: type(r).__name__)
    def test_wire_round_trip_is_equal_with_an_equal_hash(self, record):
        again = type(record).from_json_dict(record.to_json_dict())
        assert again == record and hash(again) == hash(record)
        assert again.bsm_label == record.bsm_label == "psi-minus"

    def test_field_order_is_the_wire_order(self):
        wire = tuple(_quantum_record().to_json_dict())
        assert TrialRecord.__match_args__ == wire
        shared = tuple("marker" if key == "bsm" else key for key in wire if key not in ("ordering", "events"))
        assert ClassicalRecord.__match_args__ == shared

    def test_a_quantum_record_never_equals_a_classical_one(self):
        quantum, classical_ = _quantum_record(), _classical_record()
        assert quantum != classical_ and classical_ != quantum
        assert quantum.to_json_dict() | {"ordering": "classical", "events": []} == classical_.to_json_dict()

    def test_angles_equal_mod_180_with_equal_hashes(self):
        assert AnalyzerAngle(181.0) == AnalyzerAngle(1.0)
        assert hash(AnalyzerAngle(181.0)) == hash(AnalyzerAngle(1.0))
        assert AnalyzerAngle(1.0) != AnalyzerAngle(2.0) and AnalyzerAngle(1.0) != 1.0
        assert len({AnalyzerAngle(-179.0), AnalyzerAngle(1.0), AnalyzerAngle(361.0)}) == 1

    def test_angle_repr(self):
        assert repr(AnalyzerAngle(190.0)) == "AnalyzerAngle(degrees=10.0)"
        assert AnalyzerAngle.__match_args__ == ("degrees",)
