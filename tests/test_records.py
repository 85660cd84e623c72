import ast
import copy
import inspect
import json
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import oracles
import swapsim
from swapsim import analysis, classical, cli, discard, entanglement, measure, protocol, qstate, records, rng
from swapsim.records import AnalyzerAngle, BsmOutcome, ClassicalRecord, Ordering, TrialRecord, setting_pair


class TestAnalyzerAngleMatchesNumpy:
    """The stdlib angle gives the doubles np.deg2rad gave, so exact tables and records keep their bytes."""

    @staticmethod
    def _check(values):
        for x in values:
            angle = AnalyzerAngle(x)
            # mod 180 as records write it: 12 significant digits, so a remainder written as 180 is the setting 0
            degrees = float(f"{x % 180:.12g}") % 180
            assert angle.degrees == degrees, x
            assert angle.radians.hex() == float(np.deg2rad(degrees)).hex(), x

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
        assert setting_pair("angles0", (10.0, 10.000000001)) == (AnalyzerAngle(10.0), AnalyzerAngle(10.000000001))

    @pytest.mark.parametrize("make", [protocol.ExperimentConfig, classical.ClassicalConfig])
    @pytest.mark.parametrize("field", ["angles0", "angles3"])
    def test_both_configs_reject_a_repeated_setting_alike(self, make, field):
        with pytest.raises(ValueError) as info:
            make(**{field: (10.0, 190.0)})
        pair = (AnalyzerAngle(10.0), AnalyzerAngle(10.0))
        assert str(info.value) == f"{field} must hold two distinct settings, got {pair}"

    @pytest.mark.parametrize("make", [protocol.ExperimentConfig, classical.ClassicalConfig])
    @pytest.mark.parametrize("field", ["angles0", "angles3"])
    @pytest.mark.parametrize("pair", [(0.0, 179.9999999999999), (10.0, 10.0000000000001)])
    def test_both_configs_reject_settings_that_records_write_as_one(self, make, field, pair):
        # distinct doubles, but 12 significant digits write them as 0.0 and 180.0, which is 0, or as 10.0 twice
        assert pair[0] != pair[1]
        with pytest.raises(ValueError, match=f"{field} must hold two distinct settings"):
            make(**{field: pair})


class TestWrittenSetting:
    @pytest.mark.parametrize("degrees, written", [(190.0, 10.0), (-1e-13, 0.0), (179.99999999999, 0.0),
                                                  (10.0000000000001, 10.0), (1e-300, 1e-300)])
    def test_a_record_writes_its_setting_mod_180_at_12_digits(self, degrees, written):
        record = ClassicalRecord(0, 0, degrees, 1, degrees, 1, 1, "far")
        doc = record.to_json_dict()
        assert (doc["setting0_deg"], doc["setting3_deg"]) == (written, written)


class TestSettingCell:
    """Every check that a record or a request names one of the four setting cells fails in one message."""

    MESSAGE = "setting indices (2, 0) are outside the two-by-two design: each must be 0 or 1"
    RECORD = TrialRecord(0, Ordering.BSM_FIRST, 2, 0.0, 0, 22.5, 1, -1, BsmOutcome.PSI_MINUS)

    @pytest.mark.parametrize("check", [
        lambda record: analysis.correlation_weighted([(record, 1)], (2, 0)),
        lambda record: protocol.exact_cell_records(protocol.ExperimentConfig(), 2, 0),
        lambda record: analysis.chsh([record]),
    ], ids=["correlation_weighted", "exact_cell_records", "chsh"])
    def test_the_library_raises_the_one_message(self, check):
        with pytest.raises(ValueError) as info:
            check(self.RECORD)
        assert str(info.value) == self.MESSAGE

    def test_analyze_prints_the_one_message_for_its_line(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(self.RECORD.to_json_dict()) + "\n")
        assert cli.main(["analyze", "--in", str(path)]) == 3
        assert capsys.readouterr().err == f"swapsim: error: line 1: {self.MESSAGE}\n"


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
    return TrialRecord(trial_id, Ordering.BSM_FIRST, 0, 0.0, 1, 67.5, 1, -1, BsmOutcome.PSI_MINUS)


def _classical_record(trial_id=7):
    return ClassicalRecord(trial_id, 0, 0.0, 1, 67.5, 1, -1, "psi-minus")


def _value_objects():
    report = analysis.chsh_from_counts({cell: (3, 1) for cell in records._SETTING_PAIRS}, "none", 16, 20)
    return [_quantum_record(), _classical_record(), AnalyzerAngle(10.0),
            records.RecordChunk([3, 9], [0, 0], (_classical_record(),)),
            report.e_ab, report]


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

    @pytest.mark.parametrize("value", _value_objects(), ids=lambda value: type(value).__name__)
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
        assert TrialRecord.__match_args__ + ("events",) == wire
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


@pytest.mark.parametrize("clone", [lambda error: pickle.loads(pickle.dumps(error)), copy.copy], ids=["pickle", "copy"])
def test_record_format_error_survives_a_round_trip(clone):
    # a forked reader sends its error to the command as a pickle
    again = clone(records.RecordFormatError(7, "x"))
    assert (type(again), again.line_number, str(again)) == (records.RecordFormatError, 7, "line 7: x")


def _engine_values():
    """One of each engine value class: configs, plan steps, states, witnesses, discard rule, checks."""
    report = analysis.chsh_from_counts({cell: (3, 1) for cell in records._SETTING_PAIRS}, "none", 16, 20)
    rho = oracles.to_density(oracles.bell_state(records.BsmOutcome.PSI_MINUS))
    metrics = entanglement.TwoQubitMetrics(1.0, 1.0, 1.0)
    label = classical.LabelCheck("plus", report)
    check = classical.ModelCheck("sign", (label,), ("minus",))
    terms = classical.FourierTerms(np.zeros(6), 1.0, 0.0, 0.5)
    return [protocol.ExperimentConfig(), protocol.StageSnapshot("pre-bsm", rho, metrics),
            measure.PolarizationSpec(0, 10.0), measure.BellSpec((1, 2)),
            oracles.bell_state(records.BsmOutcome.PSI_MINUS), rho, metrics, discard.pr_box_rule(),
            classical.ClassicalConfig(), terms, classical.sign_model(), label, check,
            classical.BlindCheckReport(20, (check,))]


def _picklable(value) -> bool:
    """Whether every field is a plain value: no closure, and no state that compares by identity."""
    identity = (qstate.PureState, qstate.DensityMatrix, classical.FourierTerms, protocol.StageSnapshot,
                discard.DiscardRule, classical.HiddenVariableModel)
    return not isinstance(value, identity)


class TestEngineValueClasses:
    """What the engine's value classes promise, whatever builds them: frozen, keyword-built, validated."""

    @pytest.mark.parametrize("value", _engine_values(), ids=lambda value: type(value).__name__)
    def test_assignment_and_deletion_raise(self, value):
        name = type(value).__match_args__[0]
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.no_such_field = 1

    def test_experiment_config_keyword_defaults(self):
        cfg = protocol.ExperimentConfig()
        assert protocol.ExperimentConfig.__match_args__ == (
            "angles0", "angles3", "trials", "ordering", "bsm_mode", "seed", "visibility")
        assert (cfg.angles0, cfg.angles3) == ((AnalyzerAngle(0.0), AnalyzerAngle(45.0)),
                                              (AnalyzerAngle(22.5), AnalyzerAngle(67.5)))
        assert (cfg.trials, cfg.ordering, cfg.bsm_mode, cfg.seed, cfg.visibility) == (
            1, Ordering.BSM_FIRST, records.BsmMode.FULL, 0, 1.0)
        cfg = protocol.ExperimentConfig(visibility=1, seed=np.uint64(5), ordering="pol-first", bsm_mode="partial",
                                        trials=np.int32(3), angles3=(181.0, 90.0))
        assert (cfg.trials, cfg.ordering, cfg.bsm_mode, cfg.seed) == (
            3, Ordering.POLARIZATIONS_FIRST, records.BsmMode.PARTIAL, 5)
        assert type(cfg.trials) is int and type(cfg.seed) is int
        assert type(cfg.visibility) is float and cfg.angles3 == (AnalyzerAngle(1.0), AnalyzerAngle(90.0))
        assert protocol.ExperimentConfig((0.0, 45.0), (22.5, 67.5), 7) == protocol.ExperimentConfig(trials=7)

    def test_classical_config_keyword_defaults(self):
        cfg = classical.ClassicalConfig()
        assert classical.ClassicalConfig.__match_args__ == ("angles0", "angles3", "trials", "seed")
        assert cfg == classical.ClassicalConfig((0.0, 45.0), (22.5, 67.5), 1, 0)
        cfg = classical.ClassicalConfig(seed=np.int64(2), trials=np.uint8(4))
        assert (cfg.trials, cfg.seed) == (4, 2) and type(cfg.trials) is type(cfg.seed) is int

    @pytest.mark.parametrize("make", [protocol.ExperimentConfig, classical.ClassicalConfig],
                             ids=["experiment", "classical"])
    @pytest.mark.parametrize("field", ["trials", "seed"])
    @pytest.mark.parametrize("value", [2.7, 2.0, np.float64(3.0), True, np.True_, "4", None], ids=repr)
    def test_configs_refuse_an_integer_field_that_is_not_an_integer(self, make, field, value):
        # int() would have truncated 2.7 to 2 and read True as 1: the records of another seed
        with pytest.raises(TypeError) as info:
            make(**{field: value})
        assert str(info.value) == f"{field} must be an integer, got {value!r}"

    @pytest.mark.parametrize("make, kwargs, message", [
        (protocol.ExperimentConfig, {"trials": 0}, "trials must be >= 1, got 0"),
        (protocol.ExperimentConfig, {"visibility": 1.5}, "visibility must lie in [0, 1], got 1.5"),
        (protocol.ExperimentConfig, {"ordering": "late"}, "'late' is not a valid Ordering"),
        (classical.ClassicalConfig, {"trials": -2}, "trials must be >= 1, got -2"),
        (measure.BellSpec, {"qubits": (2, 2)}, "bell spec needs two distinct qubits"),
        (discard.DiscardRule, {"kind": "maybe", "description": "", "keep_weight": float},
         "rule kind must be deterministic|probabilistic, got 'maybe'"),
    ], ids=["trials", "visibility", "ordering", "classical-trials", "bell-pair", "rule-kind"])
    def test_validation_messages(self, make, kwargs, message):
        with pytest.raises(ValueError) as info:
            make(**kwargs)
        assert str(info.value) == message

    def test_unknown_or_missing_fields_raise_type_error(self):
        with pytest.raises(TypeError):
            protocol.ExperimentConfig(shots=3)
        with pytest.raises(TypeError):
            entanglement.TwoQubitMetrics(1.0, 1.0)

    def test_equal_configs_hash_equal(self):
        one = protocol.ExperimentConfig(angles0=(360.0, 45.0), trials=5, ordering="pol-first")
        two = protocol.ExperimentConfig(trials=np.int64(5), ordering=Ordering.POLARIZATIONS_FIRST)
        assert one == two and hash(one) == hash(two) and len({one, two}) == 1
        assert one != protocol.ExperimentConfig(trials=5) and one != classical.ClassicalConfig(trials=5)
        assert classical.ClassicalConfig(angles0=(180.0, 45.0)) == classical.ClassicalConfig()
        assert hash(classical.ClassicalConfig(angles0=(180.0, 45.0))) == hash(classical.ClassicalConfig())
        assert measure.BellSpec([1.0, 2], "full") == measure.BellSpec((1, 2))
        assert hash(measure.PolarizationSpec(3, 200.0)) == hash(measure.PolarizationSpec(3, AnalyzerAngle(20.0)))

    @pytest.mark.parametrize("make", [
        lambda: oracles.bell_state(records.BsmOutcome.PSI_PLUS),
        lambda: oracles.to_density(oracles.bell_state(records.BsmOutcome.PSI_PLUS)),
        lambda: classical.FourierTerms(np.ones(3), 3.0, 0.0, 0.0),
    ], ids=["PureState", "DensityMatrix", "FourierTerms"])
    def test_array_holders_compare_by_identity(self, make):
        one, two = make(), make()
        assert one == one and one != two
        assert hash(one) == object.__hash__(one)

    @pytest.mark.parametrize("value", [value for value in _engine_values() if _picklable(value)],
                             ids=lambda value: type(value).__name__)
    def test_pickle_round_trip(self, value):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and hash(copy) == hash(value) and type(copy) is type(value)

    def test_states_pickle_to_equal_entries(self):
        rho = oracles.to_density(oracles.bell_state(records.BsmOutcome.PHI_PLUS))
        copy = pickle.loads(pickle.dumps(rho))
        assert type(copy) is qstate.DensityMatrix and copy.num_qubits == 2
        assert np.array_equal(copy.entries, rho.entries)

    def test_unpickled_states_stay_read_only(self):
        # unpickling runs the constructor, which validates and freezes the array again
        state = oracles.bell_state(records.BsmOutcome.PSI_MINUS)
        for value, array in ((state, "amplitudes"), (oracles.to_density(state), "entries")):
            copy = pickle.loads(pickle.dumps(value))
            assert not getattr(copy, array).flags.writeable

    def test_repr_text(self):
        assert repr(protocol.ExperimentConfig(trials=3)) == (
            "ExperimentConfig(angles0=(AnalyzerAngle(degrees=0.0), AnalyzerAngle(degrees=45.0)), "
            "angles3=(AnalyzerAngle(degrees=22.5), AnalyzerAngle(degrees=67.5)), trials=3, "
            "ordering=<Ordering.BSM_FIRST: 'bsm-first'>, bsm_mode=<BsmMode.FULL: 'full'>, seed=0, "
            "visibility=1.0)")
        assert repr(classical.ClassicalConfig(seed=4)) == (
            "ClassicalConfig(angles0=(AnalyzerAngle(degrees=0.0), AnalyzerAngle(degrees=45.0)), "
            "angles3=(AnalyzerAngle(degrees=22.5), AnalyzerAngle(degrees=67.5)), trials=1, seed=4)")
        assert repr(measure.BellSpec((2, 1), "partial")) == "BellSpec(qubits=(2, 1), mode=<BsmMode.PARTIAL: 'partial'>)"
        assert repr(entanglement.TwoQubitMetrics(1.0, 0.5, 0.25)) == (
            "TwoQubitMetrics(concurrence=1.0, negativity=0.5, purity=0.25)")
        assert repr(qstate.PureState(1, [1.0, 0.0])) == (
            "PureState(num_qubits=1, amplitudes=array([1.+0.j, 0.+0.j]))")

    def test_match_args(self):
        match measure.PolarizationSpec(3, 20.0):
            case measure.PolarizationSpec(qubit, angle):
                assert (qubit, angle) == (3, AnalyzerAngle(20.0))
        assert classical.HiddenVariableModel.__match_args__ == (
            "name", "outcome0", "outcome3", "marker", "marker_labels", "terms")
        assert classical.sign_model().terms is None
        assert protocol.StageSnapshot.__match_args__ == ("stage", "rho03", "metrics")
        assert classical.BlindCheckReport.__match_args__ == ("trials", "checks")


def _frozen_classes() -> list:
    """Every _Frozen subclass in the package, by name."""
    found, stack = [], [records._Frozen]
    while stack:
        subclasses = stack.pop().__subclasses__()
        found += subclasses
        stack += subclasses
    return sorted(found, key=lambda cls: cls.__name__)


# The classes that take their constructor from _Frozen, and the repr of each built from the fields 1, 2, ...
_BUILT_BY_FROZEN = {
    "BlindCheckReport": "BlindCheckReport(trials=1, checks=2)",
    "FourierTerms": "FourierTerms(marker=1, marker_scale=2, phase0=3, phase3=4)",
    "LabelCheck": "LabelCheck(label=1, report=2)",
    "ModelCheck": "ModelCheck(model=1, labels=2, starved=3)",
    "RecordChunk": "RecordChunk(trial_ids=1, kinds=2, templates=3)",
    "StageSnapshot": "StageSnapshot(stage=1, rho03=2, metrics=3)",
    "TwoQubitMetrics": "TwoQubitMetrics(concurrence=1, negativity=2, purity=3)",
}
_FROZEN_BUILT = [cls for cls in _frozen_classes() if "__init__" not in vars(cls)]


def _only_forwards(init) -> bool:
    """Whether a constructor's body, its docstring aside, is one call that passes its parameters on, in order."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(init))).body[0]
    body = [stmt for stmt in tree.body if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))]
    call = body[0].value if len(body) == 1 and isinstance(body[0], ast.Expr) else None
    return (isinstance(call, ast.Call) and not call.keywords
            and [ast.unparse(arg) for arg in call.args] == [arg.arg for arg in tree.args.args[1:]])


class TestFrozenConstructor:
    """_Frozen builds the constructor of every value class that only stores its fields, from ``__slots__``."""

    def test_the_classes_it_builds(self):
        assert [cls.__name__ for cls in _FROZEN_BUILT] == list(_BUILT_BY_FROZEN)

    def test_no_value_class_writes_a_constructor_that_only_forwards(self):
        own = [cls for cls in _frozen_classes() if "__init__" in vars(cls)]
        assert [cls.__name__ for cls in own if _only_forwards(cls.__init__)] == []
        assert len(own) == 9  # the classes that validate or convert
        assert not hasattr(records._Frozen, "_set")

    @pytest.mark.parametrize("cls", _FROZEN_BUILT, ids=lambda cls: cls.__name__)
    def test_position_name_and_both_build_the_same_value(self, cls):
        names = cls.__slots__
        values = tuple(range(1, len(names) + 1))
        built = [cls(*values), cls(**dict(zip(names, values))), cls(*values[:1], **dict(zip(names[1:], values[1:])))]
        assert [value._values() for value in built] == [values] * 3
        if cls.__hash__ is not object.__hash__:  # the classes holding arrays compare by identity
            assert built[0] == built[1] == built[2]
            assert hash(built[0]) == hash(built[1]) == hash(built[2]) == hash(values)

    @pytest.mark.parametrize("cls", _FROZEN_BUILT, ids=lambda cls: cls.__name__)
    def test_a_missing_unknown_or_doubled_field_raises(self, cls):
        names = cls.__slots__
        values = tuple(range(1, len(names) + 1))
        for args, kwargs in [(values[:-1], {}), (values[:-1], {"no_such_field": 0}), ((*values, 0), {}),
                             (values, {names[0]: 0})]:  # missing, unknown, one too many, doubled
            with pytest.raises(TypeError, match=rf"^{cls.__name__}\("):
                cls(*args, **kwargs)

    @pytest.mark.parametrize("cls", _FROZEN_BUILT, ids=lambda cls: cls.__name__)
    def test_repr_and_pickle(self, cls):
        values = tuple(range(1, len(cls.__slots__) + 1))
        value = cls(*values)
        assert repr(value) == _BUILT_BY_FROZEN[cls.__name__]
        assert value.__reduce__() == (cls, values)
        copy = pickle.loads(pickle.dumps(value))
        assert type(copy) is cls and copy._values() == values


class _Writes:
    """A text handle that keeps each write's text."""

    def __init__(self) -> None:
        self.texts = []

    def write(self, text: str) -> int:
        self.texts.append(text)
        return len(text)


class TestWriteRecords:
    @pytest.mark.parametrize("sizes", [[1], [511, 512, 513], [1025, 0, 3]], ids=["one", "around", "long"])
    def test_lines_are_the_records_and_each_write_holds_at_most_a_slice(self, sizes):
        templates = (_quantum_record(0), _quantum_record(0)._replace(outcome3=1), _classical_record(0))
        chunks, first = [], 0
        for size in sizes:
            ids = list(range(first, first + size))
            chunks.append(records.RecordChunk(ids, [trial_id * 7 % 3 for trial_id in ids], templates))
            first += size
        handle = _Writes()
        assert records.write_records(handle, chunks) == sum(sizes)
        want = "".join(records._record_line(record) for chunk in chunks for record in chunk.records())
        assert "".join(handle.texts) == want
        slice_ = records._WRITE_SLICE
        assert 1 < slice_ < records.CHUNK  # a few hundred lines per write, never a chunk-long list of them
        assert [text.count("\n") for text in handle.texts] == [
            min(slice_, size - start) for size in sizes for start in range(0, size, slice_)]
