import gc
import json
import math
import os
import pickle
import platform
import shutil
import signal
import stat
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import swapsim.classical
import swapsim.protocol
import swapsim.records
from oracles import read_records_reference
from swapsim import cli
from swapsim.analysis import InsufficientDataError, SelectionFilter, chsh
from swapsim.classical import ClassicalRecord, apply_discard, pr_box_rule, quantum_mimic_rule
from swapsim.cli import main
from swapsim.protocol import ExperimentConfig, TrialRecord, run_batch
from swapsim.records import RecordFormatError, read_record_chunks, read_record_counts


def round12(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: round12(v) for k, v in value.items()}
    if isinstance(value, list):
        return [round12(v) for v in value]
    return value


def read_records(path):
    """The records of a file, chunk by chunk, as the library reader yields them."""
    for chunk in read_record_chunks(path):
        yield from chunk.records()


def _outcome(records):
    """(records read, (line number, message) of the RecordFormatError or None)."""
    got = []
    try:
        for record in records:
            got.append(record)
    except RecordFormatError as exc:
        return got, (exc.line_number, str(exc))
    return got, None


def _counted(pairs):
    """(records summed per every field but trial_id, None), or (None, (line number, message)) of the error.

    The counting reader holds its tails' counts to the end, so on an error only the error compares.
    """
    tally = Counter()
    try:
        for record, count in pairs:
            tally[type(record), record[1:]] += count
    except RecordFormatError as exc:
        return None, (exc.line_number, str(exc))
    return tally, None


# The library readers: the chunk reader's records in order, or the counting reader's tally.
READERS = ["chunks", "counts"]


def _read(reader: str, path: str):
    """A reader's view of a file: (what it read, (line number, message) of its RecordFormatError or None)."""
    return _outcome(read_records(path)) if reader == "chunks" else _counted(read_record_counts(path))


def _reference(reader: str, path: str):
    """The line-by-line reference's view of a file, in the form _read gives for ``reader``."""
    if reader == "chunks":
        return _outcome(read_records_reference(path))
    return _counted((record, 1) for record in read_records_reference(path))


def _error_like_the_reference(reader: str, path: str) -> tuple[int, str]:
    """The (line number, message) of the reader's RecordFormatError, which must be the reference's."""
    got, want = _read(reader, path), _reference(reader, path)
    assert want[1] is not None and got == want
    return got[1]


def simulate(tmp_path, name="records.jsonl", trials=4000, seed=42, extra=()):
    out = tmp_path / name
    code = main(["simulate", "--trials", str(trials), "--seed", str(seed),
                 "--out", str(out), "--threads", "1", *extra])
    assert code == 0
    return out


class TestSimulate:
    def test_writes_records_and_manifest(self, tmp_path, capsys):
        out = simulate(tmp_path, trials=500)
        stdout = capsys.readouterr().out
        assert f"wrote 500 records to {out}" in stdout
        lines = out.read_text().splitlines()
        assert len(lines) == 500
        first = json.loads(lines[0])
        assert first["trial_id"] == 0
        assert first["ordering"] == "bsm-first"
        manifest = json.loads((tmp_path / "records.jsonl.manifest.json").read_text())
        assert manifest["artifact"] == "swapsim"
        assert manifest["command"] == "simulate"
        assert manifest["record_count"] == 500
        assert manifest["trial_start"] == 0 and manifest["trial_end"] == 500
        assert manifest["outputs"]["records"] == str(out)
        assert manifest["config"]["trials"] == 500
        assert manifest["config"]["seed"] == 42

    def test_reruns_are_byte_identical(self, tmp_path):
        out = simulate(tmp_path, trials=1500)
        first = out.read_bytes()
        simulate(tmp_path, trials=1500)
        assert out.read_bytes() == first

    def test_threads_do_not_change_bytes(self, tmp_path):
        # spans are rendered in parallel but written in order
        sequential = simulate(tmp_path, "seq.jsonl", trials=60_000, seed=7)
        threaded = tmp_path / "par.jsonl"
        code = main(["simulate", "--trials", "60000", "--seed", "7",
                     "--out", str(threaded), "--threads", "4"])
        assert code == 0
        assert threaded.read_bytes() == sequential.read_bytes()

    def test_records_round_trip_to_run_batch(self, tmp_path):
        out = simulate(tmp_path, trials=300, seed=9,
                       extra=("--ordering", "pol-first", "--bsm-mode", "partial"))
        cfg = ExperimentConfig(angles0=(0.0, 45.0), angles3=(22.5, 67.5), trials=300,
                               ordering="pol-first", bsm_mode="partial", seed=9)
        assert list(read_records(str(out))) == list(run_batch(cfg))

    def test_manifest_is_a_complete_recipe(self, tmp_path):
        out = simulate(tmp_path, trials=400, seed=11,
                       extra=("--angles", "5,50,20,65", "--visibility", "0.9"))
        doc = json.loads((tmp_path / "records.jsonl.manifest.json").read_text())["config"]
        cfg = ExperimentConfig(
            angles0=tuple(doc["angles0"]), angles3=tuple(doc["angles3"]),
            trials=doc["trials"], ordering=doc["ordering"], bsm_mode=doc["bsm_mode"],
            seed=doc["seed"], visibility=doc["visibility"],
        )
        assert doc["setting_policy"] == "uniform"
        rebuilt = "".join(
            json.dumps(rec.to_json_dict(), separators=(",", ":")) + "\n"
            for rec in run_batch(cfg)
        )
        assert rebuilt == out.read_text()

    def test_zero_threads_is_a_usage_error(self, tmp_path, capsys):
        code = main(["simulate", "--trials", "10", "--out", str(tmp_path / "x.jsonl"),
                     "--threads", "0"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestSeedResolution:
    def test_env_seed_is_picked_up(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SWAPSIM_SEED", "123")
        out = tmp_path / "records.jsonl"
        assert main(["simulate", "--trials", "50", "--out", str(out), "--threads", "1"]) == 0
        manifest = json.loads((tmp_path / "records.jsonl.manifest.json").read_text())
        assert manifest["seed"] == 123

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SWAPSIM_SEED", "123")
        simulate(tmp_path, trials=50, seed=7)
        manifest = json.loads((tmp_path / "records.jsonl.manifest.json").read_text())
        assert manifest["seed"] == 7

    def test_default_seed_is_zero(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SWAPSIM_SEED", raising=False)
        out = tmp_path / "records.jsonl"
        assert main(["simulate", "--trials", "50", "--out", str(out), "--threads", "1"]) == 0
        manifest = json.loads((tmp_path / "records.jsonl.manifest.json").read_text())
        assert manifest["seed"] == 0

    def test_garbage_env_seed_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SWAPSIM_SEED", "not-a-number")
        code = main(["simulate", "--trials", "10", "--out", str(tmp_path / "x.jsonl")])
        assert code == 2
        assert "SWAPSIM_SEED" in capsys.readouterr().err


class TestAnalyze:
    def test_report_matches_in_process_estimate(self, tmp_path, capsys):
        out = simulate(tmp_path, trials=4000)
        capsys.readouterr()
        assert main(["analyze", "--in", str(out), "--select", "psi-minus"]) == 0
        doc = json.loads(capsys.readouterr().out)
        records = list(read_records(str(out)))
        want = chsh(records, SelectionFilter.bsm_equals("psi-minus")).to_json_dict()
        assert doc == round12(want)
        assert doc["filter"] == "bsm=psi-minus"
        assert doc["total"] == 4000
        assert abs(doc["s"] - (-2.0 * math.sqrt(2.0))) <= 5.0 * doc["s_std_err"]

    def test_out_flag_writes_the_report_file(self, tmp_path, capsys):
        records = simulate(tmp_path, trials=2000)
        capsys.readouterr()
        report_path = tmp_path / "report.json"
        assert main(["analyze", "--in", str(records), "--out", str(report_path)]) == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(report_path.read_text())
        assert doc["filter"] == "none"
        assert doc["kept"] == doc["total"] == 2000

    def test_empty_file_is_insufficient_data(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["analyze", "--in", str(empty)]) == 4
        assert "insufficient data" in capsys.readouterr().err

    def test_starved_filter_is_insufficient_data(self, tmp_path):
        records = simulate(tmp_path, trials=2000)
        # full-mode records never carry the coarse partial-mode label
        assert main(["analyze", "--in", str(records), "--select", "other"]) == 4

    @pytest.mark.parametrize("reader", READERS)
    def test_garbled_line_reports_its_number(self, reader, tmp_path, capsys):
        records = simulate(tmp_path, trials=5)
        bad = tmp_path / "bad.jsonl"
        lines = records.read_text().splitlines()
        bad.write_text(lines[0] + "\n" + "{not json\n" + lines[1] + "\n")
        assert main(["analyze", "--in", str(bad)]) == 3
        assert "line 2" in capsys.readouterr().err
        assert _error_like_the_reference(reader, str(bad))[0] == 2

    @pytest.mark.parametrize("reader", READERS)
    def test_semantically_broken_record_reports_its_number(self, reader, tmp_path, capsys):
        records = simulate(tmp_path, trials=5)
        doc = json.loads(records.read_text().splitlines()[0])
        doc["outcome0"] = 3
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(doc) + "\n")
        assert main(["analyze", "--in", str(bad)]) == 3
        assert "line 1" in capsys.readouterr().err
        assert _error_like_the_reference(reader, str(bad))[0] == 1

    def test_missing_file_is_an_io_error(self, tmp_path, capsys):
        assert main(["analyze", "--in", str(tmp_path / "nope.jsonl")]) == 3
        assert "i/o error" in capsys.readouterr().err

    def test_blank_lines_are_skipped(self, tmp_path):
        records = simulate(tmp_path, trials=200)
        padded = tmp_path / "padded.jsonl"
        padded.write_text(records.read_text().replace("\n", "\n\n") + "\n\n")
        assert len(list(read_records(str(padded)))) == 200

    @pytest.mark.parametrize("reader", READERS)
    def test_two_experiments_in_one_file_are_rejected(self, reader, tmp_path, capsys):
        # each setting index carries two angles, so the file is no one experiment
        first = simulate(tmp_path, "a.jsonl", trials=200, seed=1, extra=("--angles", "0,45,22.5,67.5"))
        second = simulate(tmp_path, "b.jsonl", trials=200, seed=2, extra=("--angles", "10,80,30,50"))
        pooled = tmp_path / "pooled.jsonl"
        pooled.write_text(first.read_text() + second.read_text())
        capsys.readouterr()
        assert main(["analyze", "--in", str(pooled), "--select", "psi-minus"]) == 3
        err = capsys.readouterr().err
        assert "line 201:" in err and "setting0_index" in err
        assert _error_like_the_reference(reader, str(pooled))[0] == 201
        assert len(_outcome(read_records(str(pooled)))[0]) == 200

    @pytest.mark.parametrize("reader", READERS)
    def test_one_changed_angle_is_found_on_its_first_line(self, reader, tmp_path, capsys):
        first = simulate(tmp_path, "a.jsonl", trials=50, seed=1)
        second = simulate(tmp_path, "b.jsonl", trials=50, seed=2, extra=("--angles", "0,45,22.5,60"))
        pooled = tmp_path / "pooled.jsonl"
        pooled.write_text(first.read_text() + second.read_text())
        line = 51 + [json.loads(text)["setting3_index"] for text in second.read_text().splitlines()].index(1)
        capsys.readouterr()
        assert main(["analyze", "--in", str(pooled)]) == 3
        assert f"line {line}: setting3_index 1 has angle 60.0 here but 67.5 above" in capsys.readouterr().err
        assert _error_like_the_reference(reader, str(pooled))[0] == line


class TestUsageErrors:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_bad_trials_value(self, tmp_path):
        assert main(["simulate", "--trials", "abc", "--out", str(tmp_path / "x")]) == 2

    def test_malformed_angles(self, tmp_path):
        assert main(["simulate", "--angles", "1,2,3", "--out", str(tmp_path / "x")]) == 2

    def test_coinciding_angles_rejected(self, tmp_path, capsys):
        code = main(["simulate", "--angles", "0,0,22.5,67.5", "--trials", "10",
                     "--out", str(tmp_path / "x.jsonl")])
        assert code == 2
        assert "distinct" in capsys.readouterr().err

    def test_bad_visibility(self, tmp_path):
        assert main(["simulate", "--visibility", "1.5", "--trials", "10",
                     "--out", str(tmp_path / "x.jsonl")]) == 2

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.startswith("swapsim ")


class TestReportDocument:
    def test_lists_and_tuples_render_with_rounded_floats(self):
        assert cli._round12({"a": (0.1 + 0.2, [1 / 3]), "b": None}) == {"a": [0.3, [0.333333333333]], "b": None}

    def test_a_report_object_is_not_rendered_as_a_list(self):
        report = chsh([ClassicalRecord(0, i0, 45.0 * i0, i3, 22.5 + 45.0 * i3, 1, -1, "mark")
                       for i0 in (0, 1) for i3 in (0, 1)])
        for value in (report, report.e_ab, SelectionFilter.none()):
            with pytest.raises(TypeError, match=f"cannot render {type(value).__name__}"):
                cli._round12({"report": value})


class TestReport:
    def test_exact_summary_states_the_stage_story(self, capsys):
        assert main(["report", "--exact"]) == 0
        text = capsys.readouterr().out
        assert "stage entanglement of photons (0,3):" in text
        stage = {line.strip().split(": ", 1)[0]: line for line in text.splitlines()
                 if "concurrence=" in line}
        assert set(stage) == {"pre-bsm", "post-bsm:psi-minus", "post-bsm:psi-plus",
                              "post-bsm:phi-minus", "post-bsm:phi-plus"}
        assert "concurrence=0 " in stage["pre-bsm"]
        assert "concurrence=1 " in stage["post-bsm:psi-minus"]
        assert "P(bsm=psi-minus) = 0.25" in text

    def test_exact_chsh_by_selection(self, capsys):
        assert main(["report", "--exact"]) == 0
        text = capsys.readouterr().out
        values = {}
        for line in text.splitlines():
            stripped = line.strip()
            if stripped.startswith("filter ") and " S = " in stripped:
                name = stripped.split(":")[0].removeprefix("filter ")
                values[name] = float(stripped.split("S = ")[1].split()[0])
        root8 = 2.0 * math.sqrt(2.0)
        assert abs(values["bsm=psi-minus"] - (-root8)) <= 1e-9
        assert abs(values["bsm=phi-plus"] - root8) <= 1e-9
        assert abs(values["bsm=psi-plus"]) <= 1e-9
        assert abs(values["bsm=phi-minus"]) <= 1e-9
        assert abs(values["none"]) <= 1e-9

    def test_sampled_summary(self, capsys):
        assert main(["report", "--trials", "2000", "--seed", "5"]) == 0
        text = capsys.readouterr().out
        assert "sampled outcome frequencies (N=2000, seed=5):" in text
        assert "sampled CHSH by selection:" in text
        assert "kept = " in text

    def test_partial_mode_summary_has_three_outcomes(self, capsys):
        assert main(["report", "--exact", "--bsm-mode", "partial"]) == 0
        text = capsys.readouterr().out
        assert "P(bsm=other) = 0.5" in text
        assert "post-bsm:other" in text
        assert "phi-plus" not in text

    def test_exact_scan_traces_the_singlet_curve(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(["report", "--scan", "--exact", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "delta_deg,e_psi_minus,e_unconditional"
        assert len(lines) == 1 + 13  # 0..90 in 7.5 degree steps
        for row in lines[1:]:
            delta, e_filtered, e_all = (float(x) for x in row.split(","))
            assert abs(e_filtered - (-math.cos(2.0 * math.radians(delta)))) <= 1e-12
            assert abs(e_all) <= 1e-12

    def test_sampled_scan_has_the_same_shape(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(["report", "--scan", "--trials", "400", "--seed", "2",
                     "--scan-step", "22.5", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "delta_deg,e_psi_minus,e_unconditional"
        assert len(lines) == 1 + 5  # 0, 22.5, 45, 67.5, 90
        for row in lines[1:]:
            _, e_filtered, e_all = (float(x) for x in row.split(","))
            assert -1.0 <= e_filtered <= 1.0
            assert -1.0 <= e_all <= 1.0

    def test_bad_scan_step(self):
        assert main(["report", "--scan", "--exact", "--scan-step", "0"]) == 2

    def test_scan_step_past_the_step_bound_is_rejected(self):
        with pytest.raises(ValueError):
            cli._scan_grid(1e-4)

    @pytest.mark.parametrize("step", ["nan", "inf", "1e-300"])
    def test_non_finite_scan_step_is_rejected(self, tmp_path, step):
        out = tmp_path / "scan.csv"
        assert main(["report", "--scan", "--exact", "--scan-step", step, "--out", str(out)]) == 2
        assert not out.exists()


class TestClassicalCommands:
    def test_generate_writes_records_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "lhv.jsonl"
        code = main(["classical", "generate", "--model", "uniform", "--trials", "1000",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        assert "wrote 1000 records" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert len(lines) == 1000
        rec = json.loads(lines[0])
        assert rec["ordering"] == "classical"
        manifest = json.loads((tmp_path / "lhv.jsonl.manifest.json").read_text())
        assert manifest["command"] == "classical-generate"
        assert manifest["config"]["model"] == "uniform"

    @pytest.mark.parametrize("rule", ["pr-box", "quantum-mimic"])
    def test_apply_discard_keeps_the_input_records_the_command_keeps(self, rule, tmp_path, capsys):
        lhv, kept_path = tmp_path / "lhv.jsonl", tmp_path / "kept.jsonl"
        assert main(["classical", "generate", "--model", "sign", "--trials", "9000", "--seed", "5",
                     "--out", str(lhv)]) == 0
        assert main(["classical", "discard", "--rule", rule, "--seed", "8", "--in", str(lhv),
                     "--out", str(kept_path)]) == 0
        records = list(read_records(str(lhv)))
        kept, _ = apply_discard(records, pr_box_rule() if rule == "pr-box" else quantum_mimic_rule(), seed=8)
        inputs = {id(record) for record in records}
        assert kept and all(id(record) in inputs for record in kept)
        written = read_records(str(kept_path))
        assert [record.trial_id for record in kept] == [record.trial_id for record in written]

    def test_pr_box_discard_reaches_the_algebraic_maximum(self, tmp_path, capsys):
        lhv = tmp_path / "lhv.jsonl"
        main(["classical", "generate", "--model", "uniform", "--trials", "20000",
              "--seed", "3", "--out", str(lhv)])
        capsys.readouterr()
        kept_path = tmp_path / "kept.jsonl"
        code = main(["classical", "discard", "--rule", "pr-box",
                     "--in", str(lhv), "--out", str(kept_path)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["rule"] == "pr-box"
        assert summary["kind"] == "deterministic"
        assert abs(summary["keep_fraction"] - 0.5) <= 5.0 * math.sqrt(0.25 / 20000)
        assert main(["analyze", "--in", str(kept_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["s"] == 4.0
        assert report["kept"] == summary["kept"]

    def test_mimic_discard_reproduces_the_quantum_value(self, tmp_path, capsys):
        lhv = tmp_path / "lhv.jsonl"
        main(["classical", "generate", "--model", "uniform", "--trials", "40000",
              "--seed", "4", "--out", str(lhv)])
        capsys.readouterr()
        kept_path = tmp_path / "kept.jsonl"
        code = main(["classical", "discard", "--rule", "quantum-mimic", "--seed", "6",
                     "--in", str(lhv), "--out", str(kept_path)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["kind"] == "probabilistic"
        assert main(["analyze", "--in", str(kept_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["s_abs"] - 2.0 * math.sqrt(2.0)) <= 5.0 * report["s_std_err"]

    def test_failed_discard_write_leaves_existing_out_untouched(self, tmp_path, monkeypatch, capsys):
        lhv = tmp_path / "lhv.jsonl"
        assert main(["classical", "generate", "--model", "uniform", "--trials", "200",
                     "--seed", "3", "--out", str(lhv)]) == 0
        kept_path = tmp_path / "kept.jsonl"
        kept_path.write_bytes(b"earlier kept records\n")
        rendered = []
        record_line = swapsim.records._record_line

        def render_then_fail(record):
            rendered.append(record)
            if len(rendered) == 3:
                raise OSError("no space left on device")
            return record_line(record)

        monkeypatch.setattr(swapsim.records, "_record_line", render_then_fail)
        capsys.readouterr()
        code = main(["classical", "discard", "--rule", "pr-box", "--in", str(lhv), "--out", str(kept_path)])
        assert code == 3
        assert "i/o error" in capsys.readouterr().err
        assert len(rendered) == 3
        assert kept_path.read_bytes() == b"earlier kept records\n"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_discard_rejects_two_experiments_in_one_file(self, tmp_path, capsys):
        files = []
        for seed, angles in ((1, "0,45,22.5,67.5"), (2, "10,80,30,50")):
            files.append(tmp_path / f"lhv{seed}.jsonl")
            assert main(["classical", "generate", "--model", "uniform", "--trials", "100", "--seed", str(seed),
                         "--angles", angles, "--out", str(files[-1])]) == 0
        pooled = tmp_path / "pooled.jsonl"
        pooled.write_text(files[0].read_text() + files[1].read_text())
        kept_path = tmp_path / "kept.jsonl"
        capsys.readouterr()
        assert main(["classical", "discard", "--rule", "pr-box", "--in", str(pooled), "--out", str(kept_path)]) == 3
        assert "line 101:" in capsys.readouterr().err
        assert not kept_path.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_pr_box_also_guts_quantum_records(self, tmp_path, capsys):
        # the rule only compares recorded outcomes, so it inflates even
        # genuinely quantum data past the Tsirelson bound
        records = simulate(tmp_path, trials=20_000)
        capsys.readouterr()
        kept_path = tmp_path / "kept.jsonl"
        assert main(["classical", "discard", "--rule", "pr-box",
                     "--in", str(records), "--out", str(kept_path)]) == 0
        capsys.readouterr()
        assert main(["analyze", "--in", str(kept_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["s"] == 4.0
        kept_records = list(read_records(str(kept_path)))
        assert all(isinstance(rec, TrialRecord) for rec in kept_records)

    def test_blind_check_passes_and_reports(self, tmp_path, capsys):
        out = tmp_path / "blind.json"
        code = main(["classical", "blind-check", "--models", "2", "--trials", "4000",
                     "--seed", "5", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["all_within_bound"] is True
        assert [m["model"] for m in doc["models"]] == ["fourier-0", "fourier-1"]
        for model_doc in doc["models"]:
            for label_doc in model_doc["labels"]:
                assert label_doc["within_bound"] is True

    @pytest.mark.parametrize("models", ["0", "-3"])
    def test_blind_check_of_no_model_is_a_usage_error(self, tmp_path, capsys, models):
        out = tmp_path / "blind.json"
        code = main(["classical", "blind-check", "--models", models, "--trials", "100", "--out", str(out)])
        assert code == 2
        assert "at least one model" in capsys.readouterr().err
        assert not out.exists()

    def test_blind_check_of_a_starved_model_is_insufficient_data(self, tmp_path, capsys):
        # three trials cannot fill all four setting cells of either label
        out = tmp_path / "blind.json"
        code = main(["classical", "blind-check", "--models", "1", "--trials", "3", "--out", str(out)])
        assert code == 4
        assert "fourier-0" in capsys.readouterr().err
        doc = json.loads(out.read_text())
        assert doc["all_within_bound"] is True
        assert doc["models"][0]["labels"] == []
        assert doc["models"][0]["starved"] == ["plus", "minus"]

    def test_negative_model_seed_is_a_usage_error_naming_it(self, tmp_path, capsys):
        code = main(["classical", "generate", "--model", "fourier", "--model-seed", "-1",
                     "--out", str(tmp_path / "lhv.jsonl")])
        assert code == 2
        assert capsys.readouterr().err == "swapsim: error: model seed must be a non-negative integer, got -1\n"
        assert list(tmp_path.iterdir()) == []

    def test_discard_rejects_unknown_rule(self, tmp_path):
        assert main(["classical", "discard", "--rule", "magic",
                     "--in", "x", "--out", "y"]) == 2


class TestMixedRecordFiles:
    def test_dispatch_by_ordering_field(self, tmp_path):
        quantum = simulate(tmp_path, trials=3)
        lhv = tmp_path / "lhv.jsonl"
        main(["classical", "generate", "--model", "sign", "--trials", "3",
              "--seed", "1", "--out", str(lhv)])
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text(quantum.read_text() + lhv.read_text())
        records = list(read_records(str(mixed)))
        assert [type(r) for r in records] == [TrialRecord] * 3 + [ClassicalRecord] * 3


def _with_id(line: str, trial_id: str) -> str:
    return '{"trial_id":' + trial_id + line[line.index(","):]


def _reordered(line: str, rng) -> str:
    items = list(json.loads(line).items())
    rng.shuffle(items)
    return json.dumps(dict(items), separators=(",", ":"))


def _tail_reordered(line: str, rng) -> str:
    doc = json.loads(line)
    rest = [key for key in doc if key != "trial_id"]
    rng.shuffle(rest)
    return json.dumps({"trial_id": doc["trial_id"], **{key: doc[key] for key in rest}}, separators=(",", ":"))


def _bad_outcome(line: str) -> str:
    doc = json.loads(line)
    doc["outcome0"] = 3
    return json.dumps(doc, separators=(",", ":"))


def _with_field(line: str, name: str, value) -> str:
    doc = json.loads(line)
    doc[name] = value
    return json.dumps(doc, separators=(",", ":"))


# Rewrites of one record line that keep it a valid record.
BENIGN = {
    "spaces": lambda line, rng: json.dumps(json.loads(line)),
    "reordered": _reordered,
    "tail-reordered": _tail_reordered,
    "padded": lambda line, rng: "  " + line + " \t",
    "duplicate-id": lambda line, rng: line[:-1] + ',"trial_id":7}',
    "escaped-duplicate-id": lambda line, rng: line[:-1] + ',"trial\\u005fid":9}',
    "id-zero": lambda line, rng: _with_id(line, "0"),
    "id-minus-zero": lambda line, rng: _with_id(line, "-0"),
    "id-negative": lambda line, rng: _with_id(line, "-5"),
    "id-18-digits": lambda line, rng: _with_id(line, "9" * 18),
    "id-19-digits": lambda line, rng: _with_id(line, "9" * 19),
    "id-past-2**64": lambda line, rng: _with_id(line, str(2**64 + 3)),
    "id-float": lambda line, rng: _with_id(line, "5.0"),
}

# Rewrites that leave no record on the line.
BROKEN = {
    "id-leading-zero": lambda line, rng: _with_id(line, "012"),
    "id-5000-digits": lambda line, rng: _with_id(line, "1" * 5000),
    "id-arabic-indic": lambda line, rng: _with_id(line, "\u0663"),
    "id-fullwidth": lambda line, rng: _with_id(line, "\uff15"),
    "id-mixed-digits": lambda line, rng: _with_id(line, "1\u0663"),
    "duplicate-id-null": lambda line, rng: line[:-1] + ',"trial_id":null}',
    "garbled": lambda line, rng: line[: len(line) // 2],
    "outcome-3": lambda line, rng: _bad_outcome(line),
    "outcome-fraction": lambda line, rng: _with_field(line, "outcome0", 1.5),
    "outcome-bool": lambda line, rng: _with_field(line, "outcome3", True),
    "setting-index-fraction": lambda line, rng: _with_field(line, "setting0_index", 0.7),
    "setting-index-string": lambda line, rng: _with_field(line, "setting3_index", "1"),
    "setting-index-2": lambda line, rng: _with_field(line, "setting0_index", 2),
    "id-fraction": lambda line, rng: _with_field(line, "trial_id", 3.9),
    "angle-infinite": lambda line, rng: _with_field(line, "setting0_deg", math.inf),
    "angle-string": lambda line, rng: _with_field(line, "setting3_deg", "22.5"),
    "label-number": lambda line, rng: _with_field(line, "bsm", 5),
    "events-string": lambda line, rng: _with_field(line, "events", "xyz"),
    "json-array": lambda line, rng: "[1,2]",
    "json-number": lambda line, rng: "5",
    "json-null": lambda line, rng: "null",
    "json-nested-too-deep": lambda line, rng: "[" * 200_000,
}


class TestRecordReader:
    """The columnar and counting readers against the line-by-line json.loads reference."""

    @pytest.fixture(scope="class")
    def base_lines(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("base")
        quantum, lhv = tmp / "q.jsonl", tmp / "c.jsonl"
        assert main(["simulate", "--trials", "120", "--seed", "4", "--ordering", "pol-first",
                     "--bsm-mode", "partial", "--visibility", "0.8", "--out", str(quantum)]) == 0
        assert main(["classical", "generate", "--model", "sign", "--trials", "80", "--seed", "4",
                     "--out", str(lhv)]) == 0
        return quantum.read_text().splitlines() + lhv.read_text().splitlines()

    def _fuzzed(self, base_lines, seed, tmp_path) -> str:
        rng = np.random.default_rng(seed)
        lines = [base_lines[i] for i in rng.permutation(len(base_lines))]
        names = sorted(BENIGN)
        for index in rng.choice(len(lines), size=len(lines) // 3, replace=False).tolist():
            lines[index] = BENIGN[names[rng.integers(len(names))]](lines[index], rng)
        if seed % 2:
            broken = sorted(BROKEN)[seed // 2 % len(BROKEN)]
            index = int(rng.integers(len(lines)))
            lines[index] = BROKEN[broken](lines[index], rng)
        text = "".join(line + ("\r\n" if rng.random() < 0.2 else "\n") + ("\n" if rng.random() < 0.05 else "")
                       for line in lines)
        path = tmp_path / f"fuzz{seed}.jsonl"
        path.write_bytes(text.encode("utf-8"))
        return str(path)

    @pytest.mark.parametrize("chunk, max_tails", [(7, 2), (7, swapsim.records._MAX_TAILS),
                                                  (swapsim.records.CHUNK, swapsim.records._MAX_TAILS)])
    @pytest.mark.parametrize("reader", READERS)
    def test_fuzzed_files_read_like_the_reference(self, base_lines, chunk, max_tails, reader, tmp_path, monkeypatch):
        monkeypatch.setattr(swapsim.records, "CHUNK", chunk)
        monkeypatch.setattr(swapsim.records, "_MAX_TAILS", max_tails)
        errors = 0
        for seed in range(2 * len(BROKEN) + 8):
            path = self._fuzzed(base_lines, seed, tmp_path)
            want = _reference(reader, path)
            assert _read(reader, path) == want, seed
            errors += want[1] is not None
        assert errors == len(BROKEN) + 4

    @pytest.mark.parametrize("reader", READERS)
    def test_every_broken_rewrite_fails_on_its_line(self, base_lines, reader, tmp_path):
        # the broken line's tail is known from line 1, so it cannot pass on a known tail
        for name, rewrite in sorted(BROKEN.items()):
            path = tmp_path / "broken.jsonl"
            lines = base_lines[:3] + [rewrite(base_lines[0], None)] + base_lines[4:6]
            path.write_text("\n".join(lines) + "\n")
            assert _error_like_the_reference(reader, str(path))[0] == 4, name
            assert len(_outcome(read_records(str(path)))[0]) == 3, name

    def test_counting_reader_yields_a_kind_of_its_own_before_a_later_error(self, base_lines, tmp_path):
        # line 2 has spaces, so it is parsed whole and counted at once; line 5 is garbled
        lines = [base_lines[0], json.dumps(json.loads(base_lines[1])), *base_lines[2:4], "{not json", base_lines[5]]
        path = tmp_path / "lazy.jsonl"
        path.write_text("\n".join(lines) + "\n")
        pairs = read_record_counts(str(path))
        assert next(pairs) == (_outcome(read_records_reference(str(path)))[0][1], 1)
        with pytest.raises(RecordFormatError) as info:
            next(pairs)
        assert info.value.line_number == 5

    def test_library_reader_loads_no_cli(self, tmp_path):
        out = simulate(tmp_path, trials=300, seed=9)
        result = tmp_path / "read.pickle"
        probe = ("import pickle, sys\n"
                 "from swapsim.records import read_record_chunks\n"
                 "records = [record for chunk in read_record_chunks(sys.argv[1]) for record in chunk.records()]\n"
                 "with open(sys.argv[2], 'wb') as handle:\n"
                 "    pickle.dump((records, sorted(sys.modules)), handle)\n")
        proc = subprocess.run([sys.executable, "-c", probe, str(out), str(result)], env=_probe_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        records, modules = pickle.loads(result.read_bytes())
        cfg = ExperimentConfig(angles0=(0.0, 45.0), angles3=(22.5, 67.5), trials=300, seed=9)
        assert records == list(run_batch(cfg))
        assert [name for name in ("swapsim.cli", "argparse") if name in modules] == []

    def test_repeated_tail_with_second_trial_id_keeps_the_tail_id(self, base_lines, tmp_path):
        line = base_lines[0][:-1] + ',"trial_id":7}'
        path = tmp_path / "dup.jsonl"
        path.write_text(_with_id(line, "1") + "\n" + _with_id(line, "2") + "\n")
        assert [record.trial_id for record in read_records(str(path))] == [7, 7]

    @pytest.mark.parametrize("select", ["none", "psi-minus", "other"])
    def test_analyze_of_fuzzed_files_matches_chsh_of_the_reference(self, base_lines, select,
                                                                 tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(swapsim.records, "CHUNK", 7)
        selection = SelectionFilter.none() if select == "none" else SelectionFilter.bsm_equals(select)
        for seed in range(2 * len(BROKEN) + 8):
            path = self._fuzzed(base_lines, seed, tmp_path)
            try:
                report = chsh(read_records_reference(path), selection)
                want = (0, cli._render_report_doc(report.to_json_dict()))
            except RecordFormatError:
                want = (3, "")
            except InsufficientDataError:
                want = (4, "")
            capsys.readouterr()
            code = main(["analyze", "--in", path, "--select", select])
            assert (code, capsys.readouterr().out) == want, seed

    def test_discard_of_fuzzed_files_matches_apply_discard_of_the_reference(self, base_lines, tmp_path,
                                                                           monkeypatch, capsys):
        monkeypatch.setattr(swapsim.records, "CHUNK", 7)
        for seed in range(2 * len(BROKEN) + 8):
            path = self._fuzzed(base_lines, seed, tmp_path)
            out = tmp_path / f"kept{seed}.jsonl"
            capsys.readouterr()
            code = main(["classical", "discard", "--rule", "quantum-mimic", "--seed", str(seed),
                         "--in", path, "--out", str(out)])
            try:
                kept, fraction = apply_discard(read_records_reference(path), quantum_mimic_rule(), seed=seed)
            except RecordFormatError:
                assert code == 3 and not out.exists(), seed
                continue
            assert code == 0, seed
            assert out.read_text() == "".join(swapsim.records._record_line(record) for record in kept), seed
            summary = json.loads(capsys.readouterr().out)
            assert (summary["kept"], summary["keep_fraction"]) == (len(kept), cli._round12(fraction))
        assert list(tmp_path.glob("*.tmp")) == []

    @pytest.mark.parametrize("reader", READERS)
    def test_garbled_line_after_a_full_chunk_keeps_its_number(self, reader, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(swapsim.records, "CHUNK", 4)
        records = simulate(tmp_path, trials=10)
        lines = records.read_text().splitlines()
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines[:6] + ["", "{not json"] + lines[6:]) + "\n")
        capsys.readouterr()
        assert main(["analyze", "--in", str(bad)]) == 3
        assert "line 8:" in capsys.readouterr().err
        assert _error_like_the_reference(reader, str(bad))[0] == 8


# The argv of every writer, by the name of the file it writes; discard reads the file named after --in.
WRITERS = {
    **{f"simulate-{ordering}-{mode}": ["simulate", "--ordering", ordering, "--bsm-mode", mode, "--visibility", "0.8"]
       for ordering in ("bsm-first", "pol-first") for mode in ("full", "partial")},
    **{f"generate-{model}": ["classical", "generate", "--model", model] for model in ("fourier", "sign", "uniform")},
    "discard-mimic": ["classical", "discard", "--rule", "quantum-mimic", "--in", "generate-uniform"],
    "discard-pr-box": ["classical", "discard", "--rule", "pr-box", "--in", "simulate-pol-first-partial"],
}


class TestRecordCounts:
    """The counting reader gives the chunk reader's records summed per template, on the files of every writer."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("writers")
        for name, argv in WRITERS.items():
            if argv[0] == "classical" and argv[1] == "discard":
                argv = [*argv[:-1], str(tmp / argv[-1]), "--seed", "5"]
            else:
                argv = [*argv, "--trials", str(swapsim.records.CHUNK + 500), "--seed", "5"]
            assert main([*argv, "--out", str(tmp / name)]) == 0, name
        return tmp

    @pytest.mark.parametrize("name", sorted(WRITERS))
    def test_counts_are_the_chunks_summed_per_template(self, files, name):
        want = Counter(chunk.templates[kind] for chunk in read_record_chunks(str(files / name))
                       for kind in chunk.kinds)
        pairs = list(read_record_counts(str(files / name)))
        got = Counter()
        for record, count in pairs:
            got[record] += count
        assert got == want and len(pairs) == len(want)  # each kind once
        assert sum(want.values()) == len((files / name).read_text().splitlines())


# Garbled values of one field of a record, given its document.  A reader that
# coerced would accept each: int() takes the index 2 and turns the others back
# into the document's own value, float() takes a string or a bool for an
# angle, and str() and tuple() take a number for a label and a string for the
# events; an infinite angle passes any coercion, and float() of an integer
# past the largest double raises OverflowError, which is no format error.
GARBLED = {
    "setting-index-2": lambda doc: ("setting0_index", 2),
    "setting-index-fraction": lambda doc: ("setting0_index", doc["setting0_index"] + 0.25),
    "setting-index-string": lambda doc: ("setting3_index", str(doc["setting3_index"])),
    "outcome-fraction": lambda doc: ("outcome0", doc["outcome0"] * 1.5),
    "id-fraction": lambda doc: ("trial_id", doc["trial_id"] + 0.9),
    "angle-infinite": lambda doc: ("setting0_deg", math.inf),
    "angle-minus-infinite": lambda doc: ("setting3_deg", -math.inf),
    "angle-string": lambda doc: ("setting0_deg", str(doc["setting0_deg"])),
    "angle-bool": lambda doc: ("setting3_deg", True),
    "angle-past-float": lambda doc: ("setting0_deg", 10**400),
    "label-number": lambda doc: ("bsm", 5),
    "events-string": lambda doc: ("events", "xyz"),
    "events-number": lambda doc: ("events", [5]),
}


class TestGarbledFields:
    """A garbled field fails where its line is parsed, in every command that reads records."""

    @pytest.mark.parametrize("name", sorted(GARBLED))
    @pytest.mark.parametrize("command", ["analyze", "pr-box", "quantum-mimic"])
    @pytest.mark.parametrize("source", ["simulate", "generate"])
    def test_exits_3_naming_the_line(self, source, name, command, tmp_path, capsys):
        if source == "simulate":
            records = simulate(tmp_path, trials=5)
        else:
            records = tmp_path / "lhv.jsonl"
            assert main(["classical", "generate", "--trials", "5", "--seed", "3", "--out", str(records)]) == 0
        lines = records.read_text().splitlines()
        lines[1] = _with_field(lines[1], *GARBLED[name](json.loads(lines[1])))
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        kept = tmp_path / "kept.jsonl"
        if command == "analyze":
            argv = ["analyze", "--in", str(bad)]
        else:
            argv = ["classical", "discard", "--rule", command, "--in", str(bad), "--out", str(kept)]
        capsys.readouterr()
        assert main(argv) == 3
        assert "line 2:" in capsys.readouterr().err
        assert not kept.exists()
        for reader in READERS:
            assert _error_like_the_reference(reader, str(bad))[0] == 2, reader


    @pytest.mark.parametrize("command", ["analyze", "pr-box", "quantum-mimic"])
    def test_classical_events_must_be_empty(self, command, tmp_path, capsys):
        # only a classical record keeps no events, so a rewrite would drop them
        records = tmp_path / "lhv.jsonl"
        assert main(["classical", "generate", "--trials", "6", "--seed", "3", "--out", str(records)]) == 0
        lines = [_with_field(line, "events", ["bsm", "pol0"]) for line in records.read_text().splitlines()]
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        kept = tmp_path / "kept.jsonl"
        if command == "analyze":
            argv = ["analyze", "--in", str(bad)]
        else:
            argv = ["classical", "discard", "--rule", command, "--in", str(bad), "--out", str(kept)]
        capsys.readouterr()
        assert main(argv) == 3
        assert "line 1: a classical record's events must be empty" in capsys.readouterr().err
        assert not kept.exists()
        for reader in READERS:
            assert _error_like_the_reference(reader, str(bad))[0] == 1, reader


class TestNotUtf8:
    """A byte that is not UTF-8 fails its own line, after the records above it, in every command that reads."""

    @staticmethod
    def _with_bad_byte(records: Path, where: str, tmp_path: Path) -> Path:
        lines = records.read_bytes().split(b"\n")
        line = bytearray(lines[3])
        # the tail's label, or the first digit of the id: line 4 lies inside the reader's first 8 KB buffer
        line[line.index(b'"bsm":"') + 7 if where == "tail" else len(b'{"trial_id":')] = 0xFF
        lines[3] = bytes(line)
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\n".join(lines))
        return bad

    @pytest.mark.parametrize("where", ["tail", "id"])
    def test_records_above_the_bad_line_are_yielded(self, where, tmp_path):
        records = simulate(tmp_path, trials=300)
        got, error = _outcome(read_records(str(self._with_bad_byte(records, where, tmp_path))))
        assert got == list(read_records(str(records)))[:3]
        assert error == (4, "line 4: byte 0xff is not UTF-8")

    @pytest.mark.parametrize("where", ["tail", "id"])
    @pytest.mark.parametrize("reader", READERS)
    def test_both_readers_fail_on_its_line(self, reader, where, tmp_path):
        # the reference reads strict UTF-8, so it has no line for this error
        bad = self._with_bad_byte(simulate(tmp_path, trials=300), where, tmp_path)
        assert _read(reader, str(bad))[1] == (4, "line 4: byte 0xff is not UTF-8")

    @pytest.mark.parametrize("where", ["tail", "id"])
    @pytest.mark.parametrize("command", ["analyze", "pr-box", "quantum-mimic"])
    def test_exits_3_naming_the_line(self, command, where, tmp_path, capsys):
        bad = self._with_bad_byte(simulate(tmp_path, trials=300), where, tmp_path)
        kept = tmp_path / "kept.jsonl"
        if command == "analyze":
            argv = ["analyze", "--in", str(bad)]
        else:
            argv = ["classical", "discard", "--rule", command, "--in", str(bad), "--out", str(kept)]
        capsys.readouterr()
        assert main(argv) == 3
        assert "line 4: byte 0xff is not UTF-8" in capsys.readouterr().err
        assert not kept.exists()


class TestAtomicWrites:
    def test_failed_manifest_leaves_the_records_as_they_were(self, tmp_path, capsys):
        records = simulate(tmp_path, "runs.jsonl", trials=50)
        before = records.read_bytes()
        manifest = tmp_path / "runs.jsonl.manifest.json"
        manifest.unlink()
        manifest.mkdir()
        capsys.readouterr()
        assert main(["simulate", "--trials", "60", "--seed", "7", "--out", str(records)]) == 3
        assert "i/o error" in capsys.readouterr().err
        assert records.read_bytes() == before
        assert manifest.is_dir() and list(tmp_path.glob("*.tmp")) == []

    @pytest.mark.parametrize("old_manifest", [False, True], ids=["no-manifest", "old-manifest"])
    def test_failed_records_leave_the_manifest_as_it_was(self, old_manifest, tmp_path, capsys):
        records = simulate(tmp_path, "runs.jsonl", trials=50)
        manifest = tmp_path / "runs.jsonl.manifest.json"
        before = manifest.read_bytes()
        if not old_manifest:
            manifest.unlink()
        records.unlink()
        records.mkdir()
        capsys.readouterr()
        assert main(["simulate", "--trials", "60", "--seed", "7", "--out", str(records)]) == 3
        assert "i/o error" in capsys.readouterr().err
        if old_manifest:
            assert manifest.read_bytes() == before
        else:
            assert not manifest.exists()
        assert records.is_dir() and list(tmp_path.glob("*.tmp")) == []

    @pytest.mark.parametrize("old_manifest", [False, True], ids=["no-manifest", "old-manifest"])
    @pytest.mark.parametrize("command", ["simulate", "generate"])
    def test_failed_record_stream_leaves_both_files_as_they_were(self, command, old_manifest, tmp_path,
                                                                 monkeypatch, capsys):
        records = tmp_path / "runs.jsonl"
        manifest = tmp_path / "runs.jsonl.manifest.json"
        prefix = ["simulate"] if command == "simulate" else ["classical", "generate"]
        assert main([*prefix, "--trials", "50", "--seed", "3", "--out", str(records)]) == 0
        before = records.read_bytes(), manifest.read_bytes()
        if not old_manifest:
            manifest.unlink()
        module, name = (swapsim.protocol, "run_chunks") if command == "simulate" else (swapsim.classical, "lhv_chunks")
        stream = getattr(module, name)
        written = []

        def fails_after_one_chunk(*args):
            chunk = next(stream(*args))
            yield chunk
            written.append(len(chunk.trial_ids))  # the writer has taken the chunk's rows
            raise OSError("no space left on device")

        monkeypatch.setattr(module, name, fails_after_one_chunk)
        capsys.readouterr()
        assert main([*prefix, "--trials", "60", "--seed", "7", "--out", str(records)]) == 3
        assert "i/o error" in capsys.readouterr().err
        assert written == [60]
        assert records.read_bytes() == before[0]
        if old_manifest:
            assert manifest.read_bytes() == before[1]
        else:
            assert not manifest.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)],
                             ids=["022", "077", "002"])
    def test_new_files_get_the_mode_open_would_give(self, umask, mode, tmp_path):
        report = tmp_path / "report.json"
        previous = os.umask(umask)
        try:
            records = simulate(tmp_path, "runs.jsonl", trials=20)
            assert main(["analyze", "--in", str(records), "--out", str(report)]) == 0
        finally:
            os.umask(previous)
        for path in (records, tmp_path / "runs.jsonl.manifest.json", report):
            assert stat.S_IMODE(path.stat().st_mode) == mode, path


# Runs one command in a fresh interpreter as the console script does, then
# writes to the file in argv[1], as JSON, the names in sys.modules, the BLAS
# thread variable and the process's OS thread count (None off Linux).
_PROBE = """
import json, os, sys
from swapsim.cli import main
code = main(sys.argv[2:])
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
with open(sys.argv[1], "w") as out:
    json.dump({"modules": sorted(sys.modules), "blas": os.environ.get("OPENBLAS_NUM_THREADS"),
               "tasks": tasks}, out)
sys.exit(code)
"""


def _probe_env(**extra) -> dict:
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("OPENBLAS_NUM_THREADS", None)  # main() run by other tests in this process sets it
    return env | extra


def _probe(workdir: Path, argv: list[str], env: dict) -> dict:
    result = workdir / "probe.json"
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(result), *argv],
                          cwd=workdir, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text())


_NUMERIC = ("numpy", "swapsim.protocol", "swapsim.measure", "swapsim.qstate", "swapsim.entanglement",
            "swapsim.classical")
_QUANTUM = ("swapsim.classical", "swapsim.discard")
# np.unique imports numpy.ma lazily; sampling finds its branches without it
_SAMPLING = _QUANTUM + ("numpy.ma", "logging")
# only the summary report's stage entanglement needs the witnesses
_NO_STAGES = _SAMPLING + ("swapsim.entanglement",)
# the classical engine reaches the Philox kernel in swapsim.rng, not through the quantum stack
_CLASSICAL = ("swapsim.protocol", "swapsim.entanglement", "swapsim.measure", "swapsim.qstate", "logging")
# only analyze, report and blind-check tally records
_NO_TALLY = ("swapsim.analysis",)
# discard needs the rules, not the hidden-variable engine, and the engine needs no rules
_DISCARD = _CLASSICAL + _NO_TALLY + ("swapsim.classical",)
_NO_RULES = ("swapsim.discard",)
# no swapsim class is a dataclass; numpy loads inspect itself, so only the stdlib commands go without it
_NO_DATACLASSES = ("dataclasses",)
_NO_INTROSPECTION = _NO_DATACLASSES + ("inspect",)
# only the Fourier model's coefficients are drawn by numpy.random: blind-check and generate --model fourier
_NO_NUMPY_RANDOM = ("numpy.random",)


class TestImportGraph:
    """Each command loads only the modules it runs; analyze needs neither numpy nor an engine.

    Only the commands that tally load analysis, and discard loads the rules without the classical engine.
    No command loads dataclasses; analyze and --version load no inspect either.
    """

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("imports")
        assert main(["simulate", "--trials", "300", "--seed", "4", "--out", str(path / "runs.jsonl")]) == 0
        assert main(["classical", "generate", "--trials", "300", "--out", str(path / "lhv.jsonl")]) == 0
        assert main(["classical", "discard", "--rule", "pr-box", "--in", str(path / "lhv.jsonl"),
                     "--out", str(path / "kept.jsonl")]) == 0
        return path

    @pytest.mark.parametrize("argv, forbidden", [
        ("analyze --in runs.jsonl --select psi-minus", _NUMERIC + _NO_INTROSPECTION + _NO_NUMPY_RANDOM),
        ("analyze --in kept.jsonl", _NUMERIC + _NO_INTROSPECTION + _NO_NUMPY_RANDOM),
        ("--version", _NUMERIC + _NO_TALLY + _NO_INTROSPECTION + _NO_NUMPY_RANDOM),
        ("simulate --trials 50 --out sim.jsonl", _NO_STAGES + _NO_TALLY + _NO_DATACLASSES + _NO_NUMPY_RANDOM),
        ("report --trials 2000", _SAMPLING + _NO_DATACLASSES + _NO_NUMPY_RANDOM),
        ("report --exact --scan --scan-step 45", _NO_STAGES + _NO_DATACLASSES + _NO_NUMPY_RANDOM),
        ("report --scan --trials 2000", _NO_STAGES + _NO_DATACLASSES + _NO_NUMPY_RANDOM),
        ("classical generate --trials 50 --out gen.jsonl",
         _CLASSICAL + _NO_TALLY + _NO_RULES + _NO_DATACLASSES + _NO_NUMPY_RANDOM),
        ("classical discard --rule quantum-mimic --in lhv.jsonl --out mimic.jsonl",
         _DISCARD + _NO_DATACLASSES + _NO_NUMPY_RANDOM),
        ("classical blind-check --trials 200 --models 2", _CLASSICAL + _NO_RULES + _NO_DATACLASSES),
    ])
    def test_command_loads_none_of_the_forbidden_modules(self, workdir, argv, forbidden):
        modules = set(_probe(workdir, argv.split(), _probe_env())["modules"])
        assert "swapsim.cli" in modules
        assert sorted(name for name in forbidden if name in modules) == []

    def test_summary_report_loads_the_witnesses(self, workdir):
        assert "swapsim.entanglement" in _probe(workdir, ["report", "--trials", "200"], _probe_env())["modules"]


def _switchable_openblas() -> bool:
    """Whether OPENBLAS_CORETYPE picks numpy's BLAS kernel here.

    That needs x86-64, an OpenBLAS built with DYNAMIC_ARCH, and AVX2 to run the Haswell kernel.
    """
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its configuration
        return False
    blas = config.get("Build Dependencies", {}).get("blas", {})
    simd = set(config.get("SIMD Extensions", {}).get("found") or ())
    return ("openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")
            and bool(simd & {"AVX2", "X86_V3"}))


class TestBlasThreads:
    """The CLI runs BLAS on one thread unless the user set OPENBLAS_NUM_THREADS; the library sets nothing."""

    ARGV = ["report", "--trials", "200"]

    def test_cli_defaults_to_one_thread(self, tmp_path):
        got = _probe(tmp_path, self.ARGV, _probe_env())
        assert got["blas"] == "1"
        if sys.platform.startswith("linux"):
            assert got["tasks"] == 1

    def test_explicit_setting_wins(self, tmp_path):
        assert _probe(tmp_path, self.ARGV, _probe_env(OPENBLAS_NUM_THREADS="2"))["blas"] == "2"

    def test_blind_check_bytes_do_not_depend_on_the_thread_count(self, tmp_path):
        # the shared-basis product is a BLAS call; its certified fallback
        # bound makes every decision independent of the summation order
        argv = [sys.executable, "-m", "swapsim.cli", "classical", "blind-check", "--models", "4",
                "--trials", "20000", "--seed", "3"]
        stdout = []
        for threads in ("1", "2"):
            proc = subprocess.run(argv, cwd=tmp_path, env=_probe_env(OPENBLAS_NUM_THREADS=threads),
                                  capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            stdout.append(proc.stdout)
        assert stdout[0] == stdout[1]

    @pytest.mark.parametrize("argv", ["report --exact", "report --exact --scan --visibility 0.9"])
    def test_exact_report_bytes_do_not_depend_on_the_thread_count(self, tmp_path, argv):
        # each branch's products and norm are one BLAS call of its own, at any batch size
        stdout = []
        for threads in ("1", "2"):
            proc = subprocess.run([sys.executable, "-m", "swapsim.cli", *argv.split()], cwd=tmp_path,
                                  env=_probe_env(OPENBLAS_NUM_THREADS=threads), capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            stdout.append(proc.stdout)
        assert stdout[0] == stdout[1]

    @pytest.mark.skipif(not _switchable_openblas(), reason="needs x86-64 numpy on a DYNAMIC_ARCH OpenBLAS and AVX2")
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 13: the exact summary's float dust depends on the OpenBLAS kernel")
    def test_exact_report_bytes_do_not_depend_on_the_blas_kernel(self, tmp_path):
        outputs = {}
        for argv in ("report --exact", "report --exact --visibility 0.8 --ordering pol-first"):
            for core in ("Haswell", "Sandybridge", "Prescott"):
                proc = subprocess.run([sys.executable, "-m", "swapsim.cli", *argv.split()], cwd=tmp_path, check=True,
                                      env=_probe_env(OPENBLAS_CORETYPE=core), capture_output=True, timeout=120)
                outputs.setdefault(argv, set()).add(proc.stdout)
        assert {argv: len(distinct) for argv, distinct in outputs.items()} == dict.fromkeys(outputs, 1)

    def test_importing_the_library_sets_nothing(self):
        probe = "import os, swapsim.protocol; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
        proc = subprocess.run([sys.executable, "-c", probe], env=_probe_env(), capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "None\n"


# Runs console_main as the console script does, with an atexit handler that
# reports whether the heap was frozen and the collector left on.
_EXIT_PROBE = """
import atexit, gc, sys
from swapsim.cli import console_main
atexit.register(lambda: print("atexit: frozen", gc.get_freeze_count() > 0, "enabled", gc.isenabled()))
sys.argv[0] = "swapsim"
console_main()
"""


class TestExitPath:
    """console_main freezes the heap before exit; bytes, exit codes and atexit stay what main gives."""

    @staticmethod
    def _run(cwd, argv):
        return subprocess.run([sys.executable, "-m", "swapsim.cli", *argv], cwd=cwd, env=_probe_env(),
                              capture_output=True, timeout=120)

    def test_simulate_writes_the_bytes_main_writes(self, tmp_path, monkeypatch, capsys):
        argv = ["simulate", "--trials", "300", "--seed", "8", "--out", "runs.jsonl"]
        for side in ("cli", "main"):
            (tmp_path / side).mkdir()
        proc = self._run(tmp_path / "cli", argv)
        assert proc.returncode == 0, proc.stderr
        monkeypatch.chdir(tmp_path / "main")
        assert main(argv) == 0
        assert proc.stdout == capsys.readouterr().out.encode()
        for name in ("runs.jsonl", "runs.jsonl.manifest.json"):
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "main" / name).read_bytes(), name

    def test_exact_report_writes_the_bytes_main_writes(self, tmp_path, capsys):
        proc = self._run(tmp_path, ["report", "--exact"])
        assert proc.returncode == 0, proc.stderr
        assert main(["report", "--exact"]) == 0
        assert proc.stdout == capsys.readouterr().out.encode()

    @pytest.mark.parametrize("argv, code", [
        (["simulate", "--no-such-flag"], 2),
        (["analyze", "--in", "missing.jsonl"], 3),
        (["analyze", "--in", "empty.jsonl"], 4),
    ], ids=["bad-flag", "missing-file", "empty-file"])
    def test_exit_codes_survive_the_console_entry(self, tmp_path, monkeypatch, argv, code):
        (tmp_path / "empty.jsonl").write_text("")
        proc = self._run(tmp_path, argv)
        assert proc.returncode == code, proc.stderr
        monkeypatch.chdir(tmp_path)
        assert main(argv) == code

    @pytest.mark.parametrize("argv, code, output", [(["--version"], 0, "swapsim "), (["analyze"], 2, "")])
    def test_console_main_freezes_the_heap_and_still_runs_atexit(self, tmp_path, argv, code, output):
        proc = subprocess.run([sys.executable, "-c", _EXIT_PROBE, *argv], cwd=tmp_path, env=_probe_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, proc.stderr
        assert proc.stdout.startswith(output) and proc.stdout.endswith("atexit: frozen True enabled True\n")

    @staticmethod
    def _signalled(tmp_path, signum) -> tuple[int, str]:
        """Exit status and stderr of a batch too long to finish, sent ``signum`` once its first temporary file exists.

        The child starts with SIGINT and SIGHUP at their defaults, as a shell's
        foreground job does, even where this process ignores them (a
        background or nohup run), which the child would inherit.
        """
        def default_signals():
            for signum in (signal.SIGINT, signal.SIGHUP):
                signal.signal(signum, signal.SIG_DFL)

        argv = [sys.executable, "-m", "swapsim.cli", "simulate", "--trials", "100000000", "--out", "runs.jsonl"]
        proc = subprocess.Popen(argv, cwd=tmp_path, env=_probe_env(), stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, preexec_fn=default_signals)
        try:
            deadline = time.monotonic() + 60
            while not list(tmp_path.glob("*.tmp")):
                assert proc.poll() is None and time.monotonic() < deadline, "no temporary file appeared"
                time.sleep(0.005)
            proc.send_signal(signum)
            _, stderr = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait(timeout=60)
        return proc.returncode, stderr.decode()

    @pytest.mark.skipif(os.name != "posix", reason="SIGTERM is delivered by POSIX kill")
    def test_sigterm_leaves_no_temporary_file_and_exits_143(self, tmp_path):
        code, stderr = self._signalled(tmp_path, signal.SIGTERM)
        assert code == 143, stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(os.name != "posix", reason="SIGHUP is POSIX only")
    def test_sighup_leaves_no_temporary_file_and_exits_129(self, tmp_path):
        code, stderr = self._signalled(tmp_path, signal.SIGHUP)
        assert code == 129, stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(os.name != "posix", reason="SIGINT is delivered by POSIX kill")
    def test_ctrl_c_leaves_no_temporary_file_and_exits_130_with_one_line(self, tmp_path):
        code, stderr = self._signalled(tmp_path, signal.SIGINT)
        assert (code, stderr) == (130, "swapsim: interrupted\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(os.name != "posix", reason="SIGHUP is POSIX only")
    def test_an_ignored_hangup_stays_ignored(self, tmp_path):
        probe = ("import signal, sys\n"
                 "signal.signal(signal.SIGHUP, signal.SIG_IGN)\n"
                 "from swapsim import cli\n"
                 "cli.main = lambda: print(signal.getsignal(signal.SIGHUP) is signal.SIG_IGN) or 0\n"
                 "cli.console_main()\n")
        proc = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=_probe_env(), capture_output=True,
                              text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "True\n"), proc.stderr

    def test_in_process_main_leaves_the_collector_alone(self, tmp_path, capsys):
        before = gc.get_freeze_count(), gc.isenabled()
        assert main(["simulate", "--trials", "50", "--out", str(tmp_path / "runs.jsonl")]) == 0
        assert main(["analyze", "--in", str(tmp_path / "runs.jsonl")]) == 0
        assert main(["simulate"]) == 2
        assert (gc.get_freeze_count(), gc.isenabled()) == before


@pytest.mark.skipif(shutil.which("swapsim") is None, reason="console script not installed")
class TestConsoleScript:
    def test_version_subprocess(self):
        proc = subprocess.run(["swapsim", "--version"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("swapsim ")

    def test_simulate_subprocess_honors_env_seed(self, tmp_path):
        out = tmp_path / "records.jsonl"
        proc = subprocess.run(
            ["swapsim", "simulate", "--trials", "100", "--out", str(out), "--threads", "1"],
            capture_output=True, text=True, env={"PATH": "/usr/local/bin:/usr/bin:/bin",
                                                 "SWAPSIM_SEED": "31"},
        )
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((tmp_path / "records.jsonl.manifest.json").read_text())
        assert manifest["seed"] == 31
        cfg = ExperimentConfig(angles0=(0.0, 45.0), angles3=(22.5, 67.5),
                               trials=100, seed=31)
        assert list(read_records(str(out))) == list(run_batch(cfg))
