import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import read_records_reference
from swapsim import cli
from swapsim.analysis import InsufficientDataError, SelectionFilter, chsh
from swapsim.classical import ClassicalRecord, apply_discard, quantum_mimic_rule
from swapsim.cli import RecordFormatError, iter_records_file, main
from swapsim.protocol import ExperimentConfig, TrialRecord, run_batch


def round12(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: round12(v) for k, v in value.items()}
    if isinstance(value, list):
        return [round12(v) for v in value]
    return value


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
        assert list(iter_records_file(str(out))) == list(run_batch(cfg))

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
        records = list(iter_records_file(str(out)))
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

    def test_garbled_line_reports_its_number(self, tmp_path, capsys):
        records = simulate(tmp_path, trials=5)
        bad = tmp_path / "bad.jsonl"
        lines = records.read_text().splitlines()
        bad.write_text(lines[0] + "\n" + "{not json\n" + lines[1] + "\n")
        assert main(["analyze", "--in", str(bad)]) == 3
        assert "line 2" in capsys.readouterr().err

    def test_semantically_broken_record_reports_its_number(self, tmp_path, capsys):
        records = simulate(tmp_path, trials=5)
        doc = json.loads(records.read_text().splitlines()[0])
        doc["outcome0"] = 3
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(doc) + "\n")
        assert main(["analyze", "--in", str(bad)]) == 3
        assert "line 1" in capsys.readouterr().err

    def test_missing_file_is_an_io_error(self, tmp_path, capsys):
        assert main(["analyze", "--in", str(tmp_path / "nope.jsonl")]) == 3
        assert "i/o error" in capsys.readouterr().err

    def test_blank_lines_are_skipped(self, tmp_path):
        records = simulate(tmp_path, trials=200)
        padded = tmp_path / "padded.jsonl"
        padded.write_text(records.read_text().replace("\n", "\n\n") + "\n\n")
        assert len(list(iter_records_file(str(padded)))) == 200


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
        record_line = cli._record_line

        def render_then_fail(record):
            rendered.append(record)
            if len(rendered) == 3:
                raise OSError("no space left on device")
            return record_line(record)

        monkeypatch.setattr(cli, "_record_line", render_then_fail)
        capsys.readouterr()
        code = main(["classical", "discard", "--rule", "pr-box", "--in", str(lhv), "--out", str(kept_path)])
        assert code == 3
        assert "i/o error" in capsys.readouterr().err
        assert len(rendered) == 3
        assert kept_path.read_bytes() == b"earlier kept records\n"
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
        kept_records = list(iter_records_file(str(kept_path)))
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
        records = list(iter_records_file(str(mixed)))
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
}


def _outcome(records):
    """(records read, (line number, message) of the RecordFormatError or None)."""
    got = []
    try:
        for record in records:
            got.append(record)
    except RecordFormatError as exc:
        return got, (exc.line_number, str(exc))
    return got, None


class TestRecordReader:
    """The columnar reader against the line-by-line json.loads reference."""

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

    @pytest.mark.parametrize("chunk, max_tails", [(7, 2), (7, cli._MAX_TAILS), (cli.CHUNK, cli._MAX_TAILS)])
    def test_fuzzed_files_read_like_the_reference(self, base_lines, chunk, max_tails, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "CHUNK", chunk)
        monkeypatch.setattr(cli, "_MAX_TAILS", max_tails)
        errors = 0
        for seed in range(2 * len(BROKEN) + 8):
            path = self._fuzzed(base_lines, seed, tmp_path)
            want = _outcome(read_records_reference(path))
            assert _outcome(iter_records_file(path)) == want, seed
            errors += want[1] is not None
        assert errors == len(BROKEN) + 4

    def test_every_broken_rewrite_fails_on_its_line(self, base_lines, tmp_path):
        # the broken line's tail is known from line 1, so it cannot pass on a known tail
        for name, rewrite in sorted(BROKEN.items()):
            path = tmp_path / "broken.jsonl"
            lines = base_lines[:3] + [rewrite(base_lines[0], None)] + base_lines[4:6]
            path.write_text("\n".join(lines) + "\n")
            got, error = _outcome(iter_records_file(str(path)))
            assert (got, error) == _outcome(read_records_reference(str(path))), name
            assert len(got) == 3 and error[0] == 4, name

    def test_repeated_tail_with_second_trial_id_keeps_the_tail_id(self, base_lines, tmp_path):
        line = base_lines[0][:-1] + ',"trial_id":7}'
        path = tmp_path / "dup.jsonl"
        path.write_text(_with_id(line, "1") + "\n" + _with_id(line, "2") + "\n")
        assert [record.trial_id for record in iter_records_file(str(path))] == [7, 7]

    @pytest.mark.parametrize("select", ["none", "psi-minus", "other"])
    def test_analyze_of_fuzzed_files_matches_chsh_of_the_reference(self, base_lines, select,
                                                                 tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "CHUNK", 7)
        selection = cli._FILTERS[select]()
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
        monkeypatch.setattr(cli, "CHUNK", 7)
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
            assert out.read_text() == "".join(cli._record_line(record) for record in kept), seed
            summary = json.loads(capsys.readouterr().out)
            assert (summary["kept"], summary["keep_fraction"]) == (len(kept), cli._round12(fraction))
        assert list(tmp_path.glob("*.tmp")) == []

    def test_garbled_line_after_a_full_chunk_keeps_its_number(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "CHUNK", 4)
        records = simulate(tmp_path, trials=10)
        lines = records.read_text().splitlines()
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines[:6] + ["", "{not json"] + lines[6:]) + "\n")
        capsys.readouterr()
        assert main(["analyze", "--in", str(bad)]) == 3
        assert "line 8:" in capsys.readouterr().err


# Runs one command in a fresh interpreter as the console script does, then
# writes the names in sys.modules, one per line, to the file in argv[1].
_MODULES_PROBE = """
import sys
from swapsim.cli import main
code = main(sys.argv[2:])
with open(sys.argv[1], "w") as out:
    out.write("\\n".join(sorted(sys.modules)))
sys.exit(code)
"""

_NUMERIC = ("numpy", "swapsim.protocol", "swapsim.measure", "swapsim.qstate", "swapsim.entanglement",
            "swapsim.classical")
_QUANTUM = ("swapsim.classical",)
_CLASSICAL = ("swapsim.protocol", "swapsim.entanglement")


class TestImportGraph:
    """Each command loads only the modules it runs; analyze needs neither numpy nor an engine."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("imports")
        assert main(["simulate", "--trials", "300", "--seed", "4", "--out", str(path / "runs.jsonl")]) == 0
        assert main(["classical", "generate", "--trials", "300", "--out", str(path / "lhv.jsonl")]) == 0
        assert main(["classical", "discard", "--rule", "pr-box", "--in", str(path / "lhv.jsonl"),
                     "--out", str(path / "kept.jsonl")]) == 0
        return path

    @pytest.mark.parametrize("argv, forbidden", [
        ("analyze --in runs.jsonl --select psi-minus", _NUMERIC),
        ("analyze --in kept.jsonl", _NUMERIC),
        ("--version", _NUMERIC),
        ("simulate --trials 50 --out sim.jsonl", _QUANTUM),
        ("report --trials 2000", _QUANTUM),
        ("report --exact --scan --scan-step 45", _QUANTUM),
        ("classical generate --trials 50 --out gen.jsonl", _CLASSICAL),
        ("classical discard --rule quantum-mimic --in lhv.jsonl --out mimic.jsonl", _CLASSICAL),
        ("classical blind-check --trials 200 --models 2", _CLASSICAL),
    ])
    def test_command_loads_none_of_the_forbidden_modules(self, workdir, argv, forbidden):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        listing = workdir / "modules.txt"
        proc = subprocess.run([sys.executable, "-c", _MODULES_PROBE, str(listing), *argv.split()],
                              cwd=workdir, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        modules = set(listing.read_text().split("\n"))
        assert "swapsim.cli" in modules
        assert sorted(name for name in forbidden if name in modules) == []


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
        assert list(iter_records_file(str(out))) == list(run_batch(cfg))
