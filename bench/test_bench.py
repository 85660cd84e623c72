"""Tests of the benchmark itself: span arithmetic, the gate, and tracing hygiene.

Run from the repository root: python3 -m pytest -q bench
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Instrumentation, Tracer, self_times  # noqa: E402


def _tracer_from(spans, counters=()):
    """A Tracer filled by hand: spans are (name, start, end, parent, step)."""
    tracer = Tracer()
    for name, start, end, parent, step in spans:
        tracer.name.append(tracer.name_id(name))
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.step.append(step)
    for key, step, value in counters:
        tracer.counters[(key, step)] += value
    return tracer


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    # root [0,10]; a [1,4] and b [3,6] overlap; c [8,12] runs past the root;
    # g [2,3] is a's child and must not count against the root.
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    assert self_times(start, end, parent) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_layer_metrics_from_hand_built_tree():
    # analyze: the command span holds one chsh call that pulls two parsed
    # records; tally self time is the chsh span minus the parse steps.
    tracer = _tracer_from(
        [
            ("cli.cmd_analyze", 0.0, 10.0, -1, 0),
            ("analysis.chsh", 1.0, 9.0, 0, 0),
            ("cli.iter_records_file", 2.0, 3.0, 1, 0),
            ("cli.iter_records_file", 4.0, 5.0, 1, 0),
            ("cli.iter_records_file", 6.0, 6.5, 1, 0),
        ],
        counters=[("cli.iter_records_file.items", 0, 2), ("analysis.records_scanned", 0, 2),
                  ("file.bytes_read", 0, 300)],
    )
    steps = [layers.StepIO("analyze", records_written=0)]
    metrics = layers.compute(tracer, steps, build_s=0.0)
    assert metrics["analysis.tally.self_us_per_record"] == pytest.approx(5.5 / 2 * 1e6)
    assert metrics["cli.parse.us_per_record"] == pytest.approx(2.5 / 2 * 1e6)
    assert metrics["analysis.self_s"] == pytest.approx(5.5)
    assert metrics["cli.self_s"] == pytest.approx(2.0 + 2.5)
    assert metrics["cli.bytes_read"] == 300
    assert metrics["cli.bytes_written"] == 0
    assert metrics["measure.rng.streams"] == 0


def test_worker_thread_spans_hang_under_a_worker_span_of_the_main_thread_span():
    tracer = Tracer()
    outer = tracer.begin(tracer.name_id("cli.cmd_simulate"))
    run_trial = tracer.name_id("protocol.run_trial")

    def work():
        for _ in range(2):
            tracer.finish(tracer.begin(run_trial))

    worker = threading.Thread(target=work)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.finish(outer)
    assert [tracer.names[i] for i in tracer.name] == \
        ["cli.cmd_simulate", "cli.worker", "protocol.run_trial", "protocol.run_trial"]
    assert list(tracer.parent) == [-1, outer, 1, 1]
    assert tracer.start[1] <= tracer.start[2] and tracer.end[1] == tracer.end[3]


def _write(path: Path, data: bytes) -> str:
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def test_gate_flags_record_file_with_one_flipped_byte(tmp_path):
    workload = workloads.SWAP_FILE
    records = b'{"trial_id":0}\n{"trial_id":1}\n'
    stdout = b"wrote 2 records\n"
    pinned = {
        "0:stdout": hashlib.sha256(stdout).hexdigest(),
        "0:runs.jsonl": _write(tmp_path / "runs.jsonl", records),
        "0:runs.jsonl.manifest.json": _write(tmp_path / "runs.jsonl.manifest.json", b"{}\n"),
    }
    golden = {"n_trials": workloads.N_TRIALS, "digests": {"7": {workload.name: pinned}}}
    assert workloads.gate_step(golden, workload, 7, 0, 0, stdout, tmp_path) == []

    flipped = bytearray(records)
    flipped[5] ^= 0x01
    (tmp_path / "runs.jsonl").write_bytes(bytes(flipped))
    problems = workloads.gate_step(golden, workload, 7, 0, 0, stdout, tmp_path)
    assert len(problems) == 1 and problems[0].startswith("0:runs.jsonl:")


def test_gate_flags_s_outside_five_sigma(tmp_path):
    workload = workloads.SWAP_FILE
    report = json.dumps({"s": -2.5, "s_std_err": 0.01}).encode()
    golden = {"n_trials": workloads.N_TRIALS,
              "digests": {"0": {workload.name: {"1:stdout": hashlib.sha256(report).hexdigest()}}}}
    problems = workloads.gate_step(golden, workload, 0, 1, 0, report, tmp_path)
    assert len(problems) == 1 and "5 sigma" in problems[0]


def _bindings(package):
    """Identity of every attribute of every swapsim namespace, plus RandomSource methods."""
    namespaces = [package] + [getattr(package, layer) for layer in run.LAYERS]
    snapshot = {(ns.__name__, attr): id(value) for ns in namespaces for attr, value in vars(ns).items()}
    for attr, value in vars(package.measure.RandomSource).items():
        snapshot[("RandomSource", attr)] = id(value)
    return snapshot


def test_wrappers_are_removed_after_traced_run():
    package = run.import_swapsim()
    before = _bindings(package)
    config = package.ExperimentConfig(trials=3, seed=5)
    untraced = list(package.run_batch(config))

    tracer = Tracer()
    with Instrumentation(tracer, package):
        assert _bindings(package) != before
        traced = list(package.run_batch(config))
    names = {tracer.names[i] for i in tracer.name}
    assert {"protocol.run_batch", "measure.RandomSource.__init__"} <= names

    assert _bindings(package) == before
    spans = len(tracer.start)
    assert list(package.run_batch(config)) == untraced == traced
    assert len(tracer.start) == spans


def test_traced_run_counts_the_bytes_the_cli_moves(tmp_path, monkeypatch):
    package = run.import_swapsim()
    monkeypatch.chdir(tmp_path)
    tracer = Tracer()
    simulate = "simulate --trials 40 --seed 3 --threads 1 --out runs.jsonl".split()
    analyze = "analyze --in runs.jsonl --select none".split()
    with Instrumentation(tracer, package):
        tracer.current_step = 0
        assert package.cli.main(simulate) == 0
        tracer.current_step = 1
        assert package.cli.main(analyze) == 0
        tracer.current_step = 2
        assert package.cli.main(analyze) == 0
    records = (tmp_path / "runs.jsonl").stat().st_size
    manifest = (tmp_path / "runs.jsonl.manifest.json").stat().st_size
    assert tracer.counters[("file.bytes_written", 0)] == records + manifest
    # Each analyze reads the record file once; reading it twice counts twice.
    assert tracer.counters[("file.bytes_read", 1)] == records
    assert tracer.counters[("file.bytes_read", 2)] == records
    assert ("file.bytes_written", 1) not in tracer.counters
    assert not hasattr(package.cli, "open") and package.cli.os is run.os


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == \
        [tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    for entry in spec["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
