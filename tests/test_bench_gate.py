"""The benchmark's byte gate, run in-process on every workload pipeline.

Each pipeline in bench/workloads.WORKLOADS runs through swapsim.cli.main in
a temporary directory, and every step must pass workloads.gate_step
against bench/golden.json: the same output digests and CHSH bounds the
benchmark applies to each of its repetitions.  bench/ is only read.
"""

import sys
from pathlib import Path

import pytest

from swapsim.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402

GOLDEN = workloads.load_golden()


@pytest.mark.parametrize("seed", [0, 31, 63])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_the_gate(name, seed, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    workload = workloads.WORKLOADS[name]
    for index, step in enumerate(workload.steps):
        capsys.readouterr()
        exit_code = main(step.args(seed))
        stdout = capsys.readouterr().out.encode("utf-8")
        assert workloads.gate_step(GOLDEN, workload, seed, index, exit_code, stdout, tmp_path) == [], step.argv
