"""Golden SHA-256 digests of every record writer and of the sampled report.

The digests were produced before the vectorized sampling engine replaced
the per-trial generators, so they pin the byte contract across engine
changes: identical flags and seed must keep giving identical bytes.
N = 10 000 spans the 8192-trial chunk boundary and is not a multiple of it.

Commands run in a temporary working directory with relative paths, so the
command's standard output does not depend on where the test runs.
Manifests are not pinned; they describe a run rather than its records.
"""

import hashlib

import pytest

from swapsim.cli import main

N = 10_000
SEED = 11

SIMULATE = {
    ("bsm-first", "full", "1"): "29f10874d305c14a6215575999e35cee8b8bccb61b39e20087865d870b67cce5",
    ("bsm-first", "full", "0.8"): "b214ee29af38a30323f3061c02805f2a3708c48572deb9d6570f28a0cef74afa",
    ("bsm-first", "partial", "1"): "64c1301e5ddd434f61d464de4f6d1a8ec1a5a759d1b1fefbc2d7e8be7817e174",
    ("bsm-first", "partial", "0.8"): "cbfbe73f0cd1062ed38e4ac09a5f166b6637d46d28285a31a43a7303a9f29c14",
    ("pol-first", "full", "1"): "87fee0b6fde971cbe85bbf01140d4ed22b6bcf70f6a6a3a0bc31e0e32e6eadc6",
    ("pol-first", "full", "0.8"): "a7f3eab6631bfa7cb07ea4187d0339b3735157792ffc531815663a02a061d6e6",
    ("pol-first", "partial", "1"): "994512621f9887eb88aafa8038cef1f352d1027a615d1e9ae23d3abebbcb62c0",
    ("pol-first", "partial", "0.8"): "2e76fb6cb5426e2fbb088b1b40c76a98ad0055ae9d8bc5597010a83aeae81703",
}

GENERATE = {
    "sign": "36b7670d1bc52ffe0533c2501bc3d9d5fcf2382dbab3427d590ebb925e1d71e9",
    "uniform": "d1e603f490b54822e86f59925ef94d77c56f164fddcb134394237b7f09f6591f",
    "fourier": "704b01bfc5ac142d2dc3604b6632e3c67f8813065472eb9344ab1c59737d71ea",
}

DISCARD = {
    "pr-box": (
        "d9b1a90a6b773defae03de484ab58173430f82b1c06b15b85d95b6a9d87e54ff",
        "b1ff28e732e1d8510eaf17f62a75b510b8cc7a85cc9c9041be55d5d58d4c51cc",
    ),
    "quantum-mimic": (
        "ae438b385d88bb90a45ccd751c2f4e3aacabf959152d44ebc3e9696b3cab4749",
        "b9a0911a0817b535c79cef5d2659e6d5380b0257a64be13d2cec5cfbc813e342",
    ),
}

REPORT = "36dd2dc64e84b98f80476379945694aa543db19ede187f1ecbfe98ca6af60f47"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv, capsys) -> bytes:
    capsys.readouterr()
    assert main(argv) == 0
    return capsys.readouterr().out.encode("utf-8")


@pytest.mark.parametrize("ordering, mode, visibility", sorted(SIMULATE))
def test_simulate_records(ordering, mode, visibility, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _run(["simulate", "--trials", str(N), "--seed", str(SEED), "--ordering", ordering,
          "--bsm-mode", mode, "--visibility", visibility, "--out", "runs.jsonl"], capsys)
    assert _sha256((tmp_path / "runs.jsonl").read_bytes()) == SIMULATE[(ordering, mode, visibility)]


@pytest.mark.parametrize("model", sorted(GENERATE))
def test_classical_generate_records(model, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _run(["classical", "generate", "--model", model, "--model-seed", "3", "--trials", str(N),
          "--seed", str(SEED), "--out", "lhv.jsonl"], capsys)
    assert _sha256((tmp_path / "lhv.jsonl").read_bytes()) == GENERATE[model]


@pytest.mark.parametrize("rule", sorted(DISCARD))
def test_classical_discard_kept_and_stdout(rule, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _run(["classical", "generate", "--model", "uniform", "--trials", str(N), "--seed", str(SEED),
          "--out", "lhv.jsonl"], capsys)
    stdout = _run(["classical", "discard", "--rule", rule, "--in", "lhv.jsonl", "--seed", str(SEED),
                   "--out", "kept.jsonl"], capsys)
    assert (_sha256((tmp_path / "kept.jsonl").read_bytes()), _sha256(stdout)) == DISCARD[rule]


def test_sampled_report(capsys):
    stdout = _run(["report", "--trials", str(N), "--seed", str(SEED), "--ordering", "pol-first",
                   "--bsm-mode", "partial", "--visibility", "0.9"], capsys)
    assert _sha256(stdout) == REPORT
