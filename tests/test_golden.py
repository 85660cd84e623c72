"""Golden SHA-256 digests of every record writer, reader and report.

The writer and sampled-report digests were produced before the vectorized
sampling engine replaced the per-trial generators; the analyze, scan,
exact-report and blind-check digests were produced before the columnar
record reader replaced the per-line parse; the EXACT_MORE digests were
produced before the exact tables moved to the prefix-shared branch walk;
the DISCARD_MORE digests were produced before the sampling tables became
flat arrays and the two discard loops became one.  So they pin the byte
contract
across engine changes: identical flags and seed must keep giving identical
bytes.  N = 10 000 spans two 4096-trial chunk boundaries and is not a
multiple of the chunk.

Commands run in a temporary working directory with relative paths, so the
command's standard output does not depend on where the test runs.
Manifests are not pinned; they describe a run rather than its records.
"""

import hashlib
import json

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

# `classical discard` over inputs the DISCARD runs leave out: quantum records
# (the reader's chunks one after another) and the sign model's records.
# (input command, rule) -> (kept records digest, stdout digest).
DISCARD_MORE = {
    ("simulate --ordering pol-first --bsm-mode partial --visibility 0.9", "quantum-mimic"): (
        "f58605450ef2e960d5d3016ce4189c416278d524f29711ef691352f800003456",
        "b9a0911a0817b535c79cef5d2659e6d5380b0257a64be13d2cec5cfbc813e342",
    ),
    ("classical generate --model sign", "pr-box"): (
        "16acd3dabd10bec25d0263430286b384860f28f4662cf553c682b4c4cbad4426",
        "833b319436b055d9083cdea3338d2753abd04871bbd39932bd16c9f002e80792",
    ),
}

REPORT = "36dd2dc64e84b98f80476379945694aa543db19ede187f1ecbfe98ca6af60f47"

SELECTIONS = ("none", "psi-minus", "psi-plus", "phi-minus", "phi-plus", "other")

# (exit code, stdout digest) of `analyze --select <s>` on each SIMULATE file,
# one entry per selection in SELECTIONS order; exit 4 marks a starved label.
ANALYZE = {
    ("bsm-first", "full", "0.8"): (
        (0, "e51e667034ab99ccddc399156016f3074ac3c59e87e81344e487a594d248a1f3"),
        (0, "4fa908c0525fb6241c63bdbf38fef7a69f3a1ba1c85458ea185256eb4134a15a"),
        (0, "48dc7c530e76d6790295a16710be42fa44b7dc467ac8046349771518fe14f301"),
        (0, "ec2bf828c42d0ccd2673b65654b720fae2acb002df88dfd3fc36e7573b6ddd7d"),
        (0, "bf6b88c770ad767eb270b8b4d0d562839df19b34898405030851b5455108f58c"),
        (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ),
    ("bsm-first", "full", "1"): (
        (0, "6f650c01bea84d507ed3837c740e6b22decec15de9a286aeb703789c6940b8d2"),
        (0, "21fe8b20c3a16b35a3995f0b31ff4accf66dc02986918706a0a59a18457afa6e"),
        (0, "38d5a94e89f526e47af1c021d05ee9b7aab2b8188d5bf1174d306ba18d6bc7d9"),
        (0, "43e4184564af271f0e145f53ab7a2210a21fbf89dc4be0f56a89275d42b7e8df"),
        (0, "75d88a653b8237a082bbbe63568b9f66e7aab55bf4375ddca5c81d0d81743ecf"),
        (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ),
    ("bsm-first", "partial", "0.8"): (
        (0, "755a57b4df20f7a51a6b04e5a4e4e6a97f275c92a8c42602dbfa31772df86d3e"),
        (0, "4fa908c0525fb6241c63bdbf38fef7a69f3a1ba1c85458ea185256eb4134a15a"),
        (0, "48dc7c530e76d6790295a16710be42fa44b7dc467ac8046349771518fe14f301"),
        (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (0, "3aa5ea1d22b0a527451d6c782a4cb748bfdc4bcc6997f53ffe11d084df4aaa46"),
    ),
    ("bsm-first", "partial", "1"): (
        (0, "11f3ce04f0f1e40baace41ab873147ec9e91c6e4629e70d51a68400abb2bd310"),
        (0, "21fe8b20c3a16b35a3995f0b31ff4accf66dc02986918706a0a59a18457afa6e"),
        (0, "38d5a94e89f526e47af1c021d05ee9b7aab2b8188d5bf1174d306ba18d6bc7d9"),
        (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (0, "93ec0d708f7de4ce0487b3b73c830c383a55a2b70a116ac182b79e65e7535034"),
    ),
    ("pol-first", "full", "0.8"): (
        (0, "070bef88fe042a531d803afbc414a2b6915eaf15549c78b60bc44cd3c45b754d"),
        (0, "a74b0a58904f048ce6469c1082ff79647aade45de9f4c9f28c355633a196793f"),
        (0, "448d2c97364c2ea77408147baaa9d0185cba5ac75cab9153e02ac6bb2ccd96bf"),
        (0, "865d6267841fc11bf262dd35d5c51a226b9fbda4601d79043f67490cc76d2924"),
        (0, "cb4fb4305f805476150fb449c7090684fd1c671c739302c6b3dd44007fdf9049"),
        (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ),
    ("pol-first", "full", "1"): (
        (0, "070bef88fe042a531d803afbc414a2b6915eaf15549c78b60bc44cd3c45b754d"),
        (0, "43e4d52be383dba5070759ab4b6f4579307ff3b82d506f1afbfc6618356d21b4"),
        (0, "a0d370e7ab7ab9392128ddcf8b5f01268c2800236b49cbad86ff84a6e9daa1f9"),
        (0, "40bf344990ada14cbaf0b830be767a364775593d688513e3172b6ba7264e30c9"),
        (0, "38bb5d4819bb3eb46d5ef99ba2f11efc4fede9d2c92409bc8b692d9486723f74"),
        (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ),
    ("pol-first", "partial", "0.8"): (
        (0, "070bef88fe042a531d803afbc414a2b6915eaf15549c78b60bc44cd3c45b754d"),
        (0, "a74b0a58904f048ce6469c1082ff79647aade45de9f4c9f28c355633a196793f"),
        (0, "448d2c97364c2ea77408147baaa9d0185cba5ac75cab9153e02ac6bb2ccd96bf"),
        (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (0, "555a7583fbee0d430711e761ca27733b4df84c7bea419c9ecd09270347b44859"),
    ),
    ("pol-first", "partial", "1"): (
        (0, "070bef88fe042a531d803afbc414a2b6915eaf15549c78b60bc44cd3c45b754d"),
        (0, "43e4d52be383dba5070759ab4b6f4579307ff3b82d506f1afbfc6618356d21b4"),
        (0, "a0d370e7ab7ab9392128ddcf8b5f01268c2800236b49cbad86ff84a6e9daa1f9"),
        (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (0, "85e5fcc011eb3da803833e7b75c8bcf3f1e786a25a37545d4c159185c19192cf"),
    ),
}

# `analyze --select none` stdout on the kept file of each DISCARD run.
ANALYZE_KEPT = {
    "pr-box": "e8673c38309956e1351960c1ae731dec1c107579b4c1a21186d585dd89025436",
    "quantum-mimic": "59147458f02db2d0d985fe4d474cca2e2f2d5dcdf69e85cd9b5371c7ba712d31",
}

# `analyze` stdout (none, psi-minus) on the bsm-first/full/0.8 file with its
# lines rewritten in other valid JSON layouts.
ANALYZE_REFORMATTED = (
    (0, "e51e667034ab99ccddc399156016f3074ac3c59e87e81344e487a594d248a1f3"),
    (0, "4fa908c0525fb6241c63bdbf38fef7a69f3a1ba1c85458ea185256eb4134a15a"),
)

# stdout of `report` variants: (ordering, mode, visibility) -> digest.
SAMPLED_SCAN = {
    ("bsm-first", "full", "1"): "d12c4ea67a0f1431bdc8a255553b30822bf73ac8e8b8c33aac601aca9f579549",
    ("pol-first", "partial", "0.9"): "6fe3f9ead231ab80b94970804b52ca2b579510b9d1f0829797550eabeac36cd8",
}
EXACT_SUMMARY = {
    ("bsm-first", "full", "1"): "bb92033485f2afbf03def2fdc89ce0fb6c09c8969bd3c14fe4a82cb7133ad75f",
    ("pol-first", "partial", "0.9"): "ee3d0e82f518bf2022abd5c083f242d2a448a3e2f85d34eca907d4df68bcbf4d",
}
EXACT_SCAN = {
    ("bsm-first", "full", "1"): "4e677a48d783592e8053409d4dc51f78f3572545b09a6a247a043e0edc1d041d",
    ("pol-first", "partial", "0.9"): "2105ac1b2218b6c05e9dd10dcb5fd645e2312afcf2c870ed6fc7802f0e79bbd4",
}

# (extra report flags, ordering, mode, visibility) -> stdout digest; the
# scan is the benchmark's exact command, whose float dust these bytes pin.
EXACT_MORE = {
    ("--scan", "bsm-first", "full", "0.9"): "41c6d0b8dfad9114bd779945003eea95c093b49ad4ceba9dadd7e41fdbcd9619",
    ("", "bsm-first", "full", "0.8"): "fdbb647676e8d95321d95c2ae774353deb8d1867eba679cac9978f3f4ce95df9",
    ("", "pol-first", "full", "0.8"): "cb9d60ce5683d819793fbcc464994e5b4d77c48957a79678f6a806d8bda7fb17",
    ("", "pol-first", "partial", "0.5"): "24167833679ab5dae503bfe4787e92b9a0ca16999883a91a64cabaf815b54e64",
}

BLIND_CHECK = "b4219e09f0a97c1d5292ef16ed895887f5499f2599d9dbc9a931b2254de4de64"


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


@pytest.mark.parametrize("source, rule", sorted(DISCARD_MORE))
def test_classical_discard_more_inputs(source, rule, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _run([*source.split(), "--trials", str(N), "--seed", str(SEED), "--out", "in.jsonl"], capsys)
    stdout = _run(["classical", "discard", "--rule", rule, "--in", "in.jsonl", "--seed", str(SEED),
                   "--out", "kept.jsonl"], capsys)
    assert (_sha256((tmp_path / "kept.jsonl").read_bytes()), _sha256(stdout)) == DISCARD_MORE[(source, rule)]


def test_sampled_report(capsys):
    stdout = _run(["report", "--trials", str(N), "--seed", str(SEED), "--ordering", "pol-first",
                   "--bsm-mode", "partial", "--visibility", "0.9"], capsys)
    assert _sha256(stdout) == REPORT


def _simulate(ordering, mode, visibility, capsys, out="runs.jsonl"):
    _run(["simulate", "--trials", str(N), "--seed", str(SEED), "--ordering", ordering,
          "--bsm-mode", mode, "--visibility", visibility, "--out", out], capsys)


def _analyze(path, select, capsys) -> tuple[int, str]:
    capsys.readouterr()
    code = main(["analyze", "--in", path, "--select", select])
    return code, _sha256(capsys.readouterr().out.encode("utf-8"))


@pytest.mark.parametrize("ordering, mode, visibility", sorted(SIMULATE))
def test_analyze_every_selection(ordering, mode, visibility, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _simulate(ordering, mode, visibility, capsys)
    got = tuple(_analyze("runs.jsonl", select, capsys) for select in SELECTIONS)
    assert got == ANALYZE[(ordering, mode, visibility)]


@pytest.mark.parametrize("rule", sorted(DISCARD))
def test_analyze_discard_kept(rule, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _run(["classical", "generate", "--model", "uniform", "--trials", str(N), "--seed", str(SEED),
          "--out", "lhv.jsonl"], capsys)
    _run(["classical", "discard", "--rule", rule, "--in", "lhv.jsonl", "--seed", str(SEED),
          "--out", "kept.jsonl"], capsys)
    assert _analyze("kept.jsonl", "none", capsys) == (0, ANALYZE_KEPT[rule])


def _reformat(line: str, index: int) -> str:
    """One record line in one of five valid layouts, chosen by its index."""
    doc = json.loads(line)
    layout = index % 5
    if layout == 0:
        return line
    if layout == 1:  # indented, spaces after separators
        return " " * (1 + index % 4) + json.dumps(doc) + "\n"
    if layout == 2:  # keys reversed: trial_id comes last
        return json.dumps(dict(reversed(list(doc.items()))), separators=(",", ":")) + "\n"
    if layout == 3:  # trial_id first, the other keys sorted; blank line after, CRLF ending
        rest = {key: doc[key] for key in sorted(doc) if key != "trial_id"}
        return json.dumps({"trial_id": doc["trial_id"], **rest}, separators=(",", ":")) + "\r\n\n"
    return json.dumps(doc, indent=1).replace("\n", "") + "\t\n"  # indent newlines folded away


def test_analyze_reformatted_records(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _simulate("bsm-first", "full", "0.8", capsys)
    lines = (tmp_path / "runs.jsonl").read_text().splitlines(keepends=True)
    with open(tmp_path / "reformatted.jsonl", "w", encoding="utf-8", newline="") as handle:
        handle.write("".join(_reformat(line, index) for index, line in enumerate(lines)))
    got = tuple(_analyze("reformatted.jsonl", select, capsys) for select in ("none", "psi-minus"))
    assert got == ANALYZE_REFORMATTED


REPORT_CONFIGS = (("bsm-first", "full", "1"), ("pol-first", "partial", "0.9"))


def _report(config, extra, capsys) -> str:
    ordering, mode, visibility = config
    return _sha256(_run(["report", "--trials", str(N), "--seed", str(SEED), "--ordering", ordering,
                         "--bsm-mode", mode, "--visibility", visibility, *extra], capsys))


@pytest.mark.parametrize("config", REPORT_CONFIGS)
def test_sampled_scan(config, capsys):
    assert _report(config, ["--scan", "--scan-step", "22.5"], capsys) == SAMPLED_SCAN[config]


@pytest.mark.parametrize("config", REPORT_CONFIGS)
def test_exact_summary_and_scan(config, capsys):
    got = (_report(config, ["--exact"], capsys), _report(config, ["--exact", "--scan"], capsys))
    assert got == (EXACT_SUMMARY[config], EXACT_SCAN[config])


@pytest.mark.parametrize("extra, ordering, mode, visibility", sorted(EXACT_MORE))
def test_exact_report_more_configs(extra, ordering, mode, visibility, capsys):
    flags = ["--exact", extra] if extra else ["--exact"]
    got = _report((ordering, mode, visibility), flags, capsys)
    assert got == EXACT_MORE[(extra, ordering, mode, visibility)]


def test_blind_check(capsys):
    stdout = _run(["classical", "blind-check", "--models", "3", "--trials", str(N), "--seed", str(SEED)],
                  capsys)
    assert _sha256(stdout) == BLIND_CHECK
