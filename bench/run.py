"""Benchmark of the swapsim command line: three pipelines timed end to end.

Run from the repository root:

    python3 bench/run.py --workload swap-file --seed 1 --seconds 30 --trace 0

Workloads (``workloads.py``) are pipelines of three commands, each at
N = 20 000 trials and one workload seed, ``--seed`` mod 64 (the seeds whose
outputs are pinned):

    swap-file  cmd1 simulate --threads 2, cmd2 analyze psi-minus, cmd3 analyze none
    lhv-mine   cmd1 classical generate, cmd2 classical discard, cmd3 analyze
    in-memory  cmd1 sampled report, cmd2 report --exact --scan, cmd3 classical blind-check

``--trace 0`` times the workload as a user runs it.  One closed-loop client
starts each command when the previous one has finished, every command in a
fresh ``python -m swapsim.cli`` process with ``src`` on the path.  The
pipeline repeats while another repetition fits in ``--seconds``.  Times are
medians over the repetitions; ``cmd<k>_s`` is the k-th command's wall time,
and the printed table also sums them per command name (``simulate_s``,
``analyze_s``, ...).  After each repetition a set-up probe imports
``swapsim.cli`` and builds the workload's sampling tables in a fresh
interpreter, and a reference probe measures the machine's speed.
Every time in the JSON line is in reference seconds (unit ``ref_s``; also
``setup_s``, whose declared unit is "s"): wall clock scaled by the machine's
speed during the run (see ``REFERENCE_S``); the unscaled wall clock is
printed beside it and kept in the results file.

``--trace 1`` runs the same command lines in-process through
``swapsim.cli.main``, alternating untraced and traced repetitions, and
reports the per-layer metrics of ``layers.py`` together with the tracing
overhead.

Every command's outputs pass the gate in ``workloads.py`` on every
repetition.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is 0 only when every command passed.  A results file with the environment
(Python, numpy, nproc, commit, seed) and the raw samples goes to
``.bench_results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import layers
import workloads
from spans import LAYERS, Instrumentation, Tracer
from workloads import N_TRIALS, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

RUN_LIMIT_S = 170.0  # a hung command is killed so the run ends in time

# (name, unit, better, bound) of every end-to-end metric in the JSON line.
# cmd<k>_s is the time of the workload's k-th command; the printed table
# also gives the same times summed per command name.
# Times are in reference seconds (unit ``ref_s``), wall clock scaled by the
# machine's speed during the run; see REFERENCE_S.  setup_s is scaled the same
# way, but its unit is declared as "s" because the benchmark specification
# fixes that unit for the set-up metric.
END_TO_END = (
    ("wall_s", "ref_s", "lower", 0.25),
    ("trials_per_s", "1/ref_s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("cmd1_s", "ref_s", "lower", 0.25),
    ("cmd2_s", "ref_s", "lower", 0.25),
    ("cmd3_s", "ref_s", "lower", 0.25),
)

# Runs in a fresh interpreter: import the CLI and build the workload's
# sampling tables cold, then report the elapsed time and the versions.
_SETUP_PROBE = """
import json, sys, time
start = time.perf_counter()
import swapsim.cli
from swapsim.protocol import ExperimentConfig, run_trial
for kwargs in json.loads(sys.argv[1]):
    run_trial(ExperimentConfig(**kwargs), 0)
elapsed = time.perf_counter() - start
import numpy
print(json.dumps({"setup_s": elapsed, "numpy": numpy.__version__,
                  "swapsim": swapsim.cli.__file__}))
"""


# The machine's speed is measured with a fixed script that uses no swapsim
# code: interpreter start, the numpy import, JSON round trips and Philox
# generator construction, the same kinds of work the commands do.  On a
# shared host the speed drifts by a third over minutes, far more than a
# program change should be judged by; scaling each repetition's times by
# REFERENCE_S / (the script's time around it) removes the drift and leaves
# program changes, which the script cannot see, in full.  A time so scaled is
# in reference seconds: one is the wall-clock second of a machine on which the
# script takes REFERENCE_S.
REFERENCE_S = 0.5
_REFERENCE = r"""
import json
import numpy as np
line = ('{"trial_id":12345,"ordering":"bsm-first","setting0_index":0,"setting0_deg":0.0,'
        '"setting3_index":1,"setting3_deg":67.5,"outcome0":1,"outcome3":-1,'
        '"bsm":"psi-minus","events":["bsm","pol0","pol3"]}')
for i in range(15000):
    doc = json.loads(line)
    doc["trial_id"] = i
    json.dumps(doc, separators=(",", ":"))
for i in range(3000):
    np.random.Generator(np.random.Philox(key=np.array([1, i], dtype=np.uint64))).random(5)
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, broken probe)."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("SWAPSIM_SEED", None)
    return env


def _inside_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def setup_probe(workload: Workload) -> dict:
    """One fresh-interpreter set-up measurement."""
    configs = json.dumps(list(workload.table_configs))
    proc = subprocess.run([sys.executable, "-c", _SETUP_PROBE, configs], env=_child_env(),
                          cwd=ROOT, capture_output=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.decode(errors='replace').strip()}")
    doc = json.loads(proc.stdout)
    if not _inside_src(doc["swapsim"]):
        raise BenchError(f"imported swapsim from {doc['swapsim']}, not from {SRC}")
    return doc


def reference_probe() -> float:
    """Wall time of the reference script in a fresh interpreter."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", _REFERENCE], cwd=ROOT, capture_output=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"reference script failed: {proc.stderr.decode(errors='replace').strip()}")
    return perf_counter() - start


@dataclass
class CommandResult:
    seconds: float
    exit_code: int
    max_rss_kb: int
    stdout: bytes


def run_command(argv: list[str], workdir: Path, deadline: float) -> CommandResult:
    """Run one `swapsim` command in a fresh process; wall time and peak RSS from outside."""
    stdout_path = workdir / "stdout"
    with open(stdout_path, "wb") as out, open(workdir / "stderr", "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "swapsim.cli", *argv], cwd=workdir,
                                env=_child_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(max(1.0, deadline - start), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return CommandResult(elapsed, proc.returncode, usage.ru_maxrss, stdout_path.read_bytes())


def _report_problems(workload: Workload, index: int, problems: list[str]) -> None:
    for problem in problems:
        print(f"GATE {workload.name} command {index + 1} ({workload.steps[index].command}): {problem}",
              file=sys.stderr)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _room_for_another(run_start: float, seconds: float, durations: list[float]) -> bool:
    """Whether one more repetition of the average length still ends within ``seconds``."""
    return perf_counter() - run_start + statistics.fmean(durations) <= seconds


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0


def measure_untraced(workload: Workload, seed: int, seconds: float, golden: dict,
                     tally: Tally, workdir: Path) -> tuple[dict, dict]:
    """Closed-loop subprocess pipeline; returns (JSON metrics, extras for the report).

    Each repetition runs the pipeline, then one set-up probe and one
    reference probe.  A repetition's times are scaled by REFERENCE_S over the
    mean of the reference times just before and just after it.
    """
    references = [reference_probe()]
    setup_probe(workload)  # warm-up: compiles bytecode and fills the page cache
    run_start = perf_counter()
    deadline = run_start + RUN_LIMIT_S
    iterations, durations = [], []
    while len(iterations) < 2 or _room_for_another(run_start, seconds, durations):
        started = perf_counter()
        times, rss = [], []
        for index, step in enumerate(workload.steps):
            result = run_command(step.args(seed), workdir, deadline)
            tally.attempted += 1
            problems = workloads.gate_step(golden, workload, seed, index, result.exit_code,
                                           result.stdout, workdir)
            if problems:
                tally.failed += 1
                _report_problems(workload, index, problems)
            times.append(result.seconds)
            rss.append(result.max_rss_kb)
        probe = setup_probe(workload)
        references.append(reference_probe())
        iterations.append({"command_s": times, "setup_s": probe["setup_s"], "max_rss_kb": max(rss),
                           "scale": 2.0 * REFERENCE_S / (references[-2] + references[-1])})
        durations.append(perf_counter() - started)

    def medians(scaled: bool) -> dict[str, float]:
        rows = [(it["scale"] if scaled else 1.0, it) for it in iterations]
        out = {
            "wall_s": statistics.median(k * sum(it["command_s"]) for k, it in rows),
            "setup_s": statistics.median(k * it["setup_s"] for k, it in rows),
        }
        for index in range(len(workload.steps)):
            out[f"cmd{index + 1}_s"] = statistics.median(k * it["command_s"][index] for k, it in rows)
        for command in dict.fromkeys(step.command for step in workload.steps):
            out[f"{command}_s"] = statistics.median(
                k * sum(t for t, step in zip(it["command_s"], workload.steps) if step.command == command)
                for k, it in rows)
        return out

    scaled, clock = medians(True), medians(False)
    clock["reference_s"] = statistics.median(references)
    metrics = {
        "wall_s": scaled["wall_s"],
        "trials_per_s": N_TRIALS / scaled["wall_s"],
        "setup_s": scaled["setup_s"],
        "peak_rss_mb": statistics.median(it["max_rss_kb"] for it in iterations) / 1024.0,
    }
    for index in range(len(workload.steps)):
        metrics[f"cmd{index + 1}_s"] = scaled[f"cmd{index + 1}_s"]
    extras = {"iterations": len(iterations), "numpy": probe["numpy"],
              "scale": statistics.median(it["scale"] for it in iterations),
              "per_command": {f"{step.command}_s": scaled[f"{step.command}_s"] for step in workload.steps},
              "wall_clock": clock,
              "samples": {"iterations": iterations, "reference_s": references}}
    return metrics, extras


def import_swapsim():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("swapsim")
    for layer in LAYERS:
        importlib.import_module(f"swapsim.{layer}")
    if not _inside_src(package.__file__):
        raise BenchError(f"imported swapsim from {package.__file__}, not from {SRC}")
    return package


def clear_caches(package) -> None:
    """Empty every memo cache in swapsim, so each repetition starts cold like a fresh process."""
    prefix = package.__name__ + "."
    for name, module in list(sys.modules.items()):
        if name.startswith(prefix) and module is not None:
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_in_process(package, workload: Workload, seed: int, workdir: Path,
                   tracer: Tracer | None = None) -> list[tuple[float, int, bytes]]:
    """Run the pipeline through swapsim.cli.main; (seconds, exit code, stdout) per command."""
    results = []
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        for index, step in enumerate(workload.steps):
            if tracer is not None:
                tracer.current_step = index
            buffer = io.StringIO()
            start = perf_counter()
            with contextlib.redirect_stdout(buffer):
                exit_code = package.cli.main(step.args(seed))
            results.append((perf_counter() - start, exit_code, buffer.getvalue().encode("utf-8")))
    finally:
        os.chdir(previous)
    return results


def _table_build_s(package, workload: Workload) -> float:
    """Cold exact_joint_distribution time for the workload's quantum configs."""
    clear_caches(package)
    start = perf_counter()
    for kwargs in workload.table_configs:
        package.protocol.exact_joint_distribution(package.protocol.ExperimentConfig(**kwargs))
    elapsed = perf_counter() - start
    clear_caches(package)
    return elapsed


def _step_io(workload: Workload, workdir: Path) -> list[layers.StepIO]:
    steps = []
    for step in workload.steps:
        written = [(workdir / name).read_bytes() for name in step.writes]
        steps.append(layers.StepIO(step.command, sum(data.count(b"\n") for data in written)))
    return steps


def _cross_check_io(workload: Workload, tracer: Tracer, workdir: Path) -> None:
    """Warn when the counted file bytes fall short of the files a step declares.

    The program must read its inputs and write its outputs in full, so a
    shortfall means it moved bytes by a path the counting ``open`` does not
    see, and ``cli.bytes_read`` or ``cli.bytes_written`` undercounts.
    """
    for index, step in enumerate(workload.steps):
        for direction, names in (("read", step.reads), ("written", step.outputs)):
            declared = sum((workdir / name).stat().st_size for name in names)
            counted = tracer.counters.get((f"file.bytes_{direction}", index), 0)
            if counted < declared:
                print(f"bench: {workload.name} command {index + 1} ({step.command}): {counted} bytes "
                      f"{direction} counted, below the {declared} of its declared files", file=sys.stderr)


def measure_traced(workload: Workload, seed: int, seconds: float, golden: dict,
                   tally: Tally, workdir: Path, spans_path: Path) -> tuple[dict, dict]:
    """Alternate untraced and traced in-process pipelines; per-layer medians."""
    package = import_swapsim()
    run_start = perf_counter()
    walls = {False: [], True: []}
    samples: list[dict] = []
    last_tracer = None
    while True:
        traced = len(walls[False]) > len(walls[True])
        if walls[True] and not _room_for_another(run_start, seconds, walls[traced]):
            break
        build_s = _table_build_s(package, workload)
        tracer = Tracer() if traced else None
        with Instrumentation(tracer, package) if traced else contextlib.nullcontext():
            results = run_in_process(package, workload, seed, workdir, tracer)
        for index, (_, exit_code, stdout) in enumerate(results):
            tally.attempted += 1
            problems = workloads.gate_step(golden, workload, seed, index, exit_code, stdout, workdir)
            if problems:
                tally.failed += 1
                _report_problems(workload, index, problems)
        walls[traced].append(sum(elapsed for elapsed, _, _ in results))
        if traced:
            _cross_check_io(workload, tracer, workdir)
            samples.append(layers.compute(tracer, _step_io(workload, workdir), build_s))
            last_tracer = tracer

    metrics = {name: statistics.median(sample[name] for sample in samples) for name in samples[0]}
    traced_wall = statistics.median(walls[True])
    untraced_wall = statistics.median(walls[False])
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    last_tracer.write_csv_gz(spans_path)
    extras = {"iterations": {"untraced": len(walls[False]), "traced": len(walls[True])},
              "samples": {"untraced_wall_s": walls[False], "traced_wall_s": walls[True]},
              "spans": str(spans_path.relative_to(ROOT)), "span_count": len(last_tracer.start),
              "numpy": sys.modules["numpy"].__version__}
    return metrics, extras


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<44} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "swapsim" / "cli.py").is_file():
        print(f"bench: no swapsim sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = workloads.workload_seed(args.seed)
    golden = workloads.load_golden()
    workdir = fresh_dir(WORK_ROOT / workload.name)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    tally = Tally()
    try:
        if args.trace:
            metrics, extras = measure_traced(workload, seed, args.seconds, golden, tally, workdir,
                                             RESULTS / f"{stem}.spans.csv.gz")
            units = {name: unit for name, unit, _ in layers.PER_LAYER}
        else:
            metrics, extras = measure_untraced(workload, seed, args.seconds, golden, tally, workdir)
            units = {name: unit for name, unit, _, _ in END_TO_END}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = extras.pop("samples")
    per_command = extras.pop("per_command", {})
    wall_clock = extras.pop("wall_clock", {})
    environment = {
        "workload": workload.name, "why": workload.why, "seed": args.seed, "workload_seed": seed,
        "trials": N_TRIALS, "seconds": args.seconds, "trace": args.trace,
        "loop": "closed, 1 client", "python": platform.python_version(), "numpy": extras.pop("numpy"),
        "nproc": os.cpu_count(), "commit": _commit(), **extras,
        "commands": [f"swapsim {' '.join(step.args(seed))}" for step in workload.steps],
    }
    print(f"workload {workload.name}: {workload.why}")
    for key, value in environment.items():
        if key == "commands":
            for index, command in enumerate(value, start=1):
                print(f"  cmd{index}: {command}")
        elif key not in ("workload", "why"):
            print(f"  {key}: {value}")
    ordered = [name for name in units if name in metrics]
    failed_frac = tally.failed / tally.attempted
    if args.trace:
        _print_table("per-layer metrics:", [(name, metrics[name], units[name]) for name in ordered])
        _print_table("failures:", [("failed_frac", failed_frac, "ratio")])
    else:
        _print_table(f"metrics (ref_s: reference seconds, wall clock x about {extras['scale']:.4g}):",
                     [(name, metrics[name], units[name]) for name in ordered]
                     + [(name, value, "ref_s") for name, value in per_command.items()]
                     + [("failed_frac", failed_frac, "ratio")])
        _print_table("wall clock, unscaled:", [(name, value, "s") for name, value in wall_clock.items()])
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in ordered},
    }
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({"environment": environment, "failed_frac": failed_frac, **result,
                   "wall_clock": wall_clock, "samples": samples}, handle, indent=2)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
