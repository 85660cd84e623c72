"""Command-line front end: run batches, persist records, analyze, report.

Commands: simulate, analyze, report, classical (generate | discard |
blind-check).  Records travel as JSONL, which ``swapsim.records`` reads
and writes; reports as a single JSON document, scan data as CSV.  Every
numeric lands in the output with 12 significant digits, and all outputs are
byte-stable for fixed inputs.

Every byte a command writes goes through this module: the rendering of
report documents (numbers by ``records._fmt``) and ``_atomic_open``,
which commits every file swapsim writes.  They must stay in a module
loaded at start, as this one is: the benchmark's byte counting replaces
``open`` and ``os`` only in the swapsim modules already loaded.

Exit codes: 0 ok, 1 failed check, 2 usage, 3 I/O or garbled input,
4 insufficient data.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":  # python -m: console_main turns the collector off too, but only after the imports below
    gc.disable()

import argparse
import contextlib
import json
import os
import signal
import sys
from typing import TYPE_CHECKING

from . import __version__
from .records import (_DEFAULT_ANGLES, BsmMode, BsmOutcome, InsufficientDataError, Ordering, RecordFormatError,
                      bsm_outcomes, _fmt, read_record_chunks, read_record_counts, write_records)

# Each command imports numpy, protocol, classical, discard and analysis where
# it uses them, so analyze and --version start on the standard library alone,
# the quantum and classical commands never load each other's engine, discard
# loads the rules without the hidden-variable engine, and only the commands
# that tally load analysis.
if TYPE_CHECKING:
    from .classical import ClassicalConfig
    from .protocol import ExperimentConfig


def _round12(value):
    """Recursively round floats in a report document to 12 significant digits."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return float(_fmt(value))
    if isinstance(value, dict):
        return {key: _round12(item) for key, item in value.items()}
    if type(value) in (list, tuple):  # not a NamedTuple: a report object must not pass as a list
        return [_round12(item) for item in value]
    raise TypeError(f"cannot render {type(value).__name__} in a report")


@contextlib.contextmanager
def _atomic_open(*paths: str):
    """Text handles, one per path, on temporary files that replace the paths, in order, when the block succeeds.

    Each temporary file sits beside its path (same file system, so each
    rename is atomic) with open(path, "w")'s mode, 0o666 less the umask, not
    mkstemp's 0o600.  If the block raises, no path is touched.  If a replace
    fails, each path already replaced gets its old file back, or is removed
    if it had none: until the last replace, an old file waits beside its
    path under a temporary name.  A directory at a path stays where it is,
    so its replace fails.  After any failure no temporary file is left.
    """
    import tempfile

    temps = []  # every temporary file made; after a failure, those no replace consumed are removed
    undo = []  # (path, its old file set aside or None) for each path replaced before the last

    def temporary(path: str) -> tuple[int, str]:
        try:
            fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
        except OSError as exc:  # name the path asked for, not the random name of a file never made
            raise OSError(exc.errno, exc.strerror, path) from None
        temps.append(tmp_path)
        os.chmod(tmp_path, 0o666 & ~umask)
        return fd, tmp_path

    os.umask(umask := os.umask(0))  # reads the umask, which only setting it returns
    try:
        with contextlib.ExitStack() as stack:
            yield [stack.enter_context(os.fdopen(temporary(path)[0], "w", encoding="utf-8")) for path in paths]
        for index, (path, tmp_path) in enumerate(zip(paths, temps[:len(paths)])):
            if index < len(paths) - 1:  # a later replace may fail, and this one must then be undone
                aside = None
                if os.path.isfile(path):
                    fd, aside = temporary(path)
                    os.close(fd)
                    os.replace(path, aside)
                undo.append((path, aside))
            try:
                os.replace(tmp_path, path)
            except OSError as exc:  # a directory at path, say: name it alone, not the temporary file too
                raise OSError(exc.errno, exc.strerror, path) from None
    except BaseException:
        for path, aside in reversed(undo):
            if aside is not None:
                os.replace(aside, path)
            elif os.path.isfile(path):
                os.unlink(path)
        for tmp_path in temps:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
        raise
    for aside in temps[len(paths):]:
        os.unlink(aside)


def _emit(text: str, out_path) -> None:
    if out_path:
        with _atomic_open(out_path) as (handle,):
            handle.write(text)
    else:
        sys.stdout.write(text)


def _render_report_doc(doc: dict) -> str:
    return json.dumps(_round12(doc), indent=2) + "\n"


def _write_batch(out: str, chunks, command: str, config_doc: dict, seed: int) -> int:
    """Write the records and the manifest beside them, then name both on stdout.

    One _atomic_open commits both: the manifest is replaced first and the
    records last, and if the records' replace fails the manifest is put
    back as it was, so no manifest ever describes records that were not
    written.
    """
    manifest_path = out + ".manifest.json"
    with _atomic_open(manifest_path, out) as (manifest_handle, handle):
        count = write_records(handle, chunks)
        manifest = {
            "artifact": "swapsim",
            "version": __version__,
            "command": command,
            "config": config_doc,
            "seed": seed,
            "trial_start": 0,
            "trial_end": count,
            "record_count": count,
            "outputs": {"records": out},
        }
        manifest_handle.write(_render_report_doc(manifest))
    sys.stdout.write(f"wrote {count} records to {out}\n")
    sys.stdout.write(f"manifest: {manifest_path}\n")
    return 0


def _resolve_seed(flag_value) -> int:
    source, seed = "--seed", flag_value
    if seed is None:
        source, env = "SWAPSIM_SEED", os.environ.get("SWAPSIM_SEED", "0")
        try:
            seed = int(env)
        except ValueError:
            raise ValueError(f"SWAPSIM_SEED must be an integer, got {env!r}") from None
    # RandomSource keys streams mod 2**64, so a seed outside this range would name another's streams
    if not 0 <= seed < 2**64:
        raise ValueError(f"{source} must lie in 0..2**64-1, got {seed}")
    return seed


def _angles_doc(config) -> dict:
    return {name: [angle.degrees for angle in getattr(config, name)] for name in ("angles0", "angles3")}


def _angles_flag(text: str):
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected four comma-separated degrees: a,a',b,b'")
    try:
        a, a_prime, b, b_prime = (float(part) for part in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"angles must be numbers, got {text!r}") from None
    return ((a, a_prime), (b, b_prime))


_MODELS = ("fourier", "sign", "uniform")
_RULES = ("pr-box", "quantum-mimic")


def cmd_analyze(args) -> int:
    from .analysis import chsh_weighted

    report = chsh_weighted(read_record_counts(args.input), None if args.select == "none" else args.select)
    _emit(_render_report_doc(report.to_json_dict()), args.out)
    return 0


# report --scan: most steps from 0 to 90 degrees.  The grid sums its step, so
# a step too small to move the sum would grow the grid until memory runs out.
_MAX_SCAN_STEPS = 100_000


def _experiment_config(args, angles, trials: int) -> ExperimentConfig:
    from .protocol import ExperimentConfig

    angles0, angles3 = angles
    return ExperimentConfig(
        angles0=angles0,
        angles3=angles3,
        trials=trials,
        ordering=Ordering(args.ordering),
        bsm_mode=BsmMode(args.bsm_mode),
        seed=_resolve_seed(args.seed),
        visibility=args.visibility,
    )


def _experiment_config_doc(config: ExperimentConfig) -> dict:
    return {
        **_angles_doc(config),
        "trials": config.trials,
        "ordering": config.ordering.value,
        "bsm_mode": config.bsm_mode.value,
        "seed": config.seed,
        "setting_policy": "uniform",  # the only policy: each trial picks both settings uniformly
        "visibility": config.visibility,
    }


def cmd_simulate(args) -> int:
    from .protocol import run_chunks

    config = _experiment_config(args, args.angles, args.trials)
    if args.threads is not None and args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")
    return _write_batch(args.out, run_chunks(config), "simulate", _experiment_config_doc(config), config.seed)


def _scan_grid(step: float) -> list[float]:
    if not 0.0 < step < float("inf") or 90.0 / step > _MAX_SCAN_STEPS:  # the first test is false for NaN too
        raise ValueError(f"--scan-step must be finite and take at most {_MAX_SCAN_STEPS} steps over 0..90, got {step}")
    deltas = []
    delta = 0.0
    while delta <= 90.0 + 1e-9:
        deltas.append(min(delta, 90.0))
        delta += step
    return deltas


def _scan_config(delta: float, args, trials: int) -> ExperimentConfig:
    # Cell (0,0) carries the pair (alpha=0, delta); the unused second
    # settings just need to be distinct as records write them.
    return _experiment_config(args, ((0.0, 45.0), (delta, delta + 90.0)), trials)


def _scan_csv(args) -> str:
    from .analysis import correlation_weighted
    from .protocol import exact_cell_records, kind_counts

    lines = ["delta_deg,e_psi_minus,e_unconditional"]
    for delta in _scan_grid(args.scan_step):
        config = _scan_config(delta, args, args.trials)  # checks --trials on the exact path too
        # the scan prints cell (0,0) only, so only its plan is walked
        weighted = exact_cell_records(config, 0, 0) if args.exact else kind_counts(config)
        e_filtered = correlation_weighted(weighted, (0, 0), BsmOutcome.PSI_MINUS).e_value
        e_all = correlation_weighted(weighted, (0, 0)).e_value
        lines.append(f"{_fmt(delta)},{_fmt(e_filtered)},{_fmt(e_all)}")
    return "\n".join(lines) + "\n"


def _summary_text(args) -> str:
    from .analysis import chsh_weighted
    from .protocol import exact_records, kind_counts, stage_entanglement_report

    config = _experiment_config(args, args.angles, args.trials)
    lines = []
    lines.append(f"swapsim report (ordering={config.ordering.value}, bsm-mode={config.bsm_mode.value}, "
                 f"visibility={_fmt(config.visibility)})")
    lines.append(f"angles: photon0 ({_fmt(config.angles0[0].degrees)}, {_fmt(config.angles0[1].degrees)}) deg, "
                 f"photon3 ({_fmt(config.angles3[0].degrees)}, {_fmt(config.angles3[1].degrees)}) deg")
    lines.append("")
    lines.append("stage entanglement of photons (0,3):")
    for snapshot in stage_entanglement_report(config):
        m = snapshot.metrics
        lines.append(f"  {snapshot.stage}: concurrence={_fmt(m.concurrence)} "
                     f"negativity={_fmt(m.negativity)} purity={_fmt(m.purity)}")
    lines.append("")

    labels = bsm_outcomes(config.bsm_mode)
    # held for one chsh_weighted per selection: outcome probabilities, or counts of sampled kinds
    weighted = exact_records(config) if args.exact else kind_counts(config)
    reports = [chsh_weighted(weighted, label) for label in (*labels, None)]
    if args.exact:
        lines.append("exact joint-measurement outcome probabilities:")
        for label, report in zip(labels, reports):
            lines.append(f"  P(bsm={label.value}) = {_fmt(report.kept)}")
        lines.append("")
        lines.append("exact CHSH S by selection:")
        for report in reports:
            lines.append(f"  filter {report.filter_description}: S = {_fmt(report.s_value)}  "
                         f"|S| = {_fmt(report.s_abs)}")
    else:
        lines.append(f"sampled outcome frequencies (N={config.trials}, seed={config.seed}):")
        for label, report in zip(labels, reports):
            lines.append(f"  f(bsm={label.value}) = {_fmt(report.kept / config.trials)}")
        lines.append("")
        lines.append("sampled CHSH by selection:")
        for report in reports:
            lines.append(f"  filter {report.filter_description}: S = {_fmt(report.s_value)}  "
                         f"|S| = {_fmt(report.s_abs)}  std_err = {_fmt(report.s_std_err)}  kept = {report.kept}")
    return "\n".join(lines) + "\n"


def cmd_report(args) -> int:
    _emit(_scan_csv(args) if args.scan else _summary_text(args), args.out)
    return 0


def _classical_config(args) -> ClassicalConfig:
    from .classical import ClassicalConfig

    angles0, angles3 = args.angles
    return ClassicalConfig(
        angles0=angles0,
        angles3=angles3,
        trials=args.trials,
        seed=_resolve_seed(args.seed),
    )


def _model(args):
    from .classical import random_fourier_model, sign_model, uniform_model

    if args.model == "fourier":
        return random_fourier_model(args.model_seed)
    return sign_model() if args.model == "sign" else uniform_model()


def _cmd_classical_generate(args) -> int:
    from .classical import lhv_chunks

    config = _classical_config(args)
    model = _model(args)
    config_doc = {"model": model.name, **_angles_doc(config), "trials": config.trials, "seed": config.seed}
    return _write_batch(args.out, lhv_chunks(model, config), "classical-generate", config_doc, config.seed)


# Set by console_main: the process ends with its command, so discard may fork its reader.
_reader_may_fork = False


@contextlib.contextmanager
def _record_chunks(path: str):
    """read_record_chunks(path), parsed in a forked child while this process goes on, where that can pay.

    It pays where console_main runs the command, fork and waitid exist and
    two CPUs are usable; elsewhere (in-process main(), tests, library
    callers), or if the fork fails, the reader runs inline.  The child sends
    each chunk, pickled, down a pipe, then None; an error the reader raises
    travels as one item and is raised here at its place in the stream, so
    chunks, messages and exit codes are the inline reader's.  The pipe's
    backpressure keeps the command streaming.  A stream that ends before its
    None, or a child that exits with another status than 0, is an OSError.
    However the block is left, the pipe is closed and the child killed and
    reaped.
    """
    if not (_reader_may_fork and hasattr(os, "fork") and hasattr(os, "waitid") and (
            len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1) >= 2):
        yield read_record_chunks(path)
        return
    import pickle  # numpy imports it too: loaded before the fork, it costs the child nothing

    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the inline reader
        os.close(read_fd)
        os.close(write_fd)
        yield read_record_chunks(path)
        return
    if pid == 0:  # the reader child: it never opens --out nor writes to stdout or stderr
        code = 1
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C reaches the whole job; the parent ends the child
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                chunks = read_record_chunks(path)
                while True:
                    try:
                        item = next(chunks, None)
                    except (RecordFormatError, OSError) as exc:
                        item = exc
                    pickle.dump(item, pipe, pickle.HIGHEST_PROTOCOL)
                    pipe.flush()
                    if item is None or isinstance(item, Exception):
                        break
            code = 0
        finally:  # whatever it caught: no handler, atexit hook or inherited buffer of the command runs twice
            os._exit(code)

    def received(pipe):
        try:
            while (item := pickle.load(pipe)) is not None:
                if isinstance(item, Exception):
                    raise item
                yield item
            ended = True
        except (EOFError, pickle.UnpicklingError):  # the child died before its end marker
            ended = False
        # WNOWAIT leaves the child to be reaped below, so its pid is never free while it may be killed
        child = os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        code = child.si_status if child.si_code == os.CLD_EXITED else -child.si_status
        if not (ended and code == 0):
            raise OSError(f"reading {path}: the reader process stopped early (exit status {code})")

    try:
        os.close(write_fd)
        with open(read_fd, "rb") as pipe:
            yield received(pipe)
    finally:
        os.kill(pid, signal.SIGKILL)  # a no-op once it has exited
        os.waitpid(pid, 0)


def _cmd_classical_discard(args) -> int:
    seed = _resolve_seed(args.seed)
    # The reader starts before numpy loads, so a forked one parses while this process imports.
    with _record_chunks(args.input) as chunks:
        # Both rules read only settings and outcomes, never trial_id, so one
        # keep weight per template holds for every row of its kind.
        from .discard import discard_chunks, pr_box_rule, quantum_mimic_rule

        rule = pr_box_rule() if args.rule == "pr-box" else quantum_mimic_rule()
        total = 0

        def counted(chunks):
            nonlocal total
            for chunk in chunks:
                total += len(chunk.trial_ids)
                yield chunk

        with _atomic_open(args.out) as (handle,):
            kept = write_records(handle, discard_chunks(counted(chunks), rule, seed))
    doc = {
        "rule": rule.description,
        "kind": rule.kind,
        "kept": kept,
        "keep_fraction": kept / total if total else 0.0,
        "records": args.out,
    }
    sys.stdout.write(_render_report_doc(doc))
    return 0


def _cmd_classical_blind_check(args) -> int:
    from .classical import random_fourier_model, settings_blind_check

    config = _classical_config(args)
    models = [random_fourier_model(model_seed) for model_seed in range(args.models)]
    report = settings_blind_check(models, config)
    _emit(_render_report_doc(report.to_json_dict()), args.out)
    # a model whose every label is starved was checked against nothing
    unchecked = [check.model for check in report.checks if not check.labels]
    if report.all_within_bound and unchecked:
        raise InsufficientDataError(f"no checkable label for {', '.join(unchecked)}")
    return 0 if report.all_within_bound else 1


def _add_common_angles(parser) -> None:
    parser.add_argument(
        "--angles",
        type=_angles_flag,
        default=_DEFAULT_ANGLES,
        help="four analyzer settings a,a',b,b' in degrees (default 0,45,22.5,67.5)",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="batch seed in 0..2**64-1 (default: $SWAPSIM_SEED, else 0)")


def _add_experiment_flags(parser, default_trials: int) -> None:
    _add_common_angles(parser)
    parser.add_argument("--trials", type=int, default=default_trials)
    parser.add_argument("--ordering", choices=[o.value for o in Ordering],
                        default=Ordering.BSM_FIRST.value)
    parser.add_argument("--bsm-mode", choices=[m.value for m in BsmMode],
                        default=BsmMode.FULL.value)
    parser.add_argument("--visibility", type=float, default=1.0,
                        help="source visibility V in [0,1]; pairs become V psi- + (1-V) I/4")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swapsim",
        description="Four-photon entanglement-swapping simulator: records, CHSH analysis, "
                    "stage entanglement, and classical discard-rule counterpoints.",
    )
    parser.add_argument("--version", action="version", version=f"swapsim {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser("simulate", help="run a batch and write JSONL records + manifest")
    _add_experiment_flags(simulate, default_trials=1000)
    simulate.add_argument("--out", required=True, help="records path (manifest written alongside)")
    simulate.add_argument("--threads", type=int, default=None,
                          help="deprecated: accepted (must be >= 1), changes neither bytes nor speed")
    simulate.set_defaults(handler=cmd_simulate)

    analyze = commands.add_parser("analyze", help="CHSH report over a JSONL record file")
    analyze.add_argument("--in", dest="input", required=True, help="records path")
    analyze.add_argument("--select", default="none",
                         help="post-selection on a record label (a Bell outcome or a classical marker); none keeps all")
    analyze.add_argument("--out", default=None, help="write report here instead of stdout")
    analyze.set_defaults(handler=cmd_analyze)

    report = commands.add_parser("report", help="stage entanglement + outcome statistics summary")
    _add_experiment_flags(report, default_trials=20_000)
    report.add_argument("--exact", action="store_true",
                        help="closed-form tables instead of sampling")
    report.add_argument("--scan", action="store_true",
                        help="emit CSV of E versus angle difference instead of the summary")
    report.add_argument("--scan-step", type=float, default=7.5,
                        help="grid step in degrees for --scan (default 7.5)")
    report.add_argument("--out", default=None)
    report.set_defaults(handler=cmd_report)

    classical = commands.add_parser("classical", help="hidden-variable records and discard rules")
    classical_sub = classical.add_subparsers(dest="subcommand", required=True)

    generate = classical_sub.add_parser("generate", help="write hidden-variable records")
    _add_common_angles(generate)
    generate.add_argument("--trials", type=int, default=100_000)
    generate.add_argument("--model", choices=_MODELS, default="uniform")
    generate.add_argument("--model-seed", type=int, default=0,
                          help="construction seed for the fourier model family")
    generate.add_argument("--out", required=True)
    generate.set_defaults(handler=_cmd_classical_generate)

    discard = classical_sub.add_parser("discard", help="apply a record-comparing discard rule")
    discard.add_argument("--in", dest="input", required=True, help="records path (classical or quantum)")
    discard.add_argument("--rule", choices=_RULES, required=True)
    discard.add_argument("--seed", type=int, default=None,
                         help="keep-decision seed for probabilistic rules, in 0..2**64-1")
    discard.add_argument("--out", required=True, help="kept records path")
    discard.set_defaults(handler=_cmd_classical_discard)

    blind = classical_sub.add_parser("blind-check",
                                     help="stress settings-blind markers against the local bound")
    _add_common_angles(blind)
    blind.add_argument("--trials", type=int, default=100_000)
    blind.add_argument("--models", type=int, default=20)
    blind.add_argument("--out", default=None)
    blind.set_defaults(handler=_cmd_classical_blind_check)

    return parser


def main(argv=None) -> int:
    # The quantum matrices are at most 16x16 and blind-check's one larger
    # product, 18 coefficients times a chunk's (18 x rows) harmonic basis,
    # is a matrix-vector product: BLAS threads do not pay off, yet OpenBLAS
    # starts its thread pool when numpy is imported.  The thread count
    # changes no byte: blind-check decides a row from that product only
    # when it lies beyond a certified bound of 0 for any summation order.
    # The handlers import numpy, so this comes first; a value the user set wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse signals usage problems with code 2
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except RecordFormatError as exc:
        print(f"swapsim: error: {exc}", file=sys.stderr)
        return 3
    except InsufficientDataError as exc:
        print(f"swapsim: insufficient data: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"swapsim: i/o error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # bad flags, environment or config values found after parsing
        print(f"swapsim: error: {exc}", file=sys.stderr)
        return 2


def _terminate(signum, frame):
    signal.signal(signum, signal.SIG_IGN)
    raise SystemExit(128 + signum)


def console_main() -> None:
    # SIGTERM's and SIGHUP's default action ends the process without unwinding;
    # as SystemExit each runs _atomic_open's cleanup and exits with the status
    # a shell reports for a job it killed, but a hangup nohup ignores stays
    # ignored.  Ctrl-C ends in one line, not a traceback; main() does neither.
    global _reader_may_fork
    signal.signal(signal.SIGTERM, _terminate)
    if hasattr(signal, "SIGHUP") and signal.getsignal(signal.SIGHUP) is not signal.SIG_IGN:  # POSIX only
        signal.signal(signal.SIGHUP, _terminate)
    # A command makes no cyclic garbage that grows with its trials, so the
    # cyclic collector only walks numpy's import, over and over: off for the
    # rest of the process.  main() leaves it alone for in-process callers,
    # and forks no reader for them either.
    gc.disable()
    _reader_may_fork = True
    try:
        code = main()
    except KeyboardInterrupt:
        print("swapsim: interrupted", file=sys.stderr)
        code = 130
    # Frozen objects are out of the shutdown collection's reach, which runs
    # even with the collector off: it skips numpy's heap, which the OS
    # reclaims.  atexit handlers and stream flushing still run.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console_main()
