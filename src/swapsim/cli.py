"""Command-line front end: run batches, persist records, analyze, report.

Commands: simulate, analyze, report, classical (generate | discard |
blind-check).  This module holds the entry point (parser, exit codes,
signals) and analyze; the other handlers load with their command.  Records
travel as JSONL, which ``swapsim.records`` reads and writes; reports as a
single JSON document, scan data as CSV.  Every numeric lands in the output
with 12 significant digits, and all outputs are byte-stable for fixed inputs.

Exit codes: 0 ok, 1 failed check, 2 usage, 3 I/O or garbled input,
4 insufficient data.
"""

from __future__ import annotations

import argparse
import gc
import os
import signal
import sys

from . import __version__
from .cli_shared import _emit, _render_report_doc
from .records import (_DEFAULT_ANGLES, BsmMode, BsmOutcome, InsufficientDataError, Ordering, RecordFormatError,
                      read_record_counts)

# The handlers of the quantum and of the classical commands live in
# swapsim.cli_quantum and swapsim.cli_classical, which load, and compile,
# only when one of their commands runs; what both write goes through
# swapsim.cli_shared.  Each handler imports numpy, protocol, classical,
# discard and analysis where it uses them, so analyze and --version start
# on the standard library alone, the quantum and classical commands never
# load each other's engine, discard loads the rules without the
# hidden-variable engine, and only the commands that tally load analysis.
_MOVED = {
    "cli_shared": ("_angles_doc", "_atomic_open", "_fmt", "_resolve_seed", "_round12", "_write_batch"),
    "cli_quantum": ("_MAX_SCAN_STEPS", "_experiment_config", "_experiment_config_doc", "_scan_config", "_scan_csv",
                    "_scan_grid", "_summary_text", "cmd_report", "cmd_simulate"),
    "cli_classical": ("_classical_config", "_cmd_classical_blind_check", "_cmd_classical_discard",
                      "_cmd_classical_generate", "_model"),
}
_HOME = {name: module for module, names in _MOVED.items() for name in names}


def __getattr__(name: str):
    # PEP 562: the moved names stay reachable as swapsim.cli.<name>, looked up in their home module
    if name in _HOME:
        return getattr(_module(_HOME[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _module(name: str):
    # by the import statement's path, which -X importtime reports; __package__ is
    # "swapsim" under python -m swapsim.cli too, where this file runs as __main__
    __import__(f"{__package__}.{name}")
    return sys.modules[f"{__package__}.{name}"]


def _handler(module: str, name: str):
    """The handler ``name`` of ``module``, which is imported when its command runs."""
    def run(args) -> int:
        return getattr(_module(module), name)(args)

    return run


def _angles_flag(text: str):
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected four comma-separated degrees: a,a',b,b'")
    try:
        a, a_prime, b, b_prime = (float(part) for part in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"angles must be numbers, got {text!r}") from None
    return ((a, a_prime), (b, b_prime))


# analyze --select: every label, or "none" for no selection
_SELECTIONS = sorted(["none", *(label.value for label in BsmOutcome)])
_MODELS = ("fourier", "sign", "uniform")
_RULES = ("pr-box", "quantum-mimic")


def cmd_analyze(args) -> int:
    from .analysis import SelectionFilter, chsh_weighted

    selection = SelectionFilter.none() if args.select == "none" else SelectionFilter.bsm_equals(args.select)
    report = chsh_weighted(read_record_counts(args.input), selection)
    _emit(_render_report_doc(report.to_json_dict()), args.out)
    return 0


def _add_common_angles(parser) -> None:
    parser.add_argument(
        "--angles",
        type=_angles_flag,
        default=_DEFAULT_ANGLES,
        help="four analyzer settings a,a',b,b' in degrees (default 0,45,22.5,67.5)",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="batch seed (default: $SWAPSIM_SEED, else 0)")


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
    simulate.set_defaults(handler=_handler("cli_quantum", "cmd_simulate"))

    analyze = commands.add_parser("analyze", help="CHSH report over a JSONL record file")
    analyze.add_argument("--in", dest="input", required=True, help="records path")
    analyze.add_argument("--select", choices=_SELECTIONS, default="none",
                         help="post-selection on the joint-outcome label")
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
    report.set_defaults(handler=_handler("cli_quantum", "cmd_report"))

    classical = commands.add_parser("classical", help="hidden-variable records and discard rules")
    classical_sub = classical.add_subparsers(dest="subcommand", required=True)

    generate = classical_sub.add_parser("generate", help="write hidden-variable records")
    _add_common_angles(generate)
    generate.add_argument("--trials", type=int, default=100_000)
    generate.add_argument("--model", choices=_MODELS, default="uniform")
    generate.add_argument("--model-seed", type=int, default=0,
                          help="construction seed for the fourier model family")
    generate.add_argument("--out", required=True)
    generate.set_defaults(handler=_handler("cli_classical", "_cmd_classical_generate"))

    discard = classical_sub.add_parser("discard", help="apply a record-comparing discard rule")
    discard.add_argument("--in", dest="input", required=True, help="records path (classical or quantum)")
    discard.add_argument("--rule", choices=_RULES, required=True)
    discard.add_argument("--seed", type=int, default=None,
                         help="keep-decision seed for probabilistic rules")
    discard.add_argument("--out", required=True, help="kept records path")
    discard.set_defaults(handler=_handler("cli_classical", "_cmd_classical_discard"))

    blind = classical_sub.add_parser("blind-check",
                                     help="stress settings-blind markers against the local bound")
    _add_common_angles(blind)
    blind.add_argument("--trials", type=int, default=100_000)
    blind.add_argument("--models", type=int, default=20)
    blind.add_argument("--out", default=None)
    blind.set_defaults(handler=_handler("cli_classical", "_cmd_classical_blind_check"))

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
    signal.signal(signal.SIGTERM, _terminate)
    if hasattr(signal, "SIGHUP") and signal.getsignal(signal.SIGHUP) is not signal.SIG_IGN:  # POSIX only
        signal.signal(signal.SIGHUP, _terminate)
    # A command makes no cyclic garbage that grows with its trials, so the
    # cyclic collector only walks numpy's import, over and over: off for the
    # rest of the process.  main() leaves it alone for in-process callers.
    gc.disable()
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
