"""Command-line front end: run batches, persist records, analyze, report.

Commands: simulate, analyze, report, classical (generate | discard |
blind-check).  Records travel as JSONL, reports as a single JSON document,
scan data as CSV.  Every numeric lands in the output with 12 significant
digits, and all outputs are byte-stable for fixed inputs.

Exit codes: 0 ok, 1 failed check, 2 usage, 3 I/O or garbled input,
4 insufficient data.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .analysis import InsufficientDataError, SelectionFilter, chsh, chsh_from_counts, correlation
from .classical import (
    ClassicalConfig,
    ClassicalRecord,
    apply_discard,
    lhv_chunks,
    pr_box_rule,
    quantum_mimic_rule,
    random_fourier_model,
    settings_blind_check,
    sign_model,
    uniform_model,
)
from .measure import BsmMode, BsmOutcome, bsm_outcomes
from .protocol import (
    ExperimentConfig,
    Ordering,
    TrialRecord,
    exact_joint_distribution,
    run_batch,
    run_chunks,
    stage_entanglement_report,
)


class RecordFormatError(ValueError):
    """A record line could not be parsed; carries its 1-based line number."""

    def __init__(self, line_number: int, message: str) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class UsageError(ValueError):
    """Bad flag combination or environment discovered after parsing."""


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _round12(value):
    """Recursively round floats in a report document to 12 significant digits."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return float(_fmt(value))
    if isinstance(value, dict):
        return {key: _round12(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(item) for item in value]
    raise TypeError(f"cannot render {type(value).__name__} in a report")


def _record_line(record) -> str:
    return json.dumps(record.to_json_dict(), separators=(",", ":")) + "\n"


def _record_from_doc(doc: dict):
    if doc.get("ordering") == "classical":
        return ClassicalRecord.from_json_dict(doc)
    return TrialRecord.from_json_dict(doc)


def iter_records_file(path: str):
    """Yield records from a JSONL file, failing loudly with a line number."""
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                yield _record_from_doc(json.loads(stripped))
            except (ValueError, KeyError, TypeError) as exc:
                raise RecordFormatError(line_number, str(exc)) from exc


@contextlib.contextmanager
def _atomic_open(path: str):
    """Text handle on a temporary file that replaces ``path`` only when the block succeeds.

    The temporary file sits beside ``path`` (same file system, so the rename
    is atomic); on any exception it is removed and ``path`` is left as it was.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            yield handle
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


_TRIAL_ID_KEY = '{"trial_id":'


def _write_records(path: str, chunks) -> int:
    """Write record chunks as JSONL, atomically; returns the record count.

    A line is '{"trial_id":<t>' plus a tail fixed by the record's other
    fields, which a chunk's kinds() indexes.  Each tail is cut once from
    _record_line of the first record of its kind, so every line equals
    _record_line of its record by construction.
    """
    tails: dict[int, str] = {}
    count = 0
    with _atomic_open(path) as handle:
        for chunk in chunks:
            kinds = chunk.kinds()
            unique, first_rows = np.unique(kinds, return_index=True)
            fresh = [k for k, kind in enumerate(unique.tolist()) if kind not in tails]
            for kind, record in zip(unique[fresh].tolist(), chunk.records(first_rows[fresh])):
                line = _record_line(record)
                head = f"{_TRIAL_ID_KEY}{record.trial_id}"
                if not line.startswith(head):
                    raise RuntimeError(f"record line does not start with its trial_id: {line!r}")
                tails[kind] = line[len(head):]
            handle.write("".join([f"{_TRIAL_ID_KEY}{trial_id}{tails[kind]}"
                                  for trial_id, kind in zip(chunk.trial_ids.tolist(), kinds.tolist())]))
            count += len(kinds)
    return count


def _emit(text: str, out_path) -> None:
    if out_path:
        with _atomic_open(out_path) as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _render_report_doc(doc: dict) -> str:
    return json.dumps(_round12(doc), indent=2) + "\n"


def _manifest_path(records_path: str) -> str:
    return records_path + ".manifest.json"


def _write_manifest(records_path: str, command: str, config_doc: dict, seed: int, count: int) -> None:
    manifest = {
        "artifact": "swapsim",
        "version": __version__,
        "command": command,
        "config": config_doc,
        "seed": seed,
        "trial_start": 0,
        "trial_end": count,
        "record_count": count,
        "outputs": {"records": records_path},
    }
    with _atomic_open(_manifest_path(records_path)) as handle:
        handle.write(_render_report_doc(manifest))


def _resolve_seed(flag_value) -> int:
    if flag_value is not None:
        return int(flag_value)
    env = os.environ.get("SWAPSIM_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"SWAPSIM_SEED must be an integer, got {env!r}") from None


def _angles_flag(text: str):
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected four comma-separated degrees: a,a',b,b'")
    try:
        a, a_prime, b, b_prime = (float(part) for part in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"angles must be numbers, got {text!r}") from None
    return ((a, a_prime), (b, b_prime))


_DEFAULT_ANGLES = ((0.0, 45.0), (22.5, 67.5))

_FILTERS = {
    "none": SelectionFilter.none,
    "psi-minus": lambda: SelectionFilter.bsm_equals("psi-minus"),
    "psi-plus": lambda: SelectionFilter.bsm_equals("psi-plus"),
    "phi-minus": lambda: SelectionFilter.bsm_equals("phi-minus"),
    "phi-plus": lambda: SelectionFilter.bsm_equals("phi-plus"),
    "other": lambda: SelectionFilter.bsm_equals("other"),
}


def _experiment_config(args) -> ExperimentConfig:
    angles0, angles3 = args.angles
    return ExperimentConfig(
        angles0=angles0,
        angles3=angles3,
        trials=args.trials,
        ordering=Ordering(args.ordering),
        bsm_mode=BsmMode(args.bsm_mode),
        seed=_resolve_seed(args.seed),
        visibility=args.visibility,
    )


def _experiment_config_doc(config: ExperimentConfig) -> dict:
    return {
        "angles0": [config.angles0[0].degrees, config.angles0[1].degrees],
        "angles3": [config.angles3[0].degrees, config.angles3[1].degrees],
        "trials": config.trials,
        "ordering": config.ordering.value,
        "bsm_mode": config.bsm_mode.value,
        "seed": config.seed,
        "setting_policy": config.setting_policy,
        "visibility": config.visibility,
    }


def cmd_simulate(args) -> int:
    config = _experiment_config(args)
    if args.threads is not None and args.threads < 1:
        raise UsageError(f"--threads must be >= 1, got {args.threads}")
    count = _write_records(args.out, run_chunks(config))
    _write_manifest(args.out, "simulate", _experiment_config_doc(config), config.seed, count)
    sys.stdout.write(f"wrote {count} records to {args.out}\n")
    sys.stdout.write(f"manifest: {_manifest_path(args.out)}\n")
    return 0


def cmd_analyze(args) -> int:
    selection = _FILTERS[args.select]()
    report = chsh(iter_records_file(args.input), selection)
    _emit(_render_report_doc(report.to_json_dict()), args.out)
    return 0


def _scan_grid(step: float) -> list[float]:
    if step <= 0:
        raise UsageError(f"--scan-step must be positive, got {step}")
    deltas = []
    delta = 0.0
    while delta <= 90.0 + 1e-9:
        deltas.append(min(delta, 90.0))
        delta += step
    return deltas


def _scan_config(delta: float, args, trials: int) -> ExperimentConfig:
    # Cell (0,0) carries the pair (alpha=0, delta); the unused second
    # settings just need to be distinct mod 180.
    return ExperimentConfig(
        angles0=(0.0, 45.0),
        angles3=(delta, delta + 90.0),
        trials=trials,
        ordering=Ordering(args.ordering),
        bsm_mode=BsmMode(args.bsm_mode),
        seed=_resolve_seed(args.seed),
        visibility=args.visibility,
    )


def _exact_cell_correlations(config: ExperimentConfig, cell) -> tuple[float, float]:
    """(E conditioned on psi-, unconditional E) for one setting cell, exactly."""
    table = exact_joint_distribution(config)
    keep_p = keep_e = all_p = all_e = 0.0
    for (i0, i3, o0, o3, bsm), p in table.items():
        if (i0, i3) != cell:
            continue
        all_p += p
        all_e += o0 * o3 * p
        if bsm is BsmOutcome.PSI_MINUS:
            keep_p += p
            keep_e += o0 * o3 * p
    return keep_e / keep_p, all_e / all_p


def _scan_csv(args) -> str:
    lines = ["delta_deg,e_psi_minus,e_unconditional"]
    for delta in _scan_grid(args.scan_step):
        if args.exact:
            config = _scan_config(delta, args, trials=1)
            e_filtered, e_all = _exact_cell_correlations(config, (0, 0))
        else:
            config = _scan_config(delta, args, trials=args.trials)
            records = list(run_batch(config))
            e_filtered = correlation(records, (0, 0), SelectionFilter.bsm_equals("psi-minus")).e_value
            e_all = correlation(records, (0, 0), SelectionFilter.none()).e_value
        lines.append(f"{_fmt(delta)},{_fmt(e_filtered)},{_fmt(e_all)}")
    return "\n".join(lines) + "\n"


def _exact_filter_s(config: ExperimentConfig, label) -> float:
    """Signed S from the exact table under a bsm==label filter (None = keep all)."""
    table = exact_joint_distribution(config)
    weights = {cell: 0.0 for cell in ((0, 0), (0, 1), (1, 0), (1, 1))}
    sums = {cell: 0.0 for cell in weights}
    for (i0, i3, o0, o3, bsm), p in table.items():
        if label is not None and bsm is not label:
            continue
        weights[(i0, i3)] += p
        sums[(i0, i3)] += o0 * o3 * p
    e = {cell: (sums[cell] / weights[cell] if weights[cell] > 0 else 0.0) for cell in weights}
    return e[(0, 0)] - e[(0, 1)] + e[(1, 0)] + e[(1, 1)]


def _summary_text(args) -> str:
    config = _experiment_config(args)
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
    if args.exact:
        table = exact_joint_distribution(config)
        lines.append("exact joint-measurement outcome probabilities:")
        for label in labels:
            p = sum(p for key, p in table.items() if key[4] is label)
            lines.append(f"  P(bsm={label.value}) = {_fmt(p)}")
        lines.append("")
        lines.append("exact CHSH S by selection:")
        for label in labels:
            s = _exact_filter_s(config, label)
            lines.append(f"  filter bsm={label.value}: S = {_fmt(s)}  |S| = {_fmt(abs(s))}")
        s_all = _exact_filter_s(config, None)
        lines.append(f"  filter none: S = {_fmt(s_all)}  |S| = {_fmt(abs(s_all))}")
    else:
        # one pass: (aligned, opposed) counts per label and setting cell
        counts = {label: {(i0, i3): [0, 0] for i0 in (0, 1) for i3 in (0, 1)} for label in labels}
        for record in run_batch(config):
            cell = counts[record.bsm][(record.setting0_index, record.setting3_index)]
            cell[record.outcome0 != record.outcome3] += 1
        kept = {label: sum(map(sum, counts[label].values())) for label in labels}
        lines.append(f"sampled outcome frequencies (N={config.trials}, seed={config.seed}):")
        for label in labels:
            lines.append(f"  f(bsm={label.value}) = {_fmt(kept[label] / config.trials)}")
        lines.append("")
        lines.append("sampled CHSH by selection:")
        for label in labels:
            report = chsh_from_counts(counts[label], f"bsm={label.value}", kept[label], config.trials)
            lines.append(f"  filter bsm={label.value}: S = {_fmt(report.s_value)}  "
                         f"|S| = {_fmt(report.s_abs)}  std_err = {_fmt(report.s_std_err)}  kept = {report.kept}")
        pooled = {cell: [sum(counts[label][cell][k] for label in labels) for k in (0, 1)]
                  for cell in counts[labels[0]]}
        report = chsh_from_counts(pooled, "none", config.trials, config.trials)
        lines.append(f"  filter none: S = {_fmt(report.s_value)}  |S| = {_fmt(report.s_abs)}  "
                     f"std_err = {_fmt(report.s_std_err)}  kept = {report.kept}")
    return "\n".join(lines) + "\n"


def cmd_report(args) -> int:
    if args.scan:
        _emit(_scan_csv(args), args.out)
    else:
        _emit(_summary_text(args), args.out)
    return 0


def _classical_config(args) -> ClassicalConfig:
    angles0, angles3 = args.angles
    return ClassicalConfig(
        angles0=angles0,
        angles3=angles3,
        trials=args.trials,
        seed=_resolve_seed(args.seed),
    )


_MODELS = {
    "sign": lambda args: sign_model(),
    "uniform": lambda args: uniform_model(),
    "fourier": lambda args: random_fourier_model(args.model_seed),
}


def _cmd_classical_generate(args) -> int:
    config = _classical_config(args)
    model = _MODELS[args.model](args)
    count = _write_records(args.out, lhv_chunks(model, config))
    config_doc = {
        "model": model.name,
        "angles0": [config.angles0[0].degrees, config.angles0[1].degrees],
        "angles3": [config.angles3[0].degrees, config.angles3[1].degrees],
        "trials": config.trials,
        "seed": config.seed,
    }
    _write_manifest(args.out, "classical-generate", config_doc, config.seed, count)
    sys.stdout.write(f"wrote {count} records to {args.out}\n")
    sys.stdout.write(f"manifest: {_manifest_path(args.out)}\n")
    return 0


_RULES = {
    "pr-box": pr_box_rule,
    "quantum-mimic": quantum_mimic_rule,
}


def _cmd_classical_discard(args) -> int:
    rule = _RULES[args.rule]()
    seed = _resolve_seed(args.seed)
    kept, fraction = apply_discard(iter_records_file(args.input), rule, seed)
    with _atomic_open(args.out) as handle:
        for record in kept:
            handle.write(_record_line(record))
    doc = {
        "rule": rule.description,
        "kind": rule.kind,
        "kept": len(kept),
        "keep_fraction": fraction,
        "records": args.out,
    }
    sys.stdout.write(_render_report_doc(doc))
    return 0


def _cmd_classical_blind_check(args) -> int:
    config = _classical_config(args)
    models = [random_fourier_model(model_seed) for model_seed in range(args.models)]
    report = settings_blind_check(models, config)
    _emit(_render_report_doc(report.to_json_dict()), args.out)
    return 0 if report.all_within_bound else 1


def cmd_classical(args) -> int:
    return args.classical_handler(args)


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
                          help="accepted for compatibility (must be >= 1); changes neither bytes nor speed")
    simulate.set_defaults(handler=cmd_simulate)

    analyze = commands.add_parser("analyze", help="CHSH report over a JSONL record file")
    analyze.add_argument("--in", dest="input", required=True, help="records path")
    analyze.add_argument("--select", choices=sorted(_FILTERS), default="none",
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
    report.set_defaults(handler=cmd_report)

    classical = commands.add_parser("classical", help="hidden-variable records and discard rules")
    classical_sub = classical.add_subparsers(dest="subcommand", required=True)

    generate = classical_sub.add_parser("generate", help="write hidden-variable records")
    _add_common_angles(generate)
    generate.add_argument("--trials", type=int, default=100_000)
    generate.add_argument("--model", choices=sorted(_MODELS), default="uniform")
    generate.add_argument("--model-seed", type=int, default=0,
                          help="construction seed for the fourier model family")
    generate.add_argument("--out", required=True)
    generate.set_defaults(handler=cmd_classical, classical_handler=_cmd_classical_generate)

    discard = classical_sub.add_parser("discard", help="apply a record-comparing discard rule")
    discard.add_argument("--in", dest="input", required=True, help="records path (classical or quantum)")
    discard.add_argument("--rule", choices=sorted(_RULES), required=True)
    discard.add_argument("--seed", type=int, default=None,
                         help="keep-decision seed for probabilistic rules")
    discard.add_argument("--out", required=True, help="kept records path")
    discard.set_defaults(handler=cmd_classical, classical_handler=_cmd_classical_discard)

    blind = classical_sub.add_parser("blind-check",
                                     help="stress settings-blind markers against the local bound")
    _add_common_angles(blind)
    blind.add_argument("--trials", type=int, default=100_000)
    blind.add_argument("--models", type=int, default=20)
    blind.add_argument("--out", default=None)
    blind.set_defaults(handler=cmd_classical, classical_handler=_cmd_classical_blind_check)

    return parser


def main(argv=None) -> int:
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
    except UsageError as exc:
        print(f"swapsim: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"swapsim: i/o error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # bad config values assembled from flags
        print(f"swapsim: error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
