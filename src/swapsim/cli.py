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
import re
import sys
from dataclasses import dataclass, replace
from itertools import compress
from typing import TYPE_CHECKING

from . import __version__
from .analysis import (
    InsufficientDataError,
    SelectionFilter,
    chsh_exact,
    chsh_from_counts,
    chsh_weighted,
    correlation_from_counts,
    tally_cells,
)
from .records import CHUNK, BsmMode, BsmOutcome, ClassicalRecord, Ordering, TrialRecord, bsm_outcomes

# Each command imports numpy, protocol and classical where it uses them, so
# analyze and --version start on the standard library alone and the quantum
# and classical commands never load each other's engine.
if TYPE_CHECKING:
    import numpy as np

    from .classical import ClassicalConfig
    from .protocol import ExperimentConfig


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


def _parse_line(text: str, line_number: int):
    """The record of one stripped line, by json.loads; RecordFormatError if it has none."""
    try:
        return _record_from_doc(json.loads(text))
    except (ValueError, KeyError, TypeError) as exc:
        raise RecordFormatError(line_number, str(exc)) from exc


# A line as the writers emit it: '{"trial_id":<t>' plus a tail that the
# record's other fields fix.  Ids of at most 18 digits fit in int64.
_CANONICAL_LINE = re.compile(r'\{"trial_id":(0|[1-9][0-9]{0,17})(,.*)')

# Tails remembered per file.  Past this many, a new tail takes the full
# parse, so memory stays flat on files whose lines share no tails.
_MAX_TAILS = 4096


def _templatable(tail: str) -> bool:
    """Whether every line '{"trial_id":<t>' + tail is one record up to its trial_id.

    json.loads keeps the last of repeated keys, so a "trial_id" key inside
    the tail, escaped or not, would override the leading id.  With null in
    the leading id's place such a key shows as a value that is not None; a
    null one fails the parse of the line itself, which the caller has run.
    """
    return json.loads('{"trial_id":null' + tail)["trial_id"] is None


@dataclass(frozen=True)
class RecordChunk:
    """Consecutive records of a file, as columns.

    Row r is ``templates[kinds[r]]`` with trial_id ``trial_ids[r]``.  Kinds
    are numbered by first appearance in the chunk, so every template has a
    row and rows of one kind differ in trial_id alone.
    """

    trial_ids: list[int]
    kinds: list[int]
    templates: list

    def records(self):
        """The rows as records, in file order."""
        templates = self.templates
        for trial_id, kind in zip(self.trial_ids, self.kinds):
            template = templates[kind]
            yield template if template.trial_id == trial_id else replace(template, trial_id=trial_id)


def read_record_chunks(path: str):
    """Yield a JSONL record file as RecordChunks of up to CHUNK records.

    A line in the writers' form costs a match and a dict lookup: json.loads
    runs on its tail's first line only.  Any other line (other spacing or
    key order, an id that is not a plain non-negative integer) is parsed
    whole and becomes a kind of its own.  The records, and the line number
    and message of a RecordFormatError, are those of parsing every line
    with json.loads; before the error, the records above the bad line are
    yielded.  Blank lines are skipped.
    """
    known: dict[str, object] = {}  # templatable tail -> its record
    with open(path, encoding="utf-8") as handle:
        trial_ids, kinds, templates, local = [], [], [], {}
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            match = _CANONICAL_LINE.fullmatch(stripped)
            tail = match[2] if match else None
            kind = local.get(tail)
            if kind is None:  # the first line of its kind in this chunk
                template = known.get(tail)
                if template is None:  # a new tail, or not the writers' form: the full parse
                    try:
                        template = _parse_line(stripped, line_number)
                    except RecordFormatError:
                        if trial_ids:
                            yield RecordChunk(trial_ids, kinds, templates)
                        raise
                    if tail is not None and len(known) < _MAX_TAILS and _templatable(tail):
                        known[tail] = template
                    else:
                        tail = None  # a kind of its own, with the parsed trial_id
                kind = len(templates)
                templates.append(template)
                if tail is not None:
                    local[tail] = kind
            trial_ids.append(int(match[1]) if tail is not None else template.trial_id)
            kinds.append(kind)
            if len(trial_ids) == CHUNK:
                yield RecordChunk(trial_ids, kinds, templates)
                trial_ids, kinds, templates, local = [], [], [], {}
        if trial_ids:
            yield RecordChunk(trial_ids, kinds, templates)


def iter_records_file(path: str):
    """Yield records from a JSONL file, failing loudly with a line number."""
    for chunk in read_record_chunks(path):
        yield from chunk.records()


@contextlib.contextmanager
def _atomic_open(path: str):
    """Text handle on a temporary file that replaces ``path`` only when the block succeeds.

    The temporary file sits beside ``path`` (same file system, so the rename
    is atomic); on any exception it is removed and ``path`` is left as it was.
    """
    import tempfile

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


def _tails(records) -> list[str]:
    """Each record's line after '{"trial_id":<t>', cut from its _record_line."""
    tails = []
    for record in records:
        line = _record_line(record)
        head = f"{_TRIAL_ID_KEY}{record.trial_id}"
        if not line.startswith(head):
            raise RuntimeError(f"record line does not start with its trial_id: {line!r}")
        tails.append(line[len(head):])
    return tails


def _write_records(path: str, chunks) -> int:
    """Write (trial_ids, kinds, tails) chunks as JSONL, atomically; returns the record count.

    Row r is the line '{"trial_id":<trial_ids[r]>' + tails[kinds[r]].  Every
    tail is cut by _tails from a record of its kind, so every line equals
    _record_line of its record by construction.
    """
    count = 0
    with _atomic_open(path) as handle:
        for trial_ids, kinds, tails in chunks:
            handle.writelines([f"{_TRIAL_ID_KEY}{trial_id}{tails[kind]}"
                               for trial_id, kind in zip(trial_ids, kinds)])
            count += len(trial_ids)
    return count


def _batch_rows(chunks):
    """Writer chunks of a TrialChunk or ClassicalChunk stream.

    A chunk's kinds() index every field but trial_id the same way in every
    chunk, so each kind's tail is rendered once per file.
    """
    import numpy as np

    tails: dict[int, str] = {}
    for chunk in chunks:
        kinds = chunk.kinds()
        unique, first_rows = np.unique(kinds, return_index=True)
        fresh = [k for k, kind in enumerate(unique.tolist()) if kind not in tails]
        tails.update(zip(unique[fresh].tolist(), _tails(chunk.records(first_rows[fresh]))))
        yield chunk.trial_ids.tolist(), kinds.tolist(), tails


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
    from .protocol import ExperimentConfig

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
        "setting_policy": "uniform",  # the only policy: each trial picks both settings uniformly
        "visibility": config.visibility,
    }


def cmd_simulate(args) -> int:
    from .protocol import run_chunks

    config = _experiment_config(args)
    if args.threads is not None and args.threads < 1:
        raise UsageError(f"--threads must be >= 1, got {args.threads}")
    count = _write_records(args.out, _batch_rows(run_chunks(config)))
    _write_manifest(args.out, "simulate", _experiment_config_doc(config), config.seed, count)
    sys.stdout.write(f"wrote {count} records to {args.out}\n")
    sys.stdout.write(f"manifest: {_manifest_path(args.out)}\n")
    return 0


def _kind_counts(path: str):
    """(template, row count) for every kind of every chunk of a record file."""
    for chunk in read_record_chunks(path):
        counts = [0] * len(chunk.templates)
        for kind in chunk.kinds:
            counts[kind] += 1
        yield from zip(chunk.templates, counts)


def cmd_analyze(args) -> int:
    selection = _FILTERS[args.select]()
    report = chsh_weighted(_kind_counts(args.input), selection)
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
    from .protocol import ExperimentConfig

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


def _sampled_counts(config: ExperimentConfig) -> np.ndarray:
    """counts[bsm, setting0, setting3, outcomes differ] over a sampled batch, chunk by chunk."""
    import numpy as np

    from .protocol import run_chunks

    counts = np.zeros((len(bsm_outcomes(config.bsm_mode)), 2, 2, 2), dtype=np.int64)
    for chunk in run_chunks(config):
        opposed = chunk.outcome0 != chunk.outcome3
        tally_cells(counts, chunk.bsm, chunk.setting0, chunk.setting3, opposed)
    return counts


def _scan_csv(args) -> str:
    from .protocol import exact_joint_distribution

    lines = ["delta_deg,e_psi_minus,e_unconditional"]
    for delta in _scan_grid(args.scan_step):
        if args.exact:
            table = exact_joint_distribution(_scan_config(delta, args, trials=1))
            e_filtered = chsh_exact(table, BsmOutcome.PSI_MINUS)[0][(0, 0)]
            e_all = chsh_exact(table, None)[0][(0, 0)]
        else:
            config = _scan_config(delta, args, trials=args.trials)
            counts = _sampled_counts(config)
            label = BsmOutcome.PSI_MINUS
            selected = counts[bsm_outcomes(config.bsm_mode).index(label)]
            e_filtered = correlation_from_counts(selected, (0, 0), f"bsm={label.value}").e_value
            e_all = correlation_from_counts(counts.sum(axis=0), (0, 0), "none").e_value
        lines.append(f"{_fmt(delta)},{_fmt(e_filtered)},{_fmt(e_all)}")
    return "\n".join(lines) + "\n"


def _summary_text(args) -> str:
    from .protocol import exact_joint_distribution, stage_entanglement_report

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
            _, s = chsh_exact(table, label)
            lines.append(f"  filter bsm={label.value}: S = {_fmt(s)}  |S| = {_fmt(abs(s))}")
        _, s_all = chsh_exact(table, None)
        lines.append(f"  filter none: S = {_fmt(s_all)}  |S| = {_fmt(abs(s_all))}")
    else:
        counts = _sampled_counts(config)
        kept = counts.sum(axis=(1, 2, 3)).tolist()
        lines.append(f"sampled outcome frequencies (N={config.trials}, seed={config.seed}):")
        for label, label_kept in zip(labels, kept):
            lines.append(f"  f(bsm={label.value}) = {_fmt(label_kept / config.trials)}")
        lines.append("")
        lines.append("sampled CHSH by selection:")
        for index, label in enumerate(labels):
            report = chsh_from_counts(counts[index], f"bsm={label.value}", kept[index], config.trials)
            lines.append(f"  filter bsm={label.value}: S = {_fmt(report.s_value)}  "
                         f"|S| = {_fmt(report.s_abs)}  std_err = {_fmt(report.s_std_err)}  kept = {report.kept}")
        report = chsh_from_counts(counts.sum(axis=0), "none", config.trials, config.trials)
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
    from .classical import ClassicalConfig

    angles0, angles3 = args.angles
    return ClassicalConfig(
        angles0=angles0,
        angles3=angles3,
        trials=args.trials,
        seed=_resolve_seed(args.seed),
    )


_MODELS = ("fourier", "sign", "uniform")


def _model(args):
    from .classical import random_fourier_model, sign_model, uniform_model

    if args.model == "fourier":
        return random_fourier_model(args.model_seed)
    return sign_model() if args.model == "sign" else uniform_model()


def _cmd_classical_generate(args) -> int:
    from .classical import lhv_chunks

    config = _classical_config(args)
    model = _model(args)
    count = _write_records(args.out, _batch_rows(lhv_chunks(model, config)))
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


# Both rules read only settings and outcomes, never trial_id, so one
# keep weight per template holds for every row of its kind.
_RULES = ("pr-box", "quantum-mimic")


def _cmd_classical_discard(args) -> int:
    import numpy as np

    from .classical import keep_mask, pr_box_rule, quantum_mimic_rule

    rule = pr_box_rule() if args.rule == "pr-box" else quantum_mimic_rule()
    seed = _resolve_seed(args.seed)
    total = 0

    def kept_rows():
        nonlocal total
        for chunk in read_record_chunks(args.input):
            total += len(chunk.trial_ids)
            kinds = np.array(chunk.kinds, dtype=np.intp)
            weights = np.array([rule.checked_weight(template) for template in chunk.templates])
            keep = keep_mask(rule, seed, chunk.trial_ids, weights[kinds])
            kept_ids = list(compress(chunk.trial_ids, keep.tolist()))
            yield kept_ids, kinds[keep].tolist(), _tails(chunk.templates)

    kept = _write_records(args.out, kept_rows())
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
    generate.add_argument("--model", choices=_MODELS, default="uniform")
    generate.add_argument("--model-seed", type=int, default=0,
                          help="construction seed for the fourier model family")
    generate.add_argument("--out", required=True)
    generate.set_defaults(handler=cmd_classical, classical_handler=_cmd_classical_generate)

    discard = classical_sub.add_parser("discard", help="apply a record-comparing discard rule")
    discard.add_argument("--in", dest="input", required=True, help="records path (classical or quantum)")
    discard.add_argument("--rule", choices=_RULES, required=True)
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
