"""Handlers of the classical commands (generate, discard, blind-check), loaded when one of them runs.

They import numpy, classical and discard where they use them, so generate
and blind-check never load the rules, discard never loads the
hidden-variable engine, and a module first loaded while the benchmark's
tracer is installed holds none of its wrappers after the tracer is removed.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING

from .cli_shared import _angles_doc, _atomic_open, _emit, _render_report_doc, _resolve_seed, _write_batch
from .records import InsufficientDataError, read_record_chunks, write_records

if TYPE_CHECKING:
    from .classical import ClassicalConfig


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


def _cmd_classical_discard(args) -> int:
    # Both rules read only settings and outcomes, never trial_id, so one
    # keep weight per template holds for every row of its kind.
    from .discard import discard_chunks, pr_box_rule, quantum_mimic_rule

    rule = pr_box_rule() if args.rule == "pr-box" else quantum_mimic_rule()
    seed = _resolve_seed(args.seed)
    total = 0

    def counted(chunks):
        nonlocal total
        for chunk in chunks:
            total += len(chunk.trial_ids)
            yield chunk

    with _atomic_open(args.out) as (handle,):
        kept = write_records(handle, discard_chunks(counted(read_record_chunks(args.input)), rule, seed))
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
