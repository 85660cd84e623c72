"""Handlers of the quantum commands, simulate and report, loaded when one of them runs.

They import numpy, protocol and analysis where they use them, so a module
first loaded while the benchmark's tracer is installed holds none of its
wrappers after the tracer is removed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .cli_shared import _angles_doc, _emit, _fmt, _resolve_seed, _write_batch
from .records import BsmMode, BsmOutcome, Ordering, bsm_outcomes

if TYPE_CHECKING:
    from .protocol import ExperimentConfig

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
    # settings just need to be distinct mod 180.
    return _experiment_config(args, ((0.0, 45.0), (delta, delta + 90.0)), trials)


def _scan_csv(args) -> str:
    from .analysis import SelectionFilter, correlation_weighted
    from .protocol import exact_cell_records, kind_counts

    psi_minus = SelectionFilter.bsm_equals(BsmOutcome.PSI_MINUS)
    lines = ["delta_deg,e_psi_minus,e_unconditional"]
    for delta in _scan_grid(args.scan_step):
        if args.exact:  # the scan prints cell (0,0) only, so only its plan is walked
            weighted = exact_cell_records(_scan_config(delta, args, trials=1), 0, 0)
        else:
            weighted = kind_counts(_scan_config(delta, args, trials=args.trials))
        e_filtered = correlation_weighted(weighted, (0, 0), psi_minus).e_value
        e_all = correlation_weighted(weighted, (0, 0)).e_value
        lines.append(f"{_fmt(delta)},{_fmt(e_filtered)},{_fmt(e_all)}")
    return "\n".join(lines) + "\n"


def _summary_text(args) -> str:
    from .analysis import SelectionFilter, chsh_weighted
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
    selections = [SelectionFilter.bsm_equals(label) for label in labels] + [SelectionFilter.none()]
    reports = [chsh_weighted(weighted, selection) for selection in selections]
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
