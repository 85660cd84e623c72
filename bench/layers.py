"""Per-layer metrics computed from the spans of one traced pipeline run.

Each metric names the end-to-end metric it should move (see BENCHMARK.json
and the workload list in run.py).  A layer a workload never enters reports
0 for its metrics.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from spans import LAYERS, Tracer, self_times


@dataclass(frozen=True)
class StepIO:
    """One pipeline step's command and the records in the record files it wrote."""

    command: str
    records_written: int


# (name, unit, better) for every per-layer metric, in print order.
PER_LAYER = (
    ("measure.rng.streams", "count", "lower"),
    ("measure.rng.busy_s", "s", "lower"),
    ("measure.outcome_distribution.calls", "count", "lower"),
    ("measure.outcome_distribution.busy_s", "s", "lower"),
    ("protocol.tables.build_s", "s", "lower"),
    ("protocol.sample.self_us_per_trial", "us", "lower"),
    ("protocol.records", "count", "higher"),
    ("protocol.stage_report.busy_s", "s", "lower"),
    ("qstate.partial_trace.busy_s", "s", "lower"),
    ("entanglement.metrics_for.busy_s", "s", "lower"),
    ("cli.render_write.self_us_per_record", "us", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("cli.parse.us_per_record", "us", "lower"),
    ("cli.bytes_read", "bytes", "lower"),
    ("cli.simulate.busy_ratio", "ratio", "higher"),
    ("analysis.tally.self_us_per_record", "us", "lower"),
    ("analysis.tally.records_scanned", "count", "lower"),
    ("analysis.keep_frac", "ratio", "higher"),
    ("analysis.keep_frac.base", "count", "higher"),
    ("classical.lhv.self_us_per_trial", "us", "lower"),
    ("classical.discard.self_us_per_record", "us", "lower"),
    ("classical.discard.keep_frac", "ratio", "higher"),
    ("classical.blind_check.us_per_trial_model", "us", "lower"),
) + tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS) + (
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

_WRITE_SIDE_EXCLUDED = ("cli.iter_records_file", "cli.build_parser")


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator * scale / denominator if denominator else 0.0


def compute(tracer: Tracer, steps: list[StepIO], build_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run (all except the trace.* overhead figures)."""
    names = [tracer.names[i] for i in tracer.name]
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    writing = {i for i, step in enumerate(steps) if step.records_written}
    render_write = 0.0
    simulate_sampling = 0.0
    for i, name in enumerate(names):
        duration = tracer.end[i] - tracer.start[i]
        calls[name] += 1
        busy[name] += duration
        own[name] += selfs[i]
        layer = name.split(".", 1)[0]
        layer_self[layer] += selfs[i]
        step = tracer.step[i]
        if layer == "cli" and step in writing and name not in _WRITE_SIDE_EXCLUDED:
            render_write += selfs[i]
        if name in ("protocol.run_trial", "protocol.run_batch") and steps[step].command == "simulate":
            simulate_sampling += duration

    counters: dict[str, int] = defaultdict(int)
    per_step: dict[tuple[str, int], int] = defaultdict(int)
    for (key, step), value in tracer.counters.items():
        counters[key] += value
        per_step[(key, step)] += value

    discard_steps = [i for i, step in enumerate(steps) if step.command == "discard"]
    discard_in = sum(per_step[("cli.iter_records_file.items", i)] for i in discard_steps)
    discard_kept = sum(steps[i].records_written for i in discard_steps)
    records = calls["protocol.run_trial"] + counters["protocol.run_batch.items"]
    scanned = counters["analysis.records_scanned"]
    parsed = counters["cli.iter_records_file.items"]
    rng_names = [name for name in busy if name.startswith("measure.RandomSource.")]

    metrics = {
        "measure.rng.streams": calls["measure.RandomSource.__init__"],
        "measure.rng.busy_s": sum(busy[name] for name in rng_names),
        "measure.outcome_distribution.calls": calls["measure.outcome_distribution"],
        "measure.outcome_distribution.busy_s": busy["measure.outcome_distribution"],
        "protocol.tables.build_s": build_s,
        "protocol.sample.self_us_per_trial":
            _ratio(own["protocol.run_trial"] + own["protocol.run_batch"], records, 1e6),
        "protocol.records": records,
        "protocol.stage_report.busy_s": busy["protocol.stage_entanglement_report"],
        "qstate.partial_trace.busy_s": busy["qstate.partial_trace"],
        "entanglement.metrics_for.busy_s": busy["entanglement.metrics_for"],
        "cli.render_write.self_us_per_record":
            _ratio(render_write, sum(step.records_written for step in steps), 1e6),
        "cli.bytes_written": counters["file.bytes_written"],
        "cli.parse.us_per_record": _ratio(busy["cli.iter_records_file"], parsed, 1e6),
        "cli.bytes_read": counters["file.bytes_read"],
        "cli.simulate.busy_ratio": _ratio(simulate_sampling, busy["cli.cmd_simulate"]),
        "analysis.tally.self_us_per_record":
            _ratio(own["analysis.chsh"] + own["analysis.correlation"], scanned, 1e6),
        "analysis.tally.records_scanned": scanned,
        "analysis.keep_frac":
            _ratio(counters["analysis.selected.kept"], counters["analysis.selected.total"]),
        "analysis.keep_frac.base": counters["analysis.selected.total"],
        "classical.lhv.self_us_per_trial":
            _ratio(own["classical.run_lhv"], counters["classical.run_lhv.items"], 1e6),
        "classical.discard.self_us_per_record": _ratio(own["classical.apply_discard"], discard_in, 1e6),
        "classical.discard.keep_frac": _ratio(discard_kept, discard_in),
        "classical.blind_check.us_per_trial_model":
            _ratio(busy["classical.settings_blind_check"],
                   counters["classical.blind_check.trial_models"], 1e6),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    return metrics
