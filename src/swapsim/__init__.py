"""Four-photon entanglement-swapping simulator.

Two singlet pairs, a joint Bell measurement on the inner photons, and
polarization analyzers on the outer ones — with a configurable temporal
order of the measurements; CHSH estimation with post-selection; stage-wise
entanglement of the outer pair; and a classical hidden-variable engine with
record-comparing discard rules for the counterpoint.

The public names below resolve on first use (PEP 562), so ``import
swapsim`` loads no submodule, and a name loads only its home module and
what that imports: ``swapsim.chsh`` or ``swapsim.BsmOutcome`` need no
numpy.
"""

import importlib

__version__ = "0.1.0"

# Home module of every public name.
_EXPORTS = {
    "analysis": ("ChshReport", "CorrelationEstimate", "SelectionFilter", "chsh"),
    "classical": (
        "BlindCheckReport",
        "ClassicalConfig",
        "HiddenVariableModel",
        "random_fourier_model",
        "run_lhv",
        "settings_blind_check",
        "sign_model",
        "uniform_model",
    ),
    "discard": ("DiscardRule", "apply_discard", "pr_box_rule", "quantum_mimic_rule"),
    "entanglement": ("TwoQubitMetrics", "concurrence", "metrics_for", "negativity"),
    "measure": ("polarization_observable",),
    "protocol": (
        "ExperimentConfig",
        "StageSnapshot",
        "exact_joint_distribution",
        "run_batch",
        "run_trial",
        "stage_entanglement_report",
    ),
    "qstate": ("DensityMatrix", "PureState", "bell_state", "partial_trace", "tensor"),
    "records": (
        "AnalyzerAngle",
        "BellKind",
        "BsmMode",
        "BsmOutcome",
        "ClassicalRecord",
        "InsufficientDataError",
        "Ordering",
        "TrialRecord",
    ),
    "rng": ("RandomSource",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = ["__version__", *sorted(_HOME)]


def __getattr__(name: str):
    # Looked up in the home module on every access and never stored here:
    # a function rebound there (a tracer's wrapper, a test's stub) is what
    # the package gives, and this namespace holds only what imports put in it.
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
