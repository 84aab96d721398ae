"""Exact DoF analysis and scheduling for layered multi-source relay networks.

Every public name is loaded from its submodule on first use (PEP 562), so
``import relaydof`` imports no submodule and ``relaydof.analyze`` imports
only ``model`` and ``analysis``.
"""

from importlib import import_module

# submodule -> the public names it provides here
_EXPORTS = {
    "model": (
        "INFINITY",
        "DemandError",
        "DemandMatrix",
        "DocumentError",
        "ExtRational",
        "Infinity",
        "LayerSpec",
        "NetworkTopology",
        "TopologyError",
        "antenna_split",
        "parse_demand",
        "parse_topology",
        "scale_antennas",
        "serialize_demand",
        "serialize_topology",
        "validate_demand",
    ),
    "analysis": (
        "AnalysisError",
        "AnalysisReport",
        "absolute_and_fractional_gap",
        "achievable_sum_dof",
        "analyze",
        "bounding_set",
        "cutset_sum_dof",
        "hop_achievable_dof",
        "hop_cutset_dof",
        "inverse_gap",
        "is_optimal",
        "relay_loss_factor",
        "ultimate_capacity",
    ),
    "region": ("RegionVerdict", "ScaleResult", "Violation", "check_demand", "max_uniform_scale"),
    "schedule": (
        "PhasePlan",
        "Schedule",
        "SplitPlan",
        "VerificationReport",
        "integer_schedule",
        "phase_ratios",
        "recurrence_sum_dof",
        "splitting_plan",
        "verify_schedule",
    ),
    "scaling": (
        "FamilyError",
        "FamilySpec",
        "ScalingVerdict",
        "antenna_scale_check",
        "classify",
        "evaluate_family",
        "parse_family",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
