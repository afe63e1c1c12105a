"""Bivariate means, sharp Seiffert-mean bounds, and their verification stack.

The library evaluates the Seiffert, centroidal, classical and blend means,
re-derives the sharp constants of the two double inequalities

    blend(alpha) < seiffert < blend(beta)        (sharp: alpha = (1+sqrt(12/pi-3))/2, beta = 1)
    a1*C + (1-a1)*A < seiffert < b1*C + (1-b1)*A (sharp: a1 = 4/pi-1, b1 = 1/3)

by root-finding and extremal scans, and proves the auxiliary-function
ladder behind the lower blend bound in exact arithmetic.  See README.md for a tour.
"""

import importlib

__version__ = "0.1.0"

#: The public names by the submodule that defines them.  Each is imported on
#: first access (PEP 562), so ``import seiffert_bounds`` loads no submodule
#: and no numpy until a name that needs it is read.
_EXPORTS = {
    "errors": ("BracketError", "DomainError"),
    "means": ("MEANS", "PositivePair", "excess_ratio_taylor", "mean"),
    "series": (
        "N_MAX",
        "TruncatedSeries",
        "bernoulli_even",
        "cot_coefficient",
        "cot_series",
        "csc2_coefficient",
        "csc2_series",
        "default_table",
        "ratio_coefficient",
        "ratio_series",
        "truncated_series",
        "zeta_even",
    ),
    "auxiliary": (
        "BlendGapFamily",
        "CounterexampleWitness",
        "CriticalPointReport",
        "counterexample_witness",
        "ladder_proof",
        "locate_critical_points",
    ),
    "sharp": (
        "CONSTANT_GAP_LIMIT",
        "RATIO_LOWER",
        "RATIO_UPPER",
        "SharpConstantReport",
        "SharpnessWitness",
        "VerificationResult",
        "blend_alpha_closed",
        "blend_alpha_numeric",
        "constants_report",
        "excess_ratio",
        "excess_ratio_upper_margin",
        "ratio_grid_scan",
        "sample_ratios",
        "verify_blend_bounds",
        "verify_ordering_chain",
        "verify_prior_bounds",
        "verify_ratio_bounds",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_SOURCE]


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


class _OnFirstUse:
    """A module imported on its first attribute access, which then takes the
    place of this stand-in in ``namespace``, under ``binding``.

    The submodules bind numpy, and the submodules that load it, this way: so
    importing them loads no numpy, and the first call that computes on arrays
    does.
    """

    def __init__(self, name: str, namespace: dict, binding: str):
        self._name, self._namespace, self._binding = name, namespace, binding

    def __getattr__(self, attr: str):
        module = importlib.import_module(self._name, __name__)
        self._namespace[self._binding] = module
        return getattr(module, attr)
