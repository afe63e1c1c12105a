"""Every exported name resolves and is public, and so do its annotations; every
real argument beyond the double range is a DomainError."""

import importlib
import inspect
import pkgutil
import typing
from fractions import Fraction

import numpy as np
import pytest

import seiffert_bounds

MODULES = [seiffert_bounds] + [
    importlib.import_module(f"seiffert_bounds.{info.name}")
    for info in pkgutil.iter_modules(seiffert_bounds.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_resolves_to_public_names(module):
    names = module.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(module, name), name
        assert not name.startswith("_") or (name.startswith("__") and name.endswith("__")), name
        obj = getattr(module, name)
        for member in vars(obj).values() if inspect.isclass(obj) else [obj]:
            fn = getattr(member, "__func__", member)  # a classmethod's or staticmethod's function
            if inspect.isfunction(fn):
                typing.get_type_hints(fn)


#: Each entry that reads a real argument, given a number beyond the double range.
HUGE = 10**400
BEYOND_DOUBLES = {
    "verify_blend_bounds(ratio_max)": lambda: seiffert_bounds.verify_blend_bounds(10, ratio_max=HUGE),
    "verify_ratio_bounds(ratio_max)": lambda: seiffert_bounds.verify_ratio_bounds(10, ratio_max=HUGE),
    "verify_prior_bounds(ratio_max)": lambda: seiffert_bounds.verify_prior_bounds(10, ratio_max=HUGE),
    "verify_ordering_chain(ratio_max)": lambda: seiffert_bounds.verify_ordering_chain(10, ratio_max=HUGE),
    "sample_ratios(ratio_max)": lambda: seiffert_bounds.sample_ratios(np.random.default_rng(0), 10, HUGE),
    "verify_blend_bounds(alpha)": lambda: seiffert_bounds.verify_blend_bounds(10, alpha=HUGE),
    "verify_blend_bounds(beta)": lambda: seiffert_bounds.verify_blend_bounds(10, beta=-HUGE),
    "verify_ratio_bounds(alpha1)": lambda: seiffert_bounds.verify_ratio_bounds(10, alpha1=-HUGE),
    "verify_ratio_bounds(beta1)": lambda: seiffert_bounds.verify_ratio_bounds(10, beta1=HUGE),
    "PositivePair": lambda: seiffert_bounds.PositivePair(HUGE, 1),
    "mean(power)": lambda: seiffert_bounds.mean("power", seiffert_bounds.PositivePair(1, 2), HUGE),
    "mean(blend)": lambda: seiffert_bounds.mean("blend", seiffert_bounds.PositivePair(1, 2), HUGE),
    "BlendGapFamily": lambda: seiffert_bounds.BlendGapFamily(HUGE),
    "BlendGapFamily.gap": lambda: seiffert_bounds.BlendGapFamily(0.75).gap(HUGE),
    "counterexample_witness": lambda: seiffert_bounds.counterexample_witness(HUGE, "above_alpha"),
    "cot_series": lambda: seiffert_bounds.cot_series(HUGE, 5),
    "csc2_series": lambda: seiffert_bounds.csc2_series(-HUGE, 5),
    "ratio_series": lambda: seiffert_bounds.ratio_series(HUGE, 5),
    "truncated_series(radius)": lambda: seiffert_bounds.truncated_series("cot", 5, radius=HUGE),
    "excess_ratio": lambda: seiffert_bounds.excess_ratio(HUGE),
    "excess_ratio_upper_margin": lambda: seiffert_bounds.excess_ratio_upper_margin([0.5, HUGE]),
}


@pytest.mark.parametrize("call", BEYOND_DOUBLES.values(), ids=BEYOND_DOUBLES)
def test_a_number_beyond_the_double_range_is_a_domain_error(call):
    with pytest.raises(seiffert_bounds.DomainError) as exc:
        call()
    assert "\n" not in str(exc.value)


def test_a_ratio_max_beyond_the_double_range_reads_as_inf():
    with pytest.raises(seiffert_bounds.DomainError) as exc:
        seiffert_bounds.verify_ordering_chain(10, ratio_max=-HUGE)
    assert str(exc.value) == "ratio_max must be finite and exceed 1, got -inf"


def test_every_real_parameter_takes_the_same_conversion():
    # beta and p read a string as alpha does
    assert seiffert_bounds.verify_blend_bounds(1000, beta="1") == seiffert_bounds.verify_blend_bounds(1000)
    assert seiffert_bounds.counterexample_witness("0.97", "above_alpha") == seiffert_bounds.counterexample_witness(
        0.97, "above_alpha"
    )
    # and so does ratio_max, whose converted float is what numpy receives
    for given, value in ((Fraction(3, 2), 1.5), ("2", 2.0)):
        assert seiffert_bounds.verify_ratio_bounds(100, ratio_max=given) == seiffert_bounds.verify_ratio_bounds(
            100, ratio_max=value
        )
        drawn = seiffert_bounds.sample_ratios(np.random.default_rng(0), 100, given)
        assert drawn.tolist() == seiffert_bounds.sample_ratios(np.random.default_rng(0), 100, value).tolist()
