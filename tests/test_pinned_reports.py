"""Every public verifier's report, pinned byte for byte.

``pinned_reports.json`` holds the ``repr`` of each result of the four
``verify_*`` functions at seed 7, over two sample counts, four ratio ranges
and 13 constant settings (sharp and shifted by 1e-4), so the failing
settings pin their witnesses too.  These run r(t) and the means on numpy
arrays.  It also holds the reports that run them on floats, with
:mod:`math` only: ``constants_report``, four blend witnesses and the
critical points at the sharp parameter.  ``repr`` shows every field, NaN
included.

A change meant to keep every report, such as a refactor of the checks, must
pass this test unmodified.  A change that moves a report on purpose
regenerates the file by running this module as a script,

    PYTHONPATH=src python tests/test_pinned_reports.py

and names each moved field in CHANGES.md.
"""

import json
import pathlib

import pytest

from seiffert_bounds.auxiliary import BlendGapFamily, counterexample_witness, locate_critical_points
from seiffert_bounds.sharp import (
    RATIO_LOWER,
    RATIO_UPPER,
    blend_alpha_closed,
    constants_report,
    verify_blend_bounds,
    verify_ordering_chain,
    verify_prior_bounds,
    verify_ratio_bounds,
)

PINNED = pathlib.Path(__file__).with_name("pinned_reports.json")
SEED = 7
SAMPLES = (3_007, 20_000)
RATIO_MAXES = (1.5, 1e8, 1e13, 1e300)
SHIFT = 1e-4

SETTINGS = {
    "thm1": (verify_blend_bounds, {}),
    "thm1 alpha+": (verify_blend_bounds, {"alpha": blend_alpha_closed() + SHIFT}),
    "thm1 alpha-": (verify_blend_bounds, {"alpha": blend_alpha_closed() - SHIFT}),
    "thm1 beta-": (verify_blend_bounds, {"beta": 1.0 - SHIFT}),
    "thm1 alpha+ beta-": (verify_blend_bounds, {"alpha": blend_alpha_closed() + SHIFT, "beta": 1.0 - SHIFT}),
    "thm2": (verify_ratio_bounds, {}),
    "thm2 alpha1+": (verify_ratio_bounds, {"alpha1": RATIO_LOWER + SHIFT}),
    "thm2 alpha1-": (verify_ratio_bounds, {"alpha1": RATIO_LOWER - SHIFT}),
    "thm2 beta1+": (verify_ratio_bounds, {"beta1": RATIO_UPPER + SHIFT}),
    "thm2 beta1-": (verify_ratio_bounds, {"beta1": RATIO_UPPER - SHIFT}),
    "thm2 alpha1+ beta1-": (verify_ratio_bounds, {"alpha1": RATIO_LOWER + SHIFT, "beta1": RATIO_UPPER - SHIFT}),
    "priors": (verify_prior_bounds, {}),
    "chain": (verify_ordering_chain, {}),
}

#: The reports computed on floats, each from a call without arguments.
FLOAT_REPORTS = {
    "constants_report": constants_report,
    "witness above_alpha p=alpha+": lambda: counterexample_witness(blend_alpha_closed() + SHIFT, "above_alpha"),
    "witness below_one p=1-": lambda: counterexample_witness(1.0 - SHIFT, "below_one"),
    "witness above_alpha p=0.97": lambda: counterexample_witness(0.97, "above_alpha"),
    "witness below_one p=0.99": lambda: counterexample_witness(0.99, "below_one"),
    "critical points p=alpha": lambda: locate_critical_points(BlendGapFamily(blend_alpha_closed())),
}

KEYS = [
    f"{setting} samples={n} ratio_max={ratio_max!r}"
    for setting in SETTINGS
    for n in SAMPLES
    for ratio_max in RATIO_MAXES
] + list(FLOAT_REPORTS)


def _report(key: str) -> str:
    if key in FLOAT_REPORTS:
        return repr(FLOAT_REPORTS[key]())
    setting, n, ratio_max = key.rsplit(" ", 2)
    fn, keywords = SETTINGS[setting]
    return repr(fn(int(n.split("=")[1]), seed=SEED, ratio_max=float(ratio_max.split("=")[1]), **keywords))


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


def test_every_setting_is_pinned(pinned):
    assert sorted(pinned) == sorted(KEYS)


@pytest.mark.parametrize("key", KEYS)
def test_report_is_pinned(pinned, key):
    assert _report(key) == pinned[key]


if __name__ == "__main__":
    PINNED.write_text(json.dumps({key: _report(key) for key in KEYS}, indent=1) + "\n")
