"""The result and argument records: immutable named tuples."""

import math
from fractions import Fraction

import pytest

from seiffert_bounds import (
    BlendGapFamily,
    CounterexampleWitness,
    CriticalPointReport,
    DomainError,
    PositivePair,
    SharpConstantReport,
    SharpnessWitness,
    TruncatedSeries,
    VerificationResult,
)

#: Each record with its fields in order and one set of values for them.
RECORDS = [
    (PositivePair, ("a", "b"), (1.0, 3.0)),
    (TruncatedSeries, ("kind", "coefficients", "truncation_order", "radius", "tail_bound"),
     ("ratio", (0.5,), 1, 0.5, 1e-3)),
    (VerificationResult,
     ("suite", "passed", "n_samples", "min_slack_left", "min_slack_right", "arg_left", "arg_right",
      "witness", "stats"),
     ("thm1", True, 10, 0.1, 0.2, 1.5, 2.5, None, {})),
    (SharpnessWitness, ("shift", "ratio", "lhs", "rhs"), (1e-6, 2.0, 0.3, 0.2)),
    (SharpConstantReport, ("name", "closed_form", "discovered", "abs_gap", "witness"),
     ("blend_beta", 1.0, 1.0, 0.0, None)),
    (BlendGapFamily, ("p",), (0.75,)),
    (CriticalPointReport, ("t0", "t1", "t2", "t3", "residuals"), (1.1, 1.2, 1.3, 1.4, (0.0, 0.0, 0.0, 0.0))),
    (CounterexampleWitness, ("side", "t", "blend_value", "seiffert_value"), ("below_one", 1.01, 1.0, 1.0)),
]


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=[r[0].__name__ for r in RECORDS])
class TestRecordContract:
    def test_keyword_and_positional_construction(self, cls, fields, values):
        assert cls._fields == fields
        by_position, by_keyword = cls(*values), cls(**dict(zip(fields, values)))
        assert by_position == by_keyword
        assert [getattr(by_keyword, name) for name in fields] == list(values)
        # a record is a tuple: it iterates, and equals the plain tuple of its values
        assert tuple(by_position) == values and by_position == values

    def test_immutable(self, cls, fields, values):
        record = cls(*values)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, values[0])
        # no instance dict, so no attribute can be added either
        with pytest.raises(AttributeError):
            record.extra = 1
        assert record == values

    def test_repr_names_the_class(self, cls, fields, values):
        assert repr(cls(*values)).startswith(f"{cls.__name__}({fields[0]}=")

    def test_every_field_is_required(self, cls, fields, values):
        with pytest.raises(TypeError):
            cls(*values[:-1])


@pytest.mark.parametrize(
    "a, b, message",
    [
        (math.inf, 1.0, "pair entries must be finite, got (inf, 1.0)"),
        (1, math.nan, "pair entries must be finite, got (1, nan)"),
        (-math.inf, -math.inf, "pair entries must be finite, got (-inf, -inf)"),
        (0.0, 1.0, "pair entries must be strictly positive, got (0.0, 1.0)"),
        (2, -1, "pair entries must be strictly positive, got (2.0, -1.0)"),
        (-0.0, 5e-324, "pair entries must be strictly positive, got (-0.0, 5e-324)"),
    ],
)
def test_positive_pair_domain(a, b, message):
    with pytest.raises(DomainError) as exc:
        PositivePair(a, b)
    assert str(exc.value) == message
    with pytest.raises(DomainError):
        PositivePair(1.0, 2.0)._replace(a=a, b=b)


def test_positive_pair_converts_to_float():
    pair = PositivePair(1, "3")
    assert pair == (1.0, 3.0) and all(type(x) is float for x in pair)
    assert PositivePair(5e-324, 5e-324) == (5e-324, 5e-324)
    assert pair._replace(b=2) == (1.0, 2.0) and type(pair._replace(b=2).b) is float


@pytest.mark.parametrize(
    "p, message",
    [
        (0.5, "blend parameter must lie in (1/2, 1], got 0.5"),
        (1.0000001, "blend parameter must lie in (1/2, 1], got 1.0000001"),
        (0.3, "blend parameter must lie in (1/2, 1], got 0.3"),
        (math.nan, "blend parameter must lie in (1/2, 1], got nan"),
        (math.inf, "blend parameter must lie in (1/2, 1], got inf"),
        (-1, "blend parameter must lie in (1/2, 1], got -1"),
    ],
)
def test_blend_gap_family_domain(p, message):
    with pytest.raises(DomainError) as exc:
        BlendGapFamily(p)
    assert str(exc.value) == message
    with pytest.raises(DomainError):
        BlendGapFamily(0.75)._replace(p=p)


def test_blend_gap_family_converts_to_float():
    for p in (1, "0.75", Fraction(3, 4)):
        family = BlendGapFamily(p)
        assert type(family.p) is float and family == (float(p),)
