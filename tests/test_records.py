"""Value semantics of the package's record and value types.

Results and stored forms are `NamedTuple` records that check nothing on
construction (`BoundReport` and `TransformOutcome` derive their summaries
from their fields); `Enclosure`, `FiniteDistribution`, `SurvivalStep`,
`CdfTable` and `Assembly` are plain classes, because tuple concatenation and
ordering would be wrong for them.  Either way an instance refuses attribute
assignment, compares and hashes by its fields, and keeps its repr.

The extremal builder takes its targets as plain arguments: `build` and
`realize` convert them with `as_rational` and refuse bad ones, with the
messages pinned at the end of this file.
"""

import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from maxmix import (
    Assembly,
    BoundReport,
    ChainChecks,
    Enclosure,
    FiniteDistribution,
    GamGapReport,
    McEstimate,
    PreconditionError,
    SurvivalStep,
    TransformOutcome,
    build,
    full_report,
    performance_bounds,
    realize,
)
from maxmix.cli import AssemblyDocument, SweepRow
from maxmix.dist import CdfTable

from genutil import cdf_step, random_assembly


def _dist():
    return FiniteDistribution.from_pairs([(0, F(1, 4)), (F(3, 2), F(3, 4))])


def _assembly():
    return Assembly((_dist(), FiniteDistribution.point_mass(1)))


def _chain():
    return ChainChecks(mean_le_mixture=True, mixture_le_exact=True, exact_le_upper=True)


# Each builder makes a fresh instance from equal fields on every call.
RECORDS = {
    "IntegerForm": lambda: _dist().form,
    "McEstimate": lambda: McEstimate(mean=1.5, stderr=0.25, samples=10, seed=3),
    "TransformOutcome": lambda: TransformOutcome(
        result=_dist(), m_residual=F(0), e_delta=F(1, 8)),
    "GamGapReport": lambda: GamGapReport(
        gap=Enclosure(F(0), F(1, 3)), bound=F(1, 2)),
    "ChainChecks": _chain,
    "AssemblyDocument": lambda: AssemblyDocument(_assembly(), name="pair", bound=F(2)),
    "SweepRow": lambda: SweepRow(*(F(k, 7) for k in range(1, 8))),
    "BoundReport": lambda: full_report(_assembly()),
}
VALUES = {
    "Enclosure": lambda: Enclosure(F(1, 3), F(1, 2)),
    "FiniteDistribution": _dist,
    "SurvivalStep": lambda: cdf_step(_dist()),
    "CdfTable": lambda: _assembly().table,
    "Assembly": _assembly,
}
BUILDERS = {**RECORDS, **VALUES}


@pytest.mark.parametrize("name", BUILDERS)
def test_assignment_and_deletion_are_refused(name):
    x = BUILDERS[name]()
    field = next(iter(x._fields if name in RECORDS else vars(x)))
    with pytest.raises(AttributeError):
        setattr(x, field, None)
    with pytest.raises(AttributeError):
        setattr(x, "extra", None)
    with pytest.raises(AttributeError):
        delattr(x, field)


@pytest.mark.parametrize("name", BUILDERS)
def test_equal_fields_compare_and_hash_equal(name):
    x, y = BUILDERS[name](), BUILDERS[name]()
    assert x is not y
    assert x == y and not x != y
    assert hash(x) == hash(y)


@pytest.mark.parametrize("name", VALUES)
def test_values_differ_from_other_classes(name):
    x = VALUES[name]()
    fields = tuple(vars(x).values())
    assert x != fields and x != fields[0]
    for other in VALUES:
        if other != name:
            assert x != VALUES[other]()


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_tuples(name):
    x = RECORDS[name]()
    assert isinstance(x, tuple) and x == tuple(x)
    for other in RECORDS:
        if other != name:
            assert x != RECORDS[other]()


def test_fields_that_differ_break_equality():
    assert Enclosure(F(0), F(1)) != Enclosure(F(0), F(2))
    assert _dist() != FiniteDistribution.point_mass(1)
    assert Assembly((_dist(),)) != _assembly()
    assert _chain() != _chain()._replace(exact_le_upper=False)


def test_reprs_are_unchanged():
    assert repr(Enclosure(F(1, 3), F(1, 2))) == "Enclosure(1/3, 1/2)"
    assert repr(Enclosure.exact(F(2))) == "Enclosure(2)"
    assert repr(_dist()) == "FiniteDistribution({0:1/4, 3/2:3/4})"
    assert repr(_assembly()) == \
        "Assembly(n=2, members=[FiniteDistribution({0:1/4, 3/2:3/4}), FiniteDistribution({1:1})])"
    assert repr(cdf_step(_dist())) == (
        "SurvivalStep(breakpoints=(Fraction(0, 1), Fraction(3, 2)), "
        "plateaus=(Fraction(1, 4), Fraction(1, 1)))")
    assert repr(_assembly().table) == \
        "CdfTable(scale=2, xs=(0, 2, 3), product=((0, 1, 4), 4), mixture=((1, 5, 8), 8))"


def test_reprs_of_long_values_match_the_unlimited_repr():
    # 5000 digits: past the interpreter's default limit for int <-> str
    big = 10**4999 + 7
    d = FiniteDistribution.from_pairs([(0, F(1, 2)), (big, F(1, 2))])
    a = Assembly((d, FiniteDistribution.point_mass(F(1, big))))
    values = [Enclosure(F(1, big), F(big)), Enclosure.exact(F(-big, 3)), a.table,
              cdf_step(d), d, a]
    shown = [repr(x) for x in values]
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        assert shown == [repr(x) for x in values]
    finally:
        sys.set_int_max_str_digits(limit)
    assert all(len(text) > 5000 for text in shown)


BIG = 10**4999 + 7  # 5000 digits: past the interpreter's default limit for int <-> str


def _long_dist():
    return FiniteDistribution.from_pairs([(0, F(1, 2)), (BIG, F(1, 2))])


def _long_assembly():
    return Assembly((_long_dist(), FiniteDistribution.point_mass(1)))


# Each builder makes a record with a 5000-digit value in one of its fields.
LONG_RECORDS = {
    "IntegerForm": lambda: _long_dist().form,
    "McEstimate": lambda: McEstimate(mean=1.5, stderr=0.25, samples=BIG, seed=3),
    "TransformOutcome": lambda: TransformOutcome(
        result=_dist(), m_residual=F(1, BIG), e_delta=F(BIG, 3), alphas=(None, F(1, BIG))),
    "GamGapReport": lambda: GamGapReport(
        gap=Enclosure(F(0), F(BIG)), bound=F(1, BIG)),
    "ChainChecks": lambda: ChainChecks(BIG, True, True),
    "AssemblyDocument": lambda: AssemblyDocument(_long_assembly(), name="big", bound=F(BIG)),
    "SweepRow": lambda: SweepRow(*(F(BIG, k) for k in range(1, 8))),
    "BoundReport": lambda: full_report(_long_assembly()),
}


def test_every_record_has_a_long_value_builder():
    assert set(LONG_RECORDS) == set(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_record_reprs_of_long_values_match_the_unlimited_repr(name):
    x = LONG_RECORDS[name]()
    shown = repr(x)
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        fields = ", ".join(f"{f}={getattr(x, f)!r}" for f in x._fields)
        assert shown == f"{name}({fields})"
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(shown) > 5000


def test_record_reprs_of_small_values_are_the_namedtuple_repr():
    for name, build in RECORDS.items():
        x = build()
        assert repr(x) == f"{name}({', '.join(f'{f}={getattr(x, f)!r}' for f in x._fields)})"
    assert repr(RECORDS["McEstimate"]()) == "McEstimate(mean=1.5, stderr=0.25, samples=10, seed=3)"
    assert repr(RECORDS["SweepRow"]()).startswith("SweepRow(parameter=Fraction(1, 7), ")


def test_keyword_construction():
    assert Enclosure(lo=F(1), hi=F(2)) == Enclosure(F(1), F(2))
    assert Assembly(members=[_dist()]) == Assembly((_dist(),))
    step = cdf_step(_dist())
    assert SurvivalStep(breakpoints=list(step.breakpoints), plateaus=step.plateaus) == step
    t = _assembly().table
    assert CdfTable(scale=t.scale, xs=t.xs, product=t.product, mixture=t.mixture) == t


def test_extremal_spec_normalises_targets_to_fractions():
    exact = (F(1, 2), F(1))
    assert realize(["1/2", 1], ("3/4",)) == realize(exact, (F(3, 4),))
    assert realize(["1/2", 1], ("3/4",)).similar_means() == exact
    assert build(["1/2", 1], "1/100") == build(exact, F(1, 100))
    assert build((3,), 1).members == (FiniteDistribution.point_mass(3),)


@pytest.mark.parametrize("args, message", [
    ((build, (), 1), "m_list must not be empty"),
    ((build, (0, 1), 1), "target similar means must be positive"),
    ((build, (2, 1), 1), "target similar means must be ascending"),
    ((build, (1, 1), 0), "closeness must be positive, got 0"),
    ((realize, (1, 1), ("1/2", "1/2")), "p_schedule needs 1 entries, got 2"),
    ((realize, (1, 1), (1,)), r"every scheduled zero mass must lie in \(0, 1\)"),
    ((realize, (), ()), "m_list must not be empty"),
    ((realize, (0, 1), ("1/2",)), "target similar means must be positive"),
    ((realize, (2, 1), ("1/2",)), "target similar means must be ascending"),
])
def test_extremal_spec_refusals(args, message):
    call, *arguments = args
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        call(*arguments)


def test_extremal_spec_refuses_floats():
    for call, *arguments in [(build, (0.5,), 1), (build, (1,), 0.5),
                             (realize, (1, 0.5), ("1/2",)), (realize, (1, 1), (0.5,))]:
        with pytest.raises(TypeError, match="refusing inexact float"):
            call(*arguments)


def test_record_fields():
    assert BoundReport._fields == ("m_list", "exact_e", "mixture_e", "chain", "holder")
    assert TransformOutcome._fields == ("result", "m_residual", "e_delta", "alphas")


_ZERO_PAIR = Assembly((FiniteDistribution.point_mass(0),) * 2)


@seed(1_425_001)
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.fractions(min_value=-4, max_value=4, max_denominator=16))
@example(0, F(0))
def test_summaries_are_derived_from_the_fields(s, e_delta):
    for a in (random_assembly(random.Random(s), max_atoms=4), _ZERO_PAIR):
        r = full_report(a)
        ms = a.similar_means()
        assert r.m_list == ms and r.n == len(ms) == a.n
        assert (r.m_bar, r.upper) == performance_bounds(ms)
        assert r.m_max == max(ms)
        assert r.theta == (r.exact_e / r.m_max if r.m_max else 1)
    assert r.theta == 1  # the all-zero pair
    out = TransformOutcome(a, F(0), e_delta)
    assert out.direction == ("increased" if e_delta > 0 else
                             "decreased" if e_delta < 0 else "unchanged")
