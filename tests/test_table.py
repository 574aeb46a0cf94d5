"""Differential tests of the integer CDF table against independent paths.

The table computes every exact quantity of the bound chain.  Here each of
them is compared with brute-force enumeration (`oracle`, which never reads
the table), with the distribution of the maximum built from step-CDF
products, and with the members' own CDFs point by point, on seeded
Hypothesis draws that reach the corners: one member, all-zero members,
point masses, shared and disjoint supports, and huge or tiny values and
masses.
"""

import bisect
import math
import random
from fractions import Fraction as F

from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from maxmix import (
    Assembly,
    FiniteDistribution,
    enumerate_expected_max,
    full_report,
    mixture_dominance_check,
    mixture_lower,
)
from maxmix.cli import parse_assembly_text

from genutil import product_step, random_assembly, step_distribution, support_grid

values = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=0, max_value=20, max_denominator=12),
    st.integers(1, 400).map(lambda e: F(10) ** e),        # far beyond float range
    st.integers(1, 400).map(lambda e: F(7, 10**e)),       # far below it
    st.integers(1, 10**30).map(lambda k: F(k, 10**30 + 7)),
)


@st.composite
def distributions(draw):
    support = draw(st.lists(values, min_size=1, max_size=3, unique=True))
    # integer weights over a wide range give huge denominators and tiny masses
    weights = draw(st.lists(st.integers(1, 10**40), min_size=len(support),
                            max_size=len(support)))
    total = sum(weights)
    return FiniteDistribution.from_pairs((v, F(w, total)) for v, w in zip(support, weights))


@st.composite
def assemblies(draw):
    n = draw(st.integers(1, 4))
    members = draw(st.lists(st.one_of(
        distributions(),
        st.just(FiniteDistribution.point_mass(0)),
        values.map(FiniteDistribution.point_mass),
    ), min_size=n, max_size=n))
    return Assembly(tuple(members))


@seed(805_0447)
@settings(max_examples=150, deadline=None)
@given(assemblies())
def test_table_matches_enumeration(a):
    n = a.n
    assert a.expected_max() == enumerate_expected_max(a)
    assert a.expected_max() == a.max_distribution().expected_value()
    assert a.similar_means() == tuple(
        enumerate_expected_max(Assembly.of_copies(d, n)) for d in a.members)
    assert mixture_lower(a) == enumerate_expected_max(Assembly.of_copies(a.mixture(), n))
    assert mixture_dominance_check(a)


def test_corners_by_hand():
    zero = FiniteDistribution.point_mass(0)
    assert Assembly((zero,)).expected_max() == 0
    assert Assembly((zero, zero, zero)).similar_means() == (0, 0, 0)
    assert mixture_lower(Assembly((zero, zero))) == 0
    big = F(10) ** 500
    a = Assembly((FiniteDistribution.point_mass(big), zero))
    assert a.expected_max() == big
    assert a.similar_means() == (big, 0)
    # the mixture is big or 0 with even odds: the max of 2 copies is big w.p. 3/4
    assert mixture_lower(a) == big * F(3, 4)
    single = FiniteDistribution.from_pairs([(F(1, 3), F(1, 10**50)), (2, 1 - F(1, 10**50))])
    assert Assembly((single,)).expected_max() == single.expected_value()


def _check_rows(a):
    # the jump sums and the gam_gap integrand read these rows; they
    # must equal the CDF products and means computed point by point
    t = a.table
    prod_nums, prod_den = t.product
    mix_nums, mix_den = t.mixture
    grid = support_grid(a)
    assert tuple(F(x, t.scale) for x in t.xs) == grid
    assert t.scale == math.lcm(*(d.form.scale for d in a.members))
    assert len(prod_nums) == len(mix_nums) == len(t.xs)
    for k, x in enumerate(grid):
        cdfs = [d.cdf(x) for d in a.members]
        assert F(prod_nums[k], prod_den) == math.prod(cdfs)
        assert F(mix_nums[k], mix_den) == sum(cdfs) / a.n
    assert prod_nums[-1] == prod_den and mix_nums[-1] == mix_den


def test_rows_match_pointwise_cdfs():
    rng = random.Random(23)
    for _ in range(30):
        _check_rows(random_assembly(rng, n_range=(1, 5)))


@seed(805_0448)
@settings(max_examples=150, deadline=None)
@given(assemblies())
def test_integer_forms_match_the_atoms(a):
    # the table reads each member's integer form; it must say what the
    # Fraction atoms say, over the least common denominators
    for d in a.members:
        f = d.form
        assert f.scale == math.lcm(*(v.denominator for v in d.values))
        assert f.den == math.lcm(*(m.denominator for m in d.masses))
        assert d.atoms == tuple((F(x, f.scale), F(m, f.den))
                                for x, m in zip(f.values, f.masses))
        assert FiniteDistribution(d.atoms).form == f
        unreduced = [(3 * x, 3 * f.scale, 2 * m, 2 * f.den)
                     for x, m in zip(f.values, f.masses)]
        assert FiniteDistribution.from_ratios(*zip(*reversed(unreduced))).form == f
    t = a.table
    assert tuple(F(x, t.scale) for x in t.xs) == support_grid(a)
    # each member's one-member table, read as a step function, gives its
    # CDF at every merged point (the rows test covers the merged tables)
    for d in a.members:
        t = Assembly((d,)).table
        nums, den = t.product
        assert t.mixture == t.product
        own = [F(x, t.scale) for x in t.xs]
        for x in support_grid(a):
            k = bisect.bisect_right(own, x)
            assert (F(nums[k - 1], den) if k else 0) == d.cdf(x)


def _dist(*pairs):
    return FiniteDistribution.from_pairs(pairs)


half, third = F(1, 2), F(1, 3)
#: assemblies at the corners of the one-sweep table build, named where used
CORNERS = (
    Assembly((_dist((1, half), (3, half)),)),
    Assembly((FiniteDistribution.point_mass(2), FiniteDistribution.point_mass(0))),
    Assembly((_dist((0, third), (2, 1 - third)), _dist((1, half), (2, half)))),
    Assembly((_dist((0, half), (1, half)), _dist((2, half), (3, half)))),
    Assembly((_dist((0, third), (5, 1 - third)),) * 3),
    Assembly((_dist((1, F(1, 4)), (2, F(3, 4))), _dist((1, half), (2, half)), _dist((2, 1)))),
    # scales 2 and 3 merge on scale 6
    Assembly((_dist((half, half), (F(3, 2), half)), _dist((third, F(1, 5)), (1, F(4, 5))))),
)

#: values on small coprime scales, so that members share some points and the
#: merged scale usually exceeds every member's own
grid = st.builds(F, st.integers(0, 6), st.sampled_from([1, 2, 3, 5, 7]))


@st.composite
def corner_assemblies(draw):
    pool = draw(st.lists(st.one_of(grid, values), min_size=1, max_size=6, unique=True))
    members = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["pool", "fresh", "point", "copy"]))
        if kind == "copy" and members:
            members.append(members[-1])
        elif kind == "point":
            members.append(FiniteDistribution.point_mass(draw(st.sampled_from(pool))))
        elif kind == "fresh":
            members.append(draw(distributions()))
        else:
            support = draw(st.lists(st.sampled_from(pool), min_size=1, unique=True))
            weights = draw(st.lists(st.integers(1, 10**6), min_size=len(support),
                                    max_size=len(support)))
            total = sum(weights)
            members.append(_dist(*((v, F(w, total)) for v, w in zip(support, weights))))
    return Assembly(tuple(members))


@seed(805_0449)
@settings(max_examples=200, deadline=None)
@given(corner_assemblies())
@example(a=CORNERS[0]).via("n = 1")
@example(a=CORNERS[1]).via("point masses")
@example(a=CORNERS[2]).via("an atom at 0")
@example(a=CORNERS[3]).via("disjoint supports")
@example(a=CORNERS[4]).via("identical members")
@example(a=CORNERS[5]).via("shared values")
@example(a=CORNERS[6]).via("merged scale above every member's own")
def test_swept_rows_match_pointwise_cdfs(a):
    _check_rows(a)


@seed(805_0450)
@settings(max_examples=150, deadline=None)
@given(st.one_of(assemblies(), corner_assemblies()))
def test_max_distribution_is_the_product_step(a):
    assert a.max_distribution() == step_distribution(product_step(a))


# ---------------------------------------------------------------------------
# lazy Fraction atoms

_LAZY = ("atoms", "values", "masses")


def _builds(d):
    """The same distribution built the three public ways, atoms not yet read."""
    f = d.form
    return (
        FiniteDistribution(d.atoms),
        FiniteDistribution.from_pairs(reversed(d.atoms)),
        FiniteDistribution.from_ratios(f.values, [f.scale] * len(f.values),
                                       f.masses, [f.den] * len(f.masses)),
    )


@seed(805_0451)
@settings(max_examples=100, deadline=None)
@given(distributions())
def test_builds_compare_and_hash_equal_before_and_after_atoms(d):
    direct, paired, ratios = _builds(d)
    assert not any(name in paired.__dict__ or name in ratios.__dict__ for name in _LAZY)
    for other in (paired, ratios):
        assert other == direct and hash(other) == hash(direct)
    assert paired.atoms == ratios.atoms == direct.atoms == d.atoms
    for other in (paired, ratios):
        assert other == direct and hash(other) == hash(direct)
        assert repr(other) == repr(direct)


def test_repr_is_unchanged():
    text = "FiniteDistribution({0:1/4, 3/2:1/4, 7:1/2})"
    for d in _builds(_dist((7, half), (0, F(1, 4)), (F(3, 2), F(1, 4)))):
        assert repr(d) == text
    assert repr(Assembly((FiniteDistribution.point_mass(1),))) == \
        "Assembly(n=1, members=[FiniteDistribution({1:1})])"


def test_the_chain_builds_no_fraction_atoms():
    text = ("n: 3\n"
            "member: 0:1/4 1/2:1/4 3:1/2\n"
            "member: 1/3:1/6 1:5/6\n"
            "member: 3:1\n")
    a = parse_assembly_text(text).assembly
    report = full_report(a)
    assert report.chain.all_ok
    for d in a.members:
        assert not any(name in d.__dict__ for name in _LAZY)
