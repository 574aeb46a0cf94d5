"""Differential tests of the integer CDF table against independent paths.

The table computes every exact quantity of the bound chain.  Here each of
them is compared with brute-force enumeration (`oracle`, which never reads
the table) and with the distribution of the maximum built from step-CDF
products, on seeded Hypothesis draws that reach the corners: one member,
all-zero members, point masses, and huge or tiny values and masses.
"""

import math
import random
from fractions import Fraction as F

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from maxmix import (
    Assembly,
    FiniteDistribution,
    enumerate_expected_max,
    mixture_dominance_check,
    mixture_lower,
)

from genutil import random_assembly

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


def test_rows_match_pointwise_cdfs():
    # the gam_gap integrand reads these rows; they must equal the CDF
    # products and means computed point by point
    rng = random.Random(23)
    for _ in range(30):
        a = random_assembly(rng, n_range=(1, 5))
        t = a.table
        prod_nums, prod_den = t.product
        mix_nums, mix_den = t.mixture
        for k, x in enumerate(a.merged_support):
            cdfs = [d.cdf(x) for d in a.members]
            assert F(prod_nums[k], prod_den) == math.prod(cdfs)
            assert F(mix_nums[k], mix_den) == sum(cdfs) / a.n
