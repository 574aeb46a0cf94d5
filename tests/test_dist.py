"""Tests for the exact distribution layer."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from maxmix import (
    Assembly,
    FiniteDistribution,
    PreconditionError,
    ResourceCapExceeded,
    SurvivalStep,
    as_rational,
    discretize,
)

from genutil import (
    cdf_step,
    product_step,
    random_assembly,
    random_distribution,
    step_distribution,
    support_grid,
)


def dist(*pairs):
    return FiniteDistribution.from_pairs(pairs)


@st.composite
def distributions(draw, max_atoms=5):
    size = draw(st.integers(1, max_atoms))
    nums = draw(st.lists(st.integers(0, 24), min_size=size, max_size=size,
                         unique=True))
    den = draw(st.sampled_from([1, 2, 3, 4]))
    weights = draw(st.lists(st.integers(1, 9), min_size=size, max_size=size))
    total = sum(weights)
    return FiniteDistribution.from_pairs(
        (F(v, den), F(w, total)) for v, w in zip(nums, weights)
    )


@st.composite
def assemblies(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    return Assembly(tuple(draw(distributions()) for _ in range(n)))


class TestConstruction:
    def test_merges_duplicate_values(self):
        d = dist((1, F(1, 4)), (0, F(1, 2)), (1, F(1, 4)))
        assert d.atoms == ((F(0), F(1, 2)), (F(1), F(1, 2)))

    def test_drops_zero_masses(self):
        d = dist((0, F(0)), (1, F(1)))
        assert d.atoms == ((F(1), F(1)),)

    def test_rejects_negative_mass(self):
        with pytest.raises(PreconditionError):
            dist((0, F(3, 2)), (1, F(-1, 2)))

    def test_rejects_bad_total(self):
        with pytest.raises(PreconditionError, match="sum to 9/10"):
            dist((0, F(1, 2)), (1, F(2, 5)))

    def test_rejects_negative_value(self):
        with pytest.raises(PreconditionError):
            dist((-1, F(1)))

    def test_rejects_floats(self):
        with pytest.raises(TypeError, match="float"):
            dist((0.5, F(1)))

    def test_has_no_strict_constructor(self):
        # from_pairs, from_ratios and point_mass are the only ways in
        with pytest.raises(TypeError):
            FiniteDistribution(((F(0), F(1, 2)), (F(1), F(1, 2))))

    def test_string_inputs_are_exact(self):
        d = dist(("0.125", "1/2"), ("3/7", "0.5"))
        assert d.atoms == ((F(1, 8), F(1, 2)), (F(3, 7), F(1, 2)))

    def test_long_integer_strings_are_exact(self):
        tok = "1" * 5000  # beyond the interpreter's default limit of 4300 digits
        want = (10**5000 - 1) // 9
        assert as_rational(tok) == want
        assert dist((tok, 1)).support_max == want

    @pytest.mark.parametrize("tok", ["1" * 4999 + "x", "-" + "1" * 4999, "x" * 100],
                             ids=["bad-end", "signed", "letters"])
    def test_refused_strings_are_quoted_clipped(self, tok):
        with pytest.raises(ValueError, match="^bad rational") as caught:
            as_rational(tok)
        assert tok[:41] not in str(caught.value) and len(str(caught.value)) < 300

    def test_equality_is_decidable(self):
        a = dist((0, F(1, 2)), (1, F(1, 2)))
        b = dist((1, F(2, 4)), (0, F(1, 2)))
        assert a == b and hash(a) == hash(b)


class TestCdf:
    def test_right_includes_the_atom(self):
        d = dist((0, F(1, 2)), (1, F(1, 2)))
        assert d.cdf(0) == F(1, 2)

    def test_left_excludes_the_atom(self):
        d = dist((0, F(1, 2)), (1, F(1, 2)))
        assert d.cdf(1, "left") == F(1, 2)

    def test_between_atoms(self):
        d = dist((0, F(1, 3)), (2, F(1, 3)), (5, F(1, 3)))
        assert d.cdf(3) == F(2, 3)

    @seed(1_425_031)
    @given(distributions(), st.integers(0, 30))
    def test_left_right_gap_is_the_atom_mass(self, d, k):
        x = F(k, 4)
        assert d.cdf(x) - d.cdf(x, "left") == dict(d.atoms).get(x, 0)
        assert d.cdf(x) >= d.cdf(x, "left")


class TestMeans:
    def test_expected_value_half(self):
        assert dist((0, F(1, 2)), (1, F(1, 2))).expected_value() == F(1, 2)

    def test_expected_value_point(self):
        assert FiniteDistribution.point_mass(3).expected_value() == 3

    def test_expected_value_weighted(self):
        d = dist((0, F(1, 4)), (2, F(1, 4)), (4, F(1, 2)))
        assert d.expected_value() == F(5, 2)


class TestExpectedMax:
    def test_single_constant(self):
        assert Assembly((FiniteDistribution.point_mass(5),)).expected_max() == 5

    def test_two_fair_bits(self):
        d = dist((0, F(1, 2)), (1, F(1, 2)))
        assert Assembly((d, d)).expected_max() == F(3, 4)

    def test_constant_against_spread(self):
        a = Assembly((FiniteDistribution.point_mass(2),
                      dist((0, F(1, 2)), (3, F(1, 2)))))
        assert a.expected_max() == F(5, 2)

    @seed(1_425_032)
    @given(assemblies())
    @settings(max_examples=60)
    def test_bracketed_by_member_means(self, a):
        e = a.expected_max()
        means = [d.expected_value() for d in a.members]
        assert max(means) <= e <= sum(means)


class TestSimilarMaxMean:
    @pytest.mark.parametrize("p,b,n", [
        (F(1, 2), F(1), 2),
        (F(1, 4), F(3), 3),
        (F(63, 64), F(7, 2), 5),
    ])
    def test_two_point_closed_form(self, p, b, n):
        d = dist((0, p), (b, 1 - p))
        assert d.similar_max_mean(n) == b * (1 - p**n)

    def test_constant(self):
        assert FiniteDistribution.point_mass(F(7, 3)).similar_max_mean(4) == F(7, 3)

    def test_three_uniform_atoms(self):
        d = dist((0, F(1, 3)), (1, F(1, 3)), (2, F(1, 3)))
        assert d.similar_max_mean(2) == F(13, 9)

    @seed(1_425_033)
    @given(distributions(), st.integers(1, 4))
    @settings(max_examples=60)
    def test_matches_assembly_of_copies(self, d, n):
        assert d.similar_max_mean(n) == Assembly.of_copies(d, n).expected_max()

    def test_rejects_bad_counts(self):
        d = dist((0, F(1, 2)), (1, F(1, 2)))
        for bad in (0, -1, F(2), 1.5):
            with pytest.raises(PreconditionError):
                d.similar_max_mean(bad)


class TestMixture:
    def test_identical_members(self):
        d = dist((0, F(1, 2)), (1, F(1, 2)))
        assert Assembly((d, d)).mixture() == d

    def test_two_constants(self):
        a = Assembly((FiniteDistribution.point_mass(0),
                      FiniteDistribution.point_mass(1)))
        assert a.mixture() == dist((0, F(1, 2)), (1, F(1, 2)))

    def test_mass_averaging(self):
        a = Assembly((dist((0, F(1, 2)), (1, F(1, 2))),
                      dist((0, F(1, 4)), (2, F(3, 4)))))
        assert a.mixture() == dist((0, F(3, 8)), (1, F(1, 4)), (2, F(3, 8)))

    @seed(1_425_034)
    @given(assemblies())
    @settings(max_examples=60)
    def test_mean_is_linear(self, a):
        lhs = a.mixture().expected_value()
        rhs = sum(d.expected_value() for d in a.members) / a.n
        assert lhs == rhs


def uniform01(x, side="right"):
    """Exact CDF evaluator of the uniform distribution on [0, 1]."""
    return min(max(x, F(0)), F(1))


class TestDiscretize:
    def test_point_mass_beyond_the_cap(self):
        d = FiniteDistribution.point_mass(3)
        assert discretize(d.cdf, 2) == FiniteDistribution.point_mass(2)

    def test_point_mass_on_the_grid(self):
        d = FiniteDistribution.point_mass(F(1, 2))
        assert discretize(d.cdf, 3) == d

    def test_uniform_level_one(self):
        assert discretize(uniform01, 1) == dist((0, F(1, 2)), (F(1, 2), F(1, 2)))

    def test_uniform_mean_closed_form(self):
        for m in range(1, 9):
            got = discretize(uniform01, m).expected_value()
            assert got == F(1, 2) - F(1, 2 ** (m + 1))

    @pytest.mark.parametrize("seed", range(4))
    def test_mean_monotone_in_level_and_below_truth(self, seed):
        rng = random.Random(500 + seed)
        d = random_distribution(rng, max_atoms=5)
        means = [discretize(d.cdf, m).expected_value() for m in range(1, 6)]
        assert all(x <= y for x, y in zip(means, means[1:]))
        assert means[-1] <= d.expected_value()

    def test_dominated_by_the_input(self):
        rng = random.Random(77)
        d = random_distribution(rng, max_atoms=5)
        approx = discretize(d.cdf, 4)
        for v in d.values:
            if v < 4:
                assert approx.cdf(v) >= d.cdf(v)

    def test_cap_is_enforced(self):
        # 20 * 2**20 cells, refused before any CDF call
        with pytest.raises(ResourceCapExceeded):
            discretize(uniform01, 20)

    @pytest.mark.parametrize("m", [15000, 10**6])
    def test_high_level_is_refused_with_a_short_message(self, m):
        # m * 2**m has thousands of digits: refused without forming or printing it
        with pytest.raises(ResourceCapExceeded, match=f"m = {m}") as caught:
            discretize(uniform01, m)
        assert len(str(caught.value)) < 200

    def test_rejects_mass_below_zero(self):
        def shifted(x, side="right"):
            return min(max(x + F(1, 2), F(0)), F(1))
        with pytest.raises(PreconditionError):
            discretize(shifted, 2)


class TestSurvivalStep:
    def test_roundtrip_through_atoms(self):
        rng = random.Random(11)
        for _ in range(20):
            d = random_distribution(rng)
            assert step_distribution(cdf_step(d)) == d

    def test_product_matches_pointwise_cdf(self):
        rng = random.Random(12)
        for _ in range(20):
            a = random_assembly(rng, n_range=(2, 4))
            step = product_step(a)
            for x in support_grid(a):
                expect = F(1)
                for d in a.members:
                    expect *= d.cdf(x)
                assert step.value_at(x) == expect

    def test_validation(self):
        with pytest.raises(PreconditionError):
            SurvivalStep((F(0), F(1)), (F(1, 2), F(3, 4)))  # final plateau not 1
        with pytest.raises(PreconditionError):
            SurvivalStep((F(1), F(0)), (F(1, 2), F(1)))  # breakpoints unsorted
        with pytest.raises(PreconditionError):
            SurvivalStep((F(0), F(1)), (F(3, 4), F(1, 2)))  # plateaus decreasing


class TestMaxDistribution:
    def test_matches_enumeration_by_hand(self):
        a = Assembly((dist((0, F(1, 2)), (1, F(1, 2))),
                      dist((0, F(1, 4)), (2, F(3, 4)))))
        got = a.max_distribution()
        assert got == dist((0, F(1, 8)), (1, F(1, 8)), (2, F(3, 4)))

    def test_mean_agrees_with_expected_max(self):
        rng = random.Random(13)
        for _ in range(20):
            a = random_assembly(rng, n_range=(2, 4))
            assert a.max_distribution().expected_value() == a.expected_max()
