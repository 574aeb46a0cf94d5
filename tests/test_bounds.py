"""Tests for the bound chain computations."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from maxmix import (
    Assembly,
    ChainChecks,
    FiniteDistribution,
    InvariantViolation,
    PreconditionError,
    equality_diagnosis,
    full_report,
    gam_gap,
    gap,
    grouped_bounds,
    holder_lower,
    mixture_dominance_check,
    mixture_lower,
    performance_bounds,
)

from genutil import random_assembly, random_two_point_assembly


def dist(*pairs):
    return FiniteDistribution.from_pairs(pairs)


def two_point(p, b=F(1)):
    return dist((0, p), (b, 1 - p))


class TestPerformanceBounds:
    def test_equal_means(self):
        assert performance_bounds([F(1), F(1)]) == (F(1), F(3, 2))

    def test_single_member(self):
        assert performance_bounds([F(5)]) == (F(5), F(5))

    def test_mixed_means(self):
        assert performance_bounds([F(1), F(2), F(3)]) == (F(2), F(4))

    def test_rejects_empty(self):
        with pytest.raises(PreconditionError, match="must not be empty"):
            performance_bounds([])


class TestGroupedBounds:
    def test_single_group_collapses(self):
        assert grouped_bounds([F(2)] * 4, 1) == (F(2), F(2))

    def test_all_singletons_match_plain_bounds(self):
        ms = [F(1), F(2), F(5)]
        assert grouped_bounds(ms, 3) == performance_bounds(ms)

    def test_two_by_two(self):
        assert grouped_bounds([F(1), F(1), F(3), F(3)], 2) == (F(2), F(7, 2))

    def test_rejects_bad_shape(self):
        with pytest.raises(PreconditionError, match="3 equal groups do not split 4 members"):
            grouped_bounds([F(1)] * 4, 3)
        with pytest.raises(PreconditionError):
            grouped_bounds([F(1)] * 4, 0)
        for k in (True, 2.0):
            with pytest.raises(PreconditionError, match="group count k"):
                grouped_bounds([F(1), F(2)], k)


class TestMixtureLower:
    def test_identical_members_reproduce_exact(self):
        d = dist((0, F(1, 2)), (2, F(1, 2)))
        a = Assembly((d, d, d))
        assert mixture_lower(a) == a.expected_max()

    def test_two_point_closed_form(self):
        a = Assembly((two_point(F(1, 2)), two_point(F(1, 4))))
        assert mixture_lower(a) == F(55, 64)  # 1 - (3/8)^2

    def test_two_constants(self):
        a = Assembly((FiniteDistribution.point_mass(0),
                      FiniteDistribution.point_mass(1)))
        assert mixture_lower(a) == F(3, 4)


class TestMixtureDominance:
    def test_identical_members(self):
        d = dist((0, F(1, 2)), (1, F(1, 2)))
        assert mixture_dominance_check(Assembly((d, d)))

    def test_two_member_example(self):
        a = Assembly((dist((0, F(1, 2)), (1, F(1, 2))),
                      dist((0, F(1, 4)), (2, F(3, 4)))))
        assert mixture_dominance_check(a)

    def test_random_assemblies(self):
        rng = random.Random(21)
        for _ in range(60):
            assert mixture_dominance_check(random_assembly(rng, n_range=(2, 5)))


class TestHolderLower:
    def test_equal_means_collapse_exactly(self):
        got = holder_lower([F(3, 4), F(3, 4)], F(1))
        assert got.is_exact and got.lo == F(3, 4)

    def test_mixed_means_bracket_the_surd(self):
        got = holder_lower([F(1, 2), F(3, 4)], F(1))
        truth = 1 - math.sqrt(2) / 4
        assert got.width <= 2 * F(1, 10**12)
        assert abs(float(got.midpoint) - truth) < 1e-9

    def test_mean_touching_the_bound_forces_b(self):
        got = holder_lower([F(1), F(1, 2)], F(1))
        assert got.is_exact and got.lo == F(1)

    def test_tolerance_is_keyword_only(self):
        # a member count in third place must not pass for the tolerance
        with pytest.raises(TypeError):
            holder_lower([F(1, 2), F(3, 4)], F(1), 2)
        assert holder_lower([F(1, 2), F(3, 4)], F(1), tol=F(1, 4)).width <= F(1, 4)

    def test_rejects_mean_above_bound(self):
        with pytest.raises(PreconditionError, match="common upper bound"):
            holder_lower([F(2)], F(1))

    def test_dominates_the_mean_bound(self):
        rng = random.Random(22)
        tol = F(1, 10**12)
        for _ in range(40):
            a, b = random_two_point_assembly(rng)
            ms = a.similar_means()
            got = holder_lower(ms, b)
            assert got.midpoint >= sum(ms) / a.n - tol


class TestCertifiedHolderChecks:
    """The two root-based chain checks read the enclosure endpoints."""

    PAIR = "bound: 1\nmember: 0:1/2 1:1/2\nmember: 0:1/4 1:3/4\n"

    @pytest.mark.parametrize("label, centre", [
        ("holder <= exact_E + tol", "exact_e"),
        ("M_bar <= holder + tol", "m_bar"),
    ])
    def test_a_wide_enclosure_fails_on_its_endpoint(self, tmp_path, monkeypatch, capsys,
                                                    label, centre):
        from maxmix import Enclosure, bounds
        from maxmix.cli import EXIT_INVARIANT, main, parse_assembly_text

        path = tmp_path / "pair.txt"
        path.write_text(self.PAIR)
        report = full_report(parse_assembly_text(self.PAIR).assembly, b=1)
        assert report.chain.all_ok
        # the midpoint sits on the value the check compares with, so a
        # midpoint test would pass; the endpoint one past it must fail
        mid = getattr(report, centre)
        monkeypatch.setattr(bounds, "holder_lower",
                            lambda *args, **kwargs: Enclosure(mid - 1, mid + 1))
        wide = full_report(parse_assembly_text(self.PAIR).assembly, b=1)
        assert not wide.chain.all_ok
        assert main(["verify", str(path)]) == EXIT_INVARIANT
        lines = capsys.readouterr().out.splitlines()
        assert f"  {label:<24} FAILED" in lines
        assert "verdict: FAIL (implementation defect)" in lines


class TestChainChecks:
    def test_one_label_per_field(self):
        assert len(ChainChecks.labels) == len(ChainChecks._fields)
        assert len(set(ChainChecks.labels)) == len(ChainChecks.labels)

    @pytest.mark.parametrize("field", ChainChecks._fields)
    def test_all_ok_fails_exactly_on_a_false_field(self, field):
        passing = ChainChecks(True, True, True)  # no holder bound: both None
        assert passing.holder_le_exact is None and passing.all_ok
        assert ChainChecks(*[True] * 5).all_ok
        assert not passing._replace(**{field: False}).all_ok
        assert not ChainChecks(*[True] * 5)._replace(**{field: False}).all_ok


class TestGamGap:
    def test_identical_members_gap_is_exactly_zero(self):
        d = dist((0, F(1, 3)), (1, F(1, 3)), (3, F(1, 3)))
        report = gam_gap(Assembly((d, d)))
        assert report.gap.is_exact and report.gap.lo == 0

    def test_two_constants_hit_the_bound(self):
        a = Assembly((FiniteDistribution.point_mass(0),
                      FiniteDistribution.point_mass(1)))
        report = gam_gap(a)
        assert report.gap.is_exact and report.gap.lo == F(1, 2)
        assert report.bound == F(1, 2)

    def test_random_assemblies_obey_the_bound(self):
        rng = random.Random(23)
        for _ in range(40):
            a = random_assembly(rng, n_range=(2, 4), max_atoms=4)
            report = gam_gap(a)
            assert report.gap.hi >= 0
            assert report.gap.lo <= report.bound

    def test_forms_must_agree_exactly(self):
        # a mixture row shifted by one unit moves its mean by about 1e-41,
        # far below the tolerance; the exact identity still catches it
        tiny = F(1, 10**40 + 1)
        a = Assembly((dist((0, tiny), (1, 1 - tiny)), dist((0, F(1, 2)), (2, F(1, 2)))))
        t = a.table
        nums, den = t.mixture
        a.__dict__["table"] = type(t)(t.scale, t.xs, t.product, ((nums[0] + 1, *nums[1:]), den))
        with pytest.raises(InvariantViolation, match="disagree"):
            gam_gap(a)


class TestFullReport:
    def test_identical_fair_bits(self):
        d = dist((0, F(1, 2)), (1, F(1, 2)))
        r = full_report(Assembly((d, d)))
        assert r.m_list == (F(3, 4), F(3, 4))
        assert r.exact_e == F(3, 4)
        assert r.theta == 1
        assert r.chain.all_ok

    def test_constant_against_spread(self):
        a = Assembly((FiniteDistribution.point_mass(1),
                      dist((0, F(1, 2)), (2, F(1, 2)))))
        r = full_report(a, b=2)
        assert r.m_list == (F(1), F(3, 2))
        assert r.exact_e == F(3, 2)
        assert r.mixture_e == F(11, 8)
        assert r.upper == F(2)
        assert r.chain.all_ok

    def test_single_member_collapses(self):
        d = dist((0, F(1, 4)), (4, F(3, 4)))
        r = full_report(Assembly((d,)))
        assert r.m_bar == r.mixture_e == r.exact_e == r.upper == d.expected_value()
        assert r.theta == 1

    def test_all_zero_assembly_theta_convention(self):
        d = FiniteDistribution.point_mass(0)
        r = full_report(Assembly((d, d)))
        assert r.m_max == 0 and r.theta == 1 and r.chain.all_ok

    def test_rejects_bound_below_support(self):
        d = dist((0, F(1, 2)), (2, F(1, 2)))
        with pytest.raises(PreconditionError):
            full_report(Assembly((d, d)), b=1)

    def test_theta_at_most_sup_on_random_assemblies(self):
        rng = random.Random(24)
        for _ in range(60):
            a = random_assembly(rng)
            r = full_report(a)
            assert r.theta <= 2 - F(1, a.n)
            assert r.chain.all_ok

    def test_theta_at_least_one_for_equal_means(self):
        # distinct two-point members engineered to share one similar mean
        n = 3
        members = []
        for p in (F(1, 2), F(2, 3), F(3, 4)):
            x = F(1) / (1 - p**n)
            members.append(dist((0, p), (x, 1 - p)))
        a = Assembly(tuple(members))
        assert len(set(a.similar_means())) == 1
        assert full_report(a).theta >= 1


class TestEqualityDiagnosis:
    def test_identical_members(self):
        d = dist((0, F(1, 2)), (1, F(1, 2)))
        assert equality_diagnosis(Assembly((d, d, d)))

    def test_differing_members(self):
        a = Assembly((dist((0, F(1, 2)), (1, F(1, 2))),
                      dist((0, F(1, 4)), (2, F(3, 4)))))
        assert not equality_diagnosis(a)

    def test_two_constants(self):
        a = Assembly((FiniteDistribution.point_mass(1),
                      FiniteDistribution.point_mass(2)))
        assert not equality_diagnosis(a)


@seed(1_425_021)
@given(st.integers(2, 6), st.fractions(min_value=0, max_value=8, max_denominator=16))
@settings(max_examples=40)
def test_equal_mean_formula_bounds(n, m):
    lower, upper = performance_bounds([m] * n)
    assert lower == m
    assert upper == (2 - F(1, n)) * m


@seed(1_406_001)
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32))
def test_one_upper_bound_formula(s):
    a = random_assembly(random.Random(s), max_atoms=4)
    m_bar, upper = performance_bounds(a.similar_means())
    assert full_report(a).upper == upper
    assert gap(a) + a.expected_max() == upper
    assert gam_gap(a, tol=F(1, 10**6)).bound == upper - m_bar
