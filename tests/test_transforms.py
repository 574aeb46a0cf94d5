"""Tests for the certified mass rearrangements."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxmix import (
    Assembly,
    FiniteDistribution,
    PreconditionError,
    coalesce,
    down_project,
    holder_lower,
    phi,
    reduce_pair,
    transforms,
)
from maxmix.transforms import _copy_weights

from genutil import (
    random_coalesce_case,
    random_distribution,
    random_down_case,
    random_reduce_case,
    random_two_point_assembly,
)


def dist(*pairs):
    return FiniteDistribution.from_pairs(pairs)


def pair_max(d, companion):
    return Assembly((d, companion)).expected_max()


class TestCoalesce:
    def test_single_atom_is_identity(self):
        d = dist((0, F(1, 2)), (1, F(1, 2)))
        out = coalesce(d, F(1, 2), F(3, 2), FiniteDistribution.point_mass(2), 2)
        assert out.result == d
        assert out.e_delta == 0 and out.direction == "unchanged"

    def test_worked_two_atom_merge(self):
        d = dist((0, F(1, 2)), (1, F(1, 4)), (2, F(1, 4)))
        out = coalesce(d, 1, 2, FiniteDistribution.point_mass(0), 2)
        # merged atom solves x * (F(2)^2 - F(1-)^2) = interval share of the
        # two-copy max mean, and sits above the plain conditional mean 3/2
        assert out.result == dist((0, F(1, 2)), (F(19, 12), F(1, 2)))
        assert out.e_delta == F(1, 24)
        assert out.m_residual == 0

    def test_companion_fully_above_gives_zero_delta(self):
        d = dist((0, F(1, 2)), (1, F(1, 4)), (2, F(1, 4)))
        out = coalesce(d, 1, 2, FiniteDistribution.point_mass(3), 2)
        assert out.e_delta == 0 and out.direction == "unchanged"

    def test_companion_atom_exactly_at_the_left_endpoint_still_gains(self):
        # mass at the endpoint itself participates in the payoff, so the
        # gain is p * P[Y <= a] * (x - conditional mean), not P[Y < a]
        d = dist((0, F(1, 2)), (1, F(1, 4)), (2, F(1, 4)))
        out = coalesce(d, 1, 2, FiniteDistribution.point_mass(1), 2)
        assert out.e_delta == F(1, 24) and out.direction == "increased"

    def test_rejects_companion_mass_inside(self):
        d = dist((0, F(1, 2)), (1, F(1, 4)), (2, F(1, 4)))
        with pytest.raises(PreconditionError, match=r"mass .* in \(1, 2\)"):
            coalesce(d, 1, 2, FiniteDistribution.point_mass(F(3, 2)), 2)

    def test_rejects_empty_interval_mass(self):
        d = dist((0, F(1, 2)), (3, F(1, 2)))
        with pytest.raises(PreconditionError, match="no mass"):
            coalesce(d, 1, 2, FiniteDistribution.point_mass(0), 2)

    def test_random_cases_certify(self):
        rng = random.Random(31)
        for _ in range(120):
            d, a, b, companion, n = random_coalesce_case(rng)
            out = coalesce(d, a, b, companion, n)
            assert out.m_residual == 0
            assert out.e_delta >= 0
            assert out.result.similar_max_mean(n) == d.similar_max_mean(n)
            inside = [v for v in out.result.values if a <= v <= b]
            assert len(inside) == 1


class TestReducePair:
    def test_worked_separating_case(self):
        d = dist((F(1, 4), F(1, 2)), (F(3, 4), F(1, 2)))
        out = reduce_pair(d, 0, 1, FiniteDistribution.point_mass(F(1, 2)), 2)
        # payoff slopes downward at the lower atom: the pair separates,
        # the upper atom climbing at rate lam = 1/3
        assert out.result == dist((0, F(1, 2)), (F(5, 6), F(1, 2)))
        assert out.e_delta == F(1, 24)

    def test_worked_merging_case(self):
        # companion mass splits so the payoff slope vanishes at the lower
        # atom; the pair merges at the conditional mean of the two-copy max
        d = dist((F(1, 4), F(1, 2)), (F(3, 4), F(1, 2)))
        companion = dist((0, F(1, 4)), (F(1, 2), F(1, 2)), (1, F(1, 4)))
        out = reduce_pair(d, 0, 1, companion, 2)
        assert out.result == FiniteDistribution.point_mass(F(5, 8))
        assert out.e_delta == F(1, 32) and out.direction == "increased"

    def test_worked_upslope_case_merges(self):
        d = dist((F(1, 2), F(1, 10)), (F(3, 4), F(9, 10)))
        companion = dist((F(1, 4), F(1, 2)), (F(5, 8), F(1, 2)))
        out = reduce_pair(d, 0, 1, companion, 2)
        assert out.result == FiniteDistribution.point_mass(F(299, 400))
        assert out.e_delta == F(13, 800)

    def test_separation_capped_by_the_next_support_point(self):
        # the upper atom may only climb until it reaches the next atom of d;
        # past it the mean-preserving coupling rate would change
        d = dist((F(1, 2), F(9, 10)), (F(3, 4), F(1, 20)), (2, F(1, 20)))
        out = reduce_pair(d, 0, 1, FiniteDistribution.point_mass(F(5, 8)), 2)
        assert out.result == dist((F(463, 1296), F(9, 10)), (2, F(1, 10)))
        assert out.e_delta == F(1, 16)

    def test_companion_clear_of_the_interval_still_reduces(self):
        d = dist((F(1, 4), F(1, 2)), (F(3, 4), F(1, 2)))
        out = reduce_pair(d, 0, 1, FiniteDistribution.point_mass(2), 2)
        inside = [v for v in out.result.values if 0 < v < 1]
        assert len(inside) <= 1
        assert out.e_delta == 0

    def test_rejects_wrong_interior_atom_count(self):
        three = dist((F(1, 4), F(1, 3)), (F(1, 2), F(1, 3)), (F(3, 4), F(1, 3)))
        with pytest.raises(PreconditionError, match="exactly two"):
            reduce_pair(three, 0, 1, FiniteDistribution.point_mass(2), 2)
        one = dist((F(1, 4), F(1, 2)), (2, F(1, 2)))
        with pytest.raises(PreconditionError, match="exactly two"):
            reduce_pair(one, 0, 1, FiniteDistribution.point_mass(2), 2)

    def test_random_cases_certify(self):
        rng = random.Random(32)
        for _ in range(150):
            d, l, r, companion, n = random_reduce_case(rng)
            out = reduce_pair(d, l, r, companion, n)
            assert out.m_residual == 0
            assert out.e_delta >= 0
            inside = [v for v in out.result.values if l < v < r]
            assert len(inside) <= 1


class TestPhi:
    def test_endpoints(self):
        assert phi(2, 1, 0, 3) == 1
        assert phi(2, 1, 1, 3) == 2 + F(1, 3)

    def test_interior_value(self):
        assert phi(2, 1, F(1, 2), 2) == F(5, 3)

    def test_equal_levels_allowed(self):
        assert phi(1, 1, F(1, 2), 2) == F(1, 2) + F(2, 3)

    @given(st.fractions(min_value=0, max_value=1, max_denominator=64),
           st.fractions(min_value=0, max_value=1, max_denominator=64),
           st.integers(2, 5))
    @settings(max_examples=80)
    def test_monotone_in_p(self, p1, p2, n):
        u, v = F(3), F(2)
        lo, hi = min(p1, p2), max(p1, p2)
        assert phi(u, v, lo, n) <= phi(u, v, hi, n)

    def test_rejects_v_above_u(self):
        with pytest.raises(PreconditionError):
            phi(1, 2, F(1, 2), 2)

    def test_rejects_a_boolean_copy_count(self):
        with pytest.raises(PreconditionError, match="copy count"):
            phi(2, 1, F(1, 2), True)


class TestDownProject:
    def test_two_point_members_are_a_fixed_point(self):
        m1 = dist((0, F(1, 2)), (1, F(1, 2)))
        m2 = dist((0, F(1, 4)), (1, F(3, 4)))
        out = down_project(Assembly((m1, m2)), 0, 1)
        assert out.result == Assembly((m1, m2))
        assert out.e_delta == 0 and out.direction == "unchanged"
        assert out.alphas == (F(1, 2), F(1, 4))

    def test_full_interval_reaches_the_bounded_lower_bound(self):
        rng = random.Random(33)
        tol = F(1, 10**12)
        for _ in range(25):
            a, b = random_two_point_assembly(rng, n_range=(2, 4))
            # perturb one member so the assembly is not already two-point-only
            members = list(a.members)
            members[0] = dist((0, F(1, 4)), (b / 2, F(1, 4)), (b, F(1, 2)))
            a = Assembly(tuple(members))
            out = down_project(a, 0, b)
            hl = holder_lower(a.similar_means(), b, a.n)
            got = out.result.expected_max()
            assert all(set(m.values) <= {F(0), b} for m in out.result.members)
            assert abs(got - hl.midpoint) <= hl.radius + a.n * tol
            assert out.e_delta <= tol

    def test_members_clear_of_the_interval_pass_through(self):
        m1 = dist((0, F(1, 2)), (5, F(1, 2)))
        m2 = dist((2, F(1, 2)), (3, F(1, 2)))
        out = down_project(Assembly((m1, m2)), 2, 4)
        assert out.result.members[0] == m1
        assert out.alphas[0] is None and out.alphas[1] is not None

    def test_idempotent_with_the_same_interval(self):
        rng = random.Random(34)
        for _ in range(25):
            a, lo, hi = random_down_case(rng)
            once = down_project(a, lo, hi)
            twice = down_project(once.result, lo, hi)
            assert twice.result == once.result
            assert twice.e_delta == 0

    def test_rejects_member_with_no_mass_below_hi(self):
        m1 = dist((5, F(1)),)
        m2 = dist((0, F(1, 2)), (1, F(1, 2)))
        with pytest.raises(PreconditionError, match="member 0"):
            down_project(Assembly((m1, m2)), 0, 1)

    def test_random_cases_certify(self):
        rng = random.Random(35)
        tol = F(1, 10**9)
        for _ in range(60):
            a, lo, hi = random_down_case(rng)
            out = down_project(a, lo, hi, tol=tol)
            for res in out.m_residual:
                assert abs(res) <= tol
            assert out.e_delta <= tol
            for m in out.result.members:
                assert not any(lo < v < hi for v in m.values)


# ---------------------------------------------------------------------------
# the n-copy weights against the CDF formulas they replace


def weight(d, v, n):
    """F(v)**n - F(v-)**n by CDF bisection."""
    return d.cdf(v) ** n - d.cdf(v, "left") ** n


def reference_x(d, a, b, n):
    """The coalesced atom as the CDF formula writes it."""
    contrib = sum((v * weight(d, v, n) for v in d.values if a <= v <= b), F(0))
    return contrib / (d.cdf(b) ** n - d.cdf(a, "left") ** n)


def reference_reduce(d, l, r, companion, n):
    """The reduced distribution, with lam and omega from the CDF formulas."""
    (av, p), (bv, q) = [(v, m) for v, m in d.atoms if l < v < r]
    f_l, f_a, f_b = d.cdf(l), d.cdf(av), d.cdf(bv)
    lam = (f_a**n - f_l**n) / (f_b**n - f_a**n)
    g = companion.cdf
    if p * g(av) - q * lam * g(bv, "left") < 0:
        nxt = min((v for v in d.values if v > bv), default=None)
        u = l if nxt is None else max(l, av - (nxt - bv) / lam)
        moved = [(u, p), (bv - lam * (u - av), q)]
    else:
        w_a, w_b = f_a**n - f_l**n, f_b**n - f_a**n
        moved = [((av * w_a + bv * w_b) / (w_a + w_b), p + q)]
    outside = [(v, m) for v, m in d.atoms if not l < v < r]
    return FiniteDistribution.from_pairs(outside + moved)


def reference_t(d, lo, hi, n):
    """The root argument of `down_project` through the clipped member (X - lo)+."""
    span = hi - lo
    clipped = FiniteDistribution.from_pairs((max(v - lo, F(0)), m) for v, m in d.atoms)
    inside = sum((w * weight(clipped, w, n) for w in clipped.values if 0 < w <= span), F(0))
    return 1 - inside / (span * d.cdf(hi) ** n)


class TestCopyWeights:
    def test_weights_are_the_n_copy_max_masses(self):
        rng = random.Random(36)
        for _ in range(60):
            d = random_distribution(rng)
            n = rng.randint(1, 5)
            top = Assembly.of_copies(d, n).max_distribution()
            den = d.form.den**n
            assert top.values == d.values
            assert tuple(F(w, den) for w in _copy_weights(d, n)) == top.masses

    def test_coalesce_matches_the_cdf_formula(self):
        rng = random.Random(31)
        for _ in range(120):
            d, a, b, companion, n = random_coalesce_case(rng)
            out = coalesce(d, a, b, companion, n)
            assert [v for v in out.result.values if a <= v <= b] == [reference_x(d, a, b, n)]

    def test_reduce_pair_matches_the_cdf_formulas(self):
        rng = random.Random(32)
        for _ in range(150):
            d, l, r, companion, n = random_reduce_case(rng)
            out = reduce_pair(d, l, r, companion, n)
            assert out.result == reference_reduce(d, l, r, companion, n)

    def test_down_project_roots_the_cdf_formula(self, monkeypatch):
        roots = []
        real_root = transforms.nth_root

        def recording_root(x, n, tol):
            roots.append(x)
            return real_root(x, n, tol)

        monkeypatch.setattr(transforms, "nth_root", recording_root)
        rng = random.Random(35)
        for _ in range(60):
            a, lo, hi = random_down_case(rng)
            roots.clear()
            down_project(a, lo, hi, tol=F(1, 10**9))
            touched = [d for d in a.members if d.cdf(hi) > d.cdf(lo, "left")]
            assert roots == [reference_t(d, lo, hi, a.n) for d in touched]
