"""Tests for the near-extremal two-point constructions."""

from fractions import Fraction as F

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from maxmix import (
    Assembly,
    FiniteDistribution,
    InvariantViolation,
    PreconditionError,
    ResourceCapExceeded,
    build,
    full_report,
    gap,
    phi,
    realize,
    theta_sup,
)
from maxmix.cli import EXIT_INVARIANT, main
from maxmix.extremal import _family_gap, _staggered


class TestThetaSup:
    @pytest.mark.parametrize("n,expected", [(1, F(1)), (2, F(3, 2)), (10, F(19, 10))])
    def test_values(self, n, expected):
        assert theta_sup(n) == expected

    @pytest.mark.parametrize("n", [True, 0, F(3, 2)])
    def test_refuses_what_is_not_a_count(self, n):
        with pytest.raises(PreconditionError, match="assembly size must be an integer >= 1"):
            theta_sup(n)


class TestGap:
    def test_identical_members_have_full_slack(self):
        d = FiniteDistribution.from_pairs([(0, F(1, 2)), (2, F(1, 2))])
        a = Assembly((d, d, d))
        m = d.similar_max_mean(3)
        assert gap(a) == F(2, 3) * m

    def test_gap_never_negative(self):
        import random

        from genutil import random_assembly

        rng = random.Random(41)
        for _ in range(60):
            assert gap(random_assembly(rng)) >= 0


class TestExplicitSchedules:
    def test_moderate_schedule_matches_hand_computation(self):
        a = realize((F(1), F(1)), (F(1, 2),))
        # the two-point member sits at 4/3 above the constant member at 1
        assert a.members[0] == FiniteDistribution.from_pairs(
            [(0, F(1, 2)), (F(4, 3), F(1, 2))]
        )
        assert a.members[1] == FiniteDistribution.point_mass(1)
        r = full_report(a)
        assert r.theta == F(7, 6)
        assert gap(a) == F(1, 3)

    def test_tight_schedule_shrinks_the_gap(self):
        p = 1 - F(1, 10**4)
        a = realize((F(1), F(1)), (p,))
        assert gap(a) < F(1, 10**3)
        # closed form: the assembly performance is the payoff curve at p
        assert a.expected_max() == phi(F(1), F(1), p, 2)

    def test_gap_strictly_decreasing_in_delta(self):
        gaps = []
        for k in (1, 2, 3):
            p = 1 - F(1, 10**k)
            gaps.append(gap(realize((F(1), F(1)), (p,))))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_similar_means_hit_targets_exactly(self):
        targets = (F(1, 2), F(2, 3), F(1))
        schedule = (F(9, 10), F(19, 20))
        a = realize(targets, schedule)
        assert a.similar_means() == targets

    def test_missed_targets_are_an_invariant_breach(self, monkeypatch, capsys):
        exact = Assembly.similar_means
        monkeypatch.setattr(Assembly, "similar_means",
                            lambda a: tuple(m + F(1, 10**30) for m in exact(a)))
        with pytest.raises(InvariantViolation, match="similar means"):
            realize((F(1), F(1)), (F(1, 2),))
        assert main(["extremal", "--n", "2", "--equal", "1", "--epsilon", "1/10"]) \
            == EXIT_INVARIANT
        assert "internal invariant breach: similar means" in capsys.readouterr().err

    def test_rejects_unordered_values(self):
        # equal targets with equal masses give equal non-zero values
        with pytest.raises(PreconditionError, match="order"):
            realize((F(1), F(1), F(1)), (F(1, 2), F(1, 2)))

    def test_rejects_value_below_the_constant(self):
        # p too small: the induced value 1/(1 - 1/4) falls below the top target
        with pytest.raises(PreconditionError):
            realize((F(1), F(2)), (F(1, 2),))


class TestAutoBuilder:
    @pytest.mark.parametrize("n,eps", [(2, F(1, 1000)), (3, F(1, 100)), (4, F(1, 10))])
    def test_reaches_the_requested_gap(self, n, eps):
        a = build((F(1),) * n, eps)
        assert a.n == n
        assert gap(a) <= eps
        assert a.similar_means() == (F(1),) * n
        assert full_report(a).chain.all_ok

    def test_theta_approaches_the_supremum(self):
        a = build((F(1), F(1)), F(1, 10**6))
        assert full_report(a).theta >= theta_sup(2) - F(1, 10**6)

    def test_unequal_targets(self):
        targets = (F(1, 2), F(3, 4), F(3, 2))
        a = build(targets, F(1, 100))
        assert a.similar_means() == targets
        assert gap(a) <= F(1, 100)

    def test_single_member(self):
        a = build((F(5),), F(1, 10))
        assert a.members == (FiniteDistribution.point_mass(5),)
        assert gap(a) == 0


class TestSpecValidation:
    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(PreconditionError):
            build((F(1),), F(0))

    def test_rejects_descending_targets(self):
        with pytest.raises(PreconditionError):
            build((F(2), F(1)), F(1))
        with pytest.raises(PreconditionError):
            realize((F(2), F(1)), (F(1, 2),))

    def test_rejects_bad_schedule(self):
        with pytest.raises(PreconditionError):
            realize((F(1), F(1)), (F(1, 2), F(1, 2)))
        with pytest.raises(PreconditionError):
            realize((F(1), F(1)), (F(1),))


# ---------------------------------------------------------------------------
# the closed-form tightening against the loop it replaced


def _reference_build(m_list: tuple[F, ...], closeness: F) -> Assembly:
    """The earlier tightening loop, kept as the reference: each round realizes
    its candidate assembly and accepts it on its exact gap."""
    n = len(m_list)
    delta = F(1, 2)
    for _ in range(60):
        ps = _staggered(delta, n)
        try:
            members, xs = [], []
            for m_k, p_k in zip(m_list[:-1], ps):
                x_k = m_k / (1 - p_k**n)
                xs.append(x_k)
                members.append(FiniteDistribution.from_pairs([(0, p_k), (x_k, 1 - p_k)]))
            if not (all(x < y for x, y in zip(xs, xs[1:])) and (not xs or m_list[-1] < xs[0])):
                raise PreconditionError("unordered")
        except PreconditionError:
            delta *= F(1, 10)
            continue
        a = Assembly((*members, FiniteDistribution.point_mass(m_list[-1])))
        assert a.similar_means() == m_list
        if gap(a) <= closeness:
            return a
        delta *= F(1, 10)
    raise ResourceCapExceeded("not reached")


targets = st.fractions(min_value=F(1, 100), max_value=100, max_denominator=1000)


@st.composite
def targets_and_closeness(draw):
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        m_list = [draw(targets)] * n
    else:
        m_list = sorted(draw(st.lists(targets, min_size=n, max_size=n)))
    closeness = draw(st.one_of(
        st.integers(0, 6).map(lambda k: F(1, 10**k)),
        st.fractions(min_value=F(1, 10**6), max_value=1, max_denominator=10**7)))
    return tuple(m_list), closeness


@seed(2_303_001)
@settings(max_examples=150, deadline=None)
@given(pair=targets_and_closeness())
def test_build_matches_the_realizing_loop(pair):
    m_list, closeness = pair
    try:
        want = _reference_build(m_list, closeness)
    except ResourceCapExceeded:
        with pytest.raises(ResourceCapExceeded):
            build(m_list, closeness)
        return
    got = build(m_list, closeness)
    assert got == want and repr(got) == repr(want)
    assert gap(got) <= closeness


def test_closed_form_refuses_a_zero_mass_that_is_not_positive():
    # past about a thousand members the first staggered masses fall below 0
    assert _staggered(F(1, 2), 1003)[0] < 0
    with pytest.raises(PreconditionError, match=r"must lie in \(0, 1\)"):
        _family_gap((F(1),) * 3, (F(-1, 2), F(1, 2)))
    # nor a zero mass of 1, where x = M / (1 - p**n) would divide by zero
    with pytest.raises(PreconditionError, match=r"must lie in \(0, 1\)"):
        _family_gap((F(1), F(1)), (F(1),))
