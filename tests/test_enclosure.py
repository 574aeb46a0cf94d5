"""Tests for the rational enclosure arithmetic and the n-th root bracketing."""

import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from maxmix import (DEFAULT_BIT_CAP, Enclosure, PreconditionError, ResourceCapExceeded,
                    int_nth_root, nth_root)
from maxmix.enclosure import DEFAULT_TOL, as_tolerance


def bisected_root(x: F, n: int, tol: F) -> Enclosure:
    """Reference enclosure of x**(1/n): Fraction bisection of [min(x, 1), max(x, 1)].

    Independent of ``nth_root``; every step keeps lo**n <= x <= hi**n.
    """
    lo, hi = (x, F(1)) if x < 1 else (F(1), x)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        c = mid**n
        if c == x:
            return Enclosure.exact(mid)
        if c < x:
            lo = mid
        else:
            hi = mid
    return Enclosure(lo, hi)


def dyadic_root(x: F, n: int, tol: F) -> Enclosure:
    """The root as rooting both operands first would give it.

    Exact for a perfect rational power; otherwise [r/2**k, (r+1)/2**k] with
    2**-k the largest power of two at most tol and r the floor root of
    x * 2**(k*n).
    """
    rn, exact_n = int_nth_root(x.numerator, n)
    rd, exact_d = int_nth_root(x.denominator, n)
    if exact_n and exact_d:
        return Enclosure.exact(F(rn, rd))
    k = 0
    while F(1, 2**k) > tol:
        k += 1
    r, _ = int_nth_root(x.numerator * 2 ** (k * n) // x.denominator, n)
    return Enclosure(F(r, 2**k), F(r + 1, 2**k))


#: Above this many bits of numerator plus denominator the bisection is too
#: slow to serve as a reference; only the certificates are checked there.
REFERENCE_BITS = 1300


def integers_of_up_to(max_bits: int):
    """Integers in [0, 2**max_bits), their bit length drawn uniformly first."""
    return st.sampled_from(range(max_bits + 1)).flatmap(
        lambda b: st.integers((1 << b) >> 1, (1 << b) - 1))


radicands = st.builds(F, integers_of_up_to(600), integers_of_up_to(600).map(lambda d: d + 1))
tolerances = st.builds(lambda m, e: F(m, 10**e), st.integers(1, 10), st.integers(4, 40))


class TestAsTolerance:
    def test_reads_strings_like_a_file_and_floats_exactly(self):
        assert as_tolerance("1" * 5000) == (10**5000 - 1) // 9
        assert as_tolerance("1e-3") == F(1, 1000)
        assert as_tolerance(0.5) == F(1, 2)

    @pytest.mark.parametrize("tol", ["0" * 5000, "-1e5000", "1" * 4999 + "x"],
                             ids=["zero", "negative", "bad-end"])
    def test_refusal_is_short(self, tol):
        with pytest.raises(ValueError) as caught:
            as_tolerance(tol)
        assert len(str(caught.value)) < 300


class TestIntNthRoot:
    @pytest.mark.parametrize("x,n", [(0, 3), (1, 5), (8, 3), (81, 4), (1024, 10)])
    def test_exact_powers(self, x, n):
        r, exact = int_nth_root(x, n)
        assert exact and r**n == x

    @pytest.mark.parametrize("x,n", [(2, 2), (7, 3), (80, 4), (10**18 + 1, 2)])
    def test_floor_root(self, x, n):
        r, exact = int_nth_root(x, n)
        assert not exact
        assert r**n <= x < (r + 1) ** n

    def test_large_input(self):
        x = 12345678901234567890123456789
        r, _ = int_nth_root(x, 7)
        assert r**7 <= x < (r + 1) ** 7

    def test_rejects_negative(self):
        with pytest.raises(PreconditionError):
            int_nth_root(-1, 2)

    @seed(1_425_011)
    @given(integers_of_up_to(20_000), st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_floor_root_property(self, x, n):
        r, exact = int_nth_root(x, n)
        assert r**n <= x < (r + 1) ** n
        assert exact == (r**n == x)


class TestNthRoot:
    def test_perfect_rational_power_is_exact(self):
        got = nth_root(F(8, 27), 3)
        assert got.is_exact and got.lo == F(2, 3)
        assert nth_root(F(8, 27), 3, F(1, 10)) == got  # whatever the tolerance
        assert nth_root(F(1, 4), 2, F(1, 10**40)) == Enclosure.exact(F(1, 2))

    def test_zero_and_one(self):
        assert nth_root(F(0), 4).lo == 0
        assert nth_root(F(1), 4).lo == 1

    def test_order_one_is_identity(self):
        assert nth_root(F(7, 5), 1) == Enclosure.exact(F(7, 5))

    @seed(1_425_012)
    @given(st.fractions(min_value=0, max_value=100, max_denominator=1000),
           st.integers(2, 6))
    @settings(max_examples=80)
    def test_enclosure_brackets_and_is_tight(self, x, n):
        tol = F(1, 10**9)
        got = nth_root(x, n, tol)
        assert got.width <= tol
        assert got.lo**n <= x <= got.hi**n

    @seed(1_415_001)
    @settings(max_examples=100, deadline=None)
    @given(radicands, st.integers(2, 32), tolerances)
    @example(F(8, 27), 3, F(1, 10**12))
    @example(F(1, 4), 2, F(1, 10**12))
    @example(F(0), 2, F(1, 10**12))
    @example(F(1), 2, F(1, 10**12))
    @example(F(2), 2, F(1, 10**40))
    @example(F((1 << 5000) - 1, 3), 7, F(1, 10**40))
    def test_agrees_with_bisection(self, x, n, tol):
        got = nth_root(x, n, tol)
        assert got.width <= tol
        assert got.lo >= 0
        if got.is_exact:
            assert got.lo**n == x
        else:
            assert got.lo**n < x < got.hi**n
        if x.numerator.bit_length() + x.denominator.bit_length() <= REFERENCE_BITS:
            ref = bisected_root(x, n, tol)
            assert got.lo <= ref.hi and ref.lo <= got.hi

    def test_endpoints_are_dyadic_at_the_tolerance_scale(self):
        got = nth_root(F(2), 2, F(1, 1000))  # 2**-10 <= 1/1000 < 2**-9
        assert got.hi - got.lo == F(1, 1024)
        assert got.lo == F(1448, 1024)

    def test_rejects_negative_radicand(self):
        with pytest.raises(PreconditionError):
            nth_root(F(-1, 2), 2)

    @pytest.mark.parametrize("n", [0, True, 2.0], ids=["zero", "bool", "float"])
    def test_rejects_an_order_that_is_not_a_positive_integer(self, n):
        with pytest.raises(PreconditionError, match="root order"):
            nth_root(F(2), n)
        with pytest.raises(PreconditionError, match="root order"):
            int_nth_root(4, n)

    @pytest.mark.parametrize("x, n, tol", [
        (F(3, 7), 8, F(1, 10**100000)),  # 2**332193 >= 1/tol
        (F(10) ** 100000, 2, F(1, 10**12)),  # a perfect power is refused as well
        (F(1, 2), 2, F(1, 2**DEFAULT_BIT_CAP)),
    ])
    def test_scaled_operand_above_the_bit_cap(self, x, n, tol):
        with pytest.raises(ResourceCapExceeded, match="bits of the scaled root operand"):
            nth_root(x, n, tol)

    def test_scaled_operand_at_the_bit_cap(self):
        k = DEFAULT_BIT_CAP // 2  # x = 1/2 takes one bit off 2 * k
        got = nth_root(F(1, 2), 2, F(1, 2**k))
        assert got.width == F(1, 2**k) and got.lo**2 < F(1, 2) < got.hi**2

    def test_long_operands_near_one_are_cheap(self):
        # 261 519-bit operands whose ratio passes the scaled-operand cap:
        # the numerator is no fourth power modulo 5, so neither whole
        # operand is rooted
        d = 3**165000
        start = time.perf_counter()
        got = nth_root(F(d + 1, d), 4)
        assert time.perf_counter() - start < 0.05
        assert got == Enclosure(F(1), F(2**40 + 1, 2**40))

    def test_long_perfect_power_candidate_above_the_bit_cap(self):
        e = 3**83000  # e**2 has 263 104 bits
        with pytest.raises(ResourceCapExceeded, match="bits of a perfect-power candidate"):
            nth_root(F(2 * e, e + 1) ** 2, 2)

    @pytest.mark.parametrize("x, n", [(246, 2), (806, 3), (3331, 4)])
    def test_non_power_passing_every_residue_test(self, x, n):
        assert nth_root(F(x), n) == dyadic_root(F(x), n, DEFAULT_TOL)

    @seed(1_425_013)
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 10**6), st.integers(2, 12), radicands,
           tolerances)
    @example(5 * 13 * 17, 37, 4, F(2), F(1, 10**12))  # operands divisible by a residue prime
    def test_perfect_powers_stay_exact_and_others_keep_their_endpoints(self, a, b, n, y,
                                                                       tol):
        x = F(a, b) ** n
        assert nth_root(x, n, tol) == Enclosure.exact(F(a, b))
        for z in (x + F(1, 2 * b**n), y):
            assert nth_root(z, n, tol) == dyadic_root(z, n, tol)


class TestEnclosureArithmetic:
    def test_midpoint_radius(self):
        e = Enclosure(F(1, 4), F(3, 4))
        assert e.midpoint == F(1, 2) and e.radius == F(1, 4) and e.width == F(1, 2)

    def test_rejects_empty(self):
        with pytest.raises(PreconditionError):
            Enclosure(F(1), F(0))
