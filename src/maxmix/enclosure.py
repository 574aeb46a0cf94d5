"""Guaranteed rational enclosures for the few irrational quantities we need.

Everything else in this package is exact rational arithmetic.  The single
irrational primitive is the n-th root (geometric means of CDFs, the bounded
lower bound, the down-projection masses).  Roots are returned as `Enclosure`
intervals whose endpoints are exact rationals bracketing the true value.
Callers read the endpoints, not interval operators, and decide every
inequality from the endpoint that could break it, never from a midpoint.

Each root costs one integer root: x is scaled by 2**(k*n), with k the
smallest non-negative integer such that 2**-k <= tol, and the floor root r
of the scaled integer gives the dyadic enclosure [r/2**k, (r+1)/2**k]
(Brent & Zimmermann, *Modern Computer Arithmetic*, 2010, on the integer
root; Moore, *Interval Analysis*, 1966, on certified intervals).  Perfect
rational powers are found first and returned exactly, once a residue test
modulo a few primes has not ruled them out.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count, islice
from math import isqrt

from .dist import (DEFAULT_BIT_CAP, Frozen, _check_count, _shown, as_rational, check_cap,
                   fraction_str)
from .errors import PreconditionError

DEFAULT_TOL = Fraction(1, 10**12)


def as_tolerance(tol) -> Fraction:
    """Coerce a tolerance to an exact positive rational (floats converted exactly)."""
    t = Fraction(tol) if isinstance(tol, float) else as_rational(tol)
    if t <= 0:
        raise PreconditionError(f"tolerance must be positive, got {_shown(t)}")
    return t


class Enclosure(Frozen):
    """A closed rational interval [lo, hi] certified to contain a real value.

    It has no arithmetic and no order: a caller that computes with it writes
    the endpoint it needs (the lower end of ``b - root`` is ``b - root.hi``),
    and decides a comparison from the endpoint that could break it.
    """

    lo: Fraction
    hi: Fraction
    _fields = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if not (isinstance(lo, Fraction) and isinstance(hi, Fraction)):
            raise TypeError("enclosure endpoints must be Fractions")
        if lo > hi:
            raise PreconditionError(f"empty enclosure: [{_shown(lo)}, {_shown(hi)}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def exact(cls, x: Fraction) -> "Enclosure":
        return cls(x, x)

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def radius(self) -> Fraction:
        return (self.hi - self.lo) / 2

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def __repr__(self):
        ends = (self.lo,) if self.is_exact else (self.lo, self.hi)
        return f"Enclosure({', '.join(map(fraction_str, ends))})"


def int_nth_root(x: int, n: int) -> tuple[int, bool]:
    """Floor n-th root of a non-negative integer, with an exactness flag.

    Newton iteration on integers; exact for arbitrarily large inputs.
    """
    if x < 0:
        raise PreconditionError("int_nth_root requires a non-negative integer")
    _check_count(n, "root order")
    if n == 1 or x in (0, 1):
        return x, True
    r = 1 << ((x.bit_length() + n - 1) // n)
    while True:
        r2 = ((n - 1) * r + x // r ** (n - 1)) // n
        if r2 >= r:
            break
        r = r2
    return r, r**n == x


@lru_cache(maxsize=None)
def _residue_primes(n: int) -> tuple[int, ...]:
    """The first six primes q = 1 (mod n).  Modulo each, an n-th power is 0
    or an r with r**((q-1)/n) = 1; one non-zero residue in n is such an r."""
    primes = (q for q in count(n + 1, n) if all(q % p for p in range(2, isqrt(q) + 1)))
    return tuple(islice(primes, 6))


def nth_root(x: Fraction, n: int, tol=DEFAULT_TOL) -> Enclosure:
    """Enclosure of x**(1/n) for x >= 0, of width <= tol.

    Perfect rational powers (numerator and denominator both perfect n-th
    powers in lowest terms) are returned as exact, degenerate enclosures.
    Otherwise, with k the smallest non-negative integer such that
    2**-k <= tol and r the floor n-th root of floor(x * 2**(k*n)), the
    enclosure is [r/2**k, (r+1)/2**k]: dyadic endpoints, width 2**-k.
    lo**n < x < hi**n holds by construction: (r+1)**n is an integer above
    floor(x * 2**(k*n)), and lo**n == x would make x a perfect rational
    power, which the first case has already returned.  When the scaled
    integer would exceed `DEFAULT_BIT_CAP` bits, the root is refused with
    `ResourceCapExceeded` before either case: both cost time that grows
    about quadratically with the bits.  The first case, which roots the
    whole operands, runs only when both pass the `_residue_primes` test,
    and is refused in the same way when either has more bits than the cap.
    """
    if x < 0:
        raise PreconditionError(f"cannot take an n-th root of a negative value: {_shown(x)}")
    _check_count(n, "root order")
    if n == 1:
        return Enclosure.exact(x)
    tol = as_tolerance(tol)
    k = (-(-tol.denominator // tol.numerator) - 1).bit_length()  # 2**k >= 1/tol
    check_cap(x.numerator.bit_length() - x.denominator.bit_length() + k * n,
              "bits of the scaled root operand", DEFAULT_BIT_CAP)
    if all(pow(v % q, (q - 1) // n, q) < 2
           for v in (x.numerator, x.denominator) for q in _residue_primes(n)):
        check_cap(max(x.numerator.bit_length(), x.denominator.bit_length()),
                  "bits of a perfect-power candidate", DEFAULT_BIT_CAP)
        rn, exact_n = int_nth_root(x.numerator, n)
        rd, exact_d = int_nth_root(x.denominator, n)
        if exact_n and exact_d:
            return Enclosure.exact(Fraction(rn, rd))
    r, _ = int_nth_root((x.numerator << (k * n)) // x.denominator, n)
    return Enclosure(Fraction(r, 1 << k), Fraction(r + 1, 1 << k))
