"""Guaranteed rational enclosures for the few irrational quantities we need.

Everything else in this package is exact rational arithmetic.  The single
irrational primitive is the n-th root (geometric means of CDFs, the bounded
lower bound, the down-projection masses).  Roots are returned as `Enclosure`
intervals whose endpoints are exact rationals bracketing the true value, so
every downstream inequality check can carry an explicit error radius instead
of a silent float error.

Each root costs one integer root: x is scaled by 2**(k*n), with k the
smallest non-negative integer such that 2**-k <= tol, and the floor root r
of the scaled integer gives the dyadic enclosure [r/2**k, (r+1)/2**k]
(Brent & Zimmermann, *Modern Computer Arithmetic*, 2010, on the integer
root; Moore, *Interval Analysis*, 1966, on certified intervals).  Perfect
rational powers are found first and returned exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .dist import Frozen, _shown, as_rational
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

    Not a tuple: ``+`` and ``-`` are interval arithmetic, and intervals have
    no total order.
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

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi

    def __add__(self, other):
        if isinstance(other, Enclosure):
            return Enclosure(self.lo + other.lo, self.hi + other.hi)
        return Enclosure(self.lo + other, self.hi + other)

    __radd__ = __add__

    def __neg__(self):
        return Enclosure(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scaled(self, f: Fraction) -> "Enclosure":
        """Multiply by an exact rational (sign-aware)."""
        if f >= 0:
            return Enclosure(self.lo * f, self.hi * f)
        return Enclosure(self.hi * f, self.lo * f)

    def __repr__(self):
        if self.is_exact:
            return f"Enclosure({self.lo})"
        return f"Enclosure({self.lo}, {self.hi})"


def int_nth_root(x: int, n: int) -> tuple[int, bool]:
    """Floor n-th root of a non-negative integer, with an exactness flag.

    Newton iteration on integers; exact for arbitrarily large inputs.
    """
    if x < 0:
        raise PreconditionError("int_nth_root requires a non-negative integer")
    if n < 1:
        raise PreconditionError("root order must be >= 1")
    if n == 1 or x in (0, 1):
        return x, True
    r = 1 << ((x.bit_length() + n - 1) // n)
    while True:
        r2 = ((n - 1) * r + x // r ** (n - 1)) // n
        if r2 >= r:
            break
        r = r2
    return r, r**n == x


def nth_root(x: Fraction, n: int, tol=DEFAULT_TOL) -> Enclosure:
    """Enclosure of x**(1/n) for x >= 0, of width <= tol.

    Perfect rational powers (numerator and denominator both perfect n-th
    powers in lowest terms) are returned as exact, degenerate enclosures.
    Otherwise, with k the smallest non-negative integer such that
    2**-k <= tol and r the floor n-th root of floor(x * 2**(k*n)), the
    enclosure is [r/2**k, (r+1)/2**k]: dyadic endpoints, width 2**-k.
    lo**n < x < hi**n holds by construction: (r+1)**n is an integer above
    floor(x * 2**(k*n)), and lo**n == x would make x a perfect rational
    power, which the first case has already returned.
    """
    if x < 0:
        raise PreconditionError(f"cannot take an n-th root of a negative value: {_shown(x)}")
    if n < 1:
        raise PreconditionError("root order must be >= 1")
    if n == 1:
        return Enclosure.exact(x)
    rn, exact_n = int_nth_root(x.numerator, n)
    rd, exact_d = int_nth_root(x.denominator, n)
    if exact_n and exact_d:
        return Enclosure.exact(Fraction(rn, rd))
    tol = as_tolerance(tol)
    k = (-(-tol.denominator // tol.numerator) - 1).bit_length()  # 2**k >= 1/tol
    r, _ = int_nth_root((x.numerator << (k * n)) // x.denominator, n)
    return Enclosure(Fraction(r, 1 << k), Fraction(r + 1, 1 << k))
