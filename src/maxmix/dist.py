"""Exact finite discrete distributions on the non-negative rationals.

Every value, mass, CDF value and survival integral in this module is an
exact `fractions.Fraction`, or an integer over an explicit integer
denominator inside `CdfTable`.  That discipline is what lets the rest of the
package check its inequality chains with zero tolerance rather than
floating-point slack; floats are refused at the door.

Core types:

* `FiniteDistribution`: an immutable tuple of ``(value, mass)`` atoms in
  canonical form (strictly increasing non-negative values, positive masses,
  total mass exactly 1).  Canonical form makes equality of distributions
  decidable, which the equality diagnostics rely on.
* `Assembly`: an ordered family of n independent members.  The member count
  n is also the copy count used in every similar-assembly mean for that
  family.
* `CdfTable`: the members' CDFs as integers over their merged support.
  Every exact quantity of the bound chain (similar means, the expected
  maximum, the mixture bound) is a survival integral of a step CDF on that
  grid, computed as one integer sum with a single division at the end.
* `SurvivalStep`: a piecewise-constant right-continuous CDF, the carrier
  for the distribution of a maximum as a product of step CDFs.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import mul
from typing import Callable, Iterable, Literal

from .errors import PreconditionError, ResourceCapExceeded

Side = Literal["left", "right"]

#: Upper bound on the number of atoms/breakpoints any single construction may
#: produce. Discretization grids and CDF products fail loudly beyond this.
DEFAULT_ATOM_CAP = 10**6

_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_rational(x) -> Fraction:
    """Exact conversion to Fraction.

    Accepts Fraction, int and strings like "3/7", "0.125" or "1e-3".
    Floats are rejected: a float argument almost always means the caller
    has already lost exactness, and this library cannot restore it.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("booleans are not rational values")
    if isinstance(x, float):
        raise TypeError(
            f"refusing inexact float {x!r}; pass a Fraction, an int or a "
            f"string such as '{x}'"
        )
    return Fraction(x)


def _check_copy_count(n) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise PreconditionError(f"copy count must be an integer >= 1, got {n!r}")
    return n


@dataclass(frozen=True)
class FiniteDistribution:
    """A finite discrete distribution on the non-negative rationals.

    ``atoms`` is the canonical representation: strictly increasing values,
    every mass positive, masses summing to exactly 1.  Mass at value 0 is
    legal and common.  Use `from_pairs` to build from unsorted or
    unmerged data.
    """

    atoms: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        atoms = tuple((as_rational(v), as_rational(m)) for v, m in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise PreconditionError("a distribution needs at least one atom")
        prev = None
        total = _ZERO
        for v, m in atoms:
            if v < 0:
                raise PreconditionError(f"atom value {v} is negative")
            if m <= 0:
                raise PreconditionError(f"atom mass {m} at value {v} is not positive")
            if prev is not None and v <= prev:
                raise PreconditionError(
                    "atom values must be strictly increasing in canonical form; "
                    "use FiniteDistribution.from_pairs to merge and sort"
                )
            prev = v
            total += m
        if total != 1:
            raise PreconditionError(f"masses sum to {total}, expected exactly 1")

    @classmethod
    def from_pairs(cls, pairs: Iterable) -> "FiniteDistribution":
        """Build from (value, mass) pairs; merges equal values, drops zero masses.

        Zero-mass atoms are excluded from the canonical form so that each
        distribution has exactly one representation; negative masses are an
        error.  The total mass must still be exactly 1.
        """
        acc: dict[Fraction, Fraction] = {}
        for v, m in pairs:
            v = as_rational(v)
            m = as_rational(m)
            if m < 0:
                raise PreconditionError(f"atom mass {m} at value {v} is negative")
            if m == 0:
                continue
            acc[v] = acc.get(v, _ZERO) + m
        return cls(tuple(sorted(acc.items())))

    @classmethod
    def point_mass(cls, value) -> "FiniteDistribution":
        return cls(((as_rational(value), _ONE),))

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(v for v, _ in self.atoms)

    @cached_property
    def masses(self) -> tuple[Fraction, ...]:
        return tuple(m for _, m in self.atoms)

    @cached_property
    def _cum(self) -> tuple[Fraction, ...]:
        out = []
        total = _ZERO
        for _, m in self.atoms:
            total += m
            out.append(total)
        return tuple(out)

    @property
    def support_max(self) -> Fraction:
        return self.values[-1]

    def cdf(self, x, side: Side = "right") -> Fraction:
        """CDF value at x: mass at values <= x, or < x for side="left"."""
        x = as_rational(x)
        if side == "right":
            i = bisect.bisect_right(self.values, x)
        elif side == "left":
            i = bisect.bisect_left(self.values, x)
        else:
            raise PreconditionError(f"side must be 'left' or 'right', got {side!r}")
        return self._cum[i - 1] if i else _ZERO

    def mass_at(self, x) -> Fraction:
        x = as_rational(x)
        i = bisect.bisect_left(self.values, x)
        if i < len(self.values) and self.values[i] == x:
            return self.masses[i]
        return _ZERO

    def expected_value(self) -> Fraction:
        """The mean, exactly."""
        return sum((v * m for v, m in self.atoms), _ZERO)

    @cached_property
    def _table(self) -> "CdfTable":
        return CdfTable.of((self,))

    def similar_max_mean(self, n: int) -> Fraction:
        """Expected maximum of n independent copies, exactly.

        Computed as the survival integral of F**n over the distribution's own
        atoms; equals ``Assembly.of_copies(self, n).expected_max()``.
        """
        n = _check_copy_count(n)
        t = self._table
        return t.power_survival(t.cols[0], t.dens[0], n)

    def to_step(self) -> "SurvivalStep":
        return SurvivalStep(self.values, self._cum)

    def __repr__(self):
        inner = ", ".join(f"{v}:{m}" for v, m in self.atoms)
        return f"FiniteDistribution({{{inner}}})"


@dataclass(frozen=True)
class SurvivalStep:
    """A piecewise-constant right-continuous CDF on [0, inf).

    The CDF equals ``plateaus[i]`` on ``[breakpoints[i], breakpoints[i+1])``,
    0 to the left of the first breakpoint, and the final plateau (which must
    be 1) from the last breakpoint on.
    """

    breakpoints: tuple[Fraction, ...]
    plateaus: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(self.breakpoints))
        object.__setattr__(self, "plateaus", tuple(self.plateaus))
        if len(self.breakpoints) != len(self.plateaus) or not self.breakpoints:
            raise PreconditionError("breakpoints and plateaus must align and be non-empty")
        if self.breakpoints[0] < 0:
            raise PreconditionError("breakpoints must be non-negative")
        if any(b >= c for b, c in zip(self.breakpoints, self.breakpoints[1:])):
            raise PreconditionError("breakpoints must be strictly increasing")
        prev = _ZERO
        for p in self.plateaus:
            if p < prev or p > 1:
                raise PreconditionError("plateaus must be non-decreasing within [0, 1]")
            prev = p
        if self.plateaus[-1] != 1:
            raise PreconditionError("final plateau must equal 1")

    def value_at(self, x: Fraction) -> Fraction:
        i = bisect.bisect_right(self.breakpoints, x)
        return self.plateaus[i - 1] if i else _ZERO

    @classmethod
    def product_of(cls, steps: Iterable["SurvivalStep"],
                   atom_cap: int = DEFAULT_ATOM_CAP) -> "SurvivalStep":
        """Pointwise product (the CDF of the maximum of independents)."""
        steps = list(steps)
        if not steps:
            raise PreconditionError("product of zero step functions is undefined")
        merged = sorted({b for s in steps for b in s.breakpoints})
        if len(merged) > atom_cap:
            raise ResourceCapExceeded(
                f"merged breakpoint count {len(merged)} exceeds cap {atom_cap}"
            )
        plateaus = []
        for x in merged:
            p = _ONE
            for s in steps:
                p *= s.value_at(x)
                if p == 0:
                    break
            plateaus.append(p)
        return cls(tuple(merged), tuple(plateaus))

    def to_distribution(self) -> FiniteDistribution:
        """Atoms at the jumps of the CDF."""
        pairs = []
        prev = _ZERO
        for b, p in zip(self.breakpoints, self.plateaus):
            pairs.append((b, p - prev))
            prev = p
        return FiniteDistribution.from_pairs(pairs)


@dataclass(frozen=True)
class CdfTable:
    """Member CDFs as integers over their merged support.

    ``xs`` is the merged support in increasing order, each point an integer
    over the common value ``scale``.  ``cols[i][k]`` is member i's CDF at
    ``xs[k]`` as an integer numerator over ``dens[i]``, the lcm of that
    member's mass denominators.  Between merged points every CDF built from
    the columns is constant, so each survival integral is one integer sum
    over the grid with one division at the end.  Rows are formed with
    ``+``, ``-`` and ``*`` on the entries only.
    """

    scale: int
    xs: tuple[int, ...]
    dens: tuple[int, ...]
    cols: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, members: Iterable[FiniteDistribution]) -> "CdfTable":
        members = tuple(members)
        scale = math.lcm(*(v.denominator for d in members for v in d.values))
        xs = sorted({v.numerator * (scale // v.denominator)
                     for d in members for v in d.values})
        index = {x: k for k, x in enumerate(xs)}
        dens, cols = [], []
        for d in members:
            den = math.lcm(*(m.denominator for m in d.masses))
            jumps = [0] * len(xs)
            for v, m in d.atoms:
                jumps[index[v.numerator * (scale // v.denominator)]] = (
                    m.numerator * (den // m.denominator))
            dens.append(den)
            cols.append(tuple(accumulate(jumps)))
        return cls(scale, tuple(xs), tuple(dens), tuple(cols))

    @cached_property
    def _widths(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in zip(self.xs, self.xs[1:]))

    @cached_property
    def product(self) -> tuple[tuple[int, ...], int]:
        """The CDF of the members' maximum: numerators over the product of dens."""
        return tuple(math.prod(row) for row in zip(*self.cols)), math.prod(self.dens)

    @cached_property
    def mixture(self) -> tuple[tuple[int, ...], int]:
        """The equally-weighted mixture CDF: numerators over n * lcm(dens)."""
        common = math.lcm(*self.dens)
        weights = [common // den for den in self.dens]
        return (tuple(sum(map(mul, row, weights)) for row in zip(*self.cols)),
                len(self.dens) * common)

    def survival(self, nums, den: int) -> Fraction:
        """The integral of 1 - nums[k]/den over [xs[k], xs[k+1]) and of 1 below xs[0].

        ``nums[-1]`` must equal ``den``: the CDF reaches 1 at the last point.
        """
        total = self.xs[-1] * den - sum(map(mul, self._widths, nums))
        return Fraction(total, den * self.scale)

    def power_survival(self, nums, den: int, n: int) -> Fraction:
        """The survival integral of the CDF nums/den raised to the n-th power."""
        return self.survival([x**n for x in nums], den**n)


@dataclass(frozen=True)
class Assembly:
    """An ordered family of n independent members (n >= 1).

    The member count doubles as the copy count for every per-member
    similar-assembly mean, so the same n appears in ``expected_max`` and in
    ``member.similar_max_mean(a.n)``.
    """

    members: tuple[FiniteDistribution, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise PreconditionError("an assembly needs at least one member")
        for d in self.members:
            if not isinstance(d, FiniteDistribution):
                raise TypeError(f"assembly members must be FiniteDistribution, got {d!r}")

    @classmethod
    def of_copies(cls, d: FiniteDistribution, n: int) -> "Assembly":
        return cls((d,) * _check_copy_count(n))

    @property
    def n(self) -> int:
        return len(self.members)

    @cached_property
    def table(self) -> CdfTable:
        return CdfTable.of(self.members)

    @cached_property
    def merged_support(self) -> tuple[Fraction, ...]:
        t = self.table
        return tuple(Fraction(x, t.scale) for x in t.xs)

    @property
    def support_max(self) -> Fraction:
        return max(d.support_max for d in self.members)

    def product_step(self) -> SurvivalStep:
        return SurvivalStep.product_of(d.to_step() for d in self.members)

    def expected_max(self) -> Fraction:
        """E of the maximum of the members, exactly.

        Survival integral of the product CDF over the merged support; the
        integrand is piecewise constant between merged atoms and zero past
        the largest one.
        """
        t = self.table
        return t.survival(*t.product)

    def max_distribution(self) -> FiniteDistribution:
        """The distribution of the maximum of the members."""
        return self.product_step().to_distribution()

    def mixture(self) -> FiniteDistribution:
        """The equally-weighted probability mixture of the members."""
        w = Fraction(1, self.n)
        pairs = []
        for d in self.members:
            pairs.extend((v, m * w) for v, m in d.atoms)
        return FiniteDistribution.from_pairs(pairs)

    def similar_means(self) -> tuple[Fraction, ...]:
        """Each member's expected maximum of n independent copies."""
        return tuple(d.similar_max_mean(self.n) for d in self.members)

    def __repr__(self):
        return f"Assembly(n={self.n}, members={list(self.members)!r})"


#: A CDF evaluator is any callable ``F(x, side)`` returning exact CDF values
#: with side "right" for F(x) and "left" for the left limit.  The bound
#: method ``FiniteDistribution.cdf`` satisfies the protocol directly.
CdfEvaluator = Callable[[Fraction, str], Fraction]


def discretize(cdf: CdfEvaluator, m: int, *, atom_cap: int = DEFAULT_ATOM_CAP
               ) -> FiniteDistribution:
    """Dyadic lower discretization of an arbitrary CDF on [0, inf).

    The value is floored to the grid of spacing 2**-m on [0, m), and
    everything at or above m collapses to an atom at m: cell l (1-based)
    contributes mass F(l/2^m-) - F((l-1)/2^m-) to the atom (l-1)/2^m, and
    the atom at m receives the tail mass 1 - F(m-).  The result is
    stochastically dominated by the input capped at m, and its mean is
    non-decreasing in m.

    The evaluator must expose left limits (side "left"); grids routinely
    land exactly on atoms of discrete inputs.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise PreconditionError(f"grid level m must be an integer >= 1, got {m!r}")
    cells = m * 2**m
    if cells + 1 > atom_cap:
        raise ResourceCapExceeded(
            f"discretization would create {cells + 1} atoms, cap is {atom_cap}"
        )
    at_zero = cdf(_ZERO, "left")
    if at_zero != 0:
        raise PreconditionError(
            f"evaluator has mass {at_zero} below 0; not a distribution on [0, inf)"
        )
    step = Fraction(1, 2**m)
    pairs = []
    prev = at_zero
    for l in range(1, cells + 1):
        cur = cdf(l * step, "left")
        mass = cur - prev
        if mass < 0:
            raise PreconditionError("evaluator is not monotone")
        pairs.append(((l - 1) * step, mass))
        prev = cur
    pairs.append((Fraction(m), 1 - prev))
    return FiniteDistribution.from_pairs(pairs)
