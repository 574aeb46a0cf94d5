"""Seeded random generators shared by the property and acceptance tests.

Everything here produces exact rationals: values are drawn from a small
grid of fractions, masses are integer compositions over a random common
denominator (<= 64), so generated distributions exercise the same exact
arithmetic the library promises.  The step-CDF helpers build the
distribution of a maximum by pointwise products, a path the library's
integer table does not take.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate

from maxmix import Assembly, FiniteDistribution, SurvivalStep

VALUE_DENOMS = (1, 2, 3, 4)


def random_masses(rng: random.Random, size: int, max_den: int = 64) -> list[Fraction]:
    """A composition of 1 into `size` positive fractions with denominator <= max_den."""
    den = rng.randint(max(size, 2), max_den)
    cuts = sorted(rng.sample(range(1, den), size - 1)) if size > 1 else []
    weights = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    return [Fraction(w, den) for w in weights]


def random_values(rng: random.Random, size: int, *, zero_bias: float = 0.5,
                  max_num: int = 24) -> list[Fraction]:
    values: set[Fraction] = set()
    if size and rng.random() < zero_bias:
        values.add(Fraction(0))
    while len(values) < size:
        values.add(Fraction(rng.randint(0, max_num), rng.choice(VALUE_DENOMS)))
    return sorted(values)


def random_distribution(rng: random.Random, max_atoms: int = 6,
                        max_den: int = 64, min_atoms: int = 1) -> FiniteDistribution:
    size = rng.randint(min_atoms, max_atoms)
    values = random_values(rng, size)
    masses = random_masses(rng, size, max_den)
    return FiniteDistribution.from_pairs(zip(values, masses))


def random_assembly(rng: random.Random, n_range: tuple[int, int] = (2, 6),
                    max_atoms: int = 6, max_den: int = 64) -> Assembly:
    n = rng.randint(*n_range)
    return Assembly(tuple(
        random_distribution(rng, max_atoms, max_den) for _ in range(n)
    ))


def support_grid(a: Assembly) -> tuple[Fraction, ...]:
    """The members' merged support, in increasing order."""
    return tuple(sorted({v for d in a.members for v in d.values}))


# ---------------------------------------------------------------------------
# step CDFs: an independent path to the distribution of a maximum


def cdf_step(d: FiniteDistribution) -> SurvivalStep:
    """The CDF of d as a step function over its values."""
    return SurvivalStep(d.values, accumulate(d.masses))


def product_step(a: Assembly) -> SurvivalStep:
    """The CDF of the members' maximum, as a pointwise product of step CDFs."""
    return SurvivalStep.product_of(cdf_step(d) for d in a.members)


def step_distribution(step: SurvivalStep) -> FiniteDistribution:
    """Atoms at the jumps of a step CDF."""
    below = (Fraction(0),) + step.plateaus[:-1]
    return FiniteDistribution.from_pairs(
        (b, p - q) for b, p, q in zip(step.breakpoints, step.plateaus, below))


def random_identical_assembly(rng: random.Random, n_range: tuple[int, int] = (2, 4),
                              ) -> Assembly:
    d = random_distribution(rng, max_atoms=5, min_atoms=2)
    return Assembly.of_copies(d, rng.randint(*n_range))


def perturb_one_mass(rng: random.Random, a: Assembly, bump: Fraction) -> Assembly:
    """Bump one atom mass of one member by `bump` and renormalize that member."""
    members = list(a.members)
    j = rng.randrange(len(members))
    d = members[j]
    t = rng.randrange(len(d.atoms))
    scale = 1 / (1 + bump)
    pairs = [
        (v, (m + bump) * scale if i == t else m * scale)
        for i, (v, m) in enumerate(d.atoms)
    ]
    members[j] = FiniteDistribution.from_pairs(pairs)
    return Assembly(tuple(members))


def random_two_point_assembly(rng: random.Random, n_range: tuple[int, int] = (2, 5),
                              ) -> tuple[Assembly, Fraction]:
    """Members all on {0, b} for one shared b; returns (assembly, b)."""
    n = rng.randint(*n_range)
    b = Fraction(rng.randint(1, 12), rng.choice(VALUE_DENOMS))
    members = []
    for _ in range(n):
        p = Fraction(rng.randint(1, 63), 64)
        members.append(FiniteDistribution.from_pairs([(0, p), (b, 1 - p)]))
    return Assembly(tuple(members)), b


# ---------------------------------------------------------------------------
# transform instances


def random_coalesce_case(rng: random.Random):
    """(d, a, b, companion, n) satisfying the coalesce preconditions."""
    d = random_distribution(rng, max_atoms=6, min_atoms=2)
    values = d.values
    i = rng.randrange(len(values))
    j = rng.randrange(i, len(values))
    a, b = values[i], values[j]
    # companion mass only at or outside the interval endpoints
    allowed = [v for v in random_values(rng, 6, zero_bias=0.3)
               if v <= a or v >= b] + [a, b]
    size = rng.randint(1, min(4, len(set(allowed))))
    comp_values = sorted(rng.sample(sorted(set(allowed)), size))
    companion = FiniteDistribution.from_pairs(
        zip(comp_values, random_masses(rng, size))
    )
    return d, a, b, companion, rng.randint(1, 4)


def random_reduce_case(rng: random.Random):
    """(d, l, r, companion, n) with exactly two atoms strictly inside (l, r)."""
    lo_region = random_values(rng, rng.randint(0, 2), zero_bias=0.6, max_num=4)
    l = Fraction(rng.randint(4, 6), 1) if not lo_region else max(lo_region) + rng.choice(
        (Fraction(1, 2), Fraction(1)))
    l = min(l, Fraction(6))
    a = l + Fraction(rng.randint(1, 4), 4)
    b = a + Fraction(rng.randint(1, 4), 4)
    r = b + Fraction(rng.randint(1, 4), 4)
    hi_region = [r + Fraction(k, 2) for k in range(rng.randint(0, 3))]
    values = lo_region + [a, b] + hi_region
    masses = random_masses(rng, len(values))
    d = FiniteDistribution.from_pairs(zip(values, masses))

    n = rng.randint(1, 4)
    style = rng.random()
    if style < 0.45:
        # free-form companion, mass anywhere (including inside (a, b))
        companion = random_distribution(rng, max_atoms=5)
    elif style < 0.7:
        # companion concentrated strictly between the two atoms
        mid = (a + b) / 2
        companion = FiniteDistribution.from_pairs([(mid, 1)])
    else:
        # slope pinned to zero: mass g1 at or below a, g2 strictly inside
        f_l, f_a, f_b = d.cdf(l), d.cdf(a), d.cdf(b)
        lam = (f_a**n - f_l**n) / (f_b**n - f_a**n)
        p, q = f_a - d.cdf(a, "left"), f_b - d.cdf(b, "left")
        if p < q * lam:
            companion = random_distribution(rng, max_atoms=5)
        else:
            s = Fraction(rng.randint(1, 4), 4)
            g1 = q * lam * s
            g2 = (p - q * lam) * s
            rest = 1 - g1 - g2
            pairs = [(a / 2, g1), ((a + b) / 2, g2), (r + 1, rest)]
            companion = FiniteDistribution.from_pairs(pairs)
    return d, l, r, companion, n


def random_down_case(rng: random.Random):
    """(assembly, lo, hi) satisfying the down-projection preconditions."""
    a = random_assembly(rng, n_range=(2, 4), max_atoms=5)
    while a.support_max == 0:
        a = random_assembly(rng, n_range=(2, 4), max_atoms=5)
    grid = support_grid(a)
    if rng.random() < 0.4:
        lo, hi = Fraction(0), a.support_max
    else:
        hi = grid[rng.randrange(len(grid))]
        # every member needs mass at or below hi
        floor = max(d.values[0] for d in a.members)
        hi = max(hi, floor)
        lo = rng.choice([v for v in grid if v < hi] or [Fraction(0)])
        lo = min(lo, hi - Fraction(1, 4)) if lo >= hi else lo
        if lo < 0:
            lo = Fraction(0)
    if lo >= hi:
        lo, hi = Fraction(0), a.support_max
    return a, lo, hi
