"""An independent exact reference for the quantities of the bound chain.

It shares no code with ``maxmix``: one merged support, integer CDF
numerators per member over that member's mass denominator, and each
survival integral as one integer sum turned into a single Fraction at the
end.  The benchmark checks the program's exact outputs against it for any
seed, not only for the seeds that have golden values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Chain:
    m_list: tuple[Fraction, ...]
    exact_e: Fraction
    mixture_e: Fraction

    @property
    def m_bar(self) -> Fraction:
        return sum(self.m_list, Fraction(0)) / len(self.m_list)

    @property
    def upper(self) -> Fraction:
        n = len(self.m_list)
        return self.m_bar + Fraction(n - 1, n) * max(self.m_list)


def chain(members) -> Chain:
    """Similar means, E[X_max] and the mixture bound of (value, mass) lists."""
    support = sorted({v for pairs in members for v, _ in pairs})
    scale = math.lcm(*(x.denominator for x in support))
    xs = [int(x * scale) for x in support]
    dens = [math.lcm(*(m.denominator for _, m in pairs)) for pairs in members]
    cols = []
    for pairs, den in zip(members, dens):
        col, cum, j = [], 0, 0
        ordered = sorted(pairs)
        for x in support:
            while j < len(ordered) and ordered[j][0] <= x:
                m = ordered[j][1]
                cum += m.numerator * (den // m.denominator)
                j += 1
            col.append(cum)
        cols.append(col)

    def survival(nums, den) -> Fraction:
        # integral of 1 - nums[k]/den over [x_k, x_k+1), and of 1 below x_0
        total = xs[0] * den
        for k in range(len(xs) - 1):
            total += (xs[k + 1] - xs[k]) * (den - nums[k])
        return Fraction(total, den * scale)

    n = len(members)
    m_list = tuple(survival([c**n for c in col], den**n) for col, den in zip(cols, dens))
    exact_e = survival([math.prod(row) for row in zip(*cols)], math.prod(dens))
    common = math.lcm(*dens)
    weights = [common // den for den in dens]
    mixed = [sum(c * w for c, w in zip(row, weights)) ** n for row in zip(*cols)]
    mixture_e = survival(mixed, (n * common) ** n)
    return Chain(m_list, exact_e, mixture_e)
