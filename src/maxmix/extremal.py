"""Two-point assemblies driving the mixing factor toward its supremum.

The mixing factor theta = E[X_max] / max(M) never reaches 2 - 1/n, but the
family built here gets arbitrarily close: one constant member at the largest
target mean, and for every other target M_k a two-point member {0, x_k} whose
zero mass p_k is pushed toward 1 while x_k = M_k / (1 - p_k^n) grows to keep
the similar mean pinned at M_k exactly.  The builder realizes a concrete
member of the family and certifies the achieved gap by exact arithmetic
instead of taking limits symbolically.
"""

from __future__ import annotations

from fractions import Fraction

from .bounds import performance_bounds
from .dist import (DEFAULT_BIT_CAP, Assembly, FiniteDistribution, _check_count, _shown,
                   as_rational, check_cap)
from .errors import InvariantViolation, PreconditionError, ResourceCapExceeded

_ZERO = Fraction(0)
_ONE = Fraction(1)

_DELTA_START = Fraction(1, 2)
_DELTA_SHRINK = Fraction(1, 10)
_MAX_ROUNDS = 60
#: Relative stagger separating the zero masses of equal targets, so the
#: non-zero values come out strictly increasing as the construction assumes.
_STAGGER = Fraction(1, 1000)


def theta_sup(n: int) -> Fraction:
    """Supremum of the mixing factor over equal-target assemblies: 2 - 1/n."""
    return 2 - Fraction(1, _check_count(n, "assembly size"))


def gap(a: Assembly) -> Fraction:
    """Exact slack of the upper bound: mean(M) + (n-1)/n * max(M) - E[X_max]."""
    return performance_bounds(a.similar_means())[1] - a.expected_max()


def _staggered(delta: Fraction, n: int) -> tuple[Fraction, ...]:
    """Zero masses 1 - delta_k with delta_k shrinking in k.

    The shrink makes p_1 < ... < p_{n-1}, hence x_1 < ... < x_{n-1} even for
    equal targets; exact ties would break the strict ordering the
    construction assumes.
    """
    return tuple(
        _ONE - delta * (1 + (n - 1 - k) * _STAGGER) for k in range(1, n)
    )


def _values(m_list: tuple[Fraction, ...], ps: tuple[Fraction, ...]) -> list[Fraction]:
    """The non-zero values x_k = M_k / (1 - p_k^n), refused unless they rise
    strictly from above the constant member at the top target.

    Refuses first a zero mass outside (0, 1), then n**2 times the bits of
    the longest zero-mass denominator, an estimate of the exact E[X_max]'s
    denominator, when it exceeds `DEFAULT_BIT_CAP`.
    """
    if any(not 0 < p < 1 for p in ps):
        raise PreconditionError("every scheduled zero mass must lie in (0, 1)")
    n = len(m_list)
    check_cap(n * n * max((p.denominator.bit_length() for p in ps), default=0),
              "estimated bits of the exact expectation", DEFAULT_BIT_CAP)
    m_top = m_list[-1]
    xs = [m_k / (1 - p_k**n) for m_k, p_k in zip(m_list[:-1], ps)]
    ordered = all(x < y for x, y in zip(xs, xs[1:])) and (not xs or m_top < xs[0])
    if not ordered:
        raise PreconditionError(
            f"zero masses {_shown(ps)} do not order the non-zero values "
            f"{_shown(xs)} above the constant member {_shown(m_top)}"
        )
    return xs


def _targets(m_list) -> tuple[Fraction, ...]:
    """The target similar means as Fractions, refused unless non-empty,
    positive and ascending."""
    ms = tuple(as_rational(m) for m in m_list)
    if not ms:
        raise PreconditionError("m_list must not be empty")
    if any(m <= 0 for m in ms):
        raise PreconditionError("target similar means must be positive")
    if any(x > y for x, y in zip(ms, ms[1:])):
        raise PreconditionError("target similar means must be ascending")
    return ms


def realize(m_list, p_schedule) -> Assembly:
    """The member of the family with the given zero masses.

    ``m_list`` holds the target similar means in ascending order (the last
    entry, the largest, becomes the constant member); ``p_schedule`` fixes
    the zero masses of the n-1 two-point members, each in (0, 1).  Both are
    converted with `as_rational`.  The ordering of the non-zero values is
    validated and the realized similar means are checked exactly; the
    achieved gap is whatever it is, reported by `gap`.
    """
    m_list = _targets(m_list)
    ps = tuple(as_rational(p) for p in p_schedule)
    if len(ps) != len(m_list) - 1:
        raise PreconditionError(f"p_schedule needs {len(m_list) - 1} entries, got {len(ps)}")
    xs = _values(m_list, ps)
    members = [FiniteDistribution.from_pairs([(_ZERO, p_k), (x_k, 1 - p_k)])
               for x_k, p_k in zip(xs, ps)]
    members.append(FiniteDistribution.point_mass(m_list[-1]))
    a = Assembly(tuple(members))
    realized = a.similar_means()
    if realized != m_list:
        raise InvariantViolation(f"similar means {_shown(realized)} != targets {_shown(m_list)}")
    return a


def _family_gap(m_list: tuple[Fraction, ...], ps: tuple[Fraction, ...]) -> Fraction:
    """`gap` of ``realize(m_list, ps)`` in closed form, without building it.

    With m_top < x_1 < ... < x_{n-1}, the maximum is x_j when member j draws
    x_j and every later member draws 0, and m_top when all of them draw 0:
    E[X_max] = sum_j x_j (1 - p_j) prod_{i>j} p_i + m_top prod_i p_i, summed
    here from the bottom as e <- e p_j + x_j (1 - p_j).  Refuses what
    `_values` refuses.
    """
    e = m_list[-1]
    for x_k, p_k in zip(_values(m_list, ps), ps):
        e = e * p_k + x_k * (1 - p_k)
    return performance_bounds(m_list)[1] - e


def build(m_list, closeness) -> Assembly:
    """The member of the family whose exact gap first drops to ``closeness``.

    ``m_list`` is read as `realize` reads it, and ``closeness`` must be
    positive.  The zero masses start at 1/2 and tighten geometrically toward
    1 until the gap, taken from the family's closed form, drops to
    ``closeness``; only that candidate is realized, by `realize`.
    """
    m_list = _targets(m_list)
    closeness = as_rational(closeness)
    if closeness <= 0:
        raise PreconditionError(f"closeness must be positive, got {_shown(closeness)}")
    delta = _DELTA_START
    for _ in range(_MAX_ROUNDS):
        ps = _staggered(delta, len(m_list))
        try:
            close = _family_gap(m_list, ps) <= closeness
        except PreconditionError:
            close = False
        if close:
            return realize(m_list, ps)
        delta *= _DELTA_SHRINK
    raise ResourceCapExceeded(
        f"gap {_shown(closeness)} not reached within {_MAX_ROUNDS} tightening rounds"
    )
