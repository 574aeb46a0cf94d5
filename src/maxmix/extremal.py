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
from typing import NamedTuple

from .bounds import performance_bounds
from .dist import Assembly, FiniteDistribution, _shown, as_rational
from .errors import InvariantViolation, PreconditionError, ResourceCapExceeded

_ZERO = Fraction(0)
_ONE = Fraction(1)

_DELTA_START = Fraction(1, 2)
_DELTA_SHRINK = Fraction(1, 10)
_MAX_ROUNDS = 60
#: Relative stagger separating the zero masses of equal targets, so the
#: non-zero values come out strictly increasing as the construction assumes.
_STAGGER = Fraction(1, 1000)


class _ExtremalFields(NamedTuple):
    m_list: tuple[Fraction, ...]
    closeness: Fraction
    p_schedule: tuple[Fraction, ...] | None = None


class ExtremalSpec(_ExtremalFields):
    """Targets for the extremal builder.

    ``m_list`` holds the target similar means in ascending order (the last
    entry, the largest, becomes the constant member).  ``closeness`` is the
    gap the automatic builder must reach.  ``p_schedule``, when given, fixes
    the zero masses of the n-1 two-point members explicitly and disables the
    automatic tightening (the achieved gap is then whatever it is).
    Construction converts every entry with `as_rational` and checks it.
    """

    __slots__ = ()

    def __new__(cls, m_list, closeness, p_schedule=None):
        ms = tuple(as_rational(m) for m in m_list)
        closeness = as_rational(closeness)
        if not ms:
            raise PreconditionError("m_list must not be empty")
        if any(m <= 0 for m in ms):
            raise PreconditionError("target similar means must be positive")
        if any(x > y for x, y in zip(ms, ms[1:])):
            raise PreconditionError("target similar means must be ascending")
        if closeness <= 0:
            raise PreconditionError(f"closeness must be positive, got {_shown(closeness)}")
        if p_schedule is not None:
            p_schedule = tuple(as_rational(p) for p in p_schedule)
            if len(p_schedule) != len(ms) - 1:
                raise PreconditionError(
                    f"p_schedule needs {len(ms) - 1} entries, got {len(p_schedule)}"
                )
            if any(not 0 < p < 1 for p in p_schedule):
                raise PreconditionError("every scheduled zero mass must lie in (0, 1)")
        return super().__new__(cls, ms, closeness, p_schedule)

    @classmethod
    def _make(cls, iterable):  # `_replace` builds through here: keep the checks
        return cls(*iterable)

    @property
    def n(self) -> int:
        return len(self.m_list)


def theta_sup(n: int) -> Fraction:
    """Supremum of the mixing factor over equal-target assemblies: 2 - 1/n."""
    if not isinstance(n, int) or n < 1:
        raise PreconditionError(f"assembly size must be an integer >= 1, got {_shown(n)}")
    return 2 - Fraction(1, n)


def gap(a: Assembly) -> Fraction:
    """Exact slack of the upper bound: mean(M) + (n-1)/n * max(M) - E[X_max]."""
    return performance_bounds(a.similar_means(), a.n)[1] - a.expected_max()


def _staggered(delta: Fraction, n: int) -> tuple[Fraction, ...]:
    """Zero masses 1 - delta_k with delta_k shrinking in k.

    The shrink makes p_1 < ... < p_{n-1}, hence x_1 < ... < x_{n-1} even for
    equal targets; exact ties would break the strict ordering the
    construction assumes.
    """
    return tuple(
        _ONE - delta * (1 + (n - 1 - k) * _STAGGER) for k in range(1, n)
    )


def _realize(m_list: tuple[Fraction, ...], ps: tuple[Fraction, ...]) -> Assembly:
    n = len(m_list)
    m_top = m_list[-1]
    members = []
    xs = []
    for m_k, p_k in zip(m_list[:-1], ps):
        x_k = m_k / (1 - p_k**n)
        xs.append(x_k)
        members.append(FiniteDistribution.from_pairs([(_ZERO, p_k), (x_k, 1 - p_k)]))
    members.append(FiniteDistribution.point_mass(m_top))
    ordered = all(x < y for x, y in zip(xs, xs[1:])) and (not xs or m_top < xs[0])
    if not ordered:
        raise PreconditionError(
            f"zero masses {_shown(ps)} do not order the non-zero values "
            f"{_shown(xs)} above the constant member {_shown(m_top)}"
        )
    a = Assembly(tuple(members))
    realized = a.similar_means()
    if realized != m_list:
        raise InvariantViolation(f"similar means {_shown(realized)} != targets {_shown(m_list)}")
    return a


def build(spec: ExtremalSpec) -> Assembly:
    """Realize the two-point family for the given targets.

    With an explicit ``p_schedule`` the assembly is built as scheduled (the
    ordering constraint is validated, the achieved gap is reported by `gap`
    but not forced under ``closeness``).  Otherwise the zero masses start at
    1/2 and tighten geometrically toward 1 until the exact gap drops to
    ``closeness``; each candidate is checked by exact arithmetic.
    """
    if spec.p_schedule is not None:
        return _realize(spec.m_list, spec.p_schedule)

    delta = _DELTA_START
    for _ in range(_MAX_ROUNDS):
        try:
            a = _realize(spec.m_list, _staggered(delta, spec.n))
        except PreconditionError:
            delta *= _DELTA_SHRINK
            continue
        if gap(a) <= spec.closeness:
            return a
        delta *= _DELTA_SHRINK
    raise ResourceCapExceeded(
        f"gap {_shown(spec.closeness)} not reached within {_MAX_ROUNDS} tightening rounds"
    )
