"""The mixing-factor bound chain for heterogeneous assemblies.

For an assembly X_1..X_n with per-member similar means
M_i = E[max of n copies of X_i], the chain verified here is

    mean(M) <= E[Z_max] <= E[X_max] <= mean(M) + (n-1)/n * max(M)

where Z is the equally-weighted mixture of the members.  All four
quantities are exact rationals, so the chain comparisons carry no
tolerance at all.  The two root-based quantities (the bounded-support
lower bound and the geometric-mean CDF gap) are returned as enclosures
with explicit error radii instead.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .dist import Assembly, _check_count, _fields_repr, _shown, as_rational
from .enclosure import DEFAULT_TOL, Enclosure, as_tolerance, nth_root
from .errors import InvariantViolation, PreconditionError

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _means(m_list) -> tuple[Fraction, ...]:
    """The similar means as Fractions, refused unless non-empty and non-negative."""
    ms = tuple(as_rational(m) for m in m_list)
    if not ms:
        raise PreconditionError("m_list must not be empty")
    if any(m < 0 for m in ms):
        raise PreconditionError("similar means must be non-negative")
    return ms


def performance_bounds(m_list) -> tuple[Fraction, Fraction]:
    """Lower and upper bounds on E[X_max] from the similar means alone.

    Returns ``(mean(M), mean(M) + (n-1)/n * max(M))`` with n the length of
    ``m_list``.  Pure formula; no distributions are needed.
    """
    ms = _means(m_list)
    n = len(ms)
    m_bar = sum(ms, _ZERO) / n
    return m_bar, m_bar + Fraction(n - 1, n) * max(ms)


def grouped_bounds(m_list, k: int) -> tuple[Fraction, Fraction]:
    """Bounds for an assembly made of k groups of identical members, equal in size.

    The grouping sharpens the slack factor from (n-1)/n to (k-1)/k.  The
    caller is responsible for the groups actually being identical; only the
    list of similar means and k, which must divide its length, enter it.
    """
    ms = _means(m_list)
    if len(ms) % _check_count(k, "group count k"):
        raise PreconditionError(f"{_shown(k)} equal groups do not split {len(ms)} members")
    m_bar, _ = performance_bounds(ms)
    return m_bar, m_bar + Fraction(k - 1, k) * max(ms)


def mixture_lower(a: Assembly) -> Fraction:
    """Mixture lower bound: E of the max of n copies of the members' mixture.

    Dominates mean(M) and is dominated by E[X_max], but is a function of the
    member distributions, not of M_1..M_n alone, so it is reported as a
    distribution-dependent bound.
    """
    t = a.table
    return t.mean(t.mixture, a.n)


def mixture_dominance_check(a: Assembly) -> bool:
    """Pointwise CDF check behind the mixture bound.

    True iff prod_i F_i(x) <= (mean_i F_i(x))**n at every merged-support
    point.  Both sides are piecewise constant, so the grid check is
    exhaustive.  Always true (power-mean inequality per point); exposed as a
    runtime verifier rather than an assumption.
    """
    n = a.n
    prod_nums, prod_den = a.table.product
    mix_nums, mix_den = a.table.mixture
    mix_den_n = mix_den**n
    return all(p * mix_den_n <= m**n * prod_den for p, m in zip(prod_nums, mix_nums))


def holder_lower(m_list, b, *, tol=DEFAULT_TOL) -> Enclosure:
    """Bounded-support lower bound  b - (prod_i (b - M_i))**(1/n).

    Valid whenever b bounds every member's support; n is the length of
    ``m_list``.  Improves on mean(M) (power-mean inequality) while still
    being a function of M_1..M_n only.  The single n-th root is bracketed on
    exact rationals to width <= tol.
    """
    ms = _means(m_list)
    b = as_rational(b)
    for m in ms:
        if m > b:
            raise PreconditionError(
                f"{_shown(b)} is not a common upper bound: similar mean {_shown(m)} "
                f"exceeds it"
            )
    prod = _ONE
    for m in ms:
        prod *= b - m
    root = nth_root(prod, len(ms), tol)
    return Enclosure(b - root.hi, b - root.lo)


class GamGapReport(NamedTuple):
    """The L1 gap between arithmetic and geometric means of the member CDFs.

    ``gap`` integrates (mean_i F_i - (prod_i F_i)**(1/n)) over the support,
    which is E[V] - E[U], where U is the equally-weighted mixture of the
    members and V is the variable whose n-copy maximum is distributed as the
    assembly maximum.  ``bound`` is (1 - 1/n) * max_i M_i.
    """

    gap: Enclosure
    bound: Fraction

    __repr__ = _fields_repr


def gam_gap(a: Assembly, tol=DEFAULT_TOL) -> GamGapReport:
    """Arithmetic-vs-geometric CDF mean gap with a certified enclosure.

    The gap is the root integral E[V] = integral of 1 - (prod_i F_i)**(1/n)
    less the mixture row's mean E[U], which must equal the mean of the
    members' means exactly, and 0 <= gap <= (1 - 1/n) * max_i M_i must hold
    within the enclosure radius.
    Raises InvariantViolation if any of these certified facts fails.
    """
    tol = as_tolerance(tol)
    n = a.n
    t = a.table
    xs = t.xs
    prod_nums, prod_den = t.product
    if xs[0] != 0:  # every CDF is 0 on [0, first support point)
        xs, prod_nums = (0, *xs), (0, *prod_nums)
    x_max = Fraction(xs[-1], t.scale)
    root_tol = tol / (2 * max(x_max, _ONE))

    ev_lo = ev_hi = _ZERO
    for j in range(len(xs) - 1):
        width = Fraction(xs[j + 1] - xs[j], t.scale)
        root = nth_root(Fraction(prod_nums[j], prod_den), n, root_tol)
        ev_lo += width * (1 - root.hi)
        ev_hi += width * (1 - root.lo)

    e_mix = t.mean(t.mixture)
    e_u = sum((d.expected_value() for d in a.members), _ZERO) / n
    if e_mix != e_u:
        raise InvariantViolation(
            f"integral and mixture forms of the gap disagree by {_shown(e_mix - e_u)}"
        )
    gap = Enclosure(ev_lo - e_mix, ev_hi - e_mix)
    bound = Fraction(n - 1, n) * max(a.similar_means())

    if gap.hi < 0:
        raise InvariantViolation(
            f"CDF mean gap certified negative: [{_shown(gap.lo)}, {_shown(gap.hi)}]")
    if gap.lo > bound:
        raise InvariantViolation(
            f"CDF mean gap [{_shown(gap.lo)}, {_shown(gap.hi)}] certified above "
            f"bound {_shown(bound)}")
    return GamGapReport(gap=gap, bound=bound)


class ChainChecks(NamedTuple):
    """Pass/fail of each inequality in the bound chain.

    The first three comparisons are exact rational comparisons.  The two
    root-based checks are present only when a common support bound was
    supplied; each allows the stated tolerance and is decided from the
    enclosure endpoint that could break it, never from the midpoint.
    `all_ok` fails only on a ``False`` field; an absent check passes.
    """

    mean_le_mixture: bool
    mixture_le_exact: bool
    exact_le_upper: bool
    holder_le_exact: bool | None = None
    mean_le_holder: bool | None = None

    __repr__ = _fields_repr

    #: what ``maxmix verify`` prints for each field, in field order
    labels = ("M_bar <= mixture_E", "mixture_E <= exact_E", "exact_E <= upper",
              "holder <= exact_E + tol", "M_bar <= holder + tol")

    @property
    def all_ok(self) -> bool:
        return False not in self


class BoundReport(NamedTuple):
    """Every quantity in the bound chain for one assembly.

    The summaries derive from the fields `full_report` computes.  ``theta``
    is the mixing factor E[X_max] / max(M), 1 by convention for the all-zero
    assembly (where both sides vanish).  ``mixture_e`` depends on the member
    distributions, not on M_1..M_n alone, unlike the other bounds.
    ``m_bar`` and ``upper`` run `performance_bounds` on every read; a caller
    that needs both takes them from one ``performance_bounds(r.m_list)``.
    """

    m_list: tuple[Fraction, ...]
    exact_e: Fraction
    mixture_e: Fraction
    chain: ChainChecks
    holder: Enclosure | None = None

    __repr__ = _fields_repr

    @property
    def n(self) -> int:
        return len(self.m_list)

    @property
    def m_bar(self) -> Fraction:
        return performance_bounds(self.m_list)[0]

    @property
    def m_max(self) -> Fraction:
        return max(self.m_list)

    @property
    def upper(self) -> Fraction:
        return performance_bounds(self.m_list)[1]

    @property
    def theta(self) -> Fraction:
        return self.exact_e / self.m_max if self.m_max else _ONE


def full_report(a: Assembly, b=None, tol=DEFAULT_TOL) -> BoundReport:
    """Compute the whole bound chain for an assembly.

    ``b``, when given, must bound every member's support and enables the
    bounded-support lower bound.  The three rational comparisons in the
    chain are exact; the two involving the root-based bound allow ``tol``
    and read the enclosure's far endpoint.
    """
    tol = as_tolerance(tol)
    m_list = a.similar_means()
    m_bar, upper = performance_bounds(m_list)
    exact_e = a.expected_max()
    mixture_e = mixture_lower(a)

    holder = None
    if b is not None:
        b = as_rational(b)
        if b < a.support_max:
            raise PreconditionError(
                f"bound {_shown(b)} is below the assembly support maximum "
                f"{_shown(a.support_max)}"
            )
        holder = holder_lower(m_list, b, tol=tol)

    chain = ChainChecks(
        mean_le_mixture=m_bar <= mixture_e,
        mixture_le_exact=mixture_e <= exact_e,
        exact_le_upper=exact_e <= upper,
        # decided from the endpoints: the enclosure is at most tol wide, so
        # both hold for every valid input
        holder_le_exact=None if holder is None else holder.hi <= exact_e + tol,
        mean_le_holder=None if holder is None else m_bar <= holder.lo + tol,
    )
    return BoundReport(m_list, exact_e, mixture_e, chain, holder)


def equality_diagnosis(a: Assembly) -> bool:
    """True iff E[X_max] equals mean(M) exactly.

    Equality can only happen for identically distributed members; that
    implication is re-checked constructively on every positive answer, and
    a failure raises InvariantViolation (it would falsify the equality
    condition this function certifies).
    """
    m_bar, _ = performance_bounds(a.similar_means())
    eq = a.expected_max() == m_bar
    if eq and any(d != a.members[0] for d in a.members[1:]):
        raise InvariantViolation(
            "expected max equals the mean bound but members differ; "
            "the equality condition is violated"
        )
    return eq
