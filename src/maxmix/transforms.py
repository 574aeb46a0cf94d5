"""M-preserving distribution surgeries with per-call certificates.

Three rearrangements of mass that hold every member's similar-assembly mean
(the expected max of n independent copies) fixed while moving the joint
performance in a known direction:

* `coalesce`: merge all atoms of one distribution inside a closed interval
  into a single atom, against a companion with no mass strictly inside the
  interval.  Never decreases E[X v Y].
* `reduce_pair`: the companion may now have mass inside the interval; the
  two atoms the distribution keeps there are moved (or merged) so that at
  most one value remains strictly inside.  Never decreases E[X v Y].
* `down_project`: push every member's mass inside an interval onto the two
  endpoints.  Never increases the assembly's expected max (up to the root
  enclosure radius).

Every transform recomputes its own certificate on exit: the similar-mean
residual and the exact change of the joint expectation.  A failed
certificate raises InvariantViolation rather than returning quietly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Literal, NamedTuple

from .dist import (
    Assembly,
    FiniteDistribution,
    _check_count,
    _fields_repr,
    _shown,
    as_rational,
)
from .enclosure import DEFAULT_TOL, as_tolerance, nth_root
from .errors import InvariantViolation, PreconditionError

_ZERO = Fraction(0)
_ONE = Fraction(1)

Direction = Literal["increased", "decreased", "unchanged"]


class TransformOutcome(NamedTuple):
    """A transformed distribution (or assembly) plus its certificates.

    ``m_residual`` is the exact difference of each preserved similar mean:
    identically 0 for the exact transforms, a tiny rational left by midpoint
    rounding of the root enclosure for `down_project`.  ``e_delta`` is the
    exact change of the certified expectation (E[X v Y] for the first two
    transforms, the assembly expected max for the third).  ``alphas`` is
    populated by `down_project` only: the endpoint mass share per member,
    None for members the interval does not touch.
    """

    result: FiniteDistribution | Assembly
    m_residual: Fraction | tuple[Fraction, ...]
    e_delta: Fraction
    alphas: tuple[Fraction | None, ...] | None = None

    __repr__ = _fields_repr

    @property
    def direction(self) -> Direction:
        if self.e_delta > 0:
            return "increased"
        if self.e_delta < 0:
            return "decreased"
        return "unchanged"


def _payoff_delta(d: FiniteDistribution, result: FiniteDistribution,
                  companion: FiniteDistribution, n: int, op: str) -> Fraction:
    """Check that the n-copy mean is unmoved; return E[result v Y] - E[d v Y]."""
    residual = result.similar_max_mean(n) - d.similar_max_mean(n)
    if residual != 0:
        raise InvariantViolation(f"similar mean moved by {_shown(residual)} in {op}")
    return (Assembly((result, companion)).expected_max()
            - Assembly((d, companion)).expected_max())


def coalesce(d: FiniteDistribution, a, b, companion: FiniteDistribution,
             n: int) -> TransformOutcome:
    """Merge the atoms of ``d`` inside [a, b] into one similar-mean-neutral atom.

    Requires the companion to place no mass strictly inside (a, b) (endpoint
    atoms are fine) and ``d`` to place positive mass on [a, b].  The merged
    atom sits at

        x = (interval contribution to E[d's n-copy max]) / (F(b)^n - F(a-)^n)

    which matches the interval's contribution exactly, so the similar mean
    is preserved as a rational identity.  x is a mass-weighted mean skewed
    upward, hence at least the plain conditional mean, and E[result v Y]
    gains exactly  p * P[Y <= a] * (x - E[d | a <= d <= b])  >= 0.
    """
    a = as_rational(a)
    b = as_rational(b)
    if not 0 <= a <= b:
        raise PreconditionError(f"need 0 <= a <= b, got [{_shown(a)}, {_shown(b)}]")
    n = _check_count(n)
    inside_mass = companion.cdf(b, "left") - companion.cdf(a)
    if inside_mass > 0:
        raise PreconditionError(
            f"companion has mass {_shown(inside_mass)} in ({_shown(a)}, {_shown(b)})"
        )
    inside = [(v, m, w) for (v, m), w in zip(d.atoms, d.copy_weights(n))
              if a <= v <= b]
    if not inside:
        raise PreconditionError(f"distribution has no mass in [{_shown(a)}, {_shown(b)}]")
    p = sum((m for _, m, _ in inside), _ZERO)
    x = sum(v * w for v, _, w in inside) / sum(w for _, _, w in inside)
    cond_mean = sum((v * m for v, m, _ in inside), _ZERO) / p
    if not (a <= x <= b) or x < cond_mean:
        raise InvariantViolation(
            f"coalesced atom {_shown(x)} escaped [{_shown(a)}, {_shown(b)}] or fell "
            f"below the conditional mean {_shown(cond_mean)}"
        )

    outside = [(v, m) for v, m in d.atoms if v < a or v > b]
    result = FiniteDistribution.from_pairs(outside + [(x, p)])

    e_delta = _payoff_delta(d, result, companion, n, "coalesce")
    certificate = p * companion.cdf(a) * (x - cond_mean)
    if e_delta != certificate or e_delta < 0:
        raise InvariantViolation(
            f"coalesce payoff certificate failed: delta {_shown(e_delta)}, "
            f"closed form {_shown(certificate)}"
        )
    return TransformOutcome(result, _ZERO, e_delta)


def reduce_pair(d: FiniteDistribution, l, r, companion: FiniteDistribution,
                n: int) -> TransformOutcome:
    """Leave at most one atom of ``d`` strictly inside (l, r), similar mean fixed.

    ``d`` must hold its entire (l, r) mass on exactly two atoms a < b with
    masses p, q.  The movement family places the pair at (u, V(u)) with
    V(u) = b - lam*(u - a) and lam = (F(a)^n - F(l)^n) / (F(b)^n - F(a)^n),
    the unique linear coupling that keeps the n-copy mean constant while the
    atoms neither cross each other nor any other CDF step.

    The right derivative of the payoff u -> E[moved v companion] at a is
        slope = p*G(a) - q*lam*G(b-),   G the companion CDF,
    and is non-decreasing along the family.  If slope < 0 the pair separates
    (u downward), stopping at l or where the upper atom reaches the next
    support point above b, whichever binds first.  If slope >= 0 the pair
    moves together and merges at the conditional mean

        omega = E[n-copy max of d | value in (l, r)],

    the exact crossing point of the family.  Moving past omega (or past the
    next support point) would change the CDF plateau pattern the coupling
    rate was derived from and break the mean; both stops are therefore
    structural, not heuristic.
    """
    l = as_rational(l)
    r = as_rational(r)
    if not 0 <= l < r:
        raise PreconditionError(f"need 0 <= l < r, got ({_shown(l)}, {_shown(r)})")
    n = _check_count(n)
    inside = [(v, m, w) for (v, m), w in zip(d.atoms, d.copy_weights(n))
              if l < v < r]
    if len(inside) != 2:
        raise PreconditionError(
            f"mass in ({_shown(l)}, {_shown(r)}) must sit on exactly two atoms, "
            f"found {len(inside)}"
        )
    (av, p, w_a), (bv, q, w_b) = inside
    lam = Fraction(w_a, w_b)

    g = companion.cdf
    slope_a = p * g(av) - q * lam * g(bv, "left")

    if slope_a < 0:
        nxt = min((v for v in d.values if v > bv), default=None)
        u = l if nxt is None else max(l, av - (nxt - bv) / lam)
        partner = bv - lam * (u - av)
        moved = [(u, p), (partner, q)]
    else:
        omega = (av * w_a + bv * w_b) / (w_a + w_b)
        if slope_a == 0 and g(av) > 0:
            # the payoff slope must have turned strictly positive at the
            # merge point whenever the companion has mass strictly between
            # the two atoms; re-check rather than trust the closed form
            slope_omega = p * g(omega) - q * lam * g(omega, "left")
            companion_between = g(bv, "left") - g(av)
            if companion_between > 0 and slope_omega <= 0:
                raise InvariantViolation(
                    f"payoff slope {_shown(slope_omega)} not positive at merge point "
                    f"{_shown(omega)}"
                )
        moved = [(omega, p + q)]

    outside = [(v, m) for v, m in d.atoms if not l < v < r]
    result = FiniteDistribution.from_pairs(outside + moved)

    strictly_inside = [v for v in result.values if l < v < r]
    if len(strictly_inside) > 1:
        raise InvariantViolation(
            f"{len(strictly_inside)} atoms remain strictly inside "
            f"({_shown(l)}, {_shown(r)})"
        )
    e_delta = _payoff_delta(d, result, companion, n, "reduce_pair")
    if e_delta < 0:
        raise InvariantViolation(f"reduce_pair decreased the payoff by {_shown(-e_delta)}")
    return TransformOutcome(result, _ZERO, e_delta)


def phi(u, v, p, n: int) -> Fraction:
    """The mixing payoff curve  p -> u*p + v*(1-p)/(1-p^n)  on [0, 1].

    This is E[max(u, X)] for a two-point variable X holding its n-copy max
    mean at v while its zero mass grows to p (so its non-zero value is
    v / (1 - p^n)).  For v <= u it increases from v at p=0 to u + v/n at
    p=1 (the continuous extension); both the extremal construction and the
    upper-bound argument rest on this monotone climb.
    """
    u = as_rational(u)
    v = as_rational(v)
    p = as_rational(p)
    if not 0 <= p <= 1:
        raise PreconditionError(f"p must lie in [0, 1], got {_shown(p)}")
    if v > u:
        raise PreconditionError(f"payoff curve needs v <= u, got v={_shown(v)} > u={_shown(u)}")
    n = _check_count(n)
    if p == 1:
        return u + v / n
    return u * p + v * (1 - p) / (1 - p**n)


def down_project(a: Assembly, lo, hi, tol=DEFAULT_TOL) -> TransformOutcome:
    """Push every member's [lo, hi] mass onto the endpoints, similar means fixed.

    Each member's interval mass p_i splits as alpha_i at lo and 1 - alpha_i
    at hi, with alpha_i chosen so the member's n-copy mean is unchanged:

        alpha_i = (F_i(hi) * t_i**(1/n) - F_i(lo-)) / p_i,
        t_i = 1 - sum_{lo<v<=hi} (v - lo) * w_v / ((hi - lo) * F_i(hi)**n),

    where w_v = F_i(v)**n - F_i(v-)**n is the n-copy weight of the atom at v
    (the weights at or below hi telescope to F_i(hi)**n).
    t_i**(1/n) is irrational in general.  The root's two endpoints give two
    masses at lo, and a member is refused only when both lie on one side of
    [0, p_i]; otherwise the midpoint share is used, clamped to [0, 1], and
    the exact per-member mean residual is reported rather than hidden.  The
    assembly expected max never increases beyond the same rounding slack.
    Members without mass in the interval pass through untouched (their
    alpha is None).
    """
    lo = as_rational(lo)
    hi = as_rational(hi)
    if not 0 <= lo < hi:
        raise PreconditionError(f"need 0 <= lo < hi, got [{_shown(lo)}, {_shown(hi)}]")
    tol = as_tolerance(tol)
    n = a.n
    for i, d in enumerate(a.members):
        if d.cdf(hi) == 0:
            raise PreconditionError(f"member {i} has no mass at or below {_shown(hi)}")

    span = hi - lo
    root_tol = tol / (4 * n * n * max(span, _ONE))
    kept: list[tuple[FiniteDistribution, Fraction, Fraction | None]] = []
    for i, d in enumerate(a.members):
        inside = [(v, m, w) for (v, m), w in zip(d.atoms, d.copy_weights(n)) if lo <= v <= hi]
        if not inside:
            kept.append((d, _ZERO, None))
            continue

        p_int = sum((m for _, m, _ in inside), _ZERO)
        f_hi = d.cdf(hi)
        f_lo_left = f_hi - p_int
        inside_weight = sum((v - lo) * w for v, _, w in inside)
        t = 1 - inside_weight / (span * (f_hi * d.form.den) ** n)
        root = nth_root(t, n, root_tol)
        lo_mass = root.lo * f_hi - f_lo_left
        hi_mass = root.hi * f_hi - f_lo_left
        if hi_mass < 0 or lo_mass > p_int:
            raise InvariantViolation(
                f"endpoint mass [{_shown(lo_mass)}, {_shown(hi_mass)}] misses "
                f"[0, {_shown(p_int)}]"
            )
        alpha = min(max((lo_mass + hi_mass) / (2 * p_int), _ZERO), _ONE)

        outside = [(v, m) for v, m in d.atoms if v < lo or v > hi]
        member = FiniteDistribution.from_pairs(
            outside + [(lo, p_int * alpha), (hi, p_int * (1 - alpha))]
        )
        res = member.similar_max_mean(n) - d.similar_max_mean(n)
        if abs(res) > tol:
            raise InvariantViolation(
                f"member {i} similar mean drifted by {_shown(res)}, beyond {_shown(tol)}"
            )
        if any(lo < v < hi for v in member.values):
            raise InvariantViolation(f"member {i} kept mass strictly inside")
        kept.append((member, res, alpha))

    new_members, residuals, alphas = zip(*kept)
    result = Assembly(new_members)
    e_delta = result.expected_max() - a.expected_max()
    if e_delta > tol:
        raise InvariantViolation(
            f"down projection increased the expected max by {_shown(e_delta)}"
        )
    return TransformOutcome(result, residuals, e_delta, alphas)
