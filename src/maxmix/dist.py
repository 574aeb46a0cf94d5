"""Exact finite discrete distributions on the non-negative rationals.

Every value, mass, CDF value and expectation in this module is an
exact `fractions.Fraction`, or an integer over an explicit integer
denominator inside `CdfTable`.  That discipline is what lets the rest of the
package check its inequality chains with zero tolerance rather than
floating-point slack; floats are refused at the door.

Core types:

* `FiniteDistribution`: an immutable distribution stored as its
  `IntegerForm`, the atoms as integers over one value scale and one mass
  denominator, built only by `from_pairs`, `from_ratios` and `point_mass`,
  all through `IntegerForm.of`, which validates them.  The form is canonical
  (strictly increasing non-negative values, positive masses, total mass
  exactly 1), which makes equality of distributions decidable, as the
  equality diagnostics need.  The ``(value, mass)`` atoms as `Fraction`
  pairs are built only when first read.
* `Assembly`: an ordered family of n independent members.  The member count
  n is also the copy count used in every similar-assembly mean for that
  family.
* `CdfTable`: two integer rows over the members' merged support, the CDF
  of their maximum and the CDF of their mixture, built in one sweep over the
  members' jumps.
* `jump_weights`: the one n-copy formula.  Every exact quantity of the bound
  chain is the expected maximum of n copies of a step CDF given as a
  cumulative integer row ``c`` over ``den``: ``sum_k x_k * (c_k**n -
  c_{k-1}**n) / (scale * den**n)``.  A similar mean takes a member's own
  row, the mixture bound the mixture row and the expected maximum the
  product row with n = 1: jump sums, one division.
* `SurvivalStep`: a piecewise-constant right-continuous CDF, the tests'
  independent path to the CDF of a maximum (the package uses `CdfTable`).
"""

from __future__ import annotations

import bisect
import math
import sys
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from operator import attrgetter, floordiv, lt, mul
from typing import Callable, Iterable, Iterator, Literal, NamedTuple, Sequence

from .errors import PreconditionError, ResourceCapExceeded

Side = Literal["left", "right"]

#: Upper bound on the number of atoms/breakpoints any single construction may
#: produce: discretization grids, merged supports and the CLI's member and
#: point counts.  Read at call time, so it can be lowered for a test.
DEFAULT_ATOM_CAP = 10**6
#: Upper bound on the estimated bit length of an operand that a construction
#: may build: the scaled integer of an n-th root, and the extremal family's
#: exact expectation.
DEFAULT_BIT_CAP = 2**18

_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_rational(x) -> Fraction:
    """Exact conversion to Fraction.

    Accepts Fraction, int and strings like "3/7", "0.125" or "1e-3", which
    are read by the assembly file's token rules (`_ratios`).  Floats are
    rejected: a float argument almost always means the caller has already
    lost exactness, and this library cannot restore it.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        (num,), (den,) = _ratios((x,))
        return Fraction(num, den)
    if isinstance(x, bool):
        raise TypeError("booleans are not rational values")
    if isinstance(x, float):
        raise TypeError(
            f"refusing inexact float {x!r}; pass a Fraction, an int or a "
            f"string such as '{x}'"
        )
    return Fraction(x)


_LOG10_2 = math.log10(2)


def _int_str(k: int) -> str:
    """Decimal digits of k of any length.

    ``str`` refuses integers above the interpreter's digit limit (4300 by
    default); longer ones are split at a power of ten into halves that each
    convert on their own, so no process-wide setting is touched.
    """
    if k < 0:
        return "-" + _int_str(-k)
    limit = sys.get_int_max_str_digits()
    if not limit or k.bit_length() <= 3 * limit:  # a digit holds over 3 bits
        return str(k)
    half = int(k.bit_length() * _LOG10_2) // 2
    hi, lo = divmod(k, 10**half)
    return _int_str(hi) + _int_str(lo).zfill(half)


def fraction_str(x: Fraction) -> str:
    if x.denominator == 1:
        return _int_str(x.numerator)
    return f"{_int_str(x.numerator)}/{_int_str(x.denominator)}"


#: longest text echoed whole in an error message
_ECHO_CAP = 40


def clip(text: str) -> str:
    """Text for an error message, cut to its first characters when long."""
    return text if len(text) <= _ECHO_CAP else f"{text[:_ECHO_CAP]}...({len(text)} chars)"


def _leading(num: int, den: int, digits: int) -> tuple[int, int, int]:
    """``(q, r, e)`` with q the leading digits of ``num / den`` and e their scale.

    For positive num and den, e is chosen from the bit lengths alone so that
    ``q = num // (den * 10**e)`` has `digits` to ``digits + 2`` digits, and
    one `divmod` gives q and its remainder r (of ``num * 10**-e`` by den when
    e < 0); r is 0 exactly when ``num / den == q * 10**e``.  With q short, the
    division costs time about linear in the length of the operands.
    """
    e = int((num.bit_length() - den.bit_length() - 1) * _LOG10_2) - digits
    scale = 5 ** abs(e) << abs(e)  # 10**|e|: the smaller power is the quicker to raise
    if e < 0:
        return (*divmod(num * scale, den), e)
    return (*divmod(num, den * scale), e)


def _lead_digits(k: int) -> str:
    """Text as long as `_int_str(k)` that agrees with it in the first
    `_ECHO_CAP` characters, which is all that `clip` shows of a long value.

    Integers past the default digit limit keep their leading digits and end
    in zeros: an exact decimal conversion of a 10**6-digit integer takes
    seconds, while cutting it takes one power of ten.
    """
    if k < 0:
        return "-" + _lead_digits(-k)
    if k.bit_length() <= 3 * 4300:
        return _int_str(k)
    q, _, cut = _leading(k, 1, 2 * _ECHO_CAP)
    return _int_str(q) + "0" * cut


def _lead_str(x: Fraction) -> str:
    """`fraction_str` written with `_lead_digits`."""
    den = x.denominator
    return _lead_digits(x.numerator) + (f"/{_lead_digits(den)}" if den != 1 else "")


def _shown(x) -> str:
    """A value for an error message, clipped.

    Every value a refusal quotes goes through here.  Integers and rationals
    are written by `_lead_str`, since ``str`` raises on integers beyond the
    interpreter's digit limit; a tuple or list of them is joined with
    commas; anything else is shown by its repr.
    """
    if isinstance(x, (tuple, list)):
        text = ", ".join(map(_lead_str, x))
    elif isinstance(x, (int, Fraction)):
        text = _lead_str(x)
    else:
        text = repr(x)
    return clip(text)


def _digits_int(s: str) -> int:
    """The integer of an ASCII digit string of any length (see `_int_str`)."""
    try:
        return int(s)
    except ValueError:  # beyond the interpreter's digit limit: convert in halves
        half = len(s) // 2
        return _digits_int(s[:-half]) * 10**half + _digits_int(s[-half:])


#: largest exponent magnitude a token may carry: "1e100000" has 100 001 digits,
#: while `Fraction` would spend seconds building 10**(10**7) for "1e10000000"
_MAX_EXPONENT = 10**5


def _ratios(toks: Iterable[str]) -> tuple[list[int], list[int]]:
    """Rational tokens as two integer columns: numerators, and positive denominators.

    The one reader of rational text: the parser reads a member line by it,
    and `as_rational` and the CLI's integer options each read one token.
    "a" and "a/b" in ASCII digits convert straight to integers of any length
    in this loop; every other form goes through `Fraction` once its exponent,
    if any, is known to be at most `_MAX_EXPONENT` (10**5) in magnitude.  A
    refusal is a `ValueError` quoting at most `clip(tok)`.
    """
    nums, dens = [], []
    known = {"": 1}  # denominators repeat along a line; "" is a token without "/"
    for tok in toks:
        num, sep, den = tok.partition("/")
        if tok.isascii() and num.isdigit() and (den.isdigit() or not sep):
            try:
                b = known.get(den)
                if b is None:
                    b = known[den] = int(den)
                a = int(num)
            except ValueError:  # beyond the interpreter's digit limit
                a, b = _digits_int(num), _digits_int(den) if sep else 1
            if b:
                nums.append(a)
                dens.append(b)
                continue
        e, exp = tok.upper().rpartition("E")[1:]
        exp = exp.strip().lstrip("+-").replace("_", "").lstrip("0")
        try:
            if e and exp.isdecimal() and (len(exp) > 6 or int(exp) > _MAX_EXPONENT):
                raise ValueError(f"exponent magnitude above {_MAX_EXPONENT}")
            x = Fraction(tok)
        except (ValueError, ZeroDivisionError) as exc:
            detail = str(exc).replace(tok, clip(tok))
            if "int_max_str_digits" in detail:  # the interpreter's digit-limit text
                detail = f"more than {sys.get_int_max_str_digits()} digits"
            raise ValueError(f"bad rational {clip(tok)!r}: {detail}") from None
        nums.append(x.numerator)
        dens.append(x.denominator)
    return nums, dens


def check_cap(count: int, what: str, cap: int | None = None) -> None:
    """Refuse a construction of more than ``cap`` points, `DEFAULT_ATOM_CAP` if None."""
    cap = DEFAULT_ATOM_CAP if cap is None else cap
    if count > cap:
        raise ResourceCapExceeded(f"{what} {_shown(count)} exceeds the cap {cap}")


def jump_weights(cum: Iterable[int], n: int) -> Iterator[int]:
    """Yield ``c_k**n - c_{k-1}**n`` for a cumulative row ``c``, with ``c_{-1} = 0``.

    Over ``den**n`` these are the atom masses of the maximum of n copies of
    the step CDF ``c / den``.  A generator, so only two powers are held at a
    time however long the row.
    """
    prev = 0
    for c in cum:
        p = c**n
        yield p - prev
        prev = p


def _check_count(x, what: str = "copy count", least: int = 1) -> int:
    """Refuse anything but an ``int`` of at least ``least``; a ``bool`` is refused."""
    if isinstance(x, bool) or not isinstance(x, int) or x < least:
        got = repr(x) if isinstance(x, bool) else _shown(x)  # _shown(True) reads "1"
        raise PreconditionError(f"{what} must be an integer >= {least}, got {got}")
    return x


def _long_repr(x) -> str:
    """``repr(x)``, with integers and Fractions of any length written by `_int_str`."""
    if type(x) is tuple:
        return f"({', '.join(map(_long_repr, x))}{',' * (len(x) == 1)})"
    if isinstance(x, Fraction):
        return f"Fraction({_int_str(x.numerator)}, {_int_str(x.denominator)})"
    return _int_str(x) if type(x) is int else repr(x)


def _fields_repr(self) -> str:
    """``Name(field=value, ...)`` over ``_fields``, each value by `_long_repr`.

    The repr of `Frozen` values and of every `NamedTuple` record, so that no
    repr raises on a value past the interpreter's digit limit.
    """
    inner = ", ".join(f"{f}={_long_repr(getattr(self, f))}" for f in self._fields)
    return f"{type(self).__name__}({inner})"


class IntegerForm(NamedTuple):
    """Canonical atoms as integers: ``values[k] / scale`` carries ``masses[k] / den``.

    ``scale`` is the lcm of the value denominators and ``den`` the lcm of the
    mass denominators, so the form of a distribution is unique.  The values
    rise strictly, every mass is positive and the masses sum to ``den``.
    """

    scale: int
    values: tuple[int, ...]
    den: int
    masses: tuple[int, ...]

    __repr__ = _fields_repr

    @classmethod
    def of(cls, vnums: Sequence[int], vdens: Sequence[int],
           mnums: Sequence[int], mdens: Sequence[int]) -> "IntegerForm":
        """Canonicalise atoms given as four integer columns.

        Atom k has value ``vnums[k] / vdens[k]`` and mass ``mnums[k] /
        mdens[k]``.  Denominators must be positive; the fractions need not be
        in lowest terms.  Equal values are merged and zero masses dropped; a
        negative mass (checked in input order), a negative value or a total
        other than 1 is refused.  Values that already rise strictly, as in a
        canonical file, skip the merge and the sort.
        """
        if not mnums or min(mnums) <= 0:
            for vn, vd, mn, md in zip(vnums, vdens, mnums, mdens):
                if mn < 0:
                    m, v = _shown(Fraction(mn, md)), _shown(Fraction(vn, vd))
                    raise PreconditionError(f"atom mass {m} at value {v} is negative")
            kept = [k for k, mn in enumerate(mnums) if mn]
            if not kept:
                raise PreconditionError("a distribution needs at least one atom")
            vnums, vdens, mnums, mdens = (
                [col[k] for k in kept] for col in (vnums, vdens, mnums, mdens))
        scale = math.lcm(*set(vdens))
        den = math.lcm(*set(mdens))
        values = list(map(mul, vnums, map(floordiv, repeat(scale), vdens)))
        masses = list(map(mul, mnums, map(floordiv, repeat(den), mdens)))
        if not all(map(lt, values, values[1:])):
            merged: dict[int, int] = {}
            for x, m in zip(values, masses):
                merged[x] = merged.get(x, 0) + m
            values = sorted(merged)
            masses = [merged[x] for x in values]
        if values[0] < 0:
            raise PreconditionError(
                f"atom value {_shown(Fraction(values[0], scale))} is negative")
        total = sum(masses)
        if total != den:
            raise PreconditionError(
                f"masses sum to {_shown(Fraction(total, den))}, expected exactly 1")
        # the lcm of the reduced denominators is the common one over the gcd
        g = math.gcd(scale, *values)
        if g > 1:
            scale //= g
            values = [x // g for x in values]
        g = math.gcd(den, *masses)
        if g > 1:
            den //= g
            masses = [m // g for m in masses]
        return cls(scale, tuple(values), den, tuple(masses))


class Frozen:
    """A value type: frozen, and equal, hashed and shown by its ``_fields``.

    Assignment and deletion are refused, like a frozen record.  Constructors
    set their fields with ``object.__setattr__``; `cached_property` writes to
    the instance ``__dict__`` and is unaffected.  An instance equals only an
    instance of its own class with equal fields, and hashes as the tuple of
    its fields.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    __repr__ = _fields_repr

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


_numerator, _denominator = attrgetter("numerator"), attrgetter("denominator")


def _columns(atoms) -> tuple[tuple[int, ...], ...]:
    """``(value, mass)`` Fraction pairs as the four columns of `IntegerForm.of`."""
    vals, masses = zip(*atoms) if atoms else ((), ())
    return (tuple(map(_numerator, vals)), tuple(map(_denominator, vals)),
            tuple(map(_numerator, masses)), tuple(map(_denominator, masses)))


class FiniteDistribution(Frozen):
    """A finite discrete distribution on the non-negative rationals.

    ``form`` is the one stored representation, an `IntegerForm`; it is
    unique per distribution, so equality and hashing go by it.  ``atoms``
    is the canonical view built from it on first access: strictly
    increasing values, every mass positive, masses summing to exactly 1.
    Mass at value 0 is legal and common.  There is no public constructor:
    `from_pairs`, `from_ratios` and `point_mass` build one, each through
    `IntegerForm.of`, which merges, sorts and validates.
    """

    form: IntegerForm
    _fields = ("form",)

    @classmethod
    def _of_form(cls, form: IntegerForm) -> "FiniteDistribution":
        self = object.__new__(cls)
        object.__setattr__(self, "form", form)
        return self

    @classmethod
    def from_pairs(cls, pairs: Iterable) -> "FiniteDistribution":
        """Build from (value, mass) pairs; merges equal values, drops zero masses.

        Zero-mass atoms are excluded from the canonical form so that each
        distribution has exactly one representation; negative masses are an
        error.  The total mass must still be exactly 1.
        """
        return cls._of_form(IntegerForm.of(
            *_columns([(as_rational(v), as_rational(m)) for v, m in pairs])))

    @classmethod
    def from_ratios(cls, vnums: Sequence[int], vdens: Sequence[int],
                    mnums: Sequence[int], mdens: Sequence[int]) -> "FiniteDistribution":
        """`from_pairs` on integer columns: value ``vnums[k] / vdens[k]`` has mass
        ``mnums[k] / mdens[k]``.

        Denominators must be positive.  This is how the file parser builds
        members without making a `Fraction` per token.
        """
        return cls._of_form(IntegerForm.of(vnums, vdens, mnums, mdens))

    @classmethod
    def point_mass(cls, value) -> "FiniteDistribution":
        x = as_rational(value)
        return cls.from_ratios((x.numerator,), (x.denominator,), (1,), (1,))

    @cached_property
    def atoms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple(zip(self.values, self.masses))

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        f = self.form
        return tuple(map(Fraction, f.values, repeat(f.scale)))

    @cached_property
    def masses(self) -> tuple[Fraction, ...]:
        f = self.form
        return tuple(map(Fraction, f.masses, repeat(f.den)))

    @cached_property
    def _cum(self) -> tuple[Fraction, ...]:
        den = self.form.den
        return tuple(Fraction(c, den) for c in accumulate(self.form.masses))

    @property
    def support_max(self) -> Fraction:
        f = self.form
        return Fraction(f.values[-1], f.scale)

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

    def expected_value(self) -> Fraction:
        """The mean, exactly."""
        f = self.form
        return Fraction(sum(map(mul, f.values, f.masses)), f.scale * f.den)

    def copy_weights(self, n: int) -> Iterator[int]:
        """Each atom's share of the n-copy max, F(v)**n - F(v-)**n, times den**n.

        An iterator over the atoms in value order.  The shared denominator
        ``form.den**n`` cancels in every ratio the transforms take, so the
        weights stay integers.
        """
        return jump_weights(accumulate(self.form.masses), _check_count(n))

    def similar_max_mean(self, n: int) -> Fraction:
        """Expected maximum of n independent copies, exactly.

        The jump sum of F**n over the distribution's own atoms, one division;
        equals ``Assembly.of_copies(self, n).expected_max()``.
        """
        f = self.form
        return Fraction(sum(map(mul, f.values, self.copy_weights(n))), f.scale * f.den**n)

    def __repr__(self):
        inner = ", ".join(f"{fraction_str(v)}:{fraction_str(m)}" for v, m in self.atoms)
        return f"FiniteDistribution({{{inner}}})"


class SurvivalStep(Frozen):
    """A piecewise-constant right-continuous CDF on [0, inf).

    The CDF equals ``plateaus[i]`` on ``[breakpoints[i], breakpoints[i+1])``,
    0 to the left of the first breakpoint, and the final plateau (which must
    be 1) from the last breakpoint on.
    """

    breakpoints: tuple[Fraction, ...]
    plateaus: tuple[Fraction, ...]
    _fields = ("breakpoints", "plateaus")

    def __init__(self, breakpoints: Iterable[Fraction], plateaus: Iterable[Fraction]):
        breakpoints, plateaus = tuple(breakpoints), tuple(plateaus)
        if len(breakpoints) != len(plateaus) or not breakpoints:
            raise PreconditionError("breakpoints and plateaus must align and be non-empty")
        if breakpoints[0] < 0:
            raise PreconditionError("breakpoints must be non-negative")
        if any(b >= c for b, c in zip(breakpoints, breakpoints[1:])):
            raise PreconditionError("breakpoints must be strictly increasing")
        prev = _ZERO
        for p in plateaus:
            if p < prev or p > 1:
                raise PreconditionError("plateaus must be non-decreasing within [0, 1]")
            prev = p
        if plateaus[-1] != 1:
            raise PreconditionError("final plateau must equal 1")
        object.__setattr__(self, "breakpoints", breakpoints)
        object.__setattr__(self, "plateaus", plateaus)

    def value_at(self, x: Fraction) -> Fraction:
        i = bisect.bisect_right(self.breakpoints, x)
        return self.plateaus[i - 1] if i else _ZERO

    @classmethod
    def product_of(cls, steps: Iterable["SurvivalStep"]) -> "SurvivalStep":
        """Pointwise product (the CDF of the maximum of independents)."""
        steps = list(steps)
        if not steps:
            raise PreconditionError("product of zero step functions is undefined")
        merged = sorted({b for s in steps for b in s.breakpoints})
        check_cap(len(merged), "merged breakpoint count")
        plateaus = []
        for x in merged:
            p = _ONE
            for s in steps:
                p *= s.value_at(x)
                if p == 0:
                    break
            plateaus.append(p)
        return cls(tuple(merged), tuple(plateaus))


class CdfTable(Frozen):
    """The CDFs of the members' maximum and of their mixture over the merged support.

    ``xs`` is the merged support in increasing order, each point an integer
    over the common value ``scale``.  Each row is a pair ``(nums, den)``:
    ``product`` gives prod_i F_i(xs[k]) as ``nums[k]`` over the product of
    the members' mass denominators, and ``mixture`` gives mean_i F_i(xs[k])
    over n times their lcm.  Between merged points both CDFs are constant,
    so `mean` reads every expectation from a row as jump sums, one division.
    """

    scale: int
    xs: tuple[int, ...]
    product: tuple[tuple[int, ...], int]
    mixture: tuple[tuple[int, ...], int]
    _fields = ("scale", "xs", "product", "mixture")

    def __init__(self, scale: int, xs: tuple[int, ...],
                 product: tuple[tuple[int, ...], int], mixture: tuple[tuple[int, ...], int]):
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "product", product)
        object.__setattr__(self, "mixture", mixture)

    @classmethod
    def of(cls, members: Iterable[FiniteDistribution]) -> "CdfTable":
        """Both rows in one sweep over the members' jumps, in integers.

        The jumps are one list of ``(point, member, mass, mixture mass)``
        sorted by point; each member's run is already in order, so the sort
        merges them.
        """
        forms = [d.form for d in members]
        scale = math.lcm(*(f.scale for f in forms))
        common = math.lcm(*(f.den for f in forms))
        jumps = []
        for i, f in enumerate(forms):
            r, w = scale // f.scale, common // f.den
            jumps += [(x * r, i, m, w * m) for x, m in zip(f.values, f.masses)]
        jumps.sort()
        # a jump closes its point when the next one lies further right
        points = [j[0] for j in jumps]
        closes = [*map(lt, points, points[1:]), True]
        check_cap(sum(closes), "merged support size")
        # the product of the non-zero member CDFs, and how many are still 0
        cdfs = [0] * len(forms)
        p, zeros, mix = 1, len(forms), 0
        xs, prod_nums, mix_nums = [], [], []
        for (x, i, m, wm), close in zip(jumps, closes):
            old = cdfs[i]
            new = cdfs[i] = old + m
            mix += wm
            if old:
                p = p // old * new
            else:
                p *= new
                zeros -= 1
            if close:
                xs.append(x)
                prod_nums.append(0 if zeros else p)
                mix_nums.append(mix)
        return cls(scale, tuple(xs),
                   (tuple(prod_nums), math.prod(f.den for f in forms)),
                   (tuple(mix_nums), len(forms) * common))

    def mean(self, row: tuple[tuple[int, ...], int], n: int = 1) -> Fraction:
        """E of the maximum of n copies of the row's CDF: a jump sum, one division.

        ``row`` is ``(nums, den)`` and must reach ``den`` at the last point.
        """
        nums, den = row
        return Fraction(sum(map(mul, self.xs, jump_weights(nums, n))), self.scale * den**n)


class Assembly(Frozen):
    """An ordered family of n independent members (n >= 1).

    The member count doubles as the copy count for every per-member
    similar-assembly mean, so the same n appears in ``expected_max`` and in
    ``member.similar_max_mean(a.n)``.
    """

    members: tuple[FiniteDistribution, ...]
    _fields = ("members",)

    def __init__(self, members: Iterable[FiniteDistribution]):
        members = tuple(members)
        if not members:
            raise PreconditionError("an assembly needs at least one member")
        for d in members:
            if not isinstance(d, FiniteDistribution):
                raise TypeError(f"assembly members must be FiniteDistribution, got {d!r}")
        object.__setattr__(self, "members", members)

    @classmethod
    def of_copies(cls, d: FiniteDistribution, n: int) -> "Assembly":
        return cls((d,) * _check_count(n))

    @property
    def n(self) -> int:
        return len(self.members)

    @cached_property
    def table(self) -> CdfTable:
        return CdfTable.of(self.members)

    @property
    def support_max(self) -> Fraction:
        return max(d.support_max for d in self.members)

    def expected_max(self) -> Fraction:
        """E of the maximum of the members, exactly: the product row's jump sum."""
        t = self.table
        return t.mean(t.product)

    def max_distribution(self) -> FiniteDistribution:
        """The distribution of the maximum of the members: the product row's jumps."""
        t = self.table
        nums, den = t.product
        k = len(t.xs)
        return FiniteDistribution.from_ratios(
            t.xs, [t.scale] * k, list(jump_weights(nums, 1)), [den] * k)

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


def discretize(cdf: CdfEvaluator, m: int) -> FiniteDistribution:
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
    _check_count(m, "grid level m")
    if m >= DEFAULT_ATOM_CAP.bit_length():  # 2**m alone exceeds the cap
        raise ResourceCapExceeded(
            f"grid level m = {_shown(m)} needs m * 2**m + 1 atoms, "
            f"over the cap {DEFAULT_ATOM_CAP}")
    cells = m * 2**m
    check_cap(cells + 1, "discretization atom count")
    at_zero = cdf(_ZERO, "left")
    if at_zero != 0:
        raise PreconditionError(
            f"evaluator has mass {_shown(at_zero)} below 0; not a distribution on [0, inf)"
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
