"""Command line surface and the flat-file assembly format.

Assembly files are UTF-8 text, one key per line, '#' starting a comment:

    name: light-poles          # optional
    bound: 1                   # optional common upper bound
    n: 2
    member: 0:1/2 1:1/2
    member: 0:1/4 1:3/4

Values and masses are exact rationals written as "3/7", "5" or "0.125"
(decimal strings convert exactly).  Integers and "a/b" tokens may have any
number of digits; other forms are limited to the interpreter's integer
string limit (4300 digits by default).  Rational option values follow the
same rules, and so do integer option values, which must be whole.
Rendering is canonical, so parse(render(doc)) == doc for every valid
document.

Exit codes: 0 all checks pass, 1 usage or parse error, 2 precondition
violation or size cap (including skipped sweep points), 3 internal
invariant breach.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from fractions import Fraction
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

from . import bounds, extremal, oracle, transforms
from .dist import (
    Assembly,
    FiniteDistribution,
    _ratio,
    _ratios,
    _shown,
    as_rational,
    check_cap,
    clip,
    fraction_str,
)
from .enclosure import DEFAULT_TOL, Enclosure
from .errors import (
    AssemblyParseError,
    InvariantViolation,
    PreconditionError,
    ResourceCapExceeded,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_INVARIANT = 3


# ---------------------------------------------------------------------------
# assembly files


class AssemblyDocument(NamedTuple):
    assembly: Assembly
    name: str | None = None
    bound: Fraction | None = None


#: significant digits of the decimal column next to each exact value
_SIG_DIGITS = 15


def decimal_str(x) -> str:
    """x to 15 significant digits, as ``'%.15g'`` prints it.

    Values outside the range of normal floats are rounded exactly on the
    rational instead, half to even, rather than overflowing or flushing to 0.
    """
    try:
        f = float(x)
    except OverflowError:
        pass
    else:
        if abs(f) >= sys.float_info.min or x == 0:
            return f"{f:.{_SIG_DIGITS}g}"
    x = as_rational(x)
    sign = "-" if x < 0 else ""
    x = abs(x)
    exp = math.floor(math.log10(x.numerator) - math.log10(x.denominator))
    while Fraction(10) ** exp > x:
        exp -= 1
    while Fraction(10) ** (exp + 1) <= x:
        exp += 1
    digits = round(x / Fraction(10) ** (exp - _SIG_DIGITS + 1))
    if digits == 10**_SIG_DIGITS:
        digits //= 10
        exp += 1
    head, tail = divmod(digits, 10 ** (_SIG_DIGITS - 1))
    tail = str(tail).zfill(_SIG_DIGITS - 1).rstrip("0")
    mantissa = f"{head}.{tail}" if tail else str(head)
    return f"{sign}{mantissa}e{'+' if exp >= 0 else '-'}{abs(exp):02d}"


def parse_assembly_text(text: str) -> AssemblyDocument:
    name: str | None = None
    bound: Fraction | None = None
    declared_n: int | None = None
    members: list[FiniteDistribution] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        if not sep:
            raise AssemblyParseError(f"expected 'key: value', got {clip(raw)!r}", lineno)
        key = key.strip()
        rest = rest.strip()
        if key == "name":
            name = rest
        elif key == "bound":
            try:
                bound = as_rational(rest)
            except ValueError as exc:
                raise AssemblyParseError(str(exc), lineno) from None
        elif key == "n":
            try:
                declared_n = int(rest)
            except ValueError:
                raise AssemblyParseError(f"bad member count {clip(rest)!r}", lineno) from None
        elif key == "member":
            toks = rest.split()
            colons = list(map(str.count, toks, repeat(":")))
            # read up to the first token that is not value:mass, so that the
            # first fault in token order is the one reported
            j = len(toks)
            if colons.count(1) != j:
                j = next(k for k, c in enumerate(colons) if c != 1)
            try:
                nums, dens = _ratios(":".join(toks[:j]).split(":") if j else ())
            except ValueError as exc:
                raise AssemblyParseError(str(exc), lineno) from None
            if j < len(toks):
                raise AssemblyParseError(
                    f"member {len(members) + 1}: expected value:mass, "
                    f"got {clip(toks[j])!r}",
                    lineno,
                )
            try:
                members.append(FiniteDistribution.from_ratios(
                    nums[0::2], dens[0::2], nums[1::2], dens[1::2]))
            except PreconditionError as exc:
                raise AssemblyParseError(
                    f"member {len(members) + 1}: {exc}", lineno
                ) from None
        else:
            raise AssemblyParseError(f"unknown key {clip(key)!r}", lineno)

    if not members:
        raise AssemblyParseError("no members found")
    if declared_n is not None and declared_n != len(members):
        raise AssemblyParseError(
            f"declared n = {_shown(declared_n)} but found {len(members)} members"
        )
    doc = AssemblyDocument(Assembly(tuple(members)), name=name, bound=bound)
    if bound is not None and bound < doc.assembly.support_max:
        raise AssemblyParseError(
            f"bound {_shown(bound)} is below the largest support point "
            f"{_shown(doc.assembly.support_max)}"
        )
    return doc


def _read_text(path) -> str:
    """The text of a UTF-8 file; other bytes are a parse error naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise AssemblyParseError(f"{path} is not UTF-8 text: {exc}") from None


def parse_assembly_file(path) -> AssemblyDocument:
    return parse_assembly_text(_read_text(path))


def render_assembly(doc: AssemblyDocument) -> str:
    lines = []
    if doc.name is not None:
        lines.append(f"name: {doc.name}")
    if doc.bound is not None:
        lines.append(f"bound: {fraction_str(doc.bound)}")
    lines.append(f"n: {doc.assembly.n}")
    for d in doc.assembly.members:
        atoms = " ".join(f"{fraction_str(v)}:{fraction_str(m)}" for v, m in d.atoms)
        lines.append(f"member: {atoms}")
    return "\n".join(lines) + "\n"


def _write_assembly(doc: AssemblyDocument, out: str | None) -> None:
    text = render_assembly(doc)
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")
        print(f"wrote {out}")


# ---------------------------------------------------------------------------
# rendering helpers


def _show(label: str, x) -> None:
    if isinstance(x, Enclosure):
        print(f"{label} = {fraction_str(x.midpoint)} ({decimal_str(x.midpoint)})"
              f" +/- {decimal_str(x.radius)}")
    else:
        print(f"{label} = {fraction_str(x)} ({decimal_str(x)})")


def _check_line(label: str, ok: bool | None) -> None:
    if ok is not None:
        print(f"  {label:<24} {'ok' if ok else 'FAILED'}")


# ---------------------------------------------------------------------------
# commands


def cmd_verify(args) -> int:
    doc = parse_assembly_file(args.input)
    if args.samples is not None:  # refuse a bad Monte Carlo request before the chain
        oracle.check_mc_request(doc.assembly, args.samples, args.seed)
    b = args.bound if args.bound is not None else doc.bound
    report = bounds.full_report(doc.assembly, b=b, tol=args.tol)

    if doc.name:
        print(f"name: {doc.name}")
    print(f"n = {report.n}")
    for i, m in enumerate(report.m_list, start=1):
        _show(f"M_{i}", m)
    _show("M_bar", report.m_bar)
    _show("M_max", report.m_max)
    _show("mixture_E", report.mixture_e)
    _show("exact_E", report.exact_e)
    _show("upper", report.upper)
    if report.holder is not None:
        _show("holder_lower", report.holder)
    _show("theta", report.theta)
    _show("theta_sup", extremal.theta_sup(report.n))
    print("chain checks:")
    _check_line("M_bar <= mixture_E", report.chain.mean_le_mixture)
    _check_line("mixture_E <= exact_E", report.chain.mixture_le_exact)
    _check_line("exact_E <= upper", report.chain.exact_le_upper)
    _check_line("holder <= exact_E + tol", report.chain.holder_le_exact)
    _check_line("M_bar <= holder + tol", report.chain.mean_le_holder)

    if args.samples is not None:
        est = oracle.mc_expected_max(doc.assembly, args.samples, args.seed)
        diff = abs(est.mean - float(report.exact_e))
        print(f"mc: mean = {est.mean!r}, stderr = {est.stderr!r}, "
              f"samples = {est.samples}, seed = {est.seed}")
        print(f"  |mc - exact| = {diff!r} "
              f"({'<=' if diff <= 4 * est.stderr else '>'} 4*stderr)")

    if report.chain.all_ok:
        print("verdict: PASS")
        return EXIT_OK
    print("verdict: FAIL (implementation defect)")
    return EXIT_INVARIANT


def cmd_extremal(args) -> int:
    if (args.equal is None) == (args.m_list is None):
        raise _UsageError("give exactly one of --equal or --m-list")
    check_cap(args.n, "--n")
    if args.equal is not None:
        m_list = (args.equal,) * args.n
    else:
        m_list = args.m_list
        if len(m_list) != args.n:
            raise PreconditionError(
                f"--m-list has {len(m_list)} entries but --n is {args.n}"
            )
    spec = extremal.ExtremalSpec(m_list, args.epsilon, args.p_schedule)
    a = extremal.build(spec)

    report = bounds.full_report(a)
    _show("theta", report.theta)
    _show("theta_sup", extremal.theta_sup(a.n))
    _show("gap", report.upper - report.exact_e)
    name = f"extremal-n{a.n}"
    _write_assembly(AssemblyDocument(a, name=name), args.out)
    return EXIT_OK


def _companion_of(a: Assembly, member: int) -> FiniteDistribution:
    others = tuple(d for i, d in enumerate(a.members) if i != member)
    return Assembly(others).max_distribution()


def cmd_transform(args) -> int:
    doc = parse_assembly_file(args.input)
    a = doc.assembly

    if args.op == "down":
        outcome = transforms.down_project(a, args.lo, args.hi, tol=args.tol)
        result = outcome.result
        for i, res in enumerate(outcome.m_residual, start=1):
            _show(f"m_residual_{i}", res)
    else:
        if a.n < 2:
            raise PreconditionError("coalesce and reduce need a companion member")
        if not 0 <= args.member < a.n:
            raise PreconditionError(f"no member {_shown(args.member)} in a {a.n}-assembly")
        target = a.members[args.member]
        companion = _companion_of(a, args.member)
        if args.op == "coalesce":
            outcome = transforms.coalesce(target, args.lo, args.hi, companion, a.n)
        else:
            outcome = transforms.reduce_pair(target, args.lo, args.hi, companion, a.n)
        members = list(a.members)
        members[args.member] = outcome.result
        result = Assembly(tuple(members))
        _show("m_residual", outcome.m_residual)

    _show("e_delta", outcome.e_delta)
    print(f"direction: {outcome.direction}")
    _write_assembly(AssemblyDocument(result, name=doc.name, bound=doc.bound), args.out)
    return EXIT_OK


class SweepRow(NamedTuple):
    """One sweep point; the chain ordering must hold within every row."""

    parameter: Fraction
    m_bar: Fraction
    mixture_e: Fraction
    exact_e: Fraction
    upper: Fraction
    theta: Fraction
    gap: Fraction


def _sweep_points(args) -> list[Fraction]:
    if args.points is not None:
        return list(args.points)
    if args.start is None or args.stop is None or args.steps is None:
        raise _UsageError("give --points or all of --from/--to/--steps")
    check_cap(args.steps, "--steps")
    if args.steps == 1:
        return [args.start]
    step = (args.stop - args.start) / (args.steps - 1)
    return [args.start + j * step for j in range(args.steps)]


def _row_for(param: Fraction, a: Assembly) -> SweepRow:
    report = bounds.full_report(a)
    if not report.chain.all_ok:
        raise InvariantViolation(f"sweep row violates the chain at {_shown(param)}")
    return SweepRow(
        parameter=param, m_bar=report.m_bar, mixture_e=report.mixture_e,
        exact_e=report.exact_e, upper=report.upper, theta=report.theta,
        gap=report.upper - report.exact_e,
    )


def cmd_sweep(args) -> int:
    import csv  # only sweep writes CSV; other commands skip its import

    if (args.template is None) == (args.extremal_n is None):
        raise _UsageError("give exactly one of --template or --extremal-n")
    points = _sweep_points(args)

    build_for: dict[Fraction, Assembly] = {}
    skipped: list[tuple[Fraction, str]] = []
    if args.template is not None:
        text = _read_text(args.template)
        if "$p" not in text and "$q" not in text:
            raise PreconditionError(
                "template declares no swept parameter ($p or $q)"
            )
        for param in points:
            body = text.replace("$p", fraction_str(param))
            body = body.replace("$q", fraction_str(1 - param))
            try:
                build_for[param] = parse_assembly_text(body).assembly
            except (AssemblyParseError, PreconditionError) as exc:
                skipped.append((param, str(exc)))
    else:
        if args.equal is None:
            raise _UsageError("extremal sweeps need --equal")
        n = args.extremal_n
        check_cap(n, "--extremal-n")
        m_list = (args.equal,) * n
        for delta in points:
            try:
                spec = extremal.ExtremalSpec(m_list, Fraction(1),
                                             extremal._staggered(delta, n))
                build_for[delta] = extremal.build(spec)
            except PreconditionError as exc:
                skipped.append((delta, str(exc)))

    rows = [_row_for(param, a) for param, a in build_for.items()]
    rows.sort(key=lambda r: r.parameter)
    for param, reason in skipped:
        print(f"warning: skipping {_shown(param)}: {reason}", file=sys.stderr)

    header = []
    for field in SweepRow._fields:
        header.extend([field, field + "_dec"])
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            record = []
            for x in row:
                record.extend([fraction_str(x), decimal_str(x)])
            writer.writerow(record)
    print(f"wrote {args.out} ({len(rows)} rows, {len(skipped)} skipped)")
    return EXIT_PRECONDITION if skipped else EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads a token that starts with "-" as an option unless its
        # private ``_negative_number_matcher`` calls it a negative number, and
        # its own pattern knows only -1 and -1.5.  Widen it to every token
        # that starts like a number (-1/2, -1e-3), so that ``--bound -1/2``
        # reads as a value, as ``--bound=-1/2`` does.  Subparsers inherit it.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise _UsageError(message)


def _rational_arg(tok: str) -> Fraction:
    try:
        return as_rational(tok)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an exact rational: {clip(tok)!r}") from None


def _rational_list(text: str) -> tuple[Fraction, ...]:
    return tuple(_rational_arg(tok) for tok in text.split(","))


def _positive_rational(tok: str) -> Fraction:
    x = _rational_arg(tok)
    if x <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {clip(tok)!r}")
    return x


def _int_arg(least: int | None = None):
    """The type of an integer option: a whole rational token, at least ``least``.

    The value is read by the file-token rules, so it may have any number of
    digits; a refusal quotes at most 40 characters of it.
    """
    def read(tok: str) -> int:
        try:
            num, den = _ratio(tok)
        except ValueError:
            den = 0
        if not den or num % den:
            raise argparse.ArgumentTypeError(f"not an integer: {clip(tok)!r}")
        x = num // den
        if least is not None and x < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}: {clip(tok)!r}")
        return x
    return read


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="maxmix", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the full bound chain on an assembly file")
    p.add_argument("input")
    p.add_argument("--bound", type=_rational_arg, default=None,
                   help="common support upper bound (overrides the file)")
    p.add_argument("--tol", type=_positive_rational, default=DEFAULT_TOL)
    p.add_argument("--samples", type=_int_arg(2), default=None,
                   help="also run the Monte Carlo oracle with this many samples")
    p.add_argument("--seed", type=_int_arg(), default=0,
                   help="Monte Carlo seed, in [0, 2**64)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("extremal", help="build a near-extremal two-point assembly")
    p.add_argument("--n", type=_int_arg(1), required=True)
    p.add_argument("--equal", type=_positive_rational, default=None,
                   help="one shared target similar mean")
    p.add_argument("--m-list", type=_rational_list, default=None,
                   help="comma-separated ascending target similar means")
    p.add_argument("--epsilon", type=_positive_rational, required=True)
    p.add_argument("--p-schedule", type=_rational_list, default=None,
                   help="explicit comma-separated zero masses in (0,1)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("transform", help="apply a certified mass rearrangement")
    p.add_argument("input")
    p.add_argument("--op", choices=("coalesce", "reduce", "down"), required=True)
    p.add_argument("--member", type=_int_arg(0), default=0,
                   help="target member for coalesce/reduce (companion is the "
                        "max of the others)")
    p.add_argument("--lo", type=_rational_arg, required=True,
                   help="interval start (closed for coalesce/down, open for reduce)")
    p.add_argument("--hi", type=_rational_arg, required=True,
                   help="interval end (closed for coalesce/down, open for reduce)")
    p.add_argument("--tol", type=_positive_rational, default=DEFAULT_TOL)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("sweep", help="emit a CSV of the bound chain along a parameter")
    p.add_argument("--template", default=None,
                   help="assembly file with $p (and optionally $q = 1 - $p) tokens")
    p.add_argument("--extremal-n", type=_int_arg(1), default=None,
                   help="sweep the tightening delta of the equal-target extremal family")
    p.add_argument("--equal", type=_positive_rational, default=None)
    p.add_argument("--points", type=_rational_list, default=None,
                   help="comma-separated parameter values")
    p.add_argument("--from", dest="start", type=_rational_arg, default=None)
    p.add_argument("--to", dest="stop", type=_rational_arg, default=None)
    p.add_argument("--steps", type=_int_arg(1), default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, AssemblyParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PreconditionError, ResourceCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InvariantViolation as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
