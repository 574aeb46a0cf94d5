"""Seeded input generation for the benchmark.

Everything here is a pure function of ``random.Random(seed)``: the same seed
gives byte-identical assembly files.  The generator writes text only; it
never imports ``maxmix``, so the program under test sees nothing but the
generated files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

#: Values lie on a quarter grid in [0, 1000]; ``VALUE_QUARTERS`` is 4 * 1000.
VALUE_QUARTERS = 4000
#: Mass denominators of the ladder files: about 10**6, as in the size probes.
LADDER_DEN = (500_000, 1_000_000)
#: cli-stream keeps the brute-force oracle cheap: at most this many outcomes.
STREAM_OUTCOME_CAP = 4096


def fraction_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _composition(rng: random.Random, size: int, den: int) -> list[Fraction]:
    cuts = sorted(rng.sample(range(1, den), size - 1))
    return [Fraction(b - a, den) for a, b in zip([0] + cuts, cuts + [den])]


def ladder_member(rng: random.Random, atoms: int) -> list[tuple[Fraction, Fraction]]:
    values = sorted(Fraction(q, 4) for q in rng.sample(range(VALUE_QUARTERS + 1), atoms))
    masses = _composition(rng, atoms, rng.randint(*LADDER_DEN))
    return list(zip(values, masses))


def render(members, name: str, bound: Fraction | None = None) -> str:
    lines = [f"name: {name}"]
    if bound is not None:
        lines.append(f"bound: {fraction_str(bound)}")
    lines.append(f"n: {len(members)}")
    for pairs in members:
        lines.append("member: " + " ".join(
            f"{fraction_str(v)}:{fraction_str(m)}" for v, m in pairs))
    return "\n".join(lines) + "\n"


def ladder(rng: random.Random, n: int, atoms: int) -> list[list[tuple[Fraction, Fraction]]]:
    return [ladder_member(rng, atoms) for _ in range(n)]


@dataclass(frozen=True)
class StreamCase:
    """One cli-stream file plus the CLI arguments its session uses."""

    text: str
    members: list
    down: tuple[Fraction, Fraction]
    coalesce: tuple[int, Fraction, Fraction] | None
    reduce: tuple[int, Fraction, Fraction] | None


def _stream_member(rng: random.Random, atoms: int) -> list[tuple[Fraction, Fraction]]:
    # the value and mass laws of the property tests: a small grid of
    # fractions with a bias towards an atom at 0, denominators up to 64
    values: set[Fraction] = set()
    if rng.random() < 0.5:
        values.add(Fraction(0))
    while len(values) < atoms:
        values.add(Fraction(rng.randint(0, 24), rng.choice((1, 2, 3, 4))))
    den = rng.randint(max(atoms, 2), 64)
    return list(zip(sorted(values), _composition(rng, atoms, den)))


def _coalesce_args(members):
    """An interval of member 0's atoms that no other member has an atom inside.

    The companion (max of the others) then has no mass strictly inside it,
    which is the coalesce precondition.
    """
    values = [v for v, _ in members[0]]
    others = {v for pairs in members[1:] for v, _ in pairs}
    for i in range(len(values)):
        for j in range(len(values) - 1, i, -1):
            a, b = values[i], values[j]
            if not any(a < v < b for v in others):
                return 0, a, b
    return None


def _reduce_args(members):
    """An open interval holding exactly two atoms of member 0."""
    values = [v for v, _ in members[0]]
    for j in range(len(values) - 1):
        a = values[j]
        lo = values[j - 1] if j else Fraction(0)
        if lo >= a:
            continue
        hi = values[j + 2] if j + 2 < len(values) else values[j + 1] + 1
        return 0, lo, hi
    return None


def stream_case(rng: random.Random, index: int) -> StreamCase:
    n = rng.randint(2, 6)
    # at most 8 atoms per member, and at most STREAM_OUTCOME_CAP outcomes in
    # total so that the brute-force oracle stays a per-call cost
    per_member = min(8, int(round(STREAM_OUTCOME_CAP ** (1 / n))))
    while per_member ** n > STREAM_OUTCOME_CAP:
        per_member -= 1
    members = [_stream_member(rng, rng.randint(1, per_member)) for _ in range(n)]
    support_max = max(v for pairs in members for v, _ in pairs)
    while support_max == 0:
        members[0] = _stream_member(rng, max(2, len(members[0])))
        support_max = max(v for pairs in members for v, _ in pairs)
    bound = support_max + Fraction(rng.randint(0, 4), 4)
    # down-projection needs mass at or below hi in every member
    floor = max(pairs[0][0] for pairs in members)
    grid = sorted({v for pairs in members for v, _ in pairs})
    hi = max(rng.choice(grid), floor)
    if hi == 0:
        hi = support_max
    below = [v for v in grid if v < hi]
    lo = rng.choice(below) if below else Fraction(0)
    return StreamCase(
        text=render(members, f"stream-{index}", bound),
        members=members,
        down=(lo, hi),
        coalesce=_coalesce_args(members),
        reduce=_reduce_args(members),
    )
