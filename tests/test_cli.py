"""Tests for the command line surface and the assembly file format."""

import argparse
import contextlib
import io
import math
import random
import re
import subprocess
import sys
import tempfile
import time
import weakref
from datetime import timedelta
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from maxmix import FiniteDistribution, as_rational, bounds, cli, extremal, full_report
from maxmix.cli import (
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    AssemblyDocument,
    build_parser,
    decimal_str,
    fraction_str,
    main,
    parse_assembly_text,
    render_assembly,
)
from maxmix.dist import _shown, clip

from genutil import random_assembly

EXAMPLE = """\
# the two-point comparison pair
name: two-point-pair
bound: 1
n: 2
member: 0:1/2 1:1/2
member: 0:1/4 1:3/4
"""

FOUR_MEMBERS = "member: 0:1/2 1:1/2\nmember: 0:1/4 1:3/4\n" * 2


class TestFileFormat:
    def test_parse_example(self):
        doc = parse_assembly_text(EXAMPLE)
        assert doc.name == "two-point-pair"
        assert doc.bound == 1
        assert doc.assembly.n == 2
        assert doc.assembly.members[1] == FiniteDistribution.from_pairs(
            [(0, F(1, 4)), (1, F(3, 4))]
        )

    def test_roundtrip_is_exact(self):
        rng = random.Random(61)
        for _ in range(40):
            doc = AssemblyDocument(random_assembly(rng), name="case",
                                   bound=None)
            assert parse_assembly_text(render_assembly(doc)) == doc

    def test_roundtrip_keeps_bound(self):
        doc = parse_assembly_text(EXAMPLE)
        assert parse_assembly_text(render_assembly(doc)) == doc

    def test_decimal_masses_parse_exactly(self):
        doc = parse_assembly_text("n: 1\nmember: 0:0.125 2:0.875\n")
        assert doc.assembly.members[0].masses == (F(1, 8), F(7, 8))

    def test_bad_mass_total_names_the_member(self):
        text = "n: 2\nmember: 0:1/2 1:1/2\nmember: 0:1/2 1:2/5\n"
        with pytest.raises(Exception, match="member 2.*9/10"):
            parse_assembly_text(text)

    def test_mismatched_count(self):
        with pytest.raises(Exception, match="declared n = 3"):
            parse_assembly_text("n: 3\nmember: 0:1\n")

    def test_unknown_key_line_number(self):
        with pytest.raises(Exception, match="line 2"):
            parse_assembly_text("n: 1\nwat: 1\nmember: 0:1\n")


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text(EXAMPLE, encoding="utf-8")
    return path


class TestVerify:
    def test_passes_and_prints_the_mixture_bound(self, example_file, capsys):
        assert main(["verify", str(example_file)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "55/64" in out
        assert "verdict: PASS" in out

    def test_identical_members_report_theta_one(self, tmp_path, capsys):
        path = tmp_path / "same.txt"
        path.write_text("n: 2\nmember: 0:1/2 1:1/2\nmember: 0:1/2 1:1/2\n")
        assert main(["verify", str(path)]) == EXIT_OK
        assert "theta = 1 (1)" in capsys.readouterr().out

    def test_mc_flag(self, example_file, capsys):
        assert main(["verify", str(example_file), "--samples", "5000",
                     "--seed", "11"]) == EXIT_OK
        assert "mc: mean" in capsys.readouterr().out

    def test_malformed_file_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("n: 1\nmember: 0:9/10\n")
        assert main(["verify", str(path)]) == EXIT_USAGE
        assert "member 1" in capsys.readouterr().err

    def test_a_file_without_members_is_a_parse_error(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("name: nothing\n")
        assert _run_quietly(["verify", str(path)]) == (EXIT_USAGE, "error: no members found\n")

    def test_missing_file(self, capsys):
        assert main(["verify", "/nonexistent/nope.txt"]) == EXIT_USAGE

    def test_bound_below_support_is_a_precondition_error(self, tmp_path, capsys):
        path = tmp_path / "a.txt"
        path.write_text("n: 1\nmember: 0:1/2 3:1/2\n")
        assert main(["verify", str(path), "--bound", "2"]) == EXIT_PRECONDITION


def _primes_above(start: int, count: int) -> list[int]:
    found = []
    x = start
    while len(found) < count:
        x += 1
        if all(x % q for q in range(2, int(x**0.5) + 1)):
            found.append(x)
    return found


def _decimal_reference(x: F) -> str:
    """The decimal column's earlier off-float-range rounding, kept as a reference:
    the decimal exponent found by log10 and corrected, then 15 digits by
    ``round`` (half to even) on the exact rational, carrying into the exponent.
    """
    sign = "-" if x < 0 else ""
    x = abs(x)
    exp = math.floor(math.log10(x.numerator) - math.log10(x.denominator))
    while F(10) ** exp > x:
        exp -= 1
    while F(10) ** (exp + 1) <= x:
        exp += 1
    digits = round(x / F(10) ** (exp - 14))
    if digits == 10**15:
        digits //= 10
        exp += 1
    head, tail = divmod(digits, 10**14)
    tail = str(tail).zfill(14).rstrip("0")
    mantissa = f"{head}.{tail}" if tail else str(head)
    return f"{sign}{mantissa}e{'+' if exp >= 0 else '-'}{abs(exp):02d}"


def _off_float_range(rng: random.Random) -> F:
    """A rational that overflows a float or falls below the normal floats."""
    kind = rng.randrange(5)
    e = rng.randint(309, 999) if rng.random() < 0.8 else rng.randint(1000, 2999)
    if kind == 0:  # up to 36 digits over up to 36 digits
        x = F(rng.getrandbits(rng.randint(1, 120)) + 1, rng.getrandbits(rng.randint(1, 120)) + 1)
        x *= F(10) ** rng.choice((e + 40, -e - 40))
    elif kind == 1:  # half-way between two 15-digit neighbours
        x = F(rng.randrange(10**14, 10**15) * 10 + 5) * F(10) ** rng.choice((e, -e - 30))
    elif kind == 2:  # rounds up to the next power of ten
        x = F(10**16 - rng.randint(1, 5)) * F(10) ** rng.choice((e, -e - 30))
    elif kind == 3:  # subnormal floats, and values below them
        x = F(rng.randint(1, 2**52), 2**1074) / rng.choice((1, 10**rng.randint(1, 40)))
    else:  # just past the largest float
        x = F(2**1024) * rng.randint(1, 10**6) + F(rng.getrandbits(64) + 1, rng.getrandbits(8) + 1)
    return -x if rng.random() < 0.5 else x


def _long_off_float_range(rng: random.Random) -> F:
    """A rational with a 5 000- to 50 000-digit operand, about a third of them
    exact 15-digit ties."""
    digits = int(5000 * 10 ** rng.random())
    bits = int(digits / math.log10(2))
    kind = rng.randrange(6)
    if kind == 0:  # huge over up to 36 digits
        x = F(rng.getrandbits(bits) | 1 << bits - 1, rng.getrandbits(120) + 1)
    elif kind == 1:  # up to 36 digits over huge
        x = F(rng.getrandbits(120) + 1, rng.getrandbits(bits) | 1 << bits - 1)
    elif kind == 2:  # both huge, the quotient past float range either way
        other = bits + rng.choice((-1, 1)) * rng.randint(1100, 4000)
        x = F(rng.getrandbits(bits) | 1 << bits - 1, rng.getrandbits(other) | 1 << other - 1)
    elif kind == 3:  # exact ties between two 15-digit neighbours, both ways
        tie = rng.randrange(10**14, 10**15) * 10 + 5
        x = F(tie * 10**digits) if rng.random() < 0.5 else F(tie, 10**digits)
    elif kind == 4:  # a tie over an odd factor of both operands
        k = rng.randrange(3, 10**6, 2)
        x = F(k * (rng.randrange(10**14, 10**15) * 10 + 5) * 10**digits, k)
    else:  # rounds up to the next power of ten
        x = F(10**16 - rng.randint(1, 5)) * F(10) ** rng.choice((digits, -digits))
    return -x if rng.random() < 0.5 else x


class TestLongAndHugeValues:
    def test_exact_values_beyond_the_digit_limit(self, tmp_path, capsys):
        # 30 coprime mass denominators of 7 digits: the mixture bound's
        # denominator is about (30 * prod p)**30, some 5000 digits
        path = tmp_path / "long.txt"
        path.write_text("".join(f"member: 0:1/{p} 1:{p - 1}/{p}\n"
                                for p in _primes_above(10**6, 30)))
        limit = sys.get_int_max_str_digits()
        assert main(["verify", str(path)]) == EXIT_OK
        assert sys.get_int_max_str_digits() == limit
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("mixture_E = "))
        token = line.split()[2]
        assert len(token) > 4300
        num, den = token.split("/")
        try:
            sys.set_int_max_str_digits(0)
            assert F(int(num), int(den)) == F(token)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_fraction_str_splits_long_integers(self):
        k = 7**9000 + 10**5000
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            want = str(k)
        finally:
            sys.set_int_max_str_digits(limit)
        assert fraction_str(F(k)) == want
        assert fraction_str(F(-k, 3)) == f"-{want}/3"
        assert fraction_str(F(10**9000)) == "1" + "0" * 9000

    def test_decimal_str_keeps_the_float_path_in_range(self):
        rng = random.Random(5)
        for _ in range(200):
            x = F(rng.randint(-10**20, 10**20), rng.randint(1, 10**20))
            x *= F(10) ** rng.randint(-300, 290)
            assert decimal_str(x) == f"{float(x):.15g}"
        assert decimal_str(F(0)) == "0"

    def test_decimal_str_rounds_outside_float_range(self):
        assert decimal_str(F(10) ** 400) == "1e+400"
        assert decimal_str(-F(2) ** 1100) == "-1.35829852904939e+331"
        assert decimal_str(F(1, 3 * 10**400)) == "3.33333333333333e-401"
        # exact ties round half to even
        assert decimal_str(F(1234567890123425, 10**14) * F(10) ** 400) == "1.23456789012342e+401"
        assert decimal_str(F(999999999999999500, 10**17) * F(10) ** 400) == "1e+401"

    def test_decimal_str_off_float_range_agrees_with_the_reference(self):
        rng = random.Random(22)
        for _ in range(30_000):
            x = _off_float_range(rng)
            assert abs(x) >= 2**1024 or abs(x) < F(sys.float_info.min), x
            assert decimal_str(x) == _decimal_reference(x), x
        rng = random.Random(23)
        for _ in range(150):
            x = _long_off_float_range(rng)
            assert decimal_str(x) == _decimal_reference(x), _shown(x)

    def test_decimal_str_of_a_long_value_is_cheap(self):
        rng = random.Random(24)
        bits = int(300_000 / math.log10(2))
        for x in (F(rng.getrandbits(bits) | 1 << bits - 1, 7),
                  F(-3, rng.getrandbits(bits) | 1 << bits - 1),
                  F(1234567890123425 * 10**300_000)):  # an exact 15-digit tie
            t0 = time.perf_counter()
            decimal_str(x)
            assert time.perf_counter() - t0 < 0.1

    def test_verify_beyond_float_range(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text("member: 0:1/2 1e400:1/2\nmember: 0:1/3 1:2/3\n")
        assert main(["verify", str(path)]) == EXIT_OK
        assert "exact_E = " in capsys.readouterr().out
        assert main(["verify", str(path), "--samples", "100"]) == EXIT_PRECONDITION
        out, err = capsys.readouterr()  # refused before the report is printed
        assert out == "" and "float range" in err and len(err) <= 200

    def test_mc_refuses_squares_beyond_float_range(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        path.write_text("member: 0:1/2 1e200:1/2\nmember: 0:1/3 1:2/3\n")
        assert main(["verify", str(path), "--samples", "1000"]) == EXIT_PRECONDITION
        out, err = capsys.readouterr()
        assert out == "" and "float range" in err and len(err) <= 200
        path.write_text("member: 0:1/2 1e150:1/2\nmember: 0:1/3 1:2/3\n")
        assert main(["verify", str(path), "--samples", "1000"]) == EXIT_OK
        out = capsys.readouterr().out
        stderr = float(out.split("stderr = ")[1].split(",")[0])
        assert 0 < stderr < float("inf")
        assert "(<= 4*stderr)" in out

    def test_tokens_beyond_the_digit_limit(self, tmp_path, capsys):
        value = "7" * 5000
        path = tmp_path / "long.txt"
        path.write_text(f"member: 0:1/2 {value}:1/2\nmember: 0:1/3 1:2/3\n")
        assert main(["verify", str(path)]) == EXIT_OK
        doc = parse_assembly_text(path.read_text())
        assert doc.assembly.support_max == 7 * (10**5000 - 1) // 9
        assert parse_assembly_text(render_assembly(doc)) == doc
        assert f"{value}:1/2" in render_assembly(doc)

    def test_long_bad_token_is_clipped_in_the_message(self, tmp_path, capsys):
        path = tmp_path / "long.txt"
        for token in ("7" * 5000 + ".5", "-" + "7" * 5000):
            path.write_text(f"member: 0:1/2 {token}:1/2\n")
            assert main(["verify", str(path)]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert f"bad rational '{token[:10]}" in err and f"({len(token)} chars)" in err
            assert len(err) < 300
            assert all(len(line) <= 200 for line in err.splitlines()), err

    def test_seed_outside_64_bits_is_a_precondition_error(self, example_file, capsys):
        for seed in ("-1", str(2**64)):
            assert main(["verify", str(example_file), "--samples", "100",
                         "--seed", seed]) == EXIT_PRECONDITION
            out, err = capsys.readouterr()
            assert out == "" and "seed" in err


class TestExtremal:
    def test_two_member_build(self, tmp_path, capsys):
        out = tmp_path / "ext.txt"
        code = main(["extremal", "--n", "2", "--equal", "1",
                     "--epsilon", "1/1000", "--out", str(out)])
        assert code == EXIT_OK
        doc = parse_assembly_text(out.read_text())
        assert doc.assembly.n == 2
        theta = doc.assembly.expected_max() / max(doc.assembly.similar_means())
        assert theta >= F(3, 2) - F(1, 1000)

    def test_epsilon_must_be_positive(self, capsys):
        assert main(["extremal", "--n", "2", "--equal", "1",
                     "--epsilon", "0"]) == EXIT_USAGE

    def test_requires_a_target(self, capsys):
        assert main(["extremal", "--n", "2", "--epsilon", "1/10"]) == EXIT_USAGE

    def test_a_schedule_needs_no_epsilon(self, tmp_path, capsys):
        out = tmp_path / "ext.txt"
        assert main(["extremal", "--n", "3", "--equal", "1", "--p-schedule", "1/2,3/4",
                     "--out", str(out)]) == EXIT_OK
        assert parse_assembly_text(out.read_text()).assembly.similar_means() == (F(1),) * 3

    @pytest.mark.parametrize("closeness", [[], ["--epsilon", "123456", "--p-schedule", "1/2,3/4"]])
    def test_takes_exactly_one_of_epsilon_or_schedule(self, closeness):
        code, err = _run_quietly(["extremal", "--n", "3", "--equal", "1", *closeness])
        assert code == EXIT_USAGE
        assert err == ("error: argument --p-schedule: not allowed with argument --epsilon\n"
                       if closeness else
                       "error: one of the arguments --epsilon --p-schedule is required\n")

    def test_an_epsilon_beyond_the_tightening_rounds_exits_2(self):
        code, err = _run_quietly(["extremal", "--n", "2", "--equal", "1", "--epsilon", "1e-100"])
        assert code == EXIT_PRECONDITION
        assert err.endswith(" not reached within 60 tightening rounds\n") and len(err) <= 200

    def test_a_chain_breach_exits_3_and_writes_nothing(self, tmp_path, monkeypatch):
        lower = bounds.mixture_lower
        monkeypatch.setattr(bounds, "mixture_lower", lambda a: lower(a) + 10**6)
        out = tmp_path / "ext.txt"
        code, err = _run_quietly(["extremal", "--n", "2", "--equal", "1",
                                  "--epsilon", "1/10", "--out", str(out)])
        assert code == EXIT_INVARIANT
        assert "violates the chain" in err
        assert not out.exists()


class TestTransform:
    def test_down_projection_to_two_point(self, tmp_path, capsys):
        path = tmp_path / "a.txt"
        path.write_text("n: 2\nmember: 0:1/4 1/2:1/4 1:1/2\nmember: 0:1/2 1:1/2\n")
        out = tmp_path / "b.txt"
        code = main(["transform", str(path), "--op", "down",
                     "--lo", "0", "--hi", "1", "--out", str(out)])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "direction:" in printed and "m_residual" in printed
        doc = parse_assembly_text(out.read_text())
        for m in doc.assembly.members:
            assert set(m.values) <= {F(0), F(1)}

    def test_coalesce_identity(self, tmp_path, capsys):
        path = tmp_path / "a.txt"
        path.write_text("n: 2\nmember: 0:1/2 1:1/2\nmember: 2:1\n")
        code = main(["transform", str(path), "--op", "coalesce",
                     "--member", "0", "--lo", "1/2", "--hi", "3/2"])
        assert code == EXIT_OK
        assert "e_delta = 0" in capsys.readouterr().out

    def test_reduce_rejects_three_interior_atoms(self, tmp_path, capsys):
        path = tmp_path / "a.txt"
        path.write_text(
            "n: 2\nmember: 1/4:1/3 1/2:1/3 3/4:1/3\nmember: 2:1\n"
        )
        code = main(["transform", str(path), "--op", "reduce",
                     "--lo", "0", "--hi", "1"])
        assert code == EXIT_PRECONDITION
        assert "exactly two" in capsys.readouterr().err

    @pytest.mark.parametrize("op", ["coalesce", "reduce"])
    def test_one_member_has_no_companion(self, tmp_path, op):
        path = tmp_path / "one.txt"
        path.write_text("member: 0:1/2 1:1/2\n")
        code, err = _run_quietly(["transform", str(path), "--op", op, "--lo", "0", "--hi", "1"])
        assert code == EXIT_PRECONDITION
        assert err == "error: coalesce and reduce need a companion member\n"

    # transform writes the input's bound line unchanged, and a transform can
    # move mass above it, so the file it writes can be refused on reading
    @pytest.mark.xfail(strict=True, reason="a written value can exceed the file's bound")
    @pytest.mark.parametrize("text, argv", [
        ("bound: 1\nmember: 1/2:1/2 9/10:1/2\nmember: 0:1/10 3/4:9/10\n",
         ["--op", "reduce", "--member", "0", "--lo", "0", "--hi", "1"]),
        (EXAMPLE, ["--op", "down", "--lo", "0", "--hi", "5"]),
    ], ids=["reduce", "down"])
    def test_a_written_file_reads_back(self, tmp_path, text, argv):
        path, out = tmp_path / "in.txt", tmp_path / "out.txt"
        path.write_text(text)
        assert _run_quietly(["transform", str(path), *argv, "--out", str(out)])[0] == EXIT_OK
        assert _run_quietly(["verify", str(out)]) == (EXIT_OK, "")


class TestSweep:
    def test_symmetric_pair_sweep(self, tmp_path, capsys):
        tmpl = tmp_path / "tmpl.txt"
        tmpl.write_text("n: 2\nmember: 0:$p 1:$q\nmember: 0:$p 1:$q\n")
        out = tmp_path / "rows.csv"
        code = main(["sweep", "--template", str(tmpl),
                     "--points", "0,1/4,1/2,3/4", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("parameter,parameter_dec,m_bar")
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 4
        assert all(r[10] == "1" for r in rows)  # theta column, members identical

    def test_rows_are_sorted_and_chain_holds(self, tmp_path):
        tmpl = tmp_path / "tmpl.txt"
        tmpl.write_text("n: 2\nmember: 0:$p 1:$q\nmember: 0:1/2 2:1/2\n")
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--template", str(tmpl),
                     "--points", "3/4,1/4,1/2", "--out", str(out)]) == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        params = [as_rational(r[0]) for r in rows]
        assert params == sorted(params)
        for r in rows:
            m_bar, mixture_e, exact_e, upper = (as_rational(r[i]) for i in (2, 4, 6, 8))
            assert m_bar <= mixture_e <= exact_e <= upper

    def test_invalid_points_are_skipped_with_status(self, tmp_path, capsys):
        tmpl = tmp_path / "tmpl.txt"
        tmpl.write_text("n: 2\nmember: 0:$p 1:$q\nmember: 0:1/2 1:1/2\n")
        out = tmp_path / "rows.csv"
        for source, points, skipped in [
            (["--template", str(tmpl)], "1/2,3/2", "3/2"),
            # a duplicated point is one row, and a duplicated refusal one skip
            (["--template", str(tmpl)], "1/2,3/2,1/2,3/2", "3/2"),
            # a size-cap refusal skips its point, as a precondition refusal does
            (["--extremal-n", "40", "--equal", "1"], "1/2,1/1" + "0" * 200,
             "1/1" + "0" * 37 + "...(203 chars)"),
        ]:
            code = main(["sweep", *source, "--points", points, "--out", str(out)])
            assert code == EXIT_PRECONDITION
            captured = capsys.readouterr()
            assert captured.err.count("warning: skipping") == 1
            assert f"warning: skipping {skipped}: " in captured.err
            assert "(1 rows, 1 skipped)" in captured.out
            assert len(out.read_text().splitlines()) == 2  # header + one row

    @pytest.mark.parametrize("source", [["--template", "{tmpl}"],
                                        ["--extremal-n", "3", "--equal", "1"]],
                             ids=["template", "extremal"])
    def test_each_row_is_made_before_the_next_point_is_built(self, tmp_path, monkeypatch,
                                                             source):
        """One pass: a point's assembly is gone once its row is made."""
        tmpl = tmp_path / "tmpl.txt"
        tmpl.write_text("n: 2\nmember: 0:$p 1:$q\nmember: 0:1/2 1:1/2\n")
        events, built = [], []
        row_for = cli._row_for

        def spy(label, fn):
            def wrapped(*args):
                events.append(label)
                return fn(*args)
            return wrapped

        def checked_row_for(param, a):
            assert all(ref() is None for ref in built)  # no earlier point is alive
            built.append(weakref.ref(a))
            return row_for(param, a)

        monkeypatch.setattr(cli, "_row_for", spy("row", checked_row_for))
        monkeypatch.setattr(cli, "parse_assembly_text", spy("build", cli.parse_assembly_text))
        monkeypatch.setattr(extremal, "realize", spy("build", extremal.realize))
        out = tmp_path / "rows.csv"
        assert main(["sweep", *(a.format(tmpl=tmpl) for a in source),
                     "--points", "1/10,1/4,1/3,1/2", "--out", str(out)]) == EXIT_OK
        assert events == ["build", "row"] * 4
        assert [ref() for ref in built] == [None] * 4

    def test_extremal_delta_sweep_gap_decreases(self, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--extremal-n", "2", "--equal", "1",
                     "--points", "1/10,1/100,1/1000", "--out", str(out)]) == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        gaps = [as_rational(r[12]) for r in rows]  # ascending delta order
        assert gaps[0] < gaps[1] < gaps[2]

    def test_extremal_rows_follow_the_builder_stagger(self, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--extremal-n", "3", "--equal", "1",
                     "--points", "1/2,1/10,1/1000", "--out", str(out)]) == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == ["1/1000", "1/10", "1/2"]
        m_list = (F(1),) * 3
        for r in rows:
            delta = as_rational(r[0])
            a = extremal.realize(m_list, extremal._staggered(delta, 3))
            report = full_report(a)
            want = (report.m_bar, report.mixture_e, report.exact_e, report.upper,
                    report.theta, report.upper - report.exact_e)
            assert tuple(as_rational(x) for x in r[2::2]) == want

    def test_zero_steps_is_a_usage_error(self, tmp_path, capsys):
        tmpl = tmp_path / "tmpl.txt"
        tmpl.write_text("n: 1\nmember: 0:$p 1:$q\n")
        code = main(["sweep", "--template", str(tmpl), "--from", "0",
                     "--to", "1", "--steps", "0", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE

    def test_one_step_is_the_start_point(self, tmp_path, capsys):
        tmpl = tmp_path / "tmpl.txt"
        tmpl.write_text("n: 1\nmember: 0:$p 1:$q\n")
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--template", str(tmpl), "--from", "1/3", "--to", "9",
                     "--steps", "1", "--out", str(out)]) == EXIT_OK
        assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == ["1/3"]

    @pytest.mark.parametrize("argv, message", [
        (["--template", "{tmpl}", "--points", "1/2", "--from", "0", "--to", "1", "--steps", "5"],
         "give either --points or all of --from/--to/--steps"),
        (["--template", "{tmpl}", "--points", "1/2", "--to", "1"],
         "give either --points or all of --from/--to/--steps"),
        (["--template", "{tmpl}", "--points", "1/2", "--steps", "5"],
         "give either --points or all of --from/--to/--steps"),
        (["--template", "{tmpl}", "--from", "0", "--to", "1"],
         "give either --points or all of --from/--to/--steps"),
        (["--template", "{tmpl}", "--equal", "1", "--points", "1/2"],
         "template sweeps take no --equal"),
        (["--extremal-n", "2", "--points", "1/2"], "extremal sweeps need --equal"),
    ], ids=["points-and-range", "points-and-to", "points-and-steps", "no-steps",
            "template-equal", "extremal-no-equal"])
    def test_a_mode_refuses_options_it_would_ignore(self, tmp_path, argv, message):
        tmpl = tmp_path / "tmpl.txt"
        tmpl.write_text("n: 1\nmember: 0:$p 1:$q\n")
        out = tmp_path / "rows.csv"
        code, err = _run_quietly(["sweep", *(a.format(tmpl=tmpl) for a in argv),
                                  "--out", str(out)])
        assert (code, err) == (EXIT_USAGE, f"error: {message}\n")
        assert not out.exists()

    def test_a_chain_breach_exits_3_and_writes_nothing(self, tmp_path, monkeypatch):
        lower = bounds.mixture_lower
        monkeypatch.setattr(bounds, "mixture_lower", lambda a: lower(a) + 10**6)
        out = tmp_path / "rows.csv"
        code, err = _run_quietly(["sweep", "--extremal-n", "2", "--equal", "1",
                                  "--points", "1/10,1/2", "--out", str(out)])
        assert code == EXIT_INVARIANT
        assert "sweep row violates the chain at 1/10" in err
        assert not out.exists()

    def test_template_without_parameter_is_rejected(self, tmp_path, capsys):
        tmpl = tmp_path / "tmpl.txt"
        tmpl.write_text("n: 1\nmember: 0:1/2 1:1/2\n")
        code = main(["sweep", "--template", str(tmpl),
                     "--points", "1/2", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_PRECONDITION


def _run_quietly(argv):
    """The exit code and stderr; an escaping exception fails the test instead."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class TestNegativeFractionArguments:
    """``--opt -1/2`` reads as a value, exactly as ``--opt=-1/2`` does."""

    @pytest.mark.parametrize("command,option,other", [
        ("verify", "--bound", []),
        ("transform", "--lo", ["--hi", "1"]),
        ("transform", "--hi", ["--lo", "-1"]),
        ("sweep", "--from", ["--to", "1/2", "--steps", "2"]),
        ("sweep", "--to", ["--from", "-1", "--steps", "2"]),
    ])
    def test_space_form_matches_equals_form(self, tmp_path, command, option, other):
        path = tmp_path / "a.txt"
        if command == "sweep":
            path.write_text("n: 1\nmember: 0:$p 1:$q\n")
            head = ["sweep", "--template", str(path), "--out", str(tmp_path / "x.csv")]
        else:
            path.write_text(EXAMPLE)
            head = [command, str(path)] + (["--op", "down"] if command == "transform" else [])
        spaced = _run_quietly(head + other + [option, "-1/2"])
        joined = _run_quietly(head + other + [f"{option}=-1/2"])
        assert spaced == joined
        assert "expected one argument" not in spaced[1]


LONG_INT = "7" * 5000  # beyond the interpreter's default limit of 4300 digits


def _file_value(tok):
    """What an assembly file reads from tok on its bound line."""
    return parse_assembly_text(f"bound: {tok}\nmember: 0:1\n").bound


class TestLongOptionValues:
    """A rational option reads a token exactly as an assembly file does."""

    @pytest.mark.parametrize("argv, read", [
        (["verify", "f", "--bound", LONG_INT], lambda args: args.bound),
        (["transform", "f", "--op", "down", "--lo", LONG_INT, "--hi", "1"],
         lambda args: args.lo),
        (["transform", "f", "--op", "down", "--lo", "0", "--hi", LONG_INT],
         lambda args: args.hi),
        (["extremal", "--n", "2", "--m-list", f"1,{LONG_INT}", "--epsilon", "1"],
         lambda args: args.m_list[1]),
        (["sweep", "--template", "t.txt", "--points", f"{LONG_INT},1/2", "--out", "o.csv"],
         lambda args: args.points[0]),
    ], ids=["bound", "lo", "hi", "m-list", "points"])
    def test_option_reads_like_a_file(self, argv, read):
        assert read(build_parser().parse_args(argv)) == _file_value(LONG_INT)

    def test_verify_bound_matches_the_file_bound(self, tmp_path, capsys):
        path = tmp_path / "a.txt"
        path.write_text(EXAMPLE.replace("bound: 1", f"bound: {LONG_INT}"))
        assert main(["verify", str(path)]) == EXIT_OK
        from_file = capsys.readouterr().out
        path.write_text(EXAMPLE.replace("bound: 1\n", ""))
        assert main(["verify", str(path), "--bound", LONG_INT]) == EXIT_OK
        assert capsys.readouterr().out == from_file

    @pytest.mark.parametrize("argv, option, value", [
        (["verify", "{file}"], "--bound", "7" * 4999 + "x"),
        (["verify", "{file}"], "--bound", "-" + "7" * 4999),
        (["verify", "{file}"], "--bound", "x" * 100),
        (["verify", "{file}"], "--tol", "0" * 5000),
        (["transform", "{file}", "--op", "down", "--hi", "1"], "--lo", "7" * 4999 + "x"),
        (["sweep", "--template", "{file}", "--out", "o.csv"], "--steps", "0" * 5000),
    ], ids=["bound-bad-end", "bound-signed", "bound-letters", "tol-zero", "lo-bad-end",
            "steps-zero"])
    def test_refused_value_is_quoted_clipped(self, example_file, argv, option, value):
        argv = [a.format(file=example_file) for a in argv] + [option, value]
        code, err = _run_quietly(argv)
        assert code == EXIT_USAGE
        assert err.startswith(f"error: argument {option}: ")
        assert value[:41] not in err and len(err) < 200


class TestExponentTokens:
    """An exponent of magnitude above 10**5 is refused before any power is built."""

    @pytest.mark.parametrize("tok", ["1e10000000", "-2.5E-10000000", "1e+1_000_000",
                                     "1e100001", "1e" + "9" * 5000],
                             ids=["e7", "signed-e7", "underscores", "just-above", "long"])
    def test_exponent_beyond_the_bound_is_refused_at_once(self, tmp_path, example_file, tok):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exponent magnitude above 100000") as info:
            as_rational(tok)
        assert len(str(info.value)) < 200
        path = tmp_path / "exp.txt"
        path.write_text(f"n: 2\nmember: 0:1/2 {tok}:1/2\nmember: 0:1\n")
        for argv in (["verify", str(path)],
                     ["verify", str(example_file), f"--bound={tok}"],
                     ["transform", str(example_file), "--op", "down", f"--lo={tok}",
                      "--hi", "1"]):
            code, err = _run_quietly(argv)
            assert code == EXIT_USAGE, (argv, err)
            assert repr(clip(tok)) in err and len(err) < 200
        assert time.perf_counter() - start < 1

    def test_exponents_up_to_the_bound_read(self, tmp_path, capsys):
        assert as_rational("1e100000") == 10**100000
        assert as_rational("-1E-0100000") == F(-1, 10**100000)
        assert as_rational("3e+1_000") == 3 * 10**1000
        path = tmp_path / "exp.txt"
        path.write_text("n: 2\nmember: 0:1/2 1e5000:1/2\nmember: 0:1\n")
        assert main(["verify", str(path)]) == EXIT_OK
        assert "M_max = " in capsys.readouterr().out


class TestBadArguments:
    """A bad rational or an unreadable path is a usage error, not a traceback."""

    @pytest.mark.parametrize("argv, option", [
        (["transform", "{file}", "--op", "down", "--lo", "x", "--hi", "1"], "--lo"),
        (["transform", "{file}", "--op", "down", "--lo", "0", "--hi", "1/0"], "--hi"),
        (["extremal", "--n", "2", "--m-list", "1,x", "--epsilon", "1/10"], "--m-list"),
        (["extremal", "--n", "2", "--m-list", "1/0,1", "--epsilon", "1/10"], "--m-list"),
        (["extremal", "--n", "3", "--equal", "1", "--epsilon", "1/10",
          "--p-schedule", "1/2,x"], "--p-schedule"),
        (["sweep", "--extremal-n", "2", "--equal", "1", "--points", "x",
          "--out", "{dir}/o.csv"], "--points"),
    ])
    def test_bad_rational_names_the_option(self, example_file, argv, option):
        argv = [a.format(file=example_file, dir=example_file.parent) for a in argv]
        code, err = _run_quietly(argv)
        assert code == EXIT_USAGE
        assert err.startswith(f"error: argument {option}: not an exact rational")

    @pytest.mark.parametrize("argv, first, second", [
        (["extremal", "--n", "2", "--epsilon", "1"], ["--equal", "1"], ["--m-list", "1,1"]),
        (["sweep", "--points", "1/2", "--out", "{dir}/o.csv"], ["--template", "{dir}/t.txt"],
         ["--extremal-n", "2"]),
    ], ids=["target", "mode"])
    def test_a_one_of_pair_takes_exactly_one(self, tmp_path, argv, first, second):
        (tmp_path / "t.txt").write_text("n: 1\nmember: 0:$p 1:$q\n")
        argv, first, second = ([a.format(dir=tmp_path) for a in x] for x in (argv, first, second))
        assert _run_quietly(argv) == (
            EXIT_USAGE, f"error: one of the arguments {first[0]} {second[0]} is required\n")
        assert _run_quietly(argv + first + second) == (
            EXIT_USAGE, f"error: argument {second[0]}: not allowed with argument {first[0]}\n")

    @pytest.mark.parametrize("argv, message", [
        (["verify", "{file}", "--seed", "5"], "--seed applies only with --samples"),
        (["transform", "{file}", "--op", "down", "--member", "7", "--lo", "0", "--hi", "1"],
         "--member applies only to --op coalesce and reduce"),
        (["transform", "{file}", "--op", "coalesce", "--tol", "1/3", "--lo", "0", "--hi", "1"],
         "--tol applies only to --op down"),
        (["transform", "{file}", "--op", "reduce", "--tol", "1/3", "--lo", "0", "--hi", "1"],
         "--tol applies only to --op down"),
    ], ids=["verify-seed", "down-member", "coalesce-tol", "reduce-tol"])
    def test_a_mode_refuses_options_it_would_ignore(self, example_file, argv, message):
        argv = [a.format(file=example_file) for a in argv]
        assert _run_quietly(argv) == (EXIT_USAGE, f"error: {message}\n")

    @pytest.mark.parametrize("argv, default", [
        (["verify", "{file}", "--samples", "100"], ["--seed", "0"]),
        (["transform", "{file}", "--op", "coalesce", "--lo", "1/2", "--hi", "1"],
         ["--member", "0"]),
        (["transform", "{file}", "--op", "down", "--lo", "0", "--hi", "1"],
         ["--tol", "1/1000000000000"]),
    ], ids=["seed", "member", "tol"])
    def test_an_option_left_out_keeps_its_default(self, example_file, capsys, argv, default):
        argv = [a.format(file=example_file) for a in argv]
        assert main(argv) == EXIT_OK
        left_out = capsys.readouterr().out
        assert main(argv + default) == EXIT_OK
        assert capsys.readouterr().out == left_out

    def test_a_path_too_long_for_the_system_is_quoted_clipped(self, tmp_path):
        code, err = _run_quietly(["verify", str(tmp_path / ("a" * 5000))])
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and " chars)" in err
        assert all(len(line) <= 200 for line in err.splitlines()), err[:400]

    def test_comma_lists_are_read_exactly(self, tmp_path):
        out = tmp_path / "ext.txt"
        code, _ = _run_quietly(["extremal", "--n", "3", "--m-list", "1, 1,1.0",
                                "--p-schedule", "1/2,0.75", "--out", str(out)])
        assert code == EXIT_OK
        a = parse_assembly_text(out.read_text()).assembly
        assert a.similar_means() == (F(1),) * 3
        assert [d.cdf(0) for d in a.members] == [F(1, 2), F(3, 4), F(0)]

    @pytest.mark.parametrize("argv", [
        ["verify", "{dir}"],
        ["verify", "{dir}/latin1.txt"],
        ["transform", "{file}", "--op", "down", "--lo", "0", "--hi", "1", "--out", "{dir}"],
        ["sweep", "--extremal-n", "2", "--equal", "1", "--points", "1/10", "--out", "{dir}"],
    ])
    def test_file_errors_are_usage_errors(self, example_file, argv):
        (example_file.parent / "latin1.txt").write_bytes("name: caf\xe9\n".encode("latin-1"))
        argv = [a.format(file=example_file, dir=example_file.parent) for a in argv]
        code, err = _run_quietly(argv)
        assert code == EXIT_USAGE
        assert err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["verify", "{path}"],
        ["sweep", "--template", "{path}", "--points", "1/2", "--out", "{dir}/o.csv"],
    ])
    def test_non_utf8_file_is_named(self, tmp_path, argv):
        path = tmp_path / "latin1.txt"
        path.write_bytes("member: 0:1 # caf\xe9\n".encode("latin-1"))
        code, err = _run_quietly([a.format(path=path, dir=tmp_path) for a in argv])
        assert code == EXIT_USAGE
        assert err.startswith(f"error: {path} is not UTF-8 text: ")


class TestSizeCaps:
    """A merged support or a count above the atom cap exits 2, before allocating."""

    def test_merged_support_above_the_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr("maxmix.dist.DEFAULT_ATOM_CAP", 3)
        path = tmp_path / "four.txt"
        path.write_text("member: 0:1/2 1:1/2\nmember: 2:1/2 3:1/2\n")
        code, err = _run_quietly(["verify", str(path)])
        assert code == EXIT_PRECONDITION
        assert err == "error: merged support size 4 exceeds the cap 3\n"

    @pytest.mark.parametrize("argv, option", [
        (["extremal", "--n", "11", "--equal", "1", "--epsilon", "1/10"], "--n"),
        (["sweep", "--extremal-n", "11", "--equal", "1", "--points", "1/10",
          "--out", "{dir}/o.csv"], "--extremal-n"),
        (["sweep", "--template", "{dir}/t.txt", "--from", "0", "--to", "1",
          "--steps", "11", "--out", "{dir}/o.csv"], "--steps"),
    ])
    def test_counts_above_the_cap(self, tmp_path, monkeypatch, argv, option):
        monkeypatch.setattr("maxmix.dist.DEFAULT_ATOM_CAP", 10)
        (tmp_path / "t.txt").write_text("n: 1\nmember: 0:$p 1:$q\n")
        code, err = _run_quietly([a.format(dir=tmp_path) for a in argv])
        assert code == EXIT_PRECONDITION
        assert err == f"error: {option} 11 exceeds the cap 10\n"

    @pytest.mark.parametrize("argv", [
        ["verify", "{dir}/bound.txt"],
        ["transform", "{dir}/four.txt", "--op", "down", "--lo", "0", "--hi", "1e100000",
         "--out", "{dir}/o.txt"],
        ["extremal", "--n", "1003", "--equal", "1", "--epsilon", "1000000",
         "--out", "{dir}/o.txt"],
        ["sweep", "--extremal-n", "1003", "--equal", "1", "--points", "1/2",
         "--out", "{dir}/o.csv"],
    ], ids=["root-bound", "root-hi", "extremal", "extremal-sweep"])
    def test_operand_growth_above_the_bit_cap(self, tmp_path, argv):
        (tmp_path / "four.txt").write_text(FOUR_MEMBERS)
        (tmp_path / "bound.txt").write_text("bound: 1e100000\n" + FOUR_MEMBERS)
        t0 = time.perf_counter()
        code, err = _run_quietly([a.format(dir=tmp_path) for a in argv])
        assert time.perf_counter() - t0 < 1
        assert code == EXIT_PRECONDITION, err


# ---------------------------------------------------------------------------
# every valid document verifies


def _verify(path, *extra) -> int:
    """The exit code; an escaping exception fails the test instead."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(["verify", str(path), *extra])


@seed(1_406_002)
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([None, "case", "two words", "a:b"]),
       st.sampled_from([None, F(0), F(1, 3), F(5)]))
def test_rendered_documents_read_back_and_verify(s, name, slack):
    a = random_assembly(random.Random(s), max_atoms=5)
    bound = None if slack is None else a.support_max + slack
    doc = AssemblyDocument(a, name=name, bound=bound)
    text = render_assembly(doc)
    assert parse_assembly_text(text) == doc
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.txt"
        path.write_text(text, encoding="utf-8")
        assert _verify(path) == EXIT_OK
        below = fraction_str(a.support_max - F(1, 2))
        assert _verify(path, "--bound", below) == EXIT_PRECONDITION


# ---------------------------------------------------------------------------
# values of any size in refusals


class TestValuesInRefusals:
    """Every refusal quotes its values clipped, whatever their size."""

    @pytest.mark.parametrize("op", ["down", "coalesce", "reduce"])
    def test_interval_end_beyond_the_digit_limit(self, example_file, op):
        code, err = _run_quietly(["transform", str(example_file), "--op", op,
                                  "--lo", "1e5000", "--hi", "1"])
        assert code == EXIT_PRECONDITION
        assert "...(5001 chars)" in err and len(err) <= 200

    def test_count_of_301_digits(self):
        code, err = _run_quietly(["extremal", "--n", "1" + "0" * 300, "--equal", "1",
                                  "--epsilon", "1"])
        assert code in (EXIT_USAGE, EXIT_PRECONDITION)
        assert len(err) <= 200

    @pytest.mark.parametrize("argv, option", [
        (["extremal", "--equal", "1", "--epsilon", "1"], "--n"),
        (["verify", "{file}"], "--samples"),
        (["verify", "{file}", "--samples", "2"], "--seed"),
        (["transform", "{file}", "--op", "coalesce", "--lo", "0", "--hi", "1"], "--member"),
        (["sweep", "--equal", "1", "--points", "1/2", "--out", "o.csv"], "--extremal-n"),
    ], ids=["n", "samples", "seed", "member", "extremal-n"])
    @pytest.mark.parametrize("value", ["1" + "0" * 5000, "1" * 4999 + "x", "-" + "1" * 5000],
                             ids=["huge", "bad-end", "negative"])
    def test_integer_option_is_quoted_clipped(self, example_file, argv, option, value):
        argv = [a.format(file=example_file) for a in argv] + [option, value]
        code, err = _run_quietly(argv)
        assert code in (EXIT_USAGE, EXIT_PRECONDITION)
        assert value[:41] not in err and len(err) <= 200

    @pytest.mark.parametrize("argv, echoed", [
        (["verify", "{file}", "--frobnicate", LONG_INT], LONG_INT),
        (["verify", "{file}", f"--s={LONG_INT}"], f"--s={LONG_INT}"),
        (["transform", "{file}", "--op", "x" * 5000, "--lo", "0", "--hi", "1"], "x" * 5000),
        (["y" * 5000], "y" * 5000),
    ], ids=["unknown-option", "ambiguous-option", "invalid-choice", "invalid-command"])
    def test_tokens_the_parser_echoes_are_clipped(self, example_file, argv, echoed):
        code, err = _run_quietly([a.format(file=example_file) for a in argv])
        assert code == EXIT_USAGE
        assert clip(echoed) in err
        assert all(len(line) <= 200 for line in err.splitlines())

    @pytest.mark.parametrize("bits", [12_899, 12_901, 20_000, 60_000])
    def test_long_values_are_shown_as_clip_of_their_exact_text(self, bits):
        rng = random.Random(bits)
        k = rng.getrandbits(bits) | 1 << bits - 1
        for x in (k, -k, F(k, 3), F(5, k), F(-k, k + 2), (F(1, 2), -k), 10**3884 - 1):
            text = ", ".join(map(fraction_str, x)) if isinstance(x, tuple) else fraction_str(x)
            assert _shown(x) == clip(text)

    def test_a_million_digit_value_is_shown_without_its_full_text(self):
        # the exact decimal text of 10**10**6 takes seconds; its clip does not
        start = time.perf_counter()
        assert _shown(10**10**6 + 7) == "1" + "0" * 39 + "...(1000001 chars)"
        assert time.perf_counter() - start < 4

    @pytest.mark.parametrize("tok, want", [("12", 12), ("4/2", 2), ("1e3", 1000), ("+7", 7)])
    def test_integer_option_reads_whole_rational_tokens(self, tok, want):
        args = build_parser().parse_args(["extremal", "--n", tok, "--equal", "1",
                                          "--epsilon", "1"])
        assert args.n == want

    @pytest.mark.parametrize("tok, message", [("1/2", "not an integer"), ("0", "must be >= 1")])
    def test_integer_option_refuses_fractions_and_values_below_its_least(self, tok, message):
        code, err = _run_quietly(["extremal", "--n", tok, "--equal", "1", "--epsilon", "1"])
        assert code == EXIT_USAGE
        assert err.startswith(f"error: argument --n: {message}")


CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); from maxmix.cli import main; "
         "code = main(sys.argv[2:]); print(code, 'numpy' in sys.modules)")


def test_sample_count_beyond_the_cap_exits_before_numpy_loads(example_file):
    src = Path(__file__).resolve().parents[1] / "src"
    argv = ["verify", str(example_file), "--samples", "1" + "0" * 30]
    proc = subprocess.run([sys.executable, "-I", "-c", CHILD, str(src), *argv],
                          capture_output=True, text=True, timeout=60)
    # refused before the chain is computed, so nothing else reaches standard output
    assert proc.stdout.splitlines() == [f"{EXIT_PRECONDITION} False"]
    assert proc.stderr.startswith("error: Monte Carlo draw count") and len(proc.stderr) <= 200


def test_values_beyond_float_range_exit_before_numpy_loads(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    path = tmp_path / "huge.txt"
    path.write_text("member: 0:1/2 1e400:1/2\nmember: 0:1/3 1:2/3\n")
    proc = subprocess.run([sys.executable, "-I", "-c", CHILD, str(src), "verify", str(path),
                           "--samples", "2"], capture_output=True, text=True, timeout=60)
    assert proc.stdout.splitlines() == [f"{EXIT_PRECONDITION} False"]
    assert proc.stderr.startswith("error: Monte Carlo needs") and len(proc.stderr) <= 200


# ---------------------------------------------------------------------------
# hostile option values


HOSTILE = ["7" * 5000, "1" + "0" * 5000, "1e5000", "-1e5000", "-1", "+1", "0", "-0", "",
           "٣", "1/0", "x"]
BENIGN = ["1", "2", "3", "1/2", "3/4"]
# mostly benign, so that most commands get past the parser to the hostile value
option_values = st.one_of(*[st.sampled_from(BENIGN)] * 3, st.sampled_from(HOSTILE))
LISTS = {"m_list", "p_schedule", "points"}


def _commands():
    """Each subcommand's actions, read from the parser itself."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [a for a in p._actions if a.dest != "help"]
            for name, p in sub.choices.items()}


COMMANDS = _commands()


@st.composite
def argvs(draw, paths):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [name]
    for action in COMMANDS[name]:
        if not action.option_strings:
            argv.append(paths["input"])
            continue
        if not action.required and draw(st.booleans()):
            continue
        if action.choices:
            value = draw(st.sampled_from(sorted(action.choices)))
        elif action.dest in paths:
            value = paths[action.dest]
        elif action.dest in LISTS:
            value = ",".join(draw(st.lists(option_values, min_size=1, max_size=3)))
        else:
            value = draw(option_values)
        argv.append(f"{action.option_strings[0]}={value}")
    return argv


@pytest.fixture(scope="module")
def hostile_paths(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("hostile")
    (tmp / "pair.txt").write_text(EXAMPLE, encoding="utf-8")
    (tmp / "template.txt").write_text("n: 2\nmember: 0:$p 1:$q\nmember: 0:1/2 1:1/2\n")
    return {"input": str(tmp / "pair.txt"), "template": str(tmp / "template.txt"),
            "out": str(tmp / "out.txt")}


@seed(2_112_001)
@settings(max_examples=300, deadline=timedelta(seconds=20),
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_hostile_option_values_exit_cleanly(hostile_paths, data):
    argv = data.draw(argvs(hostile_paths))
    code, err = _run_quietly(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_PRECONDITION), (argv, err)
    assert all(len(line) <= 200 for line in err.splitlines()), err[:400]


# ---------------------------------------------------------------------------
# hostile assembly documents


DOC_VALUES = ["0", "1", "2", "1/2", "0.125", "1e5000", "-1e5000", "1e10000000",
              "1e-10000000", "7" * 5000, "7" * 5000 + ".5", "1/0", "-1/2", "x", "٣", "1e"]
DOC_MASSES = ["1", "1/2", "1/4", "3/4", "0", "-1/2", "3/2", "1e-3", "1e10000000", "7" * 5000]
WELL_FORMED = ["0:1/2 1:1/2", "0:1/4 1:3/4", "1e5000:1", "1:1/2 1:1/2", f"{'7' * 5000}:1"]
# a quoted value is at most 40 characters, or its first 40 and its length
QUOTED = re.compile(r"'([^']*)'")
CLIPPED = re.compile(r".{40}\.\.\.\(\d+ chars\)", re.DOTALL)


@st.composite
def atom_tokens(draw):
    value, mass = draw(st.sampled_from(DOC_VALUES)), draw(st.sampled_from(DOC_MASSES))
    shape = draw(st.sampled_from(["{v}:{m}"] * 4 + ["{v}", "{v}:{m}:{m}", ":{m}", "{v}:", "::"]))
    return shape.format(v=value, m=mass)


@st.composite
def documents(draw):
    # mostly well-formed members, so that many documents reach the bound chain
    members = st.one_of(*[st.sampled_from(WELL_FORMED)] * 3,
                        st.lists(atom_tokens(), min_size=1, max_size=4).map(" ".join))
    lines = [f"member: {m}" for m in draw(st.lists(members, min_size=1, max_size=4))]
    if draw(st.booleans()):
        lines.insert(0, f"n: {draw(st.sampled_from(['1', '2', '3', 'x', '-1', '7' * 5000]))}")
    if draw(st.booleans()):
        lines.insert(0, f"bound: {draw(st.sampled_from(DOC_VALUES + ['1/4', '1e100000']))}")
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["name: x", "# note", "bogus: 1", "no colon", ""])))
    data = "\n".join(lines).encode("utf-8")
    if draw(st.sampled_from([False] * 7 + [True])):  # bytes that are not UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xe9", b"\xc3("])) + data[at:]
    return data


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile_docs") / "doc.txt"


def _exits_cleanly(doc: bytes, argv: list[str]) -> None:
    """Exit 0, 1 or 2, with every quoted value clipped."""
    code, err = _run_quietly(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_PRECONDITION), (doc[:400], err)
    for quoted in QUOTED.findall(err):
        assert len(quoted) <= 40 or CLIPPED.fullmatch(quoted), err[:400]


@seed(2_212_001)
@settings(max_examples=200, deadline=timedelta(seconds=5),
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=documents())
@example(doc=("bound: 1e100000\n" + FOUR_MEMBERS).encode())  # a root past the bit cap
def test_hostile_documents_exit_cleanly(doc_path, doc):
    doc_path.write_bytes(doc)
    _exits_cleanly(doc, ["verify", str(doc_path)])


@seed(2_312_001)
@settings(max_examples=200, deadline=timedelta(seconds=5),
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=documents())
def test_hostile_documents_transform_cleanly(doc_path, doc):
    doc_path.write_bytes(doc)
    _exits_cleanly(doc, ["transform", str(doc_path), "--op", "down", "--lo", "0", "--hi", "1",
                         "--out", str(doc_path.with_suffix(".out"))])


@seed(2_312_002)
@settings(max_examples=200, deadline=timedelta(seconds=5),
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=documents(), at=st.integers(0, 8))
def test_hostile_templates_sweep_cleanly(doc_path, doc, at):
    # the swept member goes in at a drawn line, so that it may precede a bad one
    lines = doc.split(b"\n")
    lines.insert(min(at, len(lines)), b"member: 0:$p 1:$q")
    template = b"\n".join(lines)
    doc_path.write_bytes(template)
    _exits_cleanly(template, ["sweep", "--template", str(doc_path), "--points", "1/3,1/2",
                              "--out", str(doc_path.with_suffix(".csv"))])
