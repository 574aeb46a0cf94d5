"""Tests for the command line surface and the assembly file format."""

import contextlib
import io
import random
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from maxmix import FiniteDistribution, as_rational, extremal, full_report
from maxmix.cli import (
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

from genutil import random_assembly

EXAMPLE = """\
# the two-point comparison pair
name: two-point-pair
bound: 1
n: 2
member: 0:1/2 1:1/2
member: 0:1/4 1:3/4
"""


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

    def test_verify_beyond_float_range(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text("member: 0:1/2 1e400:1/2\nmember: 0:1/3 1:2/3\n")
        assert main(["verify", str(path)]) == EXIT_OK
        assert "exact_E = " in capsys.readouterr().out
        assert main(["verify", str(path), "--samples", "100"]) == EXIT_PRECONDITION
        assert "float range" in capsys.readouterr().err

    def test_mc_refuses_squares_beyond_float_range(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        path.write_text("member: 0:1/2 1e200:1/2\nmember: 0:1/3 1:2/3\n")
        assert main(["verify", str(path), "--samples", "1000"]) == EXIT_PRECONDITION
        assert "float range" in capsys.readouterr().err
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
        path.write_text(f"member: 0:1/2 {'7' * 5000}.5:1/2\n")
        assert main(["verify", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "bad rational '7777777777" in err and "(5002 chars)" in err
        assert len(err) < 300

    def test_seed_outside_64_bits_is_a_precondition_error(self, example_file, capsys):
        for seed in ("-1", str(2**64)):
            assert main(["verify", str(example_file), "--samples", "100",
                         "--seed", seed]) == EXIT_PRECONDITION
            assert "seed" in capsys.readouterr().err


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
        code = main(["sweep", "--template", str(tmpl),
                     "--points", "1/2,3/2", "--out", str(out)])
        assert code == EXIT_PRECONDITION
        assert "skipping 3/2" in capsys.readouterr().err
        assert len(out.read_text().splitlines()) == 2  # header + one row

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
            a = extremal._realize(m_list, extremal._staggered(delta, 3))
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
        (["sweep", "--points", f"{LONG_INT},1/2", "--out", "o.csv"],
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

    def test_comma_lists_are_read_exactly(self, tmp_path):
        out = tmp_path / "ext.txt"
        code, _ = _run_quietly(["extremal", "--n", "3", "--m-list", "1, 1,1.0",
                                "--epsilon", "1", "--p-schedule", "1/2,0.75",
                                "--out", str(out)])
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
