"""Tests of the member parser of the assembly file format.

Tokens of the form "a" and "a/b" are read straight to integers; every other
form goes through `Fraction`.  The differential tests check that the parser
accepts and refuses exactly what `FiniteDistribution.from_pairs` does on
`Fraction(token)`, with the same atoms and the same messages: on short
lines of every token form, and on longer lines of mostly digit tokens,
sorted, unsorted or with a repeated value.  A further property checks that
a file, a CLI option and `as_rational` read every token alike.
"""

import sys
from argparse import ArgumentTypeError
from fractions import Fraction as F

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from maxmix import Assembly, FiniteDistribution, PreconditionError, as_rational
from maxmix.cli import (
    EXIT_USAGE,
    AssemblyDocument,
    AssemblyParseError,
    _rational_arg,
    main,
    parse_assembly_text,
    render_assembly,
)

LONG = 5000  # digits, beyond the interpreter's default limit of 4300


def member(text):
    return parse_assembly_text(f"member: {text}\n").assembly.members[0]


class TestBadMembers:
    @pytest.mark.parametrize("line, message", [
        ("-1:1/2 1:1/2", "member 1: atom value -1 is negative"),
        ("0:3/2 1:-1/2", "member 1: atom mass -1/2 at value 1 is negative"),
        ("0:1/2 1:2/5", "member 1: masses sum to 9/10, expected exactly 1"),
        ("0:1/2 1:1/2 2:1/4", "member 1: masses sum to 5/4, expected exactly 1"),
        ("0:0 1:0", "member 1: a distribution needs at least one atom"),
        ("0:1/2 1:1/0", "bad rational '1/0'"),
        ("0:1/2 x:1/2", "bad rational 'x'"),
        ("0:1/2 1", "member 1: expected value:mass, got '1'"),
        # the first fault in token order is the one reported
        ("0:1/2 x:1/2 1", "bad rational 'x'"),
        ("0:1/2 1 x:1/2", "member 1: expected value:mass, got '1'"),
        ("0:1/2 1:1:1/2 x:0", "member 1: expected value:mass, got '1:1:1/2'"),
    ])
    def test_refused_with_exit_1(self, tmp_path, capsys, line, message):
        path = tmp_path / "bad.txt"
        path.write_text(f"n: 1\nmember: {line}\n")
        assert main(["verify", str(path)]) == EXIT_USAGE
        assert f"error: line 2: {message}" in capsys.readouterr().err

    def test_negative_mass_is_reported_in_input_order(self):
        with pytest.raises(AssemblyParseError, match="mass -1/4 at value 2 is"):
            member("-1:1/2 2:-1/4 3:-1/2 0:5/4")

    def test_smallest_negative_value_is_reported(self):
        with pytest.raises(AssemblyParseError, match="value -3 is negative"):
            member("-1:1/2 -3:1/2")

    def test_negative_value_with_zero_mass_is_dropped(self):
        assert member("-1:0 1:1").atoms == ((F(1), F(1)),)


class TestCanonicalMembers:
    def test_duplicates_merge_across_forms(self):
        d = member("1:1/4 2/4:1/8 0.5:0.125 1:1/4 0:1/4")
        assert d.atoms == ((F(0), F(1, 4)), (F(1, 2), F(1, 4)), (F(1), F(1, 2)))

    def test_unsorted_tokens_are_sorted(self):
        assert member("3:1/3 1/2:1/3 0:1/3").values == (F(0), F(1, 2), F(3))

    def test_zero_masses_are_dropped(self):
        d = member("0:0 1:1/2 2:0/7 3:1/2 4:-0")
        assert d.atoms == ((F(1), F(1, 2)), (F(3), F(1, 2)))

    def test_integer_form_is_reduced(self):
        d = member("2/4:2/6 6/4:4/6")
        assert d.form == (2, (1, 3), 3, (1, 2))
        assert FiniteDistribution.from_pairs(d.atoms).form == d.form

    def test_parsed_member_equals_from_pairs(self):
        d = member("0:1/4 1:3/4")
        assert d == FiniteDistribution.from_pairs([(0, F(1, 4)), (1, F(3, 4))])
        assert repr(d) == "FiniteDistribution({0:1/4, 1:3/4})"


# ---------------------------------------------------------------------------
# differential test against Fraction(token)

small = st.integers(0, 12)
plain = st.one_of(
    small.map(str),
    st.builds("{}/{}".format, small, st.integers(0, 8)),           # unreduced, /0
)
decimal = st.builds("{}.{}{}".format, st.integers(0, 99), st.integers(0, 999),
                    st.sampled_from(["", "e2", "E-1", "e+0"]))
signed = st.builds("{}{}".format, st.sampled_from("+-"), plain)
underscore = st.sampled_from(["1_0", "1_0/4_0", "_1", "1__0", "1_", "2/1_0", "0_5"])
long_plain = st.one_of(
    st.integers(0, 9).map(lambda d: f"{d}" + "0" * LONG),
    st.integers(1, 9).map(lambda d: f"{d}" * LONG + f"/{d}"),
)
odd = st.sampled_from(["", "x", "1/", "/2", "1/2/3", ".5", "5.", "0x10", "inf",
                       "nan", "1e", "٣", "٣/٤", "1/-2"])
tokens = st.one_of(plain, decimal, signed, underscore, long_plain, odd)


@st.composite
def composition(draw, size):
    """Mass tokens that often sum to 1, in assorted forms, some zero or negative."""
    den = draw(st.integers(1, 12))
    weights = draw(st.lists(st.integers(-1, den), min_size=size - 1, max_size=size - 1))
    weights.append(den - sum(weights))
    out = []
    for w in weights:
        form = draw(st.sampled_from(["ratio", "unreduced", "long", "sign", "decimal"]))
        if form == "decimal" and w >= 0 and 10 % den == 0:
            out.append(f"{w * (10 // den)}e-1")
        elif form == "sign":
            out.append(f"{'+' if w >= 0 else ''}{w}/{den}")
        elif form == "long" and w >= 0:
            zeros = "0" * LONG
            out.append(f"{w}{zeros}/{den}{zeros}")
        elif form == "unreduced":
            out.append(f"{3 * w}/{3 * den}")
        else:
            out.append(f"{w}/{den}")
    return out


@st.composite
def members(draw):
    size = draw(st.integers(1, 4))
    values = draw(st.lists(st.one_of(tokens, small.map(str)), min_size=size, max_size=size))
    if draw(st.integers(0, 3)):
        masses = draw(composition(size))
    else:
        masses = draw(st.lists(tokens, min_size=size, max_size=size))
    return list(zip(values, masses))


def _reference(pairs):
    """What `from_pairs` makes of ``Fraction(token)``, with no digit limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        try:
            fractions = [(F(v), F(m)) for v, m in pairs]
        except (ValueError, ZeroDivisionError):
            return "bad rational", None
        try:
            return "ok", FiniteDistribution.from_pairs(fractions).atoms
        except PreconditionError as exc:
            return "refused", str(exc)
    finally:
        sys.set_int_max_str_digits(limit)


def _parsed(pairs):
    try:
        return "ok", member(" ".join(f"{v}:{m}" for v, m in pairs)).atoms
    except AssemblyParseError as exc:
        text = str(exc)
        if "bad rational" in text:
            return "bad rational", None
        return "refused", text.removeprefix("line 1: member 1: ")


@seed(1_105_113)
@settings(max_examples=400, deadline=None)
@given(members())
def test_parser_matches_fraction_and_from_pairs(pairs):
    # long tokens are plain digits here: other long forms go through
    # Fraction, which the interpreter's digit limit still refuses
    kind, got = _parsed(pairs)
    want_kind, want = _reference(pairs)
    assert kind == want_kind
    if kind != "refused" or all(len(word) <= 40 for word in want.split()):
        assert got == want
    else:
        assert len(got) < 200


digit = st.one_of(
    st.integers(0, 40).map(str),
    st.builds("{}/{}".format, st.integers(0, 40), st.integers(1, 8)),
)
huge = st.sampled_from(["7" * LONG, "1" + "0" * LONG, f"{'3' * LONG}/{'1' * LONG}"])


@st.composite
def digit_lines(draw):
    """Lines of mostly digit tokens: sorted, unsorted or with a repeated value,
    sometimes with a 5000-digit token or one token of another form."""
    size = draw(st.integers(1, 12))
    values = sorted(set(draw(st.lists(digit, min_size=size, max_size=size))), key=F)
    order = draw(st.sampled_from(["sorted", "shuffled", "repeated"]))
    if order == "shuffled":
        values = draw(st.permutations(values))
    elif order == "repeated":
        values = values + [draw(st.sampled_from(values))]
    words = values + draw(composition(len(values)))
    for _ in range(draw(st.integers(0, 2))):
        other = draw(st.one_of(tokens, huge))
        words[draw(st.integers(0, len(words) - 1))] = other
    return list(zip(words[:len(values)], words[len(values):]))


@seed(1_105_116)
@settings(max_examples=400, deadline=None)
@given(digit_lines())
def test_digit_lines_match_fraction_and_from_pairs(pairs):
    # the reader's integer loop and the Fraction path it falls back to must
    # agree with Fraction(token) on every line, whatever the token mix
    kind, got = _parsed(pairs)
    want_kind, want = _reference(pairs)
    assert kind == want_kind
    if kind != "refused" or all(len(word) <= 40 for word in want.split()):
        assert got == want
    else:
        assert len(got) < 200


def _read(reader, tok):
    """The value, or "refused" with a message that quotes at most 40 characters."""
    try:
        return reader(tok)
    except (ValueError, ArgumentTypeError) as exc:
        assert tok[:41] not in str(exc) or len(tok) <= 40
        return "refused"


def _file_bound(tok):
    """The bound line's value; "negative" when it is read but below the support."""
    try:
        return parse_assembly_text(f"bound: {tok}\nmember: 0:1\n").bound
    except AssemblyParseError as exc:
        return "negative" if "below the largest support point" in str(exc) else "refused"


@seed(1_105_115)
@settings(max_examples=400, deadline=None)
@given(tokens)
def test_file_option_and_library_read_a_token_alike(tok):
    value = _read(as_rational, tok)
    assert _read(_rational_arg, tok) == value
    assert _file_bound(tok) == ("negative" if value != "refused" and value < 0 else value)


# ---------------------------------------------------------------------------
# parse . render = id

long_ints = st.integers(4300, 6000).map(lambda k: 10**k + 7)
values = st.one_of(st.fractions(min_value=0, max_value=50, max_denominator=9), long_ints)


@st.composite
def documents(draw):
    members = []
    for _ in range(draw(st.integers(1, 3))):
        support = draw(st.lists(values, min_size=1, max_size=4, unique=True))
        weights = draw(st.lists(st.one_of(st.integers(1, 9), long_ints),
                                min_size=len(support), max_size=len(support)))
        total = sum(weights)
        members.append(FiniteDistribution.from_pairs(
            (v, F(w, total)) for v, w in zip(support, weights)))
    a = Assembly(tuple(members))
    bound = draw(st.sampled_from([None, a.support_max, a.support_max + 1]))
    name = draw(st.sampled_from([None, "case", "two words"]))
    return AssemblyDocument(a, name=name, bound=bound)


@seed(1_105_114)
@settings(max_examples=60, deadline=None)
@given(documents())
def test_parse_of_render_is_identity(doc):
    assert parse_assembly_text(render_assembly(doc)) == doc
