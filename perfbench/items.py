"""The workloads as fixed lists of items, and their correctness checks.

An item is one closed-loop unit of work: ``run()`` calls into the program
and returns its raw results, ``check(raw)`` turns those into an `Outcome`
after the timed region.  Every call into the program goes through a module
attribute looked up at call time (``mx.bounds.full_report``), so the
traced run can wrap functions in place.

Exact outputs go into a bit-for-bit digest.  Values derived from an n-th
root enclosure (the Hölder bound, the gap enclosures, the down-projection
masses) depend on how the enclosure is computed, not only on the input,
so they are checked by what any valid enclosure must satisfy instead:
the certificates hold, and the enclosure overlaps the golden one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import gen
import reference

#: The default tolerance of ``maxmix`` (1e-12), which every certificate here uses.
TOL = Fraction(1, 10**12)
#: Slack for comparing two enclosures through their float midpoints.
FLOAT_SLACK = 1e-9

#: chain-ladder rungs: (n members, atoms per member, items per pass).  The
#: (64, 100) rung of the size probes is left out: one item costs about 55 s.
LADDER = ((4, 50, 5), (16, 100, 3), (32, 50, 1))
#: cli-stream sessions per pass; 110 leaves ten of them above the 90th percentile.
STREAM_ITEMS = 110
STREAM_MC_SAMPLES = 20000

#: Every workload reports the same three end-to-end item metrics, light to
#: heavy; each stands for a different item kind (or, on cli-stream, a
#: percentile of session times) on each workload.
SLOTS = ("light_s", "middle_s", "heavy_s")
CLASSES = {
    "chain-ladder": ("chain_s.n4k50", "chain_s.n16k100", "chain_s.n32k50"),
    "cli-stream": ("item_s.p50", "item_s.p75", "item_s.p90"),
}


@dataclass
class Outcome:
    exact: list = field(default_factory=list)
    #: (label, midpoint, radius) of root-derived values, checked by overlap
    enclosed: list = field(default_factory=list)
    problem: str | None = None

    def digest(self) -> str:
        h = hashlib.blake2b(digest_size=6)
        for x in self.exact:
            h.update(_encode(x))
        return h.hexdigest()


def _int_bytes(x: int) -> bytes:
    return x.to_bytes(x.bit_length() // 8 + 1, "big", signed=True)


def _encode(x) -> bytes:
    # tagged and length-prefixed, so that no two output lists collide;
    # big integers are hashed as bytes, never printed in decimal
    if isinstance(x, Fraction):
        body = _int_bytes(x.numerator) + b"/" + _int_bytes(x.denominator)
        tag = b"F"
    elif isinstance(x, bool):
        body, tag = (b"1" if x else b"0"), b"B"
    elif isinstance(x, str):
        body, tag = x.encode(), b"S"
    else:
        raise TypeError(f"cannot digest {type(x).__name__}")
    return tag + len(body).to_bytes(8, "big") + body


@dataclass
class Item:
    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]


@dataclass
class Cli:
    """Runs ``maxmix`` commands in-process, as the console script would."""

    mx: Any
    #: verify invocations that ended with a non-zero exit or a traceback
    verify_nonzero: int = 0

    def __call__(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.mx.cli.main(argv)
            except Exception as exc:  # an uncaught error is exit 1 with a traceback
                rc = 1
                err.write(f"{type(exc).__name__}: {str(exc)[:200]}")
        if argv[0] == "verify" and rc != 0:
            self.verify_nonzero += 1
        return rc, out.getvalue(), err.getvalue()


def _chain_exact(report) -> list:
    c = report.chain
    return [*report.m_list, report.m_bar, report.m_max, report.exact_e,
            report.mixture_e, report.upper, report.theta,
            c.mean_le_mixture, c.mixture_le_exact, c.exact_le_upper]


def _bad_exit(rc: int, err: str) -> str | None:
    return None if rc == 0 else f"exit {rc}: {err.strip()[-200:]}"


def _enclosure_line(line: str):
    # "label = p/q (decimal) +/- radius"
    label, _, rest = line.partition(" = ")
    mid = Fraction(rest.split()[0])
    return label.strip(), mid, float(rest.rsplit("+/- ", 1)[1])


def _verify_outcome(out: Outcome, text: str) -> None:
    """Split verify output into exact lines and enclosure lines."""
    for line in text.splitlines():
        if "+/-" in line:
            out.enclosed.append(_enclosure_line(line))
        else:
            out.exact.append(line)
        if "FAILED" in line or line.startswith("verdict: FAIL"):
            out.problem = out.problem or f"verify reported {line.strip()!r}"


def _labelled_value(text: str, label: str) -> Fraction:
    for line in text.splitlines():
        if line.startswith(label + " = "):
            return Fraction(line.split()[2])
    raise ValueError(f"no {label} line")


def _members(text: str) -> list[list[tuple[Fraction, Fraction]]]:
    members = []
    for line in text.splitlines():
        if line.startswith("member:"):
            members.append([tuple(Fraction(t) for t in tok.split(":"))
                            for tok in line[len("member:"):].split()])
    return members


def _verify_reference(out: Outcome, text: str, ref: reference.Chain) -> None:
    """The exact values verify printed must equal the independent reference."""
    n = len(ref.m_list)
    try:
        got = (tuple(_labelled_value(text, f"M_{i}") for i in range(1, n + 1)),
               _labelled_value(text, "exact_E"), _labelled_value(text, "mixture_E"),
               _labelled_value(text, "M_bar"), _labelled_value(text, "upper"))
    except ValueError as exc:
        out.problem = out.problem or f"verify output: {exc}"
        return
    if got != (ref.m_list, ref.exact_e, ref.mixture_e, ref.m_bar, ref.upper):
        out.problem = out.problem or "verify differs from the independent reference"


def _down_outcome(out: Outcome, text: str, file_text: str, before, ref: reference.Chain,
                  lo: Fraction, hi: Fraction) -> None:
    """Check a down-projection by its certificates.

    The endpoint shares come from a root enclosure, so only what they must
    preserve is exact: every atom outside [lo, hi], and each member's total
    mass on the interval, which the projection moves onto lo and hi.  The
    similar means and the expected max of the result are recomputed by the
    independent reference.
    """
    for line in text.splitlines():
        label, _, value = line.partition(" = ")
        if label.startswith("m_residual"):
            if abs(Fraction(value.split()[0])) > TOL:
                out.problem = f"{label} exceeds the tolerance"
        elif label == "e_delta":
            if Fraction(value.split()[0]) > TOL:
                out.problem = "down projection raised the expected max"
    after = _members(file_text)
    if len(before) != len(after):
        out.problem = "down projection changed the member count"
        return
    for old, new in zip(before, after):
        if any(lo < v < hi for v, _ in new):
            out.problem = "down projection left mass strictly inside"
        outside_old = [(v, m) for v, m in old if not lo <= v <= hi]
        outside_new = [(v, m) for v, m in new if not lo <= v <= hi]
        if outside_old != outside_new:
            out.problem = "down projection moved mass outside the interval"
        out.exact.extend(v for pair in outside_new for v in pair)
        out.exact.append(sum((m for v, m in new if lo <= v <= hi), Fraction(0)))
    moved = reference.chain(after)
    if any(abs(a - b) > TOL for a, b in zip(moved.m_list, ref.m_list)):
        out.problem = "down projection moved a similar mean beyond the tolerance"
    if moved.exact_e - ref.exact_e > TOL:
        out.problem = "down projection raised the expected max"


# ---------------------------------------------------------------------------
# chain-ladder


def chain_ladder(mx, rng: random.Random, work: Path, cli: Cli) -> list[Item]:
    items = []
    for n, k, count in LADDER:
        for j in range(count):
            members = gen.ladder(rng, n, k)
            ref = reference.chain(members)
            path = work / f"chain-n{n}k{k}-{j}.txt"
            path.write_text(gen.render(members, f"n{n}k{k}-{j}"))

            def run(path=path):
                doc = mx.cli.parse_assembly_text(path.read_text())
                return mx.bounds.full_report(doc.assembly)

            def check(report, ref=ref):
                out = Outcome(exact=_chain_exact(report))
                if not report.chain.all_ok or report.holder is not None:
                    out.problem = "bound chain not certified"
                got = (report.m_list, report.exact_e, report.mixture_e,
                       report.m_bar, report.upper)
                if got != (ref.m_list, ref.exact_e, ref.mixture_e, ref.m_bar, ref.upper):
                    out.problem = "exact values differ from the independent reference"
                return out

            items.append(Item(f"chain_s.n{n}k{k}", path.name, run, check))
    return items


def top_rung_files(work: Path) -> list[Path]:
    n, k, _ = LADDER[-1]
    return sorted(work.glob(f"chain-n{n}k{k}-*.txt"))


# ---------------------------------------------------------------------------
# cli-stream


def cli_stream(mx, rng: random.Random, work: Path, cli: Cli) -> list[Item]:
    items = []
    out_file = work / "stream-out.txt"
    for idx in range(STREAM_ITEMS):
        case = gen.stream_case(rng, idx)
        ref = reference.chain(case.members)
        path = work / f"stream-{idx}.txt"
        path.write_text(case.text)
        f = gen.fraction_str
        lo, hi = case.down
        transforms = [("down", ["--op", "down", "--lo", f(lo), "--hi", f(hi)])]
        if case.coalesce is not None:
            m, a, b = case.coalesce
            transforms.append(("coalesce", ["--op", "coalesce", "--member", str(m),
                                            "--lo", f(a), "--hi", f(b)]))
        if case.reduce is not None:
            m, a, b = case.reduce
            transforms.append(("reduce", ["--op", "reduce", "--member", str(m),
                                          "--lo", f(a), "--hi", f(b)]))

        def run(path=path, idx=idx, n=len(case.members), transforms=transforms):
            p = str(path)
            results = [cli(["verify", p]),
                       cli(["verify", p, "--samples", str(STREAM_MC_SAMPLES),
                            "--seed", str(idx)])]
            files = []
            for _, args in transforms:
                results.append(cli(["transform", p, *args, "--out", str(out_file)]))
                files.append(out_file.read_text() if results[-1][0] == 0 else "")
            results.append(cli(["extremal", "--n", str(n), "--equal", "1",
                                "--epsilon", "1/1000", "--out", str(out_file)]))
            files.append(out_file.read_text() if results[-1][0] == 0 else "")
            doc = mx.cli.parse_assembly_file(p)
            return results, files, mx.oracle.enumerate_expected_max(doc.assembly)

        def check(raw, case=case, ref=ref, transforms=transforms):
            results, files, enumerated = raw
            out = Outcome()
            for rc, _, err in results:
                out.problem = out.problem or _bad_exit(rc, err)
            if out.problem:
                return out
            verify, verify_mc, *rest = results
            for text in (verify[1], verify_mc[1]):
                _verify_outcome(out, text)
                _verify_reference(out, text, ref)
            for (op, _), (_, text, _), file_text in zip(transforms, rest, files):
                if op == "down":
                    _down_outcome(out, text, file_text, case.members, ref, *case.down)
                else:
                    out.exact.extend([text.replace(str(out_file), "OUT"), file_text])
            out.exact.extend([rest[-1][1].replace(str(out_file), "OUT"), files[-1], enumerated])
            if enumerated != ref.exact_e:
                out.problem = out.problem or "enumeration disagrees with the reference"
            return out

        items.append(Item("item_s", path.name, run, check))
    return items


WORKLOADS = {
    "chain-ladder": chain_ladder,
    "cli-stream": cli_stream,
}
