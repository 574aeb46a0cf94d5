"""The traced run: per-layer spans recorded around calls into maxmix.

Nothing inside ``src/`` changes.  Each traced function is replaced, for the
duration of a pass, in every ``maxmix`` module that holds it: ``nth_root``
is imported by name into ``maxmix.bounds`` and ``maxmix.transforms``, so
wrapping ``maxmix.enclosure.nth_root`` alone would miss those calls.  A
function that no longer exists is reported as absent, not as an error, so
the benchmark survives refactors that retire it.

A span's self time is its duration minus the time of the spans it
encloses.  Times are medians over the traced passes; counts come from the
first traced pass and must repeat exactly in every other one.
"""

from __future__ import annotations

import contextlib
import functools
import math
import statistics
import sys
import time
from fractions import Fraction


def _bits(x) -> int:
    x = Fraction(x)
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _atoms(rec, args, result):
    rec.add("cli.parse.atoms", sum(len(d.atoms) for d in result.assembly.members))


def _merged_points(rec, args, result):
    rec.add("dist.product_of.merged_points", len(result.breakpoints))


def _max_bits(name):
    def observe(rec, args, result):
        values = result if isinstance(result, tuple) else (result,)
        rec.high(name, max(_bits(v) for v in values))
    return observe


def _root(rec, args, result):
    rec.high("enclosure.nth_root.arg_bits", _bits(args[0]))
    rec.add("enclosure.nth_root.exact", int(result.lo == result.hi))


def _outcomes(rec, args, result):
    rec.add("oracle.enumerate.outcomes", math.prod(len(d.atoms) for d in args[0].members))


def _samples(rec, args, result):
    rec.add("oracle.mc.samples", args[1])


#: (span, module, class or None, attribute, observer of (args, result) or None)
TARGETS = (
    ("cli.main", "maxmix.cli", None, "main", None),
    ("cli.parse", "maxmix.cli", None, "parse_assembly_text", _atoms),
    ("cli.render", "maxmix.cli", None, "render_assembly", None),
    ("cli.render", "maxmix.cli", None, "_show", None),
    ("cli.render", "maxmix.cli", None, "_check_line", None),
    ("dist.similar_means", "maxmix.dist", "Assembly", "similar_means",
     _max_bits("dist.similar_means.bits")),
    ("dist.expected_max", "maxmix.dist", "Assembly", "expected_max",
     _max_bits("dist.expected_max.bits")),
    ("dist.product_of", "maxmix.dist", "SurvivalStep", "product_of", _merged_points),
    ("dist.mixture", "maxmix.dist", "Assembly", "mixture", None),
    ("dist.from_pairs", "maxmix.dist", "FiniteDistribution", "from_pairs", None),
    ("bounds.full_report", "maxmix.bounds", None, "full_report", None),
    ("bounds.mixture_lower", "maxmix.bounds", None, "mixture_lower",
     _max_bits("bounds.mixture_lower.bits")),
    ("bounds.holder_lower", "maxmix.bounds", None, "holder_lower", None),
    ("bounds.gam_gap", "maxmix.bounds", None, "gam_gap", None),
    ("enclosure.nth_root", "maxmix.enclosure", None, "nth_root", _root),
    ("transforms.down_project", "maxmix.transforms", None, "down_project", None),
    ("transforms.coalesce", "maxmix.transforms", None, "coalesce", None),
    ("transforms.reduce_pair", "maxmix.transforms", None, "reduce_pair", None),
    ("extremal.build", "maxmix.extremal", None, "build", None),
    ("extremal.gap", "maxmix.extremal", None, "gap", None),
    ("oracle.enumerate", "maxmix.oracle", None, "enumerate_expected_max", _outcomes),
    ("oracle.mc", "maxmix.oracle", None, "mc_expected_max", _samples),
)
SPANS = tuple(dict.fromkeys(t[0] for t in TARGETS))
#: Counts recorded by the observers, with their units, and the span each needs.
COUNTS = {
    "cli.parse.atoms": ("count", "cli.parse"),
    "dist.product_of.merged_points": ("count", "dist.product_of"),
    "dist.similar_means.bits": ("bits", "dist.similar_means"),
    "dist.expected_max.bits": ("bits", "dist.expected_max"),
    "bounds.mixture_lower.bits": ("bits", "bounds.mixture_lower"),
    "enclosure.nth_root.arg_bits": ("bits", "enclosure.nth_root"),
    "enclosure.nth_root.exact": ("count", "enclosure.nth_root"),
    "oracle.enumerate.outcomes": ("count", "oracle.enumerate"),
    "oracle.mc.samples": ("count", "oracle.mc"),
}


class Recorder:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = {name: [0, 0.0, 0.0] for name in SPANS}  # calls, total, self
        self.counts = {name: 0 for name in COUNTS}
        self._stack: list[float] = []  # time of the children of each open span

    def add(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def high(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts[name], value)

    def wrap(self, span: str, fn, observe):
        stack = self._stack
        stats = self.spans[span]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - children
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, absent: set[str]):
        """Wrap every target where it is looked up; restore on exit."""
        undo = []
        found = set()
        try:
            for span, modname, clsname, attr, observe in TARGETS:
                module = sys.modules.get(modname)
                owner = getattr(module, clsname, None) if clsname else module
                raw = vars(owner).get(attr) if owner is not None else None
                if raw is None:
                    continue
                found.add(span)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(span, raw.__func__, _drop_self(observe)))
                    undo.append((owner, attr, raw))
                    setattr(owner, attr, wrapped)
                    continue
                wrapped = self.wrap(span, raw, observe if clsname is None
                                    else _drop_self(observe))
                for name, mod in list(sys.modules.items()):
                    if name.split(".")[0] != "maxmix" or mod is None:
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            undo.append((mod, key, raw))
                            setattr(mod, key, wrapped)
                if clsname is not None:
                    undo.append((owner, attr, raw))
                    setattr(owner, attr, wrapped)
            absent.update(set(SPANS) - found)
            yield self
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)


def _drop_self(observe):
    """An observer of a method or classmethod sees the arguments after self or cls."""
    if observe is None:
        return None
    return lambda rec, args, result: observe(rec, args[1:], result)


def import_times(run_probe) -> tuple[float, float]:
    """Cumulative import time of numpy and of maxmix, from ``-X importtime``."""
    _, proc = run_probe(("-X", "importtime"))
    numpy_us = maxmix_us = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, package = line.split("|")
        top_level = package.startswith(" ") and not package.startswith("  ")
        name = package.strip()
        if top_level and name.split(".")[0] == "maxmix":
            maxmix_us += int(cumulative)
        elif name == "numpy":
            numpy_us = int(cumulative)
    return numpy_us / 1e6, maxmix_us / 1e6


def best_pass(passes: list[list[float]]) -> float:
    """A pass at each item's best time, as run.py reports ``wall_s``."""
    return sum(min(ts) for ts in zip(*passes))


def traced_run(seconds, items, cli, checker, run_pass, run_probe, defect_files):
    """Alternate untraced and traced passes; report the per-layer metrics."""
    import_numpy_s, import_maxmix_s = import_times(run_probe)
    # known defect, recorded as a count and never timed: verify dies while
    # printing a rational of more than 4300 digits
    cli.verify_nonzero = 0
    for path in defect_files:
        cli(["verify", str(path)])
    defect_exits = cli.verify_nonzero

    untraced, traced = [], []
    attempted = failed = 0
    absent: set[str] = set()
    start = time.perf_counter()
    while True:
        _, times, outcomes = run_pass(items)
        untraced.append(times)
        rec = Recorder()
        cli.verify_nonzero = 0
        with rec.installed(absent):
            _, times, traced_outcomes = run_pass(items)
        traced.append((times, rec, cli.verify_nonzero))
        for i, (item, outcome) in enumerate(zip(items * 2, outcomes + traced_outcomes)):
            attempted += 1
            failed += checker.failed(i % len(items), item, outcome)
        if time.perf_counter() - start >= seconds and len(traced) >= 2:
            break

    def counts(entry):
        _, rec, nonzero = entry
        return [s[0] for s in rec.spans.values()], rec.counts, nonzero

    if any(counts(t) != counts(traced[0]) for t in traced[1:]):
        checker.reasons["traced counts differ between passes"] = 1

    first = traced[0][1]
    metrics = {}

    def put(name, value, unit, span):
        metrics[name] = {"value": value, "unit": unit}
        if span in absent:
            metrics[name] = {"value": 0, "unit": unit, "absent": True}

    for span in SPANS:
        put(f"{span}_s", statistics.median(t[1].spans[span][1] for t in traced), "s", span)
        put(f"{span}.self_s", statistics.median(t[1].spans[span][2] for t in traced), "s", span)
        put(f"{span}.calls", first.spans[span][0], "count", span)
    for name, (unit, span) in COUNTS.items():
        put(name, first.counts[name], unit, span)
    put("cli.verify.nonzero_exits", defect_exits + traced[0][2], "count", "cli.main")
    put("setup.import_numpy_s", import_numpy_s, "s", None)
    put("setup.import_maxmix_s", import_maxmix_s, "s", None)
    put("trace.overhead_s", best_pass([t[0] for t in traced]) - best_pass(untraced), "s", None)
    note = (f"{len(traced)} traced and {len(untraced)} untraced passes; "
            f"absent: {', '.join(sorted(absent)) or 'none'}")
    return metrics, attempted, failed, note
