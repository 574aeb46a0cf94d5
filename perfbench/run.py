"""Seeded benchmark of maxmix: one process, one thread, closed loop.

    python3 perfbench/run.py --workload chain-ladder --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``./src``.  Inputs are generated from ``--seed`` before any timing.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run.  See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import items as workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PAIR = HERE / "pair.txt"
GOLDEN = HERE / "golden.json"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Share of the measured period spent in set-up probes, spread between passes.
SETUP_SHARE = 0.15
MIN_PROBES = 9
MIN_PASSES = 3
#: A fresh interpreter that imports maxmix from ./src and verifies one file,
#: the fixed cost every ``maxmix`` command pays.
PROBE_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from maxmix.cli import main; sys.exit(main(['verify', sys.argv[2]]))")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def probe_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k in ("PATH", "HOME", "LANG", "TMPDIR")}
    env.update({v: "1" for v in THREAD_VARS})
    return env


def run_probe(extra_flags: tuple[str, ...] = ()) -> tuple[float, subprocess.CompletedProcess]:
    cmd = [sys.executable, "-I", *extra_flags, "-c", PROBE_CODE, str(SRC), str(PAIR)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=probe_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    return time.perf_counter() - t0, proc


class Setup:
    """Set-up probes: fresh ``python3 -I`` children, checked and timed."""

    def __init__(self, expected: str):
        self.expected = expected
        self.samples: list[float] = []
        self.problems: dict[str, int] = {}

    def check(self, proc: subprocess.CompletedProcess) -> None:
        digest = workloads.Outcome(exact=[proc.stdout]).digest()
        problem = None
        if proc.returncode != 0:
            problem = f"set-up probe exit {proc.returncode}: {proc.stderr[-200:]}"
        elif digest != self.expected:
            problem = "set-up probe output differs from the golden output"
        if problem:
            self.problems[problem] = self.problems.get(problem, 0) + 1

    def warm_up(self) -> None:
        """One untimed probe, after which every module must have bytecode."""
        _, proc = run_probe()
        self.check(proc)
        missing = [p.name for p in sorted((SRC / "maxmix").glob("*.py"))
                   if not Path(importlib.util.cache_from_source(str(p))).exists()]
        if missing:
            raise BenchError(f"no bytecode cache for src/maxmix after the warm-up "
                             f"probe ({', '.join(missing)}); is src/ writable?")

    def probe(self) -> None:
        dt, proc = run_probe()
        self.check(proc)
        self.samples.append(dt)


def load_golden(workload: str, seed: int):
    data = json.loads(GOLDEN.read_text())
    return data["setup"], data["workloads"][workload].get(str(seed))


class Checker:
    """Per-item correctness: own checks, determinism, and the golden values."""

    def __init__(self, golden, first: list[str]):
        self.golden = golden
        self.first = first  # the warm-up pass's digests
        self.reasons: dict[str, int] = {}

    def failed(self, index: int, item, outcome) -> bool:
        reason = outcome.problem
        digest = outcome.digest()
        if reason is None and digest != self.first[index]:
            reason = "exact outputs differ between passes"
        if reason is None and self.golden is not None:
            want_digest, want_enclosed = self.golden[index]
            if digest != want_digest:
                reason = "exact outputs differ from the golden values"
            elif not enclosures_overlap(outcome.enclosed, want_enclosed):
                reason = "enclosure misses the golden enclosure"
        if reason is None:
            return False
        key = f"{item.kind}: {reason}"
        self.reasons[key] = self.reasons.get(key, 0) + 1
        return True


def enclosures_overlap(got, want) -> bool:
    """Two valid enclosures of one real number must intersect.

    The golden side keeps only a rounded midpoint; FLOAT_SLACK covers the
    rounding and the golden radius, both far below it.
    """
    if len(got) != len(want):
        return False
    return all(abs(float(mid) - wmid) <= rad + workloads.FLOAT_SLACK * max(1.0, abs(wmid))
               for (_, mid, rad), wmid in zip(got, want))


def run_pass(items):
    """One closed-loop pass: each item starts when the previous one returns."""
    times, raws = [], []
    gc.collect()
    t0 = time.perf_counter()
    for item in items:
        t = time.perf_counter()
        try:
            raw = item.run()
        except Exception as exc:
            raw = exc
        times.append(time.perf_counter() - t)
        raws.append(raw)
    wall = time.perf_counter() - t0
    outcomes = []
    for item, raw in zip(items, raws):
        if isinstance(raw, Exception):
            outcomes.append(workloads.Outcome(problem=f"{type(raw).__name__}: {str(raw)[:200]}"))
            continue
        try:
            outcomes.append(item.check(raw))
        except Exception as exc:
            outcomes.append(workloads.Outcome(problem=f"check raised {type(exc).__name__}: {exc}"))
    return wall, times, outcomes


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def measure(items, seconds: float, setup: Setup, checker: Checker):
    """Timed passes until ``seconds`` have gone, with set-up probes between."""
    passes = []
    attempted = failed = 0
    start = time.perf_counter()
    probe_time = 0.0
    while True:
        wall, times, outcomes = run_pass(items)
        passes.append((wall, times, outcomes))
        for i, (item, outcome) in enumerate(zip(items, outcomes)):
            attempted += 1
            failed += checker.failed(i, item, outcome)
        while probe_time < SETUP_SHARE * (time.perf_counter() - start):
            t = time.perf_counter()
            setup.probe()
            probe_time += time.perf_counter() - t
        if time.perf_counter() - start >= seconds and len(passes) >= MIN_PASSES:
            break
    while len(setup.samples) < MIN_PROBES:
        setup.probe()
    return passes, attempted, failed


def end_to_end(workload: str, items, passes, setup: Setup) -> tuple[dict, str]:
    """The end-to-end metrics of the timed passes.

    Item times are each item's best over the passes: on a shared host,
    contention only ever adds time, and whole seconds at a time (NOTES.md).
    """
    best = [min(p[1][i] for p in passes) for i in range(len(items))]
    if workload == "cli-stream":
        q = statistics.quantiles(best, n=20)
        named = {"item_s.p50": statistics.median(best), "item_s.p75": q[14],
                 "item_s.p90": q[17]}
        detail = f"{sum(t > q[17] for t in best)} sessions above p90"
    else:
        named = {}
        for it, t in zip(items, best):
            named.setdefault(it.kind, []).append(t)
        named = {kind: statistics.mean(ts) for kind, ts in named.items()}
        detail = "per kind the mean over its items"
    m = {
        "setup_s": metric(statistics.median(setup.samples), "s"),
        "wall_s": metric(sum(best), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    slots = list(zip(workloads.SLOTS, workloads.CLASSES[workload]))
    for slot, name in slots:
        m[slot] = metric(named[name], "s")
    note = (f"setup_s: median of {len(setup.samples)} probes; "
            f"item times: best of {len(passes)} passes over {len(items)} items, {detail}; "
            + ", ".join(f"{slot} = {name}" for slot, name in slots))
    return m, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "maxmix" / "__init__.py").is_file():
        print(f"error: no maxmix package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # a terminated run still removes its files; subprocess.run kills a
    # running probe when the exit unwinds through it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.environ.update({v: "1" for v in THREAD_VARS})  # before numpy loads
    sys.path.insert(0, str(SRC))
    import maxmix.cli  # noqa: F401  (loads every submodule)

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        golden_setup, golden = load_golden(args.workload, args.seed)
        cli = workloads.Cli(sys.modules["maxmix"])
        items = workloads.WORKLOADS[args.workload](
            sys.modules["maxmix"], random.Random(args.seed), work, cli)
        if golden is not None and len(golden) != len(items):
            raise BenchError("golden values do not match the item list")
        setup = Setup(golden_setup)
        setup.warm_up()
        _, _, warm = run_pass(items)  # untimed: the first pass runs slower
        checker = Checker(golden, [o.digest() for o in warm])
        for i, (item, outcome) in enumerate(zip(items, warm)):
            checker.failed(i, item, outcome)

        if args.trace:
            import spans
            defect_files = (workloads.top_rung_files(work)
                            if args.workload == "chain-ladder" else [])
            metrics, attempted, failed, note = spans.traced_run(
                args.seconds, items, cli, checker, run_pass, run_probe, defect_files)
        else:
            passes, attempted, failed = measure(items, args.seconds, setup, checker)
            metrics, note = end_to_end(args.workload, items, passes, setup)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            work.parent.rmdir()

    problems = [f"{n} x {r}" for r, n in {**setup.problems, **checker.reasons}.items()]
    digest_all = workloads.Outcome(exact=checker.first).digest()
    print(f"workload {args.workload}, seed {args.seed}, golden "
          f"{'checked' if golden is not None else 'not stored for this seed'}; "
          f"digest of exact outputs {digest_all}")
    print(note)
    for p in problems:
        print(f"problem: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
