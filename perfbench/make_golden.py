"""Regenerate golden.json: the exact outputs of every item for fixed seeds.

    python3 perfbench/make_golden.py

Run it from the root of a checkout of the commit whose outputs are the
reference; run.py then fails any item whose outputs differ.  Each item
stores the digest of its exact outputs and, for root-derived values, the
midpoint of each enclosure to 12 significant digits.
"""

from __future__ import annotations

import json
import random
import shutil
import sys

import items as workloads
import run

SEEDS = range(16)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import maxmix.cli  # noqa: F401

    _, proc = run.run_probe()
    if proc.returncode != 0:
        print(f"error: set-up probe failed: {proc.stderr}", file=sys.stderr)
        return 1
    golden = {"setup": workloads.Outcome(exact=[proc.stdout]).digest(), "workloads": {}}
    for name, build in workloads.WORKLOADS.items():
        per_seed = golden["workloads"][name] = {}
        for seed in SEEDS:
            work = run.HERE / ".work" / f"golden-{name}-{seed}"
            work.mkdir(parents=True)
            try:
                cli = workloads.Cli(sys.modules["maxmix"])
                items = build(sys.modules["maxmix"], random.Random(seed), work, cli)
                _, _, outcomes = run.run_pass(items)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            bad = [f"{it.label}: {o.problem}" for it, o in zip(items, outcomes) if o.problem]
            if bad:
                print(f"error: {name} seed {seed}: {bad}", file=sys.stderr)
                return 1
            per_seed[str(seed)] = [
                [o.digest(), [float(f"{float(mid):.12g}") for _, mid, _ in o.enclosed]]
                for o in outcomes
            ]
            print(f"{name} seed {seed}: {len(items)} items", flush=True)
    run.GOLDEN.write_text(json.dumps(golden, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
