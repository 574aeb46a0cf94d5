"""What a fresh interpreter loads when it imports the command-line module.

Every ``maxmix`` module must load at start-up: the benchmark's set-up probe
requires bytecode for each of them after one ``verify``.  numpy must not
load: only the Monte Carlo oracle needs it, and it imports numpy itself, so
commands that do not sample skip its import time and memory.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = ("import sys, json; sys.path.insert(0, sys.argv[1]); import maxmix.cli; "
         "print(json.dumps(sorted(sys.modules)))")


def _loaded() -> set[str]:
    proc = subprocess.run([sys.executable, "-I", "-c", CHILD, str(SRC)],
                          capture_output=True, text=True, timeout=60, check=True)
    return set(json.loads(proc.stdout))


def test_import_loads_every_module_and_not_numpy():
    loaded = _loaded()
    expected = {"maxmix" if p.stem == "__init__" else f"maxmix.{p.stem}"
                for p in (SRC / "maxmix").glob("*.py")}
    assert len(expected) > 1
    assert expected <= loaded, sorted(expected - loaded)
    assert "numpy" not in loaded
