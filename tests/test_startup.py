"""What a fresh interpreter loads when it runs ``maxmix verify``.

Every ``maxmix`` module must load at start-up: the benchmark's set-up probe
requires bytecode for each of them after one ``verify``.  numpy must not
load: only the Monte Carlo oracle needs it, and it imports numpy itself, so
commands that do not sample skip its import time and memory.  Neither may
``dataclasses`` (which pulls in ``inspect``, ``ast``, ``dis`` and
``tokenize``) nor ``csv``, which only ``sweep`` imports.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = ("import sys, json; sys.path.insert(0, sys.argv[1]); "
         "from maxmix.cli import main; code = main(['verify', sys.argv[2]]); "
         "print(json.dumps([code, sorted(sys.modules)]))")

PAIR = "bound: 1\nn: 2\nmember: 0:1/2 1:1/2\nmember: 0:1/4 1:3/4\n"


def _loaded(tmp_path) -> set[str]:
    path = tmp_path / "pair.txt"
    path.write_text(PAIR, encoding="utf-8")
    # -S: modules that site-packages hooks load do not count against maxmix
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", CHILD, str(SRC), str(path)],
                          capture_output=True, text=True, timeout=60, check=True)
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stdout
    return set(modules)


def test_import_loads_every_module_and_not_numpy(tmp_path):
    loaded = _loaded(tmp_path)
    expected = {"maxmix" if p.stem == "__init__" else f"maxmix.{p.stem}"
                for p in (SRC / "maxmix").glob("*.py")}
    assert len(expected) > 1
    assert expected <= loaded, sorted(expected - loaded)
    assert not {"numpy", "dataclasses", "inspect", "csv"} & loaded
