"""Every name the traced benchmark wraps still exists where it is looked up.

``perfbench/spans.py`` reports a traced function that has gone as an absent
span reading 0, so a refactor that deletes or moves one would change the
benchmark's metrics rather than fail.  This test reads the target list from
that file, changing nothing in it, and fails first.
"""

import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    """The (span, module, class, attribute) of each target, from the source alone."""
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), namespace)
    return [t[:4] for t in namespace["TARGETS"]]


TARGETS = _targets()


@pytest.mark.parametrize("span, modname, clsname, attr", TARGETS,
                         ids=[f"{span}:{attr}" for span, _, _, attr in TARGETS])
def test_target_resolves(span, modname, clsname, attr):
    owner = importlib.import_module(modname)
    if clsname is not None:
        assert clsname in vars(owner), f"{span}: {modname}.{clsname} is gone"
        owner = vars(owner)[clsname]
    assert attr in vars(owner), f"{span}: {attr} is gone from {owner.__name__}"
