"""`scripts/profile_pass.py` counts a solve and leaves the package as it was.

The script rebinds functions and methods of every `twocenter` module for
its counting pass; a binding it failed to restore would change what every
later caller runs, so each one is compared with the object it held before.
"""
import importlib.util
import pathlib
import sys
from collections import Counter

from twocenter.driver import two_center
from twocenter.instances import generate
from twocenter.polygon import SimplePolygon

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "profile_pass.py"


def _script():
    spec = importlib.util.spec_from_file_location("profile_pass", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _bindings():
    """(owner, name, value) for every attribute of the package's modules
    and of the classes they define."""
    out = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "twocenter" or name.startswith("twocenter.")):
            continue
        for attr, val in vars(mod).items():
            out.append((mod, attr, val))
            if isinstance(val, type) and val.__module__ == name:
                out.extend((val, key, member) for key, member in vars(val).items())
    return out


def test_counting_pass_counts_and_restores(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))    # the script extends it
    script = _script()
    before = _bindings()
    inst = generate("convex", 12, 6, 0)
    poly = SimplePolygon(inst.polygon)
    ops = [("convex/12x6/s0", lambda: two_center(poly, inst.points))]
    inter = script.Repeats("disks_intersection")
    basis = script.Repeats("_disk2"), script.Repeats("_solve3")
    calls = Counter()

    errors = script.counting_pass(ops, inter, basis, calls)

    assert not errors
    moved = [f"{getattr(owner, '__name__', owner)}.{name}" for owner, name, val in before
             if vars(owner).get(name) is not val]
    assert moved == []
    assert calls["orientation"] > 0
    assert calls["decide"] > 0
    assert sum(n for key, n in calls.items() if key.startswith("solve.")) > 0
