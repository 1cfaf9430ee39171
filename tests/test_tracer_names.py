"""The benchmark tracer (``perfbench/trace.py``) looks up biham3 functions
and methods by name.  Installing and uninstalling it over every biham3
module must succeed and leave each module and class as it found it, so a
removed or renamed name fails here rather than in a traced benchmark run.
"""

import importlib
import sys

from perfbench import trace


def _namespaces():
    """Every biham3 module and class namespace, as {owner: {name: value}}."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "biham3" or name.startswith("biham3.")):
            continue
        out[name] = dict(vars(mod))
        for attr, value in vars(mod).items():
            if isinstance(value, type) and value.__module__ == name:
                out[f"{name}.{attr}"] = dict(vars(value))
    return out


def test_tracer_installs_and_restores_every_name():
    for name in trace._MODULES:
        importlib.import_module(f"biham3.{name}")
    before = _namespaces()
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, attr) is wrapper for owner, attr, _, wrapper, _ in tracer._patches)
        assert _namespaces() != before
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original, *_ in tracer._patches)
    after = _namespaces()
    for owner, names in before.items():
        changed = [n for n, v in names.items() if after[owner].get(n) is not v]
        assert not changed, f"{owner}: {changed} not restored"
