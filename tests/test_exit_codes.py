"""The exit-code contract: the class of an error alone decides the code.

Refused input raises ``expr.InputError`` and exits 2; every other error
biham3 defines is a run-time failure and exits 1.  A new error class
must take a side here before it can reach the CLI.
"""

import importlib
import pkgutil

import pytest

import biham3
from biham3 import expr as ex
from biham3.cli import main

# the errors that mean a run failed, not that its input was refused
RUN_TIME_FAILURES = {
    "biham3.discover.DiscoveryError",  # the sampled nullity check failed
    "biham3.expr.DomainError",  # an evaluation failed
    "biham3.expr.UnboundSymbolError",
    "biham3.integrate._Abort",  # ends an integration run, never leaves integrate
}
# the base of both kinds, caught last
BASES = {"biham3.expr.ExprError"}


def _error_classes():
    out = {}
    for info in pkgutil.iter_modules(biham3.__path__, "biham3."):
        mod = importlib.import_module(info.name)
        for value in vars(mod).values():
            if isinstance(value, type) and issubclass(value, BaseException):
                if value.__module__ == info.name:
                    out[f"{info.name}.{value.__qualname__}"] = value
    return out


def test_every_error_class_chooses_its_exit_code():
    classes = _error_classes()
    inputs = {name for name, cls in classes.items() if issubclass(cls, ex.InputError)}
    assert set(classes) - inputs == RUN_TIME_FAILURES | BASES


UNDECLARED = "name = s\nframe = u v w\nfield = beta*v ; -u ; 0\n"


@pytest.mark.parametrize(
    "flags",
    [
        ["verify", "--samples", "20"],
        ["simulate", "--init", "1,1,1", "--t1", "0.1"],
        ["discover", "--degree", "1"],
    ],
    ids=["verify", "simulate", "discover"],
)
def test_an_undeclared_parameter_is_refused_input(tmp_path, capsys, flags):
    path = tmp_path / "undeclared.system"
    path.write_text(UNDECLARED)
    command, *rest = flags
    assert main([command, str(path), *rest]) == 2
    err = capsys.readouterr().err
    assert err == "error: field uses 'beta', which is neither a variable nor a declared parameter\n"
