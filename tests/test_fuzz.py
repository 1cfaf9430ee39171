"""Seeded mutation fuzz of the system-file route, the flags and the
expression text.

Each built-in document, with the ``time = t`` line that older files
carry added after its frame, is mutated a line at a time: every line,
``ROUNDS`` times, is deleted, duplicated or swapped with another, or has
one of its tokens replaced by one of ``REPLACEMENTS``.  Every mutant
runs in process through cheap forms of ``verify``, ``simulate`` and
``discover``, which must end with exit 0, 1 or 2, raise nothing out of
``cli.main`` and print no traceback.  An undeclared name in a formula
is refused input (exit 2), never an evaluation failure.

The flags of ``verify``, ``simulate`` and ``discover`` and the expression
text of ``bracket`` are mutated the same way: one or two flag values, or
one token of one ``bracket`` argument.  Each case ends with 0, 1 or 2,
argparse's own exit included, prints no traceback, and prints ``error:``
or argparse's ``usage:`` when it exits 2.

The cases come from ``random.Random`` with fixed seeds over ordered
sequences, so they are the same under every ``PYTHONHASHSEED``.
"""

import random
import re

import pytest

from biham3 import catalog as cat
from biham3.cli import main

SEED = 2015
ROUNDS = 3  # mutations of each line of each document
TOKEN_SHARE = 0.75  # of the mutations; the others delete, duplicate or swap the line
# the mutated lines' keys are counted; the cases must reach each of these
KEYS = ("time", "frame", "printed.", "transform.", "note", "requires_nonzero")
REPLACEMENTS = ("t", "x", "zeta", "0", "1e400", "-", "(", ";", "")
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z_0-9.]*|\d+(?:\.\d*)?(?:e[+-]?\d+)?|\S")
COMMANDS = (
    ("verify", "--samples", "20", "--seed", "1", "--deterministic"),
    ("simulate", "--init", "1,1,1", "--t1", "0.2", "--sample-dt", "0.05"),
    ("discover", "--degree", "1", "--seed", "1"),
)


def _key(line):
    key = line.partition("=")[0].strip()
    for k in KEYS:
        if key == k or (k.endswith(".") and key.startswith(k)):
            return k
    return None


def _lines(name):
    """The built-in document's lines, with ``time = t`` after the frame."""
    lines = cat._DOCUMENTS[name].splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("frame")) + 1
    return lines[:at] + ["time = t"] + lines[at:]


def _mutate(rng, lines, at):
    """One mutation of line ``at``: (operation, key of the line, new lines)."""
    op = "token" if rng.random() < TOKEN_SHARE else rng.choice(("delete", "duplicate", "swap"))
    out = list(lines)
    if op == "delete":
        del out[at]
    elif op == "duplicate":
        out.insert(at, out[at])
    elif op == "swap":
        j = rng.randrange(len(out))
        out[at], out[j] = out[j], out[at]
    else:
        a, b = rng.choice([m.span() for m in _TOKEN.finditer(out[at])])
        out[at] = out[at][:a] + rng.choice(REPLACEMENTS) + out[at][b:]
    return op, _key(lines[at]), out


def _mutants(name):
    """ROUNDS mutations of each line of the document, in line order."""
    rng = random.Random(SEED + cat.BUILTIN_NAMES.index(name))
    lines = _lines(name)
    return [_mutate(rng, lines, at) for at in range(len(lines)) for _ in range(ROUNDS)]


def test_the_mutants_reach_every_key_operation_and_token():
    mutants = [m for name in cat.BUILTIN_NAMES for m in _mutants(name)]
    assert {key for _, key, _ in mutants} >= set(KEYS)
    assert {op for op, _, _ in mutants} == {"delete", "duplicate", "swap", "token"}
    texts = ["\n".join(lines) for _, _, lines in mutants]
    for token in REPLACEMENTS[:-1]:
        assert any(token in t for t in texts), token


@pytest.mark.parametrize("name", cat.BUILTIN_NAMES)
def test_mutated_documents_end_cleanly(tmp_path, capsys, name):
    path = tmp_path / f"{name}.system"
    for op, key, lines in _mutants(name):
        text = "\n".join(lines) + "\n"
        path.write_text(text)
        for command, *flags in COMMANDS:
            argv = [command, str(path), *flags]
            try:
                code = main(argv)
            except (Exception, SystemExit) as err:  # anything escaping main is the failure
                pytest.fail(f"{argv} raised {err!r} ({op} of a {key} line) on\n{text}")
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (argv, code, text)
            assert "Traceback" not in err, (argv, err, text)
            assert "unbound symbol" not in err, (argv, err, text)


CASES = 40  # mutated argument lists per base below
# values by kind: working, edge and refused ones
VALUES = {
    "int": ("-1", "0", "2", "999999999999", "1e400", "x", ""),
    "float": ("-1", "0", "1e-300", "1e300", "nan", "inf", "-inf", "x", ""),
    "init": ("0,0,0", "1,1", "1,1,1,1", "nan,1,1", "1e400,0,0", "x,1,1", ""),
    "param": ("alpha=0", "gamma=-1", "alpha=1e400", "alpha=1/0", "alpha=", "=1", "zeta=1", "alpha"),
    "method": ("adaptive", "rk4", "x"),
    "monitors": ("h1", "h3", "h1,h1", ",", ""),
    "weights": ("0..1", "-3..-3", "2..1", "1..", "0..999999999999", "x"),
    "rate": ("0", "u", "alpha", "zeta", "1e400", "ln(0)", "(", ""),
    "functional": ("total", "spatial", "multiplier", "x"),
}
# each command's system and flags: {flag: (working value, kind)}
FLAGS = {
    "verify": (
        "lu-original",
        {"--samples": ("20", "int"), "--seed": ("1", "int"), "--tol": ("1e-12", "float"),
         "--param": ("alpha=2", "param")},
    ),
    "simulate": (
        "qi",
        {
            "--init": ("1,1,1", "init"), "--t0": ("0", "float"), "--t1": ("0.2", "float"),
            "--method": ("adaptive", "method"), "--step": ("0.05", "float"), "--tol": ("1e-10", "float"),
            "--max-step": ("0.1", "float"), "--sample-dt": ("0.05", "float"),
            "--monitors": ("h1,h2", "monitors"), "--param": ("gamma=2", "param"),
        },
    ),
    "discover": (
        "lu-transformed",
        {
            "--degree": ("1", "int"), "--weights": ("-1..0", "weights"), "--rate": ("1", "rate"),
            "--functional": ("multiplier", "functional"), "--samples": ("200", "int"),
            "--seed": ("1", "int"), "--param": ("alpha=1", "param"),
        },
    ),
}
# (--j, --f, --h, --at)
BRACKETS = (
    ("0;0;1", "u", "v", "u=1,v=2,w=3,t=0"),
    ("0;v;w", "u", "1/2*u^2-w", "u=1,v=2,w=3,t=0"),
    ("2*u;0;-2*alpha", "u^2 - 2*alpha*w", "exp(-t)*(u^2+v^2)/4", "u=1,v=2,w=3,t=0.5,alpha=2"),
    ("x;y;z", "ln(x)", "sin(y)*cos(z)", "x=1,y=2,z=3,t=0"),
)
EXPR_REPLACEMENTS = (
    "t", "x", "zeta", "0", "-1", "1e400", "1e-400", "-", "^", "*", "/", "(", ")", ";", ",", "=",
    "exp", "ln", "sin(", "",
)


def _run(argv, capsys):
    """The exit code and stderr of one in-process run; argparse's own
    exit counts as its code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # anything else escaping main is the failure
        pytest.fail(f"{argv} raised {exc!r}")
    return code, capsys.readouterr().err


def _assert_clean(argv, code, err):
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 2:
        assert "error:" in err or "usage:" in err, (argv, err)


def _flag_cases(command):
    """CASES argument lists, each with one or two flag values replaced."""
    system, flags = FLAGS[command]
    rng = random.Random(SEED + len(command))
    cases = []
    for _ in range(CASES):
        values = {flag: value for flag, (value, _) in flags.items()}
        for flag in rng.sample(sorted(flags), rng.choice((1, 2))):
            values[flag] = rng.choice(VALUES[flags[flag][1]])
        # "--flag=value", so that a value starting with "-" stays a value
        cases.append([command, system, *(f"{k}={v}" for k, v in values.items())])
    return cases


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_mutated_flags_end_cleanly(capsys, command):
    codes = set()
    for argv in _flag_cases(command):
        code, err = _run(argv, capsys)
        _assert_clean(argv, code, err)
        codes.add(code)
    # the cases reach both a finished run and a refusal
    assert 2 in codes and codes & {0, 1}, codes


def _bracket_cases(base, index):
    """CASES mutants of one BRACKETS entry: one token of one argument replaced."""
    rng = random.Random(SEED + index)
    cases = []
    for _ in range(CASES):
        args = list(base)
        i = rng.randrange(len(args))
        a, b = rng.choice([m.span() for m in _TOKEN.finditer(args[i])])
        args[i] = args[i][:a] + rng.choice(EXPR_REPLACEMENTS) + args[i][b:]
        cases.append(args)
    return cases


@pytest.mark.parametrize("index", range(len(BRACKETS)))
def test_mutated_expression_text_ends_cleanly(capsys, index):
    codes = set()
    for j, f, h, at in _bracket_cases(BRACKETS[index], index):
        argv = ["bracket", f"--j={j}", f"--f={f}", f"--h={h}"]
        for tail in ([], [f"--at={at}"]):
            code, err = _run(argv + tail, capsys)
            _assert_clean(argv + tail, code, err)
            codes.add(code)
    assert {0, 2} <= codes, codes
