"""Seeded mutation fuzz of the system-file route.

Each built-in document, with the ``time = t`` line that older files
carry added after its frame, is mutated a line at a time: every line,
``ROUNDS`` times, is deleted, duplicated or swapped with another, or has
one of its tokens replaced by one of ``REPLACEMENTS``.  Every mutant
runs in process through cheap forms of ``verify``, ``simulate`` and
``discover``, which must end with exit 0, 1 or 2, raise nothing out of
``cli.main`` and print no traceback.  The cases come from ``random.Random`` with fixed
seeds over ordered sequences, so they are the same under every
``PYTHONHASHSEED``.
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
REPLACEMENTS = ("t", "x", "0", "1e400", "-", "(", ";", "")
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
