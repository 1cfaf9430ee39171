"""Pinned outputs: the verify reports, the sign-flipped controls' reports,
the README ``catalog``, ``verify`` and ``bracket`` examples, each checked
against the text or the sha256 digest it had when it was recorded.

A change that alters one of these outputs on purpose updates its entry
here and says which and why in CHANGES.md; any other difference is a
regression in a report that should be byte-identical.
"""

import datetime
import hashlib
import json
import shlex
from pathlib import Path

import pytest

from biham3 import catalog as cat
from biham3.cli import main
from biham3.verify import flipped_sign_variant, verify_structure

README = Path(__file__).resolve().parents[1] / "README.md"


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


# (exit code, sha256 of the report) of `verify <system> --seed <seed>
# --deterministic` at the catalog's default parameters
VERIFY_SHA256 = {
    ("lu-original", 42): (1, "de935bf4e3340569a28f3c1bcb60f580916e3fb4205b5eafce55bdd5a715ca08"),
    ("lu-transformed", 42): (0, "01f7060bde95d2b3b0f690ce55b0011a89badf7384dd51ea5528ac1abf4296a8"),
    ("modified-lu", 42): (0, "c71c286cc93e79779c7393d212a726c9be297fa3de75bd3b8c78b46fd39fc381"),
    ("t-system", 42): (0, "ac5efb1100e90b52167a606eb26a5743b75a30084161993043b0b50fd00830df"),
    ("chen", 42): (0, "0279c7bf9eef6d383b563a5de8275176d1d01a24a158870565d78a82f6ff8da7"),
    ("chen-variant", 42): (0, "7b05a686afa2420b0ac78236483c70b9a988bbcf5b609eb5c456d9489856824f"),
    ("qi", 42): (0, "c1b24d98151cf107f9cf31b67f18a26548be35441363402518aa1a33f2496cee"),
    ("lu-original", 7): (1, "09249bb83899c654c8fdb50cddeda96d92dee20150dd1abe40eff2a7fcbd260c"),
    ("lu-transformed", 7): (0, "22bc51df677d66ba664f44ade5eddd40976a4581a567d1d3c267b58f415b480e"),
    ("modified-lu", 7): (0, "19599929a109a35203bebcda021a6bfc765d051241f9ddcf1ecafa213aa79410"),
    ("t-system", 7): (0, "959e50b2976c5edb1ba3ac322432e412855656231b4cbf1fe8ed4b132596c406"),
    ("chen", 7): (0, "917f92da23e734b093785b7be617e00a886bf03119ec878c09cb20843f7a1ad2"),
    ("chen-variant", 7): (0, "ceb94454d3646dc638e2b149cccc590b6341d96c3dd8f71359cb8c4974428f42"),
    ("qi", 7): (0, "30721a5b6b7fb2082d28f3d1a916d383d837e9278a437f589d315f51c4510b05"),
}


@pytest.mark.parametrize("system,seed", list(VERIFY_SHA256), ids=lambda x: str(x))
def test_verify_reports_are_pinned(tmp_path, capsys, system, seed):
    out = tmp_path / "report.json"
    code = main(["verify", system, "--seed", str(seed), "--deterministic", "--out", str(out)])
    capsys.readouterr()
    assert (code, _sha256(out.read_bytes())) == VERIFY_SHA256[system, seed]


# sha256 of `flipped_sign_variant(<system>, <component>)`'s report,
# `to_json(deterministic=True)` at the default parameters and SampleConfig
FLIPPED_SHA256 = {
    ("lu-transformed", 0): "e2cd40dde21c20eca54bcfea2c08b182dd1f09e22595c60335b402f8217077f8",
    ("lu-transformed", 1): "fcff627ec6539d118663f1c071a77ee24696634ebd6d5a66f6049fc9b183e2d2",
    ("lu-transformed", 2): "01bc6f7498010efa10e0b49356b9a13756faf040654d6f067492492a8857024f",
    ("modified-lu", 0): "b621a2e70cd356100399c9e06613af10c9336f1d54843dc5a791dc058b19a269",
    ("modified-lu", 1): "35051d4d02e24a8d3862b384fe499673826f8b8d6a42d603c962bb8de739b1ed",
    ("modified-lu", 2): "bc20ba1e5a3871d057c51daef3707f7e5eea3662ec40b64f9a3a36ffd069c730",
    ("t-system", 0): "0e93028f831f35fae5c507f3c3ccaa7ea281f01729cd93bec81528c846f370c1",
    ("t-system", 1): "1153aaec6978533c79159591be05b489e71a3f082215bc812a7a449627ca4af8",
    ("t-system", 2): "4485a1a6089b15a91874bb4e99b9e0ac4ceba9a0a01891f1dad126ccced849b8",
    ("chen", 0): "2b6b5c9cb641bdb0ada55bf42b9e07a75b9c05d3ec0506cdb1c51bf45b3fc2d2",
    ("chen", 1): "0684721db3696eb48fa3757f3343a99fc325d932393632cae534ed9ec3898522",
    ("chen", 2): "51329ba4cf9a6899249b9b9cdc12eefd72cd2710dd3b6e4825a1d980b6f2ce7e",
    ("chen-variant", 0): "76260f1f8a47d94aeeaf085ee26194b5050402c17234ebf632e035e309001248",
    ("chen-variant", 1): "f82dfa30811c570ca29991211b4db5e050771ff92fc7143ace386e12bdc37299",
    ("chen-variant", 2): "e32059f60c192d60d800615017af45982459e597d6231ae6dc22551b9d74a712",
    ("qi", 0): "aa5aca1e6e5627ccf8b080ee0591e7ff7e4d061c2f4cac8e6a417a38a19e49e8",
    ("qi", 1): "56bc8d4b56cfd54a823d3f7acf5c760e63a4bc3f7da702a82a6038792f744175",
    ("qi", 2): "7cf50334a477083e882c8e861ab63361a4ecdffe31f22841792414fc0c934ea1",
}


@pytest.mark.parametrize("system,component", list(FLIPPED_SHA256), ids=lambda x: str(x))
def test_flipped_control_reports_are_pinned(system, component):
    rep = verify_structure(flipped_sign_variant(cat.instantiate(system), component))
    assert _sha256(rep.to_json(deterministic=True).encode()) == FLIPPED_SHA256[system, component]


# (length, sha256) of the stdout of each README catalog example
CATALOG_STDOUT_SHA256 = {
    "catalog": (1305, "edc72569776c1bd1666f86fd414df968fadc30ab077b8d6b96dba6bef46b164d"),
    "catalog --json": (2206, "055e1a32c8368a8bccc0c321151dd9b0bdfe73fbad3ad52faa304c96779a4a6a"),
}


def test_readme_catalog_outputs_are_pinned(capsys):
    prefix = "$ python -m biham3 "
    lines = [l.strip() for l in README.read_text().splitlines()]
    cmds = [l[len(prefix):] for l in lines if l.startswith(prefix + "catalog")]
    assert cmds == list(CATALOG_STDOUT_SHA256)
    for cmd in cmds:
        assert main(shlex.split(cmd)) == 0, cmd
        out = capsys.readouterr().out
        assert (len(out), _sha256(out.encode())) == CATALOG_STDOUT_SHA256[cmd], cmd


# stdout of each README bracket example, keyed by its arguments
README_BRACKET_STDOUT = {
    '--j "0;0;1" --f "u" --h "v"': "-1\n",
    '--j "0;v;w" --f "u" --h "1/2*u^2-w" --at u=1,v=2,w=3,t=0': "-v\n= -2\n",
}


def test_readme_bracket_outputs_are_pinned(capsys):
    prefix = "$ python -m biham3 bracket "
    lines = [l.strip() for l in README.read_text().splitlines()]
    cmds = [l[len(prefix):] for l in lines if l.startswith(prefix)]
    assert cmds == list(README_BRACKET_STDOUT)
    for cmd in cmds:
        assert main(["bracket", *shlex.split(cmd)]) == 0, cmd
        assert capsys.readouterr().out == README_BRACKET_STDOUT[cmd], cmd


# (length, sha256) of the README verify example's report with --deterministic
README_VERIFY_DETERMINISTIC = (2113, "700a7005cecb1c17104b23aced3f8954485257d13c625220563262b2400aa889")


def test_readme_verify_report_is_the_deterministic_one_with_a_timestamp(tmp_path, capsys):
    prefix = "$ python -m biham3 verify "
    lines = [l.strip() for l in README.read_text().splitlines()]
    [cmd] = [l[len(prefix):] for l in lines if l.startswith(prefix) and "--out" in l]
    argv = ["verify", *shlex.split(cmd)]
    timed, fixed = tmp_path / "timed.json", tmp_path / "fixed.json"
    argv[argv.index("--out") + 1] = str(timed)
    assert main(argv) == 0
    argv[argv.index("--out") + 1] = str(fixed)
    assert main([*argv, "--deterministic"]) == 0
    capsys.readouterr()
    fixed = fixed.read_bytes()
    assert (len(fixed), _sha256(fixed)) == README_VERIFY_DETERMINISTIC
    # the timestamp is the last field, on a line of its own
    body, stamp = timed.read_bytes().rsplit(b',\n  "timestamp": ', 1)
    assert body + b"\n}" == fixed
    assert datetime.datetime.fromisoformat(json.loads(stamp.removesuffix(b"\n}"))).tzinfo
