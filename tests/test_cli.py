"""Command-line interface: subcommands, exit codes, output artifacts,
and every CLI example in the README executed verbatim.
"""

import csv
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from biham3.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_catalog_lists_seven(capsys):
    code, out, _ = run(["catalog"], capsys)
    assert code == 0
    for name in (
        "lu-original",
        "lu-transformed",
        "modified-lu",
        "t-system",
        "chen",
        "chen-variant",
        "qi",
    ):
        assert name in out


def test_catalog_json(capsys):
    code, out, _ = run(["catalog", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert len(data["systems"]) == 7


def test_verify_exit_codes(tmp_path, capsys):
    report = tmp_path / "rep.json"
    code, _, _ = run(
        ["verify", "lu-transformed", "--param", "alpha=1", "--samples", "200",
         "--out", str(report)],
        capsys,
    )
    assert code == 0
    data = json.loads(report.read_text())
    assert data["pass"] is True
    assert len(data["checks"]) == 8
    assert all(c["pass"] for c in data["checks"])

    code, _, _ = run(["verify", "lu-original", "--samples", "100"], capsys)
    assert code == 1


def test_verify_usage_errors(capsys):
    code, _, err = run(["verify", "no-such-system"], capsys)
    assert code == 2 and "neither a built-in" in err
    code, _, err = run(["verify", "qi", "--param", "alpha=2"], capsys)
    assert code == 2 and "constraint" in err
    code, _, err = run(["verify", "qi", "--param", "bogus"], capsys)
    assert code == 2
    with pytest.raises(SystemExit) as e:
        main(["verify", "qi", "--no-such-flag"])
    assert e.value.code == 2
    capsys.readouterr()


def test_simulate_conservation_column(tmp_path, capsys):
    out_csv = tmp_path / "q.csv"
    code, _, _ = run(
        ["simulate", "qi", "--param", "gamma=2", "--init", "1,1,1",
         "--t0", "0", "--t1", "10", "--monitors", "h1", "--out", str(out_csv)],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(out_csv.open()))
    assert rows and set(rows[0]) == {"t", "u", "v", "w", "H1"}
    h1_first = float(rows[0]["H1"])
    worst = 0.0
    for r in rows:
        u, v, w = float(r["u"]), float(r["v"]), float(r["w"])
        scale = 1.0 + max(2 * u * u, v * v, 3 * w * w)
        worst = max(worst, abs(float(r["H1"]) - h1_first) / scale)
    assert worst < 1e-6


def test_simulate_abort_exit_code(tmp_path, capsys):
    code, _, err = run(
        ["simulate", "chen-variant", "--init", "1,1,1", "--t1", "20",
         "--out", str(tmp_path / "cv.csv")],
        capsys,
    )
    assert code == 1
    assert "aborted" in err


def test_simulate_usage_errors(capsys):
    code, _, _ = run(["simulate", "qi", "--init", "1,2", "--t1", "1"], capsys)
    assert code == 2
    code, _, _ = run(
        ["simulate", "qi", "--init", "1,1,1", "--t1", "1", "--monitors", "h9"],
        capsys,
    )
    assert code == 2


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--method", "rk4", "--step", "-0.1"], "step must be positive"),
        (["--method", "rk4", "--step", "nan"], "step must be positive"),
        (["--sample-dt", "0"], "sample_dt must be positive"),
        (["--max-step", "-1"], "max_step must be positive"),
        (["--tol", "nan"], "rtol must be positive"),
        (["--t0", "nan"], "must be finite"),
        (["--init", "nan,1,1"], "initial state must be finite"),
    ],
)
def test_simulate_rejects_bad_sizes(tmp_path, capsys, flags, message):
    out_csv = tmp_path / "x.csv"
    code, _, err = run(
        ["simulate", "lu-transformed", "--init", "1,1,1", "--t1", "1", *flags,
         "--out", str(out_csv)],
        capsys,
    )
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err and not out_csv.exists()


@pytest.mark.parametrize(
    "flags,message",
    [
        pytest.param(["--samples", "0"], "--samples must be at least 1, got 0", id="0"),
        pytest.param(["--samples", "-5"], "--samples must be at least 1, got -5", id="-5"),
        pytest.param(["--tol", "nan"], "tol must be finite and non-negative, got nan", id="tol-nan"),
        pytest.param(["--tol", "-1"], "tol must be finite and non-negative, got -1.0", id="tol-neg"),
        pytest.param(["--tol", "inf"], "tol must be finite and non-negative, got inf", id="tol-inf"),
    ],
)
def test_verify_rejects_non_positive_samples(capsys, flags, message):
    # bad sample counts and tolerances are usage errors, not failed checks
    code, out, err = run(["verify", "qi", *flags], capsys)
    assert code == 2
    assert err == f"error: {message}\n"
    assert out == ""


def test_discover_cli(tmp_path, capsys):
    out = tmp_path / "disc.json"
    code, _, _ = run(
        ["discover", "lu-transformed", "--degree", "2", "--out", str(out)], capsys
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["nullspace_dim"] == 3
    assert {a["known"]: a["matched"] for a in data["annotations"]} == {
        "1/2*(v^2 + w^2)": True,
        "-w + 1/2*u^2": True,
    }


def test_discover_with_a_non_snapping_coefficient(tmp_path, capsys):
    # at this seed a sparsified coefficient does not snap to a rational
    # (4999999999978859/5000000000000000*v^2 + w^2*exp(-2*t))
    out = tmp_path / "disc.json"
    code, _, err = run(
        ["discover", "modified-lu", "--degree", "4", "--weights=-2..0", "--functional",
         "spatial", "--seed", "2", "--out", str(out)],
        capsys,
    )
    assert code == 0, err
    data = json.loads(out.read_text())
    assert data["seed"] == 2 and data["candidates"]


def test_bracket_prints_constant(capsys):
    code, out, _ = run(["bracket", "--j", "0;0;1", "--f", "u", "--h", "v"], capsys)
    assert code == 0
    assert out.strip() == "-1"


def test_bracket_with_evaluation(capsys):
    code, out, _ = run(
        ["bracket", "--j", "0;v;w", "--f", "u", "--h", "1/2*u^2-w",
         "--at", "u=1,v=2,w=3,t=0"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "-v"
    assert lines[1] == "= -2"


def test_bracket_usage_error(capsys):
    code, _, _ = run(["bracket", "--j", "0;1", "--f", "u", "--h", "v"], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "f", ["(" * 3000 + "u" + ")" * 3000, "-" * 5000 + "u"], ids=["parentheses", "unary-minus"]
)
def test_bracket_rejects_deep_nesting(capsys, f):
    code, out, err = run(["bracket", "--j", "1;0;0", f"--f={f}", "--h", "v"], capsys)
    assert code == 2
    assert err.startswith("error: expression nested deeper than") and out == ""


def test_file_based_system(tmp_path, capsys):
    doc = (
        "name = custom\nframe = u v w\nparams\n    alpha\n    beta = 2*alpha\n"
        "field = alpha*v ; -u*w ; u*v\nh1 = 1/2*(v^2+w^2)\nh2 = 1/2*u^2 - alpha*w\n"
        "orientation = auto\n"
    )
    path = tmp_path / "custom.system"
    path.write_text(doc)
    code, _, _ = run(["verify", str(path), "--samples", "150"], capsys)
    assert code == 0
    bad = tmp_path / "bad.system"
    bad.write_text("name = x\nframe = u v\nfield = v ; -u ; 0\n")
    code, _, err = run(["verify", str(bad)], capsys)
    assert code == 2


def test_deterministic_reports_are_byte_identical(tmp_path):
    outs = []
    for i in (0, 1):
        out = tmp_path / f"rep{i}.json"
        cmd = [
            sys.executable, "-m", "biham3", "verify", "lu-transformed",
            "--seed", "42", "--deterministic", "--samples", "200",
            "--out", str(out),
        ]
        r = subprocess.run(cmd, capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_seed_env_override(tmp_path):
    out = tmp_path / "rep.json"
    cmd = [
        sys.executable, "-m", "biham3", "verify", "qi",
        "--deterministic", "--samples", "100", "--out", str(out),
    ]
    import os

    env = dict(os.environ, BIHAM3_SEED="7")
    r = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert r.returncode == 0
    assert json.loads(out.read_text())["seed"] == 7


def test_readme_examples_run_verbatim(capsys):
    """Every '$ python -m biham3 ...' line in the README must exit 0."""
    lines = README.read_text().splitlines()
    cmds = [l.strip()[2:] for l in lines if l.strip().startswith("$ python -m biham3")]
    assert len(cmds) >= 8
    for cmd in cmds:
        argv = _split_command(cmd)[3:]  # drop 'python -m biham3'
        code = main(argv)
        capsys.readouterr()
        assert code == 0, cmd


def _split_command(cmd):
    import shlex

    return shlex.split(cmd)
