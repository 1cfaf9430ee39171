"""Command-line interface: subcommands, exit codes, output artifacts,
and every CLI example in the README executed verbatim.
"""

import csv
import hashlib
import json
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from biham3 import catalog as cat
from biham3 import expr as ex
from biham3.cli import main
from biham3.expr import parse

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


def test_simulate_prints_the_bytes_it_writes_to_out(tmp_path, capsys):
    # 1201 rows: the CSV is streamed in more than one block
    argv = ["simulate", "qi", "--param", "gamma=2", "--init", "1,1,1", "--t1", "12", "--monitors", "h1"]
    code, out, _ = run(argv, capsys)
    assert code == 0 and out.count("\n") == 1202
    path = tmp_path / "q.csv"
    code, printed, _ = run([*argv, "--out", str(path)], capsys)
    assert code == 0 and printed == ""
    assert path.read_bytes() == out.encode()


def test_a_reader_closing_stdout_early_gets_no_traceback():
    # 20,001 rows, about 2 MB: more than a pipe holds, so the writer is
    # still writing when the reader goes away
    argv = ["simulate", "lu-transformed", "--init", "1,1,1", "--t1", "200"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "biham3", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    assert proc.stdout.readline() == b"t,u,v,w\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1 and err == b""


def test_simulate_abort_exit_code(tmp_path, capsys):
    code, _, err = run(
        ["simulate", "chen-variant", "--init", "1,1,1", "--t1", "20",
         "--out", str(tmp_path / "cv.csv")],
        capsys,
    )
    assert code == 1
    assert "aborted" in err


@pytest.mark.parametrize("method", ["adaptive", "rk4"])
def test_simulate_monitor_failure_is_an_abort(tmp_path, capsys, method):
    # ln(u) cannot be evaluated once u = cos(t) reaches zero
    path = tmp_path / "circle.system"
    path.write_text("name = circle\nframe = u v w\nfield = v ; -u ; 0\nh1 = ln(u)\nh2 = w\n")
    out_csv = tmp_path / "c.csv"
    code, _, err = run(
        ["simulate", str(path), "--init", "1,0,0", "--t1", "3", "--monitors", "h1",
         "--method", method, "--step", "0.01", "--out", str(out_csv)],
        capsys,
    )
    assert code == 1
    assert err == "integration aborted: monitor H1 failed at t=1.58: math domain error\n"
    rows = list(csv.DictReader(out_csv.open()))
    assert len(rows) == 158 and float(rows[-1]["t"]) < 1.58


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
        (["--sample-dt", "1e-7"], "(t1 - t0)/sample_dt must be at most 1000000"),
        (["--method", "rk4", "--step", "1e-7"], "(t1 - t0)/step must be at most 1000000"),
    ],
)
def test_simulate_rejects_outputs_past_the_limit(tmp_path, capsys, flags, message):
    out_csv = tmp_path / "x.csv"
    code, _, err = run(
        ["simulate", "qi", "--init", "1,1,1", "--t1", "1", *flags, "--out", str(out_csv)],
        capsys,
    )
    assert code == 2
    assert err == f"error: {message}\n" and not out_csv.exists()


@pytest.mark.parametrize(
    "flags,message",
    [
        pytest.param(["--samples", "0"], "sample count must be at least 1, got 0", id="0"),
        pytest.param(["--samples", "-5"], "sample count must be at least 1, got -5", id="-5"),
        pytest.param(["--tol", "nan"], "tol must be finite and non-negative, got nan", id="tol-nan"),
        pytest.param(["--tol", "-1"], "tol must be finite and non-negative, got -1.0", id="tol-neg"),
        pytest.param(["--tol", "inf"], "tol must be finite and non-negative, got inf", id="tol-inf"),
        pytest.param(
            ["--samples", "1000000000"], "sample count must be at most 1000000, got 1000000000",
            id="samples-past-limit",
        ),
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
    # the README's example candidate: integer numerators over their denominator
    by_expr = {c["expr"]: c for c in data["candidates"]}
    assert by_expr["w - 1/2*u^2"]["coefficients"] == [0, 2, 0, 0, 0, 0, 0, 0, 0, -1]
    assert by_expr["w - 1/2*u^2"]["denominator"] == 2


DISCOVER_DEG4 = [
    "discover", "modified-lu", "--degree", "4", "--weights=-2..0", "--functional", "spatial",
]


def test_discover_deg4_is_exact_and_seed_independent(tmp_path, capsys):
    # a sampled search printed 4999999999978859/5000000000000000*v^2 at seed 2
    reports = []
    for seed in ("2", "42"):
        out = tmp_path / f"disc{seed}.json"
        code, _, err = run([*DISCOVER_DEG4, "--seed", seed, "--out", str(out)], capsys)
        assert code == 0, err
        reports.append(json.loads(out.read_text()))
    assert reports[0]["candidates"] == reports[1]["candidates"]
    assert reports[0]["method"] == "exact" and reports[0]["nullspace_dim"] == 11
    for c in reports[0]["candidates"]:
        assert all(int(d) <= 100 for d in re.findall(r"/(\d+)", c["expr"])), c["expr"]
    # H1 and H2 are exact multiples of candidates 9 and 4
    assert [(a["matched"], a["coordinates"]) for a in reports[0]["annotations"]] == [
        (True, [[9, "-1"]]),
        (True, [[4, "-1/2"]]),
    ]
    # each candidate's coefficients over its denominator rebuild its expr exactly
    labels = [parse(b) for b in reports[0]["basis"]["elements"]]
    for c in reports[0]["candidates"]:
        den = c["denominator"]
        terms = [ex.mul(ex.con(Fraction(a, den)), b) for a, b in zip(c["coefficients"], labels)]
        assert ex.expand(ex.sub(ex.add(*terms), parse(c["expr"]))) == ex.ZERO, c["expr"]


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
    "f,h,at,message",
    [
        ("u", "v", "u=abc", "error: --at expects numeric values, got 'u=abc'"),
        ("u", "v", "u", "error: --at expects name=value pairs"),
        ("u*v", "v", "u=1", "error: --at gives no value for v"),
        ("u*v*t", "v", "u=1,v=2", "error: --at gives no value for t"),
    ],
    ids=["not-a-number", "no-equals", "unbound-variable", "unbound-time"],
)
def test_bracket_at_input_errors_are_usage_errors(capsys, f, h, at, message):
    code, _, err = run(["bracket", "--j", "0;0;1", "--f", f, "--h", h, "--at", at], capsys)
    assert code == 2
    assert err.startswith(message)


def test_bracket_domain_error_at_a_point_is_an_evaluation_failure(capsys):
    code, out, err = run(
        ["bracket", "--j", "0;0;1", "--f", "u*ln(u)", "--h", "v", "--at", "u=-1,v=0"], capsys
    )
    assert code == 1
    assert "ln(u)" in out
    assert err.startswith("evaluation failed:")


def test_bracket_cancels_a_symbol_against_its_reciprocal(capsys):
    code, out, _ = run(["bracket", "--j", "0;0;1", "--f", "u*ln(u)", "--h", "v"], capsys)
    assert code == 0 and out == "-1 - ln(u)\n"


def test_bracket_division_by_zero_at_a_point_keeps_its_message(capsys):
    code, out, err = run(
        ["bracket", "--j", "0;0;1", "--f", "1/u", "--h", "v", "--at", "u=0,v=1"], capsys
    )
    assert code == 1 and out.count("\n") == 1
    assert err == "evaluation failed: division by zero\n"


@pytest.mark.parametrize(
    "f", ["(" * 3000 + "u" + ")" * 3000, "-" * 5000 + "u"], ids=["parentheses", "unary-minus"]
)
def test_bracket_rejects_deep_nesting(capsys, f):
    code, out, err = run(["bracket", "--j", "1;0;0", f"--f={f}", "--h", "v"], capsys)
    assert code == 2
    assert err.startswith("error: expression nested deeper than") and out == ""


@pytest.mark.parametrize("f", ["1e5000*u", "(2^999)^1000*u", "u/3e5000"])
def test_constants_past_the_printable_digits_are_usage_errors(capsys, f):
    # the result is a constant of more than 4,300 digits, which str() refuses
    # and the parser would not read back
    code, out, err = run(["bracket", "--j", "0;0;1", "--f", f, "--h", "v"], capsys)
    assert code == 2 and out == ""
    assert err == f"error: constant longer than {sys.get_int_max_str_digits()} digits\n"


def test_exponent_past_the_limit_is_a_usage_error(tmp_path, capsys):
    code, out, err = run(["bracket", "--j", "1;0;0", "--f", "u^2^2^2^2", "--h", "v"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: exponent 65536 exceeds the limit")
    path = tmp_path / "tower.system"
    path.write_text("name = tower\nframe = u v w\nfield = v ; -u ; 0\nh1 = u^2^2^2^2\nh2 = w\n")
    code, out, err = run(["verify", str(path), "--samples", "10"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: exponent 65536 exceeds the limit")


@pytest.mark.parametrize(
    "f,message",
    [
        ("1/0", "error: division by the zero constant"),
        ("ln(-1)", "error: ln of a non-positive constant"),
        ("(u+v+w+1)^40", "error: expansion would form"),
    ],
    ids=["division-by-zero", "ln-negative", "term-cap"],
)
def test_bracket_expression_errors_are_usage_errors(capsys, f, message):
    start = time.perf_counter()
    code, out, err = run(["bracket", "--j", "0;0;1", "--f", f, "--h", "v"], capsys)
    assert time.perf_counter() - start < 5.0
    assert code == 2 and out == ""
    assert err.startswith(message)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["bracket", "--j", "0;0;1", "--f", "1" * 5000 + "*u", "--h", "v"], "number longer than"),
        (["bracket", "--j", "0;0;1", "--f", "1e10000000*u", "--h", "v"], "number exceeds"),
        (["verify", "qi", "--param", "gamma=1e10000000"], "--param gamma: number exceeds"),
    ],
    ids=["digits", "exponent", "param-exponent"],
)
def test_numbers_past_the_cap_are_usage_errors(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}")


def test_system_past_the_term_cap_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "big.system"
    path.write_text("name = big\nframe = u v w\nfield = v ; -u ; 0\nh1 = (u+v+w+1)^40\nh2 = w\n")
    code, out, err = run(["verify", str(path), "--samples", "10"], capsys)
    assert code == 2 and out == ""
    assert "more than the limit of 10000" in err


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


@pytest.mark.parametrize("name", cat.BUILTIN_NAMES)
def test_a_saved_builtin_verifies_as_the_builtin(tmp_path, capsys, name):
    path = tmp_path / f"{name}.system"
    path.write_text(cat.save_system(cat.get_system(name)))
    results = []
    for spec in (name, str(path)):
        out = tmp_path / "report.json"
        code = main(["verify", spec, "--seed", "42", "--deterministic", "--out", str(out)])
        results.append((code, out.read_bytes()))
    capsys.readouterr()
    assert results[0] == results[1]


@pytest.mark.parametrize(
    "body,message",
    [
        ("= x\n", "error: line 4: unrecognized line '= x'"),
        ("time = u\n", "error: time must be t, got 'u'"),
        ("time = zz=1/0\n", "error: time must be t, got 'zz=1/0'"),
        ("frame = u u w\n", "error: frame lists a variable twice"),
    ],
    ids=["empty-key", "time-in-frame", "time-code", "frame-repeat"],
)
def test_a_malformed_system_file_is_a_usage_error(tmp_path, capsys, body, message):
    path = tmp_path / "bad.system"
    path.write_text("name = bad\nframe = u v w\nfield = v ; -u ; 0\n" + body)
    for argv in (["simulate", str(path), "--init", "1,0,0", "--t1", "1"], ["verify", str(path)]):
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith(message)


COMMANDS = {
    "verify": ["--samples", "10"],
    "simulate": ["--init", "1,0,0", "--t1", "1"],
    "discover": ["--degree", "1"],
}


@pytest.mark.parametrize(
    "text,message",
    [
        ("frame = t u v\n", "error: frame must not list the time variable t, got ('t', 'u', 'v')"),
        ("frame = u v w\ntime = x\n", "error: time must be t, got 'x'"),
    ],
    ids=["time-in-frame", "other-time"],
)
@pytest.mark.parametrize("command", COMMANDS)
def test_the_time_variable_is_t(tmp_path, capsys, command, text, message):
    # a frame holding t once gave simulate the CSV header t,t,u,v
    path = tmp_path / "timed.system"
    path.write_text("name = timed\n" + text + "field = v ; -u ; 0\n")
    code, out, err = run([command, str(path), *COMMANDS[command]], capsys)
    assert (code, out) == (2, "")
    assert err == message + "\n"


@pytest.mark.parametrize(
    "field,command",
    [("1e400*v ; -u ; 0", "simulate"), ("1e400*u ; -u ; 0", "verify")],
    ids=["simulate", "sampled-verify"],
)
def test_a_constant_past_the_float_range_is_a_usage_error(tmp_path, capsys, field, command):
    path = tmp_path / "huge.system"
    path.write_text(f"name = huge\nframe = u v w\nfield = {field}\n")
    code, out, err = run([command, str(path), *COMMANDS[command]], capsys)
    assert (code, out) == (2, "")
    assert err == "error: a constant is outside the float range\n"


def test_a_bracket_constant_past_the_float_range_is_a_usage_error(capsys):
    code, out, err = run(
        ["bracket", "--j", "0;0;1", "--f", "1e400*u", "--h", "v", "--at", "u=1,v=1,w=1"], capsys
    )
    assert code == 2 and out.startswith("-1" + "0" * 400 + "\n")
    assert err == "error: a constant is outside the float range\n"
    # a value that overflows only at the point is an evaluation failure
    code, out, err = run(["bracket", "--j", "0;0;1", "--f", "u^3", "--h", "v", "--at", "u=1e200"], capsys)
    assert (code, out) == (1, "-3*u^2\n")
    assert err.startswith("evaluation failed:")


@pytest.mark.parametrize("command", COMMANDS)
def test_a_parameter_past_the_float_range_is_a_usage_error(capsys, command):
    argv = [command, "lu-transformed", "--param", "alpha=1e400", *COMMANDS[command]]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == "error: parameter alpha is outside the float range\n"


def test_a_candidate_past_the_float_range_is_a_usage_error(tmp_path, capsys):
    # div(M X) = dM/du + 1e400*dM/dv vanishes for M = 1e400*u - v, whose
    # vanishing check needs its coefficients as floats
    path = tmp_path / "steep.system"
    path.write_text("name = steep\nframe = u v w\nfield = 1 ; 1e400 ; 0\n")
    code, out, err = run(["discover", str(path), "--degree", "1", "--functional", "multiplier"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: a candidate coefficient is outside the float range\n"


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


def test_seed_env_is_read_on_every_call(tmp_path, monkeypatch):
    seeds = []
    for env in ("7", "11"):
        monkeypatch.setenv("BIHAM3_SEED", env)
        out = tmp_path / f"rep-{env}.json"
        code = main(["verify", "qi", "--deterministic", "--samples", "100", "--out", str(out)])
        assert code == 0
        seeds.append(json.loads(out.read_text())["seed"])
    monkeypatch.delenv("BIHAM3_SEED")
    assert main(["verify", "qi", "--deterministic", "--out", str(out)]) == 0
    seeds.append(json.loads(out.read_text())["seed"])
    assert main(["verify", "qi", "--seed", "3", "--deterministic", "--out", str(out)]) == 0
    seeds.append(json.loads(out.read_text())["seed"])
    assert seeds == [7, 11, 42, 3]


def test_bad_seed_env_message(monkeypatch, tmp_path, capsys):
    # a usage error of the commands that sample; the others do not read it
    monkeypatch.setenv("BIHAM3_SEED", "x")
    for argv in (["verify", "qi"], ["discover", "qi", "--degree", "1"]):
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (2, "", "error: BIHAM3_SEED must be an integer, got 'x'\n")
    simulate = ["simulate", "qi", "--init", "1,1,1", "--t1", "0.1", "--out", str(tmp_path / "t.csv")]
    for argv in (["catalog"], ["bracket", "--j", "0;0;1", "--f", "u", "--h", "v"], simulate):
        assert run(argv, capsys)[0] == 0


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


# sha256 of the CSV each README simulate example writes, keyed by its --out
# file name; recorded before Trajectory held arrays, whose CSV must not change
README_SIMULATE_SHA256 = {
    "biham3-q.csv": "f11e285f7d2806f6fc3c3f06906316b5adaf796941aacc0778014b79069aa30b",
    "biham3-lu.csv": "841797f892e3cf157040b26d8765801aa25984dd04f73c2652cba18b077ea3ee",
}


def test_readme_simulate_csvs_are_pinned(tmp_path, capsys):
    lines = README.read_text().splitlines()
    cmds = [l.strip()[2:] for l in lines if l.strip().startswith("$ python -m biham3 simulate")]
    assert len(cmds) == len(README_SIMULATE_SHA256)
    for cmd in cmds:
        argv = _split_command(cmd)[3:]
        k = argv.index("--out") + 1
        out = tmp_path / Path(argv[k]).name
        argv[k] = str(out)
        assert main(argv) == 0, cmd
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == README_SIMULATE_SHA256[out.name], cmd


def test_a_one_element_multiplier_basis_is_searched(capsys):
    code, out, _ = run(["discover", "lu-transformed", "--degree", "0", "--functional", "multiplier"], capsys)
    assert code == 0 and json.loads(out)["basis"]["size"] == 1


@pytest.mark.parametrize(
    "args,message",
    [
        (["--degree", "-1"], "error: degree must be >= 0"),
        (["--degree", "0"], "error: basis must have at least two elements"),
        (["--degree", "0", "--functional", "spatial"], "error: basis must have at least two elements"),
        (["--degree", "2", "--samples", "0"], "error: need at least 3*|basis| = 30"),
        (["--degree", "2", "--weights=0..-2"], "error: weights must list at least one k"),
        (["--degree", "30"], "error: a search over 5456 basis elements at 16368 points"),
        (["--degree", "2", "--samples", "1000000000"], "error: a search over 10 basis elements"),
        (["--degree", "2", "--weights=0..10000000000"], "error: a search over 100000000010 basis elements"),
    ],
    ids=["negative-degree", "constant-basis", "constant-spatial-basis", "no-samples", "empty-weights", "degree-past-limit", "samples-past-limit", "weights-past-limit"],
)
def test_discover_input_errors_are_usage_errors(capsys, args, message):
    start = time.perf_counter()
    code, out, err = run(["discover", "lu-transformed", *args], capsys)
    assert time.perf_counter() - start < 5.0
    assert code == 2 and out == ""
    assert err.startswith(message)


def test_dependent_transcendental_terms_fail_discover(tmp_path, capsys):
    # the README's example: u^2 + v^2 is an integral only through
    # sin(u)^2 + cos(u)^2 = 1, which the term equations do not see
    path = tmp_path / "pythagoras.system"
    path.write_text("name = pythagoras\nframe = u v w\nfield = v ; -u*(sin(u)^2 + cos(u)^2) ; 0\n")
    code, out, err = run(["discover", str(path), "--degree", "2"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: the term equations give a nullspace of dimension 3, but the "
                          "functional at 200 sample points has nullity 4")


def test_bad_parameter_name_in_a_system_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "shadow.system"
    path.write_text("name = shadow\nframe = u v w\nparams\n    u\nfield = v ; -u ; 0\n")
    code, out, err = run(["verify", str(path), "--samples", "10"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: line 4: 'u' is not a parameter name")


# sha256 of the report each discover command writes: the README examples by
# their --out file name, and discover-deg4's command by its seed; recorded
# when the reports became exact (report schema 3: rational candidates and
# exact span matches)
DISCOVER_SHA256 = {
    "biham3-disc.json": "6b0b4230a2cd5c53ac4e678108044d431d3f334c48175f55310660631ab0461e",
    "biham3-ml.json": "9f0646e6a80d06b196ecac79ccf6fcfb177a0cd3a87a396c85a98a4bd181b63c",
    "--seed 42": "9f0646e6a80d06b196ecac79ccf6fcfb177a0cd3a87a396c85a98a4bd181b63c",
    "--seed 2": "c60dfc94253ae03bc3dc21f99c76107f2a64a6619041e1f38df6bb71721e96cc",
}


def test_discover_reports_are_pinned(tmp_path, capsys):
    lines = README.read_text().splitlines()
    readme = [l.strip()[2:] for l in lines if l.strip().startswith("$ python -m biham3 discover")]
    cmds = {}
    for cmd in readme:
        argv = _split_command(cmd)[3:]
        cmds[Path(argv[argv.index("--out") + 1]).name] = argv
    for seed in ("42", "2"):
        cmds[f"--seed {seed}"] = [*DISCOVER_DEG4, "--seed", seed, "--out", f"deg4-{seed}.json"]
    assert cmds.keys() == DISCOVER_SHA256.keys()
    for key, argv in cmds.items():
        k = argv.index("--out") + 1
        out = tmp_path / Path(argv[k]).name
        argv[k] = str(out)
        assert main(argv) == 0, key
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == DISCOVER_SHA256[key], key
