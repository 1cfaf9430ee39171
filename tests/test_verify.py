"""Verification engine: check groups, orientation, published-formula
comparisons, determinism, negative controls.

All structure checks on the catalog systems must pass at 1e-12 relative
over the default box; the fundamental identity at 1e-8.
"""

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest

from biham3 import catalog as cat
from biham3 import expr as ex
from biham3 import verify
from biham3.expr import parse
from biham3.poisson import (
    coordinate_field,
    hamiltonian_field,
    multiplier_residual,
    nambu_bracket,
)
from biham3.vecfield import ScalarField, VectorField3, cross, gradient, scale
from biham3.verify import (
    SampleConfig,
    compare_printed,
    determine_orientation,
    flipped_sign_variant,
    verify_fundamental_identity,
    verify_structure,
)

STRUCTURED = ("lu-transformed", "modified-lu", "t-system", "chen", "chen-variant", "qi")
CHECK_NAMES = [
    "jacobi",
    "compatibility",
    "pencil",
    "casimir",
    "multiplier",
    "biham",
    "nambu",
    "orthogonality",
]


@pytest.mark.parametrize("name", STRUCTURED)
def test_structure_suite_passes(name):
    rep = verify_structure(cat.instantiate(name), SampleConfig(n=300))
    assert [c.name for c in rep.checks] == CHECK_NAMES
    assert rep.passed(), [(c.name, c.max_rel) for c in rep.checks if not c.passed]
    assert rep.orientation == -1
    assert all(c.max_rel < 1e-12 for c in rep.checks)
    assert all(c.method == "exact" and c.n == 0 for c in rep.checks)


def test_verify_accepts_uninstantiated_definition():
    rep = verify_structure(cat.get_system("lu-transformed"), SampleConfig(n=100))
    assert rep.passed()
    assert rep.params == {"alpha": 1, "beta": 2, "gamma": -2}


def test_qi_published_first_poisson_vector_matches():
    d = cat.instantiate("qi", gamma=2)
    rep = verify_structure(d, SampleConfig(n=200))
    assert rep.passed()
    j1 = [e for e in rep.discrepancies if e["formula"].startswith("J1")]
    assert j1 and all(e["match"] for e in j1)


def test_lu_original_multiplier_check():
    rep = verify_structure(cat.instantiate("lu-original"), SampleConfig(n=100))
    assert [c.name for c in rep.checks] == ["multiplier"]
    assert not rep.passed()  # divergence is -1 at the default parameters
    assert any("skipped" in n for n in rep.notes)
    assert rep.orientation is None
    # constrained so that the divergence vanishes, the same check passes
    rep = verify_structure(
        cat.instantiate("lu-original", alpha=1, gamma=2, beta=1), SampleConfig(n=100)
    )
    assert rep.passed()


def test_determine_orientation_examples():
    for name in ("lu-transformed", "t-system"):
        o = determine_orientation(cat.instantiate(name), SampleConfig(n=200))
        assert o.sigma == -1
        assert o.deviation[-1] < 1e-12


def test_orientation_diagnosis_for_published_lu_field():
    d = cat.instantiate("lu-transformed")
    printed = VectorField3.from_exprs(list(d.printed["field"]), d.frame)
    o = determine_orientation(
        dataclasses.replace(d, field=printed), SampleConfig(n=200)
    )
    assert o.sigma is None
    assert o.per_component == {"u": -1, "v": -1, "w": 1}
    assert "no global orientation" in o.message


def test_sample_config_caps_the_sample_count():
    assert SampleConfig(n=verify.MAX_SAMPLES).n == 10**6
    with pytest.raises(ex.LimitError, match="sample count must be at most 1000000, got 1000001"):
        SampleConfig(n=10**6 + 1)


def test_fundamental_identity_check():
    S = ScalarField(parse("1"), ("u", "v", "w"))
    r = verify_fundamental_identity(S, SampleConfig(n=50), instances=2)
    assert r.passed and r.method == "exact" and r.n == 0
    # 1/M is a negative power, which cancels against M's own factors
    for m in ("exp(-t)", "1+u^2"):
        S = ScalarField(parse(m), ("u", "v", "w"))
        r = verify_fundamental_identity(S, SampleConfig(n=50), instances=2)
        assert r.passed and r.method == "exact" and r.n == 0


def test_compare_printed_findings():
    # transformed Lu: published third field component has the wrong sign
    d = cat.instantiate("lu-transformed")
    entries = {e["formula"]: e for e in compare_printed(d, SampleConfig(n=100))}
    assert not entries["field[2]"]["match"]
    assert entries["field[2]"]["max_dev"] > 0.1
    assert entries["field[0]"]["match"] and entries["field[1]"]["match"]
    assert all(entries[f"J1[{i}]"]["match"] for i in range(3))
    assert all(entries[f"J2[{i}]"]["match"] for i in range(3))

    # modified Lu: published H2 weight and published J2 are both off
    d = cat.instantiate("modified-lu")
    entries = {e["formula"]: e for e in compare_printed(d, SampleConfig(n=100))}
    assert not entries["H2"]["match"]
    assert not any(entries[f"J2[{i}]"]["match"] for i in range(3))
    assert not entries["transform_v"]["match"]
    assert all(entries[f"J1[{i}]"]["match"] for i in range(3))

    # T-system: the (gamma-alpha) term of published J2 flips sign;
    # invisible at gamma=alpha, so probe at gamma=3
    d = cat.instantiate("t-system", gamma=3)
    entries = {e["formula"]: e for e in compare_printed(d, SampleConfig(n=100))}
    assert not entries["J2[0]"]["match"]
    assert entries["J2[1]"]["match"] and entries["J2[2]"]["match"]

    # Chen: published J2 expands to exactly -grad(H2); published field
    # carries the stray alpha coefficient, visible at alpha=2
    d = cat.instantiate("chen", gamma=3)
    entries = {e["formula"]: e for e in compare_printed(d, SampleConfig(n=100))}
    assert all(entries[f"J2[{i}]"]["match"] for i in range(3))
    d = cat.instantiate("chen", alpha=2)
    entries = {e["formula"]: e for e in compare_printed(d, SampleConfig(n=100))}
    assert not entries["field[1]"]["match"]

    # Qi and the Chen variant: everything matches
    for name in ("qi", "chen-variant"):
        entries = compare_printed(cat.instantiate(name), SampleConfig(n=100))
        assert entries and all(e["match"] for e in entries)


def test_report_determinism():
    a = verify_structure(cat.instantiate("qi"), SampleConfig(n=150, seed=42))
    b = verify_structure(cat.instantiate("qi"), SampleConfig(n=150, seed=42))
    assert a.to_json(deterministic=True) == b.to_json(deterministic=True)
    c = verify_structure(cat.instantiate("qi"), SampleConfig(n=150, seed=7))
    assert c.to_json(deterministic=True) != a.to_json(deterministic=True)


def test_report_json_schema():
    rep = verify_structure(cat.instantiate("lu-transformed"), SampleConfig(n=100))
    data = json.loads(rep.to_json(deterministic=True))
    assert data["schema"] == 2
    assert data["system"] == "lu-transformed"
    assert data["orientation"] == -1
    assert "timestamp" not in data
    for c in data["checks"]:
        assert set(c) == {
            "name", "n", "max_abs", "max_rel", "rms", "tol", "pass", "method", "worst_point"
        }
        assert c["method"] == "exact" and c["worst_point"] is None
    for e in data["discrepancies"]:
        assert {"formula", "match", "max_dev", "at", "method"} <= set(e)
        if e["method"] == "exact":
            assert e["match"] and e["max_dev"] == 0.0 and e["at"] == []
    # one line per check and per discrepancy entry
    rows = [l for l in rep.to_json(deterministic=True).splitlines() if l.startswith("    ")]
    assert [json.loads(l.strip().rstrip(",")) for l in rows] == data["checks"] + data["discrepancies"]
    data2 = json.loads(rep.to_json())
    assert "timestamp" in data2


@pytest.mark.parametrize("name", STRUCTURED)
def test_negative_controls(name):
    d = cat.instantiate(name)
    for i in range(3):
        bad = flipped_sign_variant(d, i)
        rep = verify_structure(bad, SampleConfig(n=60))
        failing = {c.name for c in rep.checks if not c.passed}
        assert failing & {"multiplier", "biham", "orthogonality"}, (name, i, failing)


def test_verify_user_defined_system_with_nonconstant_multiplier():
    # build a system with M != 1 to exercise the 1/M route end to end:
    # start from the corrected transformed-Lu structure and rescale
    # time-independently: X = (1/M) (grad H1 x grad H2) with M = 2
    doc = (
        "name = scaled-lu\nframe = u v w\ntime = t\n"
        "field = 1/2*v ; -1/2*u*w ; 1/2*u*v\n"
        "multiplier = 2\n"
        "h1 = 1/2*(v^2+w^2)\nh2 = 1/2*u^2 - w\norientation = auto\n"
    )
    d = cat.instantiate(cat.load_system(doc))
    rep = verify_structure(d, SampleConfig(n=150))
    assert rep.passed()
    assert rep.orientation == -1


# the parameter sets the verify-catalog benchmark rotates through
BENCH_PARAMS = {
    "lu-original": (
        {"alpha": "1", "beta": "1", "gamma": "1"},
        {"alpha": "2", "beta": "1", "gamma": "1/2"},
        {"alpha": "1/2", "beta": "2", "gamma": "1"},
    ),
    "lu-transformed": ({"alpha": "1"}, {"alpha": "2"}, {"alpha": "1/2"}),
    "modified-lu": ({"alpha": "1"}, {"alpha": "2"}, {"alpha": "1/2"}),
    "t-system": ({"alpha": "1", "gamma": "1"}, {"alpha": "2", "gamma": "1"}, {"alpha": "1/2", "gamma": "3"}),
    "chen": ({"alpha": "1", "gamma": "1"}, {"alpha": "2", "gamma": "1"}, {"alpha": "1/2", "gamma": "2"}),
    "chen-variant": (
        {"alpha": "1", "lambda": "1"},
        {"alpha": "2", "lambda": "1"},
        {"alpha": "1/2", "lambda": "2"},
    ),
    "qi": ({"gamma": "2"}, {"gamma": "1"}, {"gamma": "1/2"}),
}


def _instantiate(name, params):
    return cat.instantiate(name, {k: Fraction(v) for k, v in params.items()})


def _no_draws(*args, **kwargs):
    raise AssertionError("a sample point was drawn")


@pytest.mark.parametrize(
    "name,params", [(n, p) for n in STRUCTURED for p in BENCH_PARAMS[n]]
)
def test_hamiltonian_systems_are_decided_without_sampling(monkeypatch, name, params):
    monkeypatch.setattr(verify, "sample_box", _no_draws)
    rep = verify_structure(_instantiate(name, params))
    assert [c.name for c in rep.checks] == CHECK_NAMES
    for c in rep.checks:
        assert (c.method, c.n, c.max_abs, c.max_rel, c.worst_point, c.passed) == (
            "exact", 0, 0.0, 0.0, None, True
        ), c.name
    assert rep.orientation == -1
    assert "orientation -1 (exact)" in rep.notes
    o = determine_orientation(_instantiate(name, params))
    assert (o.sigma, o.deviation) == (-1, {-1: 0.0})


def test_gradients_are_derived_once_per_verify(monkeypatch):
    import sys

    from biham3 import vecfield

    original, calls = vecfield.gradient, []

    def counted(f):
        calls.append(f)
        return original(f)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("biham3"):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    verify_structure(cat.instantiate("modified-lu"))
    assert len(calls) == 2


def _at(exprs, point):
    names = [s for s, _ in point]
    return ex.compile_array(exprs, names)(np.array([[x for _, x in point]]))[0]


def _witnessed_residuals(d, sigma):
    """Per failing group, the residual lists of which each must be non-zero
    at the group's witness, rebuilt from the bracket algebra."""
    X = d.bound_field().exprs()
    H1, H2 = d.bound_scalar(d.h1), d.bound_scalar(d.h2)
    j1, j2 = d.poisson_vectors()
    S = d.nambu_structure()
    F1 = hamiltonian_field(j1, H2).exprs()
    F2 = hamiltonian_field(j2, H1).exprs()
    nambu = [nambu_bracket(coordinate_field(v, d.frame), H1, H2, S).expr for v in d.frame]
    minus = lambda B, s: [ex.sub(a, ex.mul(ex.con(s), b)) for a, b in zip(X, B)]
    return {
        "multiplier": [[multiplier_residual(S, d.bound_field()).expr]],
        "biham": [minus(F1, sigma) + minus(F2, sigma)],
        "nambu": [minus(nambu, sigma)],
        "orthogonality": [[ex.add(*(ex.mul(g, x) for g, x in zip(G.exprs(), X)))
                           for G in (gradient(H1), gradient(H2))]],
        # neither global sign fits at the witness
        "orientation": [minus(F1, 1), minus(F1, -1)],
    }


@pytest.mark.parametrize("name,component", [(n, i) for n in STRUCTURED for i in range(3)])
def test_flipped_controls_fail_with_sampled_witnesses(name, component):
    d = flipped_sign_variant(cat.instantiate(name), component)
    rep = verify_structure(d, SampleConfig(n=200))
    failing = [c for c in rep.checks if not c.passed]
    assert failing and not rep.passed()
    assert rep.orientation is None
    # with no fitting sign the checks run under the stored orientation
    residuals = _witnessed_residuals(d, d.orientation)
    for c in failing:
        assert c.method == "sampled" and c.n == 200, c.name
        for res in residuals[c.name]:
            assert np.abs(_at(res, c.worst_point)).max() > 0.0, c.name


@pytest.mark.parametrize("params", BENCH_PARAMS["lu-original"])
def test_lu_original_multiplier_is_sampled_at_the_divergence(params):
    rep = verify_structure(_instantiate("lu-original", params))
    (c,) = rep.checks
    v = {k: Fraction(x) for k, x in params.items()}
    assert c.method == "sampled" and c.n == 1000 and not c.passed
    assert c.max_abs == float(abs(v["gamma"] - v["alpha"] - v["beta"]))
    assert [s for s, _ in c.worst_point] == ["t", "x", "y", "z"]


def _weighted_quotient_system():
    # M = 1+u^2 with a large u^6 term in H1 and an exp(4t) weight in H2:
    # the terms of the compatibility residual reach 2.7e4 at points where
    # the products of J1.curl(J2) and J2.curl(J1) stay below 1, so only a
    # scale taken from the residual's own terms keeps its roundoff under 1e-12
    h1, h2, m = "u*v*w + 1000*u^6", "sin(u) + w^3*exp(4*t)", "1+u^2"
    G1, G2 = (gradient(ScalarField(parse(h), ("u", "v", "w"))) for h in (h1, h2))
    X = scale(cross(G1, G2), ex.quot(ex.MINUS_ONE, parse(m)))
    return (
        "name = weighted-quotient\nframe = u v w\ntime = t\n"
        f"field = {' ; '.join(ex.to_text(e) for e in X.exprs())}\n"
        f"multiplier = {m}\nh1 = {h1}\nh2 = {h2}\norientation = auto\n"
    )


QUOTIENT_LU = (
    "name = quotient-lu\nframe = u v w\ntime = t\n"
    "field = v/(1+u^2) ; -u*w/(1+u^2) ; u*v/(1+u^2)\n"
    "multiplier = 1+u^2\n"
    "h1 = 1/2*(v^2+w^2)\nh2 = 1/2*u^2 - w\norientation = auto\n"
)


@pytest.mark.parametrize(
    "doc,cfg",
    [
        (QUOTIENT_LU, SampleConfig(n=150)),
        # expand distributes the sum 1+u^2 before it meets (1+u^2)^(-1),
        # so only is_zero's common denominator shows the multiplier group zero
        (_weighted_quotient_system(), SampleConfig()),
    ],
    ids=["quotient-lu", "weighted-quotient"],
)
def test_quotient_multiplier_system_routes_each_group(doc, cfg):
    # X = -(1/M) grad(H1) x grad(H2) with M = 1+u^2: every identity holds,
    # and every group is decided without a point
    rep = verify_structure(cat.instantiate(cat.load_system(doc)), cfg)
    assert rep.passed() and rep.orientation == -1
    assert "orientation -1 (exact)" in rep.notes
    for c in rep.checks:
        assert (c.method, c.n, c.max_abs, c.worst_point) == ("exact", 0, 0.0, None), c.name


def test_identities_outside_the_normal_form_are_sampled_with_witnesses():
    # the corrected transformed-Lu field scaled by sin(u)^2 + cos(u)^2 = 1:
    # the normal form does not know that identity, so the checks that
    # compare the field with the bracket flows are sampled and pass with
    # a witness
    s = "(sin(u)^2+cos(u)^2)"
    doc = (
        "name = pythagoras\nframe = u v w\n"
        f"field = {s}*v ; -{s}*u*w ; {s}*u*v\n"
        "h1 = 1/2*(v^2+w^2)\nh2 = 1/2*u^2 - w\norientation = auto\n"
    )
    rep = verify_structure(cat.instantiate(cat.load_system(doc)), SampleConfig(n=200))
    assert rep.passed() and rep.orientation == -1
    assert any(n.startswith("orientation -1 fits") and n.endswith("(sampled)") for n in rep.notes)
    sampled = [c for c in rep.checks if c.method == "sampled"]
    assert [c.name for c in sampled] == ["biham", "nambu"]
    for c in sampled:
        assert c.n == 200 and c.max_rel <= 1e-12
        assert [name for name, _ in c.worst_point] == ["t", "u", "v", "w"]


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


def test_reports_are_strict_json():
    # no orientation sign fits a flipped control: its orientation check has no finite statistics
    control = flipped_sign_variant(cat.instantiate("lu-transformed"), 0)
    report = _strict_json(verify_structure(control, SampleConfig(n=50)).to_json())
    check = report["checks"][-1]
    assert check["name"] == "orientation" and check["pass"] is False
    assert check["max_abs"] is check["max_rel"] is check["rms"] is None
    # a field undefined at some sample points
    defn = cat.load_system(
        "name = undefined\nframe = u v w\nfield = v ; -u ; ln(u)\nh1 = u^2+v^2\nh2 = w\n"
    )
    report = _strict_json(verify_structure(defn, SampleConfig(n=50)).to_json())
    unfinite = {c["name"] for c in report["checks"] if c["max_rel"] is None}
    assert {"biham", "nambu", "orthogonality"} <= unfinite
    assert report["pass"] is False


@pytest.mark.parametrize(
    "defn",
    [
        flipped_sign_variant(cat.instantiate("modified-lu"), 1),
        cat.load_system(
            "name = pythagoras\nframe = u v w\nfield = (sin(u)^2+cos(u)^2)*v ; -u*w ; u*v\n"
            "h1 = 1/2*(v^2+w^2)\nh2 = 1/2*u^2 - w\n"
        ),
        cat.load_system(
            "name = undefined\nframe = u v w\nfield = v ; -u ; ln(u)\nh1 = u^2+v^2\nh2 = w\n"
        ),
    ],
    ids=["flipped", "pythagoras", "undefined"],
)
def test_sampled_checks_are_the_same_in_blocks(monkeypatch, defn):
    # each statistic of a sampled check is per point or over all points,
    # so evaluating the term columns a few points at a time changes no byte
    cfg = SampleConfig(n=50)
    whole = verify_structure(defn, cfg).to_json(deterministic=True)
    monkeypatch.setattr(verify, "_BLOCK", 7)
    assert verify_structure(defn, cfg).to_json(deterministic=True) == whole
    assert '"method": "sampled"' in whole
