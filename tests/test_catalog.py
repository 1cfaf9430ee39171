"""Catalog: the seven built-in systems, constraints, transforms,
published-formula bookkeeping, and the system-file loader.

The chain-rule transform oracle must confirm every stored field to
1e-12 relative; orthogonality/conservation invariants are sampled at
1e-12.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from biham3 import catalog as cat
from biham3 import expr as ex
from biham3.expr import parse
from biham3.vecfield import VectorField3, gradient
from biham3.poisson import jacobi_residual

BOX = {"u": (-2.0, 2.0), "v": (-2.0, 2.0), "w": (-2.0, 2.0), "t": (0.0, 2.0)}
SRC = str(Path(__file__).resolve().parents[1] / "src")
STRUCTURED = ("lu-transformed", "modified-lu", "t-system", "chen", "chen-variant", "qi")


def test_seven_builtins():
    systems = cat.list_systems()
    assert len(systems) == 7
    assert [s["name"] for s in systems] == list(cat.BUILTIN_NAMES)


def test_constraint_summaries():
    by_name = {s["name"]: s for s in cat.list_systems()}
    assert "beta = 2*alpha" in by_name["lu-transformed"]["constraints"]
    assert "gamma = -2*alpha" in by_name["lu-transformed"]["constraints"]
    assert "alpha = 1" in by_name["qi"]["constraints"]
    assert "beta = 1" in by_name["qi"]["constraints"]
    assert not by_name["lu-original"]["hamiltonians"]


def test_instantiate_lu_transformed():
    d = cat.instantiate("lu-transformed", alpha=1)
    assert d.bound_field().exprs() == (parse("v"), parse("-u*w"), parse("u*v"))
    assert d.h1.expr == parse("1/2*(v^2+w^2)")
    assert d.bound_scalar(d.h2).expr == parse("1/2*u^2 - w")
    assert d.multiplier.expr == ex.ONE
    assert d.orientation == -1
    assert d.param_values == {"alpha": 1, "beta": 2, "gamma": -2}


def test_instantiate_qi():
    q = cat.instantiate("qi", gamma=2)
    assert q.bound_scalar(q.h1).expr == parse("2*u^2 - v^2 - 3*w^2")
    with pytest.raises(cat.ConstraintError):
        cat.instantiate("qi", alpha=2)
    with pytest.raises(cat.ConstraintError):
        cat.instantiate("qi", gamma=-1)  # H2 divides by gamma+1


def test_instantiate_errors():
    with pytest.raises(cat.ConstraintError):
        cat.instantiate("t-system", alpha=0)
    with pytest.raises(cat.ConstraintError):
        cat.instantiate("lu-transformed", delta=1)
    with pytest.raises(cat.ConstraintError):
        cat.get_system("lorenz")


def test_instantiate_fills_dependent_parameters():
    d = cat.instantiate("modified-lu", alpha=2)
    assert d.param_values == {"alpha": 2, "beta": 4, "gamma": -2}
    # consistent explicit values are accepted
    d = cat.instantiate("modified-lu", alpha=2, beta=4)
    assert d.param_values["beta"] == 4


@pytest.mark.parametrize("name", STRUCTURED)
def test_transform_check_confirms_catalog_fields(name):
    r = cat.transform_check(cat.instantiate(name))
    assert r["pass"], r
    assert r["max_rel_dev"] < 1e-12


def test_transform_check_flags_published_lu_third_component():
    d = cat.instantiate("lu-transformed")
    printed = VectorField3.from_exprs(list(d.printed["field"]), d.frame)
    r = cat.transform_check(d, field=printed)
    assert not r["pass"]
    assert r["components"][0]["pass"] and r["components"][1]["pass"]
    assert r["components"][2]["max_rel_dev"] > 0.1


def test_transform_check_flags_published_chen_uw_coefficient():
    # the published coefficient alpha on the u*w term coincides with the
    # derived coefficient 1 at alpha=1, so probe at alpha=2
    d = cat.instantiate("chen", alpha=2)
    printed = VectorField3.from_exprs(list(d.printed["field"]), d.frame)
    r = cat.transform_check(d, field=printed)
    assert not r["pass"]
    assert r["components"][0]["pass"] and r["components"][2]["pass"]
    assert r["components"][1]["max_rel_dev"] > 0.01


def test_transform_check_of_a_loaded_system():
    # a system file with a transform is checked as itself, not looked up by name
    doc = cat._DOCUMENTS["lu-transformed"].replace("name = lu-transformed", "name = my-lu")
    r = cat.transform_check(cat.load_system(doc))
    assert r["system"] == "my-lu" and r["pass"], r


def test_transform_check_requires_metadata():
    with pytest.raises(cat.ConstraintError):
        cat.transform_check(cat.instantiate("lu-original"))


@pytest.mark.parametrize("name", STRUCTURED)
def test_forward_inverse_composition_is_identity(name):
    d = cat.instantiate(name)
    cov = d.transform
    inverse_map = dict(zip(cov.source_frame, cov.inverse))
    for i, fwd in enumerate(cov.forward):
        composed = ex.substitute(fwd, inverse_map)
        target = ex.var(d.frame[i])
        assert (
            composed == target
            or ex.equal_numeric(composed, target, BOX, n=50, tol=1e-10).equal
        ), (name, i, composed)


@pytest.mark.parametrize("name", STRUCTURED)
def test_orthogonality_invariants(name):
    d = cat.instantiate(name)
    X = d.bound_field()
    for h in (d.h1, d.h2):
        g = gradient(d.bound_scalar(h))
        dotv = ex.add(*(ex.mul(a, b) for a, b in zip(g.exprs(), X.exprs())))
        assert (
            dotv == ex.ZERO
            or ex.equal_numeric(dotv, ex.ZERO, BOX, n=200, tol=1e-12).equal
        )


@pytest.mark.parametrize("name", STRUCTURED)
def test_h1_is_time_independent(name):
    d = cat.instantiate(name)
    assert d.h1.is_time_independent()


@pytest.mark.parametrize("name", STRUCTURED)
def test_gradient_poisson_vectors_satisfy_jacobi_identically(name):
    d = cat.get_system(name)  # symbolic parameters
    for h in (d.h1, d.h2):
        assert jacobi_residual(gradient(h)).expr == ex.ZERO


def test_chen_variant_first_integral_conserved_symbolically():
    from biham3.vecfield import dot

    d = cat.get_system("chen-variant")  # keep alpha, lambda symbolic
    assert dot(gradient(d.h1), d.field).expr == ex.ZERO


# --- system files ------------------------------------------------------


def test_save_load_round_trip():
    for name in cat.BUILTIN_NAMES:
        d0 = cat.get_system(name)
        assert cat.load_system(cat.save_system(d0)) == d0


def test_the_time_variable_is_t():
    for name in cat.BUILTIN_NAMES:
        text = cat.save_system(cat.get_system(name))
        assert not [line for line in text.splitlines() if line.partition("=")[0].strip() == "time"]
        assert cat.load_system(text) == cat.get_system(name)
        # files written before the time variable was fixed carry `time = t`
        frame = next(line for line in text.splitlines() if line.startswith("frame"))
        older = text.replace(frame, frame + "\ntime = t")
        assert older != text and cat.load_system(older) == cat.get_system(name)


def test_each_document_is_named_by_its_key():
    for name in cat.BUILTIN_NAMES:
        assert cat.get_system(name).name == name


def test_get_system_parses_once():
    for name in cat.BUILTIN_NAMES:
        assert cat.get_system(name) is cat.get_system(name)


def test_import_parses_no_builtin_document():
    # a fresh interpreter records each call of biham3's parse and load_system
    code = (
        "import sys\n"
        "calls = []\n"
        "def profile(frame, event, arg):\n"
        "    f = frame.f_code\n"
        "    if event == 'call' and f.co_name in ('parse', 'load_system') and 'biham3' in f.co_filename:\n"
        "        calls.append(f.co_name)\n"
        "sys.setprofile(profile)\n"
        "import biham3.catalog as cat\n"
        "assert calls == [], calls\n"
        "cat.get_system('qi')\n"
        "sys.setprofile(None)\n"
        "assert calls[0] == 'load_system' and calls.count('load_system') == 1, calls\n"
        "assert calls.count('parse') > 20, calls\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_load_reads_the_optional_keys():
    doc = (
        "name = osc\ndescription = a rotation\nframe = u v w\n"
        "field = v ; -u ; 0\nh1 = u^2+v^2\nh2 = w\n"
        "requires_nonzero = k ; k+1\nnote = first\nnote = second; with = signs\n"
        "printed.H2 = 2*w\nprinted.J1 = 2*u ; 2*v ; 0\nprinted.transform_u = x\n"
        "transform.source_frame = x y z\ntransform.source_field = y ; -x ; 0\n"
        "transform.forward = x ; y ; z\ntransform.inverse = u ; v ; w\n"
        "transform.time_rescale_rate = 1\n"
        "params\n    k\n"
    )
    d = cat.load_system(doc)
    assert d.description == "a rotation"
    assert d.notes == ("first", "second; with = signs")
    assert d.requires_nonzero == (parse("k"), parse("k+1"))
    assert d.printed == {
        "H2": parse("2*w"),
        "J1": (parse("2*u"), parse("2*v"), ex.ZERO),
        "transform_u": parse("x"),
    }
    assert d.transform == cat.ChangeOfVariables(
        ("x", "y", "z"),
        (parse("y"), parse("-x"), ex.ZERO),
        (parse("x"), parse("y"), parse("z")),
        (parse("u"), parse("v"), parse("w")),
        time_rescale_rate=ex.ONE,
    )
    assert cat.load_system(cat.save_system(d)) == d
    assert cat.load_system("name = bare\nframe = u v w\nfield = v ; -u ; 0\n").description == (
        "user-defined system"
    )


def test_load_rejects_two_variable_frame():
    doc = "name = flat\nframe = u v\nfield = v ; -u ; 0\n"
    with pytest.raises(cat.SystemFormatError):
        cat.load_system(doc)


def test_load_defaults():
    doc = "name = osc\nframe = u v w\nfield = v ; -u ; 0\nh1 = u^2+v^2\n"
    d = cat.load_system(doc)
    assert d.multiplier.expr == ex.ONE
    assert d.orientation is None
    assert d.h2 is None


def test_load_rejects_zero_multiplier():
    doc = "name = bad\nframe = u v w\nfield = v ; -u ; 0\nmultiplier = 0\n"
    with pytest.raises(cat.SystemFormatError):
        cat.load_system(doc)


def test_load_rejects_out_of_frame_variables():
    doc = "name = bad\nframe = u v w\nfield = x ; -u ; 0\n"
    with pytest.raises(cat.SystemFormatError):
        cat.load_system(doc)


def test_load_params_and_instantiate():
    doc = (
        "name = custom\nframe = u v w\nparams\n    alpha\n    beta = 2*alpha\n"
        "field = alpha*v ; -u*w ; u*v\nh1 = 1/2*(v^2+w^2)\nh2 = 1/2*u^2 - alpha*w\n"
        "orientation = -1\n"
    )
    d = cat.load_system(doc)
    inst = cat.instantiate(d, {"alpha": 3})
    assert inst.param_values == {"alpha": 3, "beta": 6}
    assert inst.bound_field().exprs()[0] == parse("3*v")


@pytest.mark.parametrize(
    "lines,message",
    [
        (["u"], "'u' is not a parameter name"),
        (["t = 2"], "'t' is not a parameter name"),
        (["exp"], "'exp' is not a parameter name"),
        (["1x"], "'1x' is not a parameter name"),
        (["alpha 2"], "'alpha 2' is not a parameter name"),
        (["alpha", "alpha = 2"], "parameter 'alpha' is declared twice"),
    ],
    ids=["variable", "time-variable", "function", "not-identifier", "name-expr-form", "twice"],
)
def test_load_rejects_bad_parameter_lines(lines, message):
    doc = (
        "name = custom\nframe = u v w\nparams\n"
        + "".join(f"    {line}\n" for line in lines)
        + "field = v ; -u ; 0\n"
    )
    with pytest.raises(cat.SystemFormatError, match=message):
        cat.load_system(doc)


SYSTEM = "name = s\nframe = u v w\nfield = v ; -u ; 0\nh1 = u^2+v^2\nh2 = w\n"
TRANSFORM = (
    "transform.source_frame = x y z\ntransform.source_field = y ; -x ; 0\n"
    "transform.forward = x ; y ; z\ntransform.inverse = u ; v ; w\n"
)


@pytest.mark.parametrize(
    "doc,message",
    [
        (SYSTEM + "= x\n", "line 6: unrecognized line '= x'"),
        (SYSTEM + "params\n    k\n = x\n", "line 8: '' is not a parameter name"),
        (SYSTEM + "time = u\n", "time must be t, got 'u'"),
        (SYSTEM + "time = zz=1/0\n", "time must be t, got 'zz=1/0'"),
        (SYSTEM + "time = \n", "time must be t, got ''"),
        ("name = s\nframe = u u w\nfield = v ; -u ; 0\n", r"frame lists a variable twice"),
        (SYSTEM + "printed.J3 = 0 ; 0 ; 0\n", "printed.J3 has nothing to be compared with"),
        (SYSTEM + "printed.h2 = w\n", "printed.h2 has nothing to be compared with"),
        (SYSTEM + "printed.transform_u = x\n", "printed.transform_u has nothing to be compared"),
        (SYSTEM + TRANSFORM + "printed.transform_x = x\n", "printed.transform_x has nothing"),
        ("name = s\nframe = u v w\nfield = v ; -u ; 0\nprinted.J1 = u ; v ; w\n", "printed.J1 has"),
        (SYSTEM + "printed.field = v ; -u\n", "printed.field takes 3 formulas, got 2"),
        (SYSTEM + "printed.J2 = w\n", "printed.J2 takes 3 formulas, got 1"),
        (SYSTEM + "printed.H1 = u^2 ; v^2\n", "printed.H1 takes 1 formula, got 2"),
        (SYSTEM + TRANSFORM + "printed.transform_v = y ; x\n", "printed.transform_v takes 1"),
        (SYSTEM + TRANSFORM + "transform.rate = 1\n", "unknown key 'transform.rate'"),
        (SYSTEM + "transform.forward = x ; y ; z\n", "missing 'transform.source_frame'"),
        (SYSTEM + TRANSFORM + "transform.time_rescale = t ; t\n", "transform.time_rescale takes 1"),
        (SYSTEM + TRANSFORM.replace("x y z", "x y"), "transform.source_frame must list exactly"),
        (SYSTEM + "note\n", "line 6: note needs a value"),
    ],
    ids=[
        "empty-key", "empty-parameter-key", "time-in-frame", "time-code", "time-empty",
        "frame-repeat", "printed-unknown", "printed-lowercase", "printed-transform-untransformed",
        "printed-transform-off-frame", "printed-J-without-hamiltonians", "printed-field-parts",
        "printed-J-parts", "printed-H-parts", "printed-transform-parts", "transform-unknown",
        "transform-missing", "transform-rescale-parts", "transform-frame", "note-without-value",
    ],
)
def test_load_rejects_malformed_documents(doc, message):
    with pytest.raises(cat.SystemFormatError, match=re.escape(message)):
        cat.load_system(doc)


@pytest.mark.parametrize(
    "doc,message",
    [
        (SYSTEM + "time = x\n", "time must be t, got 'x'"),
        (SYSTEM.replace("u v w", "t u v"), "frame must not list the time variable t, got ('t', 'u', 'v')"),
        (
            SYSTEM + TRANSFORM.replace("x y z", "t y z"),
            "transform.source_frame must not list the time variable t, got ('t', 'y', 'z')",
        ),
    ],
    ids=["other-time", "time-in-frame", "time-in-source-frame"],
)
def test_load_refuses_a_time_variable_other_than_t(doc, message):
    with pytest.raises(cat.SystemFormatError, match=re.escape(message)):
        cat.load_system(doc)
