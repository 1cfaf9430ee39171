"""Acceptance criteria from the README, one test each: every row of the
published-vs-derived discrepancy table, with the verdict and how it was
reached, and the chen-variant finite-time blow-up as an asserted abort.

An exact verdict means the difference of the two formulas expands to
zero in the canonical normal form; a mismatch cannot be decided that way
and is reported from seeded sample points.
"""

from biham3 import catalog as cat
from biham3 import expr as ex
from biham3.cli import main
from biham3.vecfield import ScalarField, gradient
from biham3.verify import SampleConfig, compare_printed

BOX = {"u": (-2.0, 2.0), "v": (-2.0, 2.0), "w": (-2.0, 2.0), "t": (0.0, 2.0)}


def entries(name, **params):
    return {e["formula"]: e for e in compare_printed(cat.instantiate(name, params), SampleConfig(n=100))}


def verdict(entry):
    return entry["match"], entry["method"]


def test_transformed_lu_third_field_component_has_the_wrong_sign():
    e = entries("lu-transformed")
    assert verdict(e["field[2]"]) == (False, "sampled")
    assert e["field[2]"]["max_dev"] > 0.1 and e["field[2]"]["at"]
    assert verdict(e["field[0]"]) == verdict(e["field[1]"]) == (True, "exact")


def test_chen_uw_coefficient_is_alpha_in_print_and_one_derived():
    assert verdict(entries("chen", alpha=2)["field[1]"]) == (False, "sampled")
    assert verdict(entries("chen", alpha=1)["field[1]"]) == (True, "exact")


def test_modified_lu_change_of_variables_needs_gamma_minus_alpha():
    assert verdict(entries("modified-lu")["transform_v"]) == (False, "sampled")


def test_modified_lu_h2_weight_has_the_wrong_sign():
    assert verdict(entries("modified-lu")["H2"]) == (False, "sampled")


def test_modified_lu_second_poisson_vector_matches_neither_h2():
    e = entries("modified-lu")
    assert all(verdict(e[f"J2[{i}]"]) == (False, "sampled") for i in range(3))
    # nor is it -grad of the published H2: only the w components agree
    d = cat.instantiate("modified-lu")
    printed_h2 = ScalarField(d.bound_expr(d.printed["H2"]), d.frame)
    agree = [
        ex.equal_numeric(d.bound_expr(p), ex.neg(g), BOX, n=100, tol=1e-9).equal
        for p, g in zip(d.printed["J2"], gradient(printed_h2).exprs())
    ]
    assert agree == [False, False, True]


def test_tsystem_second_poisson_vector_flips_the_gamma_minus_alpha_term():
    e = entries("t-system", gamma=3)
    assert verdict(e["J2[0]"]) == (False, "sampled")
    assert verdict(e["J2[1]"]) == verdict(e["J2[2]"]) == (True, "exact")
    # invisible at gamma = alpha
    assert verdict(entries("t-system")["J2[0]"]) == (True, "exact")


def test_chen_second_poisson_vector_matches_once_expanded():
    e = entries("chen", gamma=3)
    assert all(verdict(e[f"J2[{i}]"]) == (True, "exact") for i in range(3))


def test_qi_and_chen_variant_poisson_vectors_match():
    for name in ("qi", "chen-variant"):
        e = entries(name)
        assert sorted(e) == [f"J{k}[{i}]" for k in (1, 2) for i in range(3)]
        assert all(verdict(x) == (True, "exact") for x in e.values()), name


def test_chen_variant_blows_up_before_t_20(tmp_path, capsys):
    # finite-time blow-up from (1,1,1), confirmed independently with scipy:
    # the adaptive integrator stops with a step-size underflow
    code = main(
        ["simulate", "chen-variant", "--init", "1,1,1", "--t1", "20",
         "--out", str(tmp_path / "cv.csv")]
    )
    _, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("integration aborted: step size underflow at t=2.1706")
