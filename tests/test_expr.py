"""Expression layer: parsing, differentiation, normalization, evaluation.

Tolerances: exact structural equality for symbolic assertions; 1e-6
relative for derivative-vs-finite-difference cross-checks (central
stencil, h=1e-6); 1e-12 for sampling-based equalities of exact
identities.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from biham3 import expr as ex
from biham3.expr import (
    DomainError,
    NonIntegerExponentError,
    ParseError,
    UnboundSymbolError,
    UnknownFunctionError,
    differentiate,
    equal_numeric,
    evaluate,
    expand,
    parse,
    simplify,
    substitute,
    to_text,
)
from biham3 import catalog as cat
from biham3.sampling import SeededSampler, random_expression, sample_box

BOX_UVWT = {"u": (-2, 2), "v": (-2, 2), "w": (-2, 2), "t": (0, 2)}


def catalog_expressions():
    """Every expression stored in the built-in catalog."""
    out = []
    for name in cat.BUILTIN_NAMES:
        d = cat.get_system(name)
        out.extend(c.expr for c in d.field.components)
        out.append(d.multiplier.expr)
        for h in (d.h1, d.h2):
            if h is not None:
                out.append(h.expr)
        for val in d.printed.values():
            out.extend(val if isinstance(val, tuple) else (val,))
        if d.transform is not None:
            out.extend(d.transform.forward)
            out.extend(d.transform.inverse)
            out.extend(d.transform.source_field)
            if d.transform.time_rescale is not None:
                out.append(d.transform.time_rescale)
                out.append(d.transform.time_rescale_rate)
    return out


# --- parsing ----------------------------------------------------------


def test_parse_transformed_lu_hamiltonian():
    e = parse("0.5*(v^2+w^2)")
    assert isinstance(e, ex.Mul)
    assert e == ex.mul(ex.con(Fraction(1, 2)), ex.add(parse("v^2"), parse("w^2")))


def test_parse_single_variable():
    e = parse("u")
    assert isinstance(e, ex.Var)
    assert e.name == "u"


def test_parse_weighted_product_has_three_factors():
    e = parse("exp(-2*alpha*t)*v*w")
    assert isinstance(e, ex.Mul)
    assert len(e.factors) == 3
    assert any(isinstance(f, ex.Exp) for f in e.factors)


def test_decimal_and_scientific_literals_are_exact():
    assert parse("0.5") == ex.con(Fraction(1, 2))
    assert parse("1e-6") == ex.con(Fraction(1, 10**6))
    assert parse("2.5E+3") == ex.con(2500)


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(ParseError) as err:
        parse("2 u")
    assert err.value.position == 2


def test_parse_error_positions():
    with pytest.raises(ParseError):
        parse("u + ")
    with pytest.raises(ParseError):
        parse("(u + v")
    with pytest.raises(ParseError) as err:
        parse("u $ v")
    assert err.value.position == 2


def test_parse_rejects_non_integer_exponents():
    with pytest.raises(NonIntegerExponentError):
        parse("u^0.5")
    with pytest.raises(NonIntegerExponentError):
        parse("u^(1/2)")
    with pytest.raises(NonIntegerExponentError):
        parse("u^v")


def test_parse_rejects_unknown_functions():
    with pytest.raises(UnknownFunctionError):
        parse("tan(u)")
    with pytest.raises(ParseError):
        parse("exp")  # function name without arguments


def test_parse_rejects_deep_nesting():
    depth = ex.MAX_NESTING
    assert parse("(" * (depth - 1) + "u" + ")" * (depth - 1)) == parse("u")
    assert parse("-" * (depth - 2) + "u") == parse("u")
    for text in (
        "(" * 3000 + "u" + ")" * 3000,
        "-" * 5000 + "u",
        "exp(" * depth + "u" + ")" * depth,
        "u^" * depth + "1",
    ):
        with pytest.raises(ParseError, match="nested deeper than"):
            parse(text)


def test_power_is_right_associative_and_tighter_than_unary_minus():
    assert parse("2^3^2") == ex.con(512)
    assert parse("-u^2") == ex.neg(parse("u^2"))
    assert parse("u^-2") == ex.pow_(ex.var("u"), -2)


def test_identifier_classification():
    assert isinstance(parse("alpha"), ex.Param)
    assert isinstance(parse("lambda"), ex.Param)
    assert all(isinstance(parse(v), ex.Var) for v in "tuvwxyz")


# --- normalization ----------------------------------------------------


def test_cancellation_to_zero():
    assert parse("u*v - v*u") == ex.ZERO


def test_exponential_merge():
    assert parse("exp(-t)*exp(t)*w") == ex.var("w")


def test_divergence_of_corrected_lu_field_is_zero():
    terms = [
        differentiate(parse("alpha*v"), "u"),
        differentiate(parse("-u*w"), "v"),
        differentiate(parse("u*v"), "w"),
    ]
    assert ex.add(*terms) == ex.ZERO


def test_simplify_idempotent_and_identity_on_random_corpus():
    sampler = SeededSampler(42)
    for _ in range(1000):
        e = random_expression(sampler, ("u", "v", "w", "t"), 8)
        s = simplify(e)
        assert s == e  # constructors already canonicalize
        assert simplify(s) == s


def test_constant_folding():
    assert parse("2^3") == ex.con(8)
    assert parse("2^-2") == ex.con(Fraction(1, 4))
    assert parse("(u^2)^3") == ex.pow_(ex.var("u"), 6)
    assert parse("6/3") == ex.con(2)


def test_expand_distributes():
    e = expand(parse("(u+v)^2"))
    assert e == parse("u^2 + 2*u*v + v^2")
    assert expand(parse("u*(v+w)")) == parse("u*v + u*w")


# --- differentiation --------------------------------------------------


def test_derivative_examples():
    assert differentiate(parse("0.5*(v^2+w^2)"), "v") == ex.var("v")
    assert differentiate(parse("u^2-2*alpha*w"), "u") == parse("2*u")
    assert differentiate(parse("exp(-2*alpha*t)*u"), "t") == parse(
        "-2*alpha*exp(-2*alpha*t)*u"
    )


def test_derivative_rules():
    assert differentiate(parse("sin(u)"), "u") == parse("cos(u)")
    assert differentiate(parse("cos(u)"), "u") == parse("-sin(u)")
    assert differentiate(parse("ln(u)"), "u") == parse("1/u")
    assert differentiate(parse("u/v"), "v") == parse("-u/v^2")
    assert differentiate(parse("u^2-2*alpha*w"), "alpha") == parse("-2*w")


def test_derivatives_match_central_differences_on_catalog():
    h = 1e-6
    sampler = SeededSampler(42)
    for e in catalog_expressions():
        syms = sorted(e.free_symbols())
        if not syms:
            continue
        box = {}
        for s in syms:
            if s == "t":
                box[s] = (0.0, 2.0)
            elif s in ex.VARIABLES:
                box[s] = (-2.0, 2.0)
            else:
                box[s] = (0.5, 2.0)  # parameters appear in denominators
        for s in syms:
            d = differentiate(e, s)
            for _ in range(100 // len(syms) + 1):
                pt = sampler.point(box)
                hi = dict(pt)
                lo = dict(pt)
                hi[s] = pt[s] + h
                lo[s] = pt[s] - h
                fd = (evaluate(e, hi) - evaluate(e, lo)) / (2 * h)
                sym = evaluate(d, pt)
                assert abs(sym - fd) <= 1e-6 * (1 + abs(sym)), (str(e), s, pt)


# --- printing / round trip --------------------------------------------


def test_round_trip_on_catalog_expressions():
    for e in catalog_expressions():
        assert parse(to_text(e)) == e
        assert simplify(e) == e


def test_round_trip_on_random_corpus():
    sampler = SeededSampler(7)
    for _ in range(500):
        e = random_expression(sampler, ("u", "v", "w", "t"), 6)
        assert parse(to_text(e)) == e, to_text(e)


# --- evaluation -------------------------------------------------------


def test_evaluate_examples():
    assert evaluate(parse("0.5*(v^2+w^2)"), {"v": 2, "w": 3}) == 6.5
    assert evaluate(parse("u^2-2*alpha*w"), {"u": 1, "alpha": 1, "w": 3}) == -5.0
    assert evaluate(parse("exp(-2*alpha*t)"), {"alpha": 1, "t": 0}) == 1.0


def test_evaluate_is_pure():
    e = parse("exp(u)*sin(v)/(1+w^2)")
    b = {"u": 0.3, "v": -1.2, "w": 0.7}
    assert evaluate(e, b) == evaluate(e, b)


def test_evaluate_errors():
    with pytest.raises(UnboundSymbolError):
        evaluate(parse("u+v"), {"u": 1})
    with pytest.raises(DomainError):
        evaluate(parse("ln(u)"), {"u": -1.0})
    with pytest.raises(DomainError):
        evaluate(parse("1/u"), {"u": 0.0})
    with pytest.raises(DomainError):
        parse("ln(-1)")
    with pytest.raises(DomainError):
        parse("1/0")


def test_compiled_matches_recursive_evaluation():
    sampler = SeededSampler(3)
    e = parse("exp(-2*t)*(u^2+v^2)*(1/4*(u^2+v^2) - w) - v^2/2")
    names = ("u", "v", "w", "t")
    f = ex.compile_fn(e, names)
    points = [sampler.point(BOX_UVWT) for _ in range(50)]
    A = ex.compile_array([e, ex.ZERO, parse("cos(u)+sin(v)")], names)(
        [[pt[s] for s in names] for pt in points]
    )
    assert A.shape == (50, 3)
    for pt, row in zip(points, A):
        want = evaluate(e, pt)
        assert f(pt["u"], pt["v"], pt["w"], pt["t"]) == pytest.approx(want, rel=1e-15, abs=1e-15)
        assert row[0] == pytest.approx(want, rel=1e-15, abs=1e-15)
        assert row[1] == 0.0
        assert row[2] == pytest.approx(math.cos(pt["u"]) + math.sin(pt["v"]), rel=1e-15)


def test_compile_array_marks_domain_failures_non_finite():
    f = ex.compile_array([parse("ln(u)"), parse("1/u"), parse("exp(u)")], ("u",))
    A = f([[-1.0], [0.0], [1000.0], [1.0]])
    assert np.isnan(A[0, 0]) and np.isinf(A[1, 1]) and np.isinf(A[2, 2])
    assert np.isfinite(A[3]).all()
    with pytest.raises(UnboundSymbolError):
        ex.compile_array([parse("u+v")], ("u",))


# --- substitution -----------------------------------------------------


def test_substitute_examples():
    assert substitute(parse("x^2"), "x", parse("u*exp(-alpha*t)")) == parse(
        "u^2*exp(-2*alpha*t)"
    )
    e = parse("exp(2*alpha*t)*(x^2-2*alpha*z)")
    e = substitute(e, "x", parse("u*exp(-alpha*t)"))
    e = substitute(e, "z", parse("w*exp(-2*alpha*t)"))
    assert e == parse("u^2-2*alpha*w")
    u = parse("u")
    assert substitute(u, "u", parse("u")) == u


# --- sampling equality oracle -----------------------------------------


def test_equal_numeric_trivial_and_reflexive():
    r = equal_numeric(parse("u*v-v*u"), parse("0"), BOX_UVWT, n=20)
    assert r.equal and r.max_abs_dev == 0.0
    e = parse("exp(u)*sin(v)")
    assert equal_numeric(e, e, BOX_UVWT, n=20).equal


def test_equal_numeric_detects_published_modified_lu_j2_mismatch():
    d = cat.get_system("modified-lu")
    printed_h2 = d.printed["H2"]
    printed_j2_second = d.printed["J2"][1]
    lhs = differentiate(printed_h2, "v")
    rhs = ex.neg(printed_j2_second)
    box = dict(BOX_UVWT, alpha=(0.5, 2.0))
    r = equal_numeric(lhs, rhs, box, n=100)
    assert not r.equal
    assert r.max_abs_dev > 1e-3


def test_equal_numeric_resamples_domain_errors():
    r = equal_numeric(parse("ln(u)"), parse("ln(u)"), {"u": (-1.0, 2.0)}, n=30)
    assert r.equal and r.samples == 30


def test_equal_numeric_requires_domain_for_all_symbols():
    with pytest.raises(ex.ExprError):
        equal_numeric(parse("u+alpha"), parse("u"), {"u": (0, 1)}, n=5)


# --- sampling ----------------------------------------------------------


def test_sample_box_draws_the_point_stream_in_order():
    box = {"w": (-1.0, 3.0), "u": (0.0, 1.0), "t": (0.0, 2.0)}
    names, P = sample_box(SeededSampler(5), box, 40)
    ref = SeededSampler(5)
    assert names == ("t", "u", "w")
    assert P.tolist() == [list(ref.point(box).values()) for _ in range(40)]


def test_sample_box_keeps_what_a_sequential_accept_loop_keeps():
    box = {"u": (-1.0, 1.0), "v": (-1.0, 1.0)}
    ok = lambda u, v: u * v > 0.25
    ref = SeededSampler(9)
    want, draws = [], 0
    while len(want) < 30:
        pt = ref.point(box)
        draws += 1
        if ok(pt["u"], pt["v"]):
            want.append([pt["u"], pt["v"]])
    sampler = SeededSampler(9)
    _, P = sample_box(sampler, box, 30, keep=lambda P: ok(P[:, 0], P[:, 1]))
    assert P.tolist() == want
    # the shortfall is redrawn, never more: both streams are at the same place
    assert sampler.random() == ref.random()


def test_sample_box_budget():
    with pytest.raises(DomainError, match="budget exhausted"):
        sample_box(SeededSampler(1), {"u": (0.0, 1.0)}, 20, keep=lambda P: P[:, 0] > 0.99)
    # ten draws per wanted point are allowed, and no more
    sampler = SeededSampler(1)
    calls = []

    def keep(P):
        calls.append(len(P))
        return P[:, 0] > 2.0

    with pytest.raises(DomainError):
        sample_box(sampler, {"u": (0.0, 1.0)}, 3, keep=keep)
    assert calls == [3] * 10
