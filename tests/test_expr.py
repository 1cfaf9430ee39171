"""Expression layer: parsing, differentiation, normalization, evaluation.

Tolerances: exact structural equality for symbolic assertions; 1e-6
relative for derivative-vs-finite-difference cross-checks (central
stencil, h=1e-6); 1e-12 for sampling-based equalities of exact
identities.
"""

import functools
import gc
import math
import time
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
from biham3.sampling import SeededSampler, random_expression, random_polynomial, sample_box

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
    # the constructor refuses them too, also as a Fraction or a float
    for n in (Fraction(3, 2), 1.5, ex.con(Fraction(1, 2)), ex.var("v")):
        with pytest.raises(ex.ExprError, match="exponent must be an integer"):
            ex.pow_(ex.var("u"), n)
    assert ex.pow_(ex.var("u"), Fraction(4)) == ex.pow_(ex.var("u"), 4.0) == parse("u^4")


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


def test_parse_rejects_exponents_past_the_limit():
    assert parse("u^2^2^2") == ex.pow_(ex.var("u"), 16)
    assert parse("2^2^2^2") == ex.con(65536)
    for text in (
        "u^2^2^2^2",
        "2^2^2^2^2",
        "(u^40)^40",
        "u^600*u^600",
        "((1000^1000)^1000)^1000",
    ):
        with pytest.raises(ParseError, match="exceeds"):
            parse(text)


def test_pow_rejects_exponents_past_the_limit():
    u = ex.var("u")
    assert ex.pow_(u, -ex.MAX_EXPONENT) == parse(f"u^(-{ex.MAX_EXPONENT})")
    for base, n in ((u, 65536), (u, -65536), (ex.con(2), 65536), (ex.con(10**400), 900)):
        with pytest.raises(ex.ExprError, match="exceeds"):
            ex.pow_(base, n)


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


def test_exponential_merge_sums_every_argument():
    u, v, w = map(ex.var, "uvw")
    assert ex.mul(ex.exp_(u), ex.exp_(v), ex.exp_(w)) == ex.exp_(parse("u + v + w"))
    # a product that already holds an exp, times two more
    assert ex.mul(ex.mul(w, ex.exp_(u)), ex.exp_(v), ex.exp_(w)) == parse("w*exp(u + v + w)")
    assert parse("exp(u)*exp(v)*exp(-u-v)") == ex.ONE


def test_normal_form_leaves_no_reference_cycle():
    # add, mul and substitute build no closure that refers to itself, so
    # the trees they make are freed by reference counting alone
    gc.collect()
    gc.disable()
    try:
        e = parse("(u + v*exp(t))^3*(1/(1 + w) - sin(u)) - 2*(u - v)^2")
        x = expand(e)
        ex.add(x, ex.mul(-1, x), ex.mul(2, ex.add(e, ex.ONE)))
        substitute(x, {"u": parse("v*exp(-alpha*t)")})
        simplify(differentiate(x, "u"))
        del e, x
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "text,want",
    [
        ("1", True),
        ("u^2*v/w^3", True),
        ("-3/2*u/v", True),
        ("exp(u)", True),
        ("u*exp(2*u*v - t/w)", True),
        ("u*exp(u + 1)", False),
        ("ln(u)", False),
        ("v*sin(u)", False),
        ("cos(u)", False),
        ("alpha*u", False),
        ("exp(alpha*t)", False),
        ("1/(1 + u)", False),
        ("exp((u + v)^2)", False),
    ],
)
def test_independent_terms(text, want):
    assert ex.independent(parse(text)) is want


def test_numbers_past_the_cap_are_parse_errors():
    for text, message in [
        ("1" * 5000 + "*u", "number longer than"),
        ("1e10000000*u", "number exceeds 1000000 bits"),
        ("2.5e-10000000", "number exceeds 1000000 bits"),
    ]:
        start = time.perf_counter()
        with pytest.raises(ParseError, match=message):
            parse(text)
        assert time.perf_counter() - start < 1.0
    assert ex.number(" -1/3 ") == Fraction(-1, 3) and ex.number("2.50e1") == 25
    assert parse("1" * 4000) == ex.con(int("1" * 4000))


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


def _unmarked(e):
    """A node-by-node copy of ``e`` that expand has never seen."""
    if isinstance(e, ex.Const):
        return ex.Const(e.value)
    if isinstance(e, (ex.Var, ex.Param)):
        return type(e)(e.name)
    if isinstance(e, ex.Add):
        return ex.Add(tuple(map(_unmarked, e.terms)))
    if isinstance(e, ex.Mul):
        return ex.Mul(tuple(map(_unmarked, e.factors)))
    if isinstance(e, ex.Pow):
        return ex.Pow(_unmarked(e.base), e.exponent)
    return type(e)(_unmarked(e.arg))


def test_expand_expands_powers_of_quotients_and_exponentials():
    # a denominator stays a power of its expanded base
    assert expand(parse("((u+v)/(w+1))^2")) == parse(
        "u^2/(1 + w)^2 + 2*u*v/(1 + w)^2 + v^2/(1 + w)^2"
    )
    assert expand(parse("(u/(1+v))^2")) == parse("u^2*(1 + v)^(-2)")
    assert expand(parse("(exp(u+v)/w)^2")) == parse("exp(2*u + 2*v)/w^2")
    q = parse("u/(v+1)")
    assert expand(ex.mul(ex.add(q, 1), ex.add(q, 2))) == parse("2 + 3*u/(1 + v) + u^2/(1 + v)^2")


@pytest.mark.parametrize(
    "text",
    [
        "1/u - u^(-1)",
        "u*(1/u) - 1",
        "(1+u^2)*(1/(1+u^2)) - 1",
        "1/u + 1/v - (u+v)/(u*v)",
        "1/exp(t) - exp(-t)",
    ],
)
def test_quotients_cancel_as_negative_powers(text):
    assert expand(parse(text)) == ex.ZERO


def test_products_of_quotients_are_associative():
    q = parse("1/(u+1)")
    assert ex.mul(ex.mul(q, q), q) == ex.mul(q, q, q) == parse("(1+u)^(-3)")


def test_sums_over_different_denominators_are_not_combined():
    # 2/(1-u^2) is 1/(1+u) + 1/(1-u), but only over a common denominator
    assert expand(parse("1/(1+u) + 1/(1-u) - 2/(1-u^2)")) != ex.ZERO
    assert equal_numeric(parse("1/(1+u) + 1/(1-u)"), parse("2/(1-u^2)"), {"u": (-0.5, 0.5)})


@pytest.mark.parametrize(
    "text",
    [
        "1/(1+u) + 1/(1-u) - 2/(1-u^2)",
        "exp(t)/(1+exp(t)) - 1 + 1/(1+exp(t))",
        "(u^2-1)/(u-1) - u - 1",
        "1/(1 + 1/(1 + 1/u)) - (u+1)/(2*u+1)",
    ],
)
def test_is_zero_brings_sums_to_a_common_denominator(text):
    assert expand(parse(text)) != ex.ZERO and ex.is_zero(parse(text))
    assert not ex.is_zero(parse(f"{text} + 1/(2+u)"))


def test_is_zero_says_false_where_it_cannot_show_zero():
    assert not ex.is_zero(parse("1/(1+u) - 1/(2+u)"))
    # no identity of sin and cos is known to the normal form
    assert not ex.is_zero(parse("sin(u)^2 + cos(u)^2 - 1"))
    # the common numerator holds (1+u+v+w+x+y+z+t)^10, 19448 compositions
    e = parse("1/(1+u+v+w+x+y+z+t)^10 - 1/(1+u)")
    with pytest.raises(ex.LimitError, match="19448"):
        ex.clear_denominators([e])
    assert ex.is_zero(e) is False


def test_is_zero_on_generated_sums_of_quotients():
    # p/q + r/s - (p*s + r*q)/(q*s), the products on the right expanded
    sampler = SeededSampler(11)
    for _ in range(8):
        p, q, r, s = (random_polynomial(sampler, ("u", "v"), 2) for _ in range(4))
        lhs = ex.add(ex.quot(p, q), ex.quot(r, s))
        rhs = ex.quot(expand(ex.add(ex.mul(p, s), ex.mul(r, q))), expand(ex.mul(q, s)))
        assert ex.is_zero(ex.sub(lhs, rhs))
        assert not ex.is_zero(ex.sub(lhs, ex.add(rhs, ex.quot(1, q))))


@pytest.mark.parametrize(
    "text,printed",
    [
        ("1/u", "1/u"),
        ("-u^(-1)", "-1/u"),
        ("3/2*v/u", "3*v/(2*u)"),
        ("u/(v*w^2)/3", "u/(3*v*w^2)"),
        ("w/(1+v)^3", "w/(1 + v)^3"),
        ("1/2*u^2", "1/2*u^2"),
    ],
)
def test_negative_powers_print_below_a_slash(text, printed):
    e = parse(text)
    assert to_text(e) == printed and parse(printed) == e


def test_expand_is_idempotent_on_random_corpus():
    sampler = SeededSampler(42)
    limited = 0
    for _ in range(3000):
        e = random_expression(sampler, ("u", "v", "w", "t"), 7)
        try:
            x = expand(e)
        except ex.LimitError:
            limited += 1
            continue
        copy = _unmarked(x)
        assert copy == x and not copy._expanded
        assert expand(copy) == x, to_text(e)
    assert limited == 1  # one product of two large expansions passes MAX_TERMS


def test_expand_returns_its_own_results_without_work(monkeypatch):
    from biham3 import verify

    results = []
    for name in cat.BUILTIN_NAMES:
        d = verify._derive(cat.instantiate(name))
        derived = [*d.X.exprs(), d.M.expr]
        if hasattr(d, "J"):
            rows = verify._structure_rows(d, -1)
            derived += [f.expr for f in d.H]
            derived += [e for V in (*d.G, *d.J, d.F) for e in V.exprs()]
            derived += [r for _, residuals in rows for r in residuals]
        results += [expand(e) for e in derived]

    def no_work(e):
        raise AssertionError(f"expand worked on its own result {e}")

    monkeypatch.setattr(ex, "_expand", no_work)
    for x in results:
        assert expand(x) is x
    with pytest.raises(AssertionError, match="expand worked"):
        expand(parse("u*(v+1)"))


def test_expand_caps_the_terms_it_forms():
    with pytest.raises(ex.LimitError, match="more than the limit of 10000"):
        expand(parse("(u+v+w+1)^40"))
    a = ex.add(*[ex.param(f"a{i}") for i in range(101)])
    b = ex.add(*[ex.param(f"b{i}") for i in range(100)])
    with pytest.raises(ex.LimitError, match="10100 term products"):
        expand(ex.mul(a, b))
    assert len(expand(ex.mul(a, b.terms[0], ex.add(*b.terms[:99]))).terms) == 101 * 99


@pytest.mark.parametrize(
    "text",
    [
        "u + exp(t) - 2*alpha*v",
        "1/u + v*exp(-t) + 3",
        "(1+v)^(-1) + u*w + beta",
        "exp(u+v) + exp(-u) + 1/2",
        "u + 1/u",
    ],
)
@pytest.mark.parametrize("n", [2, 3, 5])
def test_multinomial_powers_equal_repeated_products(text, n):
    base = expand(parse(text))
    x = expand(ex.pow_(base, n))
    assert x == functools.reduce(ex._mulx, [base] * n)
    assert expand(_unmarked(x)) == x


def test_multinomial_powers_count_compositions():
    # one term per composition of 22 over the 4 terms: C(25, 3) = 2300
    assert len(expand(parse("(u+v+w+1)^22")).terms) == math.comb(25, 3)
    with pytest.raises(ex.LimitError, match="12341 term products"):
        expand(parse("(u+v+w+1)^40"))


def _constants(e):
    todo = [e]
    while todo:
        node = todo.pop()
        if isinstance(node, ex.Const):
            yield node.value
        todo.extend(node.children())


def test_integral_constants_are_int_and_others_fraction():
    three = ex.Const(Fraction(6, 2))
    assert type(three.value) is int and three.value == 3
    assert hash(three) == hash(ex.Const(Fraction(3))) and three.key() == ex.Const(Fraction(3)).key()
    assert three == ex.Const(Fraction(3)) == ex.con(3)
    # int / int is a float: these are the exact divisions
    quarter = ex.pow_(ex.con(2), -2)
    assert type(quarter.value) is Fraction and quarter.value == Fraction(1, 4)
    assert ex.pow_(ex.con(3), -2).value == Fraction(1, 9)  # 3**-2 as a float is inexact
    c, rest = ex.split_coeff(ex.quot(ex.var("u"), 3))
    assert type(c) is Fraction and c == Fraction(1, 3) and rest == ex.var("u")
    assert ex.split_coeff(ex.var("u")) == (1, ex.var("u"))
    # every constant of a normal form is an int or a non-integral Fraction
    sampler = SeededSampler(7)
    exprs = catalog_expressions() + [random_expression(sampler, ("u", "v", "w", "t"), 5) for _ in range(300)]
    for e in exprs:
        for tree in (e, expand(e), differentiate(e, "u")):
            for v in _constants(tree):
                assert type(v) is int or (type(v) is Fraction and v.denominator != 1), (e, v)


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


class _FoldParser(ex._Parser):
    """The parser as it folded operands one at a time: the reference that
    parsing a whole run of operands in one call must reproduce."""

    def expr(self):
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind != "op" or val not in "+-":
                return e
            self.take()
            rhs = self.term()
            e = ex.add(e, rhs) if val == "+" else ex.sub(e, rhs)

    def term(self):
        e = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind != "op" or val not in "*/":
                return e
            self.take()
            rhs = self.factor()
            e = ex.mul(e, rhs) if val == "*" else ex.quot(e, rhs)


def test_parsing_runs_at_once_gives_the_folded_result(monkeypatch):
    texts = []
    with monkeypatch.context() as m:
        m.setattr(cat, "parse", lambda text: texts.append(text) or parse(text))
        for name in cat.BUILTIN_NAMES:
            cat.load_system(cat._DOCUMENTS[name])
    assert len(texts) > 100
    texts += [to_text(e) for e in catalog_expressions()]
    sampler = SeededSampler(11)
    texts += [to_text(random_expression(sampler, ("u", "v", "w", "t"), 7)) for _ in range(1500)]
    for text in texts:
        assert parse(text) == _FoldParser(text).parse(), text


def test_a_long_sum_or_product_is_one_add_or_mul_call(monkeypatch):
    calls = {"add": 0, "mul": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(ex, "add", counted("add", ex.add))
    monkeypatch.setattr(ex, "mul", counted("mul", ex.mul))
    total = parse(" + ".join(f"x{k}" for k in range(4000)))
    assert calls["add"] <= 2 and len(total.terms) == 4000
    calls["mul"] = 0
    product = parse("*".join(f"(u + {k})" for k in range(1, 4001)))
    assert calls["mul"] <= 2 and len(product.factors) == 4000


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
    for text in ("1/u", "v/u^2"):
        with pytest.raises(DomainError, match="^division by zero$"):
            evaluate(parse(text), {"u": 0.0, "v": 1.0})
    with pytest.raises(DomainError):
        parse("ln(-1)")
    with pytest.raises(DomainError):
        parse("1/0")


def test_constant_domain_errors_in_text_are_parse_errors():
    for text, message in (("1/0", "division by the zero"), ("u + ln(-1)", "ln of a non-positive")):
        with pytest.raises(ParseError, match=message) as info:
            parse(text)
        assert isinstance(info.value, DomainError)


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


def test_constants_past_the_float_range_are_limit_errors():
    # the parser keeps 1e400 exactly; no float holds it, so every numeric
    # route refuses it as bad input instead of overflowing
    e = parse("1e400*u - 1e400*u^2")
    with pytest.raises(ex.LimitError, match="^a constant is outside the float range$"):
        evaluate(e, {"u": 1.0})
    for compile_ in (ex.compile_fn, ex.compile_vector, ex.compile_columns, ex.compile_array):
        with pytest.raises(ex.LimitError, match="outside the float range"):
            compile_(e, ("u",)) if compile_ is ex.compile_fn else compile_([e], ("u",))
    # a constant that rounds to zero is a float, and an overflow at a point
    # stays a domain failure there
    assert evaluate(parse("1e-400*u"), {"u": 1.0}) == 0.0
    with pytest.raises(DomainError):
        evaluate(parse("u^3"), {"u": 1e200})


@pytest.mark.parametrize(
    "names",
    [("u", "zz=1/0"), ("u", "1x"), ("u", ""), ("u", "lambda"), ("u", "_exp"), ("u", "_s0"), ("u", "u")],
    ids=["code", "not-identifier", "empty", "keyword", "environment-name", "shared-name", "repeated"],
)
def test_compile_refuses_names_that_are_not_plain_arguments(names):
    # the names become the parameters of generated source, so a name is
    # checked before any source is built from it
    e = parse("u*exp(u) + exp(u)")
    for compile_ in (ex.compile_fn, ex.compile_vector, ex.compile_columns, ex.compile_array):
        with pytest.raises(ex.ExprError, match="cannot name an argument|repeat a name"):
            compile_(e, names) if compile_ is ex.compile_fn else compile_([e], names)


def test_a_repeated_function_is_evaluated_once(monkeypatch):
    calls = []

    def counted(name, fn):
        return lambda x: calls.append(name) or fn(x)

    field = [parse("v + v*w*exp(-t)"), parse("u - u*w*exp(-t)"), parse("u*v*exp(-t) + ln(exp(-t) + 2)")]
    names = ("u", "v", "w", "t")
    point = (0.3, -1.25, 2.0, 0.7)
    want = [evaluate(e, dict(zip(names, point))) for e in field]
    for env, compile_ in ((ex._SCALAR_ENV, ex.compile_vector), (ex._ARRAY_ENV, ex.compile_columns)):
        monkeypatch.setitem(env, "_exp", counted("exp", env["_exp"]))
        monkeypatch.setitem(env, "_ln", counted("ln", env["_ln"]))
        calls.clear()
        got = compile_(field, names)(*point)
        assert calls == ["exp", "ln"]
        assert [float(x) for x in got] == pytest.approx(want, rel=1e-15)
    calls.clear()
    assert ex.compile_fn(field[2], names)(*point) == pytest.approx(want[2], rel=1e-15)
    assert calls == ["exp", "ln"]


def test_shared_functions_keep_the_order_of_evaluation():
    # the first failure in left-to-right order is raised, as without sharing
    f = ex.compile_vector([parse("1/v"), parse("ln(u)"), parse("2*ln(u)")], ("u", "v"))
    with pytest.raises(ZeroDivisionError):
        f(-1.0, 0.0)
    with pytest.raises(ValueError):
        f(-1.0, 1.0)
    assert f(math.e, 4.0) == (0.25, 1.0, 2.0)


# --- substitution -----------------------------------------------------


def test_substitute_examples():
    assert substitute(parse("x^2"), {"x": parse("u*exp(-alpha*t)")}) == parse(
        "u^2*exp(-2*alpha*t)"
    )
    e = parse("exp(2*alpha*t)*(x^2-2*alpha*z)")
    e = substitute(e, {"x": parse("u*exp(-alpha*t)")})
    e = substitute(e, {"z": parse("w*exp(-2*alpha*t)")})
    assert e == parse("u^2-2*alpha*w")
    u = parse("u")
    assert substitute(u, {"u": parse("u")}) == u


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


@pytest.mark.parametrize("masked", [False, True], ids=["all", "keep"])
def test_sample_box_is_the_point_stream_at_scale(masked):
    box = {"w": (-3.0, 0.5), "u": (0.0, 1.0), "t": (0.0, 2.0), "alpha": (1, 4)}
    ok = lambda t, u: t * u < 0.8
    ref = SeededSampler(17)
    want = []
    while len(want) < 100_000:
        pt = ref.point(box)
        if not masked or ok(pt["t"], pt["u"]):
            want.append(list(pt.values()))
    sampler = SeededSampler(17)
    keep = (lambda P: ok(P[:, 1], P[:, 2])) if masked else None
    names, P = sample_box(sampler, box, 100_000, keep=keep)
    assert names == ("alpha", "t", "u", "w")
    assert np.array_equal(P, np.array(want))
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
