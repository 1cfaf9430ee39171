"""Discovery: ansatz bases, nullspace search, annotation.

Soundness bar: a candidate's functional expands to zero (over a common
denominator where it has one); a known integral is matched only when it
is exactly a rational combination of the candidates, and its reported
coordinates rebuild it.  A numpy SVD of the functional at seeded points
is the term equations' independent oracle.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from biham3 import catalog as cat
from biham3 import expr as ex
from biham3.expr import parse
from biham3.discover import (
    DiscoveryError,
    _derivative_rows,
    _exact_nullspace,
    _multiplier_rows,
    annotate,
    build_basis,
    first_integral_search,
    multiplier_search,
    sample_count,
    spatial_invariant_search,
)
from biham3.sampling import SeededSampler, sample_box
from biham3.vecfield import ScalarField, VectorField3, divergence, scale

UVW = ("u", "v", "w")


def test_exact_nullspace_divides_exactly():
    # 3a + 2b = 0 pivots on the 2 at column 1: b = -3/2 a
    vectors, equations, independent = _exact_nullspace([parse("3*u"), parse("2*u")])
    assert (vectors, equations, independent) == ([[1, Fraction(-3, 2)]], 1, True)
    assert all(type(c) is Fraction for c in vectors[0])
    vectors, _, _ = _exact_nullspace([parse("2*u + 4*v"), parse("3*u"), parse("6*v")])
    assert all(type(c) is Fraction for v in vectors for c in v)
    assert vectors == [[1, Fraction(-2, 3), Fraction(-2, 3)]]
    # a sin term is solved as its own equation, but may depend on others
    assert _exact_nullspace([parse("sin(u)"), parse("-sin(u)")]) == ([[1, 1]], 1, False)


def test_basis_counts():
    assert len(build_basis(2, UVW)) == 10
    assert len(build_basis(1, UVW)) == 4
    assert len(build_basis(2, UVW, weights=(-1, 0), rate=ex.param("alpha"))) == 20
    labels = build_basis(2, UVW).labels()
    assert "1" in labels and "u*v" in labels and "w^2" in labels


def test_basis_deduplicates_zero_weight():
    # k=0 twice must not duplicate the plain monomials
    b = build_basis(1, UVW, weights=(0, 0, -1), rate=ex.con(1))
    assert len(b) == 8


def test_basis_requires_rate_with_weights():
    with pytest.raises(ex.InputError):
        build_basis(2, UVW, weights=(-1, 0))


def _rebuilt(res, annotation):
    """The combination of candidates an annotation's coordinates name."""
    cands = res.candidates
    return ex.expand(
        ex.add(*[ex.mul(ex.con(Fraction(q)), cands[k].expr) for k, q in annotation["coordinates"]])
    )


def test_lu_transformed_nullspace():
    d = cat.instantiate("lu-transformed")
    X = d.bound_field()
    res = first_integral_search(X, build_basis(2, UVW))
    assert res.nullspace_dim == 3
    exprs = {str(c.expr) for c in res.candidates}
    assert "1" in exprs
    assert all(_functional("first-integral", X, c.expr) == ex.ZERO for c in res.candidates)
    known = [d.bound_scalar(d.h1), ScalarField(parse("u^2-2*w"), UVW)]
    res = annotate(res, known)
    for a, sf in zip(res.annotations, known):
        assert a["expressible"] and a["matched"]
        # each is a multiple of one candidate, rebuilt exactly
        assert len(a["coordinates"]) == 1
        assert _rebuilt(res, a) == ex.expand(sf.expr)


def test_a_near_miss_is_expressible_but_not_matched():
    # h1 + u/10^9 is off the span by 1e-9, within any float tolerance
    d = cat.instantiate("lu-transformed")
    res = first_integral_search(d.bound_field(), build_basis(2, UVW))
    near = ScalarField(ex.add(d.bound_scalar(d.h1).expr, parse("u/10^9")), UVW)
    res = annotate(res, [near, d.bound_scalar(d.h1)])
    miss, h1 = res.annotations
    assert miss == {"known": str(near.expr), "expressible": True, "matched": False, "coordinates": []}
    assert h1["matched"] and h1["coordinates"] == [[2, "1/2"]]


def test_qi_recovers_published_integral():
    q = cat.instantiate("qi", gamma=2)
    res = first_integral_search(q.bound_field(), build_basis(2, UVW))
    assert res.nullspace_dim == 2
    res = annotate(res, [q.bound_scalar(q.h1)])
    a = res.annotations[0]
    assert a["matched"] and _rebuilt(res, a) == ex.expand(q.bound_scalar(q.h1).expr)


def test_rotation_field_invariants():
    rot = VectorField3.from_exprs([parse("v"), parse("-u"), parse("0")], UVW)
    res = first_integral_search(rot, build_basis(2, UVW))
    assert res.nullspace_dim >= 3
    res = annotate(
        res, [ScalarField(parse("u^2+v^2"), UVW), ScalarField(parse("w"), UVW)]
    )
    assert all(a["matched"] for a in res.annotations)


def test_constants_always_present():
    d = cat.instantiate("modified-lu")
    res = first_integral_search(d.bound_field(), build_basis(1, UVW))
    assert res.nullspace_dim >= 1
    assert any(str(c.expr) == "1" for c in res.candidates)


def test_multiplier_searches():
    d = cat.instantiate("lu-transformed")
    res = multiplier_search(d.bound_field(), build_basis(0, UVW))
    assert res.nullspace_dim == 1
    assert str(res.candidates[0].expr) == "1"
    assert res.candidates[0].flags == ()

    lo = cat.instantiate("lu-original", alpha=1, gamma=2, beta=1)
    res = multiplier_search(lo.bound_field(), build_basis(0, ("x", "y", "z")))
    assert res.nullspace_dim == 1 and str(res.candidates[0].expr) == "1"

    expanding = VectorField3.from_exprs([parse("u"), parse("v"), parse("w")], UVW)
    res = multiplier_search(expanding, build_basis(0, UVW))
    assert res.nullspace_dim == 0 and not res.candidates


def test_multiplier_vanishing_flag():
    # div(X)=0 with X1=0, so both 1 and u are multipliers; u crosses zero
    X = VectorField3.from_exprs([parse("0"), parse("-w"), parse("v")], UVW)
    res = multiplier_search(X, build_basis(1, UVW))
    by_expr = {str(c.expr): c for c in res.candidates}
    assert "1" in by_expr and "u" in by_expr
    assert "vanishes-on-domain" in by_expr["u"].flags
    assert "vanishes-on-domain" not in by_expr["1"].flags


def test_soundness_and_reproducibility():
    d = cat.instantiate("lu-transformed")
    basis = build_basis(2, UVW)
    a = first_integral_search(d.bound_field(), basis, seed=42)
    b = first_integral_search(d.bound_field(), basis, seed=7)
    assert [c.coefficients for c in a.candidates] == [
        c.coefficients for c in b.candidates
    ]
    # reduced row echelon form: each candidate's first nonzero coefficient
    # is an exact 1, and every candidate is zero at the others' leading columns
    leads = []
    for row in a.candidates:
        assert all(type(c) is Fraction for c in row.coefficients)
        lead = next(j for j, c in enumerate(row.coefficients) if c)
        assert row.coefficients[lead] == 1
        leads.append(lead)
    assert leads == sorted(set(leads))
    for k, row in enumerate(a.candidates):
        assert [row.coefficients[j] for j in leads] == [int(i == k) for i in range(len(leads))]


def test_scale_invariance_of_nullspace():
    d = cat.instantiate("lu-transformed")
    basis = build_basis(2, UVW)
    r1 = first_integral_search(d.bound_field(), basis)
    r2 = first_integral_search(scale(d.bound_field(), ex.con(3)), basis)
    # the reduced row echelon basis of a span is unique
    assert r1.nullspace_dim == r2.nullspace_dim == 3
    assert [c.coefficients for c in r1.candidates] == [c.coefficients for c in r2.candidates]


def test_preconditions():
    d = cat.instantiate("lu-transformed")
    with pytest.raises(ex.InputError):
        first_integral_search(d.bound_field(), build_basis(0, UVW))
    with pytest.raises(ex.InputError):
        first_integral_search(d.bound_field(), build_basis(2, UVW), n=10)
    X = VectorField3.from_exprs([parse("ln(u)"), parse("v"), parse("w")], UVW)
    with pytest.raises(DiscoveryError, match="not finite"):
        first_integral_search(X, build_basis(1, UVW))
    with pytest.raises(ex.InputError, match="at least one k"):
        build_basis(2, UVW, weights=(), rate="1")
    # the size bound holds before a basis is built or a point is drawn
    with pytest.raises(ex.LimitError, match="more than the limit of 10000000"):
        build_basis(30, UVW)
    with pytest.raises(ex.LimitError, match="more than the limit"):
        first_integral_search(d.bound_field(), build_basis(2, UVW), n=10**6 + 1)


class _HugeWeights:
    """A sized stand-in for range(0, 10**10 + 1) that must not be iterated."""

    def __len__(self):
        return 10**10 + 1

    def __iter__(self):
        raise AssertionError("the weights were iterated before the size check")


def test_weights_are_sized_before_they_are_iterated():
    with pytest.raises(ex.LimitError, match="a search over 100000000010 basis elements"):
        build_basis(2, UVW, weights=_HugeWeights(), rate=ex.con(1))


def test_result_json():
    d = cat.instantiate("qi", gamma=2)
    res = first_integral_search(d.bound_field(), build_basis(2, UVW))
    res = annotate(res, [d.bound_scalar(d.h1)])
    import json

    data = json.loads(res.to_json())
    assert data["schema"] == 3
    assert data["kind"] == "first-integral"
    assert data["method"] == "exact"
    assert data["nullspace_dim"] == 2
    assert data["rank"] == 8 and data["equations"] > 0
    assert data["singular_values"] == [] and data["n"] == 0
    assert len(data["candidates"]) == 2
    for c, cand in zip(data["candidates"], res.candidates):
        assert set(c) == {"coefficients", "denominator", "expr", "flags"}
        assert all(type(a) is int for a in c["coefficients"]) and c["denominator"] >= 1
        assert [Fraction(a, c["denominator"]) for a in c["coefficients"]] == list(cand.coefficients)
        # the denominator is the least common one
        assert math.gcd(c["denominator"], *c["coefficients"]) == 1
    assert data["annotations"][0]["matched"] is True


def test_nonautonomous_h2_family_experiment():
    """The time-dependent H2 is not an integral invariant: the
    total-derivative nullspace on a degree-4 two-rate basis is exactly
    the H1 family {1, H1, H1^2}; the spatial-orthogonality functional
    recovers H2 (its gradient is orthogonal to the flow)."""
    ml = cat.instantiate("modified-lu")
    X = ml.bound_field()
    basis = build_basis(4, UVW, weights=(-2, -1, 0), rate=ex.con(1))
    h1 = ml.bound_scalar(ml.h1)
    h2 = ml.bound_scalar(ml.h2)
    h1sq = ScalarField(ex.expand(ex.pow_(h1.expr, 2)), UVW)

    total = annotate(first_integral_search(X, basis), [h1, h1sq, h2])
    assert total.nullspace_dim == 3
    by_known = {a["known"]: a for a in total.annotations}
    assert by_known[str(h1.expr)]["matched"]
    assert by_known[str(h1sq.expr)]["matched"]
    assert not by_known[str(h2.expr)]["matched"]

    spatial = annotate(spatial_invariant_search(X, basis), [h2])
    assert spatial.annotations[0]["matched"]
    assert _rebuilt(spatial, spatial.annotations[0]) == ex.expand(h2.expr)


def _functional(kind, X, F):
    """The search's functional applied to F directly, expanded."""
    if kind == "multiplier":
        return ex.expand(divergence(scale(X, F)).expr)
    e = ex.differentiate(F, ex.TIME) if kind == "first-integral" else ex.ZERO
    for c, v in zip(X.exprs(), X.frame):
        e = ex.add(e, ex.mul(ex.differentiate(F, v), c))
    return ex.expand(e)


SEARCHES = (
    ("first-integral", first_integral_search),
    ("spatial-invariant", spatial_invariant_search),
    ("multiplier", multiplier_search),
)


def _svd_nullspace(rows, basis):
    """The numerical nullspace of the rows at seeded points of the search
    domain: the right singular vectors whose singular values are below
    1e-10 of the largest."""
    box = {v: (-2.0, 2.0) for v in basis.frame} | {ex.TIME: (0.0, 1.0)}
    names, pts = sample_box(SeededSampler(42), box, sample_count(len(basis)))
    _, svals, Vt = np.linalg.svd(ex.compile_array(rows, names)(pts))
    return Vt[svals <= 1e-10 * svals[0]]


@pytest.mark.parametrize("name", [s["name"] for s in cat.list_systems()])
def test_exact_route_agrees_with_the_sampled_oracle(name):
    d = cat.instantiate(name)
    X = d.bound_field()
    rate = ex.con(d.param_values["alpha"]) if "alpha" in d.param_values else ex.ONE
    for basis in (
        build_basis(2, d.frame),
        build_basis(3, d.frame, weights=(-1, 0), rate=rate),
    ):
        for kind, search in SEARCHES:
            if kind == "multiplier":
                rows = _multiplier_rows(X, basis)
            else:
                rows = _derivative_rows(X, basis, kind == "first-integral")
                # the weight-factored rows equal grad(b).X (+ db/dt) expanded whole
                assert rows == [_functional(kind, X, b.expr) for b in basis.elements]
            res = search(X, basis)
            assert res.method == "exact" and res.singular_values == () and res.n_points == 0
            for c in res.candidates:
                assert _functional(kind, X, c.expr) == ex.ZERO, str(c.expr)
            oracle = _svd_nullspace(rows, basis)
            assert res.nullspace_dim == len(oracle), (kind, len(basis))
            if res.nullspace_dim:
                # an orthonormal basis of the candidate span against the oracle's
                C = np.array([[float(a) for a in c.coefficients] for c in res.candidates])
                Q, _ = np.linalg.qr(C.T)
                cosines = np.linalg.svd(Q.T @ oracle.T, compute_uv=False)
                assert np.all(np.abs(cosines - 1.0) < 1e-8)


# tests/test_verify.py's quotient-lu system: the rows of its functionals hold quotients
QUOTIENT_LU = (
    "name = quotient-lu\nframe = u v w\ntime = t\n"
    "field = v/(1+u^2) ; -u*w/(1+u^2) ; u*v/(1+u^2)\n"
    "multiplier = 1+u^2\n"
    "h1 = 1/2*(v^2+w^2)\nh2 = 1/2*u^2 - w\norientation = auto\n"
)


def test_quotients_and_logarithms_take_the_sampled_route():
    # the quotients' rows are multiplied by (1+u^2)^2 and solved exactly;
    # the ln term is solved as its own equation and the nullity sampled
    d = cat.instantiate(cat.load_system(QUOTIENT_LU))
    res = first_integral_search(d.bound_field(), build_basis(2, d.frame))
    res = annotate(res, [d.bound_scalar(d.h1), d.bound_scalar(d.h2)])
    assert res.method == "exact" and res.nullspace_dim == 3
    assert res.n_points == 0 and res.singular_values == ()
    assert all(a["matched"] for a in res.annotations)
    assert [str(c.expr) for c in res.candidates] == ["1", "w - 1/2*u^2", "v^2 + w^2"]

    X = VectorField3.from_exprs([parse("v"), parse("-u"), parse("ln(3 + u)")], UVW)
    res = first_integral_search(X, build_basis(2, UVW))
    assert res.method == "sampled"
    assert res.n_points == 200 and len(res.singular_values) == 10
    assert [str(c.expr) for c in res.candidates] == ["1", "u^2 + v^2"]


def test_dependent_transcendental_terms_are_an_error():
    # grad(u^2 + v^2).X = 2*u*v*(1 - sin(u)^2 - cos(u)^2) is zero, but its
    # three terms are distinct: the term equations miss the candidate
    # that the sampled nullity shows
    X = VectorField3.from_exprs([parse("v"), parse("-u*(sin(u)^2 + cos(u)^2)"), parse("0")], UVW)
    with pytest.raises(DiscoveryError, match="dimension 3, but .* 200 sample points has nullity 4"):
        first_integral_search(X, build_basis(2, UVW))


@pytest.mark.parametrize(
    "den,method,integral",
    [("u", "exact", "u^2 + v^2"), ("1+u", "exact", "u^2 + v^2 + 2*u")],
    ids=["laurent-monomial", "power-of-a-sum"],
)
def test_a_negative_power_of_a_variable_is_exact_and_of_a_sum_is_sampled(den, method, integral):
    # v/u is v*u^(-1), a monomial with an integer power; the rows of
    # v/(1+u) are multiplied by 1+u
    X = VectorField3.from_exprs([parse(f"v/({den})"), parse("-1"), parse("0")], UVW)
    res = first_integral_search(X, build_basis(2, UVW))
    assert res.method == method
    assert [str(c.expr) for c in res.candidates] == ["1", "w", "w^2", integral]


def test_annotation_outside_the_basis_is_not_expressible():
    d = cat.instantiate("lu-transformed")
    res = first_integral_search(d.bound_field(), build_basis(2, UVW))
    # u^3 is no basis element; h1 is still read off its terms
    res = annotate(res, [ScalarField(parse("u^3"), UVW), d.bound_scalar(d.h1)])
    cube, h1 = res.annotations
    assert not cube["expressible"] and not cube["matched"]
    assert h1["expressible"] and h1["matched"]
