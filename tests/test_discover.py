"""Discovery: ansatz bases, nullspace search, annotation.

Soundness bar: every returned candidate validates below 1e-8 relative
at 1000 fresh seeded points; known-integral matches require a subspace
projection cosine above 1 - 1e-8.
"""

import numpy as np
import pytest

from biham3 import catalog as cat
from biham3 import expr as ex
from biham3.expr import parse
from biham3.discover import (
    DiscoveryError,
    annotate,
    build_basis,
    first_integral_search,
    multiplier_search,
    spatial_invariant_search,
)
from biham3.vecfield import ScalarField, VectorField3, scale

UVW = ("u", "v", "w")


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
    with pytest.raises(DiscoveryError):
        build_basis(2, UVW, weights=(-1, 0))


def test_lu_transformed_nullspace():
    d = cat.instantiate("lu-transformed")
    res = first_integral_search(d.bound_field(), build_basis(2, UVW))
    assert res.nullspace_dim == 3
    exprs = {str(c.expr) for c in res.candidates}
    assert "1" in exprs
    assert all(c.residual < 1e-8 for c in res.candidates)
    res = annotate(
        res,
        [d.bound_scalar(d.h1), ScalarField(parse("u^2-2*w"), UVW)],
    )
    for a in res.annotations:
        assert a["expressible"] and a["matched"]
        assert a["subspace_cosine"] > 1 - 1e-8
        assert a["best_cosine"] > 1 - 1e-8


def test_qi_recovers_published_integral():
    q = cat.instantiate("qi", gamma=2)
    res = first_integral_search(q.bound_field(), build_basis(2, UVW))
    assert res.nullspace_dim == 2
    res = annotate(res, [q.bound_scalar(q.h1)])
    a = res.annotations[0]
    assert a["matched"] and a["subspace_cosine"] > 1 - 1e-8


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


def test_coeff_expr_keeps_a_non_snapping_float64():
    # numpy 2 reprs a float64 as 'np.float64(...)', which Fraction rejects;
    # a coefficient that does not snap to a small rational must still convert
    from fractions import Fraction

    from biham3.discover import _coeff_expr

    basis = build_basis(1, UVW)
    coeffs = np.zeros(len(basis))
    coeffs[1] = 1.0000000000048284
    e = _coeff_expr(coeffs, basis)
    assert e == ex.mul(ex.con(Fraction("1.0000000000048284")), parse("w"))


def test_soundness_and_reproducibility():
    d = cat.instantiate("lu-transformed")
    basis = build_basis(2, UVW)
    a = first_integral_search(d.bound_field(), basis, seed=42)
    b = first_integral_search(d.bound_field(), basis, seed=42)
    assert a.nullspace == b.nullspace
    assert [c.coefficients for c in a.candidates] == [
        c.coefficients for c in b.candidates
    ]
    # sign convention: first significant coefficient positive
    for row in a.candidates:
        coeffs = [c for c in row.coefficients if abs(c) > 1e-9]
        assert coeffs[0] > 0


def test_scale_invariance_of_nullspace():
    d = cat.instantiate("lu-transformed")
    basis = build_basis(2, UVW)
    r1 = first_integral_search(d.bound_field(), basis)
    r2 = first_integral_search(scale(d.bound_field(), ex.con(3)), basis)
    V1, V2 = np.array(r1.nullspace), np.array(r2.nullspace)
    assert V1.shape == V2.shape
    cosines = np.linalg.svd(V1 @ V2.T, compute_uv=False)
    assert np.all(np.abs(cosines - 1.0) < 1e-8)


def test_preconditions():
    d = cat.instantiate("lu-transformed")
    with pytest.raises(DiscoveryError):
        first_integral_search(d.bound_field(), build_basis(0, UVW))
    with pytest.raises(DiscoveryError):
        first_integral_search(d.bound_field(), build_basis(2, UVW), n=10)
    X = VectorField3.from_exprs([parse("ln(u)"), parse("v"), parse("w")], UVW)
    with pytest.raises(DiscoveryError, match="not finite"):
        first_integral_search(X, build_basis(1, UVW))


def test_result_json():
    d = cat.instantiate("qi", gamma=2)
    res = first_integral_search(d.bound_field(), build_basis(2, UVW))
    res = annotate(res, [d.bound_scalar(d.h1)])
    import json

    data = json.loads(res.to_json())
    assert data["schema"] == 1
    assert data["kind"] == "first-integral"
    assert data["nullspace_dim"] == 2
    assert len(data["candidates"]) == 2
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
    assert spatial.annotations[0]["subspace_cosine"] > 1 - 1e-8
