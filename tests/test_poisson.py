"""Bracket algebra: Poisson brackets, residual operators, pencils, the
ternary bracket and its identities.

Tolerances: structural zeros where the algebra cancels exactly; 1e-12
relative for sampled exact identities; 1e-8 relative for nested numeric
constructions (fundamental identity, induced-bracket Jacobi).
"""

import pytest

from biham3 import catalog as cat
from biham3 import expr as ex
from biham3.expr import parse
from biham3.sampling import SeededSampler, random_polynomial
from biham3.poisson import (
    casimir_residual,
    compatibility_residual,
    coordinate_field,
    flow_residual,
    fundamental_identity_parts,
    hamiltonian_field,
    jacobi_residual,
    multiplier_residual,
    nambu_bracket,
    nambu_field,
    pencil,
    poisson_bracket,
)
from biham3.vecfield import FrameError, ScalarField, VectorField3, gradient, scale, vadd

UVW = ("u", "v", "w")
BOX = {"u": (-2.0, 2.0), "v": (-2.0, 2.0), "w": (-2.0, 2.0), "t": (0.0, 2.0)}


def sf(text, frame=UVW):
    return ScalarField(parse(text), frame)


def vf(*texts, frame=UVW):
    return VectorField3.from_exprs([parse(s) for s in texts], frame)


def unit_multiplier():
    return sf("1")


def test_bracket_convention():
    J = vf("0", "0", "1")
    b = poisson_bracket(coordinate_field("u", UVW), coordinate_field("v", UVW), J)
    assert b.expr == ex.con(-1)


def test_bracket_antisymmetry_diagonal():
    J = vf("w", "u*v", "1")
    F = sf("u^2+exp(-t)*v")
    assert poisson_bracket(F, F, J).expr == ex.ZERO


def test_h1_is_casimir_of_its_own_gradient_structure():
    d = cat.instantiate("lu-transformed")
    j1, _ = d.poisson_vectors()
    b = poisson_bracket(d.bound_scalar(d.h1), d.bound_scalar(d.h2), j1)
    assert b.expr == ex.ZERO or ex.equal_numeric(b.expr, ex.ZERO, BOX, n=50).equal


def test_hamiltonian_field_examples():
    J = vf("0", "v", "w")
    H = sf("u^2/2 - alpha*w")
    assert hamiltonian_field(J, H).exprs() == (
        parse("-alpha*v"),
        parse("u*w"),
        parse("-u*v"),
    )
    assert hamiltonian_field(J, sf("3")).exprs() == (ex.ZERO, ex.ZERO, ex.ZERO)


def test_hamiltonian_field_tsystem_gives_negated_flow():
    d = cat.instantiate("t-system", gamma=3)
    j1, _ = d.poisson_vectors()
    F = hamiltonian_field(j1, d.bound_scalar(d.h2))
    X = d.bound_field()
    for f, x in zip(F.exprs(), X.exprs()):
        assert ex.equal_numeric(f, ex.neg(x), BOX, n=100, tol=1e-12).equal


def test_jacobi_residual_examples():
    assert jacobi_residual(gradient(sf("exp(-3*t)*u^4 - v^2*w"))).expr == ex.ZERO
    assert jacobi_residual(vf("v", "w", "u")).expr == parse("-u-v-w")
    d = cat.instantiate("lu-transformed")
    j1, j2 = d.poisson_vectors()
    p = pencil(j1, j2, ex.con("3.7"))
    assert jacobi_residual(p).expr == ex.ZERO


def test_casimir_residual_examples():
    J = vf("0", "0", "1")
    assert casimir_residual(J, sf("w")).exprs() == (ex.ZERO, ex.ZERO, ex.ZERO)
    assert casimir_residual(J, sf("u")).exprs() == (ex.ZERO, ex.ONE, ex.ZERO)
    G = gradient(sf("(v^2+w^2)/2"))
    assert casimir_residual(G, sf("(v^2+w^2)/2")).exprs() == (
        ex.ZERO,
        ex.ZERO,
        ex.ZERO,
    )


def test_compatibility_examples():
    sampler = SeededSampler(11)
    for _ in range(10):
        A = ScalarField(random_polynomial(sampler, UVW, 3), UVW)
        B = ScalarField(random_polynomial(sampler, UVW, 3), UVW)
        r = compatibility_residual(gradient(A), scale(gradient(B), ex.con(-1)))
        assert r.expr == ex.ZERO
    V = vf("v", "w", "u")
    assert compatibility_residual(V, V).expr == parse("-2*u-2*v-2*w")
    assert compatibility_residual(V, vf("0", "0", "0")).expr == ex.ZERO


def test_pencil_examples():
    d = cat.instantiate("lu-transformed")
    j1, j2 = d.poisson_vectors()
    assert pencil(j1, j2, 0).exprs() == j1.exprs()
    neg_j1 = scale(j1, ex.con(-1))
    zero = pencil(j1, neg_j1, 1)
    assert zero.exprs() == (ex.ZERO, ex.ZERO, ex.ZERO)
    for c in (-10, -5, -1, 0, 1, 5, 10):
        assert jacobi_residual(pencil(j1, j2, c)).expr == ex.ZERO


def test_pencil_theorem_all_catalog_pairs():
    for name in ("lu-transformed", "modified-lu", "t-system", "chen", "chen-variant", "qi"):
        d = cat.instantiate(name)
        j1, j2 = d.poisson_vectors()
        for c in ("-10", "-1", "-0.3", "0", "0.3", "1", "10"):
            r = jacobi_residual(pencil(j1, j2, ex.parse(c)))
            assert (
                r.expr == ex.ZERO
                or ex.equal_numeric(r.expr, ex.ZERO, BOX, n=100, tol=1e-12).equal
            ), (name, c)


def test_nambu_bracket_examples():
    d = cat.instantiate("lu-transformed")
    S = unit_multiplier()
    b = nambu_bracket(
        coordinate_field("u", UVW), d.bound_scalar(d.h1), d.bound_scalar(d.h2), S
    )
    assert ex.evaluate(b.expr, {"u": 1, "v": 2, "w": 3}) == -2.0
    rep = nambu_bracket(sf("u*v"), sf("u*v"), sf("w^2"), S)
    assert rep.expr == ex.ZERO


def test_nambu_field_is_the_coordinate_brackets():
    sampler = SeededSampler(13)
    H1, H2 = (ScalarField(random_polynomial(sampler, UVW, 3), UVW) for _ in range(2))
    for mult in ("1", "exp(-t)", "1+u^2"):
        S = sf(mult)
        want = tuple(nambu_bracket(coordinate_field(v, UVW), H1, H2, S).expr for v in UVW)
        assert nambu_field(H1, H2, S).exprs() == want
        assert nambu_field(gradient(H1), gradient(H2), S).exprs() == want


def test_flow_residual_is_x_minus_sigma_f():
    X, F = vf("u*(v+1)", "w", "exp(-t)*u"), vf("u*v", "-w", "1/(1+u^2)")
    for sigma in (1, -1):
        r = flow_residual(X, F, sigma)
        assert tuple(map(ex.expand, r.exprs())) == vadd(X, scale(F, ex.con(-sigma))).exprs()
    assert tuple(map(ex.expand, flow_residual(X, X, 1).exprs())) == (ex.ZERO,) * 3
    with pytest.raises(FrameError):
        flow_residual(X, vf("x", "y", "z", frame=("x", "y", "z")), 1)


def test_identities_accept_a_precomputed_gradient():
    J = vf("w", "u*v", "exp(-t)")
    H = sf("u^2*v - exp(t)*w")
    assert hamiltonian_field(J, gradient(H)) == hamiltonian_field(J, H)
    assert casimir_residual(J, gradient(H)) == casimir_residual(J, H)


def test_pencil_jacobi_is_quadratic_in_the_coefficient():
    # P.curl(P) for P = J1 + c*J2 equals jac(J1) + c*compat(J1, J2) + c^2*jac(J2)
    J1, J2 = vf("v*w", "u^2", "exp(-t)*v"), vf("w", "u*v", "1+w")
    for c in (-10, "-0.3", 1, 10):
        c = ex.con(c)
        parts = ex.add(
            jacobi_residual(J1).expr,
            ex.mul(c, compatibility_residual(J1, J2).expr),
            ex.mul(c, c, jacobi_residual(J2).expr),
        )
        assert parts != ex.ZERO
        assert ex.expand(parts) == jacobi_residual(pencil(J1, J2, c)).expr


def test_nambu_generalized_leibnitz():
    sampler = SeededSampler(12)
    for mult in ("1", "exp(-t)"):
        S = sf(mult)
        F1, F2, F, H = (
            ScalarField(random_polynomial(sampler, UVW, 2), UVW) for _ in range(4)
        )
        FH = ScalarField(ex.expand(ex.mul(F.expr, H.expr)), UVW)
        lhs = nambu_bracket(F1, F2, FH, S)
        t1 = nambu_bracket(F1, F2, F, S)
        t2 = nambu_bracket(F1, F2, H, S)
        rhs = ex.add(ex.mul(t1.expr, H.expr), ex.mul(F.expr, t2.expr))
        assert ex.equal_numeric(lhs.expr, rhs, BOX, n=60, tol=1e-10).equal


def test_fundamental_identity_trivial_cases():
    S = unit_multiplier()
    coords = [coordinate_field(v, UVW) for v in UVW]
    const = sf("5")
    for quintuple in (
        (coords[0], coords[1], coords[2], coords[0], coords[1]),
        (const, coords[0], coords[1], coords[2], coords[0]),
    ):
        lhs, rhs = fundamental_identity_parts(*quintuple, S)
        residual = ex.sub(lhs.expr, ex.add(*(r.expr for r in rhs)))
        assert ex.expand(residual) == ex.ZERO


def test_fundamental_identity_random_quintuples():
    sampler = SeededSampler(4)
    S = unit_multiplier()
    names = tuple(sorted(BOX))
    for _ in range(3):
        polys = [
            ScalarField(random_polynomial(sampler, UVW, 2), UVW) for _ in range(5)
        ]
        lhs, rhs = fundamental_identity_parts(*polys, S)
        fns = [ex.compile_fn(s.expr, names) for s in (lhs, *rhs)]
        for _ in range(50):
            pt = sampler.point(BOX)
            args = tuple(pt[s] for s in names)
            vals = [f(*args) for f in fns]
            r = vals[0] - (vals[1] + vals[2] + vals[3])
            assert abs(r) <= 1e-8 * (1 + max(abs(v) for v in vals))


def test_multiplier_residual_examples():
    X = vf("alpha*v", "-u*w", "u*v")
    assert multiplier_residual(sf("1"), X).expr == ex.ZERO
    lu = vf("alpha*(y-x)", "gamma*y-x*z", "x*y-beta*z", frame=("x", "y", "z"))
    one_xyz = ScalarField(parse("1"), ("x", "y", "z"))
    assert multiplier_residual(one_xyz, lu).expr == parse("gamma-alpha-beta")
    with pytest.raises(ValueError):
        multiplier_residual(sf("0"), X)


def test_bracket_antisymmetry_random():
    sampler = SeededSampler(13)
    J = VectorField3(
        tuple(ScalarField(random_polynomial(sampler, UVW, 2), UVW) for _ in range(3))
    )
    for _ in range(5):
        F = ScalarField(random_polynomial(sampler, UVW, 2), UVW)
        H = ScalarField(random_polynomial(sampler, UVW, 2), UVW)
        s = ex.add(poisson_bracket(F, H, J).expr, poisson_bracket(H, F, J).expr)
        assert s == ex.ZERO


def test_induced_bracket_jacobi_identity():
    # J = grad(H) satisfies the vector Jacobi condition; the induced
    # binary bracket must then satisfy the classical Jacobi identity.
    sampler = SeededSampler(14)
    J = gradient(ScalarField(random_polynomial(sampler, UVW, 2), UVW))
    F, G, K = (ScalarField(random_polynomial(sampler, UVW, 2), UVW) for _ in range(3))
    cyc = ex.add(
        poisson_bracket(poisson_bracket(F, G, J), K, J).expr,
        poisson_bracket(poisson_bracket(G, K, J), F, J).expr,
        poisson_bracket(poisson_bracket(K, F, J), G, J).expr,
    )
    fns = [
        ex.compile_fn(poisson_bracket(poisson_bracket(a, b, J), c, J).expr, UVW)
        for a, b, c in ((F, G, K), (G, K, F), (K, F, G))
    ]
    total = ex.compile_fn(cyc, UVW) if cyc != ex.ZERO else None
    for _ in range(100):
        pt = sampler.point({v: (-2.0, 2.0) for v in UVW})
        args = tuple(pt[v] for v in UVW)
        scale_ = max(abs(f(*args)) for f in fns)
        val = total(*args) if total else 0.0
        assert abs(val) <= 1e-8 * (1 + scale_)


def test_partial_brackets_agree_with_poisson_vectors():
    d = cat.instantiate("qi", gamma=2)
    S = d.nambu_structure()
    H1 = d.bound_scalar(d.h1)
    H2 = d.bound_scalar(d.h2)
    j1, j2 = d.poisson_vectors()
    F = sf("u*w + v^2")
    H = sf("w^2 - u")
    # {F,H,H2} is the binary bracket of J2, {F,H1,H} the one of J1
    a = nambu_bracket(F, H, H2, S)
    b = poisson_bracket(F, H, j2)
    assert ex.equal_numeric(a.expr, b.expr, BOX, n=80, tol=1e-12).equal
    a = nambu_bracket(F, H1, H, S)
    b = poisson_bracket(F, H, j1)
    assert ex.equal_numeric(a.expr, b.expr, BOX, n=80, tol=1e-12).equal


def test_orthogonality_for_all_catalog_systems():
    for name in ("lu-transformed", "modified-lu", "t-system", "chen", "chen-variant", "qi"):
        d = cat.instantiate(name)
        X = d.bound_field()
        for h in (d.h1, d.h2):
            g = gradient(d.bound_scalar(h))
            dotv = ex.add(*(ex.mul(a, b) for a, b in zip(g.exprs(), X.exprs())))
            assert (
                dotv == ex.ZERO
                or ex.equal_numeric(dotv, ex.ZERO, BOX, n=200, tol=1e-12).equal
            ), name
