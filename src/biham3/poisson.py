"""Poisson and Nambu bracket algebra for 3D flows.

A Poisson structure in three dimensions is encoded by a Poisson vector
J, a plain VectorField3: the bracket is {F,H} = grad(F) . (J x grad(H)),
Hamilton's equation is xdot = J x grad(H), and the Jacobi identity
collapses to the scalar condition J . (curl J) = 0.  A nonvanishing last
multiplier M, a plain ScalarField, turns a pair of Hamiltonians into the
ternary bracket {F,H1,H2} = (1/M) grad(F) . (grad(H1) x grad(H2)).

Convention: the bracket is fixed so that hamiltonian_field(J, H)[i]
equals poisson_bracket(x_i, H, J).  Any leftover sign freedom of a
specific system lives in a single orientation factor stored with the
system, never in per-formula edits.
"""

from __future__ import annotations

from . import expr as ex
from .vecfield import (
    FrameError,
    ScalarField,
    VectorField3,
    cross,
    curl,
    divergence,
    dot,
    gradient,
    scale,
    triple,
    vadd,
)


def _grad(H):
    # a caller that already holds grad(H) may pass it in place of H
    if isinstance(H, VectorField3):
        return H
    return gradient(H)


def coordinate_field(name, frame):
    """The coordinate function x_i as a ScalarField."""
    return ScalarField(ex.var(name), frame)


def poisson_bracket(F: ScalarField, H: ScalarField, J: VectorField3) -> ScalarField:
    """{F,H} = grad(F) . (J x grad(H))."""
    if F.frame != H.frame or F.frame != J.frame:
        raise FrameError("bracket arguments disagree on frame")
    return dot(gradient(F), cross(J, gradient(H)))


def hamiltonian_field(J, H) -> VectorField3:
    """xdot = J x grad(H); H may be given as its gradient."""
    return cross(J, _grad(H))


def jacobi_residual(J) -> ScalarField:
    """J . (curl J); identically zero iff J is a Poisson vector."""
    return dot(J, curl(J))


def casimir_residual(J, C) -> VectorField3:
    """J x grad(C); vanishes iff C is a Casimir of J.  C may be given as
    its gradient."""
    return cross(J, _grad(C))


def compatibility_residual(J1, J2) -> ScalarField:
    """J1 . curl(J2) + J2 . curl(J1); zero for a compatible pair."""
    return ScalarField(ex.add(dot(J1, curl(J2)).expr, dot(J2, curl(J1)).expr), J1.frame)


def pencil(J1, J2, c) -> VectorField3:
    """Componentwise J1 + c*J2."""
    return vadd(J1, scale(J2, ex.con(c)))


def nambu_bracket(
    F: ScalarField, H1: ScalarField, H2: ScalarField, M: ScalarField
) -> ScalarField:
    """{F,H1,H2} = (1/M) grad(F) . (grad(H1) x grad(H2))."""
    t = triple(gradient(F), gradient(H1), gradient(H2))
    if M.expr == ex.ONE:
        return t
    return ScalarField(ex.quot(t.expr, M.expr), t.frame)


def nambu_field(H1, H2, M: ScalarField) -> VectorField3:
    """The Nambu flow x_i' = {x_i, H1, H2} = (1/M) (grad(H1) x grad(H2))_i,
    all three components from one cross product.  H1 and H2 may be given
    as their gradients."""
    c = cross(_grad(H1), _grad(H2))
    if M.expr == ex.ONE:
        return c
    return VectorField3.from_exprs([ex.quot(e, M.expr) for e in c.exprs()], c.frame)


def fundamental_identity_parts(F1, F2, H1, H2, H3, M):
    """Symbolic pieces of the Takhtajan identity: the left side
    {F1,F2,{H1,H2,H3}} and the three right-side brackets with
    {F1,F2,H_k} substituted for H_k.

    The identity holds when ``lhs - (r1 + r2 + r3)`` vanishes.
    """
    nb = lambda a, b, c: nambu_bracket(a, b, c, M)
    lhs = nb(F1, F2, nb(H1, H2, H3))
    r1 = nb(nb(F1, F2, H1), H2, H3)
    r2 = nb(H1, nb(F1, F2, H2), H3)
    r3 = nb(H1, H2, nb(F1, F2, H3))
    return lhs, (r1, r2, r3)


def multiplier_residual(M: ScalarField, X: VectorField3) -> ScalarField:
    """div(M*X); identically zero iff M is a last multiplier of X."""
    if M.expr == ex.ZERO:
        raise ValueError("a last multiplier must be nonvanishing")
    return divergence(scale(X, M.expr))


def flow_residual(X: VectorField3, F: VectorField3, sigma) -> VectorField3:
    """X - sigma*F componentwise, left unexpanded so that whoever decides
    it expands each component once."""
    if X.frame != F.frame:
        raise FrameError("flow residual arguments disagree on frame")
    s = ex.con(-sigma)
    return VectorField3.from_exprs(
        [ex.add(x, ex.mul(s, f)) for x, f in zip(X.exprs(), F.exprs())], X.frame
    )
