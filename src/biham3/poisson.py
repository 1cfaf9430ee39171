"""Poisson and Nambu bracket algebra for 3D flows.

A Poisson structure in three dimensions is encoded by a Poisson vector
J: the bracket is {F,H} = grad(F) . (J x grad(H)), Hamilton's equation
is xdot = J x grad(H), and the Jacobi identity collapses to the scalar
condition J . (curl J) = 0.  A nonvanishing last multiplier M turns a
pair of Hamiltonians into the ternary bracket
{F,H1,H2} = (1/M) grad(F) . (grad(H1) x grad(H2)).

Convention: the bracket is fixed so that hamiltonian_field(J, H)[i]
equals poisson_bracket(x_i, H, J).  Any leftover sign freedom of a
specific system lives in a single orientation factor stored with the
system, never in per-formula edits.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class PoissonVector:
    field: VectorField3
    name: str = "J"

    @property
    def frame(self):
        return self.field.frame


@dataclass(frozen=True)
class NambuStructure:
    """Last multiplier M (nonvanishing on the working domain) plus frame."""

    multiplier: ScalarField

    @property
    def frame(self):
        return self.multiplier.frame

    def is_trivial(self):
        return self.multiplier.expr == ex.ONE


def _vf(J):
    if isinstance(J, PoissonVector):
        return J.field
    return J


def coordinate_field(name, frame, time="t"):
    """The coordinate function x_i as a ScalarField."""
    return ScalarField(ex.var(name), frame, time)


def poisson_bracket(F: ScalarField, H: ScalarField, J) -> ScalarField:
    """{F,H} = grad(F) . (J x grad(H))."""
    Jf = _vf(J)
    if F.frame != H.frame or F.frame != Jf.frame:
        raise FrameError("bracket arguments disagree on frame")
    return dot(gradient(F), cross(Jf, gradient(H)))


def hamiltonian_field(J, H: ScalarField) -> VectorField3:
    """xdot = J x grad(H)."""
    return cross(_vf(J), gradient(H))


def jacobi_residual(J) -> ScalarField:
    """J . (curl J); identically zero iff J is a Poisson vector."""
    Jf = _vf(J)
    return dot(Jf, curl(Jf))


def casimir_residual(J, C: ScalarField) -> VectorField3:
    """J x grad(C); vanishes iff C is a Casimir of J."""
    return cross(_vf(J), gradient(C))


def compatibility_residual(J1, J2) -> ScalarField:
    """J1 . curl(J2) + J2 . curl(J1); zero for a compatible pair."""
    a = _vf(J1)
    b = _vf(J2)
    return ScalarField(
        ex.add(dot(a, curl(b)).expr, dot(b, curl(a)).expr), a.frame, a.time
    )


def pencil(J1, J2, c) -> VectorField3:
    """Componentwise J1 + c*J2."""
    return vadd(_vf(J1), scale(_vf(J2), ex.con(c)))


def nambu_bracket(
    F: ScalarField, H1: ScalarField, H2: ScalarField, structure: NambuStructure
) -> ScalarField:
    """{F,H1,H2} = (1/M) grad(F) . (grad(H1) x grad(H2))."""
    t = triple(gradient(F), gradient(H1), gradient(H2))
    if structure.is_trivial():
        return t
    return ScalarField(
        ex.quot(t.expr, structure.multiplier.expr), t.frame, t.time
    )


def fundamental_identity_parts(F1, F2, H1, H2, H3, structure):
    """Symbolic pieces of the Takhtajan identity: the left side
    {F1,F2,{H1,H2,H3}} and the three right-side brackets with
    {F1,F2,H_k} substituted for H_k.

    Building these is the expensive step; callers evaluating at many
    points should build once and compile the four expressions.
    """
    nb = lambda a, b, c: nambu_bracket(a, b, c, structure)
    lhs = nb(F1, F2, nb(H1, H2, H3))
    r1 = nb(nb(F1, F2, H1), H2, H3)
    r2 = nb(H1, nb(F1, F2, H2), H3)
    r3 = nb(H1, H2, nb(F1, F2, H3))
    return lhs, (r1, r2, r3)


def fundamental_identity_residual(F1, F2, H1, H2, H3, structure, point):
    """Takhtajan identity defect at a point.

    All nested brackets are built symbolically; only the final
    evaluation is numeric.  Returns (residual, scale) where scale is
    the largest participating bracket magnitude, for relative
    normalization.
    """
    lhs, rhs = fundamental_identity_parts(F1, F2, H1, H2, H3, structure)
    vals = [ex.evaluate(s.expr, point) for s in (lhs, *rhs)]
    residual = vals[0] - (vals[1] + vals[2] + vals[3])
    scale_ = max(abs(v) for v in vals)
    return residual, scale_


def multiplier_residual(M: ScalarField, X: VectorField3) -> ScalarField:
    """div(M*X); identically zero iff M is a last multiplier of X."""
    if M.expr == ex.ZERO:
        raise ValueError("a last multiplier must be nonvanishing")
    return divergence(scale(X, M.expr))
