"""3D vector calculus over expression trees.

A field is an expression over a frame of three spatial variables and
the one time variable ``t`` (``expr.TIME``).  Spatial operators act on
the frame variables only; ``t`` rides along as a passive symbol, which
is what the time-dependent Hamiltonians of the transformed chaotic
systems require.
Results are expand-normalized so that structural identities
(curl of a gradient, divergence of a curl) cancel symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import expr as ex
from .expr import Expr, expand


class FrameError(ex.InputError):
    pass


@dataclass(frozen=True)
class ScalarField:
    """An expression over a fixed spatial frame plus the time ``t``."""

    expr: Expr
    frame: tuple

    def __post_init__(self):
        object.__setattr__(self, "frame", tuple(self.frame))
        if len(self.frame) != 3:
            raise FrameError(f"frame must have three variables, got {self.frame}")
        allowed = {*self.frame, ex.TIME}
        stray = {
            s
            for s in self.expr.free_symbols()
            if s in ex.VARIABLES and s not in allowed
        }
        if stray:
            raise FrameError(
                f"variables {sorted(stray)} outside frame {self.frame}"
            )

    def is_time_independent(self):
        return ex.TIME not in self.expr.free_symbols()

    def __str__(self):
        return str(self.expr)


@dataclass(frozen=True)
class VectorField3:
    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) != 3:
            raise FrameError("a 3D vector field needs three components")
        f0 = comps[0]
        for c in comps[1:]:
            if c.frame != f0.frame:
                raise FrameError("components disagree on frame")
        object.__setattr__(self, "components", comps)

    @classmethod
    def from_exprs(cls, exprs, frame):
        return cls(tuple(ScalarField(e, frame) for e in exprs))

    @property
    def frame(self):
        return self.components[0].frame

    def exprs(self):
        return tuple(c.expr for c in self.components)

    def __getitem__(self, i):
        return self.components[i]

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.components) + ")"


def _check_same_frame(*fields):
    f0 = fields[0]
    for f in fields[1:]:
        if f.frame != f0.frame:
            raise FrameError(f"frame mismatch: {f.frame} vs {f0.frame}")


def _wrap(e, like):
    return ScalarField(expand(e), like.frame)


def gradient(f: ScalarField) -> VectorField3:
    """Spatial gradient (no time component)."""
    return VectorField3(
        tuple(_wrap(ex.differentiate(f.expr, v), f) for v in f.frame)
    )


def divergence(V: VectorField3) -> ScalarField:
    terms = [
        ex.differentiate(c.expr, v) for c, v in zip(V.components, V.frame)
    ]
    return _wrap(ex.add(*terms), V.components[0])


def curl(V: VectorField3) -> VectorField3:
    a, b, c = (comp.expr for comp in V.components)
    x1, x2, x3 = V.frame
    d = ex.differentiate
    comps = (
        ex.sub(d(c, x2), d(b, x3)),
        ex.sub(d(a, x3), d(c, x1)),
        ex.sub(d(b, x1), d(a, x2)),
    )
    return VectorField3(tuple(_wrap(e, V.components[0]) for e in comps))


def cross(V1: VectorField3, V2: VectorField3) -> VectorField3:
    _check_same_frame(V1.components[0], V2.components[0])
    a1, a2, a3 = V1.exprs()
    b1, b2, b3 = V2.exprs()
    comps = (
        ex.sub(ex.mul(a2, b3), ex.mul(a3, b2)),
        ex.sub(ex.mul(a3, b1), ex.mul(a1, b3)),
        ex.sub(ex.mul(a1, b2), ex.mul(a2, b1)),
    )
    return VectorField3(tuple(_wrap(e, V1.components[0]) for e in comps))


def dot(V1: VectorField3, V2: VectorField3) -> ScalarField:
    _check_same_frame(V1.components[0], V2.components[0])
    terms = [ex.mul(a, b) for a, b in zip(V1.exprs(), V2.exprs())]
    return _wrap(ex.add(*terms), V1.components[0])


def triple(V1: VectorField3, V2: VectorField3, V3: VectorField3) -> ScalarField:
    """Scalar triple product V1 . (V2 x V3)."""
    return dot(V1, cross(V2, V3))


def scale(V: VectorField3, s: Expr) -> VectorField3:
    return VectorField3(
        tuple(_wrap(ex.mul(s, c.expr), V.components[0]) for c in V.components)
    )


def vadd(V1: VectorField3, V2: VectorField3) -> VectorField3:
    _check_same_frame(V1.components[0], V2.components[0])
    return VectorField3(
        tuple(
            _wrap(ex.add(a, b), V1.components[0])
            for a, b in zip(V1.exprs(), V2.exprs())
        )
    )


def fd_gradient(f: ScalarField, point, h=1e-6):
    """Central-difference spatial gradient at a point.

    ``point`` binds the frame variables, ``t``, and any parameters.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    out = []
    for v in f.frame:
        hi = dict(point)
        lo = dict(point)
        hi[v] = point[v] + h
        lo[v] = point[v] - h
        out.append((ex.evaluate(f.expr, hi) - ex.evaluate(f.expr, lo)) / (2 * h))
    return tuple(out)
