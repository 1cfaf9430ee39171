"""Structure verification: runs the bracket identities against a system
and reports residual statistics, the orientation sign, and the deltas
between derived and published formulas.

Each verdict is decided exactly first: residuals are kept in the
normal form of :mod:`biham3.expr`, and one that ``expr.is_zero`` shows
zero (it expands, over a common denominator where it has one, to the
literal zero) is an identity, reported ``exact`` with no point drawn.
Only what the normal form cannot decide, such as terms that cancel
through ``sin(u)^2 + cos(u)^2 = 1``, is sampled, at seeded points drawn
at most once per run (Schwartz 1980, Zippel 1979), with the worst point
reported as the witness.

Sampled residuals are reported raw and relative, where "relative"
divides by one plus the largest magnitude, at the sample point, of the
top-level terms of the group's expanded residuals: each check is judged
against the terms of its own residuals.  The exponential weights of the
non-autonomous systems make raw scales vary over many orders of
magnitude; term-relative normalization is what keeps a 1e-12 tolerance
meaningful everywhere.

Check groups, in order: (1) Jacobi identity for J1 and J2,
(2) compatibility, (3) pencil Jacobi over six pencil coefficients,
(4) Casimir residuals, (5) last-multiplier divergence, (6) the
bi-Hamiltonian identity under a single orientation sign, (7) the
ternary-bracket form of the flow, (8) gradient orthogonality.
Published-formula comparisons are informational and never fail a run.
"""

from __future__ import annotations

import datetime
import functools
import json
import math
import operator
from dataclasses import asdict, dataclass, replace
from itertools import islice
from types import SimpleNamespace

import numpy as np

from . import expr as ex
from .expr import terms
from .sampling import SeededSampler, random_polynomial, sample_box, verification_box
from .vecfield import ScalarField, VectorField3, dot, gradient
from .poisson import (
    casimir_residual,
    compatibility_residual,
    flow_residual,
    fundamental_identity_parts,
    hamiltonian_field,
    jacobi_residual,
    multiplier_residual,
    nambu_field,
)
from .catalog import ConstraintError, instantiate

PENCIL_COEFFICIENTS = (-10, -1, "-0.3", "0.3", 1, 10)
MULTIPLIER_FLOOR = 1e-9
FI_TOL = 1e-8  # relative tolerance of the sampled fundamental identity
MAX_SAMPLES = 10**6  # sample points of one run, the cap of integrate.MAX_POINTS


@dataclass(frozen=True)
class SampleConfig:
    n: int = 1000
    seed: int = 42
    tol: float = 1e-12

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"sample count must be at least 1, got {self.n}")
        if self.n > MAX_SAMPLES:
            raise ValueError(f"sample count must be at most {MAX_SAMPLES}, got {self.n}")
        if not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise ValueError(f"tol must be finite and non-negative, got {self.tol}")


@dataclass
class CheckResult:
    name: str
    n: int  # points sampled; 0 for an exact verdict
    max_abs: float
    max_rel: float
    rms: float
    tol: float
    passed: bool
    method: str = "sampled"  # "exact" or "sampled"
    worst_point: list = None  # [name, value] pairs of the worst sample

    def as_dict(self):
        """The check as a dict of strict JSON values: a statistic that is
        not finite (a field undefined at a sample point, or an orientation
        that no sign fits) is written as None."""
        out = asdict(self)
        out["pass"] = out.pop("passed")
        for key in ("max_abs", "max_rel", "rms"):
            if not math.isfinite(out[key]):
                out[key] = None
        return out


@dataclass
class OrientationResult:
    sigma: int  # +1, -1 or None
    deviation: dict  # sigma -> max relative deviation (0.0 when exact)
    per_component: dict  # component name -> preferred sigma
    message: str
    worst_point: list = None  # where neither sign fits, when sigma is None


@dataclass
class VerificationReport:
    system: str
    params: dict
    seed: int
    domain: dict
    orientation: int
    checks: list
    discrepancies: list
    notes: list

    def passed(self):
        return all(c.passed for c in self.checks)

    def to_dict(self, deterministic=False):
        out = {
            "schema": 2,
            "system": self.system,
            "params": {k: float(v) for k, v in self.params.items()},
            "seed": self.seed,
            "domain": {k: list(v) for k, v in sorted(self.domain.items())},
            "orientation": self.orientation,
            "checks": [c.as_dict() for c in self.checks],
            "discrepancies": self.discrepancies,
            "notes": list(self.notes),
            "pass": self.passed(),
        }
        if not deterministic:
            out["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        return out

    def to_json(self, deterministic=False):
        """JSON text with one line per field, and per check and
        discrepancy entry."""
        fields = []
        for key, value in sorted(self.to_dict(deterministic).items()):
            if key in ("checks", "discrepancies") and value:
                rows = (json.dumps(v, sort_keys=True) for v in value)
                fields.append(f'  "{key}": [\n    ' + ",\n    ".join(rows) + "\n  ]")
            else:
                fields.append(f'  "{key}": {json.dumps(value, sort_keys=True)}')
        return "{\n" + ",\n".join(fields) + "\n}"


def _sample_points(d, cfg):
    """Seeded sample of the verification box as ``(names, pts)``, skipping
    points where the multiplier is not finite or within 1e-9 of zero."""
    m = d.M.expr
    keep = None
    if m != ex.ONE:
        guard = ex.compile_array((m,), sorted(d.box))

        def keep(pts):
            g = np.abs(guard(pts)[:, 0])
            return np.isfinite(g) & (g >= MULTIPLIER_FLOOR)

    return sample_box(SeededSampler(cfg.seed), d.box, cfg.n, keep)


def _point(names, row):
    return [[s, float(x)] for s, x in zip(names, row)]


def _derive(defn):
    """The objects the checks derive from a system, instantiated first if
    it is not, each built once and shared by every check that needs it."""
    if not defn.is_instantiated():
        defn = instantiate(defn)
    d = SimpleNamespace(
        defn=defn,
        box=verification_box((*defn.frame, ex.TIME)),
        X=defn.bound_field(),
        M=defn.bound_scalar(defn.multiplier),
    )
    if defn.h1 is not None and defn.h2 is not None:
        d.H = (defn.bound_scalar(defn.h1), defn.bound_scalar(defn.h2))
        d.G = tuple(gradient(h) for h in d.H)
        d.J = defn.poisson_vectors(d.G)
        d.F = hamiltonian_field(d.J[0], d.G[1])  # the field up to the orientation sign
        # X - sigma*F expanded, per sign: the orientation decides it, the biham row
        # checks it; the closure holds X and F, not d, so d is in no reference cycle
        X, F = d.X, d.F
        d.flow = functools.cache(lambda s: tuple(map(ex.expand, flow_residual(X, F, s).exprs())))
    return d


def _structure_rows(d, sigma):
    """The check table of a system with a Hamiltonian pair: one row
    ``(group, residuals)`` per group, in report order, whose residuals
    are the identities of :mod:`biham3.poisson`."""
    X = d.X
    j1, j2 = d.J
    G1, G2 = d.G
    F2 = hamiltonian_field(j2, G1)
    nb = nambu_field(G1, G2, d.M)
    jac1, jac2 = jacobi_residual(j1).expr, jacobi_residual(j2).expr
    compat = compatibility_residual(j1, j2).expr
    return (
        ("jacobi", [jac1, jac2]),
        ("compatibility", [compat]),
        (
            # P.curl(P) for P = J1 + c*J2 is jac1 + c*compat + c^2*jac2
            "pencil",
            [
                ex.add(jac1, ex.mul(c, compat), ex.mul(c, c, jac2))
                for c in map(ex.con, PENCIL_COEFFICIENTS)
            ],
        ),
        ("casimir", [*casimir_residual(j1, G1).exprs(), *casimir_residual(j2, G2).exprs()]),
        ("multiplier", [multiplier_residual(d.M, X).expr]),
        (
            "biham",
            [*d.flow(sigma), *flow_residual(X, F2, sigma).exprs()],
        ),
        ("nambu", list(flow_residual(X, nb, sigma).exprs())),
        ("orthogonality", [dot(G1, X).expr, dot(G2, X).expr]),
    )


def _decide(name, residuals, points, tol):
    """One check group: exact when ``expr.is_zero`` shows every residual
    zero, otherwise sampled, with the worst sample point as its witness.

    A sampled residual is judged against its own terms: each top-level
    term of the group's expanded residuals is one compiled column, a
    residual is the left-to-right sum of its columns (the order of the
    compiled sum, so its values are those of the whole residual), and
    the relative residual divides by one plus the largest term magnitude
    of the group at that point."""
    residuals = [ex.expand(r) for r in residuals]
    if all(map(ex.is_zero, residuals)):
        return CheckResult(name, 0, 0.0, 0.0, 0.0, tol, True, "exact")
    names, pts = points()
    groups = [terms(r) for r in residuals]
    T = ex.compile_array([t for ts in groups for t in ts], names)(pts)
    columns = iter(T.T)
    R = np.abs(
        np.column_stack([functools.reduce(operator.add, islice(columns, len(ts))) for ts in groups])
    )
    rel = (R / (1.0 + np.abs(T).max(axis=1))[:, None]).max(axis=1)
    i = int(np.argmax(rel))
    max_rel = float(rel[i])
    rms = float(np.sqrt(np.mean(R * R)))
    return CheckResult(
        name, len(pts), float(R.max()), max_rel, rms, tol, max_rel <= tol, "sampled",
        _point(names, pts[i]),
    )


def determine_orientation(defn, cfg=None):
    """Find the sign sigma with X = sigma*(1/M) grad(H1) x grad(H2).

    Returns an OrientationResult; when neither global sign fits, sigma
    is None and per_component records which sign each component prefers.
    """
    cfg = cfg or SampleConfig()
    if defn.h1 is None or defn.h2 is None:
        raise ConstraintError(f"{defn.name}: orientation needs both Hamiltonians")
    d = _derive(defn)
    return _orientation(d, lambda: _sample_points(d, cfg), cfg)


def _orientation(d, points, cfg):
    """Exact when X - sigma*J1 x grad(H2) is zero by ``expr.is_zero`` for
    exactly one sign; otherwise fitted over the sample points."""
    exact = [s for s in (1, -1) if all(map(ex.is_zero, d.flow(s)))]
    if len(exact) == 1:
        s = exact[0]
        return OrientationResult(
            s, {s: 0.0}, {v: s for v in d.X.frame}, f"orientation {s:+d} (exact)"
        )
    return _fit_orientation(d.X.exprs(), d.F.exprs(), d.X.frame, *points(), cfg)


def _fit_orientation(X, F, frame, names, pts, cfg):
    V = ex.compile_array(X + F, names)(pts)
    a, b = V[:, :3], V[:, 3:]
    denom = 1.0 + np.maximum(np.abs(a), np.abs(b))
    rel = {sigma: np.abs(a - sigma * b) / denom for sigma in (1, -1)}
    comp_dev = {sigma: r.max(axis=0, initial=0.0) for sigma, r in rel.items()}
    dev = {sigma: float(c.max()) for sigma, c in comp_dev.items()}

    best = 1 if dev[1] <= dev[-1] else -1
    per_component = {
        v: (1 if p <= m else -1) for v, p, m in zip(frame, comp_dev[1], comp_dev[-1])
    }
    if dev[best] <= cfg.tol:
        return OrientationResult(
            best, dev, per_component, f"orientation {best:+d} fits to {dev[best]:.3e} (sampled)"
        )
    wants = ", ".join(f"{k} needs {v:+d}" for k, v in per_component.items())
    neither = np.minimum(rel[1].max(axis=1), rel[-1].max(axis=1))
    return OrientationResult(
        None,
        dev,
        per_component,
        "no global orientation fits "
        f"(sampled; +1: {dev[1]:.3e}, -1: {dev[-1]:.3e}); {wants}",
        _point(names, pts[int(np.argmax(neither))]),
    )


def verify_structure(defn, cfg=None):
    """Run the full identity checklist against an instantiated system."""
    cfg = cfg or SampleConfig()
    d = _derive(defn)
    defn = d.defn
    points = functools.cache(lambda: _sample_points(d, cfg))
    notes = list(defn.notes)

    if defn.h1 is None or defn.h2 is None:
        notes.append(
            "no Hamiltonian pair: jacobi/compatibility/pencil/casimir/"
            "bi-Hamiltonian/nambu/orthogonality checks skipped"
        )
        orient, discrepancies = None, []
        rows = [("multiplier", [multiplier_residual(d.M, d.X).expr])]
    else:
        orient = _orientation(d, points, cfg)
        if defn.orientation is not None and orient.sigma is not None and orient.sigma != defn.orientation:
            notes.append(
                f"stored orientation {defn.orientation:+d} disagrees with the "
                f"determined orientation {orient.sigma:+d}"
            )
        notes.append(orient.message)
        rows = _structure_rows(d, orient.sigma or defn.orientation or 1)
        discrepancies = _compare_printed(d, cfg)

    checks = [_decide(name, res, points, cfg.tol) for name, res in rows]
    if orient is not None and orient.sigma is None:
        checks.append(
            CheckResult(
                "orientation", len(points()[1]), float("nan"), float("inf"), float("nan"),
                cfg.tol, False, "sampled", orient.worst_point,
            )
        )
    sigma = orient and orient.sigma
    return VerificationReport(
        defn.name, dict(defn.param_values), cfg.seed, d.box, sigma, checks, discrepancies, notes
    )


def compare_printed(defn, cfg=None):
    """Compare each stored published formula with its derived counterpart.

    Informational: entries carry a match verdict and how it was reached.
    An exact match (``expr.is_zero`` of the difference) has ``max_dev`` 0 and
    no point; otherwise the formulas are compared at seeded points and
    the entry gives the worst one.  Never fails a verification run.
    """
    return _compare_printed(_derive(defn), cfg or SampleConfig())


def _compare_printed(d, cfg):
    defn = d.defn
    out = []
    derived = {"field": d.X.exprs()}
    if defn.h1 is not None and defn.h2 is not None:
        derived.update(J1=d.J[0].exprs(), J2=d.J[1].exprs(), H1=d.H[0].expr, H2=d.H[1].expr)
    if defn.transform is not None:
        for v, e in zip(defn.frame, defn.transform.forward):
            derived[f"transform_{v}"] = defn.bound_expr(e)

    for key, printed in sorted(defn.printed.items()):
        if key not in derived:
            continue
        want = derived[key]
        have = printed if isinstance(printed, tuple) else (printed,)
        want = want if isinstance(want, tuple) else (want,)
        for i, (p, w) in enumerate(zip(have, want)):
            p = defn.bound_expr(p)
            entry = {"formula": key if len(have) == 1 else f"{key}[{i}]"}
            if ex.is_zero(ex.sub(p, w)):
                entry.update(match=True, method="exact", max_dev=0.0, max_rel_dev=0.0, at=[])
            else:
                box = verification_box(p.free_symbols() | w.free_symbols())
                r = ex.equal_numeric(p, w, box, n=min(cfg.n, 200), tol=1e-9, seed=cfg.seed)
                entry.update(
                    match=bool(r.equal),
                    method="sampled",
                    max_dev=r.max_abs_dev,
                    max_rel_dev=r.max_rel_dev,
                    at=[[s, r.worst_point.get(s)] for s in sorted(r.worst_point)],
                )
            out.append(entry)
    return out


def verify_fundamental_identity(M: ScalarField, cfg=None, instances=3):
    """The ternary-bracket fundamental identity (Takhtajan 1994) on seeded
    random quadratic polynomial quintuples, as one check.

    Each instance contributes the residual ``lhs - (r1 + r2 + r3)`` of
    :func:`biham3.poisson.fundamental_identity_parts`.  The check is
    exact when ``expr.is_zero`` shows every residual zero; otherwise the
    points are drawn once, after the polynomials, from the same seeded
    stream, and the check is sampled against the relative tolerance
    ``FI_TOL``, with the worst point as its witness.
    """
    cfg = cfg or SampleConfig(n=50)
    frame = M.frame
    sampler = SeededSampler(cfg.seed)
    residuals = []
    for _ in range(instances):
        fs = [ScalarField(random_polynomial(sampler, frame, 2), frame) for _ in range(5)]
        lhs, rhs = fundamental_identity_parts(*fs, M)
        residuals.append(ex.sub(lhs.expr, ex.add(*(r.expr for r in rhs))))
    box = verification_box((*frame, ex.TIME))
    return _decide(
        "fundamental_identity", residuals, lambda: sample_box(sampler, box, cfg.n), FI_TOL
    )


def flipped_sign_variant(defn, component):
    """A copy of the system with one field component's sign flipped
    (negative control for the structure checks)."""
    comps = list(defn.field.components)
    c = comps[component]
    comps[component] = ScalarField(ex.neg(c.expr), c.frame)
    return replace(defn, field=VectorField3(tuple(comps)), name=f"{defn.name}~flip{component}")
