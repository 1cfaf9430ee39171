"""Structure verification: runs the bracket identities against a system
and reports residual statistics, the orientation sign, and the deltas
between derived and published formulas.

Residuals are reported raw and relative, where "relative" divides by
one plus the largest participating term magnitude at the sample point.
The exponential weights of the non-autonomous systems make raw scales
vary over many orders of magnitude; term-relative normalization is what
keeps a 1e-12 tolerance meaningful everywhere on the domain.

Check groups, in order: (1) Jacobi identity for J1 and J2,
(2) compatibility, (3) pencil Jacobi over six pencil coefficients,
(4) Casimir residuals, (5) last-multiplier divergence, (6) the
bi-Hamiltonian identity under a single orientation sign, (7) the
ternary-bracket form of the flow, (8) gradient orthogonality.
Published-formula comparisons are informational and never fail a run.
"""

from __future__ import annotations

import datetime
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import expr as ex
from .sampling import SeededSampler, random_polynomial, sample_box
from .vecfield import ScalarField, VectorField3, cross, curl, divergence, gradient, scale
from .poisson import (
    NambuStructure,
    coordinate_field,
    fundamental_identity_residual,
    nambu_bracket,
    pencil,
)
from .catalog import ConstraintError, SystemDef, instantiate

PENCIL_COEFFICIENTS = (-10, -1, "-0.3", "0.3", 1, 10)
MULTIPLIER_FLOOR = 1e-9


@dataclass(frozen=True)
class SampleConfig:
    n: int = 1000
    seed: int = 42
    domain: dict = None  # symbol -> (lo, hi); default [-2,2]^3 x t in [0,2]
    tol: float = 1e-12
    fi_tol: float = 1e-8
    tolerances: dict = field(default_factory=dict)  # per-check overrides

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"sample count must be at least 1, got {self.n}")
        for name in ("tol", "fi_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")

    def check_tol(self, name):
        return self.tolerances.get(name, self.tol)


@dataclass
class CheckResult:
    name: str
    n: int
    max_abs: float
    max_rel: float
    rms: float
    tol: float
    passed: bool

    def as_dict(self):
        return {
            "name": self.name,
            "n": self.n,
            "max_abs": self.max_abs,
            "max_rel": self.max_rel,
            "rms": self.rms,
            "tol": self.tol,
            "pass": self.passed,
        }


@dataclass
class OrientationResult:
    sigma: int  # +1, -1 or None
    deviation: dict  # sigma -> max relative deviation
    per_component: dict  # component name -> preferred sigma
    message: str


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
            "schema": 1,
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
        return json.dumps(self.to_dict(deterministic), indent=2, sort_keys=True)


def default_domain(defn):
    box = {v: (-2.0, 2.0) for v in defn.frame}
    box[defn.time] = (0.0, 2.0)
    return box


def _sample_points(defn, cfg):
    """Seeded sample of the verification box as ``(names, pts)``, skipping
    points where the multiplier is not finite or within 1e-9 of zero."""
    box = cfg.domain or default_domain(defn)
    m = defn.bound_scalar(defn.multiplier).expr
    keep = None
    if m != ex.ONE:
        guard = ex.compile_array((m,), sorted(box))

        def keep(pts):
            g = np.abs(guard(pts)[:, 0])
            return np.isfinite(g) & (g >= MULTIPLIER_FLOOR)

    return sample_box(SeededSampler(cfg.seed), box, cfg.n, keep)


@dataclass
class _CheckSpec:
    name: str
    residuals: list  # Expr, should vanish
    scales: list  # Expr whose |values| set the relative normalization


def _dot_scales(A, B):
    return [ex.expand(ex.mul(a, b)) for a, b in zip(A.exprs(), B.exprs())]


def _cross_scales(A, B):
    a1, a2, a3 = A.exprs()
    b1, b2, b3 = B.exprs()
    pairs = ((a2, b3), (a3, b2), (a3, b1), (a1, b3), (a1, b2), (a2, b1))
    return [ex.expand(ex.mul(p, q)) for p, q in pairs]


def _vec_residual(A, B):
    """Componentwise A - B."""
    return [ex.sub(a, b) for a, b in zip(A.exprs(), B.exprs())]


def _run_specs(specs, names, pts, cfg):
    """Residual statistics of each spec over the sample points ``pts``."""
    results = []
    for spec in specs:
        k = len(spec.residuals)
        V = ex.compile_array(spec.residuals + spec.scales, names)(pts)
        R = np.abs(V[:, :k])
        scale_ = np.abs(V[:, k:]).max(axis=1, initial=0.0)
        max_rel = float((R / (1.0 + scale_[:, None])).max(initial=0.0))
        rms = float(np.sqrt(np.mean(R * R))) if R.size else 0.0
        tol = cfg.check_tol(spec.name)
        results.append(
            CheckResult(spec.name, len(pts), float(R.max(initial=0.0)), max_rel, rms, tol, max_rel <= tol)
        )
    return results


def determine_orientation(defn, cfg=None):
    """Find the sign sigma with X = sigma*(1/M) grad(H1) x grad(H2).

    Returns an OrientationResult; when neither global sign fits, sigma
    is None and per_component records which sign each component prefers.
    """
    cfg = cfg or SampleConfig()
    if defn.h1 is None or defn.h2 is None:
        raise ConstraintError(f"{defn.name}: orientation needs both Hamiltonians")
    if not defn.is_instantiated():
        defn = instantiate(defn)
    names, pts = _sample_points(defn, cfg)
    return _fit_orientation(defn, names, pts, cfg)


def _fit_orientation(defn, names, pts, cfg):
    X = defn.bound_field()
    j1, _ = defn.poisson_vectors()
    G = cross(j1.field, gradient(defn.bound_scalar(defn.h2)))
    V = ex.compile_array(X.exprs() + G.exprs(), names)(pts)
    a, b = V[:, :3], V[:, 3:]
    denom = 1.0 + np.maximum(np.abs(a), np.abs(b))
    comp_dev = {
        sigma: (np.abs(a - sigma * b) / denom).max(axis=0, initial=0.0) for sigma in (1, -1)
    }
    dev = {sigma: float(c.max()) for sigma, c in comp_dev.items()}

    best = 1 if dev[1] <= dev[-1] else -1
    per_component = {
        v: (1 if p <= m else -1) for v, p, m in zip(defn.frame, comp_dev[1], comp_dev[-1])
    }
    if dev[best] <= cfg.check_tol("orientation"):
        return OrientationResult(
            best, dev, per_component, f"orientation {best:+d} fits to {dev[best]:.3e}"
        )
    wants = ", ".join(f"{k} needs {v:+d}" for k, v in per_component.items())
    return OrientationResult(
        None,
        dev,
        per_component,
        "no global orientation fits "
        f"(+1: {dev[1]:.3e}, -1: {dev[-1]:.3e}); {wants}",
    )


def verify_structure(defn, cfg=None):
    """Run the full identity checklist against an instantiated system."""
    cfg = cfg or SampleConfig()
    if not defn.is_instantiated():
        defn = instantiate(defn)
    notes = list(defn.notes)
    box = cfg.domain or default_domain(defn)
    params = dict(defn.param_values)

    X = defn.bound_field()
    M = defn.bound_scalar(defn.multiplier)
    names, pts = _sample_points(defn, cfg)

    if defn.h1 is None or defn.h2 is None:
        notes.append(
            "no Hamiltonian pair: jacobi/compatibility/pencil/casimir/"
            "bi-Hamiltonian/nambu/orthogonality checks skipped"
        )
        from .poisson import multiplier_residual

        spec = _CheckSpec(
            "multiplier",
            [multiplier_residual(M, X).expr],
            [
                ex.expand(ex.differentiate(ex.mul(M.expr, c), v))
                for c, v in zip(X.exprs(), X.frame)
            ],
        )
        checks = _run_specs([spec], names, pts, cfg)
        return VerificationReport(
            defn.name, params, cfg.seed, box, None, checks, [], notes
        )

    j1, j2 = defn.poisson_vectors()
    H1 = defn.bound_scalar(defn.h1)
    H2 = defn.bound_scalar(defn.h2)
    G1 = gradient(H1)
    G2 = gradient(H2)
    structure = defn.nambu_structure()

    orient = _fit_orientation(defn, names, pts, cfg)
    if defn.orientation is not None and orient.sigma is not None and orient.sigma != defn.orientation:
        notes.append(
            f"stored orientation {defn.orientation:+d} disagrees with the "
            f"sampled orientation {orient.sigma:+d}"
        )
    sigma = orient.sigma if orient.sigma is not None else (defn.orientation or 1)
    notes.append(orient.message)

    specs = []

    curl1 = curl(j1.field)
    curl2 = curl(j2.field)
    specs.append(
        _CheckSpec(
            "jacobi",
            [
                ex.expand(
                    ex.add(*(ex.mul(a, b) for a, b in zip(j1.field.exprs(), curl1.exprs())))
                ),
                ex.expand(
                    ex.add(*(ex.mul(a, b) for a, b in zip(j2.field.exprs(), curl2.exprs())))
                ),
            ],
            _dot_scales(j1.field, curl1) + _dot_scales(j2.field, curl2),
        )
    )

    specs.append(
        _CheckSpec(
            "compatibility",
            [
                ex.add(
                    *(ex.mul(a, b) for a, b in zip(j1.field.exprs(), curl2.exprs())),
                    *(ex.mul(a, b) for a, b in zip(j2.field.exprs(), curl1.exprs())),
                )
            ],
            _dot_scales(j1.field, curl2) + _dot_scales(j2.field, curl1),
        )
    )

    pencil_res = []
    pencil_sc = []
    for c in PENCIL_COEFFICIENTS:
        P = pencil(j1, j2, ex.parse(str(c)))
        cp = curl(P)
        pencil_res.append(
            ex.expand(ex.add(*(ex.mul(a, b) for a, b in zip(P.exprs(), cp.exprs()))))
        )
        pencil_sc.extend(_dot_scales(P, cp))
    specs.append(_CheckSpec("pencil", pencil_res, pencil_sc))

    cas1 = cross(j1.field, G1)
    cas2 = cross(j2.field, G2)
    specs.append(
        _CheckSpec(
            "casimir",
            list(cas1.exprs()) + list(cas2.exprs()),
            _cross_scales(j1.field, G1) + _cross_scales(j2.field, G2),
        )
    )

    mx = scale(X, M.expr)
    specs.append(
        _CheckSpec(
            "multiplier",
            [divergence(mx).expr],
            [ex.expand(ex.differentiate(c, v)) for c, v in zip(mx.exprs(), X.frame)],
        )
    )

    bi1 = scale(cross(j1.field, G2), ex.con(sigma))
    bi2 = scale(cross(j2.field, G1), ex.con(sigma))
    specs.append(
        _CheckSpec(
            "biham",
            _vec_residual(X, bi1) + _vec_residual(X, bi2),
            list(X.exprs())
            + list(bi1.exprs())
            + _cross_scales(j1.field, G2)
            + _cross_scales(j2.field, G1),
        )
    )

    nb = [
        nambu_bracket(coordinate_field(v, defn.frame, defn.time), H1, H2, structure)
        for v in defn.frame
    ]
    nbv = VectorField3(
        tuple(
            ScalarField(ex.mul(ex.con(sigma), s.expr), s.frame, s.time) for s in nb
        )
    )
    specs.append(
        _CheckSpec(
            "nambu",
            _vec_residual(X, nbv),
            list(X.exprs()) + list(nbv.exprs()),
        )
    )

    specs.append(
        _CheckSpec(
            "orthogonality",
            [
                ex.expand(ex.add(*(ex.mul(a, b) for a, b in zip(G1.exprs(), X.exprs())))),
                ex.expand(ex.add(*(ex.mul(a, b) for a, b in zip(G2.exprs(), X.exprs())))),
            ],
            _dot_scales(G1, X) + _dot_scales(G2, X),
        )
    )

    checks = _run_specs(specs, names, pts, cfg)
    if orient.sigma is None:
        checks.append(
            CheckResult("orientation", len(pts), float("nan"), float("inf"), float("nan"), cfg.tol, False)
        )
    discrepancies = compare_printed(defn, cfg)
    return VerificationReport(
        defn.name, params, cfg.seed, box, orient.sigma, checks, discrepancies, notes
    )


def compare_printed(defn, cfg=None):
    """Compare each stored published formula with its derived counterpart.

    Informational: entries carry an equal/`max_dev` verdict and the worst
    sample point, and never fail a verification run.
    """
    cfg = cfg or SampleConfig()
    if not defn.is_instantiated():
        defn = instantiate(defn)
    out = []
    if not defn.printed:
        return out

    derived = {}
    if defn.h1 is not None and defn.h2 is not None:
        j1, j2 = defn.poisson_vectors()
        derived["J1"] = j1.field.exprs()
        derived["J2"] = j2.field.exprs()
        derived["H1"] = defn.bound_scalar(defn.h1).expr
        derived["H2"] = defn.bound_scalar(defn.h2).expr
    derived["field"] = defn.bound_field().exprs()
    if defn.transform is not None:
        for i, v in enumerate(defn.frame):
            derived[f"transform_{v}"] = defn.bound_expr(defn.transform.forward[i])

    for key, printed in sorted(defn.printed.items()):
        if key not in derived:
            continue
        want = derived[key]
        have = printed if isinstance(printed, tuple) else (printed,)
        want = want if isinstance(want, tuple) else (want,)
        for i, (p, d) in enumerate(zip(have, want)):
            p = defn.bound_expr(p)
            syms = sorted(p.free_symbols() | d.free_symbols())
            box = {}
            for s in syms:
                if s == defn.time:
                    box[s] = (0.0, 2.0)
                else:
                    box[s] = (-2.0, 2.0)
            r = ex.equal_numeric(p, d, box, n=min(cfg.n, 200), tol=1e-9, seed=cfg.seed)
            label = key if len(have) == 1 else f"{key}[{i}]"
            out.append(
                {
                    "formula": label,
                    "match": bool(r.equal),
                    "max_dev": r.max_abs_dev,
                    "max_rel_dev": r.max_rel_dev,
                    "at": [[s, r.worst_point.get(s)] for s in sorted(r.worst_point)],
                }
            )
    return out


def verify_fundamental_identity(structure: NambuStructure, cfg=None, instances=3, degree=2):
    """Residual statistics of the ternary-bracket fundamental identity on
    seeded random polynomial quintuples."""
    from .poisson import fundamental_identity_parts

    cfg = cfg or SampleConfig(n=50)
    frame = structure.frame
    time = structure.multiplier.time
    box = cfg.domain or {v: (-2.0, 2.0) for v in frame} | {time: (0.0, 2.0)}
    sampler = SeededSampler(cfg.seed)
    res = np.zeros((instances, cfg.n))
    rel = np.zeros((instances, cfg.n))
    for k in range(instances):
        fs = [
            ScalarField(random_polynomial(sampler, frame, degree), frame, time)
            for _ in range(5)
        ]
        lhs, rhs = fundamental_identity_parts(*fs, structure)
        names, pts = sample_box(sampler, box, cfg.n)
        V = ex.compile_array([s.expr for s in (lhs, *rhs)], names)(pts)
        res[k] = np.abs(V[:, 0] - (V[:, 1] + V[:, 2] + V[:, 3]))
        rel[k] = res[k] / (1.0 + np.abs(V).max(axis=1))
    max_abs = float(res.max(initial=0.0))
    max_rel = float(rel.max(initial=0.0))
    rms = float(np.sqrt(np.mean(res * res))) if res.size else 0.0
    tol = cfg.tolerances.get("fundamental_identity", cfg.fi_tol)
    return CheckResult(
        "fundamental_identity", res.size, max_abs, max_rel, rms, tol, max_rel <= tol
    )


def flipped_sign_variant(defn, component):
    """A copy of the system with one field component's sign flipped
    (negative control for the structure checks)."""
    comps = list(defn.field.components)
    c = comps[component]
    comps[component] = ScalarField(ex.neg(c.expr), c.frame, c.time)
    return replace(defn, field=VectorField3(tuple(comps)), name=f"{defn.name}~flip{component}")
