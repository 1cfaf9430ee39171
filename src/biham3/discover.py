"""First-integral and last-multiplier discovery by linear ansatz.

A candidate F = sum_j c_j b_j over a monomial (optionally
exponential-weighted) basis is a time-independent-in-value first
integral of xdot = X when dF/dt = dF/dt|explicit + grad(F).X vanishes
identically; a candidate M is a last multiplier when div(M X) vanishes.
Both are linear conditions in the coefficients, so sampling the
functional at many seeded points turns discovery into a numerical
nullspace problem, solved by SVD with a relative singular-value
threshold.  The sampled route handles exponential time weights
uniformly; exact symbolic cancellation of grad(F).X remains available
through the expression layer as an independent confirmation for the
polynomial cases.

Candidates are reported in two forms: the raw orthonormal nullspace
basis, and a Gauss-Jordan-sparsified basis of the same span (unit norm,
first significant coefficient positive) whose vectors line up with the
catalog integrals instead of arbitrary rotations of them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import expr as ex
from .sampling import SeededSampler, sample_box
from .vecfield import ScalarField, VectorField3, divergence, gradient, scale

SV_THRESHOLD = 1e-10  # nullspace cut, relative to the largest singular value
SV_AMBIGUITY = 100.0  # kept/cut singular values closer than this factor -> error
VALIDATION_TOL = 1e-8
COEFF_SNAP = 1e-9


class DiscoveryError(Exception):
    pass


@dataclass(frozen=True)
class AnsatzBasis:
    elements: tuple  # ScalarField
    degree: int
    frame: tuple
    time: str
    weights: tuple = None
    rate: object = None

    def __len__(self):
        return len(self.elements)

    def labels(self):
        return [str(b.expr) for b in self.elements]

    def describe(self):
        out = {"degree": self.degree, "size": len(self.elements)}
        if self.weights:
            out["weights"] = list(self.weights)
            out["rate"] = str(self.rate)
        return out


def build_basis(degree, frame, weights=None, rate=None, time="t"):
    """All monomials of total degree <= degree over the frame, each
    optionally times exp(k*rate*t) for k in ``weights`` (k=0 means no
    weight); duplicates removed."""
    if degree < 0:
        raise DiscoveryError("degree must be >= 0")
    frame = tuple(frame)
    monomials = []
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            for c in range(degree + 1 - a - b):
                monomials.append(
                    ex.mul(
                        ex.pow_(ex.var(frame[0]), a),
                        ex.pow_(ex.var(frame[1]), b),
                        ex.pow_(ex.var(frame[2]), c),
                    )
                )
    if weights is None:
        kset = (0,)
    else:
        kset = tuple(weights)
        if rate is None:
            raise DiscoveryError("weights need a rate expression")
        rate = ex.parse(rate) if isinstance(rate, str) else rate
    seen = set()
    elements = []
    for k in kset:
        for m in monomials:
            e = m
            if k != 0:
                e = ex.mul(m, ex.exp_(ex.mul(ex.con(k), rate, ex.var(time))))
            if e in seen:
                continue
            seen.add(e)
            elements.append(ScalarField(e, frame, time))
    return AnsatzBasis(tuple(elements), degree, frame, time, weights and kset, rate)


@dataclass(frozen=True)
class Candidate:
    coefficients: tuple
    expr: object
    residual: float
    flags: tuple = ()


@dataclass(frozen=True)
class DiscoveryResult:
    kind: str
    basis: AnsatzBasis
    nullspace_dim: int
    nullspace: tuple  # orthonormal rows (tuples), sign-fixed
    candidates: tuple  # sparsified Candidate list
    singular_values: tuple
    seed: int
    n_points: int
    annotations: tuple = ()

    def to_dict(self):
        return {
            "schema": 1,
            "kind": self.kind,
            "basis": self.basis.describe() | {"elements": self.basis.labels()},
            "nullspace_dim": self.nullspace_dim,
            "singular_values": list(self.singular_values),
            "candidates": [
                {
                    "coefficients": list(c.coefficients),
                    "expr": str(c.expr),
                    "residual": c.residual,
                    "flags": list(c.flags),
                }
                for c in self.candidates
            ],
            "annotations": [dict(a) for a in self.annotations],
            "seed": self.seed,
            "n": self.n_points,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _default_domain(frame, time):
    box = {v: (-2.0, 2.0) for v in frame}
    box[time] = (0.0, 1.0)
    return box


def _first_integral_rows(X, basis):
    rows = []
    for b in basis.elements:
        expr = ex.differentiate(b.expr, basis.time)
        for c, v in zip(X.exprs(), X.frame):
            expr = ex.add(expr, ex.mul(ex.differentiate(b.expr, v), c))
        rows.append(ex.expand(expr))
    return rows


def _multiplier_rows(X, basis):
    return [divergence(scale(X, b.expr)).expr for b in basis.elements]


def _sign_fix(vec):
    mags = np.abs(vec)
    top = mags.max()
    if top == 0.0:
        return vec
    for c in vec:
        if abs(c) > COEFF_SNAP * top:
            return -vec if c < 0 else vec
    return vec


def _sparsify(null_rows):
    """Gauss-Jordan with magnitude pivoting over the nullspace span;
    returns pivot-scaled rows (pivot 1) with small entries snapped to
    zero, so exact nullspaces come back with rational entries."""
    if not len(null_rows):
        return null_rows
    N = np.array(null_rows, dtype=float)
    k, m = N.shape
    r = 0
    for col in range(m):
        if r >= k:
            break
        i = r + int(np.argmax(np.abs(N[r:, col])))
        if abs(N[i, col]) < 1e-10:
            continue
        N[[r, i]] = N[[i, r]]
        N[r] /= N[r, col]
        for j in range(k):
            if j != r:
                N[j] -= N[j, col] * N[r]
        r += 1
    out = []
    for row in N:
        top = np.abs(row).max()
        if top == 0.0:
            continue
        row = np.where(np.abs(row) < COEFF_SNAP * top, 0.0, row)
        out.append(_sign_fix(row))
    return np.array(out)


def _coeff_expr(coeffs, basis):
    terms = []
    for c, b in zip(coeffs, basis.elements):
        if c == 0.0:
            continue
        frac = Fraction(c).limit_denominator(10**4)
        cc = ex.con(frac) if abs(float(frac) - c) <= 1e-12 * max(1.0, abs(c)) else ex.con(float(c))
        terms.append(ex.mul(cc, b.expr))
    return ex.add(*terms) if terms else ex.ZERO


def _search(kind, X, basis, rows, n, seed, domain):
    m = len(basis)
    if n is None:
        n = max(3 * m, 200)
    if n < 3 * m:
        raise DiscoveryError(f"need at least 3*|basis| = {3 * m} sample points, got {n}")
    box = domain or _default_domain(basis.frame, basis.time)
    names, pts = sample_box(SeededSampler(seed), box, n)
    functional = ex.compile_array(rows, names)

    A = functional(pts)
    if not np.isfinite(A).all():
        raise DiscoveryError("the functional is not finite at every sample point")
    _, svals, Vt = np.linalg.svd(A, full_matrices=False)
    smax = svals[0]
    if smax == 0.0:
        # functional vanishes identically: the whole basis is the nullspace
        null_dim = m
        null = np.eye(m)
        svals = np.zeros(m)
    else:
        thresh = SV_THRESHOLD * smax
        null_dim = int(np.sum(svals < thresh))
        in_gap = np.sum((svals >= thresh) & (svals < SV_AMBIGUITY * thresh))
        if in_gap:
            raise DiscoveryError(
                f"ambiguous rank: {int(in_gap)} singular value(s) within a factor "
                f"{SV_AMBIGUITY:g} of the nullspace threshold; increase the sample count"
            )
        null = np.array([_sign_fix(Vt[m - null_dim + i]) for i in range(null_dim)])
    sparse = _sparsify(null)

    # fresh-point validation of the sparsified candidates
    _, vpts = sample_box(SeededSampler(seed + 1), box, 1000)
    B = functional(vpts)
    candidates = []
    for vec in sparse:
        terms = B * vec
        worst = float(
            np.max(np.abs(terms.sum(axis=1)) / (1.0 + np.abs(terms).max(axis=1, initial=0.0)))
        )
        if not worst < VALIDATION_TOL:  # a NaN residual fails too
            continue
        unit = vec / np.linalg.norm(vec)
        candidates.append(
            Candidate(tuple(float(c) for c in unit), _coeff_expr(vec, basis), worst)
        )
    return DiscoveryResult(
        kind=kind,
        basis=basis,
        nullspace_dim=null_dim,
        nullspace=tuple(tuple(float(c) for c in row) for row in null),
        candidates=tuple(candidates),
        singular_values=tuple(float(s) for s in svals),
        seed=seed,
        n_points=n,
    )


def first_integral_search(X: VectorField3, basis: AnsatzBasis, n=None, seed=42, domain=None):
    """Nullspace of the sampled functional dF/dt along X over the basis.

    The constants are always a solution, so the dimension is at least 1.
    """
    if len(basis) < 2:
        raise DiscoveryError("basis must have at least two elements")
    rows = _first_integral_rows(X, basis)
    return _search("first-integral", X, basis, rows, n, seed, domain)


def spatial_invariant_search(X: VectorField3, basis: AnsatzBasis, n=None, seed=42, domain=None):
    """Nullspace of the spatial functional grad(F).X (no explicit
    time-derivative term).

    This is the condition satisfied by the time-dependent second
    Hamiltonians of the non-autonomous catalog systems: they are not
    integral invariants (their total derivative equals the explicit
    partial), but their spatial gradient is orthogonal to the flow.
    The span is larger than the first-integral one (any purely
    time-dependent weight qualifies), so expect extra candidates.
    """
    if len(basis) < 2:
        raise DiscoveryError("basis must have at least two elements")
    rows = [
        ex.expand(
            ex.add(
                *(
                    ex.mul(ex.differentiate(b.expr, v), c)
                    for c, v in zip(X.exprs(), X.frame)
                )
            )
        )
        for b in basis.elements
    ]
    return _search("spatial-invariant", X, basis, rows, n, seed, domain)


def multiplier_search(X: VectorField3, basis: AnsatzBasis, n=None, seed=42, domain=None):
    """Nullspace of the sampled functional div(M X) over the basis.

    Candidates that come close to vanishing on the domain are flagged,
    since a last multiplier must stay away from zero.
    """
    if len(basis) < 1:
        raise DiscoveryError("basis must not be empty")
    rows = _multiplier_rows(X, basis)
    result = _search("multiplier", X, basis, rows, n, seed, domain)
    box = domain or _default_domain(basis.frame, basis.time)
    names, pts = sample_box(SeededSampler(result.seed + 2), box, 500)
    B = ex.compile_array([b.expr for b in basis.elements], names)(pts)
    flagged = []
    for cand in result.candidates:
        vals = B @ np.array(cand.coefficients)
        flags = cand.flags
        top = np.abs(vals).max()
        sign_change = vals.min() < 0.0 < vals.max()
        if sign_change or np.abs(vals).min() < 1e-6 * max(top, 1e-300):
            flags = flags + ("vanishes-on-domain",)
        flagged.append(replace(cand, flags=flags))
    return replace(result, candidates=tuple(flagged))


def annotate(result: DiscoveryResult, known, n=400, seed=None):
    """Match known integrals against the discovered span.

    Each known ScalarField is expanded in the basis by least squares at
    seeded points; the annotation records the projection cosine onto the
    nullspace span ("matched" when above 1 - 1e-8) and the best single
    candidate alignment.
    """
    seed = result.seed + 3 if seed is None else seed
    basis = result.basis
    box = _default_domain(basis.frame, basis.time)
    names, pts = sample_box(SeededSampler(seed), box, n)
    B = ex.compile_array([b.expr for b in basis.elements], names)(pts)
    targets = ex.compile_array([sf.expr for sf in known], names)(pts)

    V = np.array(result.nullspace) if result.nullspace_dim else np.zeros((0, len(basis)))
    C = np.array([c.coefficients for c in result.candidates])
    annotations = []
    for sf, target in zip(known, targets.T):
        kappa, _, _, _ = np.linalg.lstsq(B, target, rcond=None)
        fit_residual = float(
            np.max(np.abs(B @ kappa - target)) / (1.0 + np.max(np.abs(target)))
        )
        entry = {"known": str(sf.expr), "expressible": fit_residual < 1e-8}
        norm = np.linalg.norm(kappa)
        if norm == 0.0 or not entry["expressible"]:
            entry |= {"matched": False, "subspace_cosine": 0.0}
            annotations.append(entry)
            continue
        khat = kappa / norm
        sub_cos = float(np.linalg.norm(V @ khat)) if len(V) else 0.0
        entry["subspace_cosine"] = min(sub_cos, 1.0)
        entry["matched"] = sub_cos > 1.0 - 1e-8
        if len(C):
            cos = np.abs(C @ khat) / np.linalg.norm(C, axis=1)
            best = int(np.argmax(cos))
            entry["best_candidate"] = str(result.candidates[best].expr)
            entry["best_cosine"] = float(cos[best])
        annotations.append(entry)
    return replace(result, annotations=tuple(annotations))
