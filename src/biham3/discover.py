"""First-integral and last-multiplier discovery by linear ansatz.

A candidate F = sum_j c_j b_j over a monomial (optionally
exponential-weighted) basis is a time-independent-in-value first
integral of xdot = X when dF/dt = dF/dt|explicit + grad(F).X vanishes
identically, a spatial invariant when grad(F).X alone does, and a
candidate M is a last multiplier when div(M X) vanishes.  Each
condition is linear in the coefficients: applying the functional to
basis element j gives a row r_j, and the candidates span the nullspace
{c : sum_j c_j r_j = 0}.

The search is exact first.  When every term of every expanded row is a
rational multiple of a monomial (integer powers of the frame and time
variables, negative ones included, so ``v/u`` is one) times at most one
exp of a sum of monomials without constant term, distinct terms are
linearly independent functions, so sum_j c_j r_j vanishes exactly when,
term by term, the coefficients cancel.  Those term equations are solved
over the rationals by sparse Gauss-Jordan elimination (Geddes, Czapor &
Labahn, Algorithms for Computer Algebra, 1992, ch. 2-3).  Rows with any
other term (a negative power of a sum such as ``1/(1+u)``, ln, sin, cos
or a parameter) fall back to sampling: the functional is evaluated at
seeded points and the nullspace is taken from an SVD with a relative
singular-value threshold, then validated at fresh points.

Candidates are reported in two forms: an orthonormal basis of the
nullspace, and the reduced row echelon basis of the same span (leading
coefficient 1, zero at the other candidates' leading elements), whose
vectors line up with the catalog integrals instead of arbitrary
rotations of them.  The report's ``method`` says which route was taken.
"""

from __future__ import annotations

import json
import math
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
MAX_ENTRIES = 10**7  # entries of one search's sample matrix, points x basis size


class DiscoveryError(Exception):
    pass


def sample_count(size, n=None):
    """The number of points a search over ``size`` basis elements samples:
    ``n``, or ``max(3*size, 200)`` when n is None.  Raises DiscoveryError
    when that is fewer than ``3*size`` or when the sample matrix would
    have more than MAX_ENTRIES entries."""
    if n is None:
        n = max(3 * size, 200)
    if n < 3 * size:
        raise DiscoveryError(f"need at least 3*|basis| = {3 * size} sample points, got {n}")
    if n * size > MAX_ENTRIES:
        raise DiscoveryError(
            f"a search over {size} basis elements at {n} points needs {n * size} "
            f"sample-matrix entries, more than the limit of {MAX_ENTRIES}"
        )
    return n


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
    weight); duplicates removed.  A basis that no search could sample
    within MAX_ENTRIES is refused before it is built."""
    if degree < 0:
        raise DiscoveryError("degree must be >= 0")
    kset = (0,) if weights is None else tuple(weights)
    if not kset:
        raise DiscoveryError("weights must list at least one k")
    if weights is not None:
        if rate is None:
            raise DiscoveryError("weights need a rate expression")
        rate = ex.parse(rate) if isinstance(rate, str) else rate
    sample_count(math.comb(degree + 3, 3) * len(kset))
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
    method: str  # "exact" (term equations over the rationals) or "sampled"
    nullspace_dim: int
    nullspace: tuple  # orthonormal rows (tuples)
    candidates: tuple  # reduced row echelon Candidate list
    singular_values: tuple  # empty on the exact route
    seed: int
    n_points: int  # sample points; 0 on the exact route
    equations: int  # term equations, or sample points when sampled
    annotations: tuple = ()

    def to_dict(self):
        return {
            "schema": 2,
            "kind": self.kind,
            "method": self.method,
            "basis": self.basis.describe() | {"elements": self.basis.labels()},
            "nullspace_dim": self.nullspace_dim,
            "equations": self.equations,
            "rank": len(self.basis) - self.nullspace_dim,
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


def _terms(e):
    return e.terms if isinstance(e, ex.Add) else (e,)


def _weight(e):
    """Split a basis element into (m, w) with e = m*w, where w is its exp
    factor, or None when it has none."""
    if isinstance(e, ex.Exp):
        return ex.ONE, e
    if isinstance(e, ex.Mul) and isinstance(e.factors[-1], ex.Exp):
        return ex.mul(*e.factors[:-1]), e.factors[-1]
    return e, None


def _derivative_rows(X, basis, total):
    """grad(b).X for each basis element b, plus db/dt when ``total``, each
    expanded.

    An element m*w whose weight w = exp(a) has an exponent free of the
    frame variables has grad(m*w).X = w*(grad(m).X), so grad(m).X is
    expanded once per monomial m and multiplied by each weight term by
    term.  Any other element is differentiated whole."""
    frame = set(X.frame)
    spatial = {}
    rows = []
    for b in basis.elements:
        m, w = _weight(b.expr)
        if w is not None and w.arg.free_symbols() & frame:
            m, w = b.expr, None
        g = spatial.get(m)
        if g is None:
            g = spatial[m] = ex.expand(
                ex.add(*[ex.mul(ex.differentiate(m, v), c) for c, v in zip(X.exprs(), X.frame)])
            )
        if w is None:
            parts = [g]
        else:
            w = ex.expand(w)
            parts = [ex.mul(term, w) for term in _terms(g)]
        if total:
            parts.append(ex.expand(ex.differentiate(b.expr, basis.time)))
        rows.append(ex.add(*parts))
    return rows


def _multiplier_rows(X, basis):
    return [ex.expand(divergence(scale(X, b.expr)).expr) for b in basis.elements]


def _monomial(e, names):
    """Whether ``e`` is a product of integer powers of the variables ``names``."""
    for f in e.factors if isinstance(e, ex.Mul) else (e,):
        if isinstance(f, ex.Pow):
            f = f.base
        if not (isinstance(f, ex.Var) and f.name in names):
            return False
    return True


def _independent(rest, names):
    """Whether a canonical term with its coefficient split off is a
    monomial in the variables ``names`` times at most one exp of a sum of
    such monomials without constant term.  Distinct terms of this form
    are linearly independent functions."""
    if rest is ex.ONE:
        return True
    factors = rest.factors if isinstance(rest, ex.Mul) else (rest,)
    if isinstance(factors[-1], ex.Exp):
        for t in _terms(factors[-1].arg):
            _, mono = ex._split_coeff(t)
            if mono is ex.ONE or not _monomial(mono, names):
                return False
        factors = factors[:-1]
    return all(_monomial(f, names) for f in factors)


def _exact_nullspace(rows, names):
    """The nullspace of the rows' term equations over the rationals, or
    None when a term is not _independent.

    Returns (vectors, equations): Fraction lists in reduced row echelon
    form and the number of distinct terms.  Each equation is reduced by
    the pivots so far at its largest column and becomes a pivot there,
    so the free columns, which index the vectors, come as early as they
    can and each vector has its leading 1 at its own free column."""
    eqs = {}  # term key -> {column: coefficient}
    for j, row in enumerate(rows):
        for t in _terms(row):
            c, rest = ex._split_coeff(t)
            if c == 0:
                continue
            eq = eqs.get(rest.key())
            if eq is None:
                if not _independent(rest, names):
                    return None
                eq = eqs[rest.key()] = {}
            eq[j] = c
    pivots = {}  # column -> equation scaled to 1 there, nonzero only at or left of it
    for eq in eqs.values():
        while eq:
            col = max(eq)
            piv = pivots.get(col)
            if piv is None:
                top = eq[col]
                pivots[col] = {j: Fraction(c, top) for j, c in eq.items()}
                break
            f = eq[col]
            for j, c in piv.items():
                v = eq.get(j, 0) - f * c
                if v:
                    eq[j] = v
                else:
                    del eq[j]
    order = sorted(pivots)
    vectors = []
    for free in range(len(rows)):
        if free in pivots:
            continue
        v = [Fraction(0)] * len(rows)
        v[free] = Fraction(1)
        for p in order:
            if p > free:
                v[p] = -sum(c * v[j] for j, c in pivots[p].items() if j != p)
        vectors.append(v)
    return vectors, len(eqs)


def _combination(coeffs, basis):
    terms = [ex.mul(ex.con(c), b.expr) for c, b in zip(coeffs, basis.elements) if c]
    return ex.add(*terms) if terms else ex.ZERO


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
    """The combination of a sampled nullspace vector, each coefficient
    snapped to a rational with denominator at most 10^4 when that is
    within 1e-12 relative."""
    snapped = []
    for c in coeffs:
        frac = Fraction(c).limit_denominator(10**4)
        snapped.append(frac if abs(float(frac) - c) <= 1e-12 * max(1.0, abs(c)) else float(c))
    return _combination(snapped, basis)


def _search(kind, basis, rows, n, seed):
    n = sample_count(len(basis), n)
    exact = _exact_nullspace(rows, set(basis.frame) | {basis.time})
    if exact is None:
        return _sampled_search(kind, basis, rows, n, seed)
    vectors, equations = exact
    candidates = []
    for vec in vectors:
        v = np.array([float(c) for c in vec])
        unit = v / np.linalg.norm(v)
        candidates.append(Candidate(tuple(float(c) for c in unit), _combination(vec, basis), 0.0))
    null = ()
    if candidates:
        # row k: the unit part of candidate k orthogonal to those before it
        Q, R = np.linalg.qr(np.array([c.coefficients for c in candidates]).T)
        null = tuple(tuple(float(c) for c in row) for row in (Q * np.sign(np.diag(R))).T)
    return DiscoveryResult(
        kind=kind,
        basis=basis,
        method="exact",
        nullspace_dim=len(vectors),
        nullspace=null,
        candidates=tuple(candidates),
        singular_values=(),
        seed=seed,
        n_points=0,
        equations=equations,
    )


def _sampled_search(kind, basis, rows, n, seed):
    m = len(basis)
    box = _default_domain(basis.frame, basis.time)
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
        method="sampled",
        nullspace_dim=null_dim,
        nullspace=tuple(tuple(float(c) for c in row) for row in null),
        candidates=tuple(candidates),
        singular_values=tuple(float(s) for s in svals),
        seed=seed,
        n_points=n,
        equations=n,
    )


def first_integral_search(X: VectorField3, basis: AnsatzBasis, n=None, seed=42):
    """Nullspace of the functional dF/dt along X over the basis.

    The constants are always a solution, so the dimension is at least 1.
    """
    if len(basis) < 2:
        raise DiscoveryError("basis must have at least two elements")
    rows = _derivative_rows(X, basis, total=True)
    return _search("first-integral", basis, rows, n, seed)


def spatial_invariant_search(X: VectorField3, basis: AnsatzBasis, n=None, seed=42):
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
    rows = _derivative_rows(X, basis, total=False)
    return _search("spatial-invariant", basis, rows, n, seed)


def multiplier_search(X: VectorField3, basis: AnsatzBasis, n=None, seed=42):
    """Nullspace of the functional div(M X) over the basis.

    Candidates that come close to vanishing on the domain are flagged,
    since a last multiplier must stay away from zero.
    """
    if len(basis) < 1:
        raise DiscoveryError("basis must not be empty")
    rows = _multiplier_rows(X, basis)
    result = _search("multiplier", basis, rows, n, seed)
    box = _default_domain(basis.frame, basis.time)
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


def _coordinates(e, index):
    """The basis coordinates of ``e`` read off its expanded terms, or None
    when a term is not a multiple of a basis element; ``index`` maps each
    element's term key to (position, coefficient)."""
    kappa = np.zeros(len(index))
    for t in _terms(ex.expand(e)):
        c, rest = ex._split_coeff(t)
        if c == 0:
            continue
        hit = index.get(rest.key())
        if hit is None:
            return None
        kappa[hit[0]] = float(c / hit[1])
    return kappa


def _sampled_coordinates(known, basis, seed):
    """Least-squares basis coordinates of each known integral at 400
    points drawn with ``seed``, with the fit residual relative to the
    integral's size."""
    box = _default_domain(basis.frame, basis.time)
    names, pts = sample_box(SeededSampler(seed), box, 400)
    B = ex.compile_array([b.expr for b in basis.elements], names)(pts)
    targets = ex.compile_array([sf.expr for sf in known], names)(pts)
    out = []
    for target in targets.T:
        kappa, _, _, _ = np.linalg.lstsq(B, target, rcond=None)
        residual = np.max(np.abs(B @ kappa - target)) / (1.0 + np.max(np.abs(target)))
        out.append((kappa, float(residual)))
    return out


def annotate(result: DiscoveryResult, known):
    """Match known integrals against the discovered span.

    Each known ScalarField's coordinates in the basis are read off its
    expanded terms when each term is a multiple of a basis element.
    Otherwise every known integral is expanded in the basis by least
    squares at 400 points drawn with the result's seed plus 3, and
    counts as expressible when the fit residual is below 1e-8.  The
    annotation records the projection cosine onto the nullspace span
    ("matched" when above 1 - 1e-8) and the best single candidate
    alignment.
    """
    basis = result.basis
    index = {}
    for j, b in enumerate(basis.elements):
        c, rest = ex._split_coeff(ex.expand(b.expr))
        index[rest.key()] = (j, c)
    fits = [_coordinates(sf.expr, index) for sf in known]
    if any(kappa is None for kappa in fits):
        fits = _sampled_coordinates(known, basis, result.seed + 3)
    else:
        fits = [(kappa, 0.0) for kappa in fits]

    V = np.array(result.nullspace) if result.nullspace_dim else np.zeros((0, len(basis)))
    C = np.array([c.coefficients for c in result.candidates])
    annotations = []
    for sf, (kappa, fit_residual) in zip(known, fits):
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
            entry["best_cosine"] = min(float(cos[best]), 1.0)
        annotations.append(entry)
    return replace(result, annotations=tuple(annotations))
