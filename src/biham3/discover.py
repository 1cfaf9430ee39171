"""First-integral and last-multiplier discovery by linear ansatz.

A candidate F = sum_j c_j b_j over a monomial (optionally
exponential-weighted) basis is a time-independent-in-value first
integral of xdot = X when dF/dt = dF/dt|explicit + grad(F).X vanishes
identically, a spatial invariant when grad(F).X alone does, and a
candidate M is a last multiplier when div(M X) vanishes.  Each
condition is linear in the coefficients: applying the functional to
basis element j gives a row r_j, and the candidates span the nullspace
{c : sum_j c_j r_j = 0}.

The search solves term equations.  Every row is first multiplied by one
common denominator (:func:`biham3.expr.clear_denominators`), a factor
that is nonzero on the domain, so the nullspace stays the same.  The
terms of the rows then give one equation per distinct term, solved over
the rationals by sparse Gauss-Jordan elimination (Geddes, Czapor &
Labahn, Algorithms for Computer Algebra, 1992, ch. 2-3).  A vector whose
term coefficients all cancel makes sum_j c_j r_j the literal zero, so
every candidate is an identity.  When every term is in the class that
:func:`biham3.expr.independent` defines (a rational multiple of a
Laurent monomial times at most one exp of a sum of monomials without
constant term), distinct terms are linearly independent functions, the
term equations give the whole nullspace, and the report's method is
"exact".  Other terms (ln, sin, cos, a parameter, or a sum inside a
function) can be dependent, as ``sin(u)^2`` and ``cos(u)^2`` are, and
then the term equations could miss a solution: the functional
is evaluated at seeded points, one SVD with a relative singular-value
threshold must show the same nullity, and the method is "sampled".  A
nullity that differs raises DiscoveryError.

Candidates are the reduced row echelon basis of the nullspace in exact
rationals (leading coefficient 1, zero at the other candidates' leading
elements), whose vectors line up with the catalog integrals instead of
arbitrary rotations of them.  The report's ``method`` says which route
was taken.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import expr as ex
from .expr import independent, split_coeff, split_exp, terms
from .sampling import SeededSampler, sample_box
from .vecfield import ScalarField, VectorField3, divergence, scale

SV_THRESHOLD = 1e-10  # nullspace cut, relative to the largest singular value
SV_AMBIGUITY = 100.0  # kept/cut singular values closer than this factor -> error
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


def build_basis(degree, frame, weights=None, rate=None):
    """All monomials of total degree <= degree over the frame, each
    optionally times exp(k*rate*t) for k in ``weights`` (k=0 means no
    weight); duplicates removed.  A basis that no search could sample
    within MAX_ENTRIES is refused before it is built."""
    if degree < 0:
        raise DiscoveryError("degree must be >= 0")
    kset = (0,) if weights is None else weights
    if not kset:
        raise DiscoveryError("weights must list at least one k")
    if weights is not None and rate is None:
        raise DiscoveryError("weights need a rate expression")
    # sized before it is iterated, so a huge range is refused unbuilt
    sample_count(math.comb(degree + 3, 3) * len(kset))
    kset = tuple(kset)
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
                e = ex.mul(m, ex.exp_(ex.mul(ex.con(k), rate, ex.var(ex.TIME))))
            if e in seen:
                continue
            seen.add(e)
            elements.append(ScalarField(e, frame))
    return AnsatzBasis(tuple(elements), degree, frame, weights and kset, rate)


@dataclass(frozen=True)
class Candidate:
    coefficients: tuple  # Fractions, with the leading 1 at the candidate's free column
    expr: object
    flags: tuple = ()


@dataclass(frozen=True)
class DiscoveryResult:
    kind: str
    basis: AnsatzBasis
    method: str  # "exact" (independent terms) or "sampled" (nullity confirmed by an SVD)
    nullspace_dim: int
    candidates: tuple  # reduced row echelon Candidate list
    singular_values: tuple  # empty on the exact route
    seed: int
    n_points: int  # sample points of the SVD; 0 on the exact route
    equations: int  # term equations
    annotations: tuple = ()

    def to_dict(self):
        return {
            "schema": 3,
            "kind": self.kind,
            "method": self.method,
            "basis": self.basis.describe() | {"elements": self.basis.labels()},
            "nullspace_dim": self.nullspace_dim,
            "equations": self.equations,
            "rank": len(self.basis) - self.nullspace_dim,
            "singular_values": list(self.singular_values),
            "candidates": [_candidate_dict(c) for c in self.candidates],
            "annotations": [dict(a) for a in self.annotations],
            "seed": self.seed,
            "n": self.n_points,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _candidate_dict(c):
    """A candidate as integer numerators over their least common
    denominator, so the coefficients stay a list of JSON numbers."""
    den = math.lcm(*(q.denominator for q in c.coefficients))
    return {
        "coefficients": [q.numerator * (den // q.denominator) for q in c.coefficients],
        "denominator": den,
        "expr": str(c.expr),
        "flags": list(c.flags),
    }


def _default_domain(frame):
    box = {v: (-2.0, 2.0) for v in frame}
    box[ex.TIME] = (0.0, 1.0)
    return box


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
        m, w = split_exp(b.expr)
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
            parts = [ex.mul(term, w) for term in terms(g)]
        if total:
            parts.append(ex.expand(ex.differentiate(b.expr, ex.TIME)))
        rows.append(ex.add(*parts))
    return rows


def _multiplier_rows(X, basis):
    return [ex.expand(divergence(scale(X, b.expr)).expr) for b in basis.elements]


def _exact_nullspace(rows):
    """The nullspace of the rows' term equations over the rationals.

    Returns (vectors, equations, exact): Fraction lists in reduced row
    echelon form, the number of distinct terms, and whether every term is
    ``expr.independent``, so that the vectors span the whole nullspace of
    the rows as functions.  Each equation is reduced by the pivots so
    far at its largest column and becomes a pivot there, so the free
    columns, which index the vectors, come as early as they can and each
    vector has its leading 1 at its own free column."""
    eqs = {}  # term key -> {column: coefficient}
    exact = True
    for j, row in enumerate(rows):
        for t in terms(row):
            c, rest = split_coeff(t)
            if c == 0:
                continue
            eq = eqs.get(rest.key())
            if eq is None:
                exact = exact and independent(rest)
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
                v[p] = -sum((c * v[j] for j, c in pivots[p].items() if j != p), Fraction(0))
        vectors.append(v)
    return vectors, len(eqs), exact


def _combination(coeffs, basis):
    return ex.add(*[ex.mul(ex.con(c), b.expr) for c, b in zip(coeffs, basis.elements) if c])


def _nullity_check(rows, basis, n, seed, nullity):
    """The singular values of the rows at n seeded points, once they show
    the nullity the term equations gave.  Raises DiscoveryError when the
    rank is ambiguous or the nullities differ."""
    names, pts = sample_box(SeededSampler(seed), _default_domain(basis.frame), n)
    A = ex.compile_array(rows, names)(pts)
    if not np.isfinite(A).all():
        raise DiscoveryError("the functional is not finite at every sample point")
    svals = np.linalg.svd(A, compute_uv=False)
    thresh = SV_THRESHOLD * svals[0]
    in_gap = np.sum((svals >= thresh) & (svals < SV_AMBIGUITY * thresh))
    if in_gap:
        raise DiscoveryError(
            f"ambiguous rank: {int(in_gap)} singular value(s) within a factor "
            f"{SV_AMBIGUITY:g} of the nullspace threshold; increase the sample count"
        )
    sampled = int(np.sum(svals <= thresh))
    if sampled != nullity:
        raise DiscoveryError(
            f"the term equations give a nullspace of dimension {nullity}, but the "
            f"functional at {n} sample points has nullity {sampled}: some of its ln, "
            "sin or cos terms are dependent"
        )
    return tuple(float(s) for s in svals)


def _search(kind, basis, rows, n, seed):
    n = sample_count(len(basis), n)
    rows = ex.clear_denominators(rows)
    vectors, equations, exact = _exact_nullspace(rows)
    svals = () if exact else _nullity_check(rows, basis, n, seed, len(vectors))
    return DiscoveryResult(
        kind=kind,
        basis=basis,
        method="exact" if exact else "sampled",
        nullspace_dim=len(vectors),
        candidates=tuple(Candidate(tuple(v), _combination(v, basis)) for v in vectors),
        singular_values=svals,
        seed=seed,
        n_points=0 if exact else n,
        equations=equations,
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
    box = _default_domain(basis.frame)
    names, pts = sample_box(SeededSampler(result.seed + 2), box, 500)
    B = ex.compile_array([b.expr for b in basis.elements], names)(pts)
    flagged = []
    for cand in result.candidates:
        vals = B @ np.array([ex.to_float(c, "a candidate coefficient") for c in cand.coefficients])
        flags = cand.flags
        top = np.abs(vals).max()
        sign_change = vals.min() < 0.0 < vals.max()
        if sign_change or np.abs(vals).min() < 1e-6 * max(top, 1e-300):
            flags = flags + ("vanishes-on-domain",)
        flagged.append(replace(cand, flags=flags))
    return replace(result, candidates=tuple(flagged))


def _coordinates(e, index):
    """The nonzero basis coordinates of ``e`` as {position: Fraction},
    read off its expanded terms, or None when a term is not a multiple of
    a basis element; ``index`` maps each element's term key to (position,
    coefficient)."""
    kappa = {}
    for t in terms(ex.expand(e)):
        c, rest = split_coeff(t)
        if c == 0:
            continue
        hit = index.get(rest.key())
        if hit is None:
            return None
        kappa[hit[0]] = Fraction(c, hit[1])
    return kappa


def annotate(result: DiscoveryResult, known):
    """Match known integrals against the discovered span, exactly.

    Each known ScalarField's coordinates kappa in the basis are read off
    its expanded terms; it is expressible when each term is a multiple of
    a basis element.  Candidate k has its leading 1 at its free column
    f_k and 0 at the other candidates' free columns, so kappa is in the
    span exactly when kappa - sum_k kappa[f_k]*c_k is zero.  A matched
    entry lists ``coordinates``: [k, "p/q"] for each nonzero kappa[f_k].
    """
    index = {}
    for j, b in enumerate(result.basis.elements):
        c, rest = split_coeff(ex.expand(b.expr))
        index[rest.key()] = (j, c)
    # the nonzero entries of each candidate; the first is its leading 1
    sparse = [[(j, c) for j, c in enumerate(cand.coefficients) if c] for cand in result.candidates]
    annotations = []
    for sf in known:
        kappa = _coordinates(sf.expr, index)
        entry = {"known": str(sf.expr), "expressible": kappa is not None}
        coordinates = []
        if kappa is not None:
            for k, entries in enumerate(sparse):
                a = kappa.get(entries[0][0])
                if a:
                    coordinates.append([k, str(a)])
                    for j, c in entries:
                        kappa[j] = kappa.get(j, 0) - a * c
        matched = kappa is not None and not any(kappa.values())
        entry |= {"matched": matched, "coordinates": coordinates if matched else []}
        annotations.append(entry)
    return replace(result, annotations=tuple(annotations))
