"""Generated systems with known answers, the oracle of the symbolic core.

Each system is X = (1/M) grad(H1) x grad(H2) for seeded integer
polynomials H1 (degree <= 3) and H2 (degree <= 2) and a multiplier M
from a short list.  Such an X is bi-Hamiltonian by construction (Nambu
1973), so every check of ``verify_structure`` holds with orientation +1,
and each of them must be decided exactly.  A copy with one component's
sign flipped must fail, each failed group sampled with a witness.  For
M = 1 the field is autonomous and polynomial, and a degree-3 first
integral search must find both Hamiltonians in its span.  Integrated
from one point, each system must keep H1 and H2 to the integrator's
tolerance on every sample, or abort on step size underflow where its
solution blows up in finite time.

Fields with fewer than two nonzero components are skipped: flipping the
one component is -X, which the automatic orientation absorbs.
"""

import numpy as np
import pytest

from biham3 import catalog as cat
from biham3 import expr as ex
from biham3.discover import annotate, build_basis, first_integral_search
from biham3.integrate import IntegratorConfig, integrate
from biham3.sampling import SeededSampler, random_polynomial
from biham3.vecfield import ScalarField, cross, gradient, scale
from biham3.verify import SampleConfig, flipped_sign_variant, verify_structure

UVW = ("u", "v", "w")
MULTIPLIERS = ("1", "1+u^2", "2+v^2+w^2", "exp(t)")
CFG = SampleConfig(n=200)


def _systems(count=24, seed=2015):
    """(system, flipped component) pairs, drawn until ``count`` fields
    have at least two nonzero components."""
    sampler = SeededSampler(seed)
    out = []
    k = 0
    while len(out) < count:
        h1 = random_polynomial(sampler, UVW, 1 + sampler.integer(3))
        h2 = random_polynomial(sampler, UVW, 1 + sampler.integer(2))
        m = MULTIPLIERS[k % len(MULTIPLIERS)]
        k += 1
        G1, G2 = (gradient(ScalarField(h, UVW)) for h in (h1, h2))
        X = scale(cross(G1, G2), ex.quot(ex.ONE, ex.parse(m)))
        nonzero = [i for i, c in enumerate(X.exprs()) if ex.expand(c) != ex.ZERO]
        if len(nonzero) < 2:
            continue
        doc = (
            f"name = generated-{len(out)}\nframe = u v w\ntime = t\n"
            f"field = {' ; '.join(ex.to_text(e) for e in X.exprs())}\n"
            f"multiplier = {m}\nh1 = {ex.to_text(h1)}\nh2 = {ex.to_text(h2)}\n"
            "orientation = auto\n"
        )
        out.append((cat.instantiate(cat.load_system(doc)), sampler.choice(nonzero)))
    return out


SYSTEMS = _systems()


def test_generated_systems_are_verified_exactly():
    for defn, _ in SYSTEMS:
        rep = verify_structure(defn, CFG)
        assert rep.passed() and rep.orientation == 1, rep.to_json()
        assert "orientation +1 (exact)" in rep.notes, defn.name
        for c in rep.checks:
            assert (c.method, c.n, c.worst_point) == ("exact", 0, None), (defn.name, c.name)


def test_flipped_generated_systems_fail_with_witnesses():
    for defn, component in SYSTEMS:
        rep = verify_structure(flipped_sign_variant(defn, component), CFG)
        assert not rep.passed(), rep.to_json()
        for c in rep.checks:
            if not c.passed and c.name != "orientation":
                assert c.method == "sampled" and c.n == CFG.n, (defn.name, c.name)
                assert [name for name, _ in c.worst_point] == ["t", "u", "v", "w"]


def test_unit_multiplier_systems_discover_both_hamiltonians():
    basis = build_basis(3, UVW)
    unit = [defn for defn, _ in SYSTEMS if defn.multiplier.expr == ex.ONE]
    assert len(unit) >= 5
    for defn in unit:
        res = first_integral_search(defn.bound_field(), basis)
        res = annotate(res, [defn.bound_scalar(defn.h1), defn.bound_scalar(defn.h2)])
        assert res.method == "exact"
        for a in res.annotations:
            assert a["expressible"] and a["matched"], (defn.name, a)


def test_generated_systems_keep_both_hamiltonians_along_a_trajectory():
    # drift is bounded by the terms of H at each sample, not by |H|: on
    # the runs that grow to |x| ~ 1e9, H2's float terms cancel to ~1e4
    cfg = IntegratorConfig(t0=0.0, t1=1.0, y0=(0.3, -0.2, 0.1))
    aborted = 0
    for defn, _ in SYSTEMS:
        H = {"H1": defn.bound_scalar(defn.h1), "H2": defn.bound_scalar(defn.h2)}
        traj = integrate(defn.bound_field(), cfg, monitors=H)
        if traj.aborted is not None:
            assert traj.aborted.startswith("step size underflow"), (defn.name, traj.aborted)
            aborted += 1
        pts = np.column_stack([traj.states, traj.times])
        for name, h in H.items():
            terms = h.expr.terms if isinstance(h.expr, ex.Add) else (h.expr,)
            scale = np.abs(ex.compile_array(terms, (*UVW, "t"))(pts)).sum(axis=1)
            drift = np.abs(traj.monitors[name] - traj.monitors[name][0])
            assert np.all(drift <= 1e-8 * (1.0 + scale)), (defn.name, name)
    assert aborted == 6  # the systems whose solutions blow up before t = 1
