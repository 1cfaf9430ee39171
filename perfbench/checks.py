"""Independent checks of the workloads' outputs.

Nothing here calls biham3.  Formulas arrive as grammar text and are
re-derived with sympy, trajectories are integrated again with scipy,
and values are recomputed with numpy or mpmath.  sympy, scipy and mpmath
are imported only when a check needs them, after the timed phase, so
they do not count in the workload's peak memory.

Each check raises CheckError on the first disagreement.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

import numpy as np

GROUPS = ("jacobi", "compatibility", "pencil", "casimir", "multiplier", "biham", "nambu", "orthogonality")
CANDIDATE_TOL = 1e-8  # |grad(F).X| relative to its largest term
SPAN_TOL = 1e-6  # distance of a known integral from the candidate span, relative
LU_DRIFT_BOUND = 1e-7  # H1/H2 drift of lu-transformed to t=200, relative to term scale
QI_DRIFT_BOUND = 1e-8  # H1 drift of qi to t=10, relative to term scale
MONITOR_TOL = 1e-12  # monitor column against H recomputed from the state
SCIPY_TOL = 1e-5  # state against scipy DOP853 at rtol=atol=1e-13, relative to 1+|y|
SAMPLE_DT = 0.01
DISCOVER_POINTS = 8  # fresh points per candidate
DISCOVER_BOX = ((-2, 2), (-2, 2), (-2, 2), (0, 1))  # u, v, w, t: discover's own domain


class CheckError(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# formula text -> sympy

_IDENT = re.compile(r"(?<![0-9.])[A-Za-z_][A-Za-z_0-9]*")
_FUNCS = ("exp", "ln", "sin", "cos")


def to_sympy(text, values=None):
    """Parse biham3 grammar text; names in ``values`` become those numbers."""
    import sympy

    local = {"exp": sympy.exp, "ln": sympy.log, "sin": sympy.sin, "cos": sympy.cos}
    values = values or {}

    def rename(m):
        name = m.group(0)
        if name in _FUNCS:
            return name
        key = f"S_{name}"
        local[key] = sympy.Rational(str(values[name])) if name in values else sympy.Symbol(name)
        return key

    return sympy.parse_expr(_IDENT.sub(rename, text.replace("^", "**")), local_dict=local)


def _is_zero(e):
    import sympy

    e = sympy.expand(e)
    return e == 0 or sympy.simplify(e) == 0


def resolve_params(specs, supplied):
    """Free parameters from ``supplied`` (default 1), then the constrained
    ones from their constraint text, in catalog order."""
    values = {}
    for name, constraint in specs:
        if constraint is None:
            values[name] = Fraction(str(supplied.get(name, 1)))
    for name, constraint in specs:
        if constraint is not None:
            values[name] = Fraction(str(to_sympy(constraint, values)))
    return values


def _lambdify(exprs, names, module):
    import sympy

    return sympy.lambdify([sympy.Symbol(n) for n in names], exprs, modules=module)


# ---------------------------------------------------------------------------
# verify-catalog


def readme_match(system, label, values):
    """The match flag the README's discrepancy table gives for one formula."""
    if system == "lu-transformed":
        return label != "field[2]"
    if system == "chen":
        return label != "field[1]" or values["alpha"] == 1
    if system == "modified-lu":
        return label.startswith("J1")
    if system == "t-system":
        return label != "J2[0]" or values["gamma"] == values["alpha"]
    return True


class VerifyChecker:
    """Checks verify reports against sympy derivations from the catalog
    formulas; derivations are cached per system and parameter set."""

    def __init__(self):
        self._cache = {}

    def expected(self, system, texts, params):
        key = (system, tuple(sorted(params.items())))
        if key not in self._cache:
            self._cache[key] = self._derive(texts, params)
        return self._cache[key]

    @staticmethod
    def _derive(texts, params):
        import sympy

        values = resolve_params(texts["params"], params)
        xs = [sympy.Symbol(v) for v in texts["frame"]]
        X = [to_sympy(c, values) for c in texts["field"]]
        M = to_sympy(texts["multiplier"], values)
        out = {"values": values, "X": X, "M": M}
        if texts["h1"] is None:
            div = sympy.simplify(sum(sympy.diff(M * c, x) for c, x in zip(X, xs)))
            _require(div.is_number, f"divergence {div} is not constant")
            out["divergence"] = float(div)
            return out
        H1 = to_sympy(texts["h1"], values)
        H2 = to_sympy(texts["h2"], values)
        g1 = [sympy.diff(H1, x) for x in xs]
        g2 = [sympy.diff(H2, x) for x in xs]
        cr = _cross(g1, g2)
        sigmas = [s for s in (1, -1) if all(_is_zero(X[i] - s * cr[i] / M) for i in range(3))]
        _require(len(sigmas) == 1, f"the flow is sigma*(1/M) grad H1 x grad H2 for sigma in {sigmas}")
        J1 = [g / M for g in g1]
        J2 = [-g / M for g in g2]
        for name, J in (("J1", J1), ("J2", J2)):
            _require(_is_zero(_dot(J, _curl(J, xs))), f"{name} . curl {name} does not vanish")
        derived = {"field": X, "J1": J1, "J2": J2, "H1": H1, "H2": H2}
        if texts["transform"] is not None:
            for v, fwd in zip(texts["frame"], texts["transform"]):
                derived[f"transform_{v}"] = to_sympy(fwd, values)
        flags = {}
        for key, printed in sorted(texts["printed"].items()):
            have = printed if isinstance(printed, list) else [printed]
            want = derived[key] if isinstance(derived[key], list) else [derived[key]]
            for i, (p, d) in enumerate(zip(have, want)):
                label = key if len(have) == 1 else f"{key}[{i}]"
                flags[label] = _is_zero(to_sympy(p, values) - d)
        out.update(sigma=sigmas[0], cross=cr, flags=flags)
        return out

    def check_report(self, system, texts, params, code, report):
        exp = self.expected(system, texts, params)
        where = f"{system} {params}"
        for name, value in exp["values"].items():
            _require(report["params"].get(name) == float(value), f"{where}: parameter {name}")
        names = [c["name"] for c in report["checks"]]
        if "divergence" in exp:
            _require(code == 1, f"{where}: exit code {code}, expected 1")
            _require(report["pass"] is False and names == ["multiplier"], f"{where}: verdict")
            check = report["checks"][0]
            want = abs(exp["divergence"])
            _require(check["pass"] is False, f"{where}: multiplier check passed")
            _require(
                abs(check["max_abs"] - want) <= 1e-12 * (1 + want),
                f"{where}: multiplier max_abs {check['max_abs']}, |div X| = {want}",
            )
            return
        _require(code == 0, f"{where}: exit code {code}")
        _require(names == list(GROUPS), f"{where}: check groups {names}")
        for c in report["checks"]:
            _require(c["pass"] is True and c["max_rel"] <= c["tol"], f"{where}: {c['name']} failed")
        _require(report["pass"] is True, f"{where}: report does not pass")
        _require(report["orientation"] == exp["sigma"], f"{where}: orientation {report['orientation']}")
        got = {e["formula"]: e["match"] for e in report["discrepancies"]}
        _require(set(got) == set(exp["flags"]), f"{where}: discrepancy entries {sorted(got)}")
        for label, flag in exp["flags"].items():
            table = readme_match(system, label, exp["values"])
            _require(flag == table, f"{where}: {label} derives match={flag}, README table {table}")
            _require(got[label] == flag, f"{where}: {label} reported match={got[label]}")

    def check_flipped(self, system, texts, params, component, report):
        exp = self.expected(system, texts, params)
        X = list(exp["X"])
        X[component] = -X[component]
        fits = [s for s in (1, -1) if all(_is_zero(X[i] - s * exp["cross"][i] / exp["M"]) for i in range(3))]
        where = f"{system} {params} flip {component}"
        _require(not fits, f"{where}: the flipped field still has a structure")
        _require(report["pass"] is False, f"{where}: the control passes")
        _require(any(not c["pass"] for c in report["checks"]), f"{where}: no failing check")


def _cross(a, b):
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def _dot(a, b):
    return sum(p * q for p, q in zip(a, b))


def _curl(J, xs):
    import sympy

    d = sympy.diff
    return [
        d(J[2], xs[1]) - d(J[1], xs[2]),
        d(J[0], xs[2]) - d(J[2], xs[0]),
        d(J[1], xs[0]) - d(J[0], xs[1]),
    ]


# ---------------------------------------------------------------------------
# discover-deg4


class DiscoveryChecker:
    """Checks spatial-invariant discovery results: each candidate F must
    satisfy grad(F).X = 0 at fresh points (mpmath, 30 digits), and the
    span must contain H1 and H2, whose coordinates in the basis sympy
    computes exactly."""

    def __init__(self, texts, params, seed):
        self.texts = texts
        self.values = resolve_params(texts["params"], params)
        self.seed = seed
        self.labels = None

    def _prepare(self, labels):
        import mpmath
        import sympy

        self.labels = labels
        frame = self.texts["frame"]
        xs = [sympy.Symbol(v) for v in frame]
        X = [to_sympy(c, self.values) for c in self.texts["field"]]
        basis = [to_sympy(b, self.values) for b in labels]
        rows = [sum(sympy.diff(b, x) * c for x, c in zip(xs, X)) for b in basis]
        names = frame + ["t"]
        fn = _lambdify(rows, names, "mpmath")
        rng = random.Random(self.seed + 7919)
        mpmath.mp.dps = 30
        self.G = [
            fn(*[mpmath.mpf(rng.uniform(lo, hi)) for lo, hi in DISCOVER_BOX])
            for _ in range(DISCOVER_POINTS)
        ]
        index = {sympy.expand(b): j for j, b in enumerate(basis)}
        self.known = []
        for key in ("h1", "h2"):
            kappa = np.zeros(len(basis))
            for term in sympy.Add.make_args(sympy.expand(to_sympy(self.texts[key], self.values))):
                coeff, rest = term.as_coeff_Mul()
                j = index.get(sympy.expand(rest))
                _require(j is not None, f"{key} term {term} is not in the basis")
                kappa[j] += float(coeff)
            self.known.append((key, kappa))

    def check(self, doc):
        labels = doc["basis"]["elements"]
        if self.labels is None:
            self._prepare(labels)
        _require(labels == self.labels, "basis differs between jobs")
        cands = doc["candidates"]
        _require(len(cands) >= 2, f"{len(cands)} candidates")
        for c in cands:
            coeffs = c["coefficients"]
            _require(len(coeffs) == len(labels), "coefficient count")
            for row in self.G:
                terms = [a * g for a, g in zip(coeffs, row)]
                r = abs(sum(terms))
                scale = max(abs(x) for x in terms)
                _require(
                    r <= CANDIDATE_TOL * (1 + scale),
                    f"candidate {c['expr']}: grad(F).X = {float(r):.3e} at term scale {float(scale):.3e}",
                )
        C = np.array([c["coefficients"] for c in cands])
        for key, kappa in self.known:
            y = np.linalg.lstsq(C.T, kappa, rcond=None)[0]
            dist = np.linalg.norm(C.T @ y - kappa) / np.linalg.norm(kappa)
            _require(dist <= SPAN_TOL, f"{key} is {dist:.3e} away from the candidate span")


# ---------------------------------------------------------------------------
# trajectories


def read_csv(path):
    """Header names and data rows of a trajectory CSV file."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        return header, np.loadtxt(fh, delimiter=",", ndmin=2)


def _drift(h, scale):
    return float(np.max(np.abs(h - h[0]) / (1.0 + scale)))


def check_lu_trajectory(header, data, init, t1, alpha):
    """Shape, sample grid, start, monitors and drift of a lu-transformed
    CSV with monitors h1,h2."""
    _require(header == ["t", "u", "v", "w", "H1", "H2"], f"header {header}")
    n = int(round(t1 / SAMPLE_DT)) + 1
    _require(data.shape == (n, 6), f"{data.shape[0]} rows, expected {n}")
    grid = np.arange(n) * SAMPLE_DT
    _require(np.max(np.abs(data[:, 0] - grid)) <= 1e-9 * t1, "sample times off the grid")
    _require(list(data[0, 1:4]) == list(init), "first row is not the initial state")
    u, v, w = data[:, 1], data[:, 2], data[:, 3]
    terms1 = np.stack([v * v / 2, w * w / 2])
    terms2 = np.stack([u * u / 2, -alpha * w])
    for name, col, terms in (("H1", 4, terms1), ("H2", 5, terms2)):
        h = terms.sum(axis=0)
        scale = np.abs(terms).max(axis=0)
        _require(np.max(np.abs(data[:, col] - h) / (1 + scale)) <= MONITOR_TOL, f"{name} column")
        drift = _drift(h, scale)
        _require(drift <= LU_DRIFT_BOUND, f"{name} drift {drift:.3e}")


def _scipy_rhs(field_texts, values, frame=("u", "v", "w")):
    f = _lambdify([to_sympy(c, values) for c in field_texts], list(frame) + ["t"], "math")
    return lambda t, y: f(y[0], y[1], y[2], t)


def _solve(field_texts, values, init, t1, t_eval=None):
    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        _scipy_rhs(field_texts, values), (0.0, t1), list(init),
        method="DOP853", rtol=1e-13, atol=1e-13, t_eval=t_eval,
    )
    _require(sol.success, f"scipy failed: {sol.message}")
    return sol


def check_against_scipy(data, field_texts, values, init, t1):
    """Every CSV row against scipy DOP853 at rtol = atol = 1e-13."""
    sol = _solve(field_texts, values, init, t1, t_eval=data[:, 0])
    ref = sol.y.T
    dev = np.max(np.abs(data[:, 1:4] - ref) / (1 + np.abs(ref)))
    _require(dev <= SCIPY_TOL, f"trajectory differs from scipy by {dev:.3e}")
    return dev


def check_qi_ensemble(trajs, configs, gamma, t1):
    """No member aborts; each starts at its initial state and reaches t1;
    the H1 monitor matches H1 recomputed from the state and drifts less
    than QI_DRIFT_BOUND relative to its term scale."""
    _require(len(trajs) == len(configs), "member count")
    for traj, cfg in zip(trajs, configs):
        _require(traj.aborted is None, f"member from {cfg.y0} aborted: {traj.aborted}")
        _require(tuple(traj.states[0]) == tuple(cfg.y0), "first state is not the initial state")
        _require(abs(traj.times[-1] - t1) <= 1e-12 * t1, "member stops before t1")
    for traj in trajs:
        y = np.asarray(traj.states)
        terms = np.stack([gamma * y[:, 0] ** 2, -y[:, 1] ** 2, -(gamma + 1) * y[:, 2] ** 2])
        h = terms.sum(axis=0)
        scale = np.abs(terms).max(axis=0)
        mon = np.asarray(traj.monitors["H1"])
        _require(np.max(np.abs(mon - h) / (1 + scale)) <= MONITOR_TOL, "H1 column")
        drift = _drift(h, scale)
        _require(drift <= QI_DRIFT_BOUND, f"H1 drift {drift:.3e}")


def check_final_state(field_texts, values, init, t1, final):
    """One member's state at t1 against scipy DOP853."""
    ref = _solve(field_texts, values, init, t1).y[:, -1]
    dev = max(abs(a - b) / (1 + abs(b)) for a, b in zip(final, ref))
    _require(dev <= SCIPY_TOL, f"member from {init} differs from scipy by {dev:.3e}")
    return dev
