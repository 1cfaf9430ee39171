"""Built-in catalog of 3D chaotic systems with bi-Hamiltonian data.

Seven entries: the original Lu equations (a non-Hamiltonian reference),
the transformed Lu system, a modified Lu system, the T-system, the Chen
system, a Chen variant with a rescaled cross term, and the Qi system.
Each transformed entry stores the vector field, the parameter
constraints under which the structure exists, Jacobi's last multiplier,
the two Hamiltonians, the orientation sign, and the change of variables
back to the original equations.

The stored field and Hamiltonians are the derivation-consistent forms:
where a published formula disagrees with what the chain rule or the
structure identities force, the catalog keeps the corrected form and
retains the published one under ``printed`` so the verifier can report
the deltas instead of silently discarding them.  Known deltas:

* transformed Lu: the published third field component has the opposite
  sign; only ``w' = +u*v`` conserves the stated invariants.
* modified Lu: the published change of variables (gamma = alpha with
  v = y*exp(-alpha*t)) does not reproduce the published transformed
  equations; gamma = -alpha with v = y*exp(alpha*t) does.  The published
  second Hamiltonian carries exp(+2*alpha*t) where the structure
  identity requires exp(-2*alpha*t), and the published second Poisson
  vector is not the gradient of either version.
* T-system: the published second Poisson vector flips the sign of the
  (gamma-alpha) term relative to -grad(H2).
* Chen: the published transformed field writes a stray factor alpha on
  the u*w term (the chain rule gives coefficient 1) and an undefined
  weight symbol read here as gamma.

File format for user-defined systems (all expressions in the grammar of
:mod:`biham3.expr`)::

    name = my-system
    frame = u v w
    time = t
    params
        alpha
        beta = 2*alpha
    field = alpha*v ; -u*w ; u*v
    multiplier = 1
    h1 = 1/2*(v^2+w^2)
    h2 = 1/2*u^2 - alpha*w
    orientation = auto

Each line under ``params`` is ``NAME`` (a free parameter) or
``NAME = EXPR`` (one pinned by a constraint); a name is an identifier
that is neither a variable nor a function name, declared once.
``multiplier`` defaults to 1, ``orientation`` to auto (determined by the
verifier).  Lines starting with ``#`` are comments.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import expr as ex
from .expr import parse
from .vecfield import FrameError, ScalarField, VectorField3, gradient, scale
from .sampling import verification_box


class ConstraintError(ex.ExprError):
    pass


class SystemFormatError(ex.ExprError):
    pass


@dataclass(frozen=True)
class ParamSpec:
    name: str
    constraint: object = None  # Expr pinning this parameter, or None if free
    default: Fraction = Fraction(1)

    def constraint_text(self):
        if self.constraint is None:
            return self.name
        return f"{self.name} = {self.constraint}"


@dataclass(frozen=True)
class ChangeOfVariables:
    """Change of variables from a source frame, with optional time rescale."""

    source_frame: tuple
    source_field: tuple  # source ODE right-hand sides, exprs in source frame
    forward: tuple  # new coordinates as exprs in (source frame, t)
    inverse: tuple  # source coordinates as exprs in (new frame, t)
    time_rescale: object = None  # new time as an expr in t, or None
    time_rescale_rate: object = None  # d(new time)/dt


@dataclass(frozen=True)
class SystemDef:
    name: str
    description: str
    frame: tuple
    time: str
    params: tuple  # ParamSpec, order matters for resolution
    field: VectorField3
    multiplier: ScalarField
    h1: ScalarField = None
    h2: ScalarField = None
    orientation: int = None
    transform: ChangeOfVariables = None
    printed: dict = field(default_factory=dict)
    notes: tuple = ()
    requires_nonzero: tuple = ()  # exprs that must not vanish at instantiation
    param_values: dict = None  # set by instantiate()

    # -- parameter machinery -------------------------------------------
    def param_names(self):
        return tuple(p.name for p in self.params)

    def is_instantiated(self):
        return self.param_values is not None

    def bound_expr(self, e):
        if not self.param_values:
            return e
        return ex.substitute(e, {k: ex.con(v) for k, v in self.param_values.items()})

    def bound_scalar(self, sf):
        if sf is None:
            return None
        return ScalarField(self.bound_expr(sf.expr), sf.frame, sf.time)

    def bound_field(self):
        return VectorField3(tuple(self.bound_scalar(c) for c in self.field.components))

    def poisson_vectors(self, gradients=None):
        """The Poisson vectors J1 = (1/M) grad(H1) and J2 = -(1/M) grad(H2)
        as two VectorField3s, parameters bound.

        A caller that already holds the bound gradients of H1 and H2 may
        pass them as ``gradients``.
        """
        if self.h1 is None or self.h2 is None:
            raise ConstraintError(f"system {self.name!r} has no Hamiltonian pair")
        m = self.bound_scalar(self.multiplier).expr
        j1, g2 = gradients or (gradient(self.bound_scalar(h)) for h in (self.h1, self.h2))
        js = (j1, scale(g2, ex.con(-1)))
        if m == ex.ONE:
            return js
        return tuple(
            VectorField3.from_exprs([ex.quot(e, m) for e in j.exprs()], j.frame, j.time) for j in js
        )

    def nambu_structure(self):
        """The last multiplier M of the Nambu bracket, parameters bound."""
        return self.bound_scalar(self.multiplier)

    def summary(self):
        return {
            "name": self.name,
            "frame": " ".join(self.frame),
            "constraints": [p.constraint_text() for p in self.params],
            "hamiltonians": self.h1 is not None and self.h2 is not None,
            "description": self.description,
        }


def _sf(text, frame, time="t"):
    return ScalarField(parse(text), frame, time)


def _field(texts, frame, time="t"):
    return VectorField3.from_exprs([parse(s) for s in texts], frame, time)


_UVW = ("u", "v", "w")
_XYZ = ("x", "y", "z")


def _p(text):
    return parse(text)


def _build_catalog():
    systems = {}

    # ---- original Lu equations (non-Hamiltonian reference) -----------
    systems["lu-original"] = SystemDef(
        name="lu-original",
        description="original Lu equations; divergence gamma-alpha-beta, "
        "no Hamiltonian pair unless the parameters are constrained",
        frame=_XYZ,
        time="t",
        params=(ParamSpec("alpha"), ParamSpec("beta"), ParamSpec("gamma")),
        field=_field(["alpha*(y-x)", "gamma*y - x*z", "x*y - beta*z"], _XYZ),
        multiplier=_sf("1", _XYZ),
    )

    # ---- transformed Lu -----------------------------------------------
    lu_printed = {
        "field": tuple(_p(s) for s in ("alpha*v", "-u*w", "-u*v")),
        "J1": tuple(_p(s) for s in ("0", "v", "w")),
        "J2": tuple(_p(s) for s in ("-u", "0", "alpha")),
    }
    systems["lu-transformed"] = SystemDef(
        name="lu-transformed",
        description="Lu equations with beta = -gamma = 2*alpha, rescaled "
        "variables and time; autonomous and divergence free",
        frame=_UVW,
        time="t",
        params=(
            ParamSpec("alpha"),
            ParamSpec("beta", _p("2*alpha"), Fraction(2)),
            ParamSpec("gamma", _p("-2*alpha"), Fraction(-2)),
        ),
        field=_field(["alpha*v", "-u*w", "u*v"], _UVW),
        multiplier=_sf("1", _UVW),
        h1=_sf("1/2*(v^2+w^2)", _UVW),
        h2=_sf("1/2*u^2 - alpha*w", _UVW),
        orientation=-1,
        transform=ChangeOfVariables(
            source_frame=_XYZ,
            source_field=tuple(
                _p(s) for s in ("alpha*(y-x)", "gamma*y - x*z", "x*y - beta*z")
            ),
            forward=tuple(
                _p(s)
                for s in (
                    "x*exp(alpha*t)",
                    "y*exp(2*alpha*t)",
                    "z*exp(2*alpha*t)",
                )
            ),
            inverse=tuple(
                _p(s)
                for s in (
                    "u*exp(-alpha*t)",
                    "v*exp(-2*alpha*t)",
                    "w*exp(-2*alpha*t)",
                )
            ),
            time_rescale=_p("-exp(-alpha*t)/alpha"),
            time_rescale_rate=_p("exp(-alpha*t)"),
        ),
        printed=lu_printed,
        notes=(
            "published third field component -u*v does not conserve the "
            "stated invariants; the chain rule gives +u*v",
        ),
        requires_nonzero=(_p("alpha"),),
    )

    # ---- modified Lu ----------------------------------------------------
    modlu_h2 = (
        "-v^2/2 + (exp(-2*alpha*t)/(2*alpha^2))"
        "*((u^2+v^2)*(1/4*(u^2+v^2) - alpha*w))"
    )
    modlu_printed = {
        "H2": _p(
            "-v^2/2 + (exp(2*alpha*t)/(2*alpha^2))"
            "*((u^2+v^2)*(1/4*(u^2+v^2) - alpha*w))"
        ),
        "J1": tuple(_p(s) for s in ("u", "v", "-alpha")),
        "J2": (
            _p("-(exp(2*alpha*t)*u/alpha^2)*(u^2+v^2-alpha*v)"),
            _p("v - (exp(2*alpha*t)*v/alpha^2)*(v^2+u^2-alpha*u)"),
            _p("(exp(2*alpha*t)/(2*alpha))*(u^2+v^2)"),
        ),
        "transform_v": _p("y*exp(-alpha*t)"),
    }
    systems["modified-lu"] = SystemDef(
        name="modified-lu",
        description="Lu equations with an extra y*z feedback term; "
        "non-autonomous after the rescaling, divergence free",
        frame=_UVW,
        time="t",
        params=(
            ParamSpec("alpha"),
            ParamSpec("beta", _p("2*alpha"), Fraction(2)),
            ParamSpec("gamma", _p("-alpha"), Fraction(-1)),
        ),
        field=_field(
            ["alpha*v + v*w*exp(-2*alpha*t)", "-u*w*exp(-2*alpha*t)", "u*v"],
            _UVW,
        ),
        multiplier=_sf("1", _UVW),
        h1=_sf("1/2*(u^2+v^2) - alpha*w", _UVW),
        h2=_sf(modlu_h2, _UVW),
        orientation=-1,
        transform=ChangeOfVariables(
            source_frame=_XYZ,
            source_field=tuple(
                _p(s)
                for s in (
                    "alpha*(y-x) + y*z",
                    "gamma*y - x*z",
                    "x*y - beta*z",
                )
            ),
            forward=tuple(
                _p(s)
                for s in ("x*exp(alpha*t)", "y*exp(alpha*t)", "z*exp(2*alpha*t)")
            ),
            inverse=tuple(
                _p(s)
                for s in (
                    "u*exp(-alpha*t)",
                    "v*exp(-alpha*t)",
                    "w*exp(-2*alpha*t)",
                )
            ),
        ),
        printed=modlu_printed,
        notes=(
            "published change of variables (gamma = alpha, v = y*exp(-alpha*t)) "
            "does not reproduce the published transformed equations; "
            "gamma = -alpha with v = y*exp(alpha*t) does",
            "published H2 weight exp(2*alpha*t) must read exp(-2*alpha*t) "
            "for the structure identity to close",
            "published J2 is not -grad(H2) for either H2 version",
        ),
        requires_nonzero=(_p("alpha"),),
    )

    # ---- T-system -------------------------------------------------------
    t_h2 = (
        "1/(2*alpha)*(1/8*exp(-3*alpha*t)*u^4"
        " + 1/2*(gamma-alpha)*exp(-alpha*t)*u^2"
        " - alpha/2*u^2*w*exp(-3*alpha*t))"
        " - 1/4*v^2*exp(alpha*t)"
    )
    t_printed = {
        "J1": tuple(_p(s) for s in ("2*u", "0", "-2*alpha")),
        "J2": (
            _p(
                "-1/(4*alpha)*u^3*exp(-3*alpha*t)"
                " + 1/(2*alpha)*(gamma-alpha)*u*exp(-alpha*t)"
                " + 1/2*u*w*exp(-3*alpha*t)"
            ),
            _p("v/2*exp(alpha*t)"),
            _p("1/4*u^2*exp(-3*alpha*t)"),
        ),
    }
    systems["t-system"] = SystemDef(
        name="t-system",
        description="T-system with beta = 2*alpha; non-autonomous after "
        "rescaling x and z, divergence free",
        frame=_UVW,
        time="t",
        params=(
            ParamSpec("alpha"),
            ParamSpec("beta", _p("2*alpha"), Fraction(2)),
            ParamSpec("gamma"),
        ),
        field=_field(
            [
                "alpha*v*exp(alpha*t)",
                "(gamma-alpha)*u*exp(-alpha*t) - alpha*u*w*exp(-3*alpha*t)",
                "u*v*exp(alpha*t)",
            ],
            _UVW,
        ),
        multiplier=_sf("1", _UVW),
        h1=_sf("u^2 - 2*alpha*w", _UVW),
        h2=_sf(t_h2, _UVW),
        orientation=-1,
        transform=ChangeOfVariables(
            source_frame=_XYZ,
            source_field=tuple(
                _p(s)
                for s in (
                    "alpha*(y-x)",
                    "(gamma-alpha)*x - alpha*x*z",
                    "x*y - beta*z",
                )
            ),
            forward=tuple(
                _p(s) for s in ("x*exp(alpha*t)", "y", "z*exp(2*alpha*t)")
            ),
            inverse=tuple(
                _p(s) for s in ("u*exp(-alpha*t)", "v", "w*exp(-2*alpha*t)")
            ),
        ),
        printed=t_printed,
        notes=(
            "published J2 flips the sign of the (gamma-alpha) term "
            "relative to -grad(H2)",
        ),
        requires_nonzero=(_p("alpha"),),
    )

    # ---- Chen system ------------------------------------------------------
    chen_h2 = (
        "1/(2*alpha)*(1/(8*alpha)*exp(-(3*alpha+gamma)*t)*u^4"
        " + 1/2*(gamma-alpha)*exp(-(gamma+alpha)*t)*u^2"
        " - 1/2*u^2*w*exp(-(3*alpha+gamma)*t))"
        " - 1/4*v^2*exp((gamma+alpha)*t)"
    )
    chen_printed = {
        "field": (
            _p("alpha*v*exp((gamma+alpha)*t)"),
            _p(
                "(gamma-alpha)*u*exp(-(gamma+alpha)*t)"
                " - alpha*u*w*exp(-(3*alpha+gamma)*t)"
            ),
            _p("u*v*exp((gamma+alpha)*t)"),
        ),
        "J1": tuple(_p(s) for s in ("2*u", "0", "-2*alpha")),
        "J2": (
            _p(
                "exp(-(gamma+alpha)*t)/(2*alpha)"
                "*(exp(-2*alpha*t)*u*(w - u^2/(2*alpha)) - (gamma-alpha)*u)"
            ),
            _p("exp((gamma+alpha)*t)/2*v"),
            _p("exp(-(3*alpha+gamma)*t)/(4*alpha)*u^2"),
        ),
    }
    systems["chen"] = SystemDef(
        name="chen",
        description="Chen system with beta = 2*alpha; non-autonomous after "
        "the rescaling, divergence free",
        frame=_UVW,
        time="t",
        params=(
            ParamSpec("alpha"),
            ParamSpec("beta", _p("2*alpha"), Fraction(2)),
            ParamSpec("gamma"),
        ),
        field=_field(
            [
                "alpha*v*exp((gamma+alpha)*t)",
                "(gamma-alpha)*u*exp(-(gamma+alpha)*t)"
                " - u*w*exp(-(3*alpha+gamma)*t)",
                "u*v*exp((gamma+alpha)*t)",
            ],
            _UVW,
        ),
        multiplier=_sf("1", _UVW),
        h1=_sf("u^2 - 2*alpha*w", _UVW),
        h2=_sf(chen_h2, _UVW),
        orientation=-1,
        transform=ChangeOfVariables(
            source_frame=_XYZ,
            source_field=tuple(
                _p(s)
                for s in (
                    "alpha*(y-x)",
                    "(gamma-alpha)*x + gamma*y - x*z",
                    "x*y - beta*z",
                )
            ),
            forward=tuple(
                _p(s)
                for s in (
                    "x*exp(alpha*t)",
                    "y*exp(-gamma*t)",
                    "z*exp(2*alpha*t)",
                )
            ),
            inverse=tuple(
                _p(s)
                for s in (
                    "u*exp(-alpha*t)",
                    "v*exp(gamma*t)",
                    "w*exp(-2*alpha*t)",
                )
            ),
        ),
        printed=chen_printed,
        notes=(
            "published transformed field writes coefficient alpha on the "
            "u*w term; the chain rule gives coefficient 1",
            "published first-component weight exp((c+alpha)*t) leaves c "
            "undefined; read as gamma",
        ),
        requires_nonzero=(_p("alpha"),),
    )

    # ---- Chen variant (rescaled cross term) ------------------------------
    chen2_printed = {
        "J1": tuple(_p(s) for s in ("2*u", "-v", "lambda*w")),
        "J2": tuple(_p(s) for s in ("u*exp(-alpha*t)", "0", "-alpha")),
    }
    systems["chen-variant"] = SystemDef(
        name="chen-variant",
        description="Chen system with the x*z term rescaled by lambda and "
        "alpha = beta = -gamma; divergence free after the rescaling",
        frame=_UVW,
        time="t",
        params=(
            ParamSpec("alpha"),
            ParamSpec("beta", _p("alpha"), Fraction(1)),
            ParamSpec("gamma", _p("-alpha"), Fraction(-1)),
            ParamSpec("lambda"),
        ),
        field=_field(
            ["alpha*v", "2*alpha*u + lambda*u*w*exp(-alpha*t)", "u*v*exp(-alpha*t)"],
            _UVW,
        ),
        multiplier=_sf("1", _UVW),
        h1=_sf("u^2 - v^2/2 + lambda*w^2/2", _UVW),
        h2=_sf("alpha*w - u^2*exp(-alpha*t)/2", _UVW),
        orientation=-1,
        transform=ChangeOfVariables(
            source_frame=_XYZ,
            source_field=tuple(
                _p(s)
                for s in (
                    "alpha*(y-x)",
                    "(alpha-gamma)*x + gamma*y + lambda*x*z",
                    "x*y - beta*z",
                )
            ),
            forward=tuple(
                _p(s)
                for s in ("x*exp(alpha*t)", "y*exp(alpha*t)", "z*exp(alpha*t)")
            ),
            inverse=tuple(
                _p(s)
                for s in (
                    "u*exp(-alpha*t)",
                    "v*exp(-alpha*t)",
                    "w*exp(-alpha*t)",
                )
            ),
        ),
        printed=chen2_printed,
        notes=(
            "published change of variables writes 'zw = z*exp(alpha*t)'; "
            "read as w = z*exp(alpha*t)",
        ),
        requires_nonzero=(_p("alpha"),),
    )

    # ---- Qi system --------------------------------------------------------
    qi_printed = {
        "J1": tuple(_p(s) for s in ("2*gamma*u", "-2*v", "-2*(gamma+1)*w")),
        "J2": (
            _p("u/(2*(gamma+1))*exp(-t)"),
            _p("v/(2*(gamma+1))*exp(-t)"),
            _p("-1/2"),
        ),
    }
    systems["qi"] = SystemDef(
        name="qi",
        description="Qi system with alpha = beta = 1; non-autonomous after "
        "the uniform exp(t) rescaling, divergence free",
        frame=_UVW,
        time="t",
        params=(
            ParamSpec("alpha", _p("1")),
            ParamSpec("beta", _p("1")),
            ParamSpec("gamma"),
        ),
        field=_field(
            ["v + v*w*exp(-t)", "gamma*u - u*w*exp(-t)", "u*v*exp(-t)"],
            _UVW,
        ),
        multiplier=_sf("1", _UVW),
        h1=_sf("gamma*u^2 - v^2 - (gamma+1)*w^2", _UVW),
        h2=_sf("w/2 - 1/(4*(gamma+1))*(u^2+v^2)*exp(-t)", _UVW),
        orientation=-1,
        transform=ChangeOfVariables(
            source_frame=_XYZ,
            source_field=tuple(
                _p(s)
                for s in (
                    "alpha*(y-x) + y*z",
                    "gamma*x - x*z - y",
                    "x*y - beta*z",
                )
            ),
            forward=tuple(_p(s) for s in ("x*exp(t)", "y*exp(t)", "z*exp(t)")),
            inverse=tuple(
                _p(s) for s in ("u*exp(-t)", "v*exp(-t)", "w*exp(-t)")
            ),
        ),
        printed=qi_printed,
        requires_nonzero=(_p("gamma+1"),),
    )

    return systems


_BUILTINS = _build_catalog()

BUILTIN_NAMES = tuple(_BUILTINS)


def list_systems():
    """Summaries of the seven built-in systems."""
    return [_BUILTINS[name].summary() for name in BUILTIN_NAMES]


def get_system(name):
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ConstraintError(
            f"unknown system {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        ) from None


def _resolve_params(defn, supplied):
    supplied = {k: Fraction(str(v)) for k, v in (supplied or {}).items()}
    unknown = set(supplied) - set(defn.param_names())
    if unknown:
        raise ConstraintError(
            f"unknown parameter(s) {sorted(unknown)} for system {defn.name!r}"
        )
    values = {}
    for spec in defn.params:
        if spec.constraint is None:
            values[spec.name] = supplied.get(spec.name, spec.default)
    for spec in defn.params:
        if spec.constraint is None:
            continue
        bound = ex.substitute(
            spec.constraint, {k: ex.con(v) for k, v in values.items()}
        )
        if not isinstance(bound, ex.Const):
            raise ConstraintError(
                f"constraint {spec.name} = {spec.constraint} does not resolve"
            )
        value = bound.value
        if spec.name in supplied and supplied[spec.name] != value:
            raise ConstraintError(
                f"{defn.name}: parameter {spec.name}={supplied[spec.name]} "
                f"violates the constraint {spec.name} = {spec.constraint} "
                f"(= {value} here)"
            )
        values[spec.name] = value
    return values


def instantiate(name_or_def, params=None, **kw):
    """Bind parameter values, checking the system's constraints exactly.

    Missing dependent parameters are filled from the constraints;
    expressions keep their symbolic parameters, with the values recorded
    for evaluation.
    """
    defn = (
        get_system(name_or_def) if isinstance(name_or_def, str) else name_or_def
    )
    supplied = dict(params or {})
    supplied.update(kw)
    values = _resolve_params(defn, supplied)
    for req in defn.requires_nonzero:
        bound = ex.substitute(req, {k: ex.con(v) for k, v in values.items()})
        if isinstance(bound, ex.Const) and bound.value == 0:
            raise ConstraintError(
                f"{defn.name}: requires {req} != 0, got {req} = 0"
            )
    return replace(defn, param_values=values)


# ---------------------------------------------------------------------------
# chain-rule oracle for the changes of variables


def transform_check(defn, field=None):
    """Push the source equations through the change of variables and
    compare with the stored field, componentwise.

    Independent of the catalog algebra: the derived field is rebuilt
    from the chain rule du_i/dt = sum_j (d fwd_i / d x_j) xdot_j
    + d fwd_i / dt, the inverse maps, and (when a time rescale is
    present) division by d(tbar)/dt.  Each component is compared at 200
    seeded points (seed 42 plus the component index) to a relative
    tolerance of 1e-12.  Returns a dict with per-component maximum
    deviations and a pass flag.
    """
    n, tol = 200, 1e-12
    if defn.transform is None:
        raise ConstraintError(f"system {defn.name!r} has no transform metadata")
    if not defn.is_instantiated():
        defn = instantiate(defn.name)
    cov = defn.transform
    binding = {k: ex.con(v) for k, v in defn.param_values.items()}
    inverse_map = dict(zip(cov.source_frame, cov.inverse))

    derived = []
    for fwd in cov.forward:
        total = ex.differentiate(fwd, "t")
        for xj, xdot in zip(cov.source_frame, cov.source_field):
            total = ex.add(total, ex.mul(ex.differentiate(fwd, xj), xdot))
        total = ex.substitute(total, inverse_map)
        if cov.time_rescale_rate is not None:
            total = ex.quot(total, cov.time_rescale_rate)
        derived.append(ex.substitute(total, binding))

    target = field if field is not None else defn.field
    domain = verification_box((*defn.frame, "t"), "t")
    comps = []
    worst = 0.0
    for i, (d, c) in enumerate(zip(derived, target.components)):
        got = ex.equal_numeric(
            d, defn.bound_expr(c.expr), domain, n=n, tol=tol, seed=42 + i
        )
        comps.append(
            {
                "component": defn.frame[i],
                "max_abs_dev": got.max_abs_dev,
                "max_rel_dev": got.max_rel_dev,
                "pass": got.equal,
            }
        )
        worst = max(worst, got.max_rel_dev)
    return {
        "system": defn.name,
        "components": comps,
        "max_rel_dev": worst,
        "pass": all(c["pass"] for c in comps),
        "tol": tol,
        "n": n,
    }


# ---------------------------------------------------------------------------
# user-defined system files

_RESERVED = ("name", "frame", "time", "field", "multiplier", "h1", "h2", "orientation")
_PARAM_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def load_system(document):
    """Parse the flat key-value system format into a SystemDef."""
    data = {}
    params = []
    in_params = False
    for lineno, raw in enumerate(document.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key = line.split("=", 1)[0].strip().split()[0]
        if key in _RESERVED and ("=" in line or line == key):
            in_params = False
            if "=" not in line:
                raise SystemFormatError(f"line {lineno}: {key} needs a value")
            data[key] = line.split("=", 1)[1].strip()
            continue
        if line == "params":
            in_params = True
            continue
        if in_params:
            pname, eq, ctext = (s.strip() for s in line.partition("="))
            if not _PARAM_NAME.fullmatch(pname) or pname in ex.VARIABLES + ex.FUNCTIONS:
                raise SystemFormatError(
                    f"line {lineno}: {pname!r} is not a parameter name (an identifier "
                    "that is neither a variable nor a function name)"
                )
            if any(p.name == pname for p in params):
                raise SystemFormatError(f"line {lineno}: parameter {pname!r} is declared twice")
            params.append(ParamSpec(pname, parse(ctext) if eq else None))
            continue
        raise SystemFormatError(f"line {lineno}: unrecognized line {line!r}")

    if "name" not in data:
        raise SystemFormatError("missing 'name'")
    if "frame" not in data:
        raise SystemFormatError("missing 'frame'")
    frame = tuple(data["frame"].split())
    if len(frame) != 3:
        raise SystemFormatError(
            f"frame must list exactly three variables, got {frame}"
        )
    for v in frame:
        if v not in ex.VARIABLES:
            raise SystemFormatError(f"{v!r} is not a variable name")
    time = data.get("time", "t")
    if "field" not in data:
        raise SystemFormatError("missing 'field'")
    comps = [s.strip() for s in data["field"].split(";")]
    if len(comps) != 3:
        raise SystemFormatError("field needs three ';'-separated components")
    try:
        fld = _field(comps, frame, time)
        mult = _sf(data.get("multiplier", "1"), frame, time)
        h1 = _sf(data["h1"], frame, time) if "h1" in data else None
        h2 = _sf(data["h2"], frame, time) if "h2" in data else None
    except FrameError as err:
        raise SystemFormatError(str(err)) from None
    if mult.expr == ex.ZERO:
        raise SystemFormatError("multiplier must not be identically zero")
    otext = data.get("orientation", "auto")
    if otext in ("+1", "1"):
        orientation = 1
    elif otext == "-1":
        orientation = -1
    elif otext == "auto":
        orientation = None
    else:
        raise SystemFormatError(f"orientation must be +1, -1 or auto, got {otext!r}")

    return SystemDef(
        name=data["name"],
        description="user-defined system",
        frame=frame,
        time=time,
        params=tuple(params),
        field=fld,
        multiplier=mult,
        h1=h1,
        h2=h2,
        orientation=orientation,
    )


def save_system(defn):
    """Render a SystemDef back into the flat file format."""
    lines = [f"name = {defn.name}", f"frame = {' '.join(defn.frame)}", f"time = {defn.time}"]
    if defn.params:
        lines.append("params")
        for p in defn.params:
            if p.constraint is None:
                lines.append(f"    {p.name}")
            else:
                lines.append(f"    {p.name} = {p.constraint}")
    lines.append("field = " + " ; ".join(str(c.expr) for c in defn.field.components))
    lines.append(f"multiplier = {defn.multiplier.expr}")
    if defn.h1 is not None:
        lines.append(f"h1 = {defn.h1.expr}")
    if defn.h2 is not None:
        lines.append(f"h2 = {defn.h2.expr}")
    if defn.orientation is None:
        lines.append("orientation = auto")
    else:
        lines.append(f"orientation = {defn.orientation:+d}")
    return "\n".join(lines) + "\n"
