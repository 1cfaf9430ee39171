"""Built-in catalog of 3D chaotic systems with bi-Hamiltonian data.

Seven entries: the original Lu equations (a non-Hamiltonian reference),
the transformed Lu system, a modified Lu system, the T-system, the Chen
system, a Chen variant with a rescaled cross term, and the Qi system.
Each transformed entry stores the vector field, the parameter
constraints under which the structure exists, Jacobi's last multiplier,
the two Hamiltonians, the orientation sign, and the change of variables
back to the original equations.  Each entry is a document in the system
file format below, parsed by :func:`load_system` when
:func:`get_system` first asks for it.

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

System file format (all expressions in the grammar of
:mod:`biham3.expr`)::

    name = my-system
    frame = u v w
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
that is neither a variable, a function name nor a key, declared once.  The
time variable is ``t``: a frame (and a source frame) lists three distinct
variables other than ``t``.  The line ``time = t``, which older files
carry, is read and changes nothing; any other ``time`` is a format
error.  ``multiplier`` defaults to 1,
``orientation`` (+1, -1 or auto) to auto (determined by the verifier).
Lines starting with ``#`` are comments.  Optional keys carry what the
built-in entries record about the paper::

    description = Lu equations, rescaled
    requires_nonzero = alpha
    note = published third component has the opposite sign
    printed.field = alpha*v ; -u*w ; -u*v
    printed.H2 = 1/2*u^2 - alpha*w
    transform.source_frame = x y z
    transform.source_field = alpha*(y-x) ; gamma*y - x*z ; x*y - beta*z
    transform.forward = x*exp(alpha*t) ; y*exp(2*alpha*t) ; z*exp(2*alpha*t)
    transform.inverse = u*exp(-alpha*t) ; v*exp(-2*alpha*t) ; w*exp(-2*alpha*t)
    transform.time_rescale = -exp(-alpha*t)/alpha
    transform.time_rescale_rate = exp(-alpha*t)

``description`` defaults to "user-defined system".  ``note`` may repeat
and keeps its order.  ``requires_nonzero`` lists, separated by ``;``,
parameter expressions that must not vanish at instantiation.  A
``printed.KEY`` line is a published formula that the verifier compares
with its derived counterpart: ``field``, ``J1`` and ``J2`` take three
``;``-separated parts, ``H1``, ``H2`` and ``transform_V`` (V a frame
variable) one; the Hamiltonian keys need ``h1`` and ``h2``, and the
``transform_V`` keys a transform.  ``transform.*`` is the change of
variables from the source equations: the source frame and field, the new
coordinates in the source frame and ``t``, the source coordinates in the
new frame and ``t``, and optionally the rescaled time and its rate.  The
first four keys are required once any is given.  :func:`save_system`
writes every field, and :func:`load_system` reads it back equal.
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
        return ScalarField(self.bound_expr(sf.expr), sf.frame)

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
            VectorField3.from_exprs([ex.quot(e, m) for e in j.exprs()], j.frame) for j in js
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


# The built-in systems, in the file format that load_system reads.  A
# backslash at the end of a source line continues it in the Python
# literal: each document has one key per line.
_DOCUMENTS = {
    "lu-original": """\
name = lu-original
description = original Lu equations; divergence gamma-alpha-beta, \
no Hamiltonian pair unless the parameters are constrained
frame = x y z
params
    alpha
    beta
    gamma
field = alpha*(y-x) ; gamma*y - x*z ; x*y - beta*z
""",
    "lu-transformed": """\
name = lu-transformed
description = Lu equations with beta = -gamma = 2*alpha, rescaled \
variables and time; autonomous and divergence free
frame = u v w
params
    alpha
    beta = 2*alpha
    gamma = -2*alpha
field = alpha*v ; -u*w ; u*v
h1 = 1/2*(v^2+w^2)
h2 = 1/2*u^2 - alpha*w
orientation = -1
requires_nonzero = alpha
note = published third field component -u*v does not conserve the \
stated invariants; the chain rule gives +u*v
printed.field = alpha*v ; -u*w ; -u*v
printed.J1 = 0 ; v ; w
printed.J2 = -u ; 0 ; alpha
transform.source_frame = x y z
transform.source_field = alpha*(y-x) ; gamma*y - x*z ; x*y - beta*z
transform.forward = x*exp(alpha*t) ; y*exp(2*alpha*t) ; z*exp(2*alpha*t)
transform.inverse = u*exp(-alpha*t) ; v*exp(-2*alpha*t) ; w*exp(-2*alpha*t)
transform.time_rescale = -exp(-alpha*t)/alpha
transform.time_rescale_rate = exp(-alpha*t)
""",
    "modified-lu": """\
name = modified-lu
description = Lu equations with an extra y*z feedback term; \
non-autonomous after the rescaling, divergence free
frame = u v w
params
    alpha
    beta = 2*alpha
    gamma = -alpha
field = alpha*v + v*w*exp(-2*alpha*t) ; -u*w*exp(-2*alpha*t) ; u*v
h1 = 1/2*(u^2+v^2) - alpha*w
h2 = -v^2/2 + (exp(-2*alpha*t)/(2*alpha^2))*((u^2+v^2)*(1/4*(u^2+v^2) - alpha*w))
orientation = -1
requires_nonzero = alpha
note = published change of variables (gamma = alpha, v = y*exp(-alpha*t)) \
does not reproduce the published transformed equations; \
gamma = -alpha with v = y*exp(alpha*t) does
note = published H2 weight exp(2*alpha*t) must read exp(-2*alpha*t) \
for the structure identity to close
note = published J2 is not -grad(H2) for either H2 version
printed.H2 = -v^2/2 + (exp(2*alpha*t)/(2*alpha^2))*((u^2+v^2)*(1/4*(u^2+v^2) - alpha*w))
printed.J1 = u ; v ; -alpha
printed.J2 = -(exp(2*alpha*t)*u/alpha^2)*(u^2+v^2-alpha*v) ; \
v - (exp(2*alpha*t)*v/alpha^2)*(v^2+u^2-alpha*u) ; (exp(2*alpha*t)/(2*alpha))*(u^2+v^2)
printed.transform_v = y*exp(-alpha*t)
transform.source_frame = x y z
transform.source_field = alpha*(y-x) + y*z ; gamma*y - x*z ; x*y - beta*z
transform.forward = x*exp(alpha*t) ; y*exp(alpha*t) ; z*exp(2*alpha*t)
transform.inverse = u*exp(-alpha*t) ; v*exp(-alpha*t) ; w*exp(-2*alpha*t)
""",
    "t-system": """\
name = t-system
description = T-system with beta = 2*alpha; non-autonomous after \
rescaling x and z, divergence free
frame = u v w
params
    alpha
    beta = 2*alpha
    gamma
field = alpha*v*exp(alpha*t) ; \
(gamma-alpha)*u*exp(-alpha*t) - alpha*u*w*exp(-3*alpha*t) ; u*v*exp(alpha*t)
h1 = u^2 - 2*alpha*w
h2 = 1/(2*alpha)*(1/8*exp(-3*alpha*t)*u^4 + 1/2*(gamma-alpha)*exp(-alpha*t)*u^2 \
- alpha/2*u^2*w*exp(-3*alpha*t)) - 1/4*v^2*exp(alpha*t)
orientation = -1
requires_nonzero = alpha
note = published J2 flips the sign of the (gamma-alpha) term relative to -grad(H2)
printed.J1 = 2*u ; 0 ; -2*alpha
printed.J2 = -1/(4*alpha)*u^3*exp(-3*alpha*t) + 1/(2*alpha)*(gamma-alpha)*u*exp(-alpha*t) \
+ 1/2*u*w*exp(-3*alpha*t) ; v/2*exp(alpha*t) ; 1/4*u^2*exp(-3*alpha*t)
transform.source_frame = x y z
transform.source_field = alpha*(y-x) ; (gamma-alpha)*x - alpha*x*z ; x*y - beta*z
transform.forward = x*exp(alpha*t) ; y ; z*exp(2*alpha*t)
transform.inverse = u*exp(-alpha*t) ; v ; w*exp(-2*alpha*t)
""",
    "chen": """\
name = chen
description = Chen system with beta = 2*alpha; non-autonomous after \
the rescaling, divergence free
frame = u v w
params
    alpha
    beta = 2*alpha
    gamma
field = alpha*v*exp((gamma+alpha)*t) ; \
(gamma-alpha)*u*exp(-(gamma+alpha)*t) - u*w*exp(-(3*alpha+gamma)*t) ; \
u*v*exp((gamma+alpha)*t)
h1 = u^2 - 2*alpha*w
h2 = 1/(2*alpha)*(1/(8*alpha)*exp(-(3*alpha+gamma)*t)*u^4 \
+ 1/2*(gamma-alpha)*exp(-(gamma+alpha)*t)*u^2 - 1/2*u^2*w*exp(-(3*alpha+gamma)*t)) \
- 1/4*v^2*exp((gamma+alpha)*t)
orientation = -1
requires_nonzero = alpha
note = published transformed field writes coefficient alpha on the u*w term; \
the chain rule gives coefficient 1
note = published first-component weight exp((c+alpha)*t) leaves c undefined; read as gamma
printed.field = alpha*v*exp((gamma+alpha)*t) ; \
(gamma-alpha)*u*exp(-(gamma+alpha)*t) - alpha*u*w*exp(-(3*alpha+gamma)*t) ; \
u*v*exp((gamma+alpha)*t)
printed.J1 = 2*u ; 0 ; -2*alpha
printed.J2 = exp(-(gamma+alpha)*t)/(2*alpha)\
*(exp(-2*alpha*t)*u*(w - u^2/(2*alpha)) - (gamma-alpha)*u) ; \
exp((gamma+alpha)*t)/2*v ; exp(-(3*alpha+gamma)*t)/(4*alpha)*u^2
transform.source_frame = x y z
transform.source_field = alpha*(y-x) ; (gamma-alpha)*x + gamma*y - x*z ; x*y - beta*z
transform.forward = x*exp(alpha*t) ; y*exp(-gamma*t) ; z*exp(2*alpha*t)
transform.inverse = u*exp(-alpha*t) ; v*exp(gamma*t) ; w*exp(-2*alpha*t)
""",
    "chen-variant": """\
name = chen-variant
description = Chen system with the x*z term rescaled by lambda and \
alpha = beta = -gamma; divergence free after the rescaling
frame = u v w
params
    alpha
    beta = alpha
    gamma = -alpha
    lambda
field = alpha*v ; 2*alpha*u + lambda*u*w*exp(-alpha*t) ; u*v*exp(-alpha*t)
h1 = u^2 - v^2/2 + lambda*w^2/2
h2 = alpha*w - u^2*exp(-alpha*t)/2
orientation = -1
requires_nonzero = alpha
note = published change of variables writes 'zw = z*exp(alpha*t)'; \
read as w = z*exp(alpha*t)
printed.J1 = 2*u ; -v ; lambda*w
printed.J2 = u*exp(-alpha*t) ; 0 ; -alpha
transform.source_frame = x y z
transform.source_field = alpha*(y-x) ; (alpha-gamma)*x + gamma*y + lambda*x*z ; x*y - beta*z
transform.forward = x*exp(alpha*t) ; y*exp(alpha*t) ; z*exp(alpha*t)
transform.inverse = u*exp(-alpha*t) ; v*exp(-alpha*t) ; w*exp(-alpha*t)
""",
    "qi": """\
name = qi
description = Qi system with alpha = beta = 1; non-autonomous after \
the uniform exp(t) rescaling, divergence free
frame = u v w
params
    alpha = 1
    beta = 1
    gamma
field = v + v*w*exp(-t) ; gamma*u - u*w*exp(-t) ; u*v*exp(-t)
h1 = gamma*u^2 - v^2 - (gamma+1)*w^2
h2 = w/2 - 1/(4*(gamma+1))*(u^2+v^2)*exp(-t)
orientation = -1
requires_nonzero = gamma+1
printed.J1 = 2*gamma*u ; -2*v ; -2*(gamma+1)*w
printed.J2 = u/(2*(gamma+1))*exp(-t) ; v/(2*(gamma+1))*exp(-t) ; -1/2
transform.source_frame = x y z
transform.source_field = alpha*(y-x) + y*z ; gamma*x - x*z - y ; x*y - beta*z
transform.forward = x*exp(t) ; y*exp(t) ; z*exp(t)
transform.inverse = u*exp(-t) ; v*exp(-t) ; w*exp(-t)
""",
}

BUILTIN_NAMES = tuple(_DOCUMENTS)
_LOADED = {}  # name -> SystemDef, filled by get_system


def list_systems():
    """Summaries of the seven built-in systems."""
    return [get_system(name).summary() for name in BUILTIN_NAMES]


def get_system(name):
    """The built-in system ``name``, parsed from its document on first use."""
    if name not in _DOCUMENTS:
        raise ConstraintError(
            f"unknown system {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        )
    if name not in _LOADED:
        _LOADED[name] = load_system(_DOCUMENTS[name])
    return _LOADED[name]


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
            values[spec.name] = supplied.get(spec.name, Fraction(1))
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
    for evaluation, so a value past the float range is a LimitError.
    """
    defn = (
        get_system(name_or_def) if isinstance(name_or_def, str) else name_or_def
    )
    supplied = dict(params or {})
    supplied.update(kw)
    values = _resolve_params(defn, supplied)
    for k, v in values.items():
        ex.to_float(v, f"parameter {k}")
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
        defn = instantiate(defn)
    cov = defn.transform
    binding = {k: ex.con(v) for k, v in defn.param_values.items()}
    inverse_map = dict(zip(cov.source_frame, cov.inverse))

    derived = []
    for fwd in cov.forward:
        total = ex.differentiate(fwd, ex.TIME)
        for xj, xdot in zip(cov.source_frame, cov.source_field):
            total = ex.add(total, ex.mul(ex.differentiate(fwd, xj), xdot))
        total = ex.substitute(total, inverse_map)
        if cov.time_rescale_rate is not None:
            total = ex.quot(total, cov.time_rescale_rate)
        derived.append(ex.substitute(total, binding))

    target = field if field is not None else defn.field
    domain = verification_box((*defn.frame, ex.TIME))
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
# system files

_KEYS = (
    "name", "description", "frame", "time", "field", "multiplier", "h1", "h2",
    "orientation", "requires_nonzero", "note",
)
# the source frame, three formulas each for the next three keys, and two
# optional single formulas
_TRANSFORM_KEYS = (
    "source_frame", "source_field", "forward", "inverse", "time_rescale", "time_rescale_rate",
)
_TRIPLES = ("field", "J1", "J2")  # printed formulas with one part per component
_PARAM_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _frame(text, key):
    frame = tuple(text.split())
    if len(frame) != 3:
        raise SystemFormatError(f"{key} must list exactly three variables, got {frame}")
    for v in frame:
        if v not in ex.VARIABLES:
            raise SystemFormatError(f"{v!r} is not a variable name")
    if len(set(frame)) != 3:
        raise SystemFormatError(f"{key} lists a variable twice: {frame}")
    if ex.TIME in frame:
        raise SystemFormatError(f"{key} must not list the time variable {ex.TIME}, got {frame}")
    return frame


def _parts(text, n, key):
    """The ``n`` ';'-separated formulas of ``text`` (any number if n is None)."""
    parts = text.split(";")
    if n is not None and len(parts) != n:
        raise SystemFormatError(
            f"{key} takes {n} formula{'s' if n > 1 else ''}, got {len(parts)} ';'-separated parts"
        )
    return tuple(parse(s.strip()) for s in parts)


def _change_of_variables(keys):
    """The ChangeOfVariables of the ``transform.*`` texts, keyed without the prefix."""
    unknown = [k for k in keys if k not in _TRANSFORM_KEYS]
    if unknown:
        raise SystemFormatError(f"unknown key 'transform.{unknown[0]}'")
    missing = [k for k in _TRANSFORM_KEYS[:4] if k not in keys]
    if missing:
        raise SystemFormatError(f"missing 'transform.{missing[0]}'")
    triple = {k: _parts(keys[k], 3, f"transform.{k}") for k in _TRANSFORM_KEYS[1:4]}
    rescale = {k: _parts(keys[k], 1, f"transform.{k}")[0] for k in _TRANSFORM_KEYS[4:] if k in keys}
    return ChangeOfVariables(_frame(keys["source_frame"], "transform.source_frame"), **triple, **rescale)


def load_system(document):
    """Parse the flat key-value system format into a SystemDef."""
    data = {}
    notes = []
    params = []
    in_params = False
    for lineno, raw in enumerate(document.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = (s.strip() for s in line.partition("="))
        if key in _KEYS or key.startswith(("printed.", "transform.")):
            in_params = False
            if not eq:
                raise SystemFormatError(f"line {lineno}: {key} needs a value")
            if key == "note":
                notes.append(value)
            else:
                data[key] = value
            continue
        if line == "params":
            in_params = True
            continue
        if in_params:
            if not _PARAM_NAME.fullmatch(key) or key in ex.VARIABLES + ex.FUNCTIONS:
                raise SystemFormatError(
                    f"line {lineno}: {key!r} is not a parameter name (an identifier "
                    "that is neither a variable nor a function name)"
                )
            if any(p.name == key for p in params):
                raise SystemFormatError(f"line {lineno}: parameter {key!r} is declared twice")
            params.append(ParamSpec(key, parse(value) if eq else None))
            continue
        raise SystemFormatError(f"line {lineno}: unrecognized line {line!r}")

    for key in ("name", "frame", "field"):
        if key not in data:
            raise SystemFormatError(f"missing {key!r}")
    frame = _frame(data["frame"], "frame")
    if data.get("time", ex.TIME) != ex.TIME:
        raise SystemFormatError(f"time must be {ex.TIME}, got {data['time']!r}")
    try:
        fld = VectorField3.from_exprs(_parts(data["field"], 3, "field"), frame)
        mult, h1, h2 = (
            None if text is None else ScalarField(parse(text), frame)
            for text in (data.get("multiplier", "1"), data.get("h1"), data.get("h2"))
        )
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

    cov = {k[len("transform."):]: v for k, v in data.items() if k.startswith("transform.")}
    transform = _change_of_variables(cov) if cov else None
    # the formulas verify.compare_printed has a derived counterpart for
    comparable = ["field"]
    if h1 is not None and h2 is not None:
        comparable += ["J1", "J2", "H1", "H2"]
    if transform is not None:
        comparable += [f"transform_{v}" for v in frame]
    printed = {}
    for key, text in data.items():
        if not key.startswith("printed."):
            continue
        formula = key[len("printed."):]
        if formula not in comparable:
            raise SystemFormatError(
                f"{key} has nothing to be compared with; this system compares "
                + ", ".join(f"printed.{k}" for k in comparable)
            )
        parts = _parts(text, 3 if formula in _TRIPLES else 1, key)
        printed[formula] = parts if formula in _TRIPLES else parts[0]

    nonzero = data.get("requires_nonzero")
    nonzero = () if nonzero is None else _parts(nonzero, None, "requires_nonzero")

    return SystemDef(
        name=data["name"],
        description=data.get("description", "user-defined system"),
        frame=frame,
        params=tuple(params),
        field=fld,
        multiplier=mult,
        h1=h1,
        h2=h2,
        orientation=orientation,
        transform=transform,
        printed=printed,
        notes=tuple(notes),
        requires_nonzero=nonzero,
    )


def save_system(defn):
    """Render a SystemDef in the file format; ``load_system`` reads the
    text back as an equal SystemDef (parameter values are not kept)."""

    def row(key, exprs):
        return f"{key} = " + " ; ".join(str(e) for e in exprs)

    lines = [
        f"name = {defn.name}",
        f"description = {defn.description}",
        f"frame = {' '.join(defn.frame)}",
    ]
    if defn.params:
        lines.append("params")
        lines += [f"    {p.constraint_text()}" for p in defn.params]
    lines.append(row("field", defn.field.exprs()))
    lines.append(f"multiplier = {defn.multiplier.expr}")
    lines += [f"{k} = {h.expr}" for k, h in (("h1", defn.h1), ("h2", defn.h2)) if h is not None]
    lines.append("orientation = " + ("auto" if defn.orientation is None else f"{defn.orientation:+d}"))
    if defn.requires_nonzero:
        lines.append(row("requires_nonzero", defn.requires_nonzero))
    lines += [f"note = {n}" for n in defn.notes]
    lines += [
        row(f"printed.{k}", v if isinstance(v, tuple) else (v,)) for k, v in defn.printed.items()
    ]
    cov = defn.transform
    if cov is not None:
        lines.append(f"transform.source_frame = {' '.join(cov.source_frame)}")
        lines += [row(f"transform.{k}", getattr(cov, k)) for k in _TRANSFORM_KEYS[1:4]]
        lines += [
            f"transform.{k} = {getattr(cov, k)}"
            for k in _TRANSFORM_KEYS[4:]
            if getattr(cov, k) is not None
        ]
    return "\n".join(lines) + "\n"
