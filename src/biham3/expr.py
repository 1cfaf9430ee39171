"""Immutable expression trees with a text parser, exact differentiation,
normalization, substitution and fast numeric evaluation.

Grammar (EBNF)::

    expr    ::= term (("+" | "-") term)*
    term    ::= factor (("*" | "/") factor)*
    factor  ::= "-" factor | power
    power   ::= atom ("^" factor)?          # right-associative
    atom    ::= NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")"
    NUMBER  ::= digits ["." digits] [("e" | "E") ["+" | "-"] digits]

``^`` binds tighter than unary minus, so ``-u^2 == -(u^2)``.  Implicit
multiplication is not accepted, exponents must reduce to integer
constants, and the only recognized functions are ``exp``, ``ln``,
``sin`` and ``cos``.  The identifiers ``t u v w x y z`` are variables;
any other identifier is a named parameter (``alpha``, ``lambda``, ...).

Numeric literals are stored as exact rationals (``0.5`` becomes 1/2),
so differentiation and like-term collection never drift.

Every constructor normalizes its result: constant folding, 0/1
identities, flattening of nested sums/products, collection of identical
terms with rational coefficients, and ``exp(a)*exp(b) -> exp(a+b)``.
Trees built through this module are therefore always in canonical form,
``simplify`` re-normalizes defensively, and any expression that cancels
under those rules is the literal zero constant.  ``expand`` additionally
distributes products and integer powers over sums.

Expressions are immutable; evaluation, differentiation and substitution
are reentrant.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

VARIABLES = ("t", "u", "v", "w", "x", "y", "z")
FUNCTIONS = ("exp", "ln", "sin", "cos")
MAX_NESTING = 100  # parser limit on nested parentheses, unary minus and ^


class ExprError(Exception):
    """Base class for expression-layer failures."""


class ParseError(ExprError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NonIntegerExponentError(ParseError):
    pass


class UnknownFunctionError(ParseError):
    pass


class UnboundSymbolError(ExprError):
    def __init__(self, name):
        super().__init__(f"unbound symbol: {name}")
        self.name = name


class DomainError(ExprError):
    """ln of a non-positive value, division by zero, overflow."""


class Expr:
    """Base node.  Subclasses carry the payload; instances are immutable."""

    __slots__ = ("_hash", "_keyc", "_symc")

    def __init__(self):
        self._hash = None
        self._keyc = None
        self._symc = None

    def _payload(self):
        raise NotImplementedError

    def __eq__(self, other):
        return self is other or (
            type(self) is type(other) and self._payload() == other._payload()
        )

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((type(self).__name__,) + self._payload())
        return self._hash

    def key(self):
        """Total deterministic ordering key used for canonical sorting."""
        if self._keyc is None:
            self._keyc = self._make_key()
        return self._keyc

    def free_symbols(self):
        if self._symc is None:
            self._symc = self._collect_symbols()
        return self._symc

    def _collect_symbols(self):
        out = frozenset()
        for c in self.children():
            out |= c.free_symbols()
        return out

    def children(self):
        return ()

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return quot(self, other)

    def __rtruediv__(self, other):
        return quot(other, self)

    def __pow__(self, n):
        return pow_(self, n)

    def __neg__(self):
        return neg(self)

    def __str__(self):
        return to_text(self)

    def __repr__(self):
        return to_text(self)

    def diff(self, name):
        return differentiate(self, name)

    def subs(self, mapping):
        return substitute(self, mapping)


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        super().__init__()
        self.value = value if isinstance(value, Fraction) else Fraction(value)

    def _payload(self):
        return (self.value,)

    def _make_key(self):
        return (0, self.value)

    def _collect_symbols(self):
        return frozenset()


class Param(Expr):
    __slots__ = ("name",)

    def __init__(self, name):
        super().__init__()
        self.name = name

    def _payload(self):
        return (self.name,)

    def _make_key(self):
        return (1, self.name)

    def _collect_symbols(self):
        return frozenset((self.name,))


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name):
        super().__init__()
        self.name = name

    def _payload(self):
        return (self.name,)

    def _make_key(self):
        return (2, self.name)

    def _collect_symbols(self):
        return frozenset((self.name,))


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent):
        super().__init__()
        self.base = base
        self.exponent = exponent

    def _payload(self):
        return (self.base, self.exponent)

    def _make_key(self):
        return (3, self.base.key(), self.exponent)

    def children(self):
        return (self.base,)


class _Func(Expr):
    __slots__ = ("arg",)
    fname = "?"
    rank = -1

    def __init__(self, arg):
        super().__init__()
        self.arg = arg

    def _payload(self):
        return (self.arg,)

    def _make_key(self):
        return (self.rank, self.arg.key())

    def children(self):
        return (self.arg,)


class Exp(_Func):
    __slots__ = ()
    fname = "exp"
    rank = 4


class Ln(_Func):
    __slots__ = ()
    fname = "ln"
    rank = 5


class Sin(_Func):
    __slots__ = ()
    fname = "sin"
    rank = 6


class Cos(_Func):
    __slots__ = ()
    fname = "cos"
    rank = 7


class Quot(Expr):
    __slots__ = ("num", "den")

    def __init__(self, num, den):
        super().__init__()
        self.num = num
        self.den = den

    def _payload(self):
        return (self.num, self.den)

    def _make_key(self):
        return (8, self.num.key(), self.den.key())

    def children(self):
        return (self.num, self.den)


class Mul(Expr):
    """Canonical product: flattened, single leading rational coefficient,
    at most one exp factor, remaining factors sorted."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        super().__init__()
        self.factors = factors

    def _payload(self):
        return (self.factors,)

    def _make_key(self):
        return (9,) + tuple(f.key() for f in self.factors)

    def children(self):
        return self.factors


class Add(Expr):
    """Canonical sum: flattened, like terms collected, terms sorted."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        super().__init__()
        self.terms = terms

    def _payload(self):
        return (self.terms,)

    def _make_key(self):
        return (10,) + tuple(t.key() for t in self.terms)

    def children(self):
        return self.terms


ZERO = Const(0)
ONE = Const(1)
MINUS_ONE = Const(-1)


def con(x):
    """Exact rational constant.  Floats go through their decimal repr."""
    if isinstance(x, Const):
        return x
    if isinstance(x, float):
        return Const(Fraction(repr(x)))
    return Const(Fraction(x))


def var(name):
    if name not in VARIABLES:
        raise ExprError(f"not a variable name: {name}")
    return Var(name)


def param(name):
    return Param(name)


def sym(name):
    return Var(name) if name in VARIABLES else Param(name)


def _coerce(x):
    if isinstance(x, Expr):
        return x
    return con(x)


def _split_coeff(t):
    """Decompose a canonical term into (rational coefficient, rest)."""
    if isinstance(t, Const):
        return t.value, ONE
    if isinstance(t, Mul) and isinstance(t.factors[0], Const):
        rest = t.factors[1:]
        if len(rest) == 1:
            return t.factors[0].value, rest[0]
        return t.factors[0].value, Mul(rest)
    return Fraction(1), t


def _with_coeff(c, rest):
    if rest is ONE:
        return Const(c)
    if c == 1:
        return rest
    if isinstance(rest, Mul):
        return Mul((Const(c),) + rest.factors)
    return Mul((Const(c), rest))


def add(*xs):
    buckets = {}
    order = []
    const = Fraction(0)

    def acc(t):
        nonlocal const
        if isinstance(t, Const):
            const += t.value
            return
        c, rest = _split_coeff(t)
        if isinstance(rest, Add):
            # a rational multiple of a sum distributes into the enclosing
            # sum, so that compound x - x collapses to zero
            for sub_ in rest.terms:
                acc(mul(Const(c), sub_))
            return
        k = rest.key()
        if k in buckets:
            buckets[k][0] += c
        else:
            buckets[k] = [c, rest]
            order.append(k)

    for x in xs:
        x = _coerce(x)
        if isinstance(x, Add):
            for t in x.terms:
                acc(t)
        else:
            acc(x)

    terms = [_with_coeff(c, rest) for c, rest in (buckets[k] for k in order) if c != 0]
    if const != 0:
        terms.append(Const(const))
    terms.sort(key=Expr.key)
    if not terms:
        return ZERO
    if len(terms) == 1:
        return terms[0]
    return Add(tuple(terms))


def mul(*xs):
    coeff = Fraction(1)
    exp_args = []
    bases = {}
    order = []

    def bump(base, e):
        k = base.key()
        if k in bases:
            bases[k][1] += e
        else:
            bases[k] = [base, e]
            order.append(k)

    def feed(f):
        nonlocal coeff
        if isinstance(f, Const):
            coeff *= f.value
        elif isinstance(f, Mul):
            for g in f.factors:
                feed(g)
        elif isinstance(f, Exp):
            exp_args.append(f.arg)
        elif isinstance(f, Pow):
            if isinstance(f.base, Exp):
                exp_args.append(mul(con(f.exponent), f.base.arg))
            else:
                bump(f.base, f.exponent)
        else:
            bump(f, 1)

    for x in xs:
        feed(_coerce(x))
    if coeff == 0:
        return ZERO

    factors = []
    for base, e in (bases[k] for k in order):
        if e == 0:
            continue
        p = pow_(base, e)
        if isinstance(p, Const):
            coeff *= p.value
        else:
            factors.append(p)
    if exp_args:
        ef = exp_(add(*exp_args))
        if isinstance(ef, Const):
            coeff *= ef.value
        else:
            factors.append(ef)
    if coeff == 0:
        return ZERO

    factors.sort(key=Expr.key)
    if not factors:
        return Const(coeff)
    if coeff == 1:
        if len(factors) == 1:
            return factors[0]
        return Mul(tuple(factors))
    return Mul((Const(coeff),) + tuple(factors))


def pow_(b, n):
    b = _coerce(b)
    if isinstance(n, Expr):
        if not (isinstance(n, Const) and n.value.denominator == 1):
            raise ExprError(f"exponent must be an integer constant: {n}")
        n = int(n.value)
    if isinstance(n, float):
        if n != int(n):
            raise ExprError(f"exponent must be an integer: {n}")
        n = int(n)
    n = int(n)
    if n == 1:
        return b
    if isinstance(b, Const):
        if b.value == 0 and n <= 0:
            raise DomainError("zero raised to a non-positive power")
        return Const(b.value**n)
    if n == 0:
        return ONE
    if isinstance(b, Pow):
        return pow_(b.base, b.exponent * n)
    if isinstance(b, Mul):
        return mul(*[pow_(f, n) for f in b.factors])
    if isinstance(b, Exp):
        return exp_(mul(con(n), b.arg))
    if isinstance(b, Quot):
        if n > 0:
            return quot(pow_(b.num, n), pow_(b.den, n))
        return quot(pow_(b.den, -n), pow_(b.num, -n))
    return Pow(b, n)


def quot(a, b):
    a = _coerce(a)
    b = _coerce(b)
    if isinstance(b, Const):
        if b.value == 0:
            raise DomainError("division by the zero constant")
        return mul(Const(1 / b.value), a)
    if a == ZERO:
        return ZERO
    if a == b:
        return ONE
    if isinstance(a, Quot):
        return quot(a.num, mul(a.den, b))
    if isinstance(b, Quot):
        return quot(mul(a, b.den), b.num)
    return Quot(a, b)


def neg(x):
    return mul(MINUS_ONE, x)


def sub(a, b):
    return add(a, neg(b))


def exp_(x):
    x = _coerce(x)
    if x == ZERO:
        return ONE
    return Exp(x)


def ln_(x):
    x = _coerce(x)
    if isinstance(x, Const):
        if x.value <= 0:
            raise DomainError("ln of a non-positive constant")
        if x.value == 1:
            return ZERO
    return Ln(x)


def sin_(x):
    x = _coerce(x)
    if x == ZERO:
        return ZERO
    return Sin(x)


def cos_(x):
    x = _coerce(x)
    if x == ZERO:
        return ONE
    return Cos(x)


_FUNC_BUILDERS = {"exp": exp_, "ln": ln_, "sin": sin_, "cos": cos_}


# ---------------------------------------------------------------------------
# differentiation / substitution / normalization


def differentiate(e, name):
    """Exact derivative of ``e`` with respect to the variable or
    parameter called ``name``; the result is in canonical form."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, (Var, Param)):
        return ONE if e.name == name else ZERO
    if isinstance(e, Add):
        return add(*[differentiate(t, name) for t in e.terms])
    if isinstance(e, Mul):
        fs = e.factors
        terms = []
        for i, f in enumerate(fs):
            d = differentiate(f, name)
            if d != ZERO:
                terms.append(mul(*fs[:i], d, *fs[i + 1 :]))
        return add(*terms)
    if isinstance(e, Pow):
        return mul(
            con(e.exponent), pow_(e.base, e.exponent - 1), differentiate(e.base, name)
        )
    if isinstance(e, Quot):
        da = differentiate(e.num, name)
        db = differentiate(e.den, name)
        return quot(sub(mul(da, e.den), mul(e.num, db)), pow_(e.den, 2))
    if isinstance(e, Exp):
        return mul(e, differentiate(e.arg, name))
    if isinstance(e, Ln):
        return quot(differentiate(e.arg, name), e.arg)
    if isinstance(e, Sin):
        return mul(cos_(e.arg), differentiate(e.arg, name))
    if isinstance(e, Cos):
        return mul(MINUS_ONE, sin_(e.arg), differentiate(e.arg, name))
    raise ExprError(f"cannot differentiate node {type(e).__name__}")


def substitute(e, mapping, replacement=None):
    """Replace symbols by expressions, then expand-normalize.

    Accepts either ``substitute(e, {"x": expr, ...})`` or the two-argument
    form ``substitute(e, "x", expr)``.  The result is expanded so that
    changes of variables collapse their exponential weights, e.g.
    ``exp(2*alpha*t)*(x^2 - 2*alpha*z)`` under ``x -> u*exp(-alpha*t)``,
    ``z -> w*exp(-2*alpha*t)`` comes back as ``u^2 - 2*alpha*w``.
    """
    if replacement is not None:
        mapping = {mapping: replacement}
    mapping = {k: _coerce(v) for k, v in mapping.items()}
    if not (e.free_symbols() & set(mapping)):
        return e

    def walk(n):
        if isinstance(n, (Var, Param)):
            return mapping.get(n.name, n)
        if isinstance(n, Const):
            return n
        if isinstance(n, Add):
            return add(*[walk(t) for t in n.terms])
        if isinstance(n, Mul):
            return mul(*[walk(f) for f in n.factors])
        if isinstance(n, Pow):
            return pow_(walk(n.base), n.exponent)
        if isinstance(n, Quot):
            return quot(walk(n.num), walk(n.den))
        if isinstance(n, _Func):
            return _FUNC_BUILDERS[n.fname](walk(n.arg))
        raise ExprError(f"cannot substitute into node {type(n).__name__}")

    return expand(walk(e))


def simplify(e):
    """Re-normalize a tree through the canonical constructors.

    Idempotent; trees built through this module are already canonical.
    """
    if isinstance(e, (Const, Var, Param)):
        return e
    if isinstance(e, Add):
        return add(*[simplify(t) for t in e.terms])
    if isinstance(e, Mul):
        return mul(*[simplify(f) for f in e.factors])
    if isinstance(e, Pow):
        return pow_(simplify(e.base), e.exponent)
    if isinstance(e, Quot):
        return quot(simplify(e.num), simplify(e.den))
    if isinstance(e, _Func):
        return _FUNC_BUILDERS[e.fname](simplify(e.arg))
    raise ExprError(f"cannot simplify node {type(e).__name__}")


def _mulx(a, b):
    if isinstance(a, Add):
        return add(*[_mulx(t, b) for t in a.terms])
    if isinstance(b, Add):
        return add(*[_mulx(a, t) for t in b.terms])
    return mul(a, b)


def expand(e):
    """Distribute products and positive integer powers over sums, then
    normalize.  Quotient denominators are left intact."""
    if isinstance(e, (Const, Var, Param)):
        return e
    if isinstance(e, Add):
        return add(*[expand(t) for t in e.terms])
    if isinstance(e, Mul):
        out = ONE
        for f in e.factors:
            out = _mulx(out, expand(f))
        return out
    if isinstance(e, Pow):
        base = expand(e.base)
        if isinstance(base, Add) and e.exponent > 1:
            out = base
            for _ in range(e.exponent - 1):
                out = _mulx(out, base)
            return out
        return pow_(base, e.exponent)
    if isinstance(e, Quot):
        return quot(expand(e.num), expand(e.den))
    if isinstance(e, _Func):
        return _FUNC_BUILDERS[e.fname](expand(e.arg))
    raise ExprError(f"cannot expand node {type(e).__name__}")


# ---------------------------------------------------------------------------
# numeric evaluation


def evaluate(e, bindings):
    """IEEE-double evaluation with every free symbol bound.

    Raises UnboundSymbolError for missing symbols and DomainError for
    ln of non-positive values, division by zero, or overflow.
    """
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, (Var, Param)):
        try:
            return float(bindings[e.name])
        except KeyError:
            raise UnboundSymbolError(e.name) from None
    if isinstance(e, Add):
        return math.fsum(evaluate(t, bindings) for t in e.terms)
    if isinstance(e, Mul):
        out = 1.0
        for f in e.factors:
            out *= evaluate(f, bindings)
        return out
    if isinstance(e, Pow):
        b = evaluate(e.base, bindings)
        try:
            return b**e.exponent
        except (ZeroDivisionError, OverflowError) as err:
            raise DomainError(str(err)) from None
    if isinstance(e, Quot):
        den = evaluate(e.den, bindings)
        if den == 0.0:
            raise DomainError("division by zero")
        return evaluate(e.num, bindings) / den
    if isinstance(e, Exp):
        try:
            return math.exp(evaluate(e.arg, bindings))
        except OverflowError:
            raise DomainError("exp overflow") from None
    if isinstance(e, Ln):
        a = evaluate(e.arg, bindings)
        if a <= 0.0:
            raise DomainError("ln of a non-positive value")
        return math.log(a)
    if isinstance(e, Sin):
        return math.sin(evaluate(e.arg, bindings))
    if isinstance(e, Cos):
        return math.cos(evaluate(e.arg, bindings))
    raise ExprError(f"cannot evaluate node {type(e).__name__}")


def _emit(e, names):
    if isinstance(e, Const):
        return repr(float(e.value))
    if isinstance(e, (Var, Param)):
        if e.name not in names:
            raise UnboundSymbolError(e.name)
        return e.name
    if isinstance(e, Add):
        return "(" + "+".join(_emit(t, names) for t in e.terms) + ")"
    if isinstance(e, Mul):
        return "(" + "*".join(_emit(f, names) for f in e.factors) + ")"
    if isinstance(e, Pow):
        return f"({_emit(e.base, names)}**{e.exponent})"
    if isinstance(e, Quot):
        return f"({_emit(e.num, names)}/{_emit(e.den, names)})"
    if isinstance(e, Exp):
        return f"_exp({_emit(e.arg, names)})"
    if isinstance(e, Ln):
        return f"_ln({_emit(e.arg, names)})"
    if isinstance(e, Sin):
        return f"_sin({_emit(e.arg, names)})"
    if isinstance(e, Cos):
        return f"_cos({_emit(e.arg, names)})"
    raise ExprError(f"cannot compile node {type(e).__name__}")


_SCALAR_ENV = {"_exp": math.exp, "_ln": math.log, "_sin": math.sin, "_cos": math.cos}
_ARRAY_ENV = {"_exp": np.exp, "_ln": np.log, "_sin": np.sin, "_cos": np.cos}


def _lambda(body, exprs, names, env):
    for e in exprs:
        missing = e.free_symbols() - set(names)
        if missing:
            raise UnboundSymbolError(sorted(missing)[0])
    return eval(f"lambda {', '.join(names)}: {body}", dict(env, __builtins__={}))


def compile_fn(e, names):
    """Compile to a positional-argument Python function for hot loops.

    Evaluation semantics match :func:`evaluate` except for error types:
    the compiled function raises ZeroDivisionError/ValueError/OverflowError
    rather than DomainError, and float sums are plain ``+`` rather than
    fsum.  This scalar path serves per-step callers (the integrator's
    right-hand side and monitors); sampled statistics go through
    :func:`compile_array`, whose numpy ufuncs may differ from ``math`` in
    the last bits, so reports are byte-identical run to run but not
    bit-identical to a scalar evaluation of the same points.
    """
    names = tuple(names)
    return _lambda(_emit(e, names), (e,), names, _SCALAR_ENV)


def compile_vector(exprs, names):
    """Compile several expressions into one tuple-returning function."""
    names = tuple(names)
    body = ", ".join(_emit(e, names) for e in exprs)
    return _lambda(f"({body},)", exprs, names, _SCALAR_ENV)


def compile_array(exprs, names):
    """Compile expressions for evaluation over many points at once.

    The result maps an ``(n, len(names))`` float array of points (one
    column per name) to an ``(n, len(exprs))`` array of values.  Constant
    expressions broadcast down their column.  Evaluation uses numpy
    ufuncs with floating-point warnings silenced: ln of a non-positive
    value, division by zero and overflow leave a non-finite entry, which
    callers treat as a domain failure at that point.
    """
    names = tuple(names)
    exprs = tuple(exprs)
    body = ", ".join(_emit(e, names) for e in exprs)
    columns = _lambda(f"({body},)" if exprs else "()", exprs, names, _ARRAY_ENV)

    def evaluate_points(points):
        P = np.asarray(points, dtype=float)
        out = np.empty((P.shape[0], len(exprs)))
        with np.errstate(all="ignore"):
            for j, col in enumerate(columns(*np.ascontiguousarray(P.T))):
                out[:, j] = col
        return out

    return evaluate_points


# ---------------------------------------------------------------------------
# printing

_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4


def _prec(e):
    if isinstance(e, Add):
        return _PREC_ADD
    if isinstance(e, (Mul, Quot)):
        return _PREC_MUL
    if isinstance(e, Pow):
        return _PREC_POW
    if isinstance(e, Const):
        if e.value < 0:
            return _PREC_ADD
        if e.value.denominator != 1:
            return _PREC_MUL
    return _PREC_ATOM


def _render(e, ctx_prec):
    s = _render_raw(e)
    if _prec(e) < ctx_prec:
        return f"({s})"
    return s


def _render_raw(e):
    if isinstance(e, Const):
        v = e.value
        if v.denominator == 1:
            return str(v.numerator)
        return f"{v.numerator}/{v.denominator}"
    if isinstance(e, (Var, Param)):
        return e.name
    if isinstance(e, _Func):
        return f"{e.fname}({_render_raw(e.arg)})"
    if isinstance(e, Pow):
        b = _render(e.base, _PREC_ATOM)
        if e.exponent < 0:
            return f"{b}^({e.exponent})"
        return f"{b}^{e.exponent}"
    if isinstance(e, Quot):
        return f"{_render(e.num, _PREC_MUL)}/{_render(e.den, _PREC_POW)}"
    if isinstance(e, Mul):
        c, rest = _split_coeff(e)
        sign = ""
        if c < 0:
            sign = "-"
            c = -c
        parts = []
        if c != 1:
            parts.append(_render(Const(c), _PREC_MUL))
        if isinstance(rest, Mul):
            parts.extend(_render(f, _PREC_POW) for f in rest.factors)
        else:
            parts.append(_render(rest, _PREC_POW))
        return sign + "*".join(parts)
    if isinstance(e, Add):
        out = _render(e.terms[0], _PREC_ADD)
        for t in e.terms[1:]:
            c, rest = _split_coeff(t)
            if c < 0:
                out += " - " + _render(_with_coeff(-c, rest), _PREC_MUL)
            else:
                out += " + " + _render(t, _PREC_MUL)
        return out
    raise ExprError(f"cannot print node {type(e).__name__}")


def to_text(e):
    """Render in the grammar; printing a canonical tree re-parses to an
    identical tree."""
    return _render_raw(e)


# ---------------------------------------------------------------------------
# parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, at = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", at)
        self.take()

    def parse(self):
        e = self.expr()
        kind, val, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", at)
        return e

    def expr(self):
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                e = add(e, rhs) if val == "+" else sub(e, rhs)
            else:
                return e

    def term(self):
        e = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.factor()
                e = mul(e, rhs) if val == "*" else quot(e, rhs)
            else:
                return e

    def factor(self):
        # every nesting construct recurses through here, so one counter
        # bounds the recursion depth of the whole parser
        kind, val, at = self.peek()
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels", at)
        if kind == "op" and val == "-":
            self.take()
            e = neg(self.factor())
        else:
            e = self.power()
        self.depth -= 1
        return e

    def power(self):
        base = self.atom()
        kind, val, at = self.peek()
        if kind == "op" and val == "^":
            self.take()
            expo = self.factor()
            if not (isinstance(expo, Const) and expo.value.denominator == 1):
                raise NonIntegerExponentError("exponent must be an integer", at)
            return pow_(base, int(expo.value))
        return base

    def atom(self):
        kind, val, at = self.take()
        if kind == "num":
            return Const(Fraction(val))
        if kind == "ident":
            nkind, nval, _ = self.peek()
            if nkind == "op" and nval == "(":
                if val not in FUNCTIONS:
                    raise UnknownFunctionError(f"unknown function {val!r}", at)
                self.take()
                arg = self.expr()
                self.expect_op(")")
                return _FUNC_BUILDERS[val](arg)
            if val in FUNCTIONS:
                raise ParseError(f"function {val!r} requires an argument list", at)
            return sym(val)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token {val!r}" if val else "unexpected end of input", at)


def parse(text):
    """Parse grammar text into a canonical Expr."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# probabilistic equality oracle


@dataclass(frozen=True)
class EqualNumericResult:
    equal: bool
    max_abs_dev: float
    max_rel_dev: float
    worst_point: dict
    samples: int

    def __bool__(self):
        return self.equal


def equal_numeric(e1, e2, domain, n=200, tol=1e-10, seed=42):
    """Seeded sampling test of ``e1 == e2`` over a box.

    ``domain`` maps every free symbol of either expression to an
    ``(lo, hi)`` interval.  Equality holds when
    ``|e1 - e2| <= tol * (1 + |e1|)`` at all ``n`` points.  Points where
    either side is not finite (a domain error) are resampled, with a
    total budget of ``10*n`` draws before failure.
    """
    from .sampling import SeededSampler, sample_box

    if n < 1:
        raise ValueError("n must be >= 1")
    symbols = sorted(e1.free_symbols() | e2.free_symbols())
    missing = [s for s in symbols if s not in domain]
    if missing:
        raise ExprError(f"domain missing intervals for: {', '.join(missing)}")
    f = compile_array((e1, e2), symbols)
    names, P = sample_box(
        SeededSampler(seed),
        {s: domain[s] for s in symbols},
        n,
        keep=lambda P: np.isfinite(f(P)).all(axis=1),
    )
    a, b = f(P).T
    dev = np.abs(a - b)
    rel = dev / (1.0 + np.abs(a))
    i = int(np.argmax(rel))
    return EqualNumericResult(
        not np.any(dev > tol * (1.0 + np.abs(a))),
        float(dev[i]),
        float(rel[i]),
        {s: float(x) for s, x in zip(names, P[i])},
        n,
    )
