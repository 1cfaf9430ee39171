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
so differentiation and like-term collection never drift.  A constant
with an integral value is held as a Python ``int`` and any other as a
``Fraction``; the two compare and hash equal, so either gives the same
term keys, ordering and text, and integer arithmetic stays cheap.  Every
division of constants goes through ``Fraction``, since ``int / int`` is
a float.

Division is a negative power: ``a/b`` is ``a*b^(-1)``, and the printer
writes negative powers back below a ``/``.

Every constructor normalizes its result: constant folding, 0/1
identities, flattening of nested sums/products, collection of identical
terms with rational coefficients, summing the integer exponents of equal
bases (so ``u*(1/u)`` is 1), and ``exp(a)*exp(b) -> exp(a+b)``.  Trees
built through this module are therefore always in normal form,
``simplify`` re-normalizes defensively, and any expression that cancels
under those rules is the literal zero constant.  No factor of a
canonical product is a product and no term of a canonical sum is a sum,
so ``add`` and ``mul`` read their arguments in one flat loop.  Other
modules take a canonical tree apart with ``terms``, ``split_coeff`` and
``split_exp`` only, and ``independent`` is the one definition of the
terms whose distinct instances are independent functions.

``expand`` additionally distributes products and positive integer powers
over sums (a power of a sum by the multinomial theorem).  It is
idempotent, and it marks each of its results, so expanding an expanded
tree again returns it at once.  Sums over different denominators are
not brought to a common one, so ``1/(1+u) + 1/(1-u) - 2/(1-u^2)`` does
not expand to zero; ``is_zero``, the one exact zero test, brings them
to one with ``clear_denominators`` and shows it is.

Expressions are immutable; evaluation, differentiation and substitution
are reentrant.
"""

from __future__ import annotations

import functools
import keyword
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

VARIABLES = ("t", "u", "v", "w", "x", "y", "z")
TIME = "t"  # the one time variable; a frame holds three of the others
FUNCTIONS = ("exp", "ln", "sin", "cos")
MAX_NESTING = 100  # parser limit on nested parentheses, unary minus and ^
MAX_EXPONENT = 1000  # largest |n| of an integer power; constant powers also cap their size
MAX_TERMS = 10_000  # most term products one multiplication or power inside expand may form


class ExprError(Exception):
    """Base class for expression-layer failures."""


class InputError(ExprError):
    """Input the program refuses: text, files, options or sizes.  Every
    biham3 error that means "bad input" derives from it, and the CLI
    exits 2 on it and on nothing else."""


class ParseError(InputError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NonIntegerExponentError(ParseError):
    pass


class LimitError(InputError):
    """An expression past MAX_EXPONENT or MAX_TERMS, or a constant that
    no float holds."""


class UnknownFunctionError(ParseError):
    pass


class UnboundSymbolError(ExprError):
    def __init__(self, name):
        super().__init__(f"unbound symbol: {name}")
        self.name = name


class DomainError(ExprError):
    """ln of a non-positive value, division by zero, overflow."""


class ParseDomainError(ParseError, DomainError):
    """A domain error among the constants of expression text (``1/0``,
    ``ln(-1)``): bad input, so a ParseError, and also a DomainError."""


class Expr:
    """Base node.  Subclasses carry the payload; instances are immutable."""

    # _expanded marks a result of expand (a fixed point of it); like the
    # caches, it takes no part in == or hash
    __slots__ = ("_hash", "_keyc", "_symc", "_expanded")

    def __init__(self):
        self._hash = None
        self._keyc = None
        self._symc = None
        self._expanded = False

    def _payload(self):
        raise NotImplementedError

    def __eq__(self, other):
        return self is other or (
            type(self) is type(other) and self._payload() == other._payload()
        )

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

    def __str__(self):
        return to_text(self)

    def __repr__(self):
        return to_text(self)


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        super().__init__()
        if type(value) is not int:
            value = value if isinstance(value, Fraction) else Fraction(value)
            if value.denominator == 1:
                value = int(value.numerator)
        self.value = value

    def _payload(self):
        return (self.value,)

    def _make_key(self):
        return (0, self.value)


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
    return Const(x)


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


def terms(e):
    """The terms of a canonical expression: a sum's, or ``(e,)``."""
    return e.terms if isinstance(e, Add) else (e,)


def split_coeff(t):
    """Decompose a canonical term into (rational coefficient, rest)."""
    if isinstance(t, Const):
        return t.value, ONE
    if isinstance(t, Mul) and isinstance(t.factors[0], Const):
        rest = t.factors[1:]
        if len(rest) == 1:
            return t.factors[0].value, rest[0]
        return t.factors[0].value, Mul(rest)
    return 1, t


def split_exp(t):
    """Split a canonical term into (m, w) with t = m*w, where w is its exp
    factor, or None when it has none."""
    fs = t.factors if isinstance(t, Mul) else (t,)
    for i, f in enumerate(fs):
        if isinstance(f, Exp):
            return mul(*fs[:i], *fs[i + 1 :]), f
    return t, None


def _with_coeff(c, rest):
    if rest is ONE:
        return Const(c)
    if c == 1:
        return rest
    if isinstance(rest, Mul):
        return Mul((Const(c),) + rest.factors)
    return Mul((Const(c), rest))


def add(*xs):
    buckets = {}  # key of a term's rest -> [summed coefficient, rest]
    const = 0
    work = []
    for x in xs:
        x = _coerce(x)
        work.extend(x.terms if isinstance(x, Add) else (x,))
    # a work list, read as it grows: the loop appends the terms that a
    # rational multiple of a sum distributes into the enclosing sum, so
    # that compound x - x collapses to zero
    for t in work:
        if isinstance(t, Const):
            const += t.value
            continue
        c, rest = split_coeff(t)
        if isinstance(rest, Add):
            work.extend(mul(Const(c), s) for s in rest.terms)
            continue
        k = rest.key()
        if k in buckets:
            buckets[k][0] += c
        else:
            buckets[k] = [c, rest]

    out = [_with_coeff(c, rest) for c, rest in buckets.values() if c != 0]
    if const != 0:
        out.append(Const(const))
    out.sort(key=Expr.key)
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return Add(tuple(out))


def mul(*xs):
    coeff = 1
    exp_args = []
    bases = {}  # key of a base -> [base, summed exponent]
    for x in xs:
        x = _coerce(x)
        for f in x.factors if isinstance(x, Mul) else (x,):
            if isinstance(f, Const):
                coeff *= f.value
            elif isinstance(f, Exp):
                exp_args.append(f.arg)
            else:
                base, e = (f.base, f.exponent) if isinstance(f, Pow) else (f, 1)
                k = base.key()
                if k in bases:
                    bases[k][1] += e
                else:
                    bases[k] = [base, e]
    if coeff == 0:
        return ZERO

    factors = []
    for base, e in bases.values():
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
    if isinstance(n, Const):
        n = n.value
    if isinstance(n, Expr) or n != int(n):
        raise ExprError(f"exponent must be an integer constant: {n}")
    n = int(n)
    if n == 1:
        return b
    if abs(n) > MAX_EXPONENT:
        raise LimitError(f"exponent {n} exceeds the limit of {MAX_EXPONENT}")
    if isinstance(b, Const):
        if b.value == 0 and n <= 0:
            raise DomainError("zero raised to a non-positive power")
        bits = max(b.value.numerator.bit_length(), b.value.denominator.bit_length())
        if bits * abs(n) > MAX_EXPONENT**2:
            raise LimitError(f"constant power with exponent {n} exceeds {MAX_EXPONENT**2} bits")
        return Const(Fraction(b.value) ** n)
    if n == 0:
        return ONE
    if isinstance(b, Pow):
        return pow_(b.base, b.exponent * n)
    if isinstance(b, Mul):
        return mul(*[pow_(f, n) for f in b.factors])
    if isinstance(b, Exp):
        return exp_(mul(con(n), b.arg))
    return Pow(b, n)


def quot(a, b):
    a = _coerce(a)
    b = _coerce(b)
    if isinstance(b, Const):
        if b.value == 0:
            raise DomainError("division by the zero constant")
        return mul(Const(Fraction(1, b.value)), a)
    return mul(a, pow_(b, -1))


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
    if isinstance(e, Exp):
        return mul(e, differentiate(e.arg, name))
    if isinstance(e, Ln):
        return quot(differentiate(e.arg, name), e.arg)
    if isinstance(e, Sin):
        return mul(cos_(e.arg), differentiate(e.arg, name))
    if isinstance(e, Cos):
        return mul(MINUS_ONE, sin_(e.arg), differentiate(e.arg, name))
    raise ExprError(f"cannot differentiate node {type(e).__name__}")


def substitute(e, mapping):
    """Replace symbols by expressions, ``substitute(e, {"x": expr, ...})``,
    then expand-normalize.

    The result is expanded so that changes of variables collapse their
    exponential weights, e.g. ``exp(2*alpha*t)*(x^2 - 2*alpha*z)`` under
    ``x -> u*exp(-alpha*t)``, ``z -> w*exp(-2*alpha*t)`` comes back as
    ``u^2 - 2*alpha*w``.
    """
    mapping = {k: _coerce(v) for k, v in mapping.items()}
    if not (e.free_symbols() & set(mapping)):
        return e
    return expand(_rebuild(e, mapping))


def simplify(e):
    """Re-normalize a tree through the canonical constructors.

    Idempotent; trees built through this module are already canonical.
    """
    return _rebuild(e, {})


def _rebuild(n, mapping):
    """``n`` rebuilt bottom-up through the canonical constructors, with
    each symbol named in ``mapping`` replaced by its expression."""
    if isinstance(n, (Var, Param)):
        return mapping.get(n.name, n)
    if isinstance(n, Const):
        return n
    if isinstance(n, Add):
        return add(*[_rebuild(t, mapping) for t in n.terms])
    if isinstance(n, Mul):
        return mul(*[_rebuild(f, mapping) for f in n.factors])
    if isinstance(n, Pow):
        return pow_(_rebuild(n.base, mapping), n.exponent)
    if isinstance(n, _Func):
        return _FUNC_BUILDERS[n.fname](_rebuild(n.arg, mapping))
    raise ExprError(f"cannot rebuild node {type(n).__name__}")


def _check_terms(n):
    if n > MAX_TERMS:
        raise LimitError(
            f"expansion would form {n} term products, more than the limit of {MAX_TERMS}"
        )


def _mulx(a, b):
    if isinstance(a, Add):
        if isinstance(b, Add):
            _check_terms(len(a.terms) * len(b.terms))
        return add(*[_mulx(t, b) for t in a.terms])
    if isinstance(b, Add):
        return add(*[_mulx(a, t) for t in b.terms])
    return mul(a, b)


def expand(e):
    """Distribute products and positive integer powers over sums, then
    normalize.  A negative power of a sum stays a power of its expanded
    sum, so ``(u/(1+v))^2`` expands to ``u^2/(1 + v)^2``.

    A power of a sum is expanded by the multinomial theorem, one product
    of powers of its terms per composition of the exponent.

    Idempotent: the result is marked as expanded, and a marked tree is
    returned as it is.  Raises LimitError, before multiplying, when a
    product of two sums would form more than MAX_TERMS term products, or
    a power of a sum would have more than MAX_TERMS compositions.
    """
    if e._expanded:
        return e
    out = _expand(e)
    out._expanded = True
    return out


def _compositions(n, m):
    """Every tuple of m non-negative integers that sum to n."""
    if m == 1:
        yield (n,)
        return
    for k in range(n, -1, -1):
        for rest in _compositions(n - k, m - 1):
            yield (k,) + rest


def _power_of_sum(terms, n):
    """``(t_1 + ... + t_m)^n`` by the multinomial theorem: one product per
    composition k of n over the m terms, with coefficient
    n!/(k_1!*...*k_m!).  Each product is expanded, because ``pow_`` of a
    term can form an unexpanded one (``exp(2*(a + b))``)."""
    _check_terms(math.comb(n + len(terms) - 1, len(terms) - 1))
    powers = [[pow_(t, k) for k in range(n + 1)] for t in terms]
    fact = [math.factorial(k) for k in range(n + 1)]
    products = []
    for ks in _compositions(n, len(terms)):
        coeff = fact[n] // math.prod(fact[k] for k in ks)
        products.append(expand(mul(coeff, *[p[k] for p, k in zip(powers, ks)])))
    return add(*products)


def _expand(e):
    """Expand the children, then rebuild.  A node whose children come back
    as the same objects is returned as it is (unless it is a product with
    a sum to distribute), because rebuilding it would give an equal tree.
    A power whose base changed is expanded again, because ``pow_`` of an
    expanded product can form a new, unexpanded product."""
    if isinstance(e, (Const, Var, Param)):
        return e
    if isinstance(e, Add):
        terms = [expand(t) for t in e.terms]
        if all(a is b for a, b in zip(terms, e.terms)):
            return e
        return add(*terms)
    if isinstance(e, Mul):
        factors = [expand(f) for f in e.factors]
        if not any(isinstance(f, Add) for f in factors) and all(
            a is b for a, b in zip(factors, e.factors)
        ):
            return e
        return functools.reduce(_mulx, factors)
    if isinstance(e, Pow):
        base = expand(e.base)
        n = e.exponent
        if isinstance(base, Add) and n > 1:
            return _power_of_sum(base.terms, n)
        if base is e.base:
            return e
        return expand(pow_(base, n))
    if isinstance(e, _Func):
        arg = expand(e.arg)
        return e if arg is e.arg else _FUNC_BUILDERS[e.fname](arg)
    raise ExprError(f"cannot expand node {type(e).__name__}")


def clear_denominators(exprs):
    """The expanded ``exprs``, each multiplied by one common denominator
    and expanded again until no term holds a sum to a negative power;
    when no term does, the list of the same objects.  A pass multiplies
    by the product of every such sum, each once at its highest power, so
    ``mul`` cancels them term by term; a sum nested in a denominator is
    left for the next pass.  The factor is nonzero wherever the exprs are
    defined, so the results vanish exactly where the exprs do (Geddes,
    Czapor & Labahn, Algorithms for Computer Algebra, 1992, ch. 2).
    Negative powers of a variable or a function, and sums inside a
    function's argument, stay as they are.  Raises LimitError as
    ``expand`` does."""
    exprs = list(exprs)
    while True:
        powers = {}
        for e in exprs:
            for t in terms(e):
                for f in t.factors if isinstance(t, Mul) else (t,):
                    if isinstance(f, Pow) and f.exponent < 0 and isinstance(f.base, Add):
                        powers[f.base] = min(powers.get(f.base, 0), f.exponent)
        if not powers:
            return exprs
        d = mul(*[pow_(b, -n) for b, n in powers.items()])
        exprs = [expand(add(*[mul(t, d) for t in terms(e)])) for e in exprs]


def is_zero(e):
    """Whether ``e`` is identically zero, decided exactly: it expands to
    ZERO, or the numerator ``clear_denominators`` leaves does, so
    ``1/(1+u) + 1/(1-u) - 2/(1-u^2)`` is zero.  False means only that the
    normal form does not show it: a dependence such as
    ``sin(u)^2 + cos(u)^2 = 1``, or a numerator past MAX_TERMS.  A
    LimitError of ``expand(e)`` itself propagates."""
    e = expand(e)
    if e == ZERO:
        return True
    try:
        return clear_denominators((e,))[0] == ZERO
    except LimitError:
        return False


def _laurent(e):
    """Whether ``e`` is a rational multiple of a product of integer powers
    of variables."""
    return all(
        isinstance(f.base if isinstance(f, Pow) else f, (Var, Const))
        for f in (e.factors if isinstance(e, Mul) else (e,))
    )


def independent(t):
    """Whether the canonical term ``t`` is, up to its rational coefficient,
    a Laurent monomial (integer powers of variables, negative ones
    included, so ``v/u`` is one) times at most one exp of a sum of Laurent
    monomials without a constant term.

    This is the one definition of the class in which distinct terms are
    linearly independent functions, so that a sum of such terms is zero
    only when every coefficient of its normal form is.  Any other term (an
    ln, sin or cos, a parameter, a sum inside a power or a function, an
    exp with a constant term) can depend on others, as ``sin(u)^2``,
    ``cos(u)^2`` and 1 do."""
    m, w = split_exp(t)
    return _laurent(m) and (
        w is None or all(not isinstance(a, Const) and _laurent(a) for a in terms(w.arg))
    )


# ---------------------------------------------------------------------------
# numeric evaluation


def to_float(value, what="a constant"):
    """``float(value)``; LimitError for a number past the float range,
    which is bad input wherever it is evaluated."""
    try:
        return float(value)
    except OverflowError:
        raise LimitError(f"{what} is outside the float range") from None


def evaluate(e, bindings):
    """IEEE-double evaluation with every free symbol bound.

    Raises UnboundSymbolError for missing symbols, LimitError for a
    constant past the float range, and DomainError for ln of
    non-positive values, division by zero, or overflow.
    """
    if isinstance(e, Const):
        return to_float(e.value)
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
        if b == 0.0 and e.exponent < 0:
            raise DomainError("division by zero")
        try:
            return b**e.exponent
        except OverflowError as err:
            raise DomainError(str(err)) from None
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


def _emit(e, names, shared, bound):
    if isinstance(e, Const):
        return repr(to_float(e.value))
    if isinstance(e, (Var, Param)):
        if e.name not in names:
            raise UnboundSymbolError(e.name)
        return e.name
    if isinstance(e, Add):
        return "(" + "+".join(_emit(t, names, shared, bound) for t in e.terms) + ")"
    if isinstance(e, Mul):
        return "(" + "*".join(_emit(f, names, shared, bound) for f in e.factors) + ")"
    if isinstance(e, Pow):
        return f"({_emit(e.base, names, shared, bound)}**{e.exponent})"
    if isinstance(e, _Func):
        name = shared.get(e)
        if name in bound:
            return name
        call = f"_{e.fname}({_emit(e.arg, names, shared, bound)})"
        if name is None:
            return call
        bound.add(name)
        return f"({name} := {call})"
    raise ExprError(f"cannot compile node {type(e).__name__}")


def _sources(exprs, names):
    """The source of each expression, in one scope.  A function node
    (exp, ln, sin, cos) that occurs more than once is evaluated once: its
    first occurrence binds it with ``:=`` and the later ones read the
    name.  Python evaluates the emitted operands left to right, so the
    first occurrence is the first evaluated, and every value and every
    error is the same as with each occurrence evaluated anew."""
    counts = {}
    stack = list(exprs)
    while stack:
        e = stack.pop()
        if isinstance(e, _Func):
            counts[e] = counts.get(e, 0) + 1
            if counts[e] > 1:
                continue  # its arguments are counted once, as emitted
        stack.extend(e.children())
    shared = {e: f"_s{k}" for k, e in enumerate(e for e, n in counts.items() if n > 1)}
    bound = set()
    return [_emit(e, names, shared, bound) for e in exprs]


_SCALAR_ENV = {"_exp": math.exp, "_ln": math.log, "_sin": math.sin, "_cos": math.cos}
_ARRAY_ENV = {"_exp": np.exp, "_ln": np.log, "_sin": np.sin, "_cos": np.cos}


def _lambda(body, exprs, names, env):
    # the names become the lambda's parameters in generated source, which
    # keeps names starting with '_' for its own (the functions, shared values)
    for name in names:
        if not name.isidentifier() or keyword.iskeyword(name) or name.startswith("_"):
            raise ExprError(f"{name!r} cannot name an argument of a compiled function")
    if len(set(names)) != len(names):
        raise ExprError(f"argument names {names} repeat a name")
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
    return _lambda(_sources((e,), names)[0], (e,), names, _SCALAR_ENV)


def compile_vector(exprs, names):
    """Compile several expressions into one tuple-returning function."""
    names = tuple(names)
    body = ", ".join(_sources(exprs, names))
    return _lambda(f"({body},)", exprs, names, _SCALAR_ENV)


def compile_columns(exprs, names):
    """Compile expressions into ``f(*columns)`` over numpy arrays.

    Each argument is one array of values (one per name, all of one
    shape); the result is a tuple with one array per expression, except
    that a constant expression stays a Python float, which broadcasts.
    The caller chooses the ``np.errstate``.
    """
    names = tuple(names)
    body = ", ".join(_sources(exprs, names))
    return _lambda(f"({body},)" if exprs else "()", exprs, names, _ARRAY_ENV)


def compile_array(exprs, names):
    """Compile expressions for evaluation over many points at once.

    The result maps an ``(n, len(names))`` float array of points (one
    column per name) to an ``(n, len(exprs))`` array of values.  Constant
    expressions broadcast down their column.  Evaluation uses numpy
    ufuncs with floating-point warnings silenced: ln of a non-positive
    value, division by zero and overflow leave a non-finite entry, which
    callers treat as a domain failure at that point.
    """
    exprs = tuple(exprs)
    columns = compile_columns(exprs, names)

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
    if isinstance(e, Mul) or (isinstance(e, Pow) and e.exponent < 0):
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


def _digits(n):
    """``str(n)``; LimitError past Python's digit limit, which the parser
    also keeps, so printed text re-parses."""
    try:
        return str(n)
    except ValueError:
        raise LimitError(f"constant longer than {sys.get_int_max_str_digits()} digits") from None


def _render_raw(e):
    if isinstance(e, Const):
        v = e.value
        if v.denominator == 1:
            return _digits(v.numerator)
        return f"{_digits(v.numerator)}/{_digits(v.denominator)}"
    if isinstance(e, (Var, Param)):
        return e.name
    if isinstance(e, _Func):
        return f"{e.fname}({_render_raw(e.arg)})"
    if isinstance(e, Pow) and e.exponent > 0:
        return f"{_render(e.base, _PREC_ATOM)}^{e.exponent}"
    if isinstance(e, (Mul, Pow)):
        # negative powers, with the coefficient's denominator, go below a /
        c, rest = split_coeff(e)
        sign = "-" if c < 0 else ""
        c = abs(c)
        num, den = [], []
        for f in rest.factors if isinstance(rest, Mul) else (rest,):
            if isinstance(f, Pow) and f.exponent < 0:
                den.append(pow_(f.base, -f.exponent))
            else:
                num.append(f)
        if den and c.denominator != 1:
            den.insert(0, Const(c.denominator))
            c = c.numerator
        parts = [_render(Const(c), _PREC_MUL)] if c != 1 else []
        parts.extend(_render(f, _PREC_POW) for f in num)
        out = sign + ("*".join(parts) or "1")
        if len(den) > 1:
            return f"{out}/({'*'.join(_render(f, _PREC_POW) for f in den)})"
        return f"{out}/{_render(den[0], _PREC_POW)}" if den else out
    if isinstance(e, Add):
        out = _render(e.terms[0], _PREC_ADD)
        for t in e.terms[1:]:
            c, rest = split_coeff(t)
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


# a NUMBER with an optional sign, or a quotient of integers: the text that
# ``Fraction`` reads, without digit separators
_NUMBER_RE = re.compile(r"\s*([-+]?)(?=\.?\d)(\d*)(?:/(\d+)|(?:\.(\d*))?(?:[eE]([-+]?\d+))?)\s*")


def number(text, at=0):
    """The exact rational of a NUMBER with an optional sign (``-0.5``,
    ``1e-6``), or of a quotient of two integers (``1/3``).  Raises
    ParseError, at position ``at``, for other text and, before building
    it, for a number past the cap of a constant power (MAX_EXPONENT**2
    bits, counted from its digits and exponent) or longer than Python's
    digit limit (``sys.get_int_max_str_digits``)."""
    m = _NUMBER_RE.fullmatch(text)
    if m is None:
        raise ParseError(f"not a number: {text!r}", at)
    sign, whole, den, frac, exponent = m.groups()
    digits = whole + (frac or "")
    try:
        shift = int(exponent or 0) - len(frac or "")
        if (len(digits) + len(den or "") + abs(shift)) * math.log2(10) > MAX_EXPONENT**2:
            raise ParseError(f"number exceeds {MAX_EXPONENT**2} bits", at)
        p = int(digits) * 10 ** max(shift, 0)
        q = int(den) if den else 10 ** max(-shift, 0)
    except ValueError:  # past the digit limit of int()
        raise ParseError(f"number longer than {sys.get_int_max_str_digits()} digits", at) from None
    if q == 0:
        raise ParseDomainError("division by the zero constant", at)
    return Fraction(-p if sign == "-" else p, q)


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

    # A run of operands is combined by one ``add``/``mul`` call: folding
    # them one at a time re-sorts the partial result on every operand,
    # which is quadratic in the length of the run.

    def expr(self):
        terms = [self.term()]
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                terms.append(rhs if val == "+" else neg(rhs))
            else:
                return terms[0] if len(terms) == 1 else add(*terms)

    def term(self):
        factors = [self.factor()]
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                factors.append(self.factor())
            elif kind == "op" and val == "/":
                self.take()
                # ``/`` binds left to right: it divides the product so far
                e = factors[0] if len(factors) == 1 else mul(*factors)
                factors = [quot(e, self.factor())]
            else:
                return factors[0] if len(factors) == 1 else mul(*factors)

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
            return Const(number(val, at))
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
    parser = _Parser(text)
    try:
        return parser.parse()
    except ParseError:
        raise
    except DomainError as err:  # 1/0, ln(-1)
        raise ParseDomainError(str(err), parser.peek()[2]) from None
    except ExprError as err:  # a power past MAX_EXPONENT
        raise ParseError(str(err), parser.peek()[2]) from None


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
