"""Deterministic sampling utilities.

All randomness in the package flows through :class:`SeededSampler`, a
thin wrapper over the Mersenne Twister that draws exclusively via
``random.Random.random()``, the one generator method CPython guarantees
to reproduce the same stream for the same seed across versions and
platforms.  Default seed is 42.
"""

from __future__ import annotations

import random

import numpy as np

from . import expr as ex

DEFAULT_SEED = 42


class SeededSampler:
    def __init__(self, seed=DEFAULT_SEED):
        self.seed = seed
        self._rng = random.Random(seed)

    def random(self):
        return self._rng.random()

    def uniform(self, lo, hi):
        return lo + (hi - lo) * self._rng.random()

    def integer(self, n):
        """Uniform draw from 0..n-1."""
        return min(int(self._rng.random() * n), n - 1)

    def choice(self, seq):
        return seq[self.integer(len(seq))]

    def point(self, box):
        """Sample a point from a box, keys visited in sorted order."""
        return {name: self.uniform(*box[name]) for name in sorted(box)}


def sample_box(sampler, box, n, keep=None):
    """Draw ``n`` points of a box as an ``(n, len(box))`` array.

    Returns ``(names, P)`` with the box's names in sorted order, one
    column each; rows are drawn through :meth:`SeededSampler.point`, so
    the stream is the same as drawing point by point.  ``keep(P)`` returns
    a boolean mask of acceptable rows; rejected rows are replaced by
    drawing only the shortfall, in stream order, which accepts exactly the
    points a one-at-a-time accept loop would.  Raises DomainError once
    ``10*n`` draws have not produced ``n`` accepted points.
    """
    names = tuple(sorted(box))
    P = np.empty((0, len(names)))
    budget = 10 * n
    while len(P) < n:
        want = min(n - len(P), budget)
        if want == 0:
            raise ex.DomainError(
                f"sampling budget exhausted: {len(P)} of {n} points accepted after {10 * n} draws"
            )
        budget -= want
        B = np.array([list(sampler.point(box).values()) for _ in range(want)])
        P = np.concatenate([P, B if keep is None else B[keep(B)]])
    return names, P


def random_polynomial(sampler, symbols, degree, max_coeff=4):
    """Random polynomial with small integer coefficients.

    Dense monomial basis of total degree <= degree over the given
    symbols; roughly half the coefficients are zero.
    """
    names = list(symbols)
    monomials = [[]]
    for _ in range(degree):
        monomials = monomials + [m + [s] for m in monomials for s in names]
    seen = set()
    terms = []
    for m in monomials:
        key = tuple(sorted(m))
        if key in seen:
            continue
        seen.add(key)
        c = sampler.integer(2 * max_coeff + 1) - max_coeff
        if c == 0:
            continue
        terms.append(ex.mul(ex.con(c), *[ex.sym(s) for s in key]))
    if not terms:
        return ex.con(sampler.integer(max_coeff) + 1)
    return ex.add(*terms)


def random_expression(sampler, symbols, depth):
    """Random expression tree for normalization stress tests."""
    names = list(symbols)
    if depth <= 0 or sampler.random() < 0.2:
        if sampler.random() < 0.4:
            return ex.con(sampler.integer(9) - 4)
        return ex.sym(sampler.choice(names))
    kind = sampler.integer(6)
    a = random_expression(sampler, names, depth - 1)
    if kind == 0:
        return ex.add(a, random_expression(sampler, names, depth - 1))
    if kind == 1:
        return ex.sub(a, random_expression(sampler, names, depth - 1))
    if kind == 2:
        return ex.mul(a, random_expression(sampler, names, depth - 1))
    if kind == 3:
        b = random_expression(sampler, names, depth - 1)
        try:
            return ex.quot(a, b)
        except ex.DomainError:
            return a
    if kind == 4:
        try:
            return ex.pow_(a, sampler.integer(3) + 1)
        except ex.DomainError:
            return a
    fn = sampler.choice([ex.exp_, ex.sin_, ex.cos_])
    return fn(a)
