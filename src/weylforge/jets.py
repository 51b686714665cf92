"""Truncated multivariate Taylor arithmetic in four chart variables.

A jet of order K stores the Taylor coefficients of a smooth function about a
chart point, for every monomial x1^e1 x2^e2 x3^e3 x4^e4 with e1+e2+e3+e4 <= K.
Ring operations truncate at K, so arithmetic on jets propagates exact partial
derivatives through metric components, Christoffel symbols and curvature.

Coefficients are stored densely in graded lexicographic order (degree first,
lexicographically descending within a degree), so the layout for order K is a
prefix of the layout for K+1 and truncation is a slice.  Multiplication runs
off precomputed monomial-product index tables, chunked by homogeneous degree
pairs to keep temporaries small.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product as _iproduct

import numpy as np

NVARS = 4
MAX_ORDER = 8


def n_coeffs(order: int) -> int:
    """Number of coefficients of an order-`order` jet: C(order+4, 4)."""
    return math.comb(order + NVARS, NVARS)


def _build_monomials():
    monos = []
    starts = []
    for deg in range(MAX_ORDER + 1):
        starts.append(len(monos))
        block = [m for m in _iproduct(range(deg + 1), repeat=NVARS) if sum(m) == deg]
        block.sort(reverse=True)
        monos.extend(block)
    starts.append(len(monos))
    return tuple(monos), tuple(starts)


MONOMIALS, _DEG_START = _build_monomials()
MONO_INDEX = {m: i for i, m in enumerate(MONOMIALS)}


@lru_cache(maxsize=None)
def _pair_table(deg_a: int, deg_b: int):
    """Index table for multiplying homogeneous blocks of degrees a and b.

    Returns (ia, ib, starts, targets): global coefficient indices of the two
    factors, reduceat segment starts, and the global target index of each
    segment.  Entries are sorted by target.
    """
    a_lo, a_hi = _DEG_START[deg_a], _DEG_START[deg_a + 1]
    b_lo, b_hi = _DEG_START[deg_b], _DEG_START[deg_b + 1]
    triples = []
    for ia in range(a_lo, a_hi):
        ma = MONOMIALS[ia]
        for ib in range(b_lo, b_hi):
            mb = MONOMIALS[ib]
            tgt = MONO_INDEX[tuple(x + y for x, y in zip(ma, mb))]
            triples.append((tgt, ia, ib))
    triples.sort()
    tgt = np.array([t[0] for t in triples], dtype=np.intp)
    ia = np.array([t[1] for t in triples], dtype=np.intp)
    ib = np.array([t[2] for t in triples], dtype=np.intp)
    uniq, starts = np.unique(tgt, return_index=True)
    return ia, ib, starts.astype(np.intp), uniq.astype(np.intp)


def mul_coeffs(a: np.ndarray, b: np.ndarray, order_a: int, order_b: int,
               order_out: int) -> np.ndarray:
    """Multiply coefficient arrays (..., nc(order_a)) x (..., nc(order_b)).

    Leading axes broadcast; the result is truncated at `order_out`.
    """
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    out = np.zeros(shape + (n_coeffs(order_out),))
    for da in range(min(order_a, order_out) + 1):
        for db in range(min(order_b, order_out - da) + 1):
            ia, ib, starts, tgt = _pair_table(da, db)
            prod = a[..., ia] * b[..., ib]
            out[..., tgt] += np.add.reduceat(prod, starts, axis=-1)
    return out


def contract_slot(t: np.ndarray, m: np.ndarray, slot: int, order_t: int,
                  order_m: int, order_out: int) -> np.ndarray:
    """Sum slot `slot` of jet tensor t against the first axis of m.

    t is (..., nc(order_t)) and m is (n, n', ..., nc(order_m)).  The result
    has m's second axis in place of `slot` and any further axes of m after
    t's, truncated at `order_out`: raising an index is m = g^-1, the
    connection term of a covariant derivative is m = Gamma with its
    derivative axis appended.
    """
    moved = np.moveaxis(t, slot, -2)
    pad = (1,) * (m.ndim - 2)
    out = None
    for k in range(m.shape[0]):
        a = moved[..., k, :]
        term = mul_coeffs(a.reshape(a.shape[:-1] + pad + a.shape[-1:]), m[k],
                          order_t, order_m, order_out)
        out = term if out is None else out + term
    return np.moveaxis(out, t.ndim - 2, slot)


@lru_cache(maxsize=None)
def _partial_table(order: int, axis: int):
    """(src, fac) with dst ordered 0..nc(order-1)-1 for d/dx_axis."""
    src = np.empty(n_coeffs(order - 1), dtype=np.intp)
    fac = np.empty(n_coeffs(order - 1))
    for dst in range(n_coeffs(order - 1)):
        m = list(MONOMIALS[dst])
        m[axis] += 1
        src[dst] = MONO_INDEX[tuple(m)]
        fac[dst] = m[axis]
    return src, fac


def partial_coeffs(a: np.ndarray, order: int, axis: int) -> np.ndarray:
    """Formal partial derivative along 0-based `axis`; drops one order."""
    if order < 1:
        raise ValueError("cannot differentiate an order-0 jet")
    src, fac = _partial_table(order, axis)
    return a[..., src] * fac


def truncate_coeffs(a: np.ndarray, order_out: int) -> np.ndarray:
    return a[..., :n_coeffs(order_out)]


class JetDomainError(ValueError):
    """Elementary function applied outside its domain (bad constant term)."""


class Jet:
    """Order-K truncated Taylor expansion of a scalar function of 4 variables."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: np.ndarray):
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"jet order must be in 0..{MAX_ORDER}, got {order}")
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (n_coeffs(order),):
            raise ValueError(
                f"order-{order} jet needs {n_coeffs(order)} coefficients, "
                f"got shape {coeffs.shape}")
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def constant(cls, value: float, order: int) -> "Jet":
        c = np.zeros(n_coeffs(order))
        c[0] = value
        return cls(order, c)

    @classmethod
    def variable(cls, direction: int, value: float, order: int) -> "Jet":
        """Coordinate function x_direction (1-based) expanded about `value`."""
        if direction not in (1, 2, 3, 4):
            raise ValueError("direction must be 1..4")
        c = np.zeros(n_coeffs(order))
        c[0] = value
        if order >= 1:
            e = [0] * NVARS
            e[direction - 1] = 1
            c[MONO_INDEX[tuple(e)]] = 1.0
        return cls(order, c)

    @property
    def value(self) -> float:
        return float(self.coeffs[0])

    def coefficient(self, exponents) -> float:
        return float(self.coeffs[MONO_INDEX[tuple(exponents)]])

    def to_dict(self) -> dict:
        return {MONOMIALS[i]: float(c) for i, c in enumerate(self.coeffs)}

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.order != self.order:
                raise ValueError(
                    f"jet order mismatch: {self.order} vs {other.order}")
            return other
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Jet.constant(float(other), self.order)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(self.order, self.coeffs + o.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(self.order, self.coeffs - o.coeffs)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(self.order, o.coeffs - self.coeffs)

    def __neg__(self):
        return Jet(self.order, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Jet(self.order, self.coeffs * float(other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(self.order,
                   mul_coeffs(self.coeffs, o.coeffs, self.order, self.order,
                              self.order))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Jet(self.order, self.coeffs / float(other))
        if isinstance(other, Jet):
            return self * recip(other)
        return NotImplemented

    def __rtruediv__(self, other):
        return recip(self) * other

    def __pow__(self, p):
        return power(self, p)

    def partial(self, direction: int) -> "Jet":
        """Formal partial derivative in direction 1..4; order drops by one."""
        if direction not in (1, 2, 3, 4):
            raise ValueError("direction must be 1..4")
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        return Jet(self.order - 1,
                   partial_coeffs(self.coeffs, self.order, direction - 1))

    def truncate(self, order: int) -> "Jet":
        if order > self.order:
            raise ValueError("cannot extend a jet by truncation")
        return Jet(order, truncate_coeffs(self.coeffs, order).copy())

    def __repr__(self):
        return f"Jet(order={self.order}, value={self.value!r})"


def _compose(a: Jet, scaled: np.ndarray) -> Jet:
    """Evaluate sum_k scaled[k] * (a - a0)^k by Horner, truncated at a.order."""
    h = Jet(a.order, a.coeffs.copy())
    h.coeffs[0] = 0.0
    acc = Jet.constant(float(scaled[-1]), a.order)
    for c in scaled[-2::-1]:
        acc = acc * h + float(c)
    return acc


def sin(a: Jet) -> Jet:
    k = np.arange(a.order + 1)
    cycle = np.stack([np.sin(a.value), np.cos(a.value),
                      -np.sin(a.value), -np.cos(a.value)])
    return _compose(a, cycle[k % 4] / _factorials(a.order))


def cos(a: Jet) -> Jet:
    k = np.arange(a.order + 1)
    cycle = np.stack([np.cos(a.value), -np.sin(a.value),
                      -np.cos(a.value), np.sin(a.value)])
    return _compose(a, cycle[k % 4] / _factorials(a.order))


def exp(a: Jet) -> Jet:
    return _compose(a, np.exp(a.value) / _factorials(a.order))


def power(a: Jet, p: float) -> Jet:
    """a**p by Taylor composition about a's value.

    Non-negative integer p works for any constant term; otherwise the
    constant term must be strictly positive.
    """
    if float(p) == int(p) and p >= 0:
        n = int(p)
        out = Jet.constant(1.0, a.order)
        base = a
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out
    v = a.value
    if v <= 0.0:
        raise JetDomainError(
            f"power({p}) needs a positive constant term, got {v}")
    scaled = np.empty(a.order + 1)
    scaled[0] = v ** p
    for k in range(1, a.order + 1):
        scaled[k] = scaled[k - 1] * (p - k + 1) / (k * v)
    return _compose(a, scaled)


def sqrt(a: Jet) -> Jet:
    if a.value <= 0.0:
        raise JetDomainError(f"sqrt needs a positive constant term, got {a.value}")
    return power(a, 0.5)


def recip(a: Jet) -> Jet:
    if a.value <= 0.0:
        raise JetDomainError(f"recip needs a positive constant term, got {a.value}")
    return power(a, -1.0)


@lru_cache(maxsize=None)
def _factorials(order: int) -> np.ndarray:
    return np.array([math.factorial(k) for k in range(order + 1)], dtype=float)


# Spec-level entry points: named operations over the Jet type.

def jet_arith(a: Jet, b: Jet, op: str) -> Jet:
    """Ring operation on two jets of equal order: 'add', 'sub' or 'mul'."""
    if not isinstance(a, Jet) or not isinstance(b, Jet):
        raise TypeError("jet_arith expects two Jet operands")
    if a.order != b.order:
        raise ValueError(f"jet order mismatch: {a.order} vs {b.order}")
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise ValueError(f"unknown op {op!r}")


_ELEMENTARY = {"sin": sin, "cos": cos, "exp": exp, "sqrt": sqrt, "recip": recip}


def jet_elementary(a: Jet, f: str, p: float | None = None) -> Jet:
    """Taylor composition f(a) for f in {sin, cos, exp, sqrt, recip, pow}."""
    if f == "pow":
        if p is None:
            raise ValueError("pow needs an exponent")
        return power(a, p)
    try:
        fn = _ELEMENTARY[f]
    except KeyError:
        raise ValueError(f"unknown elementary function {f!r}") from None
    return fn(a)


def jet_partial(a: Jet, direction: int) -> Jet:
    """Formal partial derivative of a jet along coordinate direction 1..4."""
    return a.partial(direction)
