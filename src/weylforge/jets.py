"""Truncated multivariate Taylor arithmetic in four chart variables.

A jet of order K stores the Taylor coefficients of a smooth function about a
chart point, for every monomial x1^e1 x2^e2 x3^e3 x4^e4 with e1+e2+e3+e4 <= K.
Ring operations truncate at K, so arithmetic on jets propagates exact partial
derivatives through metric components, Christoffel symbols and curvature.

Coefficients are stored densely in graded lexicographic order (degree first,
lexicographically descending within a degree), so the layout for order K is a
prefix of the layout for K+1 and truncation is a slice.  Multiplication runs
off one precomputed table of coefficient pairs per (order_a, order_b,
order_out), sorted by target.  It works coefficient-major: with the
coefficient axis in front, a run of consecutive output degrees is one gather
per factor, one product and one reduceat over the pairs into that run's
slice of the result.  A run (a chunk) takes in degrees while it holds no
more pairs than the table's largest degree: a product of two order-K jets,
K >= 1, takes two passes, and no temporary outgrows that degree's.

Multiplying by a fixed jet m is linear in the other factor: a triangular
matrix from input to output coefficients (`mul_operator`).  Contracting a
tensor index against a jet-valued matrix (raising an index, the connection
term of a covariant derivative) is therefore one dense matrix product of
the tensor, with that index and its coefficients flattened together, against
m's multiplication operator (`contract_slot`).
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


@lru_cache(maxsize=None)
def _product_table(order_a: int, order_b: int, order_out: int):
    """Per output degree d: (lo, hi, ia, ib, starts), merged by _chunk_table.

    ia, ib hold every coefficient pair of the two factors whose monomials
    multiply to a monomial of degree d, sorted by (target, ia, ib); starts
    are the reduceat segment starts, one per target lo..hi-1.  Degrees above
    order_a + order_b have no pairs and are left out.
    """
    table = []
    for d in range(min(order_out, order_a + order_b) + 1):
        ia, ib, tgt = [], [], []
        for da in range(max(0, d - order_b), min(order_a, d) + 1):
            pa, pb, starts, uniq = _pair_table(da, d - da)
            ia.append(pa)
            ib.append(pb)
            tgt.append(np.repeat(uniq, np.diff(starts, append=len(pa))))
        ia, ib, tgt = map(np.concatenate, (ia, ib, tgt))
        perm = np.lexsort((ib, ia, tgt))
        ia, ib, tgt = ia[perm], ib[perm], tgt[perm]
        starts = np.flatnonzero(np.diff(tgt, prepend=-1))
        table.append((_DEG_START[d], _DEG_START[d + 1], ia, ib, starts))
    return tuple(table)


@lru_cache(maxsize=None)
def _chunk_table(order_a: int, order_b: int, order_out: int):
    """_product_table's degrees merged into chunks (lo, hi, ia, ib, starts).

    Consecutive degrees join a chunk while it holds no more pairs than the
    table's largest degree.  The pairs keep their (target, ia, ib) order, so
    each target's sum runs as in its degree's own table.
    """
    table = _product_table(order_a, order_b, order_out)
    limit = max(len(ia) for _, _, ia, _, _ in table)
    chunks = []
    for lo, hi, ia, ib, starts in table:
        if chunks and len(chunks[-1][2]) + len(ia) <= limit:
            c_lo, _, c_ia, c_ib, c_starts = chunks[-1]
            chunks[-1] = (c_lo, hi, np.concatenate((c_ia, ia)),
                          np.concatenate((c_ib, ib)),
                          np.concatenate((c_starts, starts + len(c_ia))))
        else:
            chunks.append((lo, hi, ia, ib, starts))
    return tuple(chunks)


def mul_coeffs(a: np.ndarray, b: np.ndarray, order_a: int, order_b: int,
               order_out: int) -> np.ndarray:
    """Multiply coefficient arrays (..., nc(order_a)) x (..., nc(order_b)).

    Leading axes broadcast; the result is truncated at `order_out`.  Both
    factors are viewed coefficient-major (padded to one rank and
    transposed), so each chunk of `_chunk_table` is one gather per factor,
    one product and one reduceat over the pair axis; the result is the
    transpose of the coefficient-major sum.
    """
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    ndim = len(shape) + 1
    at = a.reshape((1,) * (ndim - a.ndim) + a.shape).T
    bt = b.reshape((1,) * (ndim - b.ndim) + b.shape).T
    out = np.zeros((n_coeffs(order_out),) + shape[::-1])
    for lo, hi, ia, ib, starts in _chunk_table(order_a, order_b, order_out):
        np.add.reduceat(at[ia] * bt[ib], starts, axis=0, out=out[lo:hi])
    return out.T


def mul_operator(m: np.ndarray, order_m: int, order_in: int,
                 order_out: int) -> np.ndarray:
    """Matrix of multiplication by the jet m, from order_in to order_out.

    Returns m.shape[:-1] + (nc(min(order_in, order_out)), nc(order_out)):
    row c holds the coefficients of m times the c-th monomial, so for a jet
    a of order order_in, a[:nc_in] @ op equals mul_coeffs(a, m, order_in,
    order_m, order_out).  Built by multiplying m with the unit jets, i.e.
    by 1.0 and 0.0 only, so every entry is exactly a coefficient of m or 0.
    """
    order_in = min(order_in, order_out)
    return mul_coeffs(np.eye(n_coeffs(order_in)), m[..., None, :], order_in,
                      order_m, order_out)


def contract_slot(t: np.ndarray, op: np.ndarray, slot: int) -> np.ndarray:
    """Sum slot `slot` of jet tensor t against the first axis of op.

    op = mul_operator(m, ...) for m of shape (n, n', ..., nc(order_m)).  The
    result has m's second axis in place of `slot` and any further axes of m
    after t's: raising an index is m = g^-1, the connection term of a
    covariant derivative is m = Gamma with its derivative axis appended.
    t's coefficients above op's input order are not read.  The sum over the
    slot and over the coefficients of t is one matrix product.
    """
    n, n_in = op.shape[0], op.shape[-2]
    t_order, op_order, out_order = _slot_orders(t.ndim, op.ndim, slot)
    moved = t[..., :n_in].transpose(t_order)
    lead = moved.shape[:-2]
    mat = op.transpose(op_order).reshape(n * n_in, -1)
    out = moved.reshape(-1, n * n_in) @ mat
    out = out.reshape(lead + op.shape[1:-2] + op.shape[-1:])
    return out.transpose(out_order)


@lru_cache(maxsize=None)
def _slot_orders(ndim_t: int, ndim_op: int, slot: int):
    """contract_slot's three axis orders: t's `slot` moved before its
    coefficient axis, op's input-coefficient axis moved to 1, and the
    product's first axis from op moved back to `slot` (slot >= 0)."""
    t_order = (*(a for a in range(ndim_t - 1) if a != slot), slot,
               ndim_t - 1)
    op_order = (0, ndim_op - 2, *range(1, ndim_op - 2), ndim_op - 1)
    out_order = [a for a in range(ndim_t + ndim_op - 4) if a != ndim_t - 2]
    out_order.insert(slot, ndim_t - 2)
    return t_order, op_order, tuple(out_order)


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


@lru_cache(maxsize=None)
def _gradient_table(order: int):
    """(src, fac), each (NVARS, nc(order-1)): _partial_table of every axis."""
    src, fac = zip(*(_partial_table(order, axis) for axis in range(NVARS)))
    return np.stack(src), np.stack(fac)


def gradient_coeffs(a: np.ndarray, order: int) -> np.ndarray:
    """All four partial derivatives of a, (..., NVARS, nc(order-1)), in one
    gather: partial_coeffs along each axis, stacked before the coefficients."""
    if order < 1:
        raise ValueError("cannot differentiate an order-0 jet")
    src, fac = _gradient_table(order)
    return a[..., src] * fac


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
        return Jet(order, self.coeffs[:n_coeffs(order)].copy())

    def __repr__(self):
        return f"Jet(order={self.order}, value={self.value!r})"


@lru_cache(maxsize=None)
def _power_indices(axis: int, order: int) -> np.ndarray:
    """Coefficient indices of x_axis^k, k = 1..order."""
    return np.array([MONO_INDEX[tuple(k if i == axis else 0
                                      for i in range(NVARS))]
                     for k in range(1, order + 1)], dtype=np.intp)


def _coordinate_axis(a: Jet) -> int | None:
    """The 0-based axis i when a is x_i about its value: its one nonzero
    non-constant coefficient is 1.0 on x_i.  Else None."""
    nonzero = np.flatnonzero(a.coeffs[1:])
    if len(nonzero) == 1 and nonzero[0] < NVARS \
            and a.coeffs[1 + nonzero[0]] == 1.0:
        return int(nonzero[0])
    return None


def _compose(a: Jet, scaled: np.ndarray) -> Jet:
    """Evaluate sum_k scaled[k] * (a - a0)^k, truncated at a.order.

    By Horner's rule, except for a coordinate variable a = x_i about a0:
    then (a - a0)^k is the monomial x_i^k, and each scaled[k] is placed on
    it with the bits Horner gives.  Horner passes a nonzero scaled[k] on
    exactly and turns a zero into +0.0 (it adds the +0.0 entries of a
    constant jet), and its constant term is the chain c * 0.0 + scaled[k].
    A non-finite scaled[k] goes through Horner, which spreads it as NaN.
    """
    axis = _coordinate_axis(a)
    if axis is not None and np.isfinite(scaled).all():
        coeffs = np.zeros(n_coeffs(a.order))
        coeffs[_power_indices(axis, a.order)] = scaled[1:] + 0.0
        c = float(scaled[-1])
        for s in scaled[-2::-1]:
            c = c * 0.0 + float(s)
        coeffs[0] = c
        return Jet(a.order, coeffs)
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
    if not math.isfinite(p):
        raise ValueError(f"power needs a finite exponent, got {p}")
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
