"""Dense dimension-4 tensors of rank 0..6 with variance signatures.

Entries are either floats or jets (a trailing coefficient axis shared by all
entries).  Contraction is allowed on an (up, down) slot pair directly, on
(down, down) with an explicit inverse metric, and on (up, up) with an explicit
metric.  All identity checking downstream happens in pointwise orthonormal
frames where the metric is the identity, so norm_sq is the plain sum of
squared components.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .jets import Jet, contract_slot, mul_coeffs, mul_operator, n_coeffs

DIM = 4
MAX_RANK = 6

_UP, _DOWN = "u", "d"


def _normalize_variance(variance) -> tuple:
    var = tuple(variance)
    if any(v not in (_UP, _DOWN) for v in var):
        raise ValueError(f"variance entries must be 'u' or 'd', got {var!r}")
    return var


class DenseTensor:
    """Dense 4^rank array of scalar or jet entries with an index variance."""

    __slots__ = ("data", "variance", "jet_order")

    def __init__(self, data, variance, jet_order: int | None = None):
        self.variance = _normalize_variance(variance)
        rank = len(self.variance)
        if rank > MAX_RANK:
            raise ValueError(f"rank {rank} exceeds the cap of {MAX_RANK}")
        data = np.asarray(data, dtype=float)
        expected = (DIM,) * rank
        if jet_order is not None:
            expected = expected + (n_coeffs(jet_order),)
        if data.shape != expected:
            raise ValueError(f"expected shape {expected}, got {data.shape}")
        self.data = data
        self.jet_order = jet_order

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zeros(cls, variance, jet_order: int | None = None) -> "DenseTensor":
        var = _normalize_variance(variance)
        shape = (DIM,) * len(var)
        if jet_order is not None:
            shape = shape + (n_coeffs(jet_order),)
        return cls(np.zeros(shape), var, jet_order)

    @classmethod
    def delta(cls, variance="dd") -> "DenseTensor":
        return cls(np.eye(DIM), variance)

    @property
    def rank(self) -> int:
        return len(self.variance)

    def entry(self, *idx):
        if len(idx) != self.rank:
            raise ValueError("index count must equal rank")
        if self.jet_order is None:
            return float(self.data[idx])
        return Jet(self.jet_order, self.data[idx].copy())

    def values(self) -> np.ndarray:
        """Degree-0 part: the tensor of pointwise values."""
        if self.jet_order is None:
            return self.data
        return self.data[..., 0]

    # -- ring operations -----------------------------------------------------

    def _check_compatible(self, other: "DenseTensor"):
        if self.variance != other.variance:
            raise ValueError("variance mismatch")
        if self.jet_order != other.jet_order:
            raise ValueError("jet order mismatch")

    def __add__(self, other: "DenseTensor") -> "DenseTensor":
        self._check_compatible(other)
        return DenseTensor(self.data + other.data, self.variance, self.jet_order)

    def __sub__(self, other: "DenseTensor") -> "DenseTensor":
        self._check_compatible(other)
        return DenseTensor(self.data - other.data, self.variance, self.jet_order)

    def __neg__(self) -> "DenseTensor":
        return DenseTensor(-self.data, self.variance, self.jet_order)

    def scale(self, c: float) -> "DenseTensor":
        return DenseTensor(self.data * float(c), self.variance, self.jet_order)

    def tensor_product(self, other: "DenseTensor") -> "DenseTensor":
        var = self.variance + other.variance
        if len(var) > MAX_RANK:
            raise ValueError(f"product rank {len(var)} exceeds the cap of {MAX_RANK}")
        if self.jet_order is None and other.jet_order is None:
            data = np.multiply.outer(self.data, other.data)
            return DenseTensor(data, var)
        if self.jet_order is None or other.jet_order is None:
            raise ValueError("cannot mix scalar and jet tensors in a product")
        a = self.data.reshape(self.data.shape[:-1] + (1,) * other.rank
                              + (self.data.shape[-1],))
        data = mul_coeffs(a, other.data, self.jet_order, other.jet_order,
                          min(self.jet_order, other.jet_order))
        return DenseTensor(data, var, min(self.jet_order, other.jet_order))

    def permute(self, order) -> "DenseTensor":
        order = tuple(order)
        if sorted(order) != list(range(self.rank)):
            raise ValueError(f"{order!r} is not a permutation of the slots")
        axes = order + ((self.rank,) if self.jet_order is not None else ())
        var = tuple(self.variance[i] for i in order)
        return DenseTensor(np.transpose(self.data, axes), var, self.jet_order)

    # -- contraction ---------------------------------------------------------

    def contract(self, slot_a: int, slot_b: int,
                 inverse_metric: "DenseTensor | None" = None,
                 metric: "DenseTensor | None" = None) -> "DenseTensor":
        """Contract two slots, lowering/raising through a metric if needed.

        (u, d) or (d, u) pairs trace directly; (d, d) needs `inverse_metric`;
        (u, u) needs `metric`.
        """
        if slot_a == slot_b or not (0 <= slot_a < self.rank) \
                or not (0 <= slot_b < self.rank):
            raise ValueError("invalid contraction slots")
        va, vb = self.variance[slot_a], self.variance[slot_b]
        pairing = None
        if {va, vb} == {_UP, _DOWN}:
            pairing = None  # direct trace
        elif va == vb == _DOWN:
            if inverse_metric is None:
                raise ValueError("(down, down) contraction needs an inverse metric")
            pairing = inverse_metric
        else:
            if metric is None:
                raise ValueError("(up, up) contraction needs a metric")
            pairing = metric
        work = self
        if pairing is not None:
            if pairing.rank != 2:
                raise ValueError("pairing tensor must have rank 2")
            work = _apply_rank2(self, pairing, slot_a)
        lo, hi = sorted((slot_a, slot_b))
        var = tuple(v for i, v in enumerate(work.variance) if i not in (lo, hi))
        data = np.trace(work.data, axis1=lo, axis2=hi)
        return DenseTensor(data, var, work.jet_order)

    # -- (anti)symmetrization ------------------------------------------------

    def _sym(self, slots, signed: bool) -> "DenseTensor":
        slots = tuple(slots)
        if any(self.variance[s] != self.variance[slots[0]] for s in slots):
            raise ValueError("can only symmetrize slots of equal variance")
        total = np.zeros_like(self.data)
        count = 0
        for perm in permutations(range(len(slots))):
            axes = list(range(self.data.ndim))
            for dst, src in zip(slots, perm):
                axes[dst] = slots[src]
            sign = perm_sign(perm) if signed else 1.0
            total += sign * np.transpose(self.data, axes)
            count += 1
        return DenseTensor(total / count, self.variance, self.jet_order)

    def symmetrize(self, slots) -> "DenseTensor":
        return self._sym(slots, signed=False)

    def antisymmetrize(self, slots) -> "DenseTensor":
        return self._sym(slots, signed=True)

    # -- norms and symmetry checks --------------------------------------------

    def norm_sq(self):
        """Sum of squared components (orthonormal-frame norm)."""
        if self.jet_order is None:
            return float((self.data ** 2).sum())
        sq = mul_coeffs(self.data, self.data, self.jet_order, self.jet_order,
                        self.jet_order)
        return Jet(self.jet_order, sq.reshape(-1, sq.shape[-1]).sum(axis=0))

    def riemann_symmetry_violation(self) -> float:
        """Max violation of R_ijkl = -R_jikl = -R_ijlk = R_klij."""
        if self.rank != 4:
            raise ValueError("Riemann-type symmetry check needs rank 4")
        t = self.data if self.jet_order is None else self.data[..., 0]
        v1 = np.abs(t + np.einsum("jikl->ijkl", t)).max()
        v2 = np.abs(t + np.einsum("ijlk->ijkl", t)).max()
        v3 = np.abs(t - np.einsum("klij->ijkl", t)).max()
        return float(max(v1, v2, v3))


def _apply_rank2(t: DenseTensor, m: DenseTensor, slot: int) -> DenseTensor:
    """Contract metric-type m into one slot of t (index raise/lower)."""
    new_var = list(t.variance)
    new_var[slot] = _UP if t.variance[slot] == _DOWN else _DOWN
    if t.jet_order is None and m.jet_order is None:
        data = np.tensordot(t.data, m.data, axes=([slot], [0]))
        data = np.moveaxis(data, -1, slot)
        return DenseTensor(data, tuple(new_var), None)
    if t.jet_order is None or m.jet_order is None:
        raise ValueError("cannot mix scalar and jet tensors in a contraction")
    order = min(t.jet_order, m.jet_order)
    data = contract_slot(t.data, mul_operator(m.data, m.jet_order, t.jet_order,
                                              order), slot)
    return DenseTensor(data, tuple(new_var), order)


def perm_sign(perm) -> float:
    sign = 1.0
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def kulkarni_nomizu(a: DenseTensor, b: DenseTensor) -> DenseTensor:
    """(a ^ b)_ijkl = a_ik b_jl - a_il b_jk + b_ik a_jl - b_il a_jk."""
    for t in (a, b):
        if t.rank != 2 or t.jet_order is not None:
            raise ValueError("Kulkarni-Nomizu needs two scalar rank-2 tensors")
        if np.abs(t.data - t.data.T).max() > 1e-12 * max(1.0, np.abs(t.data).max()):
            raise ValueError("Kulkarni-Nomizu needs symmetric factors")
    x, y = a.data, b.data
    data = (np.einsum("ik,jl->ijkl", x, y) - np.einsum("il,jk->ijkl", x, y)
            + np.einsum("ik,jl->ijkl", y, x) - np.einsum("il,jk->ijkl", y, x))
    return DenseTensor(data, "dddd")
