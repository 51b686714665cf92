"""Registry of pointwise curvature identities as residual checks.

Every check consumes a CurvaturePoint (plus duality-sector data where needed)
and returns a pair (residual_abs, scale).  The suite divides the residual by
max(scale, |Riem|^(h/2), 1e-30) where h is the identity's homogeneity weight
(frame components of every term scale as c^-h under g -> c^2 g), so relative
residuals are scale invariant and "0 = 0" points pass no matter how the
round-off noise falls.

Most identities are data, a TermList: one or more equations
sum(lhs) = sum(rhs), each term coeff * einsum(subscripts, *operands) over
operands named as in PointData.operand.  A sector variant reads W, nabla^k W
and the Laplacian fields from its duality sector, so one list serves the full
identity and both halves.  The residual is the largest Frobenius norm of
sum(lhs) - sum(rhs) over the equations.  The scale is the largest term norm,
unless an equation names its bounds: terms, the summed left side, or products
of operand norms such as |W| |Riem|.  Named bounds serve a pure X = 0
statement, whose terms all vanish together; the commutators, whose two
left-hand terms are far larger than their difference; and
bochner2.pro-boch-weyl, whose scale leaves out one of its terms.  The
checks that delegate to algebra and framecalc, and the block decomposition,
stay functions.

Identities carry a hypothesis gate (any metric / harmonic Weyl / Einstein /
Einstein with parallel sector), re-verified numerically at each point before
a check is marked applicable.  On the negative-control chart a designated set
of hypothesis-dependent identities is evaluated anyway and expected to be
violated; that expectation is part of the suite's pass criteria.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from . import algebra, framecalc
from .charts import CapacityError, CurvaturePoint, required_jet_order

DIM = 4
_EYE = np.eye(DIM)
_SECTOR_NAME = {1: "plus", -1: "minus"}

FLOOR = 1e-30

# Measured-gate thresholds (relative to curvature-scale floors).
EINSTEIN_GATE_RTOL = 1e-9
HARMONIC_GATE_RTOL = 1e-9
PARALLEL_GATE_RTOL = 1e-9
CONFORMAL_GATE_RTOL = 1e-9
SECTOR_NONZERO_RTOL = 1e-6
COTTON_NONZERO_RTOL = 1e-3


def _frobenius(a) -> float:
    """Frobenius norm by a plain sum of squares.

    np.linalg.norm calls BLAS ddot, whose partial sums, and so the last bit
    of the norm of a large residual, change with the BLAS thread count.
    """
    a = np.asarray(a)
    return float(np.sqrt((a * a).sum()))


def _computed(fields: dict, key, what: str):
    try:
        return fields[key]
    except KeyError:
        raise CapacityError(
            f"{what} {key!r} not computed at this point") from None


class SectorPack:
    """Cached duality-sector data at a point."""

    def __init__(self, pd: "PointData", sign: int):
        cp = pd.cp
        self.name = _SECTOR_NAME[sign]
        o = cp.orientation
        self.stacks = {k: algebra.project_sector(cp.nabla_w[k], sign, o)
                       for k in cp.nabla_w}
        self.w = self.stacks[0]
        self.w_norm = _frobenius(self.w)
        self.dw_norm = (_frobenius(self.stacks[1])
                        if 1 in self.stacks else 0.0)
        self.div_norm = (_frobenius(np.einsum("tijkt->ijk", self.stacks[1]))
                         if 1 in self.stacks else 0.0)
        self.frame = algebra.derdzinski_frame(pd.blocks, self.name)
        self._ed = None
        # a scalar, not pd: a back-reference would make every point's arrays
        # a reference cycle that only the cyclic collector frees
        self._trivial_scale = pd.riem_norm ** 1.5

    def stack(self, k: int) -> np.ndarray:
        return _computed(self.stacks, k, f"{self.name} derivative stack")

    @property
    def ed(self) -> framecalc.EigenframeDerivatives:
        if self._ed is None:
            self._ed = framecalc.extract_frame_derivatives(
                self.stack(1), self.frame,
                trivial_scale=self._trivial_scale)
        return self._ed


class PointData:
    """A CurvaturePoint with cached norms, gates and sector packs."""

    def __init__(self, cp: CurvaturePoint):
        self.cp = cp
        self.W = cp.weyl
        self.ric = cp.ric
        self.R = cp.scalar
        self.riem = cp.riem
        self.riem_norm = _frobenius(cp.riem)
        self.w_norm = _frobenius(cp.weyl)
        self._sectors: dict[int, SectorPack] = {}
        self._blocks = None

    def nw(self, k: int) -> np.ndarray:
        return _computed(self.cp.nabla_w, k, "derivative stack")

    def lap(self, key: str) -> float:
        return _computed(self.cp.laplacians, key, "Laplacian field")

    def operand(self, name: str, sign: int | None = None):
        """The term operand `name` at this point.

        `W`, `nw<k>` (nabla^k W) and `lap_<field>` (the scalar Laplacian
        field) are read from duality sector `sign` when it is set, or from
        the sector that a trailing `+` or `-` names.  `g` is the frame
        metric.  Any other name (`riem`, `ric`, `R`, or a CurvaturePoint
        field such as `cotton`) is read whole, whatever the sign.
        """
        if name[-1] in "+-":
            name, sign = name[:-1], 1 if name[-1] == "+" else -1
        if name == "W":
            return self.W if sign is None else self.sector(sign).w
        if name.startswith("nw"):
            k = int(name[2:])
            return self.nw(k) if sign is None else self.sector(sign).stack(k)
        if name.startswith("lap_"):
            key = name[4:]
            return self.lap(key if sign is None
                            else f"{key}_{_SECTOR_NAME[sign]}")
        if name == "g":
            return _EYE
        if name in ("riem", "ric", "R"):
            return getattr(self, name)
        return getattr(self.cp, name)

    @property
    def blocks(self) -> algebra.CurvatureOperatorBlocks:
        if self._blocks is None:
            self._blocks = algebra.lambda_split(
                self.riem, orientation=self.cp.orientation)
        return self._blocks

    def sector(self, sign: int) -> SectorPack:
        if sign not in self._sectors:
            self._sectors[sign] = SectorPack(self, sign)
        return self._sectors[sign]

    def floor(self, h: int) -> float:
        return max(self.riem_norm, 0.0) ** (h / 2.0)

    # -- measured hypothesis gates ------------------------------------------

    @property
    def dw_norm(self) -> float:
        return _frobenius(self.nw(1))

    @property
    def div_w_norm(self) -> float:
        return _frobenius(np.einsum("tijkt->ijk", self.nw(1)))

    @property
    def is_einstein(self) -> bool:
        ric0 = self.ric - (self.R / 4.0) * _EYE
        return _frobenius(ric0) <= \
            EINSTEIN_GATE_RTOL * max(self.riem_norm, FLOOR)

    @property
    def is_harmonic(self) -> bool:
        scale = max(self.dw_norm, self.riem_norm ** 1.5, FLOOR)
        return self.div_w_norm <= HARMONIC_GATE_RTOL * scale

    def is_sector_harmonic(self, sign: int) -> bool:
        pack = self.sector(sign)
        scale = max(pack.dw_norm, self.riem_norm ** 1.5, FLOOR)
        return pack.div_norm <= HARMONIC_GATE_RTOL * scale

    @property
    def is_parallel(self) -> bool:
        return self.dw_norm <= PARALLEL_GATE_RTOL * \
            max(self.riem_norm ** 1.5, FLOOR)

    def is_sector_parallel(self, sign: int) -> bool:
        return self.sector(sign).dw_norm <= PARALLEL_GATE_RTOL * \
            max(self.riem_norm ** 1.5, FLOOR)

    def sector_nonzero(self, sign: int) -> bool:
        return self.sector(sign).w_norm > \
            SECTOR_NONZERO_RTOL * max(self.riem_norm, FLOOR)

    @property
    def is_conformally_flat(self) -> bool:
        return self.w_norm <= CONFORMAL_GATE_RTOL * max(self.riem_norm, FLOOR)

    @property
    def is_ricci_flat(self) -> bool:
        return _frobenius(self.ric) <= \
            EINSTEIN_GATE_RTOL * max(self.riem_norm, FLOOR)

    @property
    def cotton_nonzero(self) -> bool:
        return _frobenius(self.cp.cotton) > \
            COTTON_NONZERO_RTOL * max(self.riem_norm ** 1.5, FLOOR)

    @property
    def gradw_nontrivial(self) -> bool:
        """|nabla W|^2 > 1e-6 |W|^2 at unit chart length scale."""
        return self.dw_norm ** 2 > 1e-6 * self.w_norm ** 2


# ---------------------------------------------------------------------------
# Identities as term lists
# ---------------------------------------------------------------------------

# einsum plans a contraction path only for terms of two or more tensors with
# at least this many distinct indices: below it, planning costs more than it
# saves (measured on the registry's terms, single-threaded).
_PLAN_MIN_INDICES = 8


@dataclass(frozen=True)
class Term:
    """coeff * einsum(subscripts, *operands).

    `operands` is a space-separated list of PointData.operand names; an
    empty subscript marks a scalar operand (R or a Laplacian field).
    """

    name: str
    coeff: float
    subscripts: str
    operands: str
    # (einsum over the tensor operands or None, their names, the scalar
    # operands' names, whether einsum plans a path), split once
    _split: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        inputs, out = self.subscripts.split("->")
        pairs = list(zip(inputs.split(","), self.operands.split(),
                         strict=True))
        tensors = tuple(name for sub, name in pairs if sub)
        spec = ",".join(sub for sub, _ in pairs if sub) + "->" + out
        plan = len(tensors) > 1 and \
            len(set(spec) - set(",->")) >= _PLAN_MIN_INDICES
        object.__setattr__(self, "_split", (
            spec if tensors else None, tensors,
            tuple(name for sub, name in pairs if not sub), plan))

    def value(self, pd: PointData, sign: int | None):
        spec, tensors, scalars, plan = self._split
        coeff = self.coeff
        for name in scalars:
            coeff *= pd.operand(name, sign)
        if spec is None:
            return float(coeff)
        value = np.einsum(spec, *(pd.operand(n, sign) for n in tensors),
                          optimize=plan)
        if spec.endswith("->"):
            value = float(value)
        return value if coeff == 1.0 else coeff * value


@dataclass(frozen=True)
class Equation:
    """sum(lhs) = sum(rhs), with optional named scale bounds.

    Each bound in `scale` is a term name, "lhs" (the norm of the summed left
    side), or (coeff, "op op ...") for |coeff| times the product of those
    operands' norms.  With no bounds the scale is the largest term norm.
    """

    lhs: tuple
    rhs: tuple = ()
    scale: tuple = ()


def _sum(values: list):
    """Sum of term values: floats, or arrays summed into one C-ordered
    array, since einsum returns its results in permuted layouts and adding
    arrays of different layouts is slow."""
    if len(values) == 1:
        return values[0]
    if not values or isinstance(values[0], float):
        return sum(values, 0.0)
    total = np.zeros(values[0].shape)
    for v in values:
        total += v
    return total


def _norm(value) -> float:
    return abs(value) if isinstance(value, float) else _frobenius(value)


@dataclass(frozen=True)
class TermList:
    """A registry evaluator: the residual and scale of its equations."""

    equations: tuple
    sign: int | None = None

    @property
    def terms(self) -> tuple:
        return tuple(t for eq in self.equations for t in eq.lhs + eq.rhs)

    def __call__(self, pd: PointData) -> tuple[float, float]:
        residual = scale = 0.0
        for eq in self.equations:
            values = {t.name: t.value(pd, self.sign) for t in eq.lhs + eq.rhs}
            lhs = _sum([values[t.name] for t in eq.lhs])
            rhs = _sum([values[t.name] for t in eq.rhs])
            residual = max(residual, _norm(lhs - rhs))
            for bound in eq.scale or tuple(values):
                if bound == "lhs":
                    size = _norm(lhs)
                elif isinstance(bound, str):
                    size = _norm(values[bound])
                else:
                    coeff, names = bound
                    size = abs(coeff) * math.prod(
                        _frobenius(pd.operand(n, self.sign))
                        for n in names.split())
                scale = max(scale, size)
        return residual, scale


_WEYL_DECOMPOSITION = (
    *(Equation((Term(f"W_{s[:4]}", 1.0, s, "W"),), scale=((1.0, "riem"),))
      for s in ("iikl->kl", "ijil->jl", "ijki->jk", "ijjl->il", "ijkj->ik",
                "ijkk->ij")),
    Equation((Term("W_ijkl (antisym 12)", 1.0, "ijkl->ijkl", "W"),),
             (Term("W_jikl", -1.0, "jikl->ijkl", "W"),), ((1.0, "riem"),)),
    Equation((Term("W_ijkl (antisym 34)", 1.0, "ijkl->ijkl", "W"),),
             (Term("W_ijlk", -1.0, "ijlk->ijkl", "W"),), ((1.0, "riem"),)),
    Equation((Term("W_ijkl (pair sym)", 1.0, "ijkl->ijkl", "W"),),
             (Term("W_klij", 1.0, "klij->ijkl", "W"),), ((1.0, "riem"),)),
)

_CONFORMAL_FLAT = (Equation((Term("W_ijkl", 1.0, "ijkl->ijkl", "W"),),
                            scale=((1.0, "riem"),)),)

_RIEMANN_EINSTEIN_FORM = (Equation(
    (Term("Riem_ijkt", 1.0, "ijkt->ijkt", "riem"),),
    (Term("W_ijkt", 1.0, "ijkt->ijkt", "W"),
     Term("R g_ik g_jt", 1.0 / 12.0, ",ik,jt->ijkt", "R g g"),
     Term("R g_it g_jk", -1.0 / 12.0, ",it,jk->ijkt", "R g g"))),)

_BIANCHI1 = (Equation((Term("W_ijkt", 1.0, "ijkt->ijkt", "W"),
                       Term("W_itjk", 1.0, "itjk->ijkt", "W"),
                       Term("W_iktj", 1.0, "iktj->ijkt", "W"))),)

_COTTON_SYMMETRIES = (
    Equation((Term("C_ijk", 1.0, "ijk->ijk", "cotton"),),
             (Term("C_ikj", -1.0, "ikj->ijk", "cotton"),)),
    Equation((Term("C_ijk (cyclic)", 1.0, "ijk->ijk", "cotton"),),
             (Term("C_jki", -1.0, "jki->ijk", "cotton"),
              Term("C_kij", -1.0, "kij->ijk", "cotton"))),
)

_COTTON_TRACES = tuple(
    Equation((Term(f"C_{s[:3]}", 1.0, s, "cotton"),),
             scale=((1.0, "cotton"),))
    for s in ("iik->k", "iji->j", "ijj->i"))

_COTTON_DEFS_AGREE = (Equation(
    (Term("C_ijk", 1.0, "ijk->ijk", "cotton"),),
    (Term("C_ijk from div W", 1.0, "ijk->ijk", "cotton_div"),)),)

_HARMALL = (
    Equation((Term("div W", 1.0, "tijkt->ijk", "nw1"),),
             scale=((1.0, "nw1"),)),
    Equation((Term("div Riem", 1.0, "tijkt->ijk", "nabla_riem"),),
             scale=((1.0, "nabla_riem"),)),
)

_FAKE_SECOND_BIANCHI = (Equation(
    (Term("nabla_l W_ijkt", 1.0, "ijktl->ijktl", "nw1"),
     Term("nabla_t W_ijlk", 1.0, "ijlkt->ijktl", "nw1"),
     Term("nabla_k W_ijtl", 1.0, "ijtlk->ijktl", "nw1")),
    tuple(Term(f"C_{c} g_{d}", sgn * 0.5, f"{c},{d}->ijktl", "cotton g")
          for c, d, sgn in (("itl", "jk", 1), ("ilk", "jt", 1),
                            ("ikt", "jl", 1), ("jtl", "ik", -1),
                            ("jlk", "it", -1), ("jkt", "il", -1)))),)

# Terms that several identities share, at coefficient 1.
_NABLA_W_SQ = Term("|nabla W|^2", 1.0, "ijklt,ijklt->", "nw1 nw1")
_R_NABLA_W_SQ = Term("R |nabla W|^2", 1.0, ",ijklt,ijklt->", "R nw1 nw1")
_W_NW_NW = Term("W_ijkl nabla W_ijpqt nabla W_klpqt", 1.0,
                "ijkl,ijpqt,klpqt->", "W nw1 nw1")
_W3 = Term("W_ijkl W_ijpq W_klpq", 1.0, "ijkl,ijpq,klpq->", "W W W")

_GRAD_SWAP = Term("<nabla W, nabla W swapped>", 1.0, "ijklt,ijktl->",
                  "nw1 nw1")
_GRADWEYL_GENERAL = (Equation(
    (_GRAD_SWAP,),
    (replace(_NABLA_W_SQ, coeff=0.5),
     Term("|div W|^2", -1.0, "tijkt,sijks->", "nw1 nw1"))),)
_GRADWEYL_HARMONIC = (Equation((_GRAD_SWAP,),
                               (replace(_NABLA_W_SQ, coeff=0.5),)),)

# Commutators of nabla^2 W: the slot of W that couples, as (W subscripts
# with that slot summed over r, the index of the slot).
_SLOTS = (("rjkl", "i"), ("irkl", "j"), ("ijrl", "k"), ("ijkr", "l"))
_COMMUTATOR2 = (Term("nabla^2 W", 1.0, "ijklst->ijklst", "nw2"),
                Term("nabla^2 W swapped", -1.0, "ijklts->ijklst", "nw2"))
_WW_SLOTS = tuple(Term(f"W_{w} W_r{x}st", 1.0, f"{w},r{x}st->ijklst", "W W")
                  for w, x in _SLOTS)


def _commutation(k: int) -> tuple:
    """nabla^k W with its last two derivative slots swapped equals one
    Riemann coupling per slot of nabla^(k-2) W."""
    top = "abcdefghijkl"[:4 + k]
    base, i1, i2 = top[:-2], top[-2], top[-1]
    lhs = (Term(f"nabla^{k} W", 1.0, f"{top}->{top}", f"nw{k}"),
           Term(f"nabla^{k} W swapped", -1.0, f"{base}{i2}{i1}->{top}",
                f"nw{k}"))
    rhs = tuple(
        Term(f"Riem slot {s + 1}", 1.0,
             f"{base[:s]}p{base[s + 1:]},p{base[s]}{i1}{i2}->{top}",
             f"nw{k - 2} riem")
        for s in range(len(base)))
    return (Equation(lhs, rhs, ("lhs", (1.0, f"nw{k - 2} riem"))),)


_COMMUTE2_WEYL_RICCI = (Equation(
    _COMMUTATOR2,
    _WW_SLOTS
    + tuple(Term(f"W_{w} Ric_{r} g_{d}", sgn * 0.5, f"{w},{r},{d}->ijklst",
                 "W ric g")
            for w, x in _SLOTS
            for r, d, sgn in (("rs", f"{x}t", 1), ("rt", f"{x}s", -1),
                              (f"{x}t", "rs", 1), (f"{x}s", "rt", -1)))
    + tuple(Term(f"R W_{w} g_{a} g_{b}", sgn / 6.0, f",{w},{a},{b}->ijklst",
                 "R W g g")
            for w, x in _SLOTS
            for a, b, sgn in (("rs", f"{x}t", -1), ("rt", f"{x}s", 1))),
    ("lhs", (1.0, "W W"), (1.0, "W ric"))),)

_COMMUTE2_EINSTEIN = (Equation(
    _COMMUTATOR2,
    _WW_SLOTS + tuple(
        Term(f"R W_{w} g_{d}", sgn / 12.0, f",{w},{d}->ijklst", "R W g")
        for w, d, sgn in (("sjkl", "it", 1), ("tjkl", "is", -1),
                          ("iskl", "jt", 1), ("itkl", "js", -1),
                          ("ijsl", "kt", 1), ("ijtl", "ks", -1),
                          ("ijks", "lt", 1), ("ijkt", "ls", -1))),
    ("lhs", (1.0, "W W"), (1.0 / 12.0, "R W"))),)

_COMMUTE2_EINSTEIN_CONTRACTED = (Equation(
    (Term("nabla_i nabla_s W_ijkl", 1.0, "ijklsi->jkls", "nw2"),),
    tuple(Term(f"W_{w} W_r{x}si", 1.0, f"{w},r{x}si->jkls", "W W")
          for w, x in _SLOTS[1:])
    + (Term("R W_sjkl", 0.25, ",sjkl->jkls", "R W"),)),)

_COMMUTE3 = (Equation(
    (Term("nabla^3 W", 1.0, "ijkltrs->ijkltrs", "nw3"),
     Term("nabla^3 W swapped", -1.0, "ijkltsr->ijkltrs", "nw3")),
    (Term("nabla_t W_vjkl Riem_virs", 1.0, "vjklt,virs->ijkltrs", "nw1 riem"),
     Term("nabla_t W_ivkl Riem_vjrs", 1.0, "ivklt,vjrs->ijkltrs", "nw1 riem"),
     Term("nabla_t W_ijvl Riem_vkrs", 1.0, "ijvlt,vkrs->ijkltrs", "nw1 riem"),
     Term("nabla_t W_ijkv Riem_vlrs", 1.0, "ijkvt,vlrs->ijkltrs", "nw1 riem"),
     Term("nabla_v W_ijkl Riem_vtrs", 1.0, "ijklv,vtrs->ijkltrs",
          "nw1 riem")),
    ("lhs", (1.0, "nw1 riem"))),)

_KEY1 = (Equation(
    (Term("W_ijkl nabla W_jpqtk nabla W_ipqtl", 1.0, "ijkl,jpqtk,ipqtl->",
          "W nw1 nw1"),),
    (replace(_W_NW_NW, coeff=-0.5),)),)
_KEY2 = (Equation(
    (Term("W_ijkl nabla W_ipkqt nabla W_jplqt", 1.0, "ijkl,ipkqt,jplqt->",
          "W nw1 nw1"),),
    (replace(_W_NW_NW, coeff=0.5),)),)

_MIX_ORTHOGONALITY = tuple(
    Equation((Term(f"W{a} nabla W{b} nabla W{b}", 1.0, "ijkl,jpqtk,ipqtl->",
                   f"W{a} nw1{b} nw1{b}"),),
             scale=((1.0, f"W{a} nw1{b} nw1{b}"),))
    for a, b in (("+", "-"), ("-", "+")))

_DELTA_W = Term("Delta W", 1.0, "ijklss->ijkl", "nw2")
_WW_QUADRATIC = (Term("W_ipjq W_pqkl", -2.0, "ipjq,pqkl->ijkl", "W W"),
                 Term("W_ipql W_jpqk", 2.0, "ipql,jpqk->ijkl", "W W"),
                 Term("W_ipqk W_jpql", -2.0, "ipqk,jpql->ijkl", "W W"))
# General-dimension Laplacian of a divergence-free Weyl tensor at n = 4.
_LAPLACIAN_HARMONIC_WEYL = (Equation(
    (_DELTA_W,),
    tuple(Term(f"Ric_{r} W_{w}", c, f"{r},{w}->ijkl", "ric W")
          for r, w, c in (("ip", "pjkl", 0.5), ("jp", "pikl", -0.5),
                          ("lp", "pjki", 0.5), ("lp", "pikj", -0.5),
                          ("kp", "pjli", -0.5), ("kp", "pilj", 0.5)))
    + _WW_QUADRATIC
    + tuple(Term(f"Ric_pq W_{w} g_{d}", c, f"pq,{w},{d}->ijkl", "ric W g")
            for w, d, c in (("piql", "kj", 0.5), ("pjql", "ki", -0.5),
                            ("pikq", "lj", 0.5), ("pjkq", "li", -0.5)))),)
# Four-dimensional harmonic-Weyl Laplacian: Delta W = R/2 W - 2(...).
_LAPLACIAN_4D = (Equation(
    (_DELTA_W,),
    (Term("R W_ijkl", 0.5, ",ijkl->ijkl", "R W"),) + _WW_QUADRATIC),)

_DELTA_W_SQ = Term("Delta|W|^2", 0.5, "->", "lap_w")
_BOCHNER1_GENERAL = (Equation(
    (_DELTA_W_SQ,),
    (_NABLA_W_SQ,
     Term("Ric_pq W_pikl W_qikl", 2.0, "pq,pikl,qikl->", "ric W W"),
     Term("W_ijkl W_ipkq W_jplq", -4.0, "ijkl,ipkq,jplq->", "W W W"),
     replace(_W3, coeff=-1.0))),)
_BOCHNER1_4D = (Equation(
    (_DELTA_W_SQ,),
    (_NABLA_W_SQ, Term("R |W|^2", 0.5, ",ijkl,ijkl->", "R W W"),
     replace(_W3, coeff=-3.0))),)

# The first rough Bochner formula, Riemann form and Weyl form.
_DELTA_DW = Term("Delta|nabla W|^2", 0.5, "->", "lap_dw")
_NABLA2_W_SQ = Term("|nabla^2 W|^2", 1.0, "ijklst,ijklst->", "nw2 nw2")
_INNER_NABLA_LAP = Term("<nabla W, nabla Delta W>", 1.0, "ijklt,ijklsst->",
                        "nw1 nw3")
_PRO_BOCH = (Equation(
    (_DELTA_DW,),
    (_NABLA2_W_SQ, _INNER_NABLA_LAP, replace(_R_NABLA_W_SQ, coeff=0.25),
     Term("nabla W_ijkls nabla W_rjklt Riem_rist", 8.0, "ijkls,rjklt,rist->",
          "nw1 nw1 riem"))),)
# Its scale takes the same bounds as the Riemann form's: it leaves out the
# (2/3) R <nabla W, nabla W^t> term.
_PRO_BOCH_WEYL = (Equation(
    (_DELTA_DW,),
    (_NABLA2_W_SQ, _INNER_NABLA_LAP, replace(_R_NABLA_W_SQ, coeff=0.25),
     Term("nabla W_ijkls nabla W_rjklt W_rist", 8.0, "ijkls,rjklt,rist->",
          "nw1 nw1 W"),
     Term("R <nabla W, nabla W^t>", 2.0 / 3.0, ",ijkls,sjkli->",
          "R nw1 nw1")),
    (_DELTA_DW.name, _NABLA2_W_SQ.name, _INNER_NABLA_LAP.name,
     _R_NABLA_W_SQ.name, "nabla W_ijkls nabla W_rjklt W_rist")),)

_TEO_SBF = (Equation(
    (_DELTA_DW,),
    (_NABLA2_W_SQ, replace(_R_NABLA_W_SQ, coeff=13.0 / 12.0),
     replace(_W_NW_NW, coeff=-10.0))),)
_LEM_PAOLO = (Equation(
    (_INNER_NABLA_LAP,),
    (replace(_R_NABLA_W_SQ, coeff=0.5), replace(_W_NW_NW, coeff=-6.0))),)

# The second rough Bochner formula (k = 2).
_BOCHNERK_K2 = (Equation(
    (Term("Delta|nabla^2 W|^2", 0.5, "->", "lap_d2w"),),
    (Term("|nabla^3 W|^2", 1.0, "ijklstu,ijklstu->", "nw3 nw3"),
     Term("<nabla^2 W, nabla^2 Delta W>", 1.0, "ijklsu,ijklsttu->",
          "nw2 nw4"),
     Term("R |nabla^2 W|^2", 0.25, ",ijklst,ijklst->", "R nw2 nw2"),
     Term("nabla^2 W_ijkltr nabla^2 W_pjklts Riem_pirs", 8.0,
          "ijkltr,pjklts,pirs->", "nw2 nw2 riem"),
     Term("nabla^2 W_ijkltr nabla^2 W_ijklps Riem_ptrs", 2.0,
          "ijkltr,ijklps,ptrs->", "nw2 nw2 riem"))),)

_GAP_POINTWISE = (Equation((Term("|W|^2", 6.0, "ijkl,ijkl->", "W W"),),
                           (Term("R^2", 1.0, ",->", "R R"),)),)


# ---------------------------------------------------------------------------
# Evaluators that delegate to algebra and framecalc
# ---------------------------------------------------------------------------

def ev_block_decomposition(pd: PointData):
    d = _EYE
    ric0 = pd.ric - (pd.R / 4.0) * d
    kn_ric = (np.einsum("ik,jl->ijkl", ric0, d)
              - np.einsum("il,jk->ijkl", ric0, d)
              + np.einsum("ik,jl->ijkl", d, ric0)
              - np.einsum("il,jk->ijkl", d, ric0))
    kn_gg = 2.0 * (np.einsum("ik,jl->ijkl", d, d)
                   - np.einsum("il,jk->ijkl", d, d))
    rebuilt = pd.W + 0.5 * kn_ric + (pd.R / 24.0) * kn_gg
    m_direct = algebra.pair_matrix(pd.riem)
    m_rebuilt = algebra.pair_matrix(rebuilt)
    res = np.abs(m_direct - m_rebuilt).max()
    blocks = pd.blocks
    res = max(res, abs(np.trace(blocks.w_plus)), abs(np.trace(blocks.w_minus)),
              np.abs(blocks.reassemble() - m_direct).max())
    return float(res), float(np.abs(m_direct).max())


def ev_algebra(residual: Callable, pd: PointData, sign: int | None = None):
    """An algebra.*_identity_residual of W or of one of its sectors."""
    res, scale = residual(pd.operand("W", sign))
    return float(res), float(scale)


def ev_algebra_quaternionic(pd: PointData):
    res = max(algebra.quaternionic_residual(pd.sector(1).frame),
              algebra.quaternionic_residual(pd.sector(-1).frame))
    return res, 1.0


def ev_derdzinski_reconstruction(pd: PointData):
    res = 0.0
    for sign in (1, -1):
        pack = pd.sector(sign)
        res = max(res, _frobenius(pack.frame.reconstruct() - pack.w))
    return res, pd.w_norm


def ev_derder_reconstruction(pd: PointData, sign: int):
    pack = pd.sector(sign)
    ed = pack.ed
    return max(ed.recon_residual, ed.consistency_gap), \
        float(np.abs(pack.stacks[1]).max()) if 1 in pack.stacks else 0.0


def ev_derder_norm(pd: PointData, sign: int):
    pack = pd.sector(sign)
    return framecalc.norm_expansion_residual(pack.ed, pack.stack(1))


def ev_derder_cubic(pd: PointData, sign: int):
    pack = pd.sector(sign)
    return framecalc.cubic_contraction_residual(pack.w, pack.stack(1),
                                                pack.frame, pack.ed)


def ev_divz_relations(pd: PointData, sign: int):
    pack = pd.sector(sign)
    return framecalc.div_free_relations_residual(pack.ed, pack.frame)



# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentitySpec:
    """One registered residual check."""

    id: str
    anchors: tuple
    gate: str                 # hypothesis gate name
    depth: int                # covariant-derivative depth required
    laplacians: tuple         # scalar Laplacian fields required
    homogeneity: int          # weight h: terms scale as c^-h under g -> c^2 g
    tol: float                # default pass threshold on residual_rel
    evaluate: Callable
    sector: int | None = None

    @property
    def jet_order(self) -> int:
        """Metric jet order required, from the one plan in charts."""
        return required_jet_order(self.depth, self.laplacians)


@dataclass(frozen=True)
class OutOfScopeEntry:
    """Global (integral) statement listed for coverage, not checked."""

    id: str
    anchors: tuple
    note: str


def _sector_id(base: str, sign: int) -> str:
    return f"{base}-{_SECTOR_NAME[sign]}"


def _build_registry():
    specs = [
        IdentitySpec("weyl.decomposition", ("Weyl",), "any", 0, (), 2,
                     1e-12, TermList(_WEYL_DECOMPOSITION)),
        IdentitySpec("weyl.conformal-flat", ("Weyl",), "conformal", 0, (),
                     2, 1e-9, TermList(_CONFORMAL_FLAT)),
        IdentitySpec("riemann.einstein-form", ("RiemannEinstein",), "einstein",
                     0, (), 2, 1e-10, TermList(_RIEMANN_EINSTEIN_FORM)),
        IdentitySpec("operator.block-decomposition", ("conv", "dec"), "any",
                     0, (), 2, 1e-10, ev_block_decomposition),
        IdentitySpec("bianchi1.weyl", ("bianchi1-weyl",), "any", 0, (), 2,
                     1e-12, TermList(_BIANCHI1)),
        IdentitySpec("cotton.symmetries", ("CottonSym",), "any", 1, (), 3,
                     1e-10, TermList(_COTTON_SYMMETRIES)),
        IdentitySpec("cotton.traces", ("CottonTraces",), "any", 1, (), 3,
                     1e-10, TermList(_COTTON_TRACES)),
        IdentitySpec("cotton.defs-agree",
                     ("def_cot", "def_Cotton_comp_Weyl"), "any", 1, (), 3,
                     1e-8, TermList(_COTTON_DEFS_AGREE)),
        IdentitySpec("harmall.div-free", ("harmall",), "einstein", 1, (),
                     3, 1e-9, TermList(_HARMALL)),
        IdentitySpec("bianchi2.fake-weyl", ("fake2ndBianchiWeyl",), "any", 1,
                     (), 3, 1e-8, TermList(_FAKE_SECOND_BIANCHI)),
        IdentitySpec("gradweyl.general", ("lem_GradWeylNorm",), "any", 1,
                     (), 6, 1e-8, TermList(_GRADWEYL_GENERAL)),
        IdentitySpec("gradweyl.harmonic",
                     ("GradWeylNormEinstein", "lem_GradWeylNorm"), "harmonic",
                     1, (), 6, 1e-8, TermList(_GRADWEYL_HARMONIC)),
        IdentitySpec("commute2.riemann", ("SecondDerivWeylusingRiem",), "any",
                     2, (), 4, 1e-8, TermList(_commutation(2))),
        IdentitySpec("commute2.weyl-ricci", ("lem-comsec",), "any", 2, (),
                     4, 1e-8, TermList(_COMMUTE2_WEYL_RICCI)),
        IdentitySpec("commute2.einstein", ("lem-comsec",), "einstein", 2,
                     (), 4, 1e-8, TermList(_COMMUTE2_EINSTEIN)),
        IdentitySpec("commute2.einstein-contracted", ("lem-comsec",),
                     "einstein", 2, (), 4, 1e-8,
                     TermList(_COMMUTE2_EINSTEIN_CONTRACTED)),
        IdentitySpec("commute3.riemann", ("ThirdDerivWeylusingRiem",), "any",
                     3, (), 5, 1e-6, TermList(_COMMUTE3)),
        IdentitySpec("commutek.k3", ("CommutationWeylKorder",), "any", 3,
                     (), 5, 1e-6, TermList(_commutation(3))),
        IdentitySpec("commutek.k4", ("CommutationWeylKorder",), "any", 4,
                     (), 6, 1e-5, TermList(_commutation(4))),
        IdentitySpec("algebra.quadratic", ("WeylWeylMetric",), "any", 0,
                     (), 4, 1e-12,
                     partial(ev_algebra, algebra.quadratic_identity_residual)),
        IdentitySpec("algebra.cubic", ("WWW",), "any", 0, (), 6, 1e-12,
                     partial(ev_algebra, algebra.cubic_identity_residual)),
        IdentitySpec("algebra.quaternionic", ("quaternionic-structure",
                     "eq-derw"), "any", 0, (), 0, 1e-12,
                     ev_algebra_quaternionic),
        IdentitySpec("derdzinski.reconstruction", ("eq-derw",), "any", 0,
                     (), 2, 1e-10, ev_derdzinski_reconstruction),
        IdentitySpec("mix.orthogonality", ("eq-mix",), "any", 1, (), 8,
                     1e-8, TermList(_MIX_ORTHOGONALITY)),
        IdentitySpec("key2.full", ("lem-key2",), "any", 1, (), 8, 1e-8,
                     TermList(_KEY2)),
        IdentitySpec("key1.full", ("lem-key1",), "harmonic", 1, (), 8,
                     1e-7, TermList(_KEY1)),
        IdentitySpec("laplacian.harmonic-weyl", ("LaplacianOfHarmonicWeyl",),
                     "harmonic", 2, (), 4, 1e-8,
                     TermList(_LAPLACIAN_HARMONIC_WEYL)),
        IdentitySpec("laplacian.4d", ("eq-bw",), "harmonic", 2, (), 4,
                     1e-8, TermList(_LAPLACIAN_4D)),
        IdentitySpec("bochner1.general", ("BWHarmonicWeyl",), "harmonic", 2,
                     ("w",), 6, 1e-8, TermList(_BOCHNER1_GENERAL)),
        IdentitySpec("bochner1.4d", ("nice",), "harmonic", 2, ("w",), 6,
                     1e-8, TermList(_BOCHNER1_4D)),
        IdentitySpec("bochner2.pro-boch", ("pro-boch",), "einstein", 3,
                     ("dw",), 8, 1e-6, TermList(_PRO_BOCH)),
        IdentitySpec("bochner2.pro-boch-weyl", ("pro-boch",), "einstein", 3,
                     ("dw",), 8, 1e-6, TermList(_PRO_BOCH_WEYL)),
        IdentitySpec("bochner2.teo-sbf", ("teo-sbf",), "einstein", 3,
                     ("dw",), 8, 1e-6, TermList(_TEO_SBF)),
        IdentitySpec("lem-paolo", ("lem-paolo",), "harmonic", 3, (), 8,
                     1e-6, TermList(_LEM_PAOLO)),
        IdentitySpec("bochnerk.k2", ("pro-boch-k", "BochnerBIG"), "einstein",
                     4, ("d2w",), 10, 1e-5, TermList(_BOCHNERK_K2)),
    ]
    for sign in (1, -1):
        sfx = partial(_sector_id, sign=sign)
        specs += [
            IdentitySpec(sfx("algebra.quadratic.sector"), ("WeylWeylMetric",),
                         "any", 0, (), 4, 1e-12,
                         partial(ev_algebra,
                                 algebra.quadratic_identity_residual,
                                 sign=sign), sign),
            IdentitySpec(sfx("algebra.cubic.sector"), ("WWW",), "any", 0,
                         (), 6, 1e-12,
                         partial(ev_algebra, algebra.cubic_identity_residual,
                                 sign=sign), sign),
            IdentitySpec(sfx("algebra.quartic.sector"), ("lem-quart",), "any",
                         0, (), 8, 1e-12,
                         partial(ev_algebra, algebra.quartic_identity_residual,
                                 sign=sign), sign),
            IdentitySpec(sfx("derder.reconstruction"), ("eq-derder",), "any",
                         1, (), 3, 1e-8,
                         partial(ev_derder_reconstruction, sign=sign), sign),
            IdentitySpec(sfx("derder.norm"), ("eq-nqder",), "any", 1, (),
                         6, 1e-7, partial(ev_derder_norm, sign=sign), sign),
            IdentitySpec(sfx("derder.cubic"), ("eqrhs",), "any", 1, (), 8,
                         1e-7, partial(ev_derder_cubic, sign=sign), sign),
            IdentitySpec(sfx("divz.relations"), ("eq-divz",),
                         "sector-harmonic", 1, (), 3, 1e-7,
                         partial(ev_divz_relations, sign=sign), sign),
            IdentitySpec(sfx("key1.sector"), ("lem-key1",), "sector-harmonic",
                         1, (), 8, 1e-7, TermList(_KEY1, sign),
                         sign),
            IdentitySpec(sfx("key2.sector"), ("lem-key2",), "any", 1, (),
                         8, 1e-8, TermList(_KEY2, sign), sign),
            IdentitySpec(sfx("bochner1.sector"), ("niceself",),
                         "sector-harmonic", 2, ("w_pm",), 6, 1e-8,
                         TermList(_BOCHNER1_4D, sign), sign),
            IdentitySpec(sfx("bochner2.pro-boch"),
                         ("pro-boch-k-pm", "BochnerBIGpm"), "einstein", 3,
                         ("dw_pm",), 8, 1e-6,
                         TermList(_PRO_BOCH, sign), sign),
            IdentitySpec(sfx("bochnerk.k2"),
                         ("pro-boch-k-pm", "BochnerBIGpm"), "einstein", 4,
                         ("d2w_pm",), 10, 1e-5,
                         TermList(_BOCHNERK_K2, sign), sign),
            IdentitySpec(sfx("gap.pointwise"),
                         ("final-proposition", "lem-quart"),
                         "einstein-parallel-sector", 1, (), 4, 1e-8,
                         TermList(_GAP_POINTWISE, sign), sign),
        ]
    return {s.id: s for s in specs}


REGISTRY: dict[str, IdentitySpec] = _build_registry()

OUT_OF_SCOPE = [
    OutOfScopeEntry("integral.prop1", ("prop1",),
                    "L2 identity on compact Einstein manifolds"),
    OutOfScopeEntry("integral.second-bochner-l2",
                    ("thm-intbochintro", "teo-idsa"),
                    "sector L2 identity on compact Einstein manifolds"),
    OutOfScopeEntry("integral.cor-d2", ("cor-d2",),
                    "integrated commutator identity"),
    OutOfScopeEntry("integral.lem-1", ("lem-1",),
                    "integrated antisymmetric-Hessian identity"),
    OutOfScopeEntry("integral.hessian-improved", ("pro-imprhess",),
                    "improved integral Hessian-vs-Laplacian estimate"),
    OutOfScopeEntry("integral.gap-poincare", ("thm-gap",),
                    "Poincare-type gap inequality and its corollaries"),
    OutOfScopeEntry("integral.quart-l2", ("lem-quart",),
                    "integral shell; pointwise core checked as "
                    "algebra.quartic.sector-*"),
    OutOfScopeEntry("integral.selfdual-gap", ("final-proposition",),
                    "integral statement; parallel-Weyl pointwise reduction "
                    "checked as gap.pointwise-*"),
]

# Identities expected to be violated on declared negative-control charts,
# with the minimum residual_rel that counts as a violation.
CONTROL_EXPECT_FAIL: dict[str, float] = {
    "bochner2.teo-sbf": 1e-2,
    "key1.full": 1e-2,
    "key1.sector-plus": 1e-2,
    "key1.sector-minus": 1e-2,
    "commute2.einstein-contracted": 1e-2,
    "lem-paolo": 1e-2,
    "divz.relations-plus": 1e-3,
    "divz.relations-minus": 1e-3,
    "gradweyl.harmonic": 1e-3,
}

# The violation fraction every control expectation must reach.
CONTROL_MIN_FRACTION = 0.6


def gate_satisfied(spec: IdentitySpec, pd: PointData) -> bool:
    """Numerically verified hypothesis gate for one identity at one point."""
    if spec.gate == "any":
        return True
    if spec.gate == "harmonic":
        return pd.is_harmonic
    if spec.gate == "sector-harmonic":
        return pd.is_sector_harmonic(spec.sector)
    if spec.gate == "einstein":
        return pd.is_einstein
    if spec.gate == "einstein-parallel-sector":
        return (pd.is_einstein and pd.is_sector_parallel(spec.sector)
                and pd.sector_nonzero(spec.sector))
    if spec.gate == "conformal":
        return pd.is_conformally_flat
    raise ValueError(f"unknown gate {spec.gate!r}")


def static_applicable(spec: IdentitySpec, props) -> bool:
    """Whether a chart's declared properties could satisfy the gate."""
    if spec.gate == "any":
        return True
    if spec.gate in ("harmonic", "sector-harmonic"):
        return props.harmonic_weyl or props.einstein is not None
    if spec.gate == "einstein":
        return props.einstein is not None
    if spec.gate == "einstein-parallel-sector":
        return props.einstein is not None and props.parallel_weyl
    if spec.gate == "conformal":
        return props.conformally_flat
    raise ValueError(f"unknown gate {spec.gate!r}")


def residual_rel(spec: IdentitySpec, pd: PointData, residual_abs: float,
                 scale: float) -> tuple[float, float]:
    """Relative residual with the homogeneity-weighted curvature floor."""
    floor = max(scale, pd.floor(spec.homogeneity), FLOOR)
    return residual_abs / floor, floor
