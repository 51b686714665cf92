"""Registry of pointwise curvature identities as residual checks.

Every check is handed one SectorPack, the point seen from the duality sector
that its IdentitySpec.sector names: the pack of the half W+ or W-, or
PointData, the whole point.  That field alone states a row's half; the
suite picks the pack.  A check returns a pair (residual_abs, scale).  The
suite divides the residual by max(scale, |Riem|^(h/2), 1e-30) where h is the
identity's homogeneity weight (frame components of every term scale as c^-h
under g -> c^2 g), so relative residuals are scale invariant and "0 = 0"
points pass no matter how the round-off noise falls.

Most identities are data, a TermList: one or more equations
sum(lhs) = sum(rhs), each term coeff * einsum(subscripts, *operands) over
operands named as in SectorPack.operand.  W, nabla^k W and the Laplacian
fields are read from the sector the list is handed, so one list serves the
full identity and both halves.  Three operands exist only for one half: `lam`
and `E`, the eigenvalues and eigen-two-forms of its Derdzinski frame, and
`K`, the expansion 2 nabla W+- = K_abt E_a (x) E_b.  All three are read off
the half's W+- blocks: the frame eigen-decomposes the 3x3 W block, and K is
the nabla W blocks rotated into the frame (framecalc).  With them
Derdzinski's W+- = (1/2) lam_a E_a (x) E_a and its first-derivative
expansion are term lists too.  The residual is the largest Frobenius norm of
sum(lhs) - sum(rhs) over the equations.  The scale is the largest term norm,
unless an equation names its bounds: terms, the summed left side, or products
of operand norms such as |W| |Riem|.  Named bounds serve a pure X = 0
statement, whose terms all vanish together, and bochner2.pro-boch-weyl,
whose scale leaves out one of its terms.  An operand norm is
SectorPack.norm, which reads |W| and |nabla^k W| off the W+- blocks.

A term that contracts its W-type operands two-form pair against two-form
pair reads their W+- blocks, operand b<k> (b0 is W), in place of frame
components.  Each basis two-form has B_ij B_ij = 2, so the term's
coefficient carries a factor 2 per contracted pair of two-form slots: 4
for an inner product, 8 for a chain of three.  These are |W|^2 (in
algebra.quadratic, bochner1 and gap.pointwise), W_ijkl W_ijpq W_klpq,
|nabla W|^2, R |nabla W|^2, W_ijkl nabla W_ijpqt nabla W_klpqt,
|nabla^2 W|^2, <nabla W, nabla Delta W> and four of the five terms of
bochnerk.k2, so nabla^3 W and nabla^4 W are never expanded.  A term that
contracts a two-form slot with any other index (the Riem_pirs term of
bochnerk.k2, Delta W, commute2.einstein-contracted, the other W and
nabla W terms) reads W, nw1 or nw2 in frame components.

How a term is contracted depends only on its subscripts.  A term of one or
two tensors is one einsum loop, never a planned path, so no inner product
becomes a BLAS dot, whose summation order depends on the thread count.  A
term of three or more tensors is algebra.contract: one matrix product per
pair of operands, paired in numpy's greedy order and planned once per
subscripts and operand shapes.  The exception is a term whose operands all
share an index, the Derdzinski frame's a,aij,akl->ijkl and a,abt,abt->
and the block chains hxy,hxz,hyz-> and hxy,hxzt,hyzt-> (h the sector):
on operands this small one einsum loop is faster than batched pair
products.

The one data evaluator that is not an einsum list is the Commutator: the
Ricci identity [nabla_a, nabla_b] nabla^(k-2) W = R(e_a, e_b) .
nabla^(k-2) W, evaluated on the W+- blocks of nabla^k W with no expansion
to frame components.  Its data are k, the curvature pieces (Terms, each a
Riemann-type 4-tensor: Riem, or W plus its Ricci and scalar parts, whose
sum operator.block-decomposition checks against Riem) and named bounds as
above: |lhs| and norm products such as |nabla^(k-2) W| |Riem|, since the
two left-hand terms are far larger than their difference.
commute2.einstein-contracted stays a TermList, since it contracts a
two-form slot with a derivative slot.

Seven rows stay functions, each for a reason, and each reads only
SectorPack.operand:
- algebra.quaternionic is a multiplication table of the frames, at
  homogeneity 0;
- algebra.quartic.sector-+-: three of the four slot terms of its Q vanish
  on every half (algebra.quartic_terms), so as data no scaling of them
  could fail the row, while W+ + W- in place of a half does;
- derder.reconstruction-+- and divz.relations-+-: their residual and scale
  are largest entries, which no TermList bound states.

Identities carry a hypothesis gate, re-verified numerically at each point
before a check is marked applicable; GATES is the one table of what each
gate means, read on the same sector pack as the check, whose cached
properties keep each answer.  The gates measure |W|, |nabla W| and div W on
the W+- blocks too (SectorPack.norm and div): W and nabla^k W become frame
components only for a term that reads them as operand W or nw<k>.  On the
negative-control chart a designated set of hypothesis-dependent identities
is evaluated anyway and expected to be violated; that expectation is part
of the suite's pass criteria.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from . import algebra, framecalc
from .charts import CapacityError, CurvaturePoint, required_jet_order

DIM = 4
_EYE = np.eye(DIM)
_SECTOR_NAME = {1: "plus", -1: "minus"}
# The Kulkarni-Nomizu product with the frame metric as a map on two-tensors:
# (h (.) g)_pqab = h_mn _KN_G[m, n, p, q, a, b]
#                = h_pa g_qb + h_qb g_pa - h_pb g_qa - h_qa g_pb.
_KN_G = (np.einsum("mp,na,qb->mnpqab", _EYE, _EYE, _EYE)
         + np.einsum("mq,nb,pa->mnpqab", _EYE, _EYE, _EYE)
         - np.einsum("mp,nb,qa->mnpqab", _EYE, _EYE, _EYE)
         - np.einsum("mq,na,pb->mnpqab", _EYE, _EYE, _EYE))

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


@lru_cache(maxsize=None)
def _parse(name: str) -> tuple:
    """(name, half, k) of an operand name: a trailing `+` or `-` names the
    duality half (+1 or -1) to read it from, else half is None, and k is 0
    for W, k for nw<k> (nabla^k W) and b<k> (its W+- blocks) and None for
    any other operand."""
    half = None
    if name[-1] in "+-":
        name, half = name[:-1], 1 if name[-1] == "+" else -1
    if name == "W":
        return name, half, 0
    if name.startswith("nw"):
        return name, half, int(name[2:])
    if name[0] == "b" and name[1:].isdigit():
        return name, half, int(name[1:])
    return name, half, None


class SectorPack:
    """A point seen from duality half `sign` (+1 or -1): W and nabla^k W
    held as the half's W+- blocks, the point's other operands, and the
    half's gates.  PointData is the whole point, sign None.

    Every measured size reads the blocks: norm and the divergence div.
    A term that contracts two-form pair against two-form pair reads the
    blocks too, as operand b<k>.  Frame components are expanded only for a
    term that reads W or nw<k>, by stack(k) on first read.
    """

    def __init__(self, cp: CurvaturePoint, sign: int | None,
                 riem_norm: float):
        # cp and a scalar, not the PointData: a back-reference would make
        # every point's arrays a reference cycle that only the cyclic
        # collector frees
        self.cp = cp
        self.sign = sign
        self.name = _SECTOR_NAME.get(sign)
        self.riem, self.ric, self.R = cp.riem, cp.ric, cp.scalar
        self.riem_norm = riem_norm
        s = {None: slice(0, 2), 1: slice(0, 1), -1: slice(1, 2)}[sign]
        self._blocks = {k: b[s] for k, b in cp.weyl_blocks.items()}
        self.forms = cp.forms[s]
        self._stacks: dict[int, np.ndarray] = {}
        self._norms: dict[int, float] = {}

    def sector(self, sign: int | None) -> "SectorPack":
        """The pack of duality sector `sign`: a half holds only itself."""
        if sign != self.sign:
            raise ValueError(f"the {self.name} half has no "
                             f"{_SECTOR_NAME.get(sign, 'whole')} operands")
        return self

    def blocks(self, k: int) -> np.ndarray:
        """The W+- blocks of nabla^k W: (n, 3, 3, 4, .., 4), n sectors."""
        what = "derivative stack" if self.name is None \
            else f"{self.name} derivative stack"
        return _computed(self._blocks, k, what)

    def stack(self, k: int) -> np.ndarray:
        """nabla^k W in frame components (k = 0 is W)."""
        if k not in self._stacks:
            self._stacks[k] = algebra.from_sector_blocks(self.blocks(k),
                                                         self.forms)
        return self._stacks[k]

    def operand(self, name: str):
        """The term operand `name` in this sector.

        `W`, `nw<k>` (nabla^k W), `b<k>` (the W+- blocks of nabla^k W,
        blocks(k); b0 is W's) and `lap_<field>` (the scalar Laplacian
        field) are read from this sector, or from the half that a trailing
        `+` or `-` names.  `lam`, `E` and `K` exist only for one half: the
        eigenvalues (3,) and eigen-two-forms (3, 4, 4) of its Derdzinski
        frame and the coefficients K_abt (3, 3, 4) of 2 nabla W over
        E_a (x) E_b (frame and K), read off the half's blocks with no
        expansion.  `g` is the frame metric, `kn_g` the Kulkarni-Nomizu
        product with it (_KN_G) and `cotton_div` the Cotton tensor from
        div W, C_ijk = 2 (div W)_ikj.  Any other name (`riem`, `ric`, `R`,
        or a CurvaturePoint field such as `cotton`) is read whole.
        """
        name, half, k = _parse(name)
        if half is not None:
            return self.sector(half).operand(name)
        if k is not None:
            return self.blocks(k) if name[0] == "b" else self.stack(k)
        if name in ("lam", "E", "K"):
            if self.sign is None:
                raise ValueError(f"operand {name!r} exists only for one "
                                 f"half: read it from a half or with a + "
                                 f"or - suffix")
            if name == "lam":
                return self.frame.eigenvalues
            return self.frame.forms if name == "E" else self.K
        if name.startswith("lap_"):
            key = name[4:] if self.sign is None else f"{name[4:]}_{self.name}"
            return _computed(self.cp.laplacians, key, "Laplacian field")
        if name == "g":
            return _EYE
        if name == "kn_g":
            return _KN_G
        if name == "cotton_div":
            return 2.0 * np.swapaxes(self.div, 1, 2)
        if name in ("riem", "ric", "R"):
            return getattr(self, name)
        return getattr(self.cp, name)

    def norm(self, name: str) -> float:
        """The Frobenius norm of operand(name).  That of W and nw<k> reads
        the blocks: each basis two-form has Frobenius norm sqrt 2, so the
        frame components' norm is twice the blocks'."""
        name, half, k = _parse(name)
        if half is not None:
            return self.sector(half).norm(name)
        if k is None or name[0] == "b":
            return _frobenius(self.operand(name))
        if k not in self._norms:
            self._norms[k] = 2.0 * _frobenius(self.blocks(k))
        return self._norms[k]

    def floor(self, h: int) -> float:
        return max(self.riem_norm, 0.0) ** (h / 2.0)

    @cached_property
    def div(self) -> np.ndarray:
        """(div W)_ijk = nabla_t W_tijk from the blocks of nabla W: the
        forms' first index contracted with the derivative slot, then the
        second form."""
        c = np.einsum("sxyt,sxti->syi", self.blocks(1), self.forms)
        return np.einsum("syi,syjk->ijk", c, self.forms)

    @cached_property
    def action(self) -> np.ndarray:
        """algebra.sector_action of the sector's basis two-forms."""
        return algebra.sector_action(self.forms)

    @cached_property
    def frame(self) -> algebra.TwoFormFrame:
        """The half's Derdzinski frame, from its W block."""
        return algebra.derdzinski_frame(self.blocks(0)[0], self.forms[0])

    @cached_property
    def K(self) -> np.ndarray:
        """K_abt of 2 nabla W = K_abt E_a (x) E_b: the half's nabla W blocks
        rotated into the frame."""
        return framecalc.extract_frame_derivatives(self.blocks(1)[0],
                                                   self.frame.rows)

    # -- measured hypothesis gates, each measured once per pack -------------

    @cached_property
    def is_einstein(self) -> bool:
        ric0 = self.ric - (self.R / 4.0) * _EYE
        return _frobenius(ric0) <= \
            EINSTEIN_GATE_RTOL * max(self.riem_norm, FLOOR)

    @cached_property
    def is_harmonic(self) -> bool:
        """div W = 0 in this sector."""
        scale = max(self.norm("nw1"), self.riem_norm ** 1.5, FLOOR)
        return _frobenius(self.div) <= HARMONIC_GATE_RTOL * scale

    @cached_property
    def is_parallel(self) -> bool:
        """nabla W = 0 in this sector: |nabla W| at round-off of |Riem|^1.5."""
        return self.norm("nw1") <= \
            PARALLEL_GATE_RTOL * max(self.riem_norm ** 1.5, FLOOR)

    @cached_property
    def is_nonzero(self) -> bool:
        """W != 0 in this sector."""
        return self.norm("W") > SECTOR_NONZERO_RTOL * max(self.riem_norm,
                                                          FLOOR)


class PointData(SectorPack):
    """A CurvaturePoint as its whole sector, sign None, holding the packs
    of its two halves.  The whole W is the sum of its halves, which is what
    expanding both blocks at once computes."""

    def __init__(self, cp: CurvaturePoint):
        riem_norm = _frobenius(cp.riem)
        self._halves = {s: SectorPack(cp, s, riem_norm) for s in (1, -1)}
        super().__init__(cp, None, riem_norm)

    def sector(self, sign: int | None) -> SectorPack:
        return self if sign is None else self._halves[sign]

    def stack(self, k: int) -> np.ndarray:
        if k not in self._stacks:
            self.blocks(k)      # a missing k names the whole W
            self._stacks[k] = self._halves[1].stack(k) \
                + self._halves[-1].stack(k)
        return self._stacks[k]

    # -- gates of the whole point only --------------------------------------

    @cached_property
    def is_conformally_flat(self) -> bool:
        return self.norm("W") <= \
            CONFORMAL_GATE_RTOL * max(self.riem_norm, FLOOR)

    @cached_property
    def is_ricci_flat(self) -> bool:
        return _frobenius(self.ric) <= \
            EINSTEIN_GATE_RTOL * max(self.riem_norm, FLOOR)

    @cached_property
    def cotton_nonzero(self) -> bool:
        return _frobenius(self.cp.cotton) > \
            COTTON_NONZERO_RTOL * max(self.riem_norm ** 1.5, FLOOR)


# ---------------------------------------------------------------------------
# Identities as term lists
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Term:
    """coeff * einsum(subscripts, *operands).

    `operands` is a space-separated list of SectorPack.operand names; an
    empty subscript marks a scalar operand (R or a Laplacian field).
    """

    name: str
    coeff: float
    subscripts: str
    operands: str
    # (the tensor operands' subscripts or None, their names, the scalar
    # operands' names, the function that contracts them), split once
    _split: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        inputs, out = self.subscripts.split("->")
        pairs = list(zip(inputs.split(","), self.operands.split(),
                         strict=True))
        subs = [sub for sub, _ in pairs if sub]
        pairwise = len(subs) > 2 and not set.intersection(*map(set, subs))
        object.__setattr__(self, "_split", (
            ",".join(subs) + "->" + out if subs else None,
            tuple(name for sub, name in pairs if sub),
            tuple(name for sub, name in pairs if not sub),
            algebra.contract if pairwise else np.einsum))

    def value(self, sector: SectorPack):
        spec, tensors, scalars, contract = self._split
        coeff = self.coeff
        for name in scalars:
            coeff *= sector.operand(name)
        if spec is None:
            return float(coeff)
        value = contract(spec, *(sector.operand(n) for n in tensors))
        if spec.endswith("->"):
            value = float(value)
        return value if coeff == 1.0 else coeff * value


@dataclass(frozen=True)
class Equation:
    """sum(lhs) = sum(rhs), with optional named scale bounds.

    Each bound in `scale` is a term name, "lhs" (the norm of the summed left
    side), or (coeff, "op op ...") for |coeff| times the product of those
    operands' norms (SectorPack.norm).  With no bounds the scale is the
    largest term norm.
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


def _scale(bounds: tuple, sector: SectorPack, size) -> float:
    """The largest of the named scale bounds.

    A bound is "lhs" or a term name, whose norm is size(bound), or
    (coeff, "op op ..") for |coeff| times the product of those operands'
    norms, SectorPack.norm.
    """
    scale = 0.0
    for bound in bounds:
        if isinstance(bound, str):
            scale = max(scale, size(bound))
        else:
            coeff, names = bound
            scale = max(scale, abs(coeff) * math.prod(
                sector.norm(n) for n in names.split()))
    return scale


@dataclass(frozen=True)
class TermList:
    """A registry evaluator: the residual and scale of its equations."""

    equations: tuple

    @property
    def terms(self) -> tuple:
        return tuple(t for eq in self.equations for t in eq.lhs + eq.rhs)

    def __call__(self, sector: SectorPack) -> tuple[float, float]:
        residual = scale = 0.0
        for eq in self.equations:
            values = {t.name: t.value(sector) for t in eq.lhs + eq.rhs}
            lhs = _sum([values[t.name] for t in eq.lhs])
            rhs = _sum([values[t.name] for t in eq.rhs])
            residual = max(residual, _norm(lhs - rhs))
            scale = max(scale, _scale(
                eq.scale or tuple(values), sector,
                lambda b: _norm(lhs if b == "lhs" else values[b])))
        return residual, scale


@dataclass(frozen=True)
class Commutator:
    """A registry evaluator: the Ricci identity on nabla^(k-2) W, on its
    W+- blocks.

    [nabla_a, nabla_b] nabla^(k-2) W = R(e_a, e_b) . nabla^(k-2) W.  The
    left side is the blocks of nabla^k W less themselves with the last two
    slots swapped.  The right side is M, the sum of the `curvature` terms
    (each a Riemann-type 4-tensor), acting on every slot of nabla^(k-2) W
    through its last pair (algebra.curvature_action), so both sides stay
    blocks: 4,608 entries at k = 4 where frame components have 65,536.
    Residual and scale are frame-component norms, twice the blocks'.
    `scale` names bounds as Equation.scale does: "lhs" or (coeff,
    "op op ..").
    """

    k: int
    curvature: tuple
    scale: tuple

    @property
    def terms(self) -> tuple:
        return self.curvature

    def __call__(self, sector: SectorPack) -> tuple[float, float]:
        top = sector.blocks(self.k)
        lhs = top - np.swapaxes(top, -1, -2)
        m = _sum([t.value(sector) for t in self.curvature])
        rhs = algebra.curvature_action(m, sector.blocks(self.k - 2),
                                       sector.forms, sector.action)
        sizes = {"lhs": 2.0 * _frobenius(lhs)}
        return 2.0 * _frobenius(lhs - rhs), \
            _scale(self.scale, sector, sizes.__getitem__)


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

def _times(term: Term, c: float) -> Term:
    """`term` with its coefficient multiplied by c, pair factor kept."""
    return replace(term, coeff=c * term.coeff)


# Terms that several identities share, at coefficient 1 in frame
# components.  A term on the blocks b<k> is indexed h (the sector), then
# its two two-form slots, then the derivative slots, and its coefficient
# carries the pair factor (module docstring): 4 for an inner product, 8
# for a chain of three.
_NABLA_W_SQ = Term("|nabla W|^2", 4.0, "hxyt,hxyt->", "b1 b1")
_R_NABLA_W_SQ = Term("R |nabla W|^2", 4.0, ",hxyt,hxyt->", "R b1 b1")
_W_NW_NW = Term("W_ijkl nabla W_ijpqt nabla W_klpqt", 8.0,
                "hxy,hxzt,hyzt->", "b0 b1 b1")
_W3 = Term("W_ijkl W_ijpq W_klpq", 8.0, "hxy,hxz,hyz->", "b0 b0 b0")
_W_IPKQ = Term("W_ijkl W_ipkq W_jplq", 1.0, "ijkl,ipkq,jplq->", "W W W")

# The pointwise algebra of W and of each half.
_QUADRATIC = (Equation(
    (Term("W_ijkt W_ijkl", 1.0, "ijkt,ijkl->tl", "W W"),),
    (Term("|W|^2 g_tl", 0.25 * 4.0, "hxy,hxy,tl->tl", "b0 b0 g"),),
    ((0.25, "W W"),)),)
_CUBIC = (Equation((_W_IPKQ,), (_times(_W3, 0.5),)),)
# Derdzinski's form of each half: W+- = (1/2) lam_a E_a (x) E_a.
_DERDZINSKI = tuple(
    Equation((Term(f"W{h}_ijkl", 1.0, "ijkl->ijkl", f"W{h}"),),
             (Term(f"lam{h}_a E{h}_a E{h}_a", 0.5, "a,aij,akl->ijkl",
                   f"lam{h} E{h} E{h}"),),
             ((1.0, "W"),))
    for h in "+-")
# Its first derivative, 2 nabla W+- = K_abt E_a (x) E_b: |nabla W+-|^2 and
# W+-(nabla W+-, nabla W+-) in K, the latter with lam + mu + nu = 0 used.
_DERDER_NORM = (Equation((_times(_NABLA_W_SQ, 0.25),),
                         (Term("K_abt K_abt", 1.0, "abt,abt->", "K K"),)),)
_DERDER_CUBIC = (Equation(
    (_times(_W_NW_NW, 0.125),),
    (Term("lam_a K_abt K_abt", 1.0, "a,abt,abt->", "lam K K"),)),)

_GRAD_SWAP = Term("<nabla W, nabla W swapped>", 1.0, "ijklt,ijktl->",
                  "nw1 nw1")
_GRADWEYL_GENERAL = (Equation(
    (_GRAD_SWAP,),
    (_times(_NABLA_W_SQ, 0.5),
     Term("|div W|^2", -1.0, "tijkt,sijks->", "nw1 nw1"))),)
_GRADWEYL_HARMONIC = (Equation((_GRAD_SWAP,),
                               (_times(_NABLA_W_SQ, 0.5),)),)


def _commute_riemann(k: int) -> Commutator:
    """nabla^k W with its last two derivative slots swapped equals one
    Riemann coupling per slot of nabla^(k-2) W."""
    return Commutator(k, (Term("Riem_pqab", 1.0, "pqab->pqab", "riem"),),
                      ("lhs", (1.0, f"nw{k - 2} riem")))


_W_PIECE = Term("W_pqab", 1.0, "pqab->pqab", "W")
# Riem = W + (1/2) Ric (.) g - (R/12) g (.) g
_RIEMANN_PIECES = (
    _W_PIECE,
    Term("(Ric (.) g)_pqab", 0.5, "mn,mnpqab->pqab", "ric kn_g"),
    Term("R (g (.) g)_pqab", -1.0 / 12.0, ",mn,mnpqab->pqab", "R g kn_g"))
# The block decomposition of the curvature operator, with W from its W+-
# blocks.
_BLOCK_DECOMPOSITION = (Equation(
    (Term("Riem_pqab", 1.0, "pqab->pqab", "riem"),), _RIEMANN_PIECES,
    ((1.0, "riem"),)),)
_COMMUTE2_WEYL_RICCI = Commutator(2, _RIEMANN_PIECES,
                                  ("lhs", (1.0, "W W"), (1.0, "W ric")))
# Riem = W + (R/24) g (.) g on an Einstein metric
_COMMUTE2_EINSTEIN = Commutator(2, (
    _W_PIECE,
    Term("R (g (.) g)_pqab", 1.0 / 24.0, ",mn,mnpqab->pqab", "R g kn_g")),
    ("lhs", (1.0, "W W"), (1.0 / 12.0, "R W")))
_COMMUTE_K3 = _commute_riemann(3)

_COMMUTE2_EINSTEIN_CONTRACTED = (Equation(
    (Term("nabla_i nabla_s W_ijkl", 1.0, "ijklsi->jkls", "nw2"),),
    tuple(Term(f"W_{w} W_r{x}si", 1.0, f"{w},r{x}si->jkls", "W W")
          for w, x in (("irkl", "j"), ("ijrl", "k"), ("ijkr", "l")))
    + (Term("R W_sjkl", 0.25, ",sjkl->jkls", "R W"),)),)

_KEY1 = (Equation(
    (Term("W_ijkl nabla W_jpqtk nabla W_ipqtl", 1.0, "ijkl,jpqtk,ipqtl->",
          "W nw1 nw1"),),
    (_times(_W_NW_NW, -0.5),)),)
_KEY2 = (Equation(
    (Term("W_ijkl nabla W_ipkqt nabla W_jplqt", 1.0, "ijkl,ipkqt,jplqt->",
          "W nw1 nw1"),),
    (_times(_W_NW_NW, 0.5),)),)

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
     _times(_W_IPKQ, -4.0), _times(_W3, -1.0))),)
_BOCHNER1_4D = (Equation(
    (_DELTA_W_SQ,),
    (_NABLA_W_SQ, Term("R |W|^2", 0.5 * 4.0, ",hxy,hxy->", "R b0 b0"),
     _times(_W3, -3.0))),)

# The first rough Bochner formula, Riemann form and Weyl form.
_DELTA_DW = Term("Delta|nabla W|^2", 0.5, "->", "lap_dw")
_NABLA2_W_SQ = Term("|nabla^2 W|^2", 4.0, "hxyst,hxyst->", "b2 b2")
_INNER_NABLA_LAP = Term("<nabla W, nabla Delta W>", 4.0, "hxyt,hxysst->",
                        "b1 b3")
_PRO_BOCH = (Equation(
    (_DELTA_DW,),
    (_NABLA2_W_SQ, _INNER_NABLA_LAP, _times(_R_NABLA_W_SQ, 0.25),
     Term("nabla W_ijkls nabla W_rjklt Riem_rist", 8.0, "ijkls,rjklt,rist->",
          "nw1 nw1 riem"))),)
# Its scale takes the same bounds as the Riemann form's: it leaves out the
# (2/3) R <nabla W, nabla W^t> term.
_PRO_BOCH_WEYL = (Equation(
    (_DELTA_DW,),
    (_NABLA2_W_SQ, _INNER_NABLA_LAP, _times(_R_NABLA_W_SQ, 0.25),
     Term("nabla W_ijkls nabla W_rjklt W_rist", 8.0, "ijkls,rjklt,rist->",
          "nw1 nw1 W"),
     Term("R <nabla W, nabla W^t>", 2.0 / 3.0, ",ijkls,sjkli->",
          "R nw1 nw1")),
    (_DELTA_DW.name, _NABLA2_W_SQ.name, _INNER_NABLA_LAP.name,
     _R_NABLA_W_SQ.name, "nabla W_ijkls nabla W_rjklt W_rist")),)

_TEO_SBF = (Equation(
    (_DELTA_DW,),
    (_NABLA2_W_SQ, _times(_R_NABLA_W_SQ, 13.0 / 12.0),
     _times(_W_NW_NW, -10.0))),)
_LEM_PAOLO = (Equation(
    (_INNER_NABLA_LAP,),
    (_times(_R_NABLA_W_SQ, 0.5), _times(_W_NW_NW, -6.0))),)

# The second rough Bochner formula (k = 2).  The Riem_pirs term contracts
# a two-form slot with Riem, so it alone reads frame components.
_BOCHNERK_K2 = (Equation(
    (Term("Delta|nabla^2 W|^2", 0.5, "->", "lap_d2w"),),
    (Term("|nabla^3 W|^2", 4.0, "hxystu,hxystu->", "b3 b3"),
     Term("<nabla^2 W, nabla^2 Delta W>", 4.0, "hxysu,hxysttu->", "b2 b4"),
     Term("R |nabla^2 W|^2", 0.25 * 4.0, ",hxyst,hxyst->", "R b2 b2"),
     Term("nabla^2 W_ijkltr nabla^2 W_pjklts Riem_pirs", 8.0,
          "ijkltr,pjklts,pirs->", "nw2 nw2 riem"),
     Term("nabla^2 W_ijkltr nabla^2 W_ijklps Riem_ptrs", 2.0 * 4.0,
          "hxytr,hxyps,ptrs->", "b2 b2 riem"))),)

_GAP_POINTWISE = (Equation((Term("|W|^2", 6.0 * 4.0, "hxy,hxy->",
                                 "b0 b0"),),
                           (Term("R^2", 1.0, ",->", "R R"),)),)


# ---------------------------------------------------------------------------
# Evaluators that delegate to algebra and framecalc
# ---------------------------------------------------------------------------

def ev_algebra_quaternionic(pd: PointData):
    res = max(algebra.quaternionic_residual(pd.operand("E+")),
              algebra.quaternionic_residual(pd.operand("E-")))
    return res, 1.0


def ev_algebra_quartic(half: SectorPack):
    """Q = Q_1 + .. + Q_4 = (1/4)|W|^4 on one half (algebra.quartic_terms)."""
    w = half.operand("W")
    q = algebra.quartic_terms(w).sum()
    n2 = algebra.weyl_square(w).trace()     # |W|^2
    rhs = 0.25 * n2 ** 2
    return float(np.abs(q - rhs)), float(np.maximum(np.abs(q), np.abs(rhs)))


def ev_derder_reconstruction(half: SectorPack):
    """max |(1/2) K_abt E_a (x) E_b - nabla W+-| and max |K - K^T|, against
    max |nabla W+-|."""
    nw, k, e = (half.operand(name) for name in ("nw1", "K", "E"))
    recon = 0.5 * np.einsum("abt,aij,bpq->ijpqt", k, e, e)
    res = max(np.abs(recon - nw).max(), np.abs(k - np.swapaxes(k, 0, 1)).max())
    return float(res), float(np.abs(nw).max())


def ev_divz_relations(half: SectorPack):
    return framecalc.div_free_relations_residual(half.operand("K"),
                                                 half.operand("E"))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentitySpec:
    """One registered residual check."""

    id: str
    anchors: tuple
    gate: str                 # hypothesis gate, a key of GATES
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


def _build_registry():
    specs = [
        IdentitySpec("weyl.decomposition", ("Weyl",), "any", 0, (), 2,
                     1e-12, TermList(_WEYL_DECOMPOSITION)),
        IdentitySpec("weyl.conformal-flat", ("Weyl",), "conformal", 0, (),
                     2, 1e-9, TermList(_CONFORMAL_FLAT)),
        IdentitySpec("riemann.einstein-form", ("RiemannEinstein",), "einstein",
                     0, (), 2, 1e-10, TermList(_RIEMANN_EINSTEIN_FORM)),
        IdentitySpec("operator.block-decomposition", ("conv", "dec"), "any",
                     0, (), 2, 1e-10, TermList(_BLOCK_DECOMPOSITION)),
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
                     2, (), 4, 1e-8, _commute_riemann(2)),
        IdentitySpec("commute2.weyl-ricci", ("lem-comsec",), "any", 2, (),
                     4, 1e-8, _COMMUTE2_WEYL_RICCI),
        IdentitySpec("commute2.einstein", ("lem-comsec",), "einstein", 2,
                     (), 4, 1e-8, _COMMUTE2_EINSTEIN),
        IdentitySpec("commute2.einstein-contracted", ("lem-comsec",),
                     "einstein", 2, (), 4, 1e-8,
                     TermList(_COMMUTE2_EINSTEIN_CONTRACTED)),
        IdentitySpec("commute3.riemann", ("ThirdDerivWeylusingRiem",), "any",
                     3, (), 5, 1e-6, _COMMUTE_K3),
        IdentitySpec("commutek.k3", ("CommutationWeylKorder",), "any", 3,
                     (), 5, 1e-6, _COMMUTE_K3),
        IdentitySpec("commutek.k4", ("CommutationWeylKorder",), "any", 4,
                     (), 6, 1e-5, _commute_riemann(4)),
        IdentitySpec("algebra.quadratic", ("WeylWeylMetric",), "any", 0,
                     (), 4, 1e-12, TermList(_QUADRATIC)),
        IdentitySpec("algebra.cubic", ("WWW",), "any", 0, (), 6, 1e-12,
                     TermList(_CUBIC)),
        IdentitySpec("algebra.quaternionic", ("quaternionic-structure",
                     "eq-derw"), "any", 0, (), 0, 1e-12,
                     ev_algebra_quaternionic),
        IdentitySpec("derdzinski.reconstruction", ("eq-derw",), "any", 0,
                     (), 2, 1e-10, TermList(_DERDZINSKI)),
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
        h = _SECTOR_NAME[sign]
        specs += [
            IdentitySpec(f"algebra.quadratic.sector-{h}", ("WeylWeylMetric",),
                         "any", 0, (), 4, 1e-12, TermList(_QUADRATIC), sign),
            IdentitySpec(f"algebra.cubic.sector-{h}", ("WWW",), "any", 0,
                         (), 6, 1e-12, TermList(_CUBIC), sign),
            IdentitySpec(f"algebra.quartic.sector-{h}", ("lem-quart",), "any",
                         0, (), 8, 1e-12, ev_algebra_quartic, sign),
            IdentitySpec(f"derder.reconstruction-{h}", ("eq-derder",), "any",
                         1, (), 3, 1e-8, ev_derder_reconstruction, sign),
            IdentitySpec(f"derder.norm-{h}", ("eq-nqder",), "any", 1, (),
                         6, 1e-7, TermList(_DERDER_NORM), sign),
            IdentitySpec(f"derder.cubic-{h}", ("eqrhs",), "any", 1, (), 8,
                         1e-7, TermList(_DERDER_CUBIC), sign),
            IdentitySpec(f"divz.relations-{h}", ("eq-divz",),
                         "sector-harmonic", 1, (), 3, 1e-7,
                         ev_divz_relations, sign),
            IdentitySpec(f"key1.sector-{h}", ("lem-key1",), "sector-harmonic",
                         1, (), 8, 1e-7, TermList(_KEY1), sign),
            IdentitySpec(f"key2.sector-{h}", ("lem-key2",), "any", 1, (),
                         8, 1e-8, TermList(_KEY2), sign),
            IdentitySpec(f"bochner1.sector-{h}", ("niceself",),
                         "sector-harmonic", 2, ("w",), 6, 1e-8,
                         TermList(_BOCHNER1_4D), sign),
            IdentitySpec(f"bochner2.pro-boch-{h}",
                         ("pro-boch-k-pm", "BochnerBIGpm"), "einstein", 3,
                         ("dw",), 8, 1e-6, TermList(_PRO_BOCH), sign),
            IdentitySpec(f"bochnerk.k2-{h}",
                         ("pro-boch-k-pm", "BochnerBIGpm"), "einstein", 4,
                         ("d2w",), 10, 1e-5, TermList(_BOCHNERK_K2), sign),
            IdentitySpec(f"gap.pointwise-{h}",
                         ("final-proposition", "lem-quart"),
                         "einstein-parallel-sector", 1, (), 4, 1e-8,
                         TermList(_GAP_POINTWISE), sign),
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


@dataclass(frozen=True)
class Gate:
    """One hypothesis gate: its `list identities` label; `declared(props)`,
    whether a chart's ChartProperties could satisfy it, so that the suite
    attempts the check there; `measured(sector)`, the part a declaration
    implies; and `nonzero(sector)`, the rest (a nonvanishing half).
    `sector` is the SectorPack of the check's duality half, or the whole
    PointData.  A check applies where both hold; a failed `measured` on a
    declaring chart is a declaration mismatch."""

    label: str
    declared: Callable
    measured: Callable
    nonzero: Callable = lambda sector: True


_HARMONIC = Gate("[harmonic-Weyl,4D]",
                 lambda p: p.harmonic_weyl or p.einstein is not None,
                 lambda sector: sector.is_harmonic)

GATES: dict[str, Gate] = {
    "any": Gate("[any]", lambda p: True, lambda sector: True),
    "harmonic": _HARMONIC,
    "sector-harmonic": replace(_HARMONIC, label="[half-harmonic-Weyl,4D]"),
    "einstein": Gate("[Einstein,4D]", lambda p: p.einstein is not None,
                     lambda sector: sector.is_einstein),
    "einstein-parallel-sector": Gate(
        "[Einstein,parallel-sector,4D]",
        lambda p: p.einstein is not None and p.parallel_weyl,
        lambda sector: sector.is_einstein and sector.is_parallel,
        lambda sector: sector.is_nonzero),
    "conformal": Gate("[conformally-flat]", lambda p: p.conformally_flat,
                      lambda pd: pd.is_conformally_flat),
}


def gate_satisfied(spec: IdentitySpec, sector: SectorPack) -> bool:
    """Numerically verified hypothesis gate for one identity at one point,
    on the sector the identity names."""
    gate = GATES[spec.gate]
    return gate.measured(sector) and gate.nonzero(sector)


def static_applicable(spec: IdentitySpec, props) -> bool:
    """Whether a chart's declared properties could satisfy the gate."""
    return GATES[spec.gate].declared(props)


def residual_rel(spec: IdentitySpec, pd: PointData, residual_abs: float,
                 scale: float) -> tuple[float, float]:
    """Relative residual with the homogeneity-weighted curvature floor."""
    floor = max(scale, pd.floor(spec.homogeneity), FLOOR)
    return residual_abs / floor, floor
