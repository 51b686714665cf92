"""A test point whose term operands are the entries of a dict.

A registry evaluator is handed one sector of a point, the SectorPack that
its IdentitySpec.sector names, and reads operand(name) and norm(name) of
it.  DictPoint supplies those, so the registry's own rows can be evaluated
on synthetic tensors: DictPoint(operands) is the whole point and
sector(sign) its half.  A key carries its half as a `+` or `-` suffix
("W+", "lam-"); a half reads its own key first, and a name with no entry
for its half is read whole ("g", "W").  A `+` or `-` suffix on the name
read picks that half's key.  The blocks b<k> are the frame operand W or
nw<k> of the same half projected on the basis two-forms of both sectors,
4 b[s, x, y, ..] = B_sx,ij T_ijkl.. B_sy,kl, first pair first: a tensor of
either half, or their sum, keeps all of its pair-against-pair
contractions.

evaluate(spec, point) runs a row on the sector it names, of a DictPoint or
a PointData: a half row handed the whole point would still run, on the
whole W.
"""

import numpy as np

from weylforge.algebra import sector_forms
from weylforge.identities import _frobenius, _parse

_SUFFIX = {None: "", 1: "+", -1: "-"}
_FORMS = sector_forms()


class DictPoint:
    def __init__(self, operands: dict, sign: int | None = None):
        self.operands = {"g": np.eye(4), **operands}
        self.sign = sign

    def sector(self, sign: int | None) -> "DictPoint":
        return DictPoint(self.operands, sign)

    def operand(self, name: str):
        name, half, k = _parse(name)
        sign = self.sign if half is None else half
        if name[0] == "b" and k is not None:
            t = self.sector(sign).operand("W" if k == 0 else f"nw{k}")
            first = np.einsum("sxij,ijkl...->sxkl...", _FORMS, t)
            return 0.25 * np.einsum("sxkl...,sykl->sxy...", first, _FORMS)
        key = name + _SUFFIX[sign]
        return self.operands[key if key in self.operands else name]

    def norm(self, name: str) -> float:
        return _frobenius(self.operand(name))


def evaluate(spec, point):
    """(residual, scale) of registry row `spec` on the sector it names."""
    return spec.evaluate(point.sector(spec.sector))
