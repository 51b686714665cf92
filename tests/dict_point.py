"""A test point whose term operands are the entries of a dict.

It supplies what a registry TermList reads of a point, operand(name, sign)
and norm(name, sign), so the registry's own rows can be evaluated on
synthetic tensors.  A key carries its half as a `+` or `-` suffix ("W+",
"lam-"); a name with no entry for its half is read whole ("g", "W").
"""

import numpy as np

from weylforge.identities import _frobenius, _parse

_SUFFIX = {None: "", 1: "+", -1: "-"}


class DictPoint:
    def __init__(self, operands: dict):
        self.operands = {"g": np.eye(4), **operands}

    def operand(self, name: str, sign: int | None = None):
        name, sign, _ = _parse(name, sign)
        key = name + _SUFFIX[sign]
        return self.operands[key if key in self.operands else name]

    def norm(self, name: str, sign: int | None = None) -> float:
        return _frobenius(self.operand(name, sign))

