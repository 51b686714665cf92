"""Reference copy of the full-component commutation checks, for
equivalence tests.

The registry evaluates the Ricci identity
[nabla_a, nabla_b] nabla^(k-2) W = R(e_a, e_b) . nabla^(k-2) W on the W+-
blocks (identities.Commutator).  This module keeps the term lists it
replaced, which contract the expanded frame components of nabla^k W with
one einsum term per slot, as an independent check: `commutation(k)` for
the Riemann form at any k, `COMMUTE2_WEYL_RICCI` and `COMMUTE2_EINSTEIN`
for the k = 2 forms with Riemann split into W, Ricci and R.  Each is a
tuple of equations for identities.TermList.
"""

from __future__ import annotations

from weylforge.identities import Equation, Term

# The slot of W that couples, as (W subscripts with that slot summed over r,
# the index of the slot).
_SLOTS = (("rjkl", "i"), ("irkl", "j"), ("ijrl", "k"), ("ijkr", "l"))
_COMMUTATOR2 = (Term("nabla^2 W", 1.0, "ijklst->ijklst", "nw2"),
                Term("nabla^2 W swapped", -1.0, "ijklts->ijklst", "nw2"))
_WW_SLOTS = tuple(Term(f"W_{w} W_r{x}st", 1.0, f"{w},r{x}st->ijklst", "W W")
                  for w, x in _SLOTS)


def commutation(k: int) -> tuple:
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


COMMUTE2_WEYL_RICCI = (Equation(
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

COMMUTE2_EINSTEIN = (Equation(
    _COMMUTATOR2,
    _WW_SLOTS + tuple(
        Term(f"R W_{w} g_{d}", sgn / 12.0, f",{w},{d}->ijklst", "R W g")
        for w, d, sgn in (("sjkl", "it", 1), ("tjkl", "is", -1),
                          ("iskl", "jt", 1), ("itkl", "js", -1),
                          ("ijsl", "kt", 1), ("ijtl", "ks", -1),
                          ("ijks", "lt", 1), ("ijkt", "ls", -1))),
    ("lhs", (1.0, "W W"), (1.0 / 12.0, "R W"))),)
