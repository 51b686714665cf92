"""Random quaternionic frames and exact sector tensors for property tests.

A random rotation of a sector's seed triple satisfies the quaternionic
multiplication table by construction, and (1/2) sum lam_a E_a (x) E_a with
trace-free lam is an exact algebraic W+- on that frame.
"""

import numpy as np

from weylforge.algebra import PAIR_FORMS, TwoFormFrame, sector_seed


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish SO(3) matrix from a random unit quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    a, b, c, d = q
    return np.array([
        [a*a + b*b - c*c - d*d, 2*(b*c - a*d), 2*(b*d + a*c)],
        [2*(b*c + a*d), a*a - b*b + c*c - d*d, 2*(c*d - a*b)],
        [2*(b*d - a*c), 2*(c*d + a*b), a*a - b*b - c*c + d*d],
    ])


def random_quaternionic_frame(rng: np.random.Generator, sector: int = 1,
                              orientation: int = 1) -> TwoFormFrame:
    """Random rotation of the seed triple; the table holds by construction."""
    rot = random_rotation(rng)
    seeds = sector_seed(sector, orientation)
    forms = np.einsum("aB,Bij->aij", rot, np.einsum("bB,Bij->bij", seeds,
                                                    PAIR_FORMS))
    return TwoFormFrame(eigenvalues=np.zeros(3), forms=forms, rows=rot)


def random_sector_tensor(rng: np.random.Generator, sector: int = 1,
                         scale: float = 1.0):
    """Exact algebraic sector tensor (1/2) sum lam_i v_i (x) v_i, lam sums to 0.

    Returns (tensor, frame, eigenvalues); eigenvalues are not sorted.
    """
    frame = random_quaternionic_frame(rng, sector)
    l1, l2 = rng.normal(size=2) * scale
    lam = np.array([l1, l2, -l1 - l2])
    forms = frame.forms
    w = 0.5 * sum(lam[i] * np.einsum("ij,kl->ijkl", forms[i], forms[i])
                  for i in range(3))
    return w, frame, lam
