"""Inputs and expected verdicts that do not come from orblocal.

Everything here is plain ``fractions.Fraction`` arithmetic or a table
written down by hand.  ``derive_oracle.py`` re-derives every table entry
with sympy, so a wrong row shows up there rather than as a silently
accepted verdict.

Verdicts are invariant under conjugation by a rational matrix P: the
strata of P G P^-1 are P applied to the strata of G, and invariant
subspaces and fixed covectors move the same way.  So one row per base
group covers every seeded conjugate.
"""

from __future__ import annotations

import random
from fractions import Fraction

# --------------------------------------------------------------------------
# exact matrix helpers (lists of lists of Fraction)


def mat(rows):
    return [[Fraction(x) for x in row] for row in rows]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def matvec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def inverse(a):
    n = len(a)
    m = [list(row) + idr for row, idr in zip(a, identity(n))]
    for c in range(n):
        pr = next(i for i in range(c, n) if m[i][c] != 0)
        m[c], m[pr] = m[pr], m[c]
        piv = m[c][c]
        m[c] = [x / piv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [row[n:] for row in m]


def block_diag_one(a):
    """a (+) 1: a acting on the first coordinates, the last one fixed."""
    n = len(a)
    return [list(row) + [Fraction(0)] for row in a] + [[Fraction(0)] * n + [Fraction(1)]]


# A fixed integer matrix per dimension, of determinant 3, 7 and 17, so
# that conjugates have entries like -2/7.
CONJUGATOR_CORE = {
    2: [[2, 1], [1, 2]],
    3: [[2, 1, 0], [0, 2, 1], [-1, 0, 2]],
    4: [[2, 1, 0, 0], [0, 2, 1, 0], [0, 0, 2, 1], [-1, 0, 0, 2]],
}


def random_conjugator(rng: random.Random, n: int):
    """A seeded rational conjugator S T, with S a signed permutation.

    T is fixed per dimension, so every seed gives entries of the same size
    and exact arithmetic of the same cost: conjugating by S only moves and
    negates entries.  The seed changes where the entries land.
    """
    return matmul(signed_permutation(rng, n), mat(CONJUGATOR_CORE[n]))


def conjugate(p, p_inv, g):
    return matmul(matmul(p, g), p_inv)


def rat_json(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


def matrix_json(a):
    return [[rat_json(x) for x in row] for row in a]


# --------------------------------------------------------------------------
# the group-order ladder


def _perm(images):
    """Permutation matrix sending e_j to e_images[j]."""
    n = len(images)
    return [[int(images[j] == i) for j in range(n)] for i in range(n)]


# name -> (dimension, order, integer generators).  Orders 2..48 in
# dimensions 2..4.  D_n is the dihedral group of order 2n; D12 acts on
# Q(zeta_12) by multiplication with zeta and by complex conjugation.
BASE_GROUPS = {
    "C2": (2, 2, [[[1, 0], [0, -1]]]),
    "C3": (2, 3, [[[0, -1], [1, -1]]]),
    "C4": (2, 4, [[[0, -1], [1, 0]]]),
    "C6": (2, 6, [[[1, -1], [1, 0]]]),
    "D4": (2, 8, [[[0, -1], [1, 0]], [[1, 0], [0, -1]]]),
    "D6": (2, 12, [[[1, -1], [1, 0]], [[0, 1], [1, 0]]]),
    "D12": (4, 24, [[[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0]],
                    [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, -1, 0, -1]]]),
    "C2x3": (3, 8, [[[-1, 0, 0], [0, 1, 0], [0, 0, 1]],
                    [[1, 0, 0], [0, -1, 0], [0, 0, 1]],
                    [[1, 0, 0], [0, 1, 0], [0, 0, -1]]]),
    "S3": (3, 6, [_perm([1, 2, 0]), _perm([1, 0, 2])]),
    "A4": (4, 12, [_perm([1, 2, 0, 3]), _perm([1, 0, 3, 2])]),
    "S4": (4, 24, [_perm([1, 2, 3, 0]), _perm([1, 0, 2, 3])]),
    "B3": (3, 48, [_perm([1, 2, 0]), _perm([1, 0, 2]),
                   [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]]),
}

# name -> (dimensions of all strata, regular stratum included, sorted
# descending; obstruction verdict and reason for a germ to the trivial
# line).  The strata are the distinct fixed spaces Fix(H), i.e. the
# intersection closure of the element fixed spaces ker(g - I).  The
# obstruction needs an invariant hyperplane (else "impossible") and then a
# nonzero invariant covector for a linear witness (else "unknown").
LADDER_EXPECT = {
    "C2": ((2, 1), ("possible", "linear_witness")),
    "C3": ((2, 0), ("impossible", "no_invariant_kernel")),
    "C4": ((2, 0), ("impossible", "no_invariant_kernel")),
    "C6": ((2, 0), ("impossible", "no_invariant_kernel")),
    "D4": ((2, 1, 1, 1, 1, 0), ("impossible", "no_invariant_kernel")),
    "D6": ((2, 1, 1, 1, 1, 1, 1, 0), ("impossible", "no_invariant_kernel")),
    "D12": ((4, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 0),
            ("impossible", "no_invariant_kernel")),
    "C2x3": ((3, 2, 2, 2, 1, 1, 1, 0), ("unknown", "inconclusive")),
    "S3": ((3, 2, 2, 2, 1), ("possible", "linear_witness")),
    "A4": ((4, 2, 2, 2, 2, 2, 2, 2, 1), ("possible", "linear_witness")),
    "S4": ((4, 3, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 1),
           ("possible", "linear_witness")),
    "B3": ((3,) + (2,) * 9 + (1,) * 13 + (0,), ("impossible", "no_invariant_kernel")),
}


def signed_permutation(rng: random.Random, n: int):
    """A seeded signed permutation matrix."""
    images = list(range(n))
    rng.shuffle(images)
    m = [[Fraction(int(images[j] == i)) for j in range(n)] for i in range(n)]
    for j in range(n):
        if rng.random() < 0.5:
            for i in range(n):
                m[i][j] = -m[i][j]
    return m


# --------------------------------------------------------------------------
# the regular-value sampler's draws

SNAP = 10 ** 6


def sard_zero_hits(seed: int, samples: int, lo: float, hi: float) -> int:
    """How many of the sampler's seeded draws land exactly on 0.

    The sampler draws floats with ``random.Random(seed).uniform`` and snaps
    each to a rational with denominator 10^6 (documented in
    ``sard_sample``).  For x^2 and for the zero map on a line, 0 is the only
    critical value, so the regular count is ``samples - hits``; for a
    linear map every value is regular.
    """
    rng = random.Random(seed)
    return sum(1 for _ in range(samples) if round(rng.uniform(lo, hi) * SNAP) == 0)
