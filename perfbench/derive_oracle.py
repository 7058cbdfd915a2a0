"""Re-derive the benchmark's expected verdicts with sympy, not with orblocal.

    python3 perfbench/derive_oracle.py          # print the derived tables
    python3 perfbench/derive_oracle.py --check  # exit 1 if oracle.py differs

For every ladder base group it enumerates the elements, forms the
intersection closure of the element fixed spaces (these are exactly the
fixed spaces Fix(H) of subgroups, i.e. the strata), and decides the
obstruction to a germ onto the trivial line: an invariant hyperplane must
exist (a common eigenvector of the transposed generators, with eigenvalues
+-1 since the group is finite), and a linear witness needs a nonzero
invariant covector.
"""

from __future__ import annotations

import itertools
import os
import sys

import sympy as sp

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import oracle  # noqa: E402


def elements(n, gens):
    gs = [sp.ImmutableMatrix(g) for g in gens]
    seen = {sp.ImmutableMatrix(sp.eye(n))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for e in frontier:
            for g in gs:
                p = sp.ImmutableMatrix(e * g)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return list(seen)


def canon(n, vectors):
    """A hashable canonical form of span(vectors): its nonzero RREF rows."""
    if not vectors:
        return (n, ())
    red, piv = sp.Matrix.hstack(*vectors).T.rref()
    return (n, tuple(tuple(red.row(i)) for i in range(len(piv))))


def intersect(n, a, b):
    if not a[1] or not b[1]:
        return (n, ())
    rows = [sp.Matrix(r).T for r in a[1]] + [-sp.Matrix(r).T for r in b[1]]
    m = sp.Matrix.vstack(*rows).T
    vecs = []
    for k in m.nullspace():
        coeffs = k[:len(a[1])]
        vecs.append(sum((c * sp.Matrix(r) for c, r in zip(coeffs, a[1])),
                        sp.zeros(n, 1)))
    return canon(n, [v for v in vecs if any(v)])


def strata_dims(n, els):
    spaces = {canon(n, (g - sp.eye(n)).nullspace()) for g in els}
    closed = set(spaces)
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(list(closed), 2):
            c = intersect(n, a, b)
            if c not in closed:
                closed.add(c)
                changed = True
    return tuple(sorted((len(s[1]) for s in closed), reverse=True))


def obstruction(n, gens):
    gts = [sp.Matrix(g).T for g in gens]
    has_hyperplane = False
    for signs in itertools.product((1, -1), repeat=len(gts)):
        stacked = sp.Matrix.vstack(*[g - s * sp.eye(n) for g, s in zip(gts, signs)])
        if stacked.nullspace():
            has_hyperplane = True
            break
    if not has_hyperplane:
        return ("impossible", "no_invariant_kernel")
    fixed = sp.Matrix.vstack(*[g - sp.eye(n) for g in gts]).nullspace()
    return ("possible", "linear_witness") if fixed else ("unknown", "inconclusive")


def derive_ladder():
    table = {}
    for name, (n, order, gens) in oracle.BASE_GROUPS.items():
        els = elements(n, gens)
        if len(els) != order:
            raise SystemExit("%s: order %d, table says %d" % (name, len(els), order))
        table[name] = (strata_dims(n, els), obstruction(n, gens))
    return table


def main(argv):
    table = derive_ladder()
    for name, row in table.items():
        print("%-5s %s" % (name, row))
    if "--check" in argv:
        wrong = [name for name, row in table.items()
                 if oracle.LADDER_EXPECT.get(name) != row]
        for name in wrong:
            print("ladder oracle mismatch: %s has %s, derived %s"
                  % (name, oracle.LADDER_EXPECT.get(name), table[name]))
        if wrong:
            return 1
        print("oracle.py agrees with the sympy derivation")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
