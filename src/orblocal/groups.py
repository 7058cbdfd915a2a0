"""Finite rational matrix groups and their homomorphisms.

A group here is always a concrete finite set of invertible rational matrices
closed under multiplication, built by breadth-first closure from generators.
Elements are addressed by index (0 is the identity); the element matrices
ARE the action, so effectiveness is automatic.

Besides the group/subgroup/homomorphism/quotient plumbing this module
provides the representation-theoretic searches the chart calculus needs.
They rest on one kernel primitive, the generator eigenspace
{v : m v = c v for every generator m} of a list of signs c (``eigenspace``),
and on the list of sign characters G -> {+-1} (``sign_characters``): fixed
subspaces are the eigenspaces of a subgroup's generators with every sign +1,
index-2 subgroups are kernels of the nontrivial sign characters, and
invariant lines and hyperplanes come from the nonzero eigenspaces of the
generators, and of their transposes, under a sign character.  The commutant
algebra drives the invariant-subspace search in the other dimensions, with
sound "certified none" verdicts.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from itertools import chain
from math import gcd, prod
from operator import mul
from typing import Callable, Sequence

from .ratlin import (
    BudgetExceeded,
    Matrix,
    Record,
    Subspace,
    kernel,
    kernel_image_rank,
    poly_apply_matrix,
    poly_int,
    factor_rational_poly,
    _eliminate,
    _null_space,
    _set,
    _squarefree,
)

DEFAULT_ORDER_BOUND = 10000

_SEARCH_SEED = 811607  # fixed seed for the random commutant combinations


class ClosureBoundExceeded(BudgetExceeded):
    """Generator closure grew past the order bound (group infinite or too big)."""


class NotAHomomorphism(ValueError):
    """Generator images do not extend to a homomorphism.

    Carries a witness (a, j): a source element index and a generator
    position such that phi(a s) != phi(a) phi(s) for s the j-th generator.
    """

    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


class NotNormal(ValueError):
    """Subgroup is not normal in its parent."""


class FiniteMatrixGroup:
    """A finite group of invertible rational dim x dim matrices.

    Element 0 is the identity; ordering is breadth-first from the identity
    in the given generator order, so it is deterministic.  Products are read
    off the right-multiplication table of the generators that the closure
    fills: right[e][s] is the index of element e times generator s, and
    words[j] spells element j as a product of generator positions, so no
    product after closure multiplies matrices.  ``index``, the map from
    each element to its position that ``index_of`` reads, is built on the
    first lookup: most groups never need it.
    """

    def __init__(self, dim: int, elements: list[Matrix],
                 generator_indices: tuple[int, ...],
                 words: list[tuple[int, ...]],
                 right: list[tuple[int, ...]]):
        self.dim = dim
        self.elements = tuple(elements)
        self.generator_indices = generator_indices
        self.words = tuple(words)
        self.right = tuple(right)

    @functools.cached_property
    def index(self) -> dict[Matrix, int]:
        return {m: i for i, m in enumerate(self.elements)}

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def generators(self) -> tuple[Matrix, ...]:
        return tuple(self.elements[i] for i in self.generator_indices)

    def element(self, i: int) -> Matrix:
        return self.elements[i]

    def index_of(self, m: Matrix) -> int:
        try:
            return self.index[m]
        except KeyError:
            raise ValueError("matrix is not an element of this group") from None

    def mul(self, i: int, j: int) -> int:
        """The index of element i times element j.

        Element j is the product of its word's generators in order, so
        multiplying i on the right by each of them in turn lands on i * j.
        """
        right = self.right
        for s in self.words[j]:
            i = right[i][s]
        return i

    def inv(self, i: int) -> int:
        """The inverse of element i: its last power before the identity."""
        j = i
        while (k := self.mul(j, i)) != 0:
            j = k
        return j

    def is_trivial(self) -> bool:
        return self.order == 1

    def full_subgroup(self) -> "Subgroup":
        """The whole group as a Subgroup, built and closure-checked on the
        first call and kept: the group is not changed after closure."""
        return self._full

    @functools.cached_property
    def _full(self) -> "Subgroup":
        return Subgroup(self, tuple(range(self.order)))

    def __repr__(self):
        return "FiniteMatrixGroup(dim=%d, order=%d)" % (self.dim, self.order)


def _has_infinite_order(g: Matrix) -> bool:
    """True when g provably has infinite order: a rational matrix of finite
    order has det +-1, |trace| <= n (a sum of n roots of unity), an integral
    characteristic polynomial p (its roots are algebraic integers) and is
    diagonalizable, so the squarefree part p / gcd(p, p') annihilates it."""
    p = g.charpoly()
    return (abs(g.det()) != 1 or abs(g.trace()) > g.rows
            or any(c.denominator != 1 for c in p)
            or not poly_apply_matrix(_squarefree(poly_int(p)), g).is_zero())


def _closure(one, generators: Sequence, product: Callable,
             before_new: Callable | None = None, read_rows: bool = True,
             operands: Sequence | None = None):
    """Breadth-first closure of generators from one under product.

    Returns (elements, words, right, index): elements in the order they are
    reached, words[j] the generator positions that spell element j,
    right[e] the indices of elements[e] times each generator, and index
    mapping each element to its position.  The search visits elements in
    index order, so right[e] is filled as e is visited, after the rows of
    every element before e.
    product(e, op) multiplies element e by the generator whose operand is
    op: operands[s] for generator s, the generator itself when operands is
    None.  Row 0 takes one s = s without forming a product.
    With read_rows, a product e s is read off those rows when it can be
    (Holt, Eick and O'Brien, Handbook of Computational Group Theory, 4.1):
    e = p t, with p the element that reached e and t the last letter of its
    word, so e s = p (t s), and the word of t s (the element
    right[right[0][t]][s]) is walked from p.  product(e, s) is formed only
    when the walk needs a row not yet filled, so elements, words and table
    are those of forming every product.  The walk pays when a product
    costs more than a few table reads; with one generator it would pass
    through e itself, so it is not tried.
    before_new(elements, words) runs before each new element is added; it
    may raise to stop the closure.
    """
    elements = [one]
    words: list[tuple[int, ...]] = [()]
    parents = [0]  # the element whose product with a generator reached j
    right: list[tuple[int, ...]] = []
    index = {one: 0}
    read_rows = read_rows and len(generators) > 1
    for ei, e in enumerate(elements):  # runs over the appended elements too
        row: list[int] = []
        # walk only where t's own row is filled: ei is past the generators
        walk = read_rows and ei and (first := right[0][words[ei][-1]]) < ei
        for gi, g in enumerate(generators if operands is None else operands):
            if walk:
                x = parents[ei]
                for s in words[right[first][gi]]:
                    if x >= ei:
                        break
                    x = right[x][s]
                else:
                    row.append(x)
                    continue
            prod = product(e, g) if ei else generators[gi]
            j = index.get(prod)
            if j is None:
                if before_new is not None:
                    before_new(elements, words)
                j = index[prod] = len(elements)
                words.append(words[ei] + (gi,))
                parents.append(ei)
                elements.append(prod)
            row.append(j)
        right.append(tuple(row))
    return elements, words, right, index


@functools.cache
def _minkowski_bound(n: int) -> int:
    """Minkowski's bound M(n) = prod_p p^(sum_k floor(n / (p^k (p - 1)))),
    which the order of every finite subgroup of GL_n(Q) divides: 2, 24, 48,
    5760, 11520 for n = 1..5."""
    return prod(p ** sum(n // (p ** k * (p - 1)) for k in range(n))
                for p in range(2, n + 2) if all(p % q for q in range(2, p)))


def _times(e: tuple, g: tuple) -> tuple:
    """The product of two n x n matrices in lowest terms, the first as its
    flat key (den, *entries) row by row, the second as (den, columns, the
    start of each row in a flat key): the flat key of the product."""
    gden, gcols, starts = g
    n = len(gcols)
    out = [sum(map(mul, row, col)) for row in [e[i:i + n] for i in starts]
           for col in gcols]
    den = e[0] * gden
    if den != 1 and (c := gcd(den, *out)) != 1:
        return (den // c, *[x // c for x in out])
    return (den, *out)


def generate_closure(dim: int, generators: list[Matrix],
                     max_order: int = DEFAULT_ORDER_BOUND) -> FiniteMatrixGroup:
    """Close a generator list into a finite matrix group.

    Breadth-first from the identity, multiplying on the right by generators
    in the given order (_closure), so the element ordering is
    deterministic.  The loop runs on the flat integer keys (den, *entries)
    of the matrices, each generator taken by its columns once (_times); the
    identity's row is the generators' own keys, products that the table
    already holds are read off it, and a Matrix is made only for each
    element kept, straight from its key, which _times leaves in lowest
    terms.  Every product
    elements[e] * g is kept as an index in the right-multiplication table
    right[e][s] (s the position of g in the list).  Raises
    ClosureBoundExceeded if the closure passes max_order or Minkowski's
    bound M(dim), which the order of a finite rational group divides; with
    the same message at once if a generator has |det| != 1 (a rational
    matrix of finite order has det +-1); and once the closure has 256
    elements if an element of word length at most 2 (a generator or a
    product of two, like the shear that two reflections can make)
    _has_infinite_order.
    """
    finite = True
    for g in generators:
        if g.rows != dim or g.cols != dim:
            raise ValueError("generator is %dx%d, chart dimension is %d"
                             % (g.rows, g.cols, dim))
        # det(g) = +-d / den^dim, with d the last pivot of g's integer rows
        pivots, d, _ = _eliminate([list(row) for row in g._num], dim)
        if len(pivots) < dim:
            raise ValueError("generator is not invertible: %r" % (g,))
        finite = finite and abs(d) == g._den ** dim
    exceeded = "closure exceeded %d elements" % max_order
    if not finite:
        raise ClosureBoundExceeded(exceeded)
    limit = min(max_order, _minkowski_bound(dim))
    starts = range(1, dim * dim + 1, dim)

    def matrix(key):  # keys are in lowest terms, as _times returns them
        return Matrix._lowest(tuple([key[i:i + dim] for i in starts]), key[0], dim)

    def bound(elements, words):
        if len(elements) >= limit or len(elements) == 256 and any(
                _has_infinite_order(matrix(key))
                for key, w in zip(elements, words) if 0 < len(w) <= 2):
            raise ClosureBoundExceeded(exceeded)

    keys = [(g._den, *chain.from_iterable(g._num)) for g in generators]
    elements, words, right, index = _closure(
        (1, *[int(i == j) for i in range(dim) for j in range(dim)]), keys, _times,
        bound, operands=[(g._den, tuple(zip(*g._num)), starts) for g in generators])
    return FiniteMatrixGroup(dim, list(map(matrix, elements)),
                             tuple(index[k] for k in keys), words, right)


def close_in(parent: FiniteMatrixGroup, generators: Sequence[int]) -> FiniteMatrixGroup:
    """The subgroup of parent generated by the elements at the given indices,
    as a group of its own: generate_closure on their matrices, with the
    products read off the parent's table (FiniteMatrixGroup.mul) instead of
    multiplied.  Elements, words, table and generator indices are those
    generate_closure gives.  A product here is a short walk already, so
    _closure does not read products off its own rows first."""
    members, words, right, index = _closure(0, generators, parent.mul, read_rows=False)
    return FiniteMatrixGroup(parent.dim, [parent.elements[i] for i in members],
                             tuple(index[g] for g in generators), words, right)


class Subgroup(Record):
    """A subgroup of a FiniteMatrixGroup, as a sorted tuple of member indices.

    Construction checks closure on a generating set: starting from the
    identity, the reached set is closed under right multiplication by the
    generators found so far, and each member not yet reached becomes a new
    generator.  Every product must stay in the member set; at the end the
    reached set, a subgroup, is the member set.  Each new generator at least
    doubles the reached subgroup, so the check takes |H| * |S| products
    with |S| <= log2 |H| instead of |H|^2.  The generating set S is kept in
    ``generators``, which takes no part in equality, hashing or repr.
    """

    __slots__ = ("parent", "members", "generators")
    _fields = ("parent", "members")

    def __init__(self, parent: FiniteMatrixGroup, members: tuple[int, ...]):
        _set(self, "parent", parent)
        _set(self, "members", members)
        self.__post_init__()

    def __post_init__(self):
        """The closure check, which sets ``generators``; a method of its own
        so that a profile or perfbench's tracer times it apart."""
        ms = set(self.members)
        if 0 not in ms:
            raise ValueError("subgroup must contain the identity")
        mul = self.parent.mul
        gens: list[int] = []
        reached, seen = [0], {0}
        for g in self.members:
            if g in seen:
                continue
            gens.append(g)
            # elements reached before g already absorbed the older generators
            old = len(reached)
            for i, a in enumerate(reached):  # runs over the appended elements too
                for s in (gens[-1:] if i < old else gens):
                    b = mul(a, s)
                    if b not in seen:
                        if b not in ms:
                            raise ValueError("member set not closed under product")
                        seen.add(b)
                        reached.append(b)
        object.__setattr__(self, "generators", tuple(gens))

    @property
    def order(self) -> int:
        return len(self.members)

    def is_trivial(self) -> bool:
        return self.members == (0,)

    def is_full(self) -> bool:
        return self.order == self.parent.order

    def is_normal(self) -> bool:
        """Whether H is normal in its parent: is_normalized_by the parent's
        generators."""
        return self.is_normalized_by(self.parent.generator_indices)

    def is_normalized_by(self, elements: Sequence[int]) -> bool:
        """Whether s h s^-1 lies in H for every s in elements and every
        generator h of H.

        Conjugation by s maps H = <h_i> onto <s h_i s^-1>, so these checks
        give s H s^-1 = H for each s, and then for every product of the
        elements: H is normal in the subgroup they generate.
        """
        p = self.parent
        ms = set(self.members)
        for s in elements:
            si = p.inv(s)
            for h in self.generators:
                if p.mul(p.mul(s, h), si) not in ms:
                    return False
        return True

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and self.parent is other.parent
                and self.members == other.members)

    def __hash__(self):
        return hash((id(self.parent), self.members))


class GroupHom(Record):
    """A homomorphism between two finite matrix groups.

    Whether check_multiplicative has passed is kept in the private slot
    ``_multiplicative``, which takes no part in equality, hashing or repr.
    """

    __slots__ = ("source", "target", "mapping", "_multiplicative")
    _fields = ("source", "target", "mapping")

    def __init__(self, source: FiniteMatrixGroup, target: FiniteMatrixGroup,
                 mapping: tuple[int, ...]):
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "mapping", mapping)
        _set(self, "_multiplicative", False)

    def apply(self, i: int) -> int:
        return self.mapping[i]

    def apply_matrix(self, m: Matrix) -> Matrix:
        return self.target.element(self.mapping[self.source.index_of(m)])

    def is_injective(self) -> bool:
        return len(set(self.mapping)) == self.source.order

    def conjugated_by(self, eta: Matrix) -> "GroupHom":
        """The homomorphism g -> eta theta(g) eta^{-1}."""
        ei = self.target.index_of(eta)
        inv = self.target.inv(ei)
        mapped = tuple(self.target.mul(self.target.mul(ei, t), inv)
                       for t in self.mapping)
        return GroupHom(self.source, self.target, mapped)

    def check_multiplicative(self) -> None:
        """Raise NotAHomomorphism unless phi(a s) = phi(a) phi(s) for every
        element a and generator s of the source (the identity alone when
        there are none).

        By induction on word length this makes phi multiplicative on every
        pair; with a the identity it also gives phi(identity) = identity.
        These are integer table lookups.  The witness (a, j) names the
        element index a and the position j of s in the source's generators.
        The fields and both groups' tables do not change, so the pairs are
        walked once per homomorphism: a later call after a pass returns at
        once, and a failed check walks again to the same witness.
        """
        if self._multiplicative:
            return
        src, tgt, phi = self.source, self.target, self.mapping
        for a in range(src.order):
            for j, s in enumerate(src.generator_indices or (0,)):
                if phi[src.mul(a, s)] != tgt.mul(phi[a], phi[s]):
                    raise NotAHomomorphism(
                        "generator images violate a relation at element %d and "
                        "generator %d" % (a, j), witness=(a, j))
        _set(self, "_multiplicative", True)


def verify_homomorphism(source: FiniteMatrixGroup, target: FiniteMatrixGroup,
                        images_of_generators: list[Matrix]) -> GroupHom:
    """Extend generator images to the whole group and verify multiplicativity.

    The extension phi follows the breadth-first generator words of the
    source.  It is then checked on (element, generator) pairs by
    GroupHom.check_multiplicative: an assignment violating a relation raises
    NotAHomomorphism with the witness (a, j), element index a and the
    position j of the generator in the source's generators.
    """
    if len(images_of_generators) != len(source.generator_indices):
        raise ValueError("need one image per generator (%d generators)"
                         % len(source.generator_indices))
    img_idx = [target.index_of(m) for m in images_of_generators]
    mapping = [0] * source.order
    for i, word in enumerate(source.words):
        cur = 0
        for gi in word:
            cur = target.mul(cur, img_idx[gi])
        mapping[i] = cur
    hom = GroupHom(source, target, tuple(mapping))
    hom.check_multiplicative()
    return hom


def kernel_of(hom: GroupHom) -> Subgroup:
    """The kernel subgroup {g : hom(g) = identity}; always normal."""
    members = tuple(i for i, t in enumerate(hom.mapping) if t == 0)
    k = Subgroup(hom.source, members)
    if not k.is_normal():
        raise NotNormal("kernel of order %d failed the normality check" % k.order)
    return k


class QuotientGroup(Record):
    """The quotient h / n of a subgroup h by a subgroup n normal in it.

    Everything is in the indices of the common parent group.  Cosets are
    sorted index tuples, listed in order of their smallest member, so coset
    0 is n itself and the representative of a coset (its smallest member)
    lies in h.  coset_index maps each member of h to its coset.
    """

    __slots__ = ("group", "normal", "cosets", "coset_index")
    _fields = ("group", "normal", "cosets")

    def __init__(self, group: Subgroup, normal: Subgroup,
                 cosets: tuple[tuple[int, ...], ...], coset_index: dict[int, int]):
        _set(self, "group", group)
        _set(self, "normal", normal)
        _set(self, "cosets", cosets)
        _set(self, "coset_index", coset_index)

    @property
    def order(self) -> int:
        return len(self.cosets)

    def coset_of(self, i: int) -> int:
        try:
            return self.coset_index[i]
        except KeyError:
            raise ValueError("element index %d not in any coset" % i) from None

    def representative(self, c: int) -> int:
        return self.cosets[c][0]

    def is_trivial(self) -> bool:
        return self.order == 1


def quotient(h: Subgroup, n: Subgroup) -> QuotientGroup:
    """Form h / n in the parent's indices; g.full_subgroup() divides all of g.

    n must lie in h, and it must be normal there: s x s^-1 in n for the
    generators s of h and x of n (Subgroup.is_normalized_by); NotNormal
    otherwise.  Each coset x n is listed once, from its smallest member x.
    """
    if n.parent is not h.parent:
        raise ValueError("subgroup belongs to a different group")
    if not set(n.members) <= set(h.members):
        raise ValueError("subgroup of order %d does not lie in the group divided"
                         % n.order)
    if not n.is_normalized_by(h.generators):
        raise NotNormal("subgroup of order %d is not normal" % n.order)
    mul = h.parent.mul
    seen: dict[int, int] = {}
    cosets: list[tuple[int, ...]] = []
    for g in h.members:
        if g in seen:
            continue
        coset = tuple(sorted(mul(g, x) for x in n.members))
        for m in coset:
            seen[m] = len(cosets)
        cosets.append(coset)
    q = QuotientGroup(h, n, tuple(cosets), seen)
    if q.order * n.order != h.order:
        raise AssertionError("%d cosets of a subgroup of order %d do not fill "
                             "a group of order %d" % (q.order, n.order, h.order))
    return q


def sign_characters(g: FiniteMatrixGroup) -> list[tuple[int, ...]]:
    """Every homomorphism g -> {+1, -1}, as its values over all elements.

    Each assignment of signs to the generators, in binary order (so the
    trivial character comes first), is extended along the generator words,
    and kept at its first occurrence when it is multiplicative.  The test
    is a solve over GF(2): with mask[x] the parities of the letters of x's
    word (bit p for generator position p), an assignment `bits` gives
    chi(x) = (-1)^|mask[x] & bits|, and chi(x s) = chi(x) chi(s) for an
    element x and the generator s at position p reads
    <mask[x] ^ mask[s] ^ mask[right[x][p]], bits> = 0.  By induction on
    word length these table entries make chi multiplicative, so an
    assignment is kept exactly when it is orthogonal to a basis of their
    vectors, and chi is built only for those.
    """
    gens = g.generator_indices
    masks = []
    for word in g.words:
        m = 0
        for p in word:
            m ^= 1 << p
        masks.append(m)
    # a basis with distinct leading bits, largest first, so that each
    # min(v, v ^ b) clears b's leading bit and keeps the larger ones
    basis: list[int] = []
    for v in {masks[x] ^ masks[s] ^ masks[y]
              for x, row in enumerate(g.right) for s, y in zip(gens, row)}:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    out = []
    seen = set()
    for bits in range(1 << len(gens)):
        if any((bits & v).bit_count() & 1 for v in basis):
            continue
        chi = tuple([-1 if (m & bits).bit_count() & 1 else 1 for m in masks])
        if chi not in seen:
            seen.add(chi)
            out.append(chi)
    return out


def eigenspace(n: int, pairs: Sequence[tuple[Matrix, int]]) -> Subspace:
    """{v in Q^n : m v = c v for every (m, c) in pairs}, the whole space when
    there are none: the kernel of the integer blocks den(m) (m - c I),
    stacked."""
    rows = tuple([tuple(x - c * m._den * (i == j) for j, x in enumerate(row))
                  for m, c in pairs for i, row in enumerate(m._num)])
    return kernel(Matrix._make(rows, 1, n))


def fixed_subspace(h: Subgroup) -> Subspace:
    """{v : g v = v for all g in h}: the vectors fixed by h's generators,
    hence by their products."""
    p = h.parent
    return eigenspace(p.dim, [(p.element(i), 1) for i in h.generators])


def intertwiners(g: FiniteMatrixGroup,
                 image: Callable[[int], Matrix]) -> list[Matrix]:
    """A basis of {L : L a = image(a) L for every a in g}, exact.

    image(a) is the k x k matrix that element index a acts by on the
    target.  The conditions are solved on g's generators (on the identity
    alone when there are none), which suffices.  Each generator's block of
    the stacked system over the k x n entries of L, row by row, is scaled
    by den(a) den(image(a)) to integer rows, which keeps its kernel; the
    basis is the kernel's reduced echelon rows (_null_space), so it is
    deterministic.
    """
    n = g.dim
    k = image(0).rows
    rows = []
    for gi in g.generator_indices or (0,):
        a, b = g.element(gi), image(gi)
        an, bn = a._num, b._num
        da, db = a._den, b._den
        # den(a) den(b) (L a - b L)[i][j]
        #   = sum_c L[i][c] db an[c][j] - sum_c da bn[i][c] L[c][j]
        for i in range(k):
            for j in range(n):
                row = [0] * (k * n)
                for c in range(n):
                    row[i * n + c] += db * an[c][j]
                for c in range(k):
                    row[c * n + j] -= da * bn[i][c]
                rows.append(row)
    echelon = _null_space(rows, k * n).echelon
    return [Matrix._make(tuple([v[i * n:(i + 1) * n] for i in range(k)]), echelon._den, n)
            for v in echelon._num]


def commutant(g: FiniteMatrixGroup) -> list[Matrix]:
    """A basis of {M : M g = g M for all g}, the self-intertwiners of g."""
    return intertwiners(g, g.element)


class InvariantSubspaceResult(Record):
    """Outcome of an invariant-subspace search.

    status is one of 'found', 'none_found', 'certified_none'; certified_none
    is only issued by a sound argument (every sign character's generator
    eigenspace is zero in dimensions 1 and n-1, or the commutant is
    one-dimensional).
    """

    __slots__ = _fields = ("status", "subspace", "reason")

    def __init__(self, status: str, subspace: Subspace | None = None, reason: str = ""):
        _set(self, "status", status)
        _set(self, "subspace", subspace)
        _set(self, "reason", reason)

    @property
    def found(self) -> bool:
        return self.status == "found"


def _is_scalar(m: Matrix) -> bool:
    n = m.rows
    c = m.entries[0][0]
    return m == Matrix.identity(n).scale(c)


def _verify_invariant(group: FiniteMatrixGroup, s: Subspace) -> bool:
    """Whether s is invariant under the group: under its generators, whose
    products are the other elements."""
    return all(s.is_invariant_under(m) for m in group.generators)


def find_invariant_subspace(group: FiniteMatrixGroup, dim_wanted: int) -> InvariantSubspaceResult:
    """Search for a dim_wanted-dimensional subspace invariant under the group.

    Dimensions 1 and n-1 are decided completely by the sign characters.  A
    real eigenvalue of a finite-order real matrix is +-1, so a common
    eigenvector spans a line on which the group acts by a sign character
    chi, and the lines of that kind are those in the chi-eigenspace
    {v : s v = chi(s) v} of the generators s.  An invariant hyperplane is
    the kernel of a common eigenvector of the transposed action, so of a
    nonzero vector of the chi-eigenspace of the transposed generators, and
    there is none when every such eigenspace is zero.  The first sign
    character with a nonzero eigenspace gives the first vector of its
    reduced echelon basis, so the answer is canonical.  Intermediate
    dimensions use the commutant: kernels of irreducible characteristic
    factors of commutant elements are invariant, and their
    sums/intersections are searched.  There 'certified_none' is issued only
    when the commutant is one-dimensional (scalars alone); a search that
    finds nothing otherwise returns 'none_found', as no sound certificate
    of nonexistence is known for it.
    """
    n = group.dim
    if not (0 < dim_wanted < n):
        raise ValueError("requested dimension %d out of range (0, %d)"
                         % (dim_wanted, n))
    if dim_wanted in (1, n - 1):
        line = dim_wanted == 1
        gens = [(i, m if line else m.transpose())
                for i, m in zip(group.generator_indices, group.generators)]
        for chi in sign_characters(group):
            space = eigenspace(n, [(m, chi[i]) for i, m in gens])
            if not space.is_zero():
                break
        else:
            return InvariantSubspaceResult("certified_none", None, (
                "no common eigenvector: all 2^k sign patterns have zero intersection"
                if line else
                "no invariant hyperplane: transpose group has no common eigenvector"))
        if line:
            s = Subspace.from_vectors(n, space.basis[:1])
            how = "sign-pattern line"
        else:
            s = kernel(Matrix(space.basis[:1]))
            how = "dual sign-pattern hyperplane"
        if not _verify_invariant(group, s):
            raise AssertionError("the %s is not invariant under the group" % how)
        return InvariantSubspaceResult("found", s, how)

    basis = commutant(group)
    if len(basis) == 1:
        return InvariantSubspaceResult(
            "certified_none", None,
            "commutant has dimension 1: representation is real-irreducible")

    rng = random.Random(_SEARCH_SEED)
    probes = [b for b in basis if not _is_scalar(b)]
    for _ in range(8):
        m = Matrix.zero(n, n)
        for b in basis:
            m = m + b.scale(Fraction(rng.randint(-3, 3)))
        if not _is_scalar(m) and not m.is_zero():
            probes.append(m)

    candidates: list[Subspace] = []
    for m in probes:
        for factor, _ in factor_rational_poly(m.charpoly()):
            fm = poly_apply_matrix(factor, m)
            ker, img, _ = kernel_image_rank(fm)
            for s in (ker, img):
                if 0 < s.dim < n:
                    candidates.append(s)
    for _ in range(2):
        fresh = []
        for a in candidates:
            for b in candidates:
                for s in (a.intersect(b), a.sum_with(b)):
                    if 0 < s.dim < n and s not in candidates and s not in fresh:
                        fresh.append(s)
        candidates.extend(fresh)
    for s in candidates:
        if s.dim == dim_wanted and _verify_invariant(group, s):
            return InvariantSubspaceResult("found", s, "commutant factor kernel")

    return InvariantSubspaceResult(
        "none_found", None,
        "search exhausted without a certificate of nonexistence")


def index2_subgroups(g: FiniteMatrixGroup) -> list[Subgroup]:
    """All subgroups of index exactly 2: the kernels of the nontrivial sign
    characters, in the order of sign_characters."""
    return [Subgroup(g, tuple(i for i, s in enumerate(chi) if s == 1))
            for chi in sign_characters(g)[1:]]
