"""Local orbifold chart models and their structure.

A chart is a finite rational matrix group acting linearly on R^n, or on the
half-space {x_n >= 0} when the boundary flag is set.  Boundary charts are
kept in a normal form: every element must fix the last coordinate
functional exactly (last matrix row = (0,...,0,1)), which makes half-space
preservation a syntactic check.

The module computes isotropy groups, the stratification of a chart by
isotropy type (each stratum is a fixed subspace minus the smaller fixed
subspaces inside it), suborbifold local models (an invariant subspace with
its intrinsic isotropy quotient), and verification of equivariant affine
chart embeddings.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .ratlin import (
    Matrix,
    Record,
    Subspace,
    vec,
    vec_add,
    QONE,
    QZERO,
    _null_space,
)
from .groups import (
    FiniteMatrixGroup,
    Subgroup,
    generate_closure,
    quotient,
    DEFAULT_ORDER_BOUND,
)


class BoundaryViolation(ValueError):
    """A group element does not preserve the half-space normal form."""


class NotInvariant(ValueError):
    """A subspace fails invariance; carries the witness (element, vector)."""

    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


class EmbeddingError(ValueError):
    """A chart embedding failed one of its checks; carries a witness."""

    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


def _fixes_last_coordinate(m: Matrix) -> bool:
    n = m.rows
    want = tuple(QZERO if j < n - 1 else QONE for j in range(n))
    return m.entries[n - 1] == want


class LocalChart(Record):
    """A linear local model (R^n or R^n_+, finite group, linear action)."""

    __slots__ = _fields = ("dim", "group", "boundary")

    def __init__(self, dim: int, group: FiniteMatrixGroup, boundary: bool = False):
        if group.dim != dim:
            raise ValueError("group dimension %d != chart dimension %d"
                             % (group.dim, dim))
        if boundary:
            for m in group.elements:
                if not _fixes_last_coordinate(m):
                    raise BoundaryViolation(
                        "element does not fix the boundary functional: %r" % (m,))
        Record.__init__(self, dim, group, boundary)

    def contains_point(self, point) -> bool:
        p = vec(point)
        if len(p) != self.dim:
            return False
        return (not self.boundary) or p[-1] >= 0

    def boundary_hyperplane(self) -> Subspace:
        if not self.boundary:
            raise ValueError("chart has no boundary")
        basis = [[QONE if i == j else QZERO for j in range(self.dim)]
                 for i in range(self.dim - 1)]
        return Subspace.from_vectors(self.dim, basis)

    def on_boundary(self, point) -> bool:
        p = vec(point)
        return self.boundary and p[-1] == 0


def build_chart(dim: int, generators: list[Matrix], boundary: bool = False,
                max_order: int = DEFAULT_ORDER_BOUND) -> LocalChart:
    """Close the generators and wrap them as a chart, verifying invariants."""
    if boundary:
        for g in generators:
            if not _fixes_last_coordinate(g):
                raise BoundaryViolation(
                    "generator does not fix the boundary functional: %r" % (g,))
    group = generate_closure(dim, generators, max_order=max_order)
    return LocalChart(dim, group, boundary)


def product_chart(a: LocalChart, b: LocalChart) -> LocalChart:
    """The product model: block-diagonal direct product action on R^(m+n).

    At most one factor may carry boundary; its coordinates are placed last
    so the product stays in the boundary normal form.
    """
    if a.boundary and b.boundary:
        raise ValueError("both factors have boundary (corner models unsupported)")
    first, second = (b, a) if a.boundary else (a, b)
    n1, n2 = first.dim, second.dim
    gens = []
    for g in first.group.generators:
        rows = [list(g.entries[i]) + [QZERO] * n2 for i in range(n1)]
        rows += [[QZERO] * n1 + list(Matrix.identity(n2).entries[i]) for i in range(n2)]
        gens.append(Matrix(rows))
    for g in second.group.generators:
        rows = [list(Matrix.identity(n1).entries[i]) + [QZERO] * n2 for i in range(n1)]
        rows += [[QZERO] * n1 + list(g.entries[i]) for i in range(n2)]
        gens.append(Matrix(rows))
    return build_chart(n1 + n2, gens, boundary=a.boundary or b.boundary,
                       max_order=max(DEFAULT_ORDER_BOUND,
                                     first.group.order * second.group.order + 1))


def isotropy_at(chart: LocalChart, point) -> Subgroup:
    """The exact stabilizer subgroup of a rational point: the pointwise
    stabilizer of the line through it (of the origin, for p = 0)."""
    p = vec(point)
    if len(p) != chart.dim:
        raise ValueError("point has length %d in a %d-dimensional chart"
                         % (len(p), chart.dim))
    if chart.boundary and p[-1] < 0:
        raise ValueError("point lies outside the half-space")
    return pointwise_stabilizer(chart.group, Subspace.from_vectors(chart.dim, [p]))


def pointwise_stabilizer(group: FiniteMatrixGroup, s: Subspace) -> Subgroup:
    """{g : g v = v for every v in s}."""
    return Subgroup(group, tuple(i for i, m in enumerate(group.elements)
                                 if s.fixed_pointwise_by(m)))


class Stratum(Record):
    """One isotropy stratum: the generic points of a fixed subspace.

    The actual stratum is fixed_space minus every strictly smaller fixed
    subspace contained in it; its dimension is dim(fixed_space).
    """

    __slots__ = _fields = ("isotropy", "fixed_space", "dimension", "codimension",
                           "in_boundary")

    @property
    def singular(self) -> bool:
        return not self.isotropy.is_trivial()


class StrataReport(Record):
    __slots__ = _fields = ("chart", "strata")

    def singular_strata(self) -> tuple[Stratum, ...]:
        return tuple(s for s in self.strata if s.singular)


def stratify(chart: LocalChart) -> StrataReport:
    """All isotropy strata of a chart, in decreasing dimension.

    Every isotropy group that occurs is the pointwise stabilizer of the
    fixed subspace Fix(H) of some subgroup H.  Since Fix(<S>) is the
    intersection of the element fixed spaces over s in S, the spaces Fix(H)
    form the lattice of the element fixed spaces (their intersection
    closure), and the pointwise stabilizer Stab(M) of a space M is the union
    of the classes of elements whose fixed space contains M.  The fixed
    spaces take one kernel per nontrivial cyclic subgroup <g>, of the
    integer rows num - den I of g = num / den: Fix(g^k) = Fix(g) whenever
    gcd(k, ord g) = 1, and the powers are read off the table; the identity
    fixes the full space.

    The lattice is a union of G-orbits, since g Fix(h) = Fix(g h g^-1) and
    t R meets Fix(h) in t times the meet of R and Fix(t^-1 h t).  So it is
    grown from one representative R per orbit, starting from the full
    space, and each new space's orbit is walked (_orbit).  R is met with the
    classes outside Stab(R) (the others contain R) once per orbit of Stab(R)
    acting on them by conjugation, as h in Stab(R) fixes R pointwise and
    h Fix(g) = Fix(h g h^-1); a line meets each of them in 0.  A class
    whose space F is already in the lattice is not met when Stab(R) lies in
    Stab(F), told by Stab(R)'s generators on Stab(F)'s member set: both are
    lattice spaces, each the fixed space of its pointwise stabilizer, so F
    lies in R and the meet could only find F again (the class is its own
    orbit, as Stab(R) fixes F pointwise).  After the full space's round
    every class space is in the lattice.  A new meet M is fixed by Stab(R)
    and the orbit it was met with; each other class takes one membership
    test of M's echelon rows.  Strata are sorted by echelon rows, as
    integers over the lcm of their denominators.
    """
    n, group = chart.dim, chart.group
    mul = group.mul
    spaces: dict[Subspace, int] = {}  # each distinct element fixed space, to its class
    classes: dict[int, list[int]] = {}  # the ascending elements of each class
    class_of = [-1] * group.order
    full = Subspace.full(n)
    for i, m in enumerate(group.elements):
        if class_of[i] < 0:
            powers = [i]
            while powers[-1]:
                powers.append(mul(powers[-1], i))
            d = m._den
            c = spaces.setdefault(_null_space([[x - d * (j == k) for k, x in enumerate(row)]
                                               for j, row in enumerate(m._num)], n)
                                  if i else full, len(spaces))
            for k, p in enumerate(powers, 1):
                if gcd(k, len(powers)) == 1:
                    class_of[p] = c
        classes.setdefault(class_of[i], []).append(i)
    fixed = list(spaces)
    isotropy = {full: Subgroup(group, (0,))}
    inner: dict[int, set[int]] = {}  # the members of Stab(fixed[c]), once it is known
    reps = [full]
    for rep in reps:  # grows while it is walked
        stab = isotropy[rep]
        inside = {class_of[i] for i in stab.members}
        outside = [c for c in classes if c not in inside]
        if outside and rep.dim == 1:
            if (zero := Subspace.zero(n)) not in isotropy:
                isotropy[zero] = group.full_subgroup()
            continue
        gens = [(s, group.inv(s)) for s in stab.generators]
        seen: set[int] = set()
        for c in outside:
            if c in seen:
                continue
            if c not in inner and fixed[c] in isotropy:
                inner[c] = set(isotropy[fixed[c]].members)
            if c in inner and inner[c].issuperset(stab.generators):
                continue  # fixed[c] lies in rep: the meet is fixed[c], known
            seen.add(c)
            orbit = [c]
            for o in orbit:  # grows while it is walked
                for s, s_inv in gens:
                    if (e := class_of[mul(mul(s, classes[o][0]), s_inv)]) not in seen:
                        seen.add(e)
                        orbit.append(e)
            meet = rep.intersect(fixed[c])
            if meet not in isotropy:
                reps.append(meet)
                rows, met = meet.echelon._num, set(orbit)
                members = [i for o in outside if o in met or all(map(fixed[o]._spans, rows))
                           for i in classes[o]]
                isotropy.update(_orbit(group, meet, Subgroup(
                    group, tuple(sorted(stab.members + tuple(members))))))
    scale = lcm(*(space.echelon._den for space in isotropy))
    return StrataReport(chart, tuple(sorted(
        (Stratum(iso, space, space.dim, n - space.dim,
                 chart.boundary and not any(row[-1] for row in space.echelon._num))
         for space, iso in isotropy.items()),
        key=lambda s: (-s.dimension, [[x * (scale // s.fixed_space.echelon._den) for x in row]
                                      for row in s.fixed_space.echelon._num]))))


def _orbit(group: FiniteMatrixGroup, space: Subspace,
           stab: Subgroup) -> dict[Subspace, Subgroup]:
    """The G-orbit of a space of the lattice, each member with its pointwise
    stabilizer.

    The orbit algorithm with a Schreier vector (Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 4.1): each member S = t space
    keeps its transporting element t and t^-1, and a generator s moves it to
    s S = (s t) space, whose pointwise stabilizer is u stab u^-1 for
    u = s t, read off the table.  A space of the lattice is the fixed space
    of its pointwise stabilizer, so that conjugate tells whether s S is new;
    only then is s S formed, the span of s applied to the echelon rows of S.
    A generator in the stabilizer of S fixes S and is skipped.  The zero
    and full spaces are their own orbits.
    """
    if space.is_zero() or space.is_full():
        return {space: stab}
    mul = group.mul
    gens = [(s, group.inv(s), group.element(s).transpose())
            for s in dict.fromkeys(group.generator_indices)]
    found = {space: stab}
    seen = {stab.members}
    walk = [(space, 0, 0)]
    for member, t, t_inv in walk:  # grows while it is walked
        iso = set(found[member].members)
        for s, s_inv, s_t in gens:
            if s in iso:
                continue
            u, u_inv = mul(s, t), mul(t_inv, s_inv)
            members = tuple(sorted([mul(mul(u, h), u_inv) for h in stab.members]))
            if members not in seen:
                seen.add(members)
                image = Subspace.row_space(member.echelon * s_t)
                found[image] = Subgroup(group, members)
                walk.append((image, u, u_inv))
    return found


class SuborbifoldLocalModel(Record):
    """A local suborbifold model: an invariant subspace with its isotropy data.

    lambda_group acts on the subspace; omega is the part acting trivially on
    it; the intrinsic isotropy is the (effective) quotient lambda/omega.
    All three are in the chart group's indices.
    """

    __slots__ = _fields = ("chart", "subspace", "lambda_group", "omega",
                           "intrinsic_isotropy", "full")


def suborbifold_model(chart: LocalChart, subspace: Subspace,
                      lambda_group: Subgroup) -> SuborbifoldLocalModel:
    """Build the local model of a suborbifold from its invariant subspace.

    Verifies invariance of the subspace under lambda on its generators, in
    ascending order, raising NotInvariant with a witness element and vector
    otherwise.  The witness is the smallest member that fails: the members
    below it generate a group that leaves the subspace invariant, so it is
    not in that group, and Subgroup keeps such a member as a generator.  It
    then takes the members fixing the subspace pointwise as omega, and forms
    the intrinsic isotropy quotient(lambda, omega) in the chart group's
    indices, checking that no coset but omega's own fixes the subspace
    pointwise.  The model is full when lambda is the whole chart group.
    """
    if lambda_group.parent is not chart.group:
        raise ValueError("lambda subgroup belongs to a different group")
    if subspace.ambient_dim != chart.dim:
        raise ValueError("subspace ambient dimension mismatch")
    for i in lambda_group.generators:
        m = chart.group.element(i)
        if not subspace.is_invariant_under(m):
            b = next(b for b in subspace.basis if not subspace.contains(m.apply(b)))
            raise NotInvariant(
                "subspace is not invariant under element %d" % i,
                witness=(m, b))
    omega = Subgroup(chart.group, tuple(
        i for i in lambda_group.members
        if subspace.fixed_pointwise_by(chart.group.element(i))))
    intr = quotient(lambda_group, omega)
    for c in range(1, intr.order):
        rep = chart.group.element(intr.representative(c))
        if subspace.fixed_pointwise_by(rep):
            raise AssertionError("intrinsic isotropy fails to act effectively")
    return SuborbifoldLocalModel(
        chart=chart,
        subspace=subspace,
        lambda_group=lambda_group,
        omega=omega,
        intrinsic_isotropy=intr,
        full=lambda_group.is_full(),
    )


class ChartEmbedding(Record):
    """An affine equivariant embedding of one chart into another."""

    __slots__ = _fields = ("source", "target", "linear", "translate", "theta")

    def apply(self, point) -> tuple[Fraction, ...]:
        return vec_add(self.linear.apply(point), self.translate)


def verify_embedding(e: ChartEmbedding) -> ChartEmbedding:
    """Check injectivity, theta injectivity, and exact equivariance.

    Equivariance of an affine map psi(y) = Ly + t under gamma means
    L gamma = theta(gamma) L and theta(gamma) t = t, which gives
    psi(gamma y) = theta(gamma) psi(y) for every y.  theta is first checked
    to be multiplicative (GroupHom.check_multiplicative, NotAHomomorphism
    otherwise; a theta that has passed it, in verify_homomorphism for one,
    is not walked again); then both conditions hold for a product when
    they hold for its factors, so they are checked on the distinct
    generators (the identity when there are none) in ascending index order.
    Closure is breadth-first, so the first failing generator is the first
    failing element.
    """
    if e.linear.rows != e.target.dim or e.linear.cols != e.source.dim:
        raise EmbeddingError("linear part is %dx%d for a %d->%d embedding"
                             % (e.linear.rows, e.linear.cols,
                                e.source.dim, e.target.dim))
    if e.linear.rank() != e.source.dim:
        raise EmbeddingError("linear part is not injective", witness=e.linear)
    if e.theta.source is not e.source.group or e.theta.target is not e.target.group:
        raise EmbeddingError("theta does not connect the chart groups")
    if not e.theta.is_injective():
        raise EmbeddingError("theta is not injective", witness=e.theta.mapping)
    e.theta.check_multiplicative()
    for gi in sorted(set(e.source.group.generator_indices or (0,))):
        g = e.source.group.element(gi)
        tg = e.target.group.element(e.theta.apply(gi))
        if e.linear * g != tg * e.linear:
            raise EmbeddingError(
                "equivariance fails on linear parts at element %d" % gi,
                witness=(g, tg))
        if tg.apply(e.translate) != e.translate:
            raise EmbeddingError(
                "equivariance fails on the translation at element %d" % gi,
                witness=(tg, e.translate))
    return e
