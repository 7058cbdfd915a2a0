"""Equivariant polynomial map germs and the local orbifold map calculus.

A germ couples a polynomial lift between two chart models with a group
homomorphism between their isotropy groups; the commuting-diagram condition
(lift of the action equals the action of the lift) is verified as an exact
polynomial identity on the generators of the source group, which together
with the homomorphism property gives it for every element.  A germ computes
its base-point differential kernel, that kernel's split by the chart group
and the homomorphism kernel N once, on first use, and keeps them.

On top of germs this module builds:

* regular-value tests (exact Jacobian rank at supplied preimage lifts,
  empty preimage regular by convention),
* the preimage model at a regular lift point, re-centered first when the
  group moves the point and with the boundary data on a boundary chart:
  the kernel subspace, the part of the group acting trivially on it, and
  the effective quotient that becomes the intrinsic isotropy of the
  preimage suborbifold,
* the kernel-averaging invariant projection (gamma - I averaged over the
  kernel of the homomorphism, negated), with its algebraic identity suite:
  the composition identities of gamma -> gamma - I are checked on every
  pair of the kernel, all pairs with one delta as one dot product of
  integer-packed matrices,
* analyze_germ, the pipeline of these checks that the analyze command and
  the corpus share,
* faithfulness of the homomorphism kernel inside the quotient,
* obstruction certificates for the existence of germs with a regular center
  value, and
* a seeded Monte Carlo sampler estimating the density of regular values,
  with exact per-sample classification.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import sys
from fractions import Fraction
from operator import and_, lshift, mul, or_
from typing import Iterator, Sequence

from .ratlin import (
    Matrix,
    MultiPoly,
    Record,
    Subspace,
    kernel,
    kernel_image_rank,
    poly_apply_matrix,
    poly_gcd,
    poly_derivative,
    poly_int,
    poly_value,
    has_real_root,
    sign_variations,
    sturm_chain,
    vec,
    QONE,
    QZERO,
    _scaled_vec,
    _set,
)
from .groups import (
    GroupHom,
    QuotientGroup,
    Subgroup,
    InvariantSubspaceResult,
    close_in,
    eigenspace,
    find_invariant_subspace,
    intertwiners,
    kernel_of,
    verify_homomorphism,
)
from .charts import (
    ChartEmbedding,
    LocalChart,
    isotropy_at,
    stratify,
    suborbifold_model,
    SuborbifoldLocalModel,
)

SNAP_DENOMINATOR = 10 ** 6
# samples per chunk of sard_sample: each chunk is one getrandbits integer of
# 64 bits per draw, so memory stays bounded for any count
SARD_CHUNK = 1024


class EquivarianceError(ValueError):
    """The lift is not equivariant; carries the element and residual map."""

    def __init__(self, msg, gamma_index=None, residual=None):
        super().__init__(msg)
        self.gamma_index = gamma_index
        self.residual = residual


class NotInPreimage(ValueError):
    """A supplied lift point does not map to the target point."""


class NotRegularPoint(ValueError):
    """The Jacobian at the supplied point is not surjective."""


class NotCentered(ValueError):
    """The lift point is not fixed by the chart group; re-center first."""


class UnsupportedLift(ValueError):
    """The sampler cannot solve preimages for this lift shape."""


class MapGerm(Record):
    """A complete local map germ: charts, polynomial lift, homomorphism.

    base_kernel, base_split, n_group and the values of value_at are derived
    from the fields on first use and kept on the germ, which is frozen, so
    each is computed once and is the same value on every later read.  The
    germ has an instance ``__dict__``, where functools.cached_property keeps
    its values.
    """

    _fields = ("source", "target", "lift", "theta", "base_point")

    def __init__(self, source: LocalChart, target: LocalChart, lift: MultiPoly,
                 theta: GroupHom, base_point: tuple[Fraction, ...]):
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "lift", lift)
        _set(self, "theta", theta)
        _set(self, "base_point", base_point)
        _set(self, "_lift_values", {})

    @functools.cached_property
    def base_kernel(self) -> Subspace:
        """The kernel K of the differential at the base point."""
        return kernel(self.lift.jacobian_at(self.base_point))

    @functools.cached_property
    def base_split(self) -> SuborbifoldLocalModel:
        """The full suborbifold model of base_kernel.

        Its omega is the pointwise stabilizer G of K and its intrinsic
        isotropy the quotient Gamma/G.  Unlike preimage_model this does not
        require the base point to be a regular point, only group-fixed
        (NotCentered otherwise); the split is what the faithfulness argument
        consumes.
        """
        if not _is_centered(self, self.base_point):
            raise NotCentered("base point is not fixed by the chart group")
        return suborbifold_model(self.source, self.base_kernel,
                                 self.source.group.full_subgroup())

    @functools.cached_property
    def n_group(self) -> Subgroup:
        """The kernel N of the homomorphism, a normal subgroup of the source group."""
        return kernel_of(self.theta)

    def value_at(self, point) -> tuple[Fraction, ...]:
        """The lift's value at point, evaluated once per point and germ."""
        point = vec(point)
        if point not in self._lift_values:
            self._lift_values[point] = self.lift.eval(point)
        return self._lift_values[point]

    def kernel_at(self, point) -> Subspace:
        """The kernel of the differential at point; base_kernel at the base point."""
        point = vec(point)
        if point == self.base_point:
            return self.base_kernel
        return kernel(self.lift.jacobian_at(point))


def _is_centered(germ: MapGerm, point: tuple) -> bool:
    """True when every element of the source chart group fixes point, a
    tuple of rationals.  With point = iv / d on integers, a generator
    num / den fixes it exactly when num·iv == den·iv, tested on integer
    rows as Subspace.fixed_pointwise_by does.  A point whose length is not
    the chart's dimension raises ValueError, as Matrix.apply does."""
    gens = germ.source.group.generators
    if not gens:
        return True
    iv, _ = _scaled_vec(point)
    if len(iv) != gens[0].cols:
        raise ValueError("vector length %d does not match %d columns"
                         % (len(iv), gens[0].cols))
    return all([sum(map(mul, row, iv)) for row in m._num] == [m._den * x for x in iv]
               for m in gens)


def build_germ(source: LocalChart, target: LocalChart, lift: MultiPoly,
               theta: GroupHom, base_point=None) -> MapGerm:
    """Verify and assemble a map germ.

    theta is first checked to be multiplicative on (element, generator)
    pairs (GroupHom.check_multiplicative, NotAHomomorphism otherwise); a
    theta that has passed that check, in verify_homomorphism or an earlier
    germ, keeps its verdict and is not walked again.
    Equivariance is then the exact polynomial identity
    lift(gamma y) - theta(gamma) lift(y) == 0 for the distinct generators
    gamma of the source group, in ascending index order (the identity alone
    when there are none).  It holds for a product once it holds for its
    factors, so it then holds for every element.  Breadth-first closure puts
    the generators right after the identity, so the first generator that
    fails is the first element that fails: a violation raises
    EquivarianceError carrying that element and the residual.
    """
    if lift.num_vars != source.dim:
        raise ValueError("lift has %d variables, source dimension is %d"
                         % (lift.num_vars, source.dim))
    if lift.out_dim != target.dim:
        raise ValueError("lift has %d outputs, target dimension is %d"
                         % (lift.out_dim, target.dim))
    if theta.source is not source.group or theta.target is not target.group:
        raise ValueError("theta does not connect the chart groups")
    base = vec(base_point) if base_point is not None else (QZERO,) * source.dim
    if len(base) != source.dim:
        raise ValueError("base point length mismatch")
    if not source.contains_point(base):
        raise ValueError("base point outside the source half-space")
    germ = MapGerm(source, target, lift, theta, base)
    if not target.contains_point(germ.value_at(base)):
        raise ValueError("lift image of base point outside the target half-space")
    theta.check_multiplicative()
    for gi in sorted(set(source.group.generator_indices or (0,))):
        g = source.group.element(gi)
        tg = target.group.element(theta.apply(gi))
        residual = lift.compose_affine(g) - lift.apply_matrix(tg)
        if not residual.is_zero():
            raise EquivarianceError(
                "lift is not equivariant at element %d" % gi,
                gamma_index=gi, residual=residual)
    return germ


class RegularValueReport(Record):
    __slots__ = _fields = ("target_point", "regular", "point_ranks", "needed_rank",
                           "empty_preimage")

    def __init__(self, target_point: tuple[Fraction, ...], regular: bool,
                 point_ranks: tuple[tuple[tuple[Fraction, ...], int], ...],
                 needed_rank: int, empty_preimage: bool):
        _set(self, "target_point", target_point)
        _set(self, "regular", regular)
        _set(self, "point_ranks", point_ranks)
        _set(self, "needed_rank", needed_rank)
        _set(self, "empty_preimage", empty_preimage)


def is_regular_value(germ: MapGerm, p, preimage_lifts) -> RegularValueReport:
    """Exact regularity of a target point over the supplied preimage lifts.

    Every supplied point must map to p exactly (NotInPreimage otherwise).
    An empty list is regular by convention.
    """
    p = vec(p)
    entries = []
    k = germ.target.dim
    regular = True
    for pt in preimage_lifts:
        pt = vec(pt)
        if germ.value_at(pt) != p:
            raise NotInPreimage(
                "point %s does not map to %s"
                % (tuple(str(x) for x in pt), tuple(str(x) for x in p)))
        rank = germ.source.dim - germ.kernel_at(pt).dim
        entries.append((pt, rank))
        if rank != k:
            regular = False
    return RegularValueReport(
        target_point=p,
        regular=regular,
        point_ranks=tuple(entries),
        needed_rank=k,
        empty_preimage=not entries,
    )


class PreimageModel(Record):
    """The local structure of a regular-value preimage at a centered point.

    suborbifold is the full suborbifold model of the differential kernel K
    in the source chart; kernel, g_group (the pointwise stabilizer G of K)
    and gamma_s (the intrinsic isotropy Gamma/G) are read off it.  At a
    boundary point boundary_kind is "boundary-point" and boundary_kernel_dim
    is the dimension of K inside the boundary hyperplane.
    """

    __slots__ = _fields = ("germ", "target_point", "lift_point", "suborbifold", "dim",
                           "boundary_kind", "boundary_kernel_dim")

    def __init__(self, germ: MapGerm, target_point: tuple[Fraction, ...],
                 lift_point: tuple[Fraction, ...], suborbifold: SuborbifoldLocalModel,
                 dim: int, boundary_kind: str = "interior",
                 boundary_kernel_dim: int | None = None):
        _set(self, "germ", germ)
        _set(self, "target_point", target_point)
        _set(self, "lift_point", lift_point)
        _set(self, "suborbifold", suborbifold)
        _set(self, "dim", dim)
        _set(self, "boundary_kind", boundary_kind)
        _set(self, "boundary_kernel_dim", boundary_kernel_dim)

    @property
    def kernel(self) -> Subspace:
        return self.suborbifold.subspace

    @property
    def g_group(self) -> Subgroup:
        return self.suborbifold.omega

    @property
    def gamma_s(self) -> QuotientGroup:
        return self.suborbifold.intrinsic_isotropy


def preimage_model(germ: MapGerm, p, lift_point) -> PreimageModel:
    """The preimage suborbifold model at a regular lift point.

    A point the chart group does not fix is first made the center by
    recenter_germ, which cuts the group down to the point's isotropy; the
    model's germ is then the re-centered one.  The kernel K of the
    differential is the local linear model, and suborbifold_model splits
    the whole chart group on it: the pointwise stabilizer G and the
    quotient Gamma/G, which acts effectively on K and is the intrinsic
    isotropy.  The resulting model is full; at the base point it is the
    germ's base_split.

    A boundary chart needs source dimension > target dimension (ValueError
    otherwise).  At a point on its boundary the restriction of the lift to
    the boundary hyperplane must be regular too, and K meets the hyperplane
    in one dimension less.
    """
    p, pt = vec(p), vec(lift_point)
    if not _is_centered(germ, pt):
        germ = recenter_germ(germ, pt)
        pt = (QZERO,) * germ.source.dim
    n, k = germ.source.dim, germ.target.dim
    if germ.source.boundary and n <= k:
        raise ValueError("boundary preimages need source dimension > target dimension")
    if germ.value_at(pt) != p:
        raise NotInPreimage("lift point does not map to the target point")
    kernel = germ.kernel_at(pt)
    if kernel.dim != n - k:
        raise NotRegularPoint(
            "Jacobian rank %d < target dimension %d at the lift point"
            % (n - kernel.dim, k))
    if pt == germ.base_point:
        sub = germ.base_split
    else:
        sub = suborbifold_model(germ.source, kernel, germ.source.group.full_subgroup())
    kind, kernel_dim = "interior", None
    if germ.source.boundary and germ.source.on_boundary(pt):
        restricted = _boundary_restriction(germ.lift)
        if restricted.jacobian_at(pt[:-1]).rank() != k:
            raise NotRegularPoint(
                "restriction to the boundary hyperplane is not regular at the point")
        meet = kernel.intersect(germ.source.boundary_hyperplane())
        if meet.dim != kernel.dim - 1:
            raise AssertionError("kernel does not meet the boundary in codimension 1")
        kind, kernel_dim = "boundary-point", meet.dim
    return PreimageModel(germ=germ, target_point=p, lift_point=pt, suborbifold=sub,
                         dim=n - k, boundary_kind=kind, boundary_kernel_dim=kernel_dim)


def _boundary_restriction(lift: MultiPoly) -> MultiPoly:
    """Substitute x_n = 0: the lift restricted to the boundary hyperplane."""
    n = lift.num_vars
    incl = Matrix([[QONE if i == j else QZERO for j in range(n - 1)]
                   for i in range(n)])
    return lift.compose_affine(incl)


class InvariantProjection(Record):
    """The averaged projection onto the differential kernel.

    For each gamma in the homomorphism kernel N, A(gamma) = gamma - I maps
    into the kernel subspace K.  projection = -(1/|N|) sum A(gamma) is
    I - R_N, where R_N = (1/|N|) sum gamma projects onto the fixed space of
    N, so it is an idempotent commuting with N whose image lies in K and
    whose kernel N fixes pointwise.  a_gamma lists (gamma, A(gamma)) for
    every member of N, in member order; it is formed from n_group on each
    read and is no field.  cocycle_identities reads the members of N in
    their integer form instead (the private ``_scaled`` that
    invariant_projection keeps, see _scaled_members).
    """

    __slots__ = ("n_group", "kernel_space", "projection", "proj_kernel", "proj_image",
                 "_scaled")
    _fields = ("n_group", "kernel_space", "projection", "proj_kernel", "proj_image")

    def __init__(self, n_group: Subgroup, kernel_space: Subspace, projection: Matrix,
                 proj_kernel: Subspace, proj_image: Subspace):
        _set(self, "n_group", n_group)
        _set(self, "kernel_space", kernel_space)
        _set(self, "projection", projection)
        _set(self, "proj_kernel", proj_kernel)
        _set(self, "proj_image", proj_image)
        _set(self, "_scaled", None)

    @property
    def a_gamma(self) -> tuple[tuple[int, Matrix], ...]:
        grp = self.n_group.parent
        ident = Matrix.identity(grp.dim)
        return tuple((i, grp.element(i) - ident) for i in self.n_group.members)


def invariant_projection(germ: MapGerm) -> InvariantProjection:
    """Build the invariant projection at the germ's base point, verified exactly.

    The checks that concern N run on its generators (Subgroup.generators):
    gamma - I maps into the kernel K, gamma commutes with the projection,
    and gamma fixes the projection kernel pointwise.  Each passes to
    products: gamma delta - I = (gamma - I) delta + (delta - I) maps into K
    when both terms do, and commuting with or fixing a vector under two
    matrices gives the same under their product.  The projection is checked
    to be idempotent with its image in K and its kernel and image splitting
    the space.  Kernel membership is tested on integer rows (the columns of
    gamma - I and the echelon rows of the image, each up to a scale).  The
    members of N are read once, as a common denominator D and the integer
    matrices D gamma (_scaled_members); the projection I - (1/|N|) sum gamma
    is one integer sum of them, (|N| D I - sum D gamma) / (|N| D), and the
    result keeps them for cocycle_identities.  No matrix gamma - I is
    formed: a_gamma forms them on read.  Every check raises
    AssertionError explicitly, so it also runs under python -O.
    """
    n = germ.source.dim
    grp = germ.source.group
    ngrp = germ.n_group
    kernel = germ.base_kernel
    gens = [grp.element(i) for i in ngrp.generators]
    for m in gens:
        # (num - den I) / den maps into K exactly when each integer column
        # of num - den I does
        if not all(map(kernel._spans, zip(*_minus_identity_rows(m)))):
            raise AssertionError(
                "gamma - I does not map into the kernel (broken germ)")
    scaled = _scaled_members(grp, ngrp.members)
    proj = _negated_mean(scaled)
    if proj * proj != proj:
        raise AssertionError("projection is not idempotent")
    if any(m * proj != proj * m for m in gens):
        raise AssertionError("projection does not commute with N")
    pk, pi, _ = kernel_image_rank(proj)
    if not all(map(kernel._spans, pi.echelon._num)):
        raise AssertionError("projection image escapes the kernel")
    if not all(pk.fixed_pointwise_by(m) for m in gens):
        raise AssertionError("N moves the projection kernel")
    if pk.dim + pi.dim != n or not pk.intersect(pi).is_zero():
        raise AssertionError("projection kernel and image do not split the space")
    result = InvariantProjection(
        n_group=ngrp, kernel_space=kernel, projection=proj,
        proj_kernel=pk, proj_image=pi,
    )
    _set(result, "_scaled", scaled)
    return result


def _scaled_members(grp, members: Sequence[int]) -> tuple[int, list]:
    """The members of a subgroup of grp in one integer form: (D, e_hat),
    D the lcm of their denominators and e_hat[k] the integer rows of D
    times the k-th member (its own numerator rows when its denominator is
    D)."""
    elements = grp.elements
    den = math.lcm(*[elements[gi]._den for gi in members])
    e_hat = []
    for gi in members:
        g = elements[gi]
        f = den // g._den
        e_hat.append(g._num if f == 1 else tuple([tuple([x * f for x in row])
                                                  for row in g._num]))
    return den, e_hat


def _negated_mean(scaled: tuple[int, list]) -> Matrix:
    """-(1/k) sum (gamma - I) over the k members of _scaled_members' form
    (D, e_hat): (k D I - sum D gamma) / (k D), one integer sum per entry."""
    den, e_hat = scaled
    n = len(e_hat[0])
    top = len(e_hat) * den
    sums = [sum(col) for col in zip(*[itertools.chain.from_iterable(e) for e in e_hat])]
    return Matrix._make(tuple([tuple([top * (i == j) - sums[n * i + j] for j in range(n)])
                               for i in range(n)]), top, n)


class CocycleReport(Record):
    __slots__ = _fields = ("pairs_checked", "ok", "failures")

    def __init__(self, pairs_checked: int, ok: bool,
                 failures: tuple[tuple[int, int, str], ...]):
        _set(self, "pairs_checked", pairs_checked)
        _set(self, "ok", ok)
        _set(self, "failures", failures)


_COCYCLE_IDENTITIES = ("left-twisted", "right-twisted", "product")


def cocycle_identities(proj: InvariantProjection) -> CocycleReport:
    """Check the three composition identities of gamma -> A(gamma) on N x N.

    For all gamma, delta in N:
        A(gamma delta) = A(gamma) + gamma A(delta)
                       = A(delta) + A(gamma) delta
                       = A(delta) + A(gamma) + A(gamma) A(delta)

    Every pair and every identity is checked exactly.  A(gamma) = gamma - I,
    so E(gamma) = A(gamma) + I is gamma, and all three residuals (left side
    minus right side) are R3 = E(gamma delta) - E(gamma) E(delta): a pair
    whose R3 is nonzero fails all three identities.  Over the common
    denominator D of the members, E^(gamma) = D gamma is integer
    (_scaled_members, the form invariant_projection keeps on the
    projection), and so is D^2 R3 = D E^(gamma delta) - E^(gamma) E^(delta),
    zero exactly when R3 is.  Each integer matrix is packed into one integer
    by Kronecker substitution, key(M) = sum M[i][j] 2^(b (n i + j)), which
    determines M while every entry is one signed base-2^b digit
    (_digit_bits).  With the row-packed l(gamma)_k = sum_i E^(gamma)[i][k]
    2^(b n i) and the column-packed u(delta)_k = sum_j E^(delta)[k][j]
    2^(b j), the key of E^(gamma) E^(delta) is the dot product
    l(gamma) . u(delta).  Every gamma gets a slot of W = b n^2 bits, b
    rounded up so that a slot is whole bytes, and L_k holds l(gamma)_k in
    gamma's slot: then sum_k L_k u(delta)_k holds key(E^(gamma) E^(delta))
    in the slot of every gamma at once.  A key lies strictly between
    -2^(W-1) and 2^(W-1), so adding 2^(W-1) to every slot makes them
    nonnegative and free of borrows; the bytes of that integer are
    compared with those of the biased D key(E^(gamma delta)) of each
    gamma, joined in slot order, and a pair fails exactly when its slot's
    bytes differ.  The members gamma delta are read off the parent's
    generator table along delta's generator word, for all gamma at once;
    the words are visited in lexicographic order, each prefix's column
    computed once from its own prefix's column, so only the columns along
    one word are kept.  The failures name (gamma, delta, identity), ordered
    gamma first, then delta, then identity as listed above.
    """
    grp = proj.n_group.parent
    members = proj.n_group.members
    n, size = grp.dim, len(members)
    den, e_hat = proj._scaled or _scaled_members(grp, members)
    b = _digit_bits(den, n, e_hat)
    b += -b % (8 // math.gcd(8, n * n))  # a slot of W = b n^2 bits is whole bytes
    w = b * n * n
    step, half = w // 8, 1 << (w - 1)
    # the shifts of the entries in u(delta)_k and of the u_k in key(E)
    by_entry, by_row = range(0, b * n, b), range(0, w, b * n)
    # L_k = sum E^(gamma)[i][k] 2^(W pos(gamma) + b n i), over gamma and i
    slots = [sum(map(lshift, col, range(0, w * size, b * n)))
             for col in zip(*[row for e in e_hat for row in e])]
    u_e = [[sum(map(lshift, row, by_entry)) for row in e] for e in e_hat]
    # D key(E^(gamma)) + 2^(W-1) as slot bytes, indexed by the parent's element index
    zero = half.to_bytes(step, "little")
    bias = int.from_bytes(zero * size, "little")
    want = [zero] * grp.order
    for gi, u in zip(members, u_e):
        want[gi] = (den * sum(map(lshift, u, by_row)) + half).to_bytes(step, "little")
    right, words = grp.right, grp.words
    # cols[k]: gamma times the first k letters of the current delta's word,
    # for every gamma; the words are visited in lexicographic order
    path: list[int] = []
    cols = [members]
    bad = []
    for word, dpos in sorted(zip([words[d] for d in members], range(size))):
        k = 0
        while k < len(path) and k < len(word) and path[k] == word[k]:
            k += 1
        del path[k:], cols[k + 1:]
        for s in word[k:]:
            cols.append([right[c][s] for c in cols[-1]])
            path.append(s)
        col = cols[-1]
        got = (bias + sum(map(mul, slots, u_e[dpos]))).to_bytes(step * size, "little")
        if got != b"".join([want[c] for c in col]):
            bad.extend((gpos, dpos) for gpos, c in enumerate(col)
                       if got[gpos * step:(gpos + 1) * step] != want[c])
    failures = tuple((members[g], members[d], name) for g, d in sorted(bad)
                     for name in _COCYCLE_IDENTITIES)
    return CocycleReport(pairs_checked=size * size, ok=not failures, failures=failures)


def _minus_identity_rows(g: Matrix) -> tuple[tuple[int, ...], ...]:
    """The integer rows num - den I of g = num / den: g - I is
    (num - den I) / den, in lowest terms when g is."""
    d = g._den
    return tuple([row[:i] + (row[i] - d,) + row[i + 1:] for i, row in enumerate(g._num)])


def _digit_bits(den: int, n: int, e_hat) -> int:
    """The digit width b for packing D^2 R3 = D E^(gamma delta) -
    E^(gamma) E^(delta), n x n: each entry is at most D t + n t^2 in
    absolute value, t the largest entry of e_hat, so 2^(b-1) > D t + n t^2
    keeps every entry one signed digit."""
    top = max(map(abs, itertools.chain.from_iterable(row for m in e_hat for row in m)))
    return (den * top + n * top * top).bit_length() + 1


class FaithfulnessReport(Record):
    __slots__ = _fields = ("n_order", "g_order", "intersection_trivial", "injective",
                           "coset_images")

    def __init__(self, n_order: int, g_order: int, intersection_trivial: bool,
                 injective: bool, coset_images: tuple[tuple[int, int], ...]):
        _set(self, "n_order", n_order)
        _set(self, "g_order", g_order)
        _set(self, "intersection_trivial", intersection_trivial)
        _set(self, "injective", injective)
        _set(self, "coset_images", coset_images)


def faithfulness_check(germ: MapGerm) -> FaithfulnessReport:
    """Verify N meets the trivially-acting subgroup only in the identity.

    The composite of N into the quotient by that subgroup is then checked
    for injectivity element by element.  Either failure raises
    AssertionError explicitly, so the check also runs under python -O.  The
    split is the germ's base_split (NotCentered unless the chart group fixes
    the base point).
    """
    split = germ.base_split
    ngrp = germ.n_group
    inter = set(ngrp.members) & set(split.omega.members)
    images = tuple((i, split.intrinsic_isotropy.coset_of(i)) for i in ngrp.members)
    injective = len({c for _, c in images}) == ngrp.order
    report = FaithfulnessReport(
        n_order=ngrp.order,
        g_order=split.omega.order,
        intersection_trivial=inter == {0},
        injective=injective,
        coset_images=images,
    )
    if not report.intersection_trivial:
        raise AssertionError("N meets G beyond the identity")
    if not report.injective:
        raise AssertionError("N does not inject into the quotient")
    return report


def analyze_germ(germ: MapGerm, p, lifts):
    """The analyze pipeline: (regular-value report, invariant projection,
    cocycle report, preimage models, faithfulness report).  The models are
    one per lift point when p is regular and none otherwise.  A failed
    cocycle check raises AssertionError, naming the number of failing pairs
    (each names up to three identities), so it also fails under python -O."""
    reg = is_regular_value(germ, p, lifts)
    proj = invariant_projection(germ)
    cc = cocycle_identities(proj)
    if not cc.ok:
        raise AssertionError("cocycle identities fail on %d pair(s)"
                             % len({fail[:2] for fail in cc.failures}))
    models = [preimage_model(germ, p, pt) for pt in lifts] if reg.regular else []
    return reg, proj, cc, models, faithfulness_check(germ)


class RealTargetReport(Record):
    """Decomposition data for a germ to a 1-dimensional trivial target."""

    __slots__ = _fields = ("gamma_order", "gamma_s_order", "g_trivial", "fixed_line",
                           "kernel_space", "image_equals_kernel", "stratum_dimension")

    def __init__(self, gamma_order: int, gamma_s_order: int, g_trivial: bool,
                 fixed_line: Subspace, kernel_space: Subspace,
                 image_equals_kernel: bool, stratum_dimension: int | None):
        _set(self, "gamma_order", gamma_order)
        _set(self, "gamma_s_order", gamma_s_order)
        _set(self, "g_trivial", g_trivial)
        _set(self, "fixed_line", fixed_line)
        _set(self, "kernel_space", kernel_space)
        _set(self, "image_equals_kernel", image_equals_kernel)
        _set(self, "stratum_dimension", stratum_dimension)


def real_target_structure(germ: MapGerm, model: PreimageModel) -> RealTargetReport:
    """Verify the tangent splitting forced by a real-valued regular germ.

    For a 1-dimensional trivial-group target at a regular centered point:
    the whole group survives into the quotient, the projection kernel is a
    pointwise-fixed line, its image is the differential kernel, and the
    singular stratum through the point has dimension at least 1 whenever
    the group is nontrivial.
    """
    if germ.target.dim != 1 or not germ.target.group.is_trivial():
        raise ValueError("target must be 1-dimensional with trivial group")
    if model.germ is not germ:
        raise ValueError("model was built from a different germ")
    grp = germ.source.group
    proj = invariant_projection(germ)
    if not model.g_group.is_trivial():
        raise AssertionError("trivially-acting subgroup is not trivial")
    if model.gamma_s.order != grp.order:
        raise AssertionError("the group does not survive into the quotient")
    if not grp.is_trivial():
        if proj.proj_kernel.dim != 1:
            raise AssertionError("fixed line is not 1-dimensional")
        # a vector fixed by each generator is fixed by their products
        for i in grp.generator_indices:
            if not proj.proj_kernel.fixed_pointwise_by(grp.element(i)):
                raise AssertionError("fixed line is moved by element %d" % i)
        if proj.proj_image != model.kernel:
            raise AssertionError("projection image differs from kernel")
    stratum_dim = None
    if not grp.is_trivial():
        fix = eigenspace(grp.dim, [(m, 1) for m in grp.generators])
        report = stratify(germ.source)
        stratum = next(s for s in report.strata if s.fixed_space == fix)
        stratum_dim = stratum.dimension
        if stratum_dim < 1:
            raise AssertionError("singular stratum through the point is isolated")
    return RealTargetReport(
        gamma_order=grp.order,
        gamma_s_order=model.gamma_s.order,
        g_trivial=model.g_group.is_trivial(),
        fixed_line=proj.proj_kernel,
        kernel_space=model.kernel,
        image_equals_kernel=proj.proj_image == model.kernel,
        stratum_dimension=stratum_dim,
    )


class ObstructionCertificate(Record):
    """Whether a germ with a regular center value can exist for given data."""

    __slots__ = _fields = ("verdict", "reason_code", "detail", "witness_lift",
                           "invariant_search")

    def __init__(self, verdict: str, reason_code: str, detail: str,
                 witness_lift: MultiPoly | None = None,
                 invariant_search: InvariantSubspaceResult | None = None):
        _set(self, "verdict", verdict)  # "possible" | "impossible" | "unknown"
        _set(self, "reason_code", reason_code)
        _set(self, "detail", detail)
        _set(self, "witness_lift", witness_lift)
        _set(self, "invariant_search", invariant_search)


def obstruction_certificate(source: LocalChart, target: LocalChart,
                            theta: GroupHom) -> ObstructionCertificate:
    """Decide whether the chart centers admit a germ whose center value is regular.

    Impossible when (a) the dimensions agree and the homomorphism has a
    nontrivial kernel (that kernel would need to act effectively on a point)
    or (b) no invariant subspace of the kernel dimension can exist at all.
    Possible only with an explicit witness: a surjective equivariant linear
    lift, verified by building the germ.  Otherwise unknown.
    """
    n, k = source.dim, target.dim
    if theta.source is not source.group or theta.target is not target.group:
        raise ValueError("theta does not connect the chart groups")
    if n < k:
        return ObstructionCertificate(
            "impossible", "target_dim_exceeds_source",
            "no %d->%d differential can be surjective" % (n, k))
    if n == k:
        ker = kernel_of(theta)
        if not ker.is_trivial():
            return ObstructionCertificate(
                "impossible", "kernel_on_point",
                "equal dimensions force a 0-dimensional kernel, but the "
                "homomorphism kernel of order %d would have to act effectively "
                "and faithfully on it" % ker.order)
    search = None
    if n > k:
        search = find_invariant_subspace(source.group, n - k)
        if search.status == "certified_none":
            return ObstructionCertificate(
                "impossible", "no_invariant_kernel",
                "a regular center value needs a %d-dimensional invariant "
                "subspace; none exists (%s)" % (n - k, search.reason),
                invariant_search=search)
    basis = intertwiners(source.group,
                         lambda gi: target.group.element(theta.apply(gi)))
    for cand in _linear_candidates(basis, k, n):
        if cand.rank() == k:
            lift = MultiPoly.from_linear(cand)
            germ = build_germ(source, target, lift, theta)
            return ObstructionCertificate(
                "possible", "linear_witness",
                "surjective equivariant linear lift found",
                witness_lift=germ.lift, invariant_search=search)
    return ObstructionCertificate(
        "unknown", "inconclusive",
        "no obstruction fired and no linear witness was found",
        invariant_search=search)


def _linear_candidates(basis: Sequence[Matrix], k: int, n: int) -> Iterator[Matrix]:
    """Candidate k x n linear lifts, built as they are asked for: the basis,
    then the sums of two basis elements, then 50 combinations with
    coefficients in -3..3 drawn from random.Random(271828).  An empty basis
    combines to the zero matrix alone, which is yielded once."""
    if not basis:
        yield Matrix.zero(k, n)
        return
    yield from basis
    for a, b in itertools.combinations(basis, 2):
        yield a + b
    rng = random.Random(271828)
    for _ in range(50):
        m = Matrix.zero(k, n)
        for b in basis:
            m = m + b.scale(Fraction(rng.randint(-3, 3)))
        yield m


# ---------------------------------------------------------------------------
# Monte Carlo density sampling of regular values


def _critical_value_poly(num: list[int], den: int) -> list[int]:
    """A polynomial in p that vanishes exactly at the complex critical values
    of f = num / den, low degree first.

    By Stickelberger's theorem the characteristic polynomial of
    multiplication by f on Q[x]/(f') is the product of p - f(a) over the
    roots a of f', with multiplicity: Res_x(f - p, f') up to a nonzero
    scalar.  On the basis 1, x, ..., x^(d-1) multiplication by x is the
    companion matrix C of the monic f', so multiplication by f is f(C).  A
    nonzero evaluation rules a sample out as a critical value cheaply.
    """
    deriv = poly_derivative(num)
    d = len(deriv) - 1
    if d < 1:
        return [1]
    companion = Matrix([[int(i == j + 1) for j in range(d - 1)]
                        + [Fraction(-deriv[i], deriv[-1])] for i in range(d)])
    return poly_int(poly_apply_matrix(num, companion).scale(Fraction(1, den)).charpoly())


def _separable_coordinates(lift: MultiPoly) -> list[tuple]:
    """Per output coordinate: ('const', value) or ('poly', var, num, den,
    res) for the coordinate num(x_var) / den, with ``res`` its critical-value
    polynomial from ``_critical_value_poly``.

    Raises UnsupportedLift unless each output uses at most one variable and
    no two outputs share one.
    """
    used: list[int | None] = []
    for j in range(lift.out_dim):
        vs = lift.variables_used(j)
        if len(vs) > 1:
            raise UnsupportedLift(
                "output %d uses %d variables; supply a preimage table" % (j, len(vs)))
        used.append(vs.pop() if vs else None)
    seen = [v for v in used if v is not None]
    if len(seen) != len(set(seen)):
        raise UnsupportedLift("two outputs share a variable; supply a preimage table")
    out = []
    den = lift._den
    for terms, v in zip(lift._num, used):
        if v is None:
            out.append(("const", Fraction(terms[0][1], den) if terms else QZERO))
        else:
            num = [0] * (max(e[v] for e, _ in terms) + 1)
            for e, c in terms:
                num[e[v]] = c
            out.append(("poly", v, num, den, _critical_value_poly(num, den)))
    return out


def _grid_roots(res: list[int], n_lo: int, n_hi: int) -> list[int]:
    """The integers n in [n_lo, n_hi] with res(n / D) = 0, ascending, for a
    nonzero res and D = SNAP_DENOMINATOR.

    Degree 1 is solved in closed form.  Otherwise the range is cut to the
    Cauchy bound D * (1 + max |c_i / c_d|), rounded up, on the real roots of
    D^d res(t / D), and the Sturm chain of that polynomial, counted on ints
    at the ends of (l, r], bisects the range to unit steps (l, l + 1], where
    an exact evaluation at l + 1 decides.
    """
    D = SNAP_DENOMINATOR
    d = len(res) - 1
    if d < 1:
        return []
    if d == 1:
        n, r = divmod(-res[0] * D, res[1])
        return [n] if not r and n_lo <= n <= n_hi else []
    bound = -(-D * (abs(res[-1]) + max(map(abs, res[:-1]))) // abs(res[-1]))
    n_lo, n_hi = max(n_lo, -bound), min(n_hi, bound)
    if n_lo > n_hi:
        return []
    chain = sturm_chain([c * D ** (d - i) for i, c in enumerate(res)])
    roots = []
    todo = [(n_lo - 1, n_hi, sign_variations(chain, n_lo - 1), sign_variations(chain, n_hi))]
    while todo:
        l, r, vl, vr = todo.pop()
        if vl == vr:
            continue
        if r - l == 1:
            if poly_value(res, r, D) == 0:
                roots.append(r)
            continue
        mid = (l + r) // 2
        vm = sign_variations(chain, mid)
        todo += [(mid, r, vm, vr), (l, mid, vl, vm)]
    return roots


def _snap(span: tuple[float, float], draw: int) -> int:
    """round((lo + width * x) * D) for span = (lo, width), D = SNAP_DENOMINATOR
    and the float x = draw * 2^-53 that ``random()`` returns."""
    return round((span[0] + span[1] * (draw * 2.0 ** -53)) * SNAP_DENOMINATOR)


def _draw_windows(coord, span: tuple[float, float]) -> list[tuple[int, int]]:
    """The draws of one target coordinate that snap to a grid critical value.

    ``random()`` returns N * 2^-53 for an integer N in [0, 2^53), and
    ``_snap`` maps N to its grid numerator exactly as ``sard_sample`` does.
    With width >= 0 every IEEE step and ``round`` are monotone in N, so the
    N that snap to n are [first(n), first(n + 1)), where first(n), the least
    N snapping to n or above (2^53 if none), is found by bisecting N over
    [0, 2^53].  The grid critical values are, for a constant coordinate, its
    value when that is some n / D; for a polynomial one, the n / D where its
    critical-value polynomial vanishes.  Returns the nonempty windows
    [first(n), first(n + 1)) on N.
    """
    def first(n: int) -> int:
        u, v = 0, 1 << 53
        while u < v:
            mid = (u + v) // 2
            if _snap(span, mid) >= n:
                v = mid
            else:
                u = mid + 1
        return u

    n_lo, n_hi = _snap(span, 0), _snap(span, (1 << 53) - 1)
    if coord[0] == "const":
        n, r = divmod(coord[1].numerator * SNAP_DENOMINATOR, coord[1].denominator)
        grid = [n] if not r and n_lo <= n <= n_hi else []
    else:
        grid = _grid_roots(coord[4], n_lo, n_hi)
    return [w for w in ((first(n), first(n + 1)) for n in grid) if w[0] < w[1]]


def _lane_test(size: int, windows, live, every: bool):
    """The window test of chunks of at most size samples: a function of g =
    getrandbits(64 * m * k) and m returning the draws N of the samples whose
    draws fall in the windows of every live coordinate (of some one when not
    every), in sample order; k = len(windows) is the target dimension.

    Lane t = i * k + j of g, bits 64t to 64t + 63, holds draw j of sample i:
    ``random()`` returns N * 2^-53, N = (w >> 5) * 2^26 + (w' >> 6) for the
    lane's low word w and high word w'.  With ONES a 1 at the bottom of each
    lane of one coordinate and the guard bit 2^b above values x, bit b of a
    lane of ((x | guard) - lo ONES) & ((hi | 2^b) ONES - x) is set exactly
    when lo <= x <= hi, and no borrow crosses a lane.  The low words are
    tested first, against 32 (A >> 26) ... 32 ((B - 1) >> 26) + 31 for a
    window [A, B); only then are the lanes of N built and tested exactly.
    """
    k = len(windows)
    ones = int.from_bytes((b"\x01" + bytes(8 * k - 1)) * size, "little")
    words, high, low = ones * 0xFFFFFFFF, ones * 0xFFFFFFE0, ones * 0x3FFFFFF

    def in_windows(b, bound):
        """The guard bits 2^b set for lanes x in some [lo, hi] = bound(window)."""
        guard = ones << b
        ranges = [[(lo * ones - guard, (hi | 1 << b) * ones) for lo, hi in map(bound, windows[j])]
                  for j in live]
        return lambda xs: functools.reduce(and_ if every else or_, [
            functools.reduce(or_, [(x - lo) & (hi - x) for lo, hi in rs])
            for x, rs in zip(xs, ranges)]) & guard

    coarse = in_windows(32, lambda w: (w[0] >> 26 << 5, (w[1] - 1) >> 26 << 5 | 31))
    exact = in_windows(53, lambda w: (w[0], w[1] - 1))

    def hits(g: int, m: int) -> list[list[int]]:
        gs = [g >> 64 * j for j in live]
        if not coarse([x & words for x in gs]):
            return []
        # N: bits 5..31 of the low word move to 26..52, w' >> 6 to 0..25
        found = exact([(x & high) << 21 | x >> 38 & low for x in gs]) >> 53
        flags = found.to_bytes(8 * k * size, "little")[::8 * k]  # a byte per sample
        lanes = memoryview(g.to_bytes(8 * k * size, sys.byteorder)).cast("Q")
        # lanes past m are zero, not draws
        return [[(w & 0xFFFFFFFF) >> 5 << 26 | w >> 38 for w in lanes[i * k:i * k + k]]
                for i in itertools.compress(range(m), flags)]

    return hits


def _classify_sample(coords, p) -> bool:
    """True iff p is a regular value of a separable lift; exact over Q.

    p is critical exactly when every coordinate equation has a real
    solution and some coordinate has a critical one: a constant coordinate
    equal to p_j, or a real root of gcd(f - p_j, f').  A coordinate whose
    critical-value polynomial does not vanish at p_j has no critical
    solution, so with no constant coordinate and no vanishing polynomial p
    is regular at once; the gcd and Sturm checks only run for the rest, and
    the real-solution checks only once a critical solution is found.
    ``sard_sample`` calls it only for the samples whose draws fall in the
    windows of ``_draw_windows``, once per distinct sample.
    """
    critical, unchecked = False, []
    for coord, pj in zip(coords, p):
        if coord[0] == "const":
            if coord[1] != pj:
                return True  # constant coordinate misses pj: empty preimage
            critical = True  # zero Jacobian row on a full solution set
            continue
        _, _, num, den, res = coord
        a, b = pj.numerator, pj.denominator
        shifted = [b * c for c in num]  # b den (f - pj)
        shifted[0] -= a * den
        if poly_value(res, a, b) == 0:
            g = poly_gcd(shifted, poly_derivative(num))
            if len(g) > 1 and has_real_root(g):
                critical = True  # a real root of g solves the equation too
                continue
        unchecked.append(shifted)
    return not (critical and all(map(has_real_root, unchecked)))


class SardReport(Record):
    __slots__ = _fields = ("samples", "seed", "box", "regular_count", "critical_values")

    def __init__(self, samples: int, seed: int,
                 box: tuple[tuple[Fraction, Fraction], ...], regular_count: int,
                 critical_values: tuple[tuple[Fraction, ...], ...]):
        _set(self, "samples", samples)
        _set(self, "seed", seed)
        _set(self, "box", box)
        _set(self, "regular_count", regular_count)
        _set(self, "critical_values", critical_values)

    @property
    def regular_fraction(self) -> Fraction:
        return Fraction(self.regular_count, self.samples)

    def to_jsonable(self) -> dict:
        return {
            "samples": self.samples,
            "seed": self.seed,
            "box": [[str(lo), str(hi)] for lo, hi in self.box],
            "regular_count": self.regular_count,
            "regular_fraction": str(self.regular_fraction),
            "critical_values": [[str(x) for x in v] for v in self.critical_values],
        }


def sampling_interval(lo: Fraction, hi: Fraction) -> tuple[float, float]:
    """The float ends of one ``sard_sample`` interval [lo, hi].

    Raises ValueError unless lo < hi and each end, as a float times
    SNAP_DENOMINATOR, is a finite float, so that every draw snaps to an
    integer numerator.
    """
    if not lo < hi:
        raise ValueError("empty interval")
    try:
        ends = float(lo), float(hi)
    except OverflowError:
        ends = math.inf, math.inf
    if not all(math.isfinite(e * SNAP_DENOMINATOR) for e in ends):
        raise ValueError("interval end times %d is not a finite float"
                         % SNAP_DENOMINATOR)
    return ends


def sard_sample(germ: MapGerm, box, samples: int, seed: int) -> SardReport:
    """Sample target points and classify each regular/critical exactly.

    Floats are used only to draw the samples.  Draws come from
    ``random.Random(seed).random()`` in sample-major order, k per sample for
    a target of dimension k; coordinate j of a sample is
    lo_j + (hi_j - lo_j) * random(), the same float as
    ``random.uniform(lo_j, hi_j)``.  Each coordinate is snapped to
    n / SNAP_DENOMINATOR with n = round(coordinate * SNAP_DENOMINATOR) and
    classified with exact arithmetic (empty preimages are regular by
    convention).

    A sample can only be critical when every constant coordinate snaps to
    its value or, with no constant coordinate, some coordinate snaps to a
    root of its critical-value polynomial.  Those grid critical values are
    found once, exactly, and turned into windows of integer draws by
    ``_draw_windows``; with none the sampler draws nothing.  Otherwise each
    chunk of SARD_CHUNK samples is one ``getrandbits`` integer, the words of
    the same ``random()`` calls, whose draws ``_lane_test`` compares with
    the windows all at once, building no float: a sample whose draws pass is
    snapped and goes through ``_classify_sample`` over Q, once per grid
    point, and every other sample is regular.  Deterministic per seed.
    Raises ValueError unless samples >= 1 and each interval passes
    ``sampling_interval``.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1, got %d" % samples)
    box = tuple((Fraction(lo), Fraction(hi)) for lo, hi in box)
    if len(box) != germ.target.dim:
        raise ValueError("box must give one interval per target coordinate")
    spans = [(lo, hi - lo) for lo, hi in (sampling_interval(*iv) for iv in box)]
    coords = _separable_coordinates(germ.lift)
    windows = [_draw_windows(coord, span) for coord, span in zip(coords, spans)]
    consts = [j for j, coord in enumerate(coords) if coord[0] == "const"]
    # with a constant coordinate a sample must hit all of their windows,
    # with none it must hit one window of some coordinate
    live = [j for j in consts or range(len(coords)) if windows[j]]
    if not live or len(live) < len(consts):
        return SardReport(samples=samples, seed=seed, box=box,
                          regular_count=samples, critical_values=())
    k = len(spans)
    regular_count = samples
    verdicts: dict[tuple[int, ...], tuple] = {}  # grid numerators: (point, regular)
    rng = random.Random(seed)
    test = _lane_test(min(SARD_CHUNK, samples), windows, live, bool(consts))
    for start in range(0, samples, SARD_CHUNK):
        m = min(SARD_CHUNK, samples - start)
        for draws in test(rng.getrandbits(64 * m * k), m):
            key = tuple(map(_snap, spans, draws))
            if key not in verdicts:
                p = tuple(Fraction(n, SNAP_DENOMINATOR) for n in key)
                verdicts[key] = p, _classify_sample(coords, p)
            regular_count -= not verdicts[key][1]
    return SardReport(
        samples=samples, seed=seed, box=box,
        regular_count=regular_count,
        critical_values=tuple(p for _, (p, regular) in sorted(verdicts.items())
                              if not regular),
    )


# ---------------------------------------------------------------------------
# lift replacement, re-centering, and pulling germs back through embeddings


class LiftReplacementReport(Record):
    __slots__ = _fields = ("eta_index", "kernels_equal", "n_unchanged", "companion")

    def __init__(self, eta_index: int, kernels_equal: bool, n_unchanged: bool,
                 companion: MapGerm):
        _set(self, "eta_index", eta_index)
        _set(self, "kernels_equal", kernels_equal)
        _set(self, "n_unchanged", n_unchanged)
        _set(self, "companion", companion)


def lift_replacement_invariance(germ: MapGerm, eta: Matrix) -> LiftReplacementReport:
    """Replace the lift by eta o lift, conjugate theta by eta, and compare.

    The companion is re-verified as a germ; the differential kernels at the
    base point and the homomorphism kernels must agree exactly.
    """
    ei = germ.target.group.index_of(eta)
    companion = build_germ(
        germ.source, germ.target,
        germ.lift.apply_matrix(eta),
        germ.theta.conjugated_by(eta),
        germ.base_point,
    )
    report = LiftReplacementReport(
        eta_index=ei,
        kernels_equal=germ.base_kernel == companion.base_kernel,
        n_unchanged=germ.n_group.members == companion.n_group.members,
        companion=companion,
    )
    if not report.kernels_equal:
        raise AssertionError("kernel changed under lift replacement")
    if not report.n_unchanged:
        raise AssertionError("homomorphism kernel changed under conjugation")
    return report


def recenter_germ(germ: MapGerm, point) -> MapGerm:
    """Translate coordinates so a preimage point becomes the chart center.

    The chart group shrinks to the isotropy group of the point, closed as a
    group of its own from the isotropy's generating set (Subgroup.generators,
    at most log2 of its order, or the identity when it is trivial) on the
    chart group's table (close_in); the lift is precomposed with the
    translation; a boundary flag survives only when the point lies on the
    boundary hyperplane.
    """
    pt = vec(point)
    iso = isotropy_at(germ.source, pt)
    new_group = close_in(germ.source.group, iso.generators or (0,))
    boundary = germ.source.boundary and germ.source.on_boundary(pt)
    new_chart = LocalChart(germ.source.dim, new_group, boundary)
    gen_images = [germ.theta.apply_matrix(g) for g in new_group.generators]
    new_theta = verify_homomorphism(new_group, germ.target.group, gen_images)
    ident = Matrix.identity(germ.source.dim)
    new_lift = germ.lift.compose_affine(ident, pt)
    return build_germ(new_chart, germ.target, new_lift, new_theta)


def pull_back_germ(germ: MapGerm, embedding: ChartEmbedding) -> MapGerm:
    """Precompose a germ with a verified chart embedding into its source."""
    if embedding.target is not germ.source:
        raise ValueError("embedding does not land in the germ's source chart")
    lift = germ.lift.compose_affine(embedding.linear, embedding.translate)
    mapping = tuple(germ.theta.apply(embedding.theta.apply(i))
                    for i in range(embedding.source.group.order))
    theta = GroupHom(embedding.source.group, germ.target.group, mapping)
    return build_germ(embedding.source, germ.target, lift, theta)
