import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import orblocal
from orblocal import groups

from orblocal.charts import LocalChart, pointwise_stabilizer, stratify, suborbifold_model
from orblocal.ratlin import (BudgetExceeded, Matrix, Subspace, kernel, kernel_image_rank,
                             restrict_to_subspace)
from orblocal.groups import (
    ClosureBoundExceeded,
    GroupHom,
    NotAHomomorphism,
    NotNormal,
    Subgroup,
    commutant,
    find_invariant_subspace,
    fixed_subspace,
    generate_closure,
    index2_subgroups,
    kernel_of,
    quotient,
    sign_characters,
    verify_homomorphism,
)


def m(rows):
    return Matrix(rows)


NEG1 = m([[-1]])
ROT3 = m([[0, -1], [1, -1]])
ROT4 = m([[0, -1], [1, 0]])
SWAP = m([[0, 1], [1, 0]])
FLIP_X = m([[-1, 0], [0, 1]])
FLIP_Y = m([[1, 0], [0, -1]])


def closure_sizes(monkeypatch):
    """A list that gets, each time a closure is about to add an element,
    the number of elements it holds; its last entry is where a closure that
    raised stopped."""
    sizes = []
    real = groups._closure

    def spy(one, generators, product, before_new=None, **kw):
        def before(elements, words):
            sizes.append(len(elements))
            if before_new is not None:
                before_new(elements, words)
        return real(one, generators, product, before, **kw)

    monkeypatch.setattr(groups, "_closure", spy)
    return sizes


def plus_i2(rows):
    """rows (+) the 2x2 identity: in dimension 4, where Minkowski's bound
    5760 lies past 256 elements."""
    n = len(rows)
    return m([list(r) + [0, 0] for r in rows]
             + [[0] * n + [int(i == j) for j in range(2)] for i in range(2)])


def z2_line():
    return generate_closure(1, [NEG1])


def z2z2():
    return generate_closure(2, [m([[-1, 0], [0, 1]]), m([[1, 0], [0, -1]])])


class TestClosure:
    def test_z2(self):
        g = z2_line()
        assert g.order == 2
        assert g.elements[0] == Matrix.identity(1)

    def test_z2z2(self):
        assert z2z2().order == 4

    def test_rot3(self):
        g = generate_closure(2, [ROT3])
        assert g.order == 3
        # cube of the generator is the identity
        assert ROT3 * ROT3 * ROT3 == Matrix.identity(2)

    def test_s3(self):
        assert generate_closure(2, [ROT3, SWAP]).order == 6

    def test_dihedral8(self):
        assert generate_closure(2, [ROT4, m([[1, 0], [0, -1]])]).order == 8

    def test_noninvertible_rejected(self):
        with pytest.raises(ValueError):
            generate_closure(2, [m([[1, 0], [1, 0]])])

    def test_bound_exceeded(self):
        shear = m([[1, 1], [0, 1]])  # infinite order
        with pytest.raises(ClosureBoundExceeded) as exc:
            generate_closure(2, [shear], max_order=64)
        assert isinstance(exc.value, BudgetExceeded)

    @pytest.mark.parametrize("gen", [
        [[1, 1], [0, 1]],  # a shear: charpoly (x - 1)^2, but g - I != 0
        [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, -1]],  # shear in dimension 4
        [[2, 0], [0, -1]],  # det -2, trace 1, charpoly (x - 2)(x + 1)
        [[2, 1], [1, 1]],  # det 1, integral and squarefree charpoly, trace 3 > 2
        [[0, F(1, 2)], [-2, F(1, 2)]],  # det 1, trace 1/2: charpoly not integral
    ])
    def test_infinite_order_fails_fast(self, gen):
        """Each of the four tests alone proves one generator infinite, so the
        closure stops at 256 elements at the latest (at Minkowski's bound 24
        in dimension 2), not at the order bound, with the bound's message."""
        g = m(gen)
        assert groups._has_infinite_order(g)
        start = time.perf_counter()
        with pytest.raises(ClosureBoundExceeded, match="^closure exceeded 10000 elements$"):
            generate_closure(g.rows, [g])
        assert time.perf_counter() - start < 0.1

    def test_generators_tested_once_at_256_elements(self, monkeypatch):
        """The test runs once per closure, when it reaches 256 elements, on
        the generators and the products of two: the shear (+) I2 stops there
        under a bound of 1000, a group of order 384 (the signed permutations
        of 4 coordinates, rationally conjugated) tests its three generators
        and their products of two and closes, and a small group never tests."""
        seen = []
        real = groups._has_infinite_order
        monkeypatch.setattr(groups, "_has_infinite_order", lambda g: seen.append(g) or real(g))
        with pytest.raises(ClosureBoundExceeded, match="^closure exceeded 1000 elements$"):
            generate_closure(4, [plus_i2([[1, 1], [0, 1]])], max_order=1000)
        assert len(seen) == 1
        seen.clear()
        g = b4_conjugate()
        assert g.order == 384
        assert seen == [e for e, w in zip(g.elements, g.words) if 0 < len(w) <= 2]
        assert len(seen) == 3 + 7  # the transposition and the flip square to 1
        assert not any(real(e) for e in g.elements)
        seen.clear()
        assert generate_closure(2, [ROT4, FLIP_X]).order == 8 and seen == []

    def test_infinite_group_of_finite_order_generators_hits_the_bound(self, monkeypatch):
        """Two reflections (+) I2 whose product is a shear (+) I2 generate an
        infinite group; each has finite order, but the shear, a product of
        two generators, is tested at 256 elements and stops the closure
        there with the message of the order bound, not at 10,000."""
        sizes = closure_sizes(monkeypatch)
        with pytest.raises(ClosureBoundExceeded, match="^closure exceeded 10000 elements$"):
            generate_closure(4, [plus_i2([[-1, 0], [0, 1]]), plus_i2([[-1, 1], [0, 1]])])
        assert sizes[-1] == 256

    def test_minkowski_bound(self):
        assert [groups._minkowski_bound(n) for n in range(7)] == [
            1, 2, 24, 48, 5760, 11520, 2903040]

    def test_affine_reflections_stop_at_the_minkowski_bound(self, monkeypatch):
        """The simple reflections s_i(a_j) = a_j - A_ij a_i of the affine
        Cartan matrix of type A2 (2 on the diagonal, -1 off it) generate the
        infinite affine Weyl group, though every word of length at most 2
        has order 1, 2 or 3.  A finite group in GL_3(Q) has order dividing
        48, so the closure stops before its 49th element."""
        cartan = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
        gens = [m([[int(k == j) - cartan[i][j] * (k == i) for j in range(3)]
                   for k in range(3)]) for i in range(3)]
        assert all(g * g == Matrix.identity(3) for g in gens)
        sizes = closure_sizes(monkeypatch)
        start = time.perf_counter()
        with pytest.raises(ClosureBoundExceeded, match="^closure exceeded 10000 elements$"):
            generate_closure(3, gens)
        assert sizes[-1] == 48
        assert time.perf_counter() - start < 0.1

    def test_closure_multiplies_no_matrices(self, monkeypatch):
        """The closure multiplies integer keys, not Matrix objects, and
        gives the elements, words and table of a Matrix closure."""
        gens = b3_conjugate().generators
        products = []
        real = Matrix.__mul__
        monkeypatch.setattr(Matrix, "__mul__", lambda a, b: products.append(1) or real(a, b))
        g = generate_closure(3, list(gens))
        assert g.order == 48 and products == []
        monkeypatch.undo()
        assert (list(g.elements), list(g.words), list(g.right),
                g.generator_indices) == closure_by_products(3, gens)

    def test_idempotence(self):
        g = generate_closure(2, [ROT3, SWAP])
        again = generate_closure(2, list(g.elements))
        assert set(again.elements) == set(g.elements)

    def test_deterministic_order(self):
        g1 = generate_closure(2, [ROT3, SWAP])
        g2 = generate_closure(2, [ROT3, SWAP])
        assert g1.elements == g2.elements

    def test_inverses_present(self):
        g = generate_closure(2, [ROT3, SWAP])
        for i in range(g.order):
            assert g.mul(i, g.inv(i)) == 0

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_matches_product_reference_on_rational_conjugates(self, data):
        """Products read off the table give the elements, words, table and
        generator indices of forming every product, also when a generator
        is the identity, repeats an earlier one or is a product of two."""
        b3 = generate_closure(3, B3_GENS)
        gens = [b3.element(i) for i in data.draw(
            st.lists(st.integers(1, b3.order - 1), min_size=1, max_size=3))]
        for kind in data.draw(st.lists(st.sampled_from(["identity", "repeat", "product"]),
                                       max_size=3)):
            if kind == "identity":
                extra = Matrix.identity(3)
            elif kind == "repeat":
                extra = data.draw(st.sampled_from(gens))
            else:
                extra = data.draw(st.sampled_from(gens)) * data.draw(st.sampled_from(gens))
            gens.insert(data.draw(st.integers(0, len(gens))), extra)
        entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)
        p = data.draw(st.lists(st.lists(entries, min_size=3, max_size=3),
                               min_size=3, max_size=3).map(m).filter(
                                   lambda a: a.rank() == a.rows))
        gens = conjugated(p, gens)
        g = generate_closure(3, gens)
        assert (list(g.elements), list(g.words), list(g.right),
                g.generator_indices) == closure_by_products(3, gens)

    def test_b3_conjugate_forms_fewer_products(self, monkeypatch):
        """Forming every product e s of the B3 conjugate takes 48 * 3 = 144
        products; reading e s = p (t s) off the filled rows leaves 111, and
        taking the identity's row as the generators themselves leaves 108.
        A cyclic closure forms one product per element but the identity."""
        products = []
        real = groups._times
        monkeypatch.setattr(groups, "_times", lambda e, g: products.append(1) or real(e, g))
        assert b3_conjugate().order == 48 and len(products) == 108
        products.clear()
        assert generate_closure(2, [ROT3]).order == 3 and len(products) == 2


def closure_by_products(dim, gens):
    """Reference: breadth-first closure that multiplies every element by
    every generator, as (elements, words, right, generator indices)."""
    one = Matrix.identity(dim)
    elements, words, right, index = [one], [()], [], {one: 0}
    for i, e in enumerate(elements):
        row = []
        for s, g in enumerate(gens):
            prod = e * g
            if prod not in index:
                index[prod] = len(elements)
                elements.append(prod)
                words.append(words[i] + (s,))
            row.append(index[prod])
        right.append(tuple(row))
    return elements, words, right, tuple(index[g] for g in gens)


class TestSubgroups:
    def test_closed_required(self):
        g = generate_closure(2, [ROT3])
        with pytest.raises(ValueError):
            Subgroup(g, (0, 1))  # not closed: missing the square

    def test_full_subgroup_checked_once_per_group(self, monkeypatch):
        checks = []
        check = Subgroup.__post_init__
        monkeypatch.setattr(Subgroup, "__post_init__",
                            lambda h: checks.append(h.parent) or check(h))
        grp = b3_conjugate()
        full = grp.full_subgroup()
        assert grp.full_subgroup() is full and len(checks) == 1
        assert full.members == tuple(range(48)) and full.is_full()
        other = generate_closure(2, [ROT3])
        assert other.full_subgroup() is not full and checks == [grp, other]

    def test_lagrange_all_subgroups(self):
        for grp in (z2z2(), generate_closure(2, [ROT3, SWAP]),
                    generate_closure(2, [ROT4, m([[1, 0], [0, -1]])])):
            subs = [Subgroup(grp, h) for h in subgroups_by_joins(grp)]
            for s in subs:
                assert grp.order % s.order == 0
            orders = sorted(s.order for s in subs)
            assert orders[0] == 1 and orders[-1] == grp.order

    def test_s3_subgroup_count(self):
        # S3: trivial, three order-2, one order-3, full
        grp = generate_closure(2, [ROT3, SWAP])
        subs = [Subgroup(grp, h) for h in subgroups_by_joins(grp)]
        assert sorted(s.order for s in subs) == [1, 2, 2, 2, 3, 6]

    def test_stratify_matches_subgroup_enumeration(self):
        s3 = generate_closure(2, [ROT3, SWAP])
        d4 = generate_closure(2, [ROT4, m([[1, 0], [0, -1]])])
        # Z2^2 on R^3: its fixed space 0 is fixed by no single element
        z2z2_r3 = generate_closure(3, [m([[-1, 0, 0], [0, 1, 0], [0, 0, -1]]),
                                       m([[1, 0, 0], [0, -1, 0], [0, 0, -1]])])
        for grp in (s3, z2z2(), d4, b3_conjugate(), z2z2_r3):
            subgroups = subgroups_by_joins(grp)
            got = {(s.fixed_space, s.isotropy.members)
                   for s in stratify(LocalChart(grp.dim, grp)).strata}
            want = set()
            for h in subgroups:
                space = fixed_subspace(Subgroup(grp, h))
                want.add((space, pointwise_stabilizer(grp, space).members))
            assert got == want


def subgroups_by_joins(grp):
    """Every subgroup, as a sorted member tuple: the closure of the trivial
    subgroup under joins with cyclic subgroups (a reference for stratify)."""

    def generated(gens):
        members, frontier = {0}, [0]
        while frontier:
            frontier = sorted({grp.mul(a, g) for a in frontier for g in gens}
                              - members)
            members.update(frontier)
        return tuple(sorted(members))

    gens_of = {(0,): ()}
    queue = [(0,)]
    for h in queue:
        for g in range(grp.order):
            if g not in h:
                joined = generated(gens_of[h] + (g,))
                if joined not in gens_of:
                    gens_of[joined] = gens_of[h] + (g,)
                    queue.append(joined)
    return list(gens_of)


B3_GENS = [m([[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
           m([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
           m([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])]


def conjugated(p, gens):
    pinv = p.inverse()
    return [p * g * pinv for g in gens]


def b3_conjugate():
    """The signed permutations of three coordinates (order 48), conjugated
    by a rational matrix so that elements have denominators."""
    p = m([[1, F(1, 2), 0], [0, 1, F(-1, 3)], [2, 0, 1]])
    return generate_closure(3, conjugated(p, B3_GENS))


def b4_conjugate():
    """The signed permutations of four coordinates (order 384), conjugated
    by a rational matrix."""
    p = m([[1, F(1, 2), 0, 0], [0, 1, F(-1, 3), 0], [0, 0, 1, F(1, 2)], [2, 0, 0, 1]])
    return generate_closure(4, conjugated(p, [m(g) for g in (
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
        [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])]))


def dim4_conjugate(gens):
    """The group of integer 4 x 4 generators, conjugated by a rational
    matrix so that elements have denominators."""
    p = m([[1, F(1, 2), 0, 0], [0, 1, F(-1, 3), 0], [0, 0, 1, 2], [F(1, 5), 0, 0, 1]])
    return generate_closure(4, conjugated(p, [m(g) for g in gens]))


def s4_conjugate():
    """The permutation matrices of four coordinates (order 24), conjugated."""
    return dim4_conjugate([[[int(j == (i - 1) % 4) for j in range(4)] for i in range(4)],
                           [[int(j == (1 - i if i < 2 else i)) for j in range(4)]
                            for i in range(4)]])


def d12_conjugate():
    """D12, of order 24, acting on Q(zeta_12) by multiplication with zeta
    and by complex conjugation, conjugated."""
    return dim4_conjugate([[[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0]],
                           [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, -1, 0, -1]]])


CONJUGATES = {"b3": b3_conjugate, "s4": s4_conjugate, "d12": d12_conjugate}


class TestClosureElements:
    """The elements the closure keeps, and the index that finds them."""

    @pytest.mark.parametrize("name", CONJUGATES)
    def test_kept_elements_are_in_lowest_terms(self, name):
        """Each element is made straight from the key the closure keeps; it
        is the same matrix, with the same hash and the same integers, as
        the one Matrix._make brings to lowest terms."""
        g = CONJUGATES[name]()
        assert g.order == {"b3": 48, "s4": 24, "d12": 24}[name]
        for e in g.elements:
            made = Matrix._make(e._num, e._den, e.cols)
            assert e == made and hash(e) == hash(made)
            assert (e._num, e._den, e.rows, e.cols) == (made._num, made._den,
                                                         made.rows, made.cols)

    @pytest.mark.parametrize("name", CONJUGATES)
    def test_index_of_finds_every_element(self, name):
        g = CONJUGATES[name]()
        assert "index" not in vars(g)  # built on the first lookup
        for i, e in enumerate(g.elements):
            assert g.index_of(e) == i
            assert g.index_of(Matrix(e.entries)) == i
        assert len(g.index) == g.order

    @pytest.mark.parametrize("name", CONJUGATES)
    def test_index_of_rejects_a_non_member(self, name):
        """Twice the identity, half an element and a shear (of infinite
        order) lie in no finite group of the conjugate's."""
        g = CONJUGATES[name]()
        n = g.dim
        shear = m([[int(i == j or (i, j) == (0, 1)) for j in range(n)] for i in range(n)])
        for outside in (Matrix.identity(n).scale(2), g.element(1).scale(F(1, 2)), shear):
            with pytest.raises(ValueError, match="^matrix is not an element of this group$"):
                g.index_of(outside)


def closed_by_pairs(grp, members):
    """The all-pairs closure check: the identity and every (member, member)
    product lie in the member set."""
    ms = set(members)
    return 0 in ms and all(grp.mul(a, b) in ms for a in members for b in members)


def builds(grp, members):
    try:
        Subgroup(grp, members)
    except ValueError as e:
        assert "closed" in str(e) or "identity" in str(e)
        return False
    return True


@pytest.fixture(scope="module", params=["d4", "b3-conjugate"])
def closure_group(request):
    if request.param == "d4":
        return generate_closure(2, [ROT4, FLIP_Y])
    return b3_conjugate()


class TestSubgroupClosureCheck:
    def test_every_subgroup_builds(self, closure_group):
        grp = closure_group
        for h in subgroups_by_joins(grp):
            assert closed_by_pairs(grp, h)
            assert Subgroup(grp, h).members == h

    def test_removing_a_member_breaks_closure(self, closure_group):
        grp = closure_group
        for h in subgroups_by_joins(grp):
            if len(h) < 3:
                continue
            for x in h[1:]:
                smaller = tuple(y for y in h if y != x)
                assert not closed_by_pairs(grp, smaller)
                with pytest.raises(ValueError, match="not closed under product"):
                    Subgroup(grp, smaller)

    def test_adding_an_outside_element(self, closure_group):
        grp = closure_group
        for h in subgroups_by_joins(grp):
            for x in range(grp.order):
                if x in h:
                    continue
                larger = tuple(sorted(h + (x,)))
                closed = closed_by_pairs(grp, larger)
                # only {1, x} with x of order 2 is a subgroup of order |H| + 1
                assert closed == (h == (0,) and grp.mul(x, x) == 0)
                assert builds(grp, larger) == closed

    def test_products_of_cyclic_subgroups(self, closure_group):
        # <a><b> is a subgroup only when it equals <a, b>; the other product
        # sets are closed under most of the products a check can try
        grp = closure_group
        cyclic = {}
        for a in range(grp.order):
            powers, x = [0], a
            while x != 0:
                powers.append(x)
                x = grp.mul(x, a)
            cyclic[a] = powers
        for a in range(grp.order):
            for b in range(grp.order):
                product = tuple(sorted({grp.mul(x, y) for x in cyclic[a] for y in cyclic[b]}))
                assert builds(grp, product) == closed_by_pairs(grp, product)


@pytest.fixture(scope="module",
                params=["s3", "d4", "b3-conjugate", "repeated-generator",
                        "identity-generator"])
def product_group(request):
    return {
        "s3": lambda: generate_closure(2, [ROT3, SWAP]),
        "d4": lambda: generate_closure(2, [ROT4, FLIP_Y]),
        "b3-conjugate": b3_conjugate,
        "repeated-generator": lambda: generate_closure(2, [ROT4, FLIP_Y, ROT4]),
        "identity-generator": lambda: generate_closure(
            2, [ROT3, Matrix.identity(2), SWAP]),
    }[request.param]()


class TestProductTable:
    def test_mul_matches_matrix_product(self, product_group):
        grp = product_group
        for i in range(grp.order):
            for j in range(grp.order):
                assert grp.element(grp.mul(i, j)) == grp.element(i) * grp.element(j)

    def test_no_matrix_product_after_closure(self, product_group, monkeypatch):
        grp = product_group

        def refuse(self, other):
            raise AssertionError("matrix product after closure")

        monkeypatch.setattr(Matrix, "__mul__", refuse)
        for i in range(grp.order):
            assert grp.mul(i, grp.inv(i)) == 0
        assert grp.full_subgroup().is_normal()
        assert quotient(grp.full_subgroup(), Subgroup(grp, (0,))).order == grp.order
        for s in index2_subgroups(grp):
            assert quotient(grp.full_subgroup(), s).order == 2


def normal_by_pairs(grp, members):
    """The all-pairs normality check: g h g^-1 lies in H for every element g
    of the parent and every member h."""
    ms = set(members)
    for g in range(grp.order):
        g_inv = grp.index_of(grp.element(g).inverse())
        if any(grp.mul(grp.mul(g, h), g_inv) not in ms for h in members):
            return False
    return True


class TestNormality:
    @pytest.mark.parametrize("make", [
        lambda: generate_closure(2, [ROT4, FLIP_Y]),
        lambda: generate_closure(2, [ROT3, SWAP]),
        b3_conjugate,
    ], ids=["d4", "s3", "b3-conjugate"])
    def test_matches_all_pairs_reference(self, make):
        grp = make()
        verdicts = []
        for h in subgroups_by_joins(grp):
            normal = normal_by_pairs(grp, h)
            assert Subgroup(grp, h).is_normal() == normal
            verdicts.append(normal)
        assert True in verdicts and False in verdicts

    def test_generating_set_kept_outside_equality(self, product_group):
        grp = product_group
        for h in subgroups_by_joins(grp):
            sub = Subgroup(grp, h)
            gens = sub.generators
            assert len(gens) <= sub.order.bit_length() - 1
            reached, frontier = {0}, [0]
            while frontier:
                frontier = [b for b in {grp.mul(a, s) for a in frontier for s in gens}
                            if b not in reached]
                reached.update(frontier)
            assert tuple(sorted(reached)) == h
            assert sub == Subgroup(grp, h) and hash(sub) == hash(Subgroup(grp, h))
            assert "generators" not in repr(sub)

    def test_kernel_of_rejects_non_normal_kernel(self):
        # an unverified map of S3 onto Z2 whose kernel is one reflection's
        # subgroup: an explicit raise, not an assert that -O would remove
        s3 = generate_closure(2, [ROT3, SWAP])
        swap = s3.index_of(SWAP)
        mapping = tuple(0 if i in (0, swap) else 1 for i in range(s3.order))
        with pytest.raises(NotNormal):
            kernel_of(GroupHom(s3, z2_line(), mapping))


class TestHomomorphisms:
    def test_identity_hom(self):
        g = z2_line()
        h = verify_homomorphism(g, g, [NEG1])
        assert h.is_injective() and set(h.mapping) == set(range(g.order))

    def test_z4_to_z2(self):
        z4 = generate_closure(2, [ROT4])
        z2 = z2_line()
        h = verify_homomorphism(z4, z2, [NEG1])
        k = kernel_of(h)
        assert k.order == 2
        assert z4.element(max(k.members)) == m([[-1, 0], [0, -1]])

    def test_z3_to_z2_rejected(self):
        z3 = generate_closure(2, [ROT3])
        z2 = z2_line()
        with pytest.raises(NotAHomomorphism) as exc:
            verify_homomorphism(z3, z2, [NEG1])
        assert exc.value.witness is not None

    def test_s3_witness_breaks_multiplicativity(self):
        s3 = generate_closure(2, [ROT3, SWAP])
        z2 = z2_line()
        with pytest.raises(NotAHomomorphism) as exc:
            verify_homomorphism(s3, z2, [NEG1, Matrix.identity(1)])
        a, j = exc.value.witness
        s = s3.generator_indices[j]
        phi = {}  # the extension along the words, as verify_homomorphism builds it
        for i, word in enumerate(s3.words):
            cur = Matrix.identity(1)
            for gi in word:
                cur = cur * [NEG1, Matrix.identity(1)][gi]
            phi[i] = cur
        assert phi[s3.mul(a, s)] != phi[a] * phi[s]

    def test_kernel_trivial_for_identity(self):
        g = z2_line()
        h = verify_homomorphism(g, g, [NEG1])
        assert kernel_of(h).is_trivial()

    def test_kernel_full_for_trivial_target(self):
        g = z2z2()
        triv = generate_closure(2, [])
        h = verify_homomorphism(g, triv, [Matrix.identity(2)] * 2)
        assert kernel_of(h).order == g.order

    def test_kernel_conjugation_invariant(self):
        z4 = generate_closure(2, [ROT4])
        z2 = z2_line()
        h = verify_homomorphism(z4, z2, [NEG1])
        for eta in z2.elements:
            assert kernel_of(h.conjugated_by(eta)).members == kernel_of(h).members


class TestQuotients:
    def test_z2z2_mod_diagonal(self):
        g = z2z2()
        diag = Subgroup(g, (0, g.index_of(m([[-1, 0], [0, -1]]))))
        q = quotient(g.full_subgroup(), diag)
        assert q.order == 2

    def test_mod_trivial(self):
        g = generate_closure(2, [ROT3])
        q = quotient(g.full_subgroup(), Subgroup(g, (0,)))
        assert q.order == g.order

    def test_mod_full(self):
        g = generate_closure(2, [ROT3])
        assert quotient(g.full_subgroup(), g.full_subgroup()).is_trivial()

    def test_non_normal_rejected(self):
        s3 = generate_closure(2, [ROT3, SWAP])
        reflection = Subgroup(s3, (0, s3.index_of(SWAP)))
        assert not reflection.is_normal()
        with pytest.raises(NotNormal):
            quotient(s3.full_subgroup(), reflection)

    def test_coset_product_representative_independent(self):
        g = generate_closure(2, [ROT3, SWAP])
        n = Subgroup(g, tuple(sorted(
            [0, g.index_of(ROT3), g.index_of(ROT3 * ROT3)])))
        q = quotient(g.full_subgroup(), n)
        for a, ca in enumerate(q.cosets):
            for b, cb in enumerate(q.cosets):
                expect = q.coset_of(g.mul(q.representative(a), q.representative(b)))
                for ra in ca:
                    for rb in cb:
                        assert q.coset_of(g.mul(ra, rb)) == expect

    def test_normal_in_subgroup_not_in_parent(self):
        # in D4, a reflection's subgroup is normal in the Klein four-group
        # of diagonal signs but not in D4, where ROT4 conjugates it away
        d4 = generate_closure(2, [ROT4, FLIP_Y])
        klein = Subgroup(d4, tuple(sorted(d4.index_of(x) for x in (
            Matrix.identity(2), -Matrix.identity(2), FLIP_X, FLIP_Y))))
        omega = Subgroup(d4, (0, d4.index_of(FLIP_Y)))
        q = quotient(klein, omega)
        assert q.order == 2
        assert all(q.representative(c) in klein.members for c in range(q.order))
        with pytest.raises(NotNormal):
            quotient(d4.full_subgroup(), omega)
        with pytest.raises(ValueError):
            q.coset_of(d4.index_of(ROT4))
        with pytest.raises(ValueError, match="does not lie in"):
            quotient(omega, klein)

    def test_intrinsic_isotropy_of_every_invariant_stratum(self, closure_group):
        # every subgroup Lambda and every Lambda-invariant stratum space S:
        # Lambda / Omega is split in the parent's indices and acts on S
        # effectively
        grp = closure_group
        chart = LocalChart(grp.dim, grp)
        spaces = [s.fixed_space for s in stratify(chart).strata]
        for h in subgroups_by_joins(grp):
            lam = Subgroup(grp, h)
            for space in spaces:
                if not all(space.is_invariant_under(grp.element(i)) for i in h):
                    continue
                model = suborbifold_model(chart, space, lam)
                intr = model.intrinsic_isotropy
                assert intr.order == lam.order // model.omega.order
                assert all(intr.representative(c) in h for c in range(intr.order))
                for c in range(1, intr.order):
                    action = restrict_to_subspace(grp.element(intr.representative(c)), space)
                    assert action != Matrix.identity(space.dim)


class TestFixedSubspaces:
    def test_trivial_subgroup_fixes_everything(self):
        g = z2z2()
        assert fixed_subspace(Subgroup(g, (0,))).is_full()

    def test_reflection_axis(self):
        g = generate_closure(2, [m([[1, 0], [0, -1]])])
        assert fixed_subspace(g.full_subgroup()) == Subspace.from_vectors(2, [[1, 0]])

    def test_point_reflection_origin_only(self):
        g = generate_closure(2, [m([[-1, 0], [0, -1]])])
        assert fixed_subspace(g.full_subgroup()).is_zero()


class TestCommutant:
    def test_trivial_group_full_algebra(self):
        g = generate_closure(2, [])
        assert len(commutant(g)) == 4

    def test_rotation_by_90(self):
        g = generate_closure(2, [ROT4])
        basis = commutant(g)
        assert len(basis) == 2
        for b in basis:
            for el in g.elements:
                assert b * el == el * b

    def test_s3_schur(self):
        basis = commutant(generate_closure(2, [ROT3, SWAP]))
        assert len(basis) == 1

    def test_commutes_with_all_elements(self):
        rng = random.Random(13)
        for gens in ([ROT3], [ROT4], [ROT3, SWAP]):
            g = generate_closure(2, gens)
            for b in commutant(g):
                for el in g.elements:
                    assert b * el == el * b

    @pytest.mark.parametrize("make", [
        lambda: generate_closure(2, []), lambda: generate_closure(2, [ROT4]),
        lambda: generate_closure(2, [ROT3, SWAP]), b3_conjugate, b4_conjugate])
    def test_commutant_matches_fraction_reference(self, make):
        g = make()
        assert commutant(g) == intertwiners_by_fractions(g, g.element)

    def test_intertwiners_into_another_group_match_fraction_reference(self):
        # the permutation representation of S3, conjugated, into its 2-dimensional
        # irreducible one (once) and into the sign character (not at all)
        p = m([[1, F(1, 2), 0], [0, 1, F(-1, 3)], [2, 0, 1]])
        src = generate_closure(3, conjugated(p, [m([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
                                                 m([[0, 1, 0], [1, 0, 0], [0, 0, 1]])]))
        for images, dim in (([ROT3, SWAP], 1), ([m([[1]]), m([[-1]])], 0)):
            tgt = generate_closure(images[0].rows, images)
            hom = verify_homomorphism(src, tgt, images)
            image = lambda a: tgt.element(hom.apply(a))
            basis = groups.intertwiners(src, image)
            assert len(basis) == dim
            assert basis == intertwiners_by_fractions(src, image)


def intertwiners_by_fractions(g, image):
    """Reference: the stacked system (L a - image(a) L)[i][j] = 0 over the
    generators, on Fraction rows, and the rows of its kernel's basis."""
    n = g.dim
    k = image(0).rows
    rows = []
    for gi in g.generator_indices or (0,):
        a, b = g.element(gi).entries, image(gi).entries
        for i in range(k):
            for j in range(n):
                row = [F(0)] * (k * n)
                for c in range(n):
                    row[i * n + c] += a[c][j]
                for c in range(k):
                    row[c * n + j] -= b[i][c]
                rows.append(row)
    return [Matrix([v[i * n:(i + 1) * n] for i in range(k)])
            for v in kernel(Matrix(rows)).basis]


class TestInvariantSubspaces:
    def test_scalar_group_any_line(self):
        g = generate_closure(2, [m([[-1, 0], [0, -1]])])
        res = find_invariant_subspace(g, 1)
        assert res.found
        assert res.subspace == Subspace.from_vectors(2, [[1, 0]])

    def test_rotation3_certified_none(self):
        g = generate_closure(2, [ROT3])
        res = find_invariant_subspace(g, 1)
        assert res.status == "certified_none"

    def test_diag_eigenline(self):
        g = generate_closure(2, [m([[1, 0], [0, -1]])])
        res = find_invariant_subspace(g, 1)
        assert res.found
        assert res.subspace.dim == 1

    def test_found_subspaces_are_invariant(self):
        for gens, d in (([m([[1, 0], [0, -1]])], 1),
                        ([m([[0, 0, 1], [1, 0, 0], [0, 1, 0]])], 1),
                        ([m([[0, 0, 1], [1, 0, 0], [0, 1, 0]])], 2)):
            g = generate_closure(len(gens[0].entries), gens)
            res = find_invariant_subspace(g, d)
            assert res.found
            for el in g.elements:
                assert res.subspace.is_invariant_under(el)

    def test_cycle3_invariant_plane(self):
        g = generate_closure(3, [m([[0, 0, 1], [1, 0, 0], [0, 1, 0]])])
        res = find_invariant_subspace(g, 2)
        assert res.found
        # the plane x+y+z = 0
        assert res.subspace == Subspace.from_vectors(3, [[1, 0, -1], [0, 1, -1]])

    def test_dim_out_of_range(self):
        g = z2z2()
        with pytest.raises(ValueError):
            find_invariant_subspace(g, 2)

    def test_quaternion_style_middle_dim(self):
        # rot4 x rot4 block action on R^4: invariant planes exist
        blocks = Matrix([[0, -1, 0, 0], [1, 0, 0, 0],
                         [0, 0, 0, -1], [0, 0, 1, 0]])
        g = generate_closure(4, [blocks])
        res = find_invariant_subspace(g, 2)
        assert res.found
        for el in g.elements:
            assert res.subspace.is_invariant_under(el)

    def test_x4_plus_1_gets_no_certificate(self):
        # x^4 + 1 is irreducible over Q but is the product of two real
        # quadratics, so real invariant planes exist; a Q-irreducible action
        # must not be certified real-irreducible
        companion = m([[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
        g = generate_closure(4, [companion])
        assert g.order == 8
        res = find_invariant_subspace(g, 2)
        assert res.status == "none_found"


def reynolds(grp, chi):
    """The Reynolds projector R_chi = (1/|G|) sum chi(g) g over every
    element, onto the chi-eigenspace of the group."""
    acc = Matrix.zero(grp.dim, grp.dim)
    for c, e in zip(chi, grp.elements):
        acc = acc + e.scale(c)
    return acc.scale(F(1, grp.order))


def reference_sign_search(grp, d):
    """The dimension-1 and n-1 search with every R_chi built and tested for
    zero, as (status, subspace): a line is in the column space of the first
    nonzero R_chi, and a hyperplane is the kernel of a vector of its row
    space."""
    n = grp.dim
    r = next((p for p in (reynolds(grp, chi) for chi in sign_characters(grp))
              if not p.is_zero()), None)
    if r is None:
        return "certified_none", None
    if d == 1:
        return "found", Subspace.from_vectors(n, Subspace.column_space(r).basis[:1])
    return "found", kernel(Matrix(Subspace.row_space(r).basis[:1]))


class TestSignPatternTraces:
    """find_invariant_subspace in dimensions 1 and n-1 against the
    reference that builds every projector."""

    @pytest.mark.parametrize("make", [
        z2z2, lambda: generate_closure(2, [ROT3]), lambda: generate_closure(2, [ROT3, SWAP]),
        lambda: generate_closure(2, [ROT4, FLIP_Y]), lambda: generate_closure(2, []),
        lambda: generate_closure(3, [m([[0, 0, 1], [1, 0, 0], [0, 1, 0]])]),
        lambda: generate_closure(3, [m([[-1, 0, 0], [0, -1, 0], [0, 0, 1]]),
                                     m([[0, 1, 0], [1, 0, 0], [0, 0, -1]])]),
        b3_conjugate])
    def test_matches_projector_reference(self, make):
        grp = make()
        for d in sorted({1, grp.dim - 1}):
            res = find_invariant_subspace(grp, d)
            assert (res.status, res.subspace) == reference_sign_search(grp, d)

    def test_checks_raise_under_optimize(self):
        # python -O strips asserts; the invariance and coset-count checks
        # must still fire
        script = "\n".join([
            "import sys",
            "from orblocal import groups",
            "from orblocal.ratlin import Matrix, Subspace",
            "g = groups.generate_closure(2, [Matrix([[1, 0], [0, -1]])])",
            "Subspace.is_invariant_under = lambda self, m: False",
            "try:",
            "    groups.find_invariant_subspace(g, 1)",
            "except AssertionError as e:",
            "    print(sys.flags.optimize, e)",
            "h, n = g.full_subgroup(), g.full_subgroup()",
            "groups.Subgroup.is_normalized_by = lambda self, elements: True",
            "g.mul = lambda i, j: i",
            "try:",
            "    groups.quotient(h, n)",
            "except AssertionError as e:",
            "    print(sys.flags.optimize, e)",
        ])
        src = os.path.dirname(os.path.dirname(os.path.abspath(orblocal.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == [
            "1 the sign-pattern line is not invariant under the group",
            "1 2 cosets of a subgroup of order 2 do not fill a group of order 2"]


class TestIndexTwo:
    def test_z2(self):
        g = z2_line()
        subs = index2_subgroups(g)
        assert len(subs) == 1 and subs[0].is_trivial()

    def test_z3_none(self):
        assert index2_subgroups(generate_closure(2, [ROT3])) == []

    def test_z2z2_three(self):
        subs = index2_subgroups(z2z2())
        assert len(subs) == 3
        assert all(s.order == 2 for s in subs)

    def test_s3_one(self):
        subs = index2_subgroups(generate_closure(2, [ROT3, SWAP]))
        assert len(subs) == 1 and subs[0].order == 3

    def test_kernels_have_index_two(self):
        for gens in ([NEG1], [ROT4], [ROT4, m([[1, 0], [0, -1]])]):
            g = generate_closure(len(gens[0].entries), gens)
            for s in index2_subgroups(g):
                assert g.order == 2 * s.order
                assert s.is_normal()


def sign_characters_by_pairs(g):
    """Reference: every generator sign assignment in binary order, extended
    along the words and kept once if multiplicative on every pair."""
    k = len(g.generator_indices)
    out = []
    for bits in range(1 << k):
        chi = []
        for word in g.words:
            s = 1
            for gi in word:
                s *= -1 if (bits >> gi) & 1 else 1
            chi.append(s)
        chi = tuple(chi)
        if chi not in out and all(chi[g.mul(a, b)] == chi[a] * chi[b]
                                  for a in range(g.order)
                                  for b in range(g.order)):
            out.append(chi)
    return out


def fixed_by_kernels(h):
    """Reference: the intersection of the kernels of h - I over h."""
    n = h.parent.dim
    space = Subspace.full(n)
    for i in h.members:
        ker, _, _ = kernel_image_rank(h.parent.element(i) - Matrix.identity(n))
        space = space.intersect(ker)
    return space


class TestReynolds:
    """Sign characters, fixed spaces and the sign-eigenspace searches
    against references that multiply every pair or sum every element."""

    def test_sign_characters_match_pairwise_reference(self):
        groups = (generate_closure(2, [ROT4, FLIP_Y]),
                  generate_closure(2, [ROT3, SWAP]),
                  b3_conjugate(),
                  generate_closure(2, [FLIP_X, FLIP_Y, FLIP_X]),
                  generate_closure(2, [Matrix.identity(2), FLIP_X, FLIP_Y]))
        for g in groups:
            chars = sign_characters(g)
            assert chars == sign_characters_by_pairs(g)
            assert chars[0] == (1,) * g.order

    @pytest.mark.parametrize("gens", [
        [FLIP_X, Matrix.identity(2), FLIP_Y, FLIP_X],
        [ROT4, FLIP_Y, ROT4 * FLIP_Y, Matrix.identity(2)],
        [ROT3, SWAP, ROT3, SWAP * ROT3],
        [Matrix.identity(2)] * 4])
    def test_sign_characters_with_four_generators(self, gens):
        # k = 4 sign patterns over identity, repeated and product generators
        g = generate_closure(2, gens)
        assert sign_characters(g) == sign_characters_by_pairs(g)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(0, 47), min_size=4, max_size=4))
    def test_sign_characters_of_four_b3_elements(self, picks):
        # element 0 is the identity; picks may repeat
        b3 = b3_conjugate()
        g = generate_closure(3, [b3.element(i) for i in picks])
        assert sign_characters(g) == sign_characters_by_pairs(g)

    def test_fixed_subspace_is_intersection_of_kernels(self):
        g = b3_conjugate()
        subgroups = index2_subgroups(g) + [g.full_subgroup()]
        assert len(subgroups) == 4
        for h in subgroups:
            assert fixed_subspace(h) == fixed_by_kernels(h)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_conjugates_of_b3_subgroups(self, data):
        # random generating sets of subgroups of B3, conjugated by a random
        # invertible rational matrix
        b3 = generate_closure(3, B3_GENS)
        picks = data.draw(st.lists(st.integers(0, b3.order - 1), max_size=3))
        entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)
        p = data.draw(st.lists(st.lists(entries, min_size=3, max_size=3),
                               min_size=3, max_size=3).map(m).filter(
                                   lambda a: a.rank() == a.rows))
        grp = generate_closure(3, conjugated(p, [b3.element(i) for i in picks]))
        for h in index2_subgroups(grp) + [grp.full_subgroup()]:
            assert fixed_subspace(h) == fixed_by_kernels(h)
        for d in (1, 2):
            res = find_invariant_subspace(grp, d)
            assert (res.status, res.subspace) == reference_sign_search(grp, d)

    def test_order_384_makes_no_matrix_sum(self, monkeypatch):
        """Fixed spaces and the searches in dimensions 1 and n-1 solve
        generator equations: on B4 and on B3 plus a trivial line, both
        rationally conjugated, they add no two matrices."""
        p = m([[1, F(1, 2), 0, 0], [0, 1, F(-1, 3), 0], [0, 0, 1, 2], [F(1, 5), 0, 0, 1]])
        b3_line = generate_closure(4, conjugated(p, [
            m([list(r) + [0] for r in g.entries] + [[0, 0, 0, 1]]) for g in B3_GENS]))
        fulls = [b4_conjugate().full_subgroup(), b3_line.full_subgroup()]
        adds = []
        real = Matrix.__add__
        monkeypatch.setattr(Matrix, "__add__", lambda a, b: adds.append(1) or real(a, b))
        got = [(fixed_subspace(h).dim, find_invariant_subspace(h.parent, 1).status,
                find_invariant_subspace(h.parent, 3).status) for h in fulls]
        assert adds == []
        assert got == [(0, "certified_none", "certified_none"), (1, "found", "found")]

    def test_repeated_generator_keeps_index2_order(self):
        g = generate_closure(2, [FLIP_X, FLIP_Y, FLIP_X])
        assert [s.members for s in index2_subgroups(g)] == [(0, 2), (0, 1), (0, 3)]

    def test_repeated_generator_same_line(self):
        e1 = Subspace.from_vectors(2, [[1, 0]])
        for gens in ([FLIP_X, FLIP_Y], [FLIP_X, FLIP_Y, FLIP_X]):
            res = find_invariant_subspace(generate_closure(2, gens), 1)
            assert res.found and res.subspace == e1
