import itertools
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from orblocal import charts
from orblocal.ratlin import Matrix, Subspace, kernel, restrict_to_subspace, vec
from orblocal.groups import (
    GroupHom, NotAHomomorphism, Subgroup, close_in, generate_closure, verify_homomorphism)
from orblocal.onedim import no_retraction_hypothesis
from orblocal.charts import (
    BoundaryViolation,
    ChartEmbedding,
    EmbeddingError,
    LocalChart,
    NotInvariant,
    StrataReport,
    Stratum,
    build_chart,
    isotropy_at,
    pointwise_stabilizer,
    product_chart,
    stratify,
    suborbifold_model,
    verify_embedding,
)


def m(rows):
    return Matrix(rows)


def q_line():
    return build_chart(1, [m([[-1]])])


def quarter_plane():
    return build_chart(2, [m([[-1, 0], [0, 1]]), m([[1, 0], [0, -1]])])


class TestBuildChart:
    def test_q_line(self):
        c = q_line()
        assert c.dim == 1 and c.group.order == 2 and not c.boundary

    def test_quarter_plane_group(self):
        assert quarter_plane().group.order == 4

    def test_boundary_normal_form(self):
        c = build_chart(2, [m([[-1, 0], [0, 1]])], boundary=True)
        assert c.boundary

    def test_boundary_violation(self):
        with pytest.raises(BoundaryViolation):
            build_chart(2, [m([[1, 0], [0, -1]])], boundary=True)

    def test_boundary_violation_before_closure(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("closure ran")

        monkeypatch.setattr(charts, "generate_closure", refuse)
        bad = m([[1, 0], [0, -1]])
        with pytest.raises(BoundaryViolation, match="^%s$" % re.escape(
                "generator does not fix the boundary functional: %r" % (bad,))):
            build_chart(2, [m([[-1, 0], [0, 1]]), bad], boundary=True)

    @pytest.mark.parametrize("bad_first", [True, False])
    def test_direct_boundary_chart_with_a_bad_generator(self, bad_first, monkeypatch):
        # the closure lists the generators right after the identity, so the
        # first bad generator is the first bad element
        good, bad = m([[-1, 0], [0, 1]]), m([[1, 0], [0, -1]])
        group = generate_closure(2, [bad, good] if bad_first else [good, bad])
        checked = []
        check = charts._fixes_last_coordinate
        monkeypatch.setattr(charts, "_fixes_last_coordinate",
                            lambda g: checked.append(g) or check(g))
        with pytest.raises(BoundaryViolation, match="^%s$" % re.escape(
                "element does not fix the boundary functional: %r" % (bad,))):
            LocalChart(2, group, True)
        assert len(checked) <= len(group.generators)

    def test_boundary_chart_reads_generators_only(self, monkeypatch):
        # a rational conjugate of B4 (+) a boundary coordinate, order 384:
        # the normal form is checked once per generator, on integer rows, so
        # no other element's Fraction view is built
        p = m([[1, F(1, 2), 0, 0], [0, 1, F(-1, 3), 0], [0, 0, 1, 2], [F(1, 5), 0, 0, 1]])
        gens = [m([list(row) + [0] for row in g.entries] + [[0, 0, 0, 0, 1]])
                for g in conjugated(signed_permutations(4), p)]
        checked = []
        check = charts._fixes_last_coordinate
        monkeypatch.setattr(charts, "_fixes_last_coordinate",
                            lambda g: checked.append(g) or check(g))
        chart = build_chart(5, gens, boundary=True)
        grp = chart.group
        assert chart.boundary and grp.order == 384
        # build_chart's check before the closure, then LocalChart's
        assert checked == gens + list(grp.generators)
        assert all(grp.elements[i]._entries is None
                   for i in range(grp.order) if i not in grp.generator_indices)

    def test_group_dim_mismatch(self):
        g = generate_closure(1, [m([[-1]])])
        with pytest.raises(ValueError):
            LocalChart(2, g)


class TestProduct:
    def test_q_times_q(self):
        p = product_chart(q_line(), q_line())
        assert p.dim == 2 and p.group.order == 4
        assert set(p.group.elements) == set(quarter_plane().group.elements)

    def test_q_times_trivial(self):
        p = product_chart(q_line(), build_chart(1, []))
        assert p.group.order == 2
        # the nontrivial element fixes e2
        nontriv = next(g for g in p.group.elements if g != Matrix.identity(2))
        assert nontriv == Matrix.diagonal([-1, 1])

    def test_trivial_times_trivial(self):
        p = product_chart(build_chart(1, []), build_chart(1, []))
        assert p.group.order == 1 and p.dim == 2

    def test_boundary_factor_goes_last(self):
        p = product_chart(build_chart(1, [], boundary=True), q_line())
        assert p.boundary
        # the Z2 factor acts on the first coordinate, boundary coord is last
        nontriv = next(g for g in p.group.elements if g != Matrix.identity(2))
        assert nontriv == Matrix.diagonal([-1, 1])

    def test_two_boundaries_rejected(self):
        b = build_chart(1, [], boundary=True)
        with pytest.raises(ValueError):
            product_chart(b, b)


class TestIsotropy:
    def test_origin_full(self):
        c = quarter_plane()
        assert isotropy_at(c, [0, 0]).order == 4

    def test_axis_point(self):
        c = quarter_plane()
        iso = isotropy_at(c, [1, 0])
        assert iso.order == 2
        assert c.group.element(max(iso.members)) == Matrix.diagonal([1, -1])

    def test_generic_point_trivial(self):
        assert isotropy_at(quarter_plane(), [1, 2]).is_trivial()

    def test_boundary_domain_enforced(self):
        c = build_chart(2, [], boundary=True)
        with pytest.raises(ValueError):
            isotropy_at(c, [0, -1])

    def test_conjugate_isotropy(self):
        rng = random.Random(3)
        c = quarter_plane()
        for _ in range(10):
            p = (F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
            iso = set(isotropy_at(c, p).members)
            for gi in range(c.group.order):
                g = c.group.element(gi)
                moved = isotropy_at(c, g.apply(p))
                conj = {c.group.mul(c.group.mul(gi, h), c.group.inv(gi))
                        for h in iso}
                assert set(moved.members) == conj


def reference_isotropy(chart, p):
    return tuple(i for i, g in enumerate(chart.group.elements) if g.apply(p) == p)


def b3_conjugate():
    """The signed permutations of three coordinates, conjugated by P."""
    p = m([[1, F(1, 2), 0], [0, 1, F(-1, 3)], [2, 0, 1]])
    pinv = p.inverse()
    gens = ([[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
            [[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
    return build_chart(3, [p * m(g) * pinv for g in gens]), p


class TestIsotropyReference:
    """isotropy_at against the stabilizer read off every element."""

    def test_d4(self):
        chart = build_chart(2, [m([[0, -1], [1, 0]]), m([[1, 0], [0, -1]])])
        assert chart.group.order == 8
        for p in itertools.product(range(-2, 3), repeat=2):
            assert isotropy_at(chart, p).members == reference_isotropy(chart, vec(p))

    def test_b3_conjugate(self):
        chart, conj = b3_conjugate()
        assert chart.group.order == 48
        for v in itertools.product((-1, 0, 1, 2), repeat=3):
            p = conj.apply(v)
            assert isotropy_at(chart, p).members == reference_isotropy(chart, p)
        assert isotropy_at(chart, [0, 0, 0]).order == 48

    def test_boundary_chart(self):
        chart = build_chart(3, [m([[-1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                                m([[0, 1, 0], [1, 0, 0], [0, 0, 1]])], boundary=True)
        for p in itertools.product(range(-1, 2), range(-1, 2), range(0, 2)):
            assert isotropy_at(chart, p).members == reference_isotropy(chart, vec(p))
        assert isotropy_at(chart, [0, 0, 0]).is_full()


class TestStrata:
    def test_quarter_plane_three_singular(self):
        rep = stratify(quarter_plane())
        sing = rep.singular_strata()
        assert len(sing) == 3
        assert [s.dimension for s in sing] == [1, 1, 0]
        assert [s.codimension for s in sing] == [1, 1, 2]
        spaces = {s.fixed_space for s in sing}
        assert Subspace.from_vectors(2, [[1, 0]]) in spaces
        assert Subspace.from_vectors(2, [[0, 1]]) in spaces
        assert Subspace.zero(2) in spaces

    def test_point_reflection_single_stratum(self):
        rep = stratify(build_chart(2, [m([[-1, 0], [0, -1]])]))
        sing = rep.singular_strata()
        assert len(sing) == 1 and sing[0].codimension == 2

    def test_trivial_group_no_singular(self):
        rep = stratify(build_chart(2, []))
        assert rep.singular_strata() == ()
        assert [s.dimension for s in rep.strata if not s.singular] == [2]

    def test_strata_match_isotropy_at_random_points(self):
        rng = random.Random(17)
        chart = quarter_plane()
        rep = stratify(chart)
        for _ in range(20):
            p = (F(rng.randint(-2, 2)), F(rng.randint(-2, 2)))
            iso = isotropy_at(chart, p)
            containing = [s for s in rep.strata if s.fixed_space.contains(p)]
            stratum = min(containing, key=lambda s: s.dimension)
            assert set(stratum.isotropy.members) == set(iso.members)

    def test_boundary_tagging(self):
        # boundary chart with a mirror wall transverse to the boundary
        c = build_chart(2, [m([[-1, 0], [0, 1]])], boundary=True)
        sing = stratify(c).singular_strata()
        assert len(sing) == 1
        assert sing[0].codimension == 1 and not sing[0].in_boundary


def reference_stratify(chart):
    """stratify as the plain intersection closure: every stratum met with
    every element fixed space, each stabilizer read off every element."""
    n = chart.dim
    ident = Matrix.identity(n)
    element_spaces = list(dict.fromkeys(kernel(g - ident) for g in chart.group.elements))
    spaces = [Subspace.full(n)]
    seen = set(spaces)
    for space in spaces:  # grows while it is walked
        for fixed in element_spaces:
            meet = space.intersect(fixed)
            if meet not in seen:
                seen.add(meet)
                spaces.append(meet)
    strata = sorted((Stratum(pointwise_stabilizer(chart.group, s), s, s.dim, n - s.dim,
                             chart.boundary and all(b[-1] == 0 for b in s.basis))
                     for s in spaces),
                    key=lambda s: (-s.dimension, s.fixed_space.basis))
    return StrataReport(chart, tuple(strata))


def signed_permutations(n):
    """The generators of B_n: an n-cycle, a transposition and a sign flip."""
    cycle = [[int(j == (i - 1) % n) for j in range(n)] for i in range(n)]
    swap = [[int(j == (1 - i if i < 2 else i)) for j in range(n)] for i in range(n)]
    flip = [[(-1 if i == 0 else 1) * int(i == j) for j in range(n)] for i in range(n)]
    return [m(cycle), m(swap), m(flip)]


def conjugated(gens, p):
    pinv = p.inverse()
    return [p * g * pinv for g in gens]


class TestStrataReference:
    """stratify by G-orbits against the plain intersection closure."""

    def test_b4_conjugate(self):
        p = m([[1, F(1, 2), 0, 0], [0, 1, F(-1, 3), 0], [0, 0, 1, 2], [F(1, 5), 0, 0, 1]])
        chart = build_chart(4, conjugated(signed_permutations(4), p))
        assert chart.group.order == 384
        rep = stratify(chart)
        assert len(rep.strata) == 116
        assert rep == reference_stratify(chart)

    def test_b4_conjugate_meets_once_per_stabilizer_orbit(self, monkeypatch):
        """On the B4 conjugate, meeting each representative once per orbit of
        its stabilizer on the element classes takes fewer than the 1,191
        intersections that meeting every distinct element fixed space outside
        the stabilizer takes."""
        p = m([[1, F(1, 2), 0, 0], [0, 1, F(-1, 3), 0], [0, 0, 1, 2], [F(1, 5), 0, 0, 1]])
        chart = build_chart(4, conjugated(signed_permutations(4), p))
        calls = []
        meet = Subspace.intersect
        monkeypatch.setattr(Subspace, "intersect",
                            lambda a, b: calls.append(b) or meet(a, b))
        rep = stratify(chart)
        monkeypatch.undo()
        assert len(calls) < 600
        assert rep == reference_stratify(chart)

    def test_b4_conjugate_meets_no_class_inside_the_representative(self, monkeypatch):
        """On the B4 conjugate, a class whose fixed space is already in the
        lattice and lies in the representative (its stabilizer contains the
        representative's) is not met: 276 intersections, where meeting it
        too took 446."""
        p = m([[1, F(1, 2), 0, 0], [0, 1, F(-1, 3), 0], [0, 0, 1, 2], [F(1, 5), 0, 0, 1]])
        chart = build_chart(4, conjugated(signed_permutations(4), p))
        for _ in range(2):
            calls = []
            meet = Subspace.intersect
            monkeypatch.setattr(Subspace, "intersect",
                                lambda a, b: calls.append(b) or meet(a, b))
            rep = stratify(chart)
            monkeypatch.undo()
            assert len(calls) == 276
            assert rep == reference_stratify(chart)

    def test_one_kernel_per_cyclic_subgroup(self, monkeypatch):
        """stratify takes one element kernel per nontrivial cyclic subgroup
        of a B3 conjugate, since Fix(g^k) = Fix(g) for k prime to the order
        of g, and the identity fixes the full space; each kernel is one
        eigenspace(n, [(g, 1)]) (charts.eigenspace)."""
        p = m([[1, F(1, 2), 0], [0, 1, F(-1, 3)], [2, 0, 1]])
        chart = build_chart(3, conjugated(signed_permutations(3), p))
        g = chart.group
        cyclic = set()
        for i in range(g.order):
            powers, x = {0}, i
            while x:
                powers.add(x)
                x = g.mul(x, i)
            cyclic.add(frozenset(powers))
        calls = []
        eigenspace = charts.eigenspace
        monkeypatch.setattr(charts, "eigenspace",
                            lambda n, pairs: calls.append(pairs) or eigenspace(n, pairs))
        rep = stratify(chart)
        monkeypatch.undo()
        assert len(calls) == len(cyclic) - 1 < g.order
        assert all(len(pairs) == 1 and pairs[0][1] == 1 for pairs in calls)
        assert rep == reference_stratify(chart)

    def test_boundary_charts(self):
        # B2 on the first two coordinates of a half-space, conjugated in
        # them, and a product with a half-line
        p = m([[2, F(1, 3), 0], [-1, 1, 0], [0, 0, 1]])
        b2 = [m([list(r) + [0] for r in g.entries] + [[0, 0, 1]])
              for g in signed_permutations(2)]
        charts = [build_chart(3, conjugated(b2, p), boundary=True),
                  product_chart(build_chart(2, [m([[0, -1], [1, 0]])]),
                                build_chart(1, [], boundary=True))]
        for chart in charts:
            assert chart.boundary
            assert stratify(chart) == reference_stratify(chart)

    def test_repeated_and_identity_generators(self):
        rot, flip = m([[0, -1], [1, 0]]), m([[1, 0], [0, -1]])
        for gens in ([rot, rot, flip], [Matrix.identity(2), flip, Matrix.identity(2)],
                     [Matrix.identity(2)], [flip, flip * rot, rot, flip]):
            chart = build_chart(2, gens)
            assert stratify(chart) == reference_stratify(chart)

    def test_trivial_group(self):
        for dim in (1, 3):
            chart = build_chart(dim, [])
            rep = stratify(chart)
            assert rep == reference_stratify(chart)
            assert len(rep.strata) == 1 and rep.strata[0].isotropy.is_trivial()

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_conjugates_of_b3_subgroups(self, data):
        # random generating sets of subgroups of B3, conjugated by a random
        # invertible rational matrix
        b3 = build_chart(3, signed_permutations(3)).group
        picks = data.draw(st.lists(st.integers(0, b3.order - 1), max_size=3))
        entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)
        p = data.draw(st.lists(st.lists(entries, min_size=3, max_size=3),
                               min_size=3, max_size=3).map(m).filter(
                                   lambda a: a.rank() == a.rows))
        chart = build_chart(3, conjugated([b3.element(i) for i in picks], p))
        assert stratify(chart) == reference_stratify(chart)


def cartan_reflections(cartan):
    """The simple reflections s_i(a_j) = a_j - A[i][j] a_i of a Cartan
    matrix A, on the basis of simple roots a_j."""
    n = len(cartan)
    return [m([[int(r == c) - (cartan[i][c] if r == i else 0) for c in range(n)]
               for r in range(n)]) for i in range(n)]


CARTAN = {
    "A3": ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], 24),
    "B3": ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], 48),
    "D4": ([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]], 192),
    "F4": ([[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]], 1152),
}


def steinberg_strata(chart):
    """The strata of a reflection group by Steinberg's theorem, as
    (space, dimension, isotropy members) in stratify's order: the spaces
    are the flats of the arrangement of reflection hyperplanes (every
    intersection of them, the full space included), and the isotropy of a
    flat is generated by the reflections whose hyperplane contains it."""
    group, n = chart.group, chart.dim
    ident = Matrix.identity(n)
    hyperplanes = {}
    for i, g in enumerate(group.elements):
        fixed = kernel(g - ident)
        if fixed.dim == n - 1:
            hyperplanes.setdefault(fixed, []).append(i)
    flats = [Subspace.full(n)]
    seen = set(flats)
    for flat in flats:  # grows while it is walked
        for h in hyperplanes:
            meet = flat.intersect(h)
            if meet not in seen:
                seen.add(meet)
                flats.append(meet)
    out = []
    for flat in flats:
        reflections = [r for h, rs in hyperplanes.items()
                       if all(h.contains(b) for b in flat.basis) for r in rs]
        closed = close_in(group, reflections)
        out.append((flat, flat.dim, sorted(group.index_of(e) for e in closed.elements)))
    out.sort(key=lambda s: (-s[1], s[0].basis))
    return out


class TestSteinbergOracle:
    """stratify on reflection groups against the flats of their reflection
    arrangements (Steinberg, Trans. AMS 112 (1964))."""

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from(["A3", "B3", "D4"]), st.data())
    def test_random_conjugates(self, name, data):
        cartan, order = CARTAN[name]
        n = len(cartan)
        entries = st.fractions(min_value=-3, max_value=3, max_denominator=5)
        p = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                               min_size=n, max_size=n).map(m).filter(
                                   lambda a: a.rank() == a.rows))
        chart = build_chart(n, conjugated(cartan_reflections(cartan), p))
        assert chart.group.order == order
        self.check(chart)

    def test_f4_conjugate(self):
        cartan, order = CARTAN["F4"]
        p = m([[1, F(1, 2), 0, 0], [0, 1, F(-1, 3), 0], [0, 0, 1, 2], [F(1, 5), 0, 0, 1]])
        chart = build_chart(4, conjugated(cartan_reflections(cartan), p))
        assert chart.group.order == order
        self.check(chart)

    @staticmethod
    def check(chart):
        rep = stratify(chart)
        got = [(s.fixed_space, s.dimension, s.isotropy.order, list(s.isotropy.members))
               for s in rep.strata]
        want = [(space, dim, len(members), members)
                for space, dim, members in steinberg_strata(chart)]
        assert got == want


class TestCodimOne:
    def test_mirror_true(self):
        assert not no_retraction_hypothesis([build_chart(2, [m([[1, 0], [0, -1]])])]).holds

    def test_point_reflection_false(self):
        assert no_retraction_hypothesis([build_chart(2, [m([[-1, 0], [0, -1]])])]).holds

    def test_trivial_false(self):
        assert no_retraction_hypothesis([build_chart(2, [])]).holds

    def test_boundary_wall_excluded(self):
        # product of a mirror line with a half-line: the wall is the boundary
        mirror = q_line()
        half = build_chart(1, [], boundary=True)
        prod = product_chart(mirror, half)
        sing = stratify(prod).singular_strata()
        assert any(s.codimension == 1 and not s.in_boundary for s in sing)
        # whereas the fixed set of the boundary collar itself is tagged:
        wall = build_chart(2, [m([[-1, 0], [0, 1]])], boundary=True)
        rep = stratify(wall)
        tags = [(s.codimension, s.in_boundary) for s in rep.singular_strata()]
        assert (1, False) in tags


def restricted_action(model, coset):
    """The matrix of a coset's representative acting on the model's
    subspace, in the coordinates of its basis."""
    rep = model.intrinsic_isotropy.representative(coset)
    return restrict_to_subspace(model.chart.group.element(rep), model.subspace)


class TestSuborbifold:
    def test_axis_full(self):
        c = quarter_plane()
        axis = Subspace.from_vectors(2, [[1, 0]])
        model = suborbifold_model(c, axis, c.group.full_subgroup())
        assert model.full
        assert model.omega.order == 2
        assert model.intrinsic_isotropy.order == 2
        # the intrinsic action on the axis is the sign flip
        assert restricted_action(model, 1) == m([[-1]])

    def test_diagonal_not_full(self):
        c = quarter_plane()
        diag = Subspace.from_vectors(2, [[1, 1]])
        lam = Subgroup(c.group, (0, c.group.index_of(Matrix.diagonal([-1, -1]))))
        model = suborbifold_model(c, diag, lam)
        assert not model.full
        assert model.omega.is_trivial()
        assert model.intrinsic_isotropy.order == 2
        assert restricted_action(model, 1) == m([[-1]])

    def test_diagonal_full_group_rejected(self):
        c = quarter_plane()
        diag = Subspace.from_vectors(2, [[1, 1]])
        with pytest.raises(NotInvariant) as exc:
            suborbifold_model(c, diag, c.group.full_subgroup())
        witness_matrix, witness_vec = exc.value.witness
        assert not diag.contains(witness_matrix.apply(witness_vec))

    def test_witness_is_first_failing_member(self):
        # invariance is checked on lambda's generators; the witness must be
        # the one an all-member loop finds
        chart, p = b3_conjugate()
        group = chart.group
        lambdas = [group.full_subgroup(), isotropy_at(chart, p.apply([1, 0, 0])),
                   isotropy_at(chart, p.apply([1, 1, 0]))]
        for vectors in itertools.product(((1, 0, 0), (1, 2, 0), (0, 1, -1), (1, 1, 1)),
                                         repeat=2):
            space = Subspace.from_vectors(3, [p.apply(v) for v in vectors])
            for lam in lambdas:
                want = next(((group.element(i), b) for i in lam.members
                             for b in space.basis
                             if not space.contains(group.element(i).apply(b))), None)
                if want is None:
                    assert suborbifold_model(chart, space, lam).subspace == space
                    continue
                with pytest.raises(NotInvariant) as exc:
                    suborbifold_model(chart, space, lam)
                assert exc.value.witness == want
                assert str(exc.value) == ("subspace is not invariant under element %d"
                                          % group.index_of(want[0]))

    def test_intrinsic_action_effective(self):
        c = quarter_plane()
        axis = Subspace.from_vectors(2, [[1, 0]])
        model = suborbifold_model(c, axis, c.group.full_subgroup())
        for coset in range(1, model.intrinsic_isotropy.order):
            assert restricted_action(model, coset) != Matrix.identity(axis.dim)


class TestEmbedding:
    def _axis_embedding(self, image_gen):
        mirror = build_chart(2, [m([[1, 0], [0, -1]])])
        qp = quarter_plane()
        theta = verify_homomorphism(mirror.group, qp.group, [image_gen])
        return ChartEmbedding(mirror, qp, Matrix.identity(2), (F(1), F(0)), theta)

    def test_translation_embedding_valid(self):
        emb = verify_embedding(self._axis_embedding(m([[1, 0], [0, -1]])))
        assert emb.apply([0, 0]) == (F(1), F(0))

    def test_identity_embedding(self):
        qp = quarter_plane()
        theta = verify_homomorphism(qp.group, qp.group, list(qp.group.generators))
        verify_embedding(ChartEmbedding(qp, qp, Matrix.identity(2),
                                        (F(0), F(0)), theta))

    def test_wrong_theta_fails_with_witness(self):
        with pytest.raises(EmbeddingError) as exc:
            verify_embedding(self._axis_embedding(m([[-1, 0], [0, 1]])))
        assert exc.value.witness is not None

    def test_non_injective_linear_part(self):
        triv1 = build_chart(1, [])
        triv2 = build_chart(2, [])
        theta = verify_homomorphism(triv1.group, triv2.group, [])
        with pytest.raises(EmbeddingError):
            verify_embedding(ChartEmbedding(triv1, triv2, Matrix([[0], [0]]),
                                            (F(0), F(0)), theta))


def reference_embedding_failure(e):
    """(message, witness) of the first element failing equivariance, or None."""
    for gi in range(e.source.group.order):
        g = e.source.group.element(gi)
        tg = e.target.group.element(e.theta.apply(gi))
        if e.linear * g != tg * e.linear:
            return "equivariance fails on linear parts at element %d" % gi, (g, tg)
        if tg.apply(e.translate) != e.translate:
            return ("equivariance fails on the translation at element %d" % gi,
                    (tg, e.translate))
    return None


class TestEmbeddingOnGenerators:
    """verify_embedding on generators against the all-element loop."""

    def _self_embedding(self, second_image, translate):
        qp = quarter_plane()
        first = qp.group.generators[0]
        theta = verify_homomorphism(qp.group, qp.group, [first, second_image])
        return ChartEmbedding(qp, qp, Matrix.identity(2), translate, theta)

    def _outcome(self, e):
        try:
            verify_embedding(e)
        except EmbeddingError as exc:
            return str(exc), exc.witness
        return None

    def test_translation_moved_by_second_generator(self):
        # (0, 1) is fixed by the first reflection and moved by the second
        qp = quarter_plane()
        e = self._self_embedding(qp.group.generators[1], (F(0), F(1)))
        want = reference_embedding_failure(e)
        assert want[0] == "equivariance fails on the translation at element 2"
        assert self._outcome(e) == want

    def test_linear_part_fails(self):
        # theta sends the second reflection to the point reflection
        e = self._self_embedding(Matrix.diagonal([-1, -1]), (F(0), F(0)))
        want = reference_embedding_failure(e)
        assert want[0] == "equivariance fails on linear parts at element 2"
        assert self._outcome(e) == want

    def test_theta_not_multiplicative(self):
        qp = quarter_plane()
        mapping = (1, 0, 2, 3)  # injective, but the identity goes to a reflection
        theta = GroupHom(qp.group, qp.group, mapping)
        with pytest.raises(NotAHomomorphism):
            verify_embedding(ChartEmbedding(qp, qp, Matrix.identity(2),
                                            (F(0), F(0)), theta))
