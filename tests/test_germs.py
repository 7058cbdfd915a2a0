import functools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from math import lcm
from unittest import mock

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

import orblocal
from orblocal.ratlin import Matrix, MultiPoly, Subspace, has_real_root, poly_int
from orblocal.groups import (
    FiniteMatrixGroup, GroupHom, NotAHomomorphism, Subgroup, close_in, generate_closure,
    verify_homomorphism)
from orblocal.charts import (
    ChartEmbedding, build_chart, isotropy_at, stratify, verify_embedding)
from orblocal import cli, germs
from orblocal.germs import (
    EquivarianceError,
    InvariantProjection,
    MapGerm,
    NotCentered,
    NotInPreimage,
    NotRegularPoint,
    SARD_CHUNK,
    SNAP_DENOMINATOR,
    SardReport,
    UnsupportedLift,
    _critical_value_poly,
    _separable_coordinates,
    build_germ,
    cocycle_identities,
    faithfulness_check,
    invariant_projection,
    is_regular_value,
    lift_replacement_invariance,
    obstruction_certificate,
    preimage_model,
    pull_back_germ,
    real_target_structure,
    recenter_germ,
    sard_sample,
)
from orblocal.corpus import (
    builtin_documents, charts, germ_case, germ_cases, case_preimage_models)
from orblocal.serialize import parse_germ_payload
from test_golden import conjugate_documents
from test_ratlin import (
    ref_add, ref_deg, ref_derivative, ref_eval, ref_gcd, ref_mul, ref_trim)


def m(rows):
    return Matrix(rows)


def trivial_theta(src, tgt):
    return verify_homomorphism(
        src.group, tgt.group,
        [Matrix.identity(tgt.dim)] * len(src.group.generator_indices))


@pytest.fixture(scope="module")
def c():
    return charts()


class TestBuildGerm:
    def test_even_lift_valid(self, c):
        line = c["line-trivial"]
        sq = MultiPoly(1, [{(2,): F(1)}])
        germ = build_germ(c["line-z2"], line, sq, trivial_theta(c["line-z2"], line))
        assert germ.lift.eval([2]) == (F(4),)

    def test_odd_lift_rejected_with_residual(self, c):
        line = c["line-trivial"]
        with pytest.raises(EquivarianceError) as exc:
            build_germ(c["line-z2"], line, MultiPoly.coordinate(1, 0),
                       trivial_theta(c["line-z2"], line))
        assert exc.value.gamma_index == 1
        # residual is -2x
        assert exc.value.residual.coords[0] == (((1,), F(-2)),)

    def test_first_coordinate_mirror_valid(self, c):
        line = c["line-trivial"]
        germ = build_germ(c["mirror-plane"], line, MultiPoly.coordinate(2, 0),
                          trivial_theta(c["mirror-plane"], line))
        assert germ.lift.jacobian_at([0, 0]) == m([[1, 0]])

    def test_dim_mismatch(self, c):
        line = c["line-trivial"]
        with pytest.raises(ValueError):
            build_germ(c["line-z2"], line, MultiPoly.coordinate(2, 0),
                       trivial_theta(c["line-z2"], line))

    def test_base_point_outside_half_space(self, c):
        line = c["line-trivial"]
        half = c["half-plane"]
        with pytest.raises(ValueError):
            build_germ(half, line, MultiPoly.coordinate(2, 0),
                       trivial_theta(half, line), base_point=[0, -1])

    @pytest.mark.parametrize("chart,lift,first", [
        # invariant under the first generator (x -> -x, or the quarter
        # turn), not under the second (y -> -y)
        ("quarter-plane", {(2, 0): F(1), (0, 1): F(1)}, 2),
        ("dihedral-8", {(3, 1): F(1), (1, 3): F(-1)}, 2),
        # invariant under neither
        ("quarter-plane", {(1, 0): F(1), (0, 1): F(1)}, 1),
    ])
    def test_gamma_index_matches_all_element_loop(self, c, chart, lift, first):
        src, line = c[chart], c["line-trivial"]
        lift = MultiPoly(2, [lift])
        theta = trivial_theta(src, line)
        gi, residual = equivariance_reference(src, line, lift, theta)
        assert gi == first
        with pytest.raises(EquivarianceError) as exc:
            build_germ(src, line, lift, theta)
        assert exc.value.gamma_index == gi
        assert exc.value.residual == residual
        assert str(exc.value) == "lift is not equivariant at element %d" % gi

    def test_rejects_hom_equivariant_on_generators_not_multiplicative(self, c):
        # both reflections and their product go to -1: x y is equivariant on
        # the two generators, but the map is no homomorphism and x y fails
        # equivariance at the product
        src, tgt = c["quarter-plane"], c["line-z2"]
        lift = MultiPoly(2, [{(1, 1): F(1)}])
        bad = GroupHom(src.group, tgt.group, (0, 1, 1, 1))
        assert equivariance_reference(src, tgt, lift, bad)[0] == 3
        with pytest.raises(NotAHomomorphism) as exc:
            build_germ(src, tgt, lift, bad)
        assert exc.value.witness == (1, 1)
        good = GroupHom(src.group, tgt.group, (0, 1, 1, 0))
        assert build_germ(src, tgt, lift, good).theta is good

    def test_one_multiplicativity_walk_per_hom(self, monkeypatch, tmp_path):
        # parse_germ_payload verifies theta (verify_homomorphism) and then
        # builds the germ, whose build_germ checks theta again; analyze's
        # re-centering does the same for the isotropy group's theta.  Only
        # the first check of each walks the |G| |S| pairs, with one source
        # and one target product each
        doc = conjugate_documents("B3")["analyze"]
        walks = []
        spy_check_walks(monkeypatch, walks)
        germ, _, _ = parse_germ_payload(doc["payload"], "$.payload")
        src = germ.source.group
        assert [(h is germ.theta, n) for h, n in walks] == [
            (True, 2 * src.order * len(src.generator_indices)), (True, 0)]
        walks.clear()
        path = tmp_path / "b3.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["analyze", str(path), "--out", str(tmp_path / "r.json")]) == 0
        assert [n > 0 for _, n in walks] == [True, False, True, False]
        assert walks[0][0] is walks[1][0] and walks[2][0] is walks[3][0]
        recentered = walks[2][0].source
        assert walks[2][1] == 2 * recentered.order * len(recentered.generator_indices)

    def test_corrupted_hom_raises_on_every_check(self, c):
        # a failed check keeps no verdict: each build walks to the same witness
        src, tgt = c["quarter-plane"], c["line-z2"]
        lift = MultiPoly(2, [{(1, 1): F(1)}])
        bad = GroupHom(src.group, tgt.group, (0, 1, 1, 1))
        for _ in range(2):
            with pytest.raises(NotAHomomorphism) as exc:
                build_germ(src, tgt, lift, bad)
            assert exc.value.witness == (1, 1)

    def test_equivariance_holds_for_all_corpus_germs(self):
        # build_germ re-runs the equivariance identity; rebuilding must pass
        for case in germ_cases():
            g = case.germ
            rebuilt = build_germ(g.source, g.target, g.lift, g.theta, g.base_point)
            assert rebuilt.lift == g.lift


def spy_check_walks(monkeypatch, walks):
    """Make GroupHom.check_multiplicative append (hom, group products it
    made) to walks."""
    muls = [0]
    mul = FiniteMatrixGroup.mul
    monkeypatch.setattr(FiniteMatrixGroup, "mul",
                        lambda g, i, j: muls.__setitem__(0, muls[0] + 1) or mul(g, i, j))
    check = GroupHom.check_multiplicative

    def counted(hom):
        before = muls[0]
        check(hom)
        walks.append((hom, muls[0] - before))
    monkeypatch.setattr(GroupHom, "check_multiplicative", counted)


def equivariance_reference(source, target, lift, theta):
    """The all-element loop: the first element at which the lift is not
    equivariant, with its residual, or None."""
    for gi in range(source.group.order):
        residual = (lift.compose_affine(source.group.element(gi))
                    - lift.apply_matrix(target.group.element(theta.apply(gi))))
        if not residual.is_zero():
            return gi, residual
    return None


class TestRegularValues:
    def test_square_regular_at_one(self, c):
        case = germ_case("z2-square")
        rep = is_regular_value(case.germ, [1], [[1], [-1]])
        assert rep.regular
        assert [r for _, r in rep.point_ranks] == [1, 1]

    def test_square_critical_at_zero(self):
        case = germ_case("z2-square")
        rep = is_regular_value(case.germ, [0], [[0]])
        assert not rep.regular
        assert rep.point_ranks[0][1] == 0

    def test_empty_preimage_regular_by_convention(self):
        case = germ_case("z2-square")
        rep = is_regular_value(case.germ, [-1], [])
        assert rep.regular and rep.empty_preimage

    def test_wrong_preimage_point_rejected(self):
        case = germ_case("z2-square")
        with pytest.raises(NotInPreimage):
            is_regular_value(case.germ, [1], [[2]])

    def test_each_lift_point_is_evaluated_once(self):
        """build_germ, is_regular_value and preimage_model read the lift's
        values from the germ: each corpus germ evaluates its own lift once
        per distinct point, and the reports are the same."""
        real = MultiPoly.eval
        for case in germ_cases():
            g = case.germ
            calls = []

            def counted(lift, point):
                calls.append((lift, tuple(point)))
                return real(lift, point)

            with mock.patch.object(MultiPoly, "eval", counted):
                germ = build_germ(g.source, g.target, g.lift, g.theta, g.base_point)
                rep = is_regular_value(germ, case.p, case.lifts)
                models = [preimage_model(germ, case.p, pt) for pt in case.lifts] \
                    if case.regular else []
            own = [pt for lift, pt in calls if lift is g.lift]
            assert sorted(own) == sorted(set(own)) and set(own) >= set(case.lifts)
            assert rep == is_regular_value(g, case.p, case.lifts)
            assert [(mo.kernel, mo.dim) for mo in models] == \
                [(mo.kernel, mo.dim) for mo in case_preimage_models(case)]

    def test_not_in_preimage_messages(self):
        """A point off the preimage fails with NotInPreimage and its message,
        in preimage_model after re-centering and in is_regular_value."""
        case = germ_case("z2-square")
        with pytest.raises(NotInPreimage, match="^lift point does not map to the target point$"):
            preimage_model(case.germ, [1], [2])
        with pytest.raises(NotInPreimage, match=r"^point \('2',\) does not map to \('1',\)$"):
            is_regular_value(case.germ, [1], [[1], [2]])


class TestPreimageModel:
    def test_mirror_line(self):
        case = germ_case("mirror-line")
        model = preimage_model(case.germ, [0], [0, 0])
        assert model.kernel == Subspace.from_vectors(2, [[0, 1]])
        assert model.g_group.is_trivial()
        assert model.gamma_s.order == 2
        assert model.dim == 1
        assert model.suborbifold.full
        assert model.boundary_kind == "interior"

    def test_identity_on_z2_line(self):
        case = germ_case("z2-identity")
        model = preimage_model(case.germ, [0], [0])
        assert model.kernel.is_zero()
        assert model.g_group.order == 2
        assert model.gamma_s.is_trivial()

    def test_smooth_point_after_recentering(self):
        case = germ_case("sum-squares")
        rg = recenter_germ(case.germ, [1, 0])
        assert rg.source.group.order == 2
        model = preimage_model(rg, [1], [0, 0])
        assert model.gamma_s.order == 2
        assert model.dim == 1

    def test_off_center_point_rejected(self, c):
        # a base point the group moves has no split for faithfulness to
        # read; the model at that point is built on the germ re-centered there
        case = germ_case("sum-squares")
        germ = build_germ(c["quarter-plane"], case.germ.target, case.germ.lift,
                          case.germ.theta, base_point=[1, 0])
        with pytest.raises(NotCentered):
            faithfulness_check(germ)
        model = preimage_model(germ, [1], [1, 0])
        assert model.germ is not germ
        assert model.germ.source.group.order == 2
        assert model.lift_point == (0, 0)
        assert model.gamma_s.order == 2 and model.dim == 1

    def test_critical_point_rejected(self):
        case = germ_case("z2-square")
        with pytest.raises(NotRegularPoint):
            preimage_model(case.germ, [0], [0])

    def test_counts_multiply(self):
        for case in germ_cases():
            if not case.regular:
                continue
            for model in case_preimage_models(case):
                grp = model.germ.source.group
                assert model.gamma_s.order * model.g_group.order == grp.order

    def test_four_dim_split(self):
        case = germ_case("four-dim-split")
        model = preimage_model(case.germ, case.p, case.lifts[0])
        assert model.kernel == Subspace.from_vectors(4, [[0, 1, 0, 0], [0, 0, 0, 1]])
        assert model.g_group.is_trivial()
        assert model.gamma_s.order == 4
        assert model.dim == 2

    def test_point_reflection_smooth_orbit_point(self):
        # at a trivial-isotropy lift point the model is a manifold point
        case = germ_case("point-reflection-radial")
        (model,) = case_preimage_models(case)
        assert model.germ.source.group.is_trivial()
        assert model.kernel.dim == 1
        assert model.gamma_s.is_trivial()


class TestBoundaryPreimage:
    def test_edge_point(self):
        case = germ_case("half-plane-edge")
        model = preimage_model(case.germ, [0], [0, 0])
        assert model.boundary_kind == "boundary-point"
        assert model.kernel == Subspace.from_vectors(2, [[0, 1]])
        assert model.boundary_kernel_dim == 0

    def test_interior_point_of_boundary_chart(self):
        case = germ_case("half-plane-mirror-height")
        model = preimage_model(case.germ, [1], [0, 1])
        assert model.boundary_kind == "interior"
        assert model.kernel == Subspace.from_vectors(2, [[1, 0]])
        assert model.gamma_s.order == 2

    def test_no_excess_source_dimension_rejected(self, c):
        # half-line -> line by x: the boundary point 0 is regular, but a
        # boundary preimage needs the source to have more dimensions
        half, line = c["half-line"], c["line-trivial"]
        germ = build_germ(half, line, MultiPoly.coordinate(1, 0), trivial_theta(half, line))
        with pytest.raises(ValueError, match="source dimension > target dimension"):
            preimage_model(germ, [0], [0])

    def test_boundary_restriction_regularity_enforced(self, c):
        # lift y: on the boundary y=0 the restriction is constant 0, not regular
        line = c["line-trivial"]
        half = c["half-plane"]
        germ = build_germ(half, line, MultiPoly.coordinate(2, 1),
                          trivial_theta(half, line))
        with pytest.raises(NotRegularPoint):
            preimage_model(germ, [0], [0, 0])


class TestInvariantProjection:
    def test_mirror_line_worked_example(self):
        proj = invariant_projection(germ_case("mirror-line").germ)
        assert proj.n_group.order == 2
        assert dict(proj.a_gamma)[1] == Matrix.diagonal([0, -2])
        assert -proj.projection == Matrix.diagonal([0, -1])
        assert proj.projection == Matrix.diagonal([0, 1])
        assert proj.proj_kernel == Subspace.from_vectors(2, [[1, 0]])
        assert proj.proj_image == Subspace.from_vectors(2, [[0, 1]])

    def test_trivial_kernel_zero_projection(self):
        proj = invariant_projection(germ_case("four-dim-split").germ)
        assert proj.n_group.is_trivial()
        assert proj.projection.is_zero()
        assert proj.proj_kernel.is_full()

    def test_x_squared_four_element_average(self):
        proj = invariant_projection(germ_case("x-squared-plane").germ)
        assert proj.n_group.order == 4
        assert proj.projection == Matrix.identity(2)

    def test_identities_all_corpus(self):
        for case in germ_cases():
            proj = invariant_projection(case.germ)
            p = proj.projection
            assert p * p == p
            for i in proj.n_group.members:
                g = case.germ.source.group.element(i)
                assert g * p == p * g
            for col in range(p.cols):
                assert proj.kernel_space.contains(p.column(col))
            for b in proj.proj_kernel.basis:
                for i in proj.n_group.members:
                    assert case.germ.source.group.element(i).apply(b) == b

    def test_checks_raise_under_optimize(self):
        # python -O strips asserts; the projection checks must still fire
        script = "\n".join([
            "import sys",
            "from orblocal import germs",
            "from orblocal.corpus import germ_case",
            "germ = germ_case('mirror-line').germ",
            "mean = germs._negated_mean",
            "germs._negated_mean = lambda mats: mean(mats).scale(2)",
            "try:",
            "    germs.invariant_projection(germ)",
            "except AssertionError as e:",
            "    print(sys.flags.optimize, e)",
            "else:",
            "    print(sys.flags.optimize, 'no error')",
        ])
        src = os.path.dirname(os.path.dirname(os.path.abspath(orblocal.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "1 projection is not idempotent"

    def test_analyze_forms_no_minus_identity_until_a_gamma_is_read(
            self, monkeypatch, tmp_path):
        # the projection and the cocycle check read N's members as one
        # integer form; the list of A(gamma) = gamma - I is formed only when
        # a_gamma is read, and then it is the list gamma - I in member order
        path = tmp_path / "b3.json"
        path.write_text(json.dumps(conjugate_documents("B3")["analyze"]))
        made, projs = [], []
        sub = Matrix.__sub__
        monkeypatch.setattr(Matrix, "__sub__", lambda a, b: made.append(b) or sub(a, b))
        build = germs.invariant_projection
        monkeypatch.setattr(germs, "invariant_projection",
                            lambda germ: projs.append(build(germ)) or projs[-1])
        assert cli.main(["analyze", str(path), "--out", str(tmp_path / "r.json")]) == 0
        assert made == []
        proj, = projs
        grp, members = proj.n_group.parent, proj.n_group.members
        assert len(members) == 48
        a_gamma = proj.a_gamma
        assert len(made) == 48
        monkeypatch.undo()
        ident = Matrix.identity(grp.dim)
        assert a_gamma == tuple((i, grp.element(i) - ident) for i in members)

    def test_image_of_a_gamma_in_kernel(self):
        for case in germ_cases():
            proj = invariant_projection(case.germ)
            for _, a in proj.a_gamma:
                for col in range(a.cols):
                    assert proj.kernel_space.contains(a.column(col))


@functools.cache
def honest_projection(name):
    """The invariant projection of a corpus germ, of bn_germ(3) ("b3") or of
    s4_germ() ("s4"), built once."""
    germ = {"b3": lambda: bn_germ(3), "s4": s4_germ}.get(name, lambda: germ_case(name).germ)()
    return invariant_projection(germ)


# a failing example on b3 or s4 is reported as found: each shrink step
# re-runs cocycle_reference's thousands of Matrix products, so shrinking
# would take minutes
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)

large_rationals = st.builds(F, st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 4))


class TestCocycle:
    def test_mirror_line_four_pairs(self):
        proj = invariant_projection(germ_case("mirror-line").germ)
        rep = cocycle_identities(proj)
        assert rep.ok and rep.pairs_checked == 4

    def test_trivial_vacuous(self):
        proj = invariant_projection(germ_case("trivial-line").germ)
        rep = cocycle_identities(proj)
        assert rep.ok and rep.pairs_checked == 1

    def test_sixteen_pairs(self):
        proj = invariant_projection(germ_case("x-squared-plane").germ)
        rep = cocycle_identities(proj)
        assert rep.ok and rep.pairs_checked == 16

    def test_matches_pairwise_reference_on_honest_projections(self):
        projs = [invariant_projection(case.germ) for case in germ_cases()]
        for proj in projs + [honest_projection("b3")]:
            rep = cocycle_identities(proj)
            assert rep.ok
            assert ((rep.pairs_checked, rep.failures) == cocycle_reference(proj)
                    == (proj.n_group.order ** 2, ()))

    @pytest.mark.parametrize("case", ["x-squared-plane", "sym-sum", "dihedral-radial"])
    def test_corrupted_projection_failures_match_reference(self, case):
        # one member of N given a wrong matrix, the identity, or the matrix
        # of another member, each against the kept table (swapping two
        # members can be an automorphism of N, as on a Klein four-group)
        proj = invariant_projection(germ_case(case).germ)
        grp, members = proj.n_group.parent, proj.n_group.members
        n, k = grp.dim, members[len(members) // 2]
        off = Matrix([[F(j - 2 * r, 3) for j in range(n)] for r in range(n)])
        for g in (grp.element(k) + off, Matrix.identity(n), grp.element(members[1])):
            bad = with_element(proj, k, g)
            rep = cocycle_identities(bad)
            assert not rep.ok
            assert (rep.pairs_checked, rep.failures) == cocycle_reference(bad)

    @settings(max_examples=12, deadline=None, phases=NO_SHRINK)
    @given(st.sampled_from(["x-squared-plane", "dihedral-radial", "b3"]), st.data())
    def test_packed_check_matches_reference_on_corrupted_tables(self, name, data):
        # every A(gamma) is gamma - I, so the packed check runs, but the
        # table gives some products gamma delta wrong
        proj = honest_projection(name)
        bad = swapped_table(proj, data)
        ident = Matrix.identity(proj.n_group.parent.dim)
        assert all(a == bad.n_group.parent.element(i) - ident for i, a in bad.a_gamma)
        rep = cocycle_identities(bad)
        assert not rep.ok
        assert (rep.pairs_checked, rep.failures) == cocycle_reference(bad)

    @settings(max_examples=12, deadline=None, phases=NO_SHRINK)
    @given(st.sampled_from(["s4", "b3"]), st.integers(1, 3), st.data())
    def test_prefix_columns_match_reference_on_corrupted_tables(self, name, swaps, data):
        # gamma delta is read off the table along delta's word, one prefix of
        # the words at a time; on a corrupted table a prefix need not lead
        # to the element its word names, so the columns must follow the
        # words, as the reference's products do
        bad = honest_projection(name)
        for _ in range(swaps):
            bad = swapped_table(bad, data)
        rep = cocycle_identities(bad)
        assert (rep.pairs_checked, rep.failures) == cocycle_reference(bad)
        assert rep.ok == (not rep.failures)

    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_digit_width_bounds_the_scaled_residual_on_corrupted_tables(self, data):
        # random residuals never cancel across packed digits, so a too
        # narrow width would pass the comparison with the reference; check
        # the bound on conjugates with large denominators
        p = data.draw(st.lists(st.lists(large_rationals, min_size=2, max_size=2),
                               min_size=2, max_size=2).map(m).filter(
                                   lambda a: a.rank() == a.rows))
        bad = swapped_table(invariant_projection(bn_germ(2, p)), data)
        grp, members = bad.n_group.parent, bad.n_group.members
        den = lcm(*(grp.element(i)._den for i in members))
        assume(den > 10 ** 6)
        e_hat = [[[x * (den // grp.element(i)._den) for x in row]
                  for row in grp.element(i)._num] for i in members]
        bits = germs._digit_bits(den, grp.dim, e_hat)
        assert scaled_residual_peak(bad, den) < 2 ** (bits - 1)
        rep = cocycle_identities(bad)
        assert not rep.ok
        assert (rep.pairs_checked, rep.failures) == cocycle_reference(bad)

    @pytest.mark.parametrize("den", [1, 7])
    def test_one_corrupted_member_with_own_or_shared_denominator(self, den):
        # every member of x-squared-plane is integer: a corruption over 1
        # shares the common denominator, one over 7 raises it
        proj = honest_projection("x-squared-plane")
        i = proj.n_group.members[2]
        off = Matrix([[F(3, den), 0], [F(-5, den), F(1, den)]])
        bad = with_element(proj, i, proj.n_group.parent.element(i) + off)
        rep = cocycle_identities(bad)
        assert not rep.ok
        assert (rep.pairs_checked, rep.failures) == cocycle_reference(bad)

    def test_b4_conjugate_every_pair(self):
        rep = cocycle_identities(invariant_projection(bn_germ(4)))
        assert rep.ok and rep.pairs_checked == 384 ** 2 == 147456


def swapped_table(proj, data):
    """proj over a copy of its group whose right-multiplication table has
    two entries e1, e2 of one generator's column swapped; its elements are
    kept, so each A(gamma) is still gamma - I.  The generator is one whose
    word is its own position, so the product of e1 and that generator is
    wrong.  N must be the whole group, which keeps the member set closed
    under the corrupted table."""
    grp = proj.n_group.parent
    assert proj.n_group.is_full()
    s = data.draw(st.sampled_from([s for s, g in enumerate(grp.generator_indices)
                                   if grp.words[g] == (s,)]))
    e1, e2 = data.draw(st.lists(st.integers(0, grp.order - 1), min_size=2, max_size=2,
                                unique=True))
    right = [list(row) for row in grp.right]
    right[e1][s], right[e2][s] = right[e2][s], right[e1][s]
    table = FiniteMatrixGroup(grp.dim, grp.elements, grp.generator_indices, grp.words,
                              [tuple(row) for row in right])
    return over_table(proj, table)


def with_element(proj, i, g):
    """proj over a copy of its group whose element i is the matrix g and
    whose table is kept: A(gamma) = gamma - I of that member no longer
    agrees with the products the table gives."""
    grp = proj.n_group.parent
    elements = grp.elements[:i] + (g,) + grp.elements[i + 1:]
    return over_table(proj, FiniteMatrixGroup(grp.dim, elements, grp.generator_indices,
                                              grp.words, grp.right))


def over_table(proj, table):
    """proj with its N moved to table, a copy of its group, and every other
    field kept."""
    return InvariantProjection(Subgroup(table, proj.n_group.members), proj.kernel_space,
                               proj.projection, proj.proj_kernel, proj.proj_image)


def scaled_residual_peak(proj, den):
    """The largest entry, in absolute value, of den^2 R over the residuals R
    of the three identities on every pair; each den^2 R must be integer."""
    grp = proj.n_group.parent
    amap = dict(proj.a_gamma)
    peak = 0
    for gi in proj.n_group.members:
        for di in proj.n_group.members:
            g, d = grp.element(gi), grp.element(di)
            a_gd, a_g, a_d = amap[grp.mul(gi, di)], amap[gi], amap[di]
            for r in (a_gd - a_g - g * a_d, a_gd - a_d - a_g * d,
                      a_gd - a_d - a_g - a_g * a_d):
                assert den * den % r._den == 0
                top = max(abs(x) for row in r._num for x in row)
                peak = max(peak, top * (den * den // r._den))
    return peak


def cocycle_reference(proj):
    """The per-pair loop: the three identities with small products for each
    (gamma, delta), gamma outer and delta inner."""
    grp = proj.n_group.parent
    failures = []
    pairs = 0
    amap = dict(proj.a_gamma)
    for gi in proj.n_group.members:
        for di in proj.n_group.members:
            pairs += 1
            g = grp.element(gi)
            d = grp.element(di)
            a_gd = amap[grp.mul(gi, di)]
            a_g, a_d = amap[gi], amap[di]
            if a_gd != a_g + g * a_d:
                failures.append((gi, di, "left-twisted"))
            if a_gd != a_d + a_g * d:
                failures.append((gi, di, "right-twisted"))
            if a_gd != a_d + a_g + a_g * a_d:
                failures.append((gi, di, "product"))
    return pairs, tuple(failures)


def bn_germ(n, p=None):
    """The signed permutations of n coordinates, conjugated by a rational
    matrix (p, or a fixed one), plus a trivial last coordinate, mapped to the
    trivial line by that coordinate: N is the whole group, of order 2^n n!."""
    if p is None:
        p = m([[1 if j == i else F(1, 2) if j == i + 1 and i % 2 == 0
                else F(-1, 3) if j == i + 1 else 2 if (i, j) == (n - 1, 0) else 0
                for j in range(n)] for i in range(n)])
    pinv = p.inverse()
    swap = [[int(j == (1 - i if i < 2 else i)) for j in range(n)] for i in range(n)]
    cycle = [[int(j == (i - 1) % n) for j in range(n)] for i in range(n)]
    flip = [[(-1 if i == 0 else 1) * int(i == j) for j in range(n)] for i in range(n)]
    return line_germ([p * m(g) * pinv for g in (swap, cycle, flip)])


def s4_germ():
    """The permutation matrices of four coordinates (order 24), conjugated by
    a rational matrix, as a line_germ."""
    p = m([[1, F(1, 2), 0, 0], [0, 1, F(-1, 3), 0], [0, 0, 1, 2], [F(1, 5), 0, 0, 1]])
    cycle = [[int(j == (i - 1) % 4) for j in range(4)] for i in range(4)]
    swap = [[int(j == (1 - i if i < 2 else i)) for j in range(4)] for i in range(4)]
    return line_germ([p * m(g) * p.inverse() for g in (cycle, swap)])


def line_germ(gens):
    """The group of the n x n matrices gens plus a trivial last coordinate,
    mapped to the trivial line by that coordinate: N is the whole group."""
    n = gens[0].rows
    src = build_chart(n + 1, [m([list(row) + [0] for row in g.entries] + [[0] * n + [1]])
                              for g in gens])
    line = build_chart(1, [])
    return build_germ(src, line, MultiPoly.coordinate(n + 1, n), trivial_theta(src, line))


class TestFaithfulness:
    def test_mirror_line(self):
        case = germ_case("mirror-line")
        rep = faithfulness_check(case.germ)
        assert rep.n_order == 2 and rep.intersection_trivial and rep.injective

    def test_injective_theta_vacuous(self):
        rep = faithfulness_check(germ_case("four-dim-split").germ)
        assert rep.n_order == 1 and rep.injective

    def test_recentered_sum_squares(self):
        case = germ_case("sum-squares")
        rg = recenter_germ(case.germ, [1, 0])
        rep = faithfulness_check(rg)
        assert rep.n_order == 2 and rep.injective

    def test_all_corpus(self):
        for case in germ_cases():
            rep = faithfulness_check(case.germ)
            assert rep.intersection_trivial and rep.injective

    def test_base_point_model_gives_the_same_report(self):
        # the model at the base point holds the germ's own split, and a
        # fresh copy of the germ, which computes its split anew, gives the
        # same faithfulness report
        compared = 0
        for case in germ_cases():
            if not case.regular or case.germ.base_point not in case.lifts:
                continue
            model = preimage_model(case.germ, case.p, case.germ.base_point)
            if model.germ is case.germ:
                compared += 1
                assert model.suborbifold is case.germ.base_split
                g = case.germ
                fresh = MapGerm(g.source, g.target, g.lift, g.theta, g.base_point)
                assert "base_split" not in vars(fresh)
                assert faithfulness_check(fresh) == faithfulness_check(case.germ)
        assert compared >= 5

    def test_checks_raise_under_optimize(self):
        # a split whose trivially-acting subgroup is the whole group meets N
        # beyond the identity; the check must raise with asserts stripped
        script = "\n".join([
            "import sys",
            "from orblocal import germs",
            "from orblocal.charts import SuborbifoldLocalModel",
            "from orblocal.corpus import germ_case",
            "germ = germ_case('mirror-line').germ",
            "full = germ.source.group.full_subgroup()",
            "s = germ.base_split",
            "germ.__dict__['base_split'] = SuborbifoldLocalModel(",
            "    s.chart, s.subspace, s.lambda_group, full, s.intrinsic_isotropy, s.full)",
            "try:",
            "    germs.faithfulness_check(germ)",
            "except AssertionError as e:",
            "    print(sys.flags.optimize, e)",
            "else:",
            "    print(sys.flags.optimize, 'no error')",
        ])
        src = os.path.dirname(os.path.dirname(os.path.abspath(orblocal.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "1 N meets G beyond the identity"


class TestRealTarget:
    def test_mirror_line_decomposition(self):
        case = germ_case("mirror-line")
        model = preimage_model(case.germ, [0], [0, 0])
        rep = real_target_structure(case.germ, model)
        assert rep.fixed_line == Subspace.from_vectors(2, [[1, 0]])
        assert rep.image_equals_kernel
        assert rep.stratum_dimension == 1

    def test_trivial_isotropy_vacuous(self):
        case = germ_case("trivial-line")
        model = preimage_model(case.germ, [0], [0])
        rep = real_target_structure(case.germ, model)
        assert rep.stratum_dimension is None

    def test_cycle_sum_stratum_dim(self):
        case = germ_case("cycle-sum")
        model = preimage_model(case.germ, [0], [0, 0, 0])
        rep = real_target_structure(case.germ, model)
        assert rep.gamma_order == 3
        assert rep.stratum_dimension == 1

    def test_wrong_target_shape(self):
        case = germ_case("four-dim-split")
        model = preimage_model(case.germ, case.p, case.lifts[0])
        with pytest.raises(ValueError):
            real_target_structure(case.germ, model)

    def test_checks_raise_under_optimize(self):
        # a projection kernel the mirror moves; with asserts stripped the
        # fixed-line check must still fire, on the mirror generator
        script = "\n".join([
            "import sys",
            "from orblocal import germs",
            "from orblocal.corpus import germ_case",
            "from orblocal.ratlin import Subspace",
            "germ = germ_case('mirror-line').germ",
            "model = germs.preimage_model(germ, [0], [0, 0])",
            "honest = germs.invariant_projection",
            "def moved(g):",
            "    p = honest(g)",
            "    return germs.InvariantProjection(p.n_group, p.kernel_space,",
            "        p.projection, Subspace.from_vectors(2, [[0, 1]]), p.proj_image)",
            "germs.invariant_projection = moved",
            "try:",
            "    germs.real_target_structure(germ, model)",
            "except AssertionError as e:",
            "    print(sys.flags.optimize, e)",
            "else:",
            "    print(sys.flags.optimize, 'no error')",
        ])
        src = os.path.dirname(os.path.dirname(os.path.abspath(orblocal.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "1 fixed line is moved by element 1"


class TestObstruction:
    def test_z2_to_line_impossible(self, c):
        line = c["line-trivial"]
        cert = obstruction_certificate(c["line-z2"], line,
                                       trivial_theta(c["line-z2"], line))
        assert cert.verdict == "impossible"
        assert cert.reason_code == "kernel_on_point"

    def test_quarter_plane_to_plane_impossible(self, c):
        plane = c["plane-trivial"]
        cert = obstruction_certificate(c["quarter-plane"], plane,
                                       trivial_theta(c["quarter-plane"], plane))
        assert cert.verdict == "impossible"
        assert cert.reason_code == "kernel_on_point"

    def test_rotation_drop_impossible(self, c):
        line = c["line-trivial"]
        cert = obstruction_certificate(c["rotation-3"], line,
                                       trivial_theta(c["rotation-3"], line))
        assert cert.verdict == "impossible"
        assert cert.reason_code == "no_invariant_kernel"
        assert cert.invariant_search.status == "certified_none"

    def test_mirror_possible_with_witness(self, c):
        line = c["line-trivial"]
        cert = obstruction_certificate(c["mirror-plane"], line,
                                       trivial_theta(c["mirror-plane"], line))
        assert cert.verdict == "possible"
        assert cert.witness_lift is not None
        # the witness is a verified germ with surjective differential at 0
        germ = build_germ(c["mirror-plane"], line, cert.witness_lift,
                          trivial_theta(c["mirror-plane"], line))
        assert germ.lift.jacobian_at([0, 0]).rank() == 1

    def test_equal_dims_injective_theta_possible(self, c):
        qline = c["line-z2"]
        theta = verify_homomorphism(qline.group, qline.group, [m([[-1]])])
        cert = obstruction_certificate(qline, qline, theta)
        assert cert.verdict == "possible"

    def test_kernel_computed_once(self, c):
        line = c["line-trivial"]
        with mock.patch.object(germs, "kernel_of", wraps=germs.kernel_of) as spy:
            cert = obstruction_certificate(c["line-z2"], line,
                                           trivial_theta(c["line-z2"], line))
        assert cert.detail.endswith("kernel of order 2 would have to act "
                                    "effectively and faithfully on it")
        assert spy.call_count == 1

    def test_candidates_in_eager_order(self):
        rng = random.Random(5)
        basis = [Matrix([[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
                         for _ in range(2)]) for _ in range(3)]
        want = list(basis)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                want.append(basis[i] + basis[j])
        draws = random.Random(271828)
        for _ in range(50):
            comb = Matrix.zero(2, 3)
            for b in basis:
                comb = comb + b.scale(F(draws.randint(-3, 3)))
            want.append(comb)
        assert list(germs._linear_candidates(basis, 2, 3)) == want

    def test_empty_basis_draws_no_combination(self):
        # the reflections in the three coordinate planes, to the trivial
        # line: an invariant hyperplane exists, but no nonzero invariant
        # covector, so every combination of the empty basis is zero
        src = build_chart(3, [m([[-1 if i == j == k else int(i == j) for j in range(3)]
                                 for i in range(3)]) for k in range(3)])
        line = build_chart(1, [])
        assert list(germs._linear_candidates([], 1, 3)) == [Matrix.zero(1, 3)]
        with mock.patch.object(germs.random, "Random",
                               side_effect=AssertionError("combination drawn")):
            cert = obstruction_certificate(src, line, trivial_theta(src, line))
        assert (cert.verdict, cert.reason_code, cert.detail) == (
            "unknown", "inconclusive",
            "no obstruction fired and no linear witness was found")

    def test_basis_witness_draws_no_combination(self, c):
        # the first basis element is already surjective, so no random
        # combination is built
        line = c["line-trivial"]
        with mock.patch.object(germs.random, "Random",
                               side_effect=AssertionError("combination drawn")):
            cert = obstruction_certificate(c["mirror-plane"], line,
                                           trivial_theta(c["mirror-plane"], line))
        assert cert.verdict == "possible"


class TestSard:
    def test_square_density(self):
        case = germ_case("z2-square")
        rep = sard_sample(case.germ, [(-2, 2)], 10000, 42)
        assert rep.regular_fraction >= F(999, 1000)
        for v in rep.critical_values:
            assert v == (F(0),)

    def test_determinism(self):
        case = germ_case("z2-square")
        a = sard_sample(case.germ, [(-2, 2)], 3000, 7)
        b = sard_sample(case.germ, [(-2, 2)], 3000, 7)
        assert json.dumps(a.to_jsonable(), sort_keys=True) == \
            json.dumps(b.to_jsonable(), sort_keys=True)

    def test_seed_changes_samples(self):
        case = germ_case("z2-square")
        a = sard_sample(case.germ, [(-2, 2)], 100, 1)
        b = sard_sample(case.germ, [(-2, 2)], 100, 2)
        assert a.seed != b.seed

    def test_linear_always_regular(self):
        case = germ_case("mirror-line")
        rep = sard_sample(case.germ, [(-2, 2)], 2000, 9)
        assert rep.regular_fraction == 1

    def test_constant_lift(self):
        case = germ_case("z2-constant")
        rep = sard_sample(case.germ, [(-2, 2)], 2000, 9)
        assert rep.regular_fraction >= F(999, 1000)
        # a box pinned near 0 snaps to the single critical value
        pinched = sard_sample(case.germ, [(F(-1, 10 ** 8), F(1, 10 ** 8))], 10, 3)
        assert pinched.regular_fraction == 0
        assert pinched.critical_values == ((F(0),),)

    def test_cubic_critical_values(self, c):
        line = c["line-trivial"]
        cubic = build_germ(line, line, MultiPoly(1, [{(3,): F(1), (1,): F(-3)}]),
                           trivial_theta(line, line))
        pinched = sard_sample(cubic, [(F(2) - F(1, 10 ** 8), F(2) + F(1, 10 ** 8))],
                              10, 3)
        assert pinched.critical_values == ((F(2),),)

    def test_non_separable_rejected(self, c):
        case = germ_case("sum-squares")
        with pytest.raises(UnsupportedLift):
            sard_sample(case.germ, [(-2, 2)], 10, 0)

    def test_box_shape_enforced(self):
        case = germ_case("z2-square")
        with pytest.raises(ValueError):
            sard_sample(case.germ, [(-2, 2), (-2, 2)], 10, 0)

    @pytest.mark.parametrize("samples", [0, -5])
    def test_samples_below_one_rejected(self, samples):
        case = germ_case("z2-square")
        with pytest.raises(ValueError, match="at least 1"):
            sard_sample(case.germ, [(-2, 2)], samples, 0)

    @pytest.mark.parametrize("box, reason", [
        ([(2, -2)], "empty interval"),
        ([(1, 1)], "empty interval"),
        # finite floats, infinite once snapped
        ([(F("1e308"), F("1.7e308"))], "not a finite float"),
        # too large for a float at all
        ([(F(-(10 ** 400)), F(0))], "not a finite float"),
    ])
    def test_bad_interval_rejected(self, box, reason):
        case = germ_case("z2-square")
        with pytest.raises(ValueError, match=reason):
            sard_sample(case.germ, box, 5, 1)

    @pytest.mark.parametrize("coeffs, box", [
        # float ends equal, so the width is 0.0 and every draw snaps alike
        ([F(0), F(0), F(1)], (F(0), F(1, 10 ** 400))),
        ([F(0), F(0), F(1)], (F(1, 3), F(1, 3) + F(1, 10 ** 30))),
        ([F(0)], (F(-1, 10 ** 400), F(1, 10 ** 400))),
        # ends at half-grid points (n + 1/2) / D around a critical value n / D
        ([F(0), F(0), F(1)], (F(-1, 2 * SNAP_DENOMINATOR), F(1, 2 * SNAP_DENOMINATOR))),
        ([F(1, SNAP_DENOMINATOR), F(0), F(1)],
         (F(1, 2 * SNAP_DENOMINATOR), F(3, 2 * SNAP_DENOMINATOR))),
        ([F(2, SNAP_DENOMINATOR), F(0), F(1)],
         (F(3, 2 * SNAP_DENOMINATOR), F(5, 2 * SNAP_DENOMINATOR))),
        ([F(1, SNAP_DENOMINATOR)], (F(1, 2 * SNAP_DENOMINATOR), F(3, 2 * SNAP_DENOMINATOR))),
        # a critical value exactly at lo, at hi, and at both ends (x^3 - 3x)
        ([F(3, SNAP_DENOMINATOR), F(0), F(1)],
         (F(3, SNAP_DENOMINATOR), F(3, SNAP_DENOMINATOR) + F(1, 10 ** 4))),
        ([F(3, SNAP_DENOMINATOR), F(0), F(1)],
         (F(3, SNAP_DENOMINATOR) - F(1, 10 ** 4), F(3, SNAP_DENOMINATOR))),
        ([F(1, 4)], (F(1, 4), F(1, 4) + F(1, 10 ** 4))),
        ([F(1, 4)], (F(1, 4) - F(1, 10 ** 4), F(1, 4))),
        ([F(0), F(-3), F(0), F(1)], (F(2), F(2) + F(1, 10 ** 4))),
        ([F(0), F(-3), F(0), F(1)], (F(-2), F(2))),
    ])
    @pytest.mark.parametrize("samples, seed", [(7, 1), (600, 5), (2000, 8)])
    def test_window_edges_match_fraction_loop(self, coeffs, box, samples, seed):
        germ = separable_germ([coeffs])
        assert sard_sample(germ, [box], samples, seed) == \
            sard_reference(germ, [box], samples, seed)

    @pytest.mark.parametrize("coeffs", [[F(0), F(0), F(1)], [F(10 ** 299), F(0), F(1)],
                                        [F(0), F(-3), F(0), F(1)]])
    def test_huge_box_matches_fraction_loop(self, coeffs):
        """A box of +-10^300, far wider than the Cauchy bound on the
        critical values, with a few samples."""
        germ = separable_germ([coeffs])
        box = [(-(10 ** 300), 10 ** 300)]
        assert sard_sample(germ, box, 9, 2) == sard_reference(germ, box, 9, 2)

    def test_half_grid_box_snaps_to_its_critical_value(self):
        # +-(1/2) / D times D is +-0.5 and rounds half to even: every draw
        # snaps to 0, the critical value of x^2
        half = F(1, 2 * SNAP_DENOMINATOR)
        rep = sard_sample(separable_germ([[F(0), F(0), F(1)]]), [(-half, half)], 300, 4)
        assert rep.regular_count == 0 and rep.critical_values == ((F(0),),)

    @pytest.mark.parametrize("coeffs", [None, [F(1, 3)]])
    def test_no_window_draws_nothing(self, coeffs):
        """A linear lift has no critical value, and a constant off the snap
        grid is never sampled: no sample can be critical, so nothing is
        drawn."""
        germ = germ_case("mirror-line").germ if coeffs is None else separable_germ([coeffs])
        with mock.patch.object(germs.random, "Random",
                               side_effect=AssertionError("drew a sample")):
            rep = sard_sample(germ, [(-2, 2)], 5000, 3)
        assert rep.regular_count == 5000 and rep.critical_values == ()

    def test_linear_lift_at_a_billion_samples(self):
        rep = sard_sample(germ_case("mirror-line").germ, [(-2, 2)], 10 ** 9, 0)
        assert rep.regular_count == 10 ** 9 and rep.critical_values == ()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-40, 40), max_size=3),
           st.sampled_from([[F(1)], [F(1), F(0), F(1)], [F(-2), F(0), F(1)],
                            [F(-1, 3), F(1)], [F(0), F(1)]]),
           st.integers(-60, 20), st.integers(0, 80))
    def test_grid_roots_are_the_grid_factors(self, grid, other, n_lo, span):
        """res = prod (p - n_i / D) * other, with repeated grid roots and a
        factor that has no grid root (1, p^2 + 1, p^2 - 2, p - 1/3) or the
        grid root 0: the roots in range, once each."""
        res = list(other)
        for n in grid:
            res = ref_mul(res, [F(-n, SNAP_DENOMINATOR), F(1)])
        want = {n for n in grid if n_lo <= n <= n_lo + span}
        if other == [F(0), F(1)] and n_lo <= 0 <= n_lo + span:
            want.add(0)
        assert germs._grid_roots(poly_int(res), n_lo, n_lo + span) == sorted(want)

    @pytest.mark.parametrize("dims", [1, 2])
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_chunks_match_fraction_loop(self, dims, data):
        """Sample counts that end on, just before and just after a chunk
        boundary, several chunks in, for the real chunk size and tiny ones."""
        chunk = data.draw(st.sampled_from([1, 3, SARD_CHUNK]))
        coords = data.draw(st.lists(sard_coordinates(), min_size=dims, max_size=dims))
        box = [data.draw(sard_interval(centre)) for _, centre in coords]
        germ = separable_germ([terms for terms, _ in coords])
        samples = data.draw(st.one_of(
            st.sampled_from([q * chunk + d for q in (1, 2, 3) for d in (-1, 0, 1)
                             if q * chunk + d >= 1]),
            st.integers(chunk + 1, 3 * chunk + 1)))
        seed = data.draw(st.integers(0, 2 ** 16))
        with mock.patch.object(germs, "SARD_CHUNK", chunk):
            got = sard_sample(germ, box, samples, seed)
        assert got == sard_reference(germ, box, samples, seed)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_integer_filter_matches_fraction_loop(self, data):
        coords = data.draw(st.lists(sard_coordinates(), min_size=1, max_size=2))
        box = [data.draw(sard_interval(centre)) for _, centre in coords]
        germ = separable_germ([terms for terms, _ in coords])
        samples = data.draw(st.integers(1, 40))
        seed = data.draw(st.integers(0, 2 ** 16))
        assert sard_sample(germ, box, samples, seed) == \
            sard_reference(germ, box, samples, seed)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 42, 2 ** 32 + 7])
    def test_lane_decoding_is_random(self, k, seed):
        """A window holding every draw returns the draws of the first 10^4
        samples, and N * 2^-53 is random() bit for bit: getrandbits fills
        its integer with the same Mersenne Twister words, low word first."""
        m = 10 ** 4 // k
        test = germs._lane_test(m, [[(0, 1 << 53)]] * k, list(range(k)), False)
        draws = test(random.Random(seed).getrandbits(64 * m * k), m)
        rnd = random.Random(seed).random
        assert [n * 2.0 ** -53 for sample in draws for n in sample] == \
            [rnd() for _ in range(m * k)]

    @pytest.mark.parametrize("a, b", [
        (0, 1), (0, 1 << 26), (0, 1 << 53), (1, 2), ((1 << 53) - 1, 1 << 53),
        (5 << 26, 6 << 26), ((5 << 26) - 1, (6 << 26) + 1), ((7 << 26) + 3, (7 << 26) + 9),
        (4503598501470590, 4503600753270403), (123456789012345, 987654321098765)])
    @pytest.mark.parametrize("k, every", [(1, False), (2, False), (2, True)])
    def test_lane_test_window_edges(self, a, b, k, every):
        """Draws at N = A - 1, A, B - 1 and B of a window [A, B), with random
        discarded low bits in both words, written straight into the lanes:
        only A and B - 1 are hits.  With k = 2, coordinate 1 holds a window
        that every draw or none hits, and samples past m are padding."""
        rng = random.Random(a ^ b)

        def lane(n):
            return (n >> 26 << 5 | rng.getrandbits(5)) | \
                ((n & (1 << 26) - 1) << 6 | rng.getrandbits(6)) << 32

        edges = [n for n in (a - 1, a, b - 1, b) if 0 <= n < 1 << 53]
        for other in ([(0, 1 << 53)], [(0, 1)]) if k == 2 else ([],):
            draws = [[n, (1 << 53) - 1][:k] for n in edges]
            g = sum(lane(n) << 64 * t for t, n in enumerate(x for d in draws for x in d))
            windows = [[(a, b)], other][:k]
            live = [j for j in range(k) if windows[j]]
            test = germs._lane_test(len(draws) + 3, windows, live, every)
            want = [d for d in draws
                    if (all if every else any)(lo <= d[j] < hi for j in live
                                               for lo, hi in windows[j])]
            assert test(g, len(draws)) == want

    @pytest.mark.parametrize("chunk", [1, 3, SARD_CHUNK])
    @pytest.mark.parametrize("const, box", [
        (F(0), (F(-1, 10 ** 8), F(1, 10 ** 8))),  # every sample snaps to the constant
        (F(0), (F(-1, SNAP_DENOMINATOR), F(3, SNAP_DENOMINATOR))),  # about one in four
        (F(1, 3), (F(-2), F(2))),  # off the grid: never sampled
    ])
    def test_constant_and_polynomial_coordinates(self, chunk, const, box):
        """k = 2: a constant coordinate and x^3 - 3x, whose critical values
        are +-2: a sample is critical when the constant is hit and the cubic
        coordinate has a real solution."""
        germ = separable_germ([[const], [F(0), F(-3), F(0), F(1)]])
        for poly_box in [(F(-3), F(3)), (F(2) - F(1, 10 ** 6), F(2) + F(1, 10 ** 6))]:
            with mock.patch.object(germs, "SARD_CHUNK", chunk):
                got = sard_sample(germ, [box, poly_box], 2500, 11)
            assert got == sard_reference(germ, [box, poly_box], 2500, 11)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=7),
                    min_size=2, max_size=9).filter(lambda cs: cs[-1] != 0))
    def test_critical_value_poly_is_a_multiple_of_the_resultant(self, coeffs):
        """Stickelberger: for f of degree 1 to 8, the characteristic
        polynomial of multiplication by f on Q[x]/(f') is a nonzero multiple
        of Res_x(f - p, f')."""
        den = lcm(*(c.denominator for c in coeffs))
        got = _critical_value_poly([int(c * den) for c in coeffs], den)
        want = reference_critical_value_resultant(coeffs)
        assert len(got) == len(want) and want[-1] != 0
        scale = got[-1] / want[-1]
        assert scale != 0 and got == [scale * c for c in want]


def sard_reference(germ, box, samples, seed):
    """The per-sample Fraction loop that sard_sample ran before its draw
    windows: every sample is drawn with random.uniform, becomes a Fraction
    tuple and goes through reference_classify_sample, with each coordinate's
    critical values from reference_critical_value_resultant."""
    box = tuple((F(lo), F(hi)) for lo, hi in box)
    coords = []
    for coord in _separable_coordinates(germ.lift):
        if coord[0] == "poly":
            coeffs = [F(c, coord[3]) for c in coord[2]]
            coord = ("poly", coord[1], coeffs, ref_derivative(coeffs),
                     reference_critical_value_resultant(coeffs))
        coords.append(coord)
    fbox = [(float(lo), float(hi)) for lo, hi in box]
    rng = random.Random(seed)
    regular_count = 0
    critical = set()
    for _ in range(samples):
        p = tuple(F(round(rng.uniform(lo, hi) * SNAP_DENOMINATOR), SNAP_DENOMINATOR)
                  for lo, hi in fbox)
        if reference_classify_sample(coords, p):
            regular_count += 1
        else:
            critical.add(p)
    return SardReport(samples=samples, seed=seed, box=box, regular_count=regular_count,
                      critical_values=tuple(sorted(critical)))


def reference_sylvester_resultant(a, b):
    """Res(a, b) as the determinant of the Sylvester matrix."""
    m, n = ref_deg(a), ref_deg(b)
    size = m + n
    rows = []
    ra, rb = list(reversed(a)), list(reversed(b))
    for i in range(n):
        rows.append([F(0)] * i + ra + [F(0)] * (size - m - 1 - i))
    for j in range(m):
        rows.append([F(0)] * j + rb + [F(0)] * (size - n - 1 - j))
    return Matrix(rows).det()


def reference_critical_value_resultant(coeffs):
    """Res_x(f - p, f') as a polynomial in p, by Sylvester determinants at
    deg f' + 1 integer points and Lagrange interpolation."""
    deriv = ref_derivative(coeffs)
    if ref_deg(deriv) < 1:
        return [F(1)]
    xs = list(range(ref_deg(deriv) + 1))
    ys = []
    for t in xs:
        shifted = list(coeffs)
        shifted[0] = shifted[0] - t
        ys.append(reference_sylvester_resultant(ref_trim(shifted), deriv))
    return reference_lagrange_interpolate(xs, ys) or [F(0)]


def reference_lagrange_interpolate(xs, ys):
    """The polynomial of degree < len(xs) through the points (xs[i], ys[i])."""
    out = []
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        term = [F(yi)]
        for j, xj in enumerate(xs):
            if j != i:
                term = [c / (xi - xj) for c in ref_mul(term, [F(-xj), F(1)])]
        out = ref_add(out, term)
    return out


def reference_classify_sample(coords, p):
    """True iff p is a regular value of a separable lift, decided in three
    passes: the resultant filter, the gcd and Sturm check for a real
    critical point, then the real-solution checks of the other
    coordinates."""
    capable = []
    for coord, pj in zip(coords, p):
        if coord[0] == "const":
            if coord[1] != pj:
                return True  # constant coordinate misses pj: empty preimage
            capable.append((coord, pj, True))
        elif ref_eval(coord[4], pj) == 0:
            capable.append((coord, pj, False))
    if not capable:
        return True
    critical_real = False
    nonempty_checks = []
    for coord, pj, is_const in capable:
        if is_const:
            critical_real = True  # zero Jacobian row on a full solution set
            continue
        _, _, coeffs, deriv, _ = coord
        shifted = list(coeffs)
        shifted[0] = shifted[0] - pj
        ref_trim(shifted)
        g = ref_gcd(shifted, deriv)
        if ref_deg(g) >= 1 and has_real_root(poly_int(g)):
            critical_real = True
        else:
            nonempty_checks.append(shifted)
    if not critical_real:
        return True
    for coord, pj in zip(coords, p):
        if coord[0] == "poly" and ref_eval(coord[4], pj) != 0:
            shifted = list(coord[2])
            shifted[0] = shifted[0] - pj
            ref_trim(shifted)
            if ref_deg(shifted) < 1 or not has_real_root(poly_int(shifted)):
                return True
    return any(ref_deg(s) < 1 or not has_real_root(poly_int(s)) for s in nonempty_checks)


small_rationals = st.fractions(min_value=-2, max_value=2, max_denominator=7)
nonzero_rationals = small_rationals.filter(lambda x: x != 0)
# values on the snap grid, many of them with a reduced denominator below 10^6,
# and off it (denominators 3 and 7 do not divide 10^6)
grid_values = st.one_of(
    st.integers(-2 * SNAP_DENOMINATOR, 2 * SNAP_DENOMINATOR).map(
        lambda k: F(k, SNAP_DENOMINATOR)),
    st.builds(lambda k, e: F(k, 10 ** e), st.integers(-20, 20), st.integers(0, 6)))
off_grid_values = st.sampled_from([F(1, 3), F(-2, 3), F(5, 7), F(-1, 21)])


@st.composite
def sard_coordinates(draw):
    """(coefficients from degree 0 up, a value to centre a box on): a
    constant, a linear map, or s * (x - a)^2 * g(x) + v with deg g <= 2,
    whose critical value v lies on the snap grid."""
    kind = draw(st.sampled_from(["const", "poly"]))
    if kind == "const":
        value = draw(st.one_of(grid_values, off_grid_values, st.just(F(0))))
        return [value], value
    deg = draw(st.integers(1, 4))
    if deg == 1:
        coeffs = [draw(small_rationals), draw(nonzero_rationals)]
        return coeffs, coeffs[0]
    a, s, v = draw(small_rationals), draw(nonzero_rationals), draw(grid_values)
    g = [draw(small_rationals) for _ in range(deg - 2)] + [s]
    coeffs = ref_add(ref_mul(ref_mul([-a, F(1)], [-a, F(1)]), g), [v])
    return ref_trim(coeffs), v


def sard_interval(centre):
    """A wide interval, or a narrow one around centre, or around centre
    moved half a grid step, that the snap grid meets in a few points or
    only one; half-grid ends are where round-half-even decides."""
    half_step = F(1, 2 * SNAP_DENOMINATOR)
    half = st.sampled_from([F(1, 10 ** 8), F(1, SNAP_DENOMINATOR), F(3, SNAP_DENOMINATOR),
                            half_step, 3 * half_step])
    shift = st.sampled_from([F(0), half_step, -half_step])
    return st.one_of(st.just((F(-2), F(2))),
                     st.builds(lambda h, s: (centre + s - h, centre + s + h), half, shift))


def separable_germ(coord_coeffs):
    """A germ between trivial charts whose output j is coord_coeffs[j] in
    variable j (a constant uses no variable)."""
    n = len(coord_coeffs)
    chart = charts()["line-trivial" if n == 1 else "plane-trivial"]
    outputs = []
    for j, coeffs in enumerate(coord_coeffs):
        outputs.append({tuple(k if i == j else 0 for i in range(n)): c
                        for k, c in enumerate(coeffs) if c != 0})
    return build_germ(chart, chart, MultiPoly(n, outputs), trivial_theta(chart, chart))


class TestLiftReplacement:
    def test_identity_eta(self):
        case = germ_case("z2-identity")
        rep = lift_replacement_invariance(case.germ, Matrix.identity(1))
        assert rep.companion.lift == case.germ.lift

    def test_negation_eta(self):
        case = germ_case("z2-identity")
        rep = lift_replacement_invariance(case.germ, m([[-1]]))
        assert rep.kernels_equal and rep.n_unchanged
        assert rep.companion.lift.coords[0] == (((1,), F(-1)),)

    def test_all_corpus_all_etas(self):
        for case in germ_cases():
            for eta in case.germ.target.group.elements:
                rep = lift_replacement_invariance(case.germ, eta)
                assert rep.kernels_equal and rep.n_unchanged


class TestRecenterAndPullback:
    def test_recenter_reduces_group(self):
        case = germ_case("z2-square")
        rg = recenter_germ(case.germ, [1])
        assert rg.source.group.is_trivial()
        assert rg.lift.eval([0]) == (F(1),)

    def test_recenter_keeps_fixed_point_group(self):
        case = germ_case("sum-squares")
        rg = recenter_germ(case.germ, [0, 1])
        assert rg.source.group.order == 2

    def test_recenter_boundary_interior_drops_flag(self):
        case = germ_case("half-plane-mirror-height")
        rg = recenter_germ(case.germ, [0, 1])
        assert not rg.source.boundary

    def test_recenter_on_boundary_keeps_flag(self):
        case = germ_case("half-plane-edge")
        rg = recenter_germ(case.germ, [0, 0])
        assert rg.source.boundary

    @pytest.mark.parametrize("name,point", [
        ("sum-squares", [1, 0]),
        ("dihedral-radial", [1, 1]),
        ("dihedral-radial", [0, 0]),
        # P e1 for the conjugating matrix P of bn_germ(3): its isotropy is
        # the conjugate of the order-8 stabilizer of e1
        ("b3", [1, 0, 2, 5]),
        ("b3", [0, 0, 0, 1]),  # the whole group
    ])
    def test_recentered_group_is_the_isotropy(self, name, point):
        germ = bn_germ(3) if name == "b3" else germ_case(name).germ
        iso = isotropy_at(germ.source, point)
        rg = recenter_germ(germ, point)
        members = {iso.parent.element(i) for i in iso.members}
        assert set(rg.source.group.elements) == members
        assert rg.source.group.order == iso.order

    def test_recentered_group_matches_generate_closure(self):
        # the isotropy group closed on the chart group's table is the group
        # generate_closure builds from the same generator matrices
        def same_closure(chart, point):
            iso = isotropy_at(chart, point)
            gens = iso.generators or (0,)
            got = close_in(chart.group, gens)
            want = generate_closure(chart.dim, [chart.group.element(i) for i in gens])
            assert got.elements == want.elements
            assert got.words == want.words
            assert got.right == want.right
            assert got.generator_indices == want.generator_indices
            return iso.order

        orders = []
        for doc in builtin_documents().values():
            if doc["kind"] == "germ":
                germ, _, lifts = parse_germ_payload(doc["payload"], "$")
                orders += [same_closure(germ.source, pt)
                           for pt in lifts if pt != germ.base_point]
        assert len(orders) >= 5 and max(orders) > 1
        # points on the strata of a rational conjugate of B3 (+) a line: the
        # sum of each fixed space's basis, and a combination with other weights
        chart = bn_germ(3).source
        orders = set()
        for s in stratify(chart).strata:
            for weights in ((1, 1, 1, 1), (F(1, 2), -3, F(7, 5), 2)):
                point = [sum(w * b[j] for w, b in zip(weights, s.fixed_space.basis))
                         for j in range(chart.dim)]
                orders.add(same_closure(chart, point))
        assert orders == {1, 2, 4, 6, 8, 48}

    def test_pullback_through_embedding(self, c):
        mirror, qp = c["mirror-plane"], c["quarter-plane"]
        theta = verify_homomorphism(mirror.group, qp.group,
                                    [m([[1, 0], [0, -1]])])
        emb = verify_embedding(ChartEmbedding(
            mirror, qp, Matrix.identity(2), (F(1), F(0)), theta))
        pulled = pull_back_germ(germ_case("sum-squares").germ, emb)
        assert pulled.source is mirror
        assert pulled.lift.eval([0, 0]) == (F(1),)
        # still a valid germ: rebuilding verifies equivariance
        build_germ(pulled.source, pulled.target, pulled.lift, pulled.theta)

    def test_pullback_wrong_chart_rejected(self, c):
        mirror, qp = c["mirror-plane"], c["quarter-plane"]
        theta = verify_homomorphism(mirror.group, qp.group,
                                    [m([[1, 0], [0, -1]])])
        emb = verify_embedding(ChartEmbedding(
            mirror, qp, Matrix.identity(2), (F(1), F(0)), theta))
        with pytest.raises(ValueError):
            pull_back_germ(germ_case("mirror-line").germ, emb)


@functools.cache
def conjugate_germ(name):
    """The analyze germ of tests/test_golden.py for a rational conjugate of
    the named group (+) a trivial line."""
    doc = conjugate_documents(name)["analyze"]
    return parse_germ_payload(doc["payload"], "$.payload")[0]


def centered_reference(germ, point):
    """_is_centered as Fraction vectors test it."""
    return all(g.apply(point) == point for g in germ.source.group.generators)


@st.composite
def centering_points(draw):
    """(group, point): a point on a stratum of the chart, with weights on its
    fixed space's basis, or any point, with 30-digit denominators now and
    then, or the zero point."""
    name = draw(st.sampled_from(["B3", "S4", "D12"]))
    chart = conjugate_germ(name).source
    n = chart.dim
    q = st.builds(F, st.integers(-10 ** 30, 10 ** 30),
                  st.one_of(st.integers(1, 9), st.integers(10 ** 29, 10 ** 30)))
    how = draw(st.sampled_from(["stratum", "stratum", "any", "zero"]))
    if how == "zero":
        return name, (F(0),) * n
    if how == "any":
        return name, tuple(draw(st.lists(q, min_size=n, max_size=n)))
    strata = stratify(chart).strata
    basis = draw(st.sampled_from(strata)).fixed_space.basis
    weights = draw(st.lists(q, min_size=len(basis), max_size=len(basis)))
    return name, tuple(sum((w * b[j] for w, b in zip(weights, basis)), F(0))
                       for j in range(n))


class TestCentering:
    """_is_centered on integer rows answers as Matrix.apply on Fractions does."""

    @settings(max_examples=300, deadline=None)
    @given(centering_points())
    def test_matches_fraction_reference(self, case):
        name, point = case
        germ = conjugate_germ(name)
        assert germs._is_centered(germ, point) == centered_reference(germ, point)

    @pytest.mark.parametrize("name", ["B3", "S4", "D12"])
    def test_fixed_and_moved_points(self, name):
        # a point is fixed by the group exactly when it lies in the fixed
        # space of the stratum whose isotropy is the whole group
        germ = conjugate_germ(name)
        strata = stratify(germ.source).strata
        order = germ.source.group.order
        everywhere = next(s.fixed_space for s in strata if s.isotropy.order == order)
        big = F(7, 10 ** 30 + 1)
        points = [(F(0),) * germ.source.dim]
        for s in strata:
            basis = s.fixed_space.basis
            points += [tuple(big * x for x in basis[0]),
                       tuple(sum((big * k * b[j] for k, b in enumerate(basis, 1)), F(0))
                             for j in range(germ.source.dim))]
        seen = set()
        for point in points:
            want = everywhere.contains(point)
            assert germs._is_centered(germ, point) == centered_reference(germ, point) == want
            seen.add(want)
        assert seen == {True, False}

    @pytest.mark.parametrize("length", [0, 3, 6])
    def test_wrong_length_raises(self, length):
        germ = conjugate_germ("S4")  # a chart of dimension 5
        point = (F(1, 10 ** 30),) * length
        with pytest.raises(ValueError, match="vector length %d does not match 5 columns"
                           % length):
            germs._is_centered(germ, point)
        with pytest.raises(ValueError, match="vector length %d does not match 5 columns"
                           % length):
            centered_reference(germ, point)


class TestKernelSplit:
    def test_g_normal_and_effective(self):
        for case in germ_cases():
            split = case.germ.base_split
            assert split.omega.is_normal()
            grp = case.germ.source.group
            for coset in range(1, split.intrinsic_isotropy.order):
                rep = grp.element(split.intrinsic_isotropy.representative(coset))
                assert not split.subspace.fixed_pointwise_by(rep) or split.subspace.is_zero()
