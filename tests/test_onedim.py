import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

import orblocal
from orblocal.germs import preimage_model
from orblocal.corpus import charts, germ_case
from orblocal.onedim import (
    BOUNDARY,
    GLUE,
    INTERVAL,
    LOOP,
    MIRROR,
    AssemblyEnd,
    AssemblyError,
    AssemblyPiece,
    OneOrbifoldComponent,
    RetractionScenario,
    TheoremHypothesisError,
    assemble_components,
    boundary_parity,
    classify_1_orbifold,
    forbidden_index2_check,
    no_retraction_hypothesis,
    piece_from_model,
    retraction_contradiction,
)


class TestClassify:
    @pytest.mark.parametrize("component,expected", [
        (OneOrbifoldComponent(LOOP), "a"),
        (OneOrbifoldComponent(INTERVAL, (BOUNDARY, BOUNDARY)), "b"),
        (OneOrbifoldComponent(INTERVAL, (BOUNDARY, MIRROR)), "c"),
        (OneOrbifoldComponent(INTERVAL, (MIRROR, MIRROR)), "d"),
    ])
    def test_four_types(self, component, expected):
        assert classify_1_orbifold(component) == expected

    def test_loop_with_ends_rejected(self):
        with pytest.raises(ValueError):
            OneOrbifoldComponent(LOOP, (BOUNDARY,))

    def test_interval_needs_two_ends(self):
        with pytest.raises(ValueError):
            OneOrbifoldComponent(INTERVAL, (BOUNDARY,))


class TestPieces:
    def test_boundary_model_piece(self):
        case = germ_case("half-plane-edge")
        model = preimage_model(case.germ, case.p, case.lifts[0])
        piece = piece_from_model("edge", model, ["t"], chart_index=1)
        kinds = sorted(e.kind for e in piece.ends)
        assert kinds == [BOUNDARY, GLUE]

    def test_mirror_model_piece(self):
        case = germ_case("mirror-line")
        model = preimage_model(case.germ, case.p, case.lifts[0])
        piece = piece_from_model("mirror", model, ["t"])
        kinds = sorted(e.kind for e in piece.ends)
        assert kinds == [GLUE, MIRROR]

    def test_regular_model_piece_two_free_ends(self):
        case = germ_case("trivial-line")
        # 1-dim preimage needs a 2d source; use the recentered sum of squares
        from orblocal.germs import recenter_germ
        rg = recenter_germ(germ_case("rotation-saddle").germ, (F(1), F(0)))
        model = preimage_model(rg, (F(1),), (F(0), F(0)))
        piece = piece_from_model("arc", model, ["a", "b"])
        assert all(e.kind == GLUE for e in piece.ends)

    def test_wrong_dim_rejected(self):
        case = germ_case("four-dim-split")
        model = preimage_model(case.germ, case.p, case.lifts[0])
        with pytest.raises(ValueError):
            piece_from_model("bad", model, ["a", "b"])

    def test_token_count_enforced(self):
        case = germ_case("mirror-line")
        model = preimage_model(case.germ, case.p, case.lifts[0])
        with pytest.raises(ValueError):
            piece_from_model("mirror", model, ["a", "b"])


def arc(name, *ends):
    return AssemblyPiece(name, tuple(ends))


class TestAssembly:
    def test_two_boundary_arcs_make_interval(self):
        comps = assemble_components([
            arc("w", AssemblyEnd(BOUNDARY), AssemblyEnd(GLUE, token="t")),
            arc("e", AssemblyEnd(GLUE, token="t"), AssemblyEnd(BOUNDARY)),
        ])
        assert len(comps) == 1
        assert classify_1_orbifold(comps[0].component) == "b"

    def test_mirror_and_boundary_make_type_c(self):
        comps = assemble_components([
            arc("m", AssemblyEnd(MIRROR, isotropy_order=2),
                AssemblyEnd(GLUE, token="t")),
            arc("b", AssemblyEnd(GLUE, token="t"), AssemblyEnd(BOUNDARY)),
        ])
        assert classify_1_orbifold(comps[0].component) == "c"

    def test_loop_from_cycle(self):
        comps = assemble_components([
            arc("n", AssemblyEnd(GLUE, token="e"), AssemblyEnd(GLUE, token="w")),
            arc("s", AssemblyEnd(GLUE, token="w"), AssemblyEnd(GLUE, token="e")),
        ])
        assert classify_1_orbifold(comps[0].component) == "a"

    def test_multiple_components(self):
        comps = assemble_components([
            arc("n", AssemblyEnd(GLUE, token="e"), AssemblyEnd(GLUE, token="w")),
            arc("s", AssemblyEnd(GLUE, token="w"), AssemblyEnd(GLUE, token="e")),
            arc("i", AssemblyEnd(BOUNDARY), AssemblyEnd(BOUNDARY)),
        ])
        types = sorted(classify_1_orbifold(c.component) for c in comps)
        assert types == ["a", "b"]

    def test_dangling_token_rejected(self):
        with pytest.raises(AssemblyError):
            assemble_components([arc("x", AssemblyEnd(GLUE, token="t"),
                                     AssemblyEnd(BOUNDARY))])

    def test_triple_token_rejected(self):
        pieces = [
            arc("a", AssemblyEnd(GLUE, token="t"), AssemblyEnd(BOUNDARY)),
            arc("b", AssemblyEnd(GLUE, token="t"), AssemblyEnd(BOUNDARY)),
            arc("c", AssemblyEnd(GLUE, token="t"), AssemblyEnd(BOUNDARY)),
        ]
        with pytest.raises(AssemblyError):
            assemble_components(pieces)

    def test_isotropy_mismatch_rejected(self):
        pieces = [
            arc("a", AssemblyEnd(GLUE, token="t"), AssemblyEnd(BOUNDARY)),
            arc("b", AssemblyEnd(GLUE, token="t", isotropy_order=2),
                AssemblyEnd(BOUNDARY)),
        ]
        with pytest.raises(AssemblyError):
            assemble_components(pieces)

    def test_relabeling_stable(self):
        def build(names):
            return assemble_components([
                arc(names[0], AssemblyEnd(BOUNDARY), AssemblyEnd(GLUE, token="t")),
                arc(names[1], AssemblyEnd(GLUE, token="t"), AssemblyEnd(MIRROR,
                    isotropy_order=2)),
            ])
        a = build(["p", "q"])
        b = build(["q", "p"])
        assert [classify_1_orbifold(c.component) for c in a] == \
            [classify_1_orbifold(c.component) for c in b]


class TestParity:
    def test_counts(self):
        comps = [OneOrbifoldComponent(LOOP),
                 OneOrbifoldComponent(INTERVAL, (BOUNDARY, BOUNDARY)),
                 OneOrbifoldComponent(INTERVAL, (BOUNDARY, BOUNDARY))]
        rep = boundary_parity(comps)
        assert rep.boundary_points == 4 and rep.even

    def test_loop_only(self):
        rep = boundary_parity([OneOrbifoldComponent(LOOP)])
        assert rep.boundary_points == 0 and rep.even

    def test_mirror_rejected(self):
        with pytest.raises(TheoremHypothesisError):
            boundary_parity([OneOrbifoldComponent(INTERVAL, (BOUNDARY, MIRROR))])


class TestForbiddenIndex2:
    def test_mirror_plane_found(self):
        rep = forbidden_index2_check(charts()["mirror-plane"])
        assert rep.found
        assert rep.witness.order == 1  # the trivial subgroup has index 2
        assert rep.fixed_line.dim == 1

    def test_rotation3_not_found(self):
        assert not forbidden_index2_check(charts()["rotation-3"]).found

    def test_trivial_not_found(self):
        assert not forbidden_index2_check(charts()["line-trivial"]).found

    def test_point_reflection_not_found(self):
        # index-2 subgroup is trivial... {e} has full fixed space, so found
        rep = forbidden_index2_check(charts()["point-reflection"])
        assert rep.found and rep.witness.is_trivial()


class TestHypothesis:
    def test_type_c_atlas_fails(self):
        rep = no_retraction_hypothesis([charts()["line-z2"], charts()["half-line"]])
        assert not rep.holds
        assert rep.evidence[0].has_interior_codim1

    def test_disk_reflection_holds(self):
        rep = no_retraction_hypothesis([charts()["point-reflection"],
                                        charts()["half-plane"]])
        assert rep.holds

    def test_trivial_atlas_holds(self):
        rep = no_retraction_hypothesis([charts()["plane-trivial"],
                                        charts()["half-plane"]])
        assert rep.holds


def edge_germ_entry(chart_index):
    case = germ_case("half-plane-edge")
    return (chart_index, case.germ, [list(case.lifts[0])])


class TestRetraction:
    def test_type_c_hypothesis_not_met(self):
        s = RetractionScenario(
            atlas=[charts()["line-z2"], charts()["half-line"]],
            p=(F(0),), germs=[], pieces=[])
        rep = retraction_contradiction(s)
        assert rep.status == "hypothesis not met"

    def test_disk_reflection_contradiction(self):
        pieces = [
            AssemblyPiece("edge", (
                AssemblyEnd(BOUNDARY, chart_index=1, point=(F(0), F(0)),
                            is_base=True),
                AssemblyEnd(GLUE, token="t"))),
            AssemblyPiece("mirror", (
                AssemblyEnd(MIRROR, isotropy_order=2, chart_index=0,
                            point=(F(0), F(0))),
                AssemblyEnd(GLUE, token="t"))),
        ]
        s = RetractionScenario(
            atlas=[charts()["point-reflection"], charts()["half-plane"]],
            p=(F(0),), germs=[edge_germ_entry(1)], pieces=pieces)
        rep = retraction_contradiction(s)
        assert rep.status == "contradiction"
        assert rep.contradiction_kind == "forced_codim1_mirror"
        # the declared mirror site has a 0-dimensional fixed space, not 1
        assert rep.mirror_site[2] == 2 and rep.mirror_site[3] == 0

    def test_manifold_disk_second_boundary_point(self):
        pieces = [
            AssemblyPiece("near", (
                AssemblyEnd(BOUNDARY, chart_index=1, point=(F(0), F(0)),
                            is_base=True),
                AssemblyEnd(GLUE, token="a"))),
            AssemblyPiece("across", (AssemblyEnd(GLUE, token="a"),
                                     AssemblyEnd(GLUE, token="b"))),
            AssemblyPiece("far", (
                AssemblyEnd(BOUNDARY, chart_index=2, point=(F(0), F(0))),
                AssemblyEnd(GLUE, token="b"))),
        ]
        s = RetractionScenario(
            atlas=[charts()["plane-trivial"], charts()["half-plane"],
                   charts()["half-plane"]],
            p=(F(0),), germs=[edge_germ_entry(1), edge_germ_entry(2)],
            pieces=pieces)
        rep = retraction_contradiction(s)
        assert rep.status == "contradiction"
        assert rep.contradiction_kind == "extra_boundary_point"

    def test_boundary_identity_enforced(self):
        # a candidate germ that moves the boundary is rejected up front
        from orblocal.germs import build_germ
        from orblocal.ratlin import MultiPoly
        from orblocal.groups import verify_homomorphism
        half, line = charts()["half-plane"], charts()["line-trivial"]
        theta = verify_homomorphism(half.group, line.group, [])
        doubling = MultiPoly(2, [{(1, 0): F(2)}])  # f(x, y) = 2x
        germ = build_germ(half, line, doubling, theta)
        s = RetractionScenario(
            atlas=[charts()["plane-trivial"], half],
            p=(F(0),), germs=[(1, germ, [[F(0), F(0)]])],
            pieces=[AssemblyPiece("edge", (
                AssemblyEnd(BOUNDARY, chart_index=1, point=(F(0), F(0)),
                            is_base=True),
                AssemblyEnd(BOUNDARY, chart_index=1, point=(F(1), F(0)))))])
        with pytest.raises(ValueError):
            retraction_contradiction(s)

    def test_base_flag_required(self):
        s = RetractionScenario(
            atlas=[charts()["plane-trivial"], charts()["half-plane"]],
            p=(F(0),), germs=[edge_germ_entry(1)],
            pieces=[AssemblyPiece("interval", (
                AssemblyEnd(BOUNDARY), AssemblyEnd(BOUNDARY)))])
        with pytest.raises(AssemblyError):
            retraction_contradiction(s)

    def test_type_c_check_raises_under_optimize(self):
        # a classifier that calls the disk's component of p type (b): the
        # type (c) check must still fire with asserts stripped
        script = "\n".join([
            "import sys",
            "from orblocal import onedim, serialize",
            "from orblocal.corpus import builtin_documents",
            "doc = builtin_documents()['atlas-disk-reflection']",
            "s = serialize.parse_atlas_payload(doc['payload'], '$.payload')",
            "onedim.classify_1_orbifold = lambda c: 'b'",
            "try:",
            "    onedim.retraction_contradiction(s)",
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
        assert out.stdout.strip() == "1 single-boundary interval must carry a mirror end"
