"""Built-in scenario corpus: every worked example as a runnable regression.

Each scenario has a name, a topic anchor for filtering (strata, preimage,
projection, obstruction, retraction, ...), and a run() callable that raises
on any failed check and returns a JSON-able summary of derived data.  The
germ roster is shared with the acceptance suite: group orders 1 through 8,
chart dimensions 1 through 4, with and without boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as F
from functools import lru_cache
from typing import Callable

from .ratlin import Matrix, MultiPoly, Subspace
from .groups import Subgroup, verify_homomorphism
from .charts import (
    ChartEmbedding,
    LocalChart,
    NotInvariant,
    EmbeddingError,
    build_chart,
    product_chart,
    stratify,
    suborbifold_model,
    verify_embedding,
)
from .germs import (
    MapGerm,
    build_germ,
    cocycle_identities,
    faithfulness_check,
    invariant_projection,
    is_regular_value,
    lift_replacement_invariance,
    obstruction_certificate,
    preimage_model,
    preimage_model_boundary,
    preimage_model_at,
    pull_back_germ,
    real_target_structure,
    sard_sample,
)
from .onedim import (
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
    piece_from_model,
    retraction_contradiction,
    BOUNDARY,
    MIRROR,
    GLUE,
    LOOP,
    INTERVAL,
)
from . import serialize

SARD_SEED = 20240


def _m(rows):
    return Matrix(rows)


@lru_cache(maxsize=1)
def charts() -> dict[str, LocalChart]:
    """The shared chart roster."""
    return {
        "line-trivial": build_chart(1, []),
        "line-z2": build_chart(1, [_m([[-1]])]),
        "half-line": build_chart(1, [], boundary=True),
        "plane-trivial": build_chart(2, []),
        "quarter-plane": build_chart(2, [_m([[-1, 0], [0, 1]]), _m([[1, 0], [0, -1]])]),
        "mirror-plane": build_chart(2, [_m([[1, 0], [0, -1]])]),
        "point-reflection": build_chart(2, [_m([[-1, 0], [0, -1]])]),
        "rotation-3": build_chart(2, [_m([[0, -1], [1, -1]])]),
        "rotation-4": build_chart(2, [_m([[0, -1], [1, 0]])]),
        "dihedral-8": build_chart(2, [_m([[0, -1], [1, 0]]), _m([[1, 0], [0, -1]])]),
        "cycle-3": build_chart(3, [_m([[0, 0, 1], [1, 0, 0], [0, 1, 0]])]),
        "sym-3": build_chart(3, [_m([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
                                 _m([[0, 1, 0], [1, 0, 0], [0, 0, 1]])]),
        "four-dim": build_chart(4, [Matrix.diagonal([-1, -1, 1, 1]),
                                    Matrix.diagonal([1, 1, -1, -1])]),
        "half-plane": build_chart(2, [], boundary=True),
        "half-plane-mirror": build_chart(2, [_m([[-1, 0], [0, 1]])], boundary=True),
    }


def _trivial_theta(src: LocalChart, tgt: LocalChart):
    ident = Matrix.identity(tgt.dim)
    return verify_homomorphism(src.group, tgt.group,
                               [ident] * len(src.group.generator_indices))


@dataclass(frozen=True)
class GermCase:
    """One corpus germ with a target point and its known regularity."""

    name: str
    germ: MapGerm
    p: tuple
    lifts: tuple
    regular: bool


@lru_cache(maxsize=1)
def germ_cases() -> tuple[GermCase, ...]:
    c = charts()
    line = c["line-trivial"]
    qline = c["line-z2"]
    cases = []

    def add(name, src, tgt, lift, theta, p, lifts, regular=True):
        germ = build_germ(src, tgt, lift, theta)
        cases.append(GermCase(name, germ, tuple(F(x) for x in p),
                              tuple(tuple(F(x) for x in pt) for pt in lifts),
                              regular))

    x0 = MultiPoly.coordinate
    add("trivial-line", line, line, x0(1, 0), _trivial_theta(line, line),
        [0], [[0]])
    add("mirror-line", c["mirror-plane"], line, x0(2, 0),
        _trivial_theta(c["mirror-plane"], line), [0], [[0, 0]])
    sq = MultiPoly(1, [{(2,): F(1)}])
    add("z2-square", qline, line, sq, _trivial_theta(qline, line),
        [1], [[1], [-1]])
    add("z2-identity", qline, qline, x0(1, 0),
        verify_homomorphism(qline.group, qline.group, [_m([[-1]])]),
        [0], [[0]])
    sumsq = MultiPoly(2, [{(2, 0): F(1), (0, 2): F(1)}])
    add("sum-squares", c["quarter-plane"], line, sumsq,
        _trivial_theta(c["quarter-plane"], line), [1], [[1, 0], [0, 1]])
    add("point-reflection-radial", c["point-reflection"], line, sumsq,
        _trivial_theta(c["point-reflection"], line), [1], [[1, 0]])
    xsq2 = MultiPoly(2, [{(2, 0): F(1)}])
    add("x-squared-plane", c["quarter-plane"], line, xsq2,
        _trivial_theta(c["quarter-plane"], line), [1], [[1, 0], [-1, 0]])
    total3 = MultiPoly(3, [{(1, 0, 0): F(1), (0, 1, 0): F(1), (0, 0, 1): F(1)}])
    add("cycle-sum", c["cycle-3"], line, total3,
        _trivial_theta(c["cycle-3"], line), [0], [[0, 0, 0]])
    add("sym-sum", c["sym-3"], line, total3,
        _trivial_theta(c["sym-3"], line), [0], [[0, 0, 0]])
    saddle = MultiPoly(2, [{(2, 0): F(1), (0, 2): F(-1)}])
    add("rotation-saddle", c["rotation-4"], qline, saddle,
        verify_homomorphism(c["rotation-4"].group, qline.group, [_m([[-1]])]),
        [1], [[1, 0], [-1, 0]])
    add("dihedral-radial", c["dihedral-8"], line, sumsq,
        _trivial_theta(c["dihedral-8"], line), [1], [[1, 0], [0, 1]])
    split = MultiPoly(4, [{(1, 0, 0, 0): F(1)}, {(0, 0, 1, 0): F(1)}])
    add("four-dim-split", c["four-dim"], c["quarter-plane"], split,
        verify_homomorphism(c["four-dim"].group, c["quarter-plane"].group,
                            [Matrix.diagonal([-1, 1]), Matrix.diagonal([1, -1])]),
        [0, 0], [[0, 0, 0, 0]])
    add("half-plane-mirror-height", c["half-plane-mirror"], line, x0(2, 1),
        _trivial_theta(c["half-plane-mirror"], line), [1], [[0, 1]])
    add("half-plane-edge", c["half-plane"], line, x0(2, 0),
        _trivial_theta(c["half-plane"], line), [0], [[0, 0]])
    add("z2-constant", qline, line, MultiPoly.zero_map(1, 1),
        _trivial_theta(qline, line), [1], [])
    return tuple(cases)


def germ_case(name: str) -> GermCase:
    for case in germ_cases():
        if case.name == name:
            return case
    raise KeyError(name)


def case_preimage_models(case: GermCase):
    """Preimage models for every supplied lift point (preimage_model_at
    re-centers the points the chart group does not fix)."""
    return [preimage_model_at(case.germ, case.p, pt) for pt in case.lifts]


@dataclass(frozen=True)
class Scenario:
    name: str
    anchor: str
    run: Callable[[], dict]


def _expect_error(exc_type, fn):
    try:
        fn()
    except exc_type as e:
        return {"expected_error": "%s: %s" % (type(e).__name__, e)}
    raise AssertionError("expected %s was not raised" % exc_type.__name__)


def _strata_summary(chart: LocalChart) -> dict:
    report = stratify(chart)
    sing = report.singular_strata()
    return {
        "group_order": chart.group.order,
        "singular_count": len(sing),
        "singular_dims": [s.dimension for s in sing],
        "singular_codims": [s.codimension for s in sing],
        "boundary_tags": [s.in_boundary for s in sing],
    }


def _run_strata(chart_name: str, dims: list[int]) -> dict:
    summary = _strata_summary(charts()[chart_name])
    assert summary["singular_dims"] == dims, summary
    return summary


def _run_germ_case(case: GermCase) -> dict:
    report = is_regular_value(case.germ, case.p, case.lifts)
    assert report.regular == case.regular, \
        "expected regular=%s, got %s" % (case.regular, report.regular)
    out = {
        "regular": report.regular,
        "ranks": [r for _, r in report.point_ranks],
        "group_order": case.germ.source.group.order,
    }
    proj = invariant_projection(case.germ)
    out["n_order"] = proj.n_group.order
    out["projection"] = serialize.matrix_json(proj.projection)
    cc = cocycle_identities(proj)
    assert cc.ok
    out["cocycle_pairs"] = cc.pairs_checked
    faith = faithfulness_check(case.germ)
    out["g_order_at_base"] = faith.g_order
    if case.regular:
        models = case_preimage_models(case)
        out["models"] = []
        for model in models:
            grp = model.germ.source.group
            assert model.dim == model.germ.source.dim - model.germ.target.dim
            assert model.gamma_s.order * model.g_group.order == grp.order
            assert model.suborbifold.full
            out["models"].append({
                "gamma_s_order": model.gamma_s.order,
                "g_order": model.g_group.order,
                "dim": model.dim,
                "boundary_kind": model.boundary_kind,
            })
    return out


def _germ_scenarios() -> list[Scenario]:
    out = []
    for case in germ_cases():
        out.append(Scenario("germ-%s" % case.name, "preimage",
                            lambda case=case: _run_germ_case(case)))
    return out


def _run_square_critical() -> dict:
    case = germ_case("z2-square")
    report = is_regular_value(case.germ, [F(0)], [[F(0)]])
    assert not report.regular
    assert report.point_ranks[0][1] == 0
    return {"regular": False, "rank_at_origin": 0}


def _run_projection_examples() -> dict:
    mirror = germ_case("mirror-line")
    proj = invariant_projection(mirror.germ)
    expected = Matrix([[0, 0], [0, 1]])
    assert proj.projection == expected
    assert proj.proj_kernel == Subspace.from_vectors(2, [[1, 0]])
    qx = germ_case("x-squared-plane")
    proj2 = invariant_projection(qx.germ)
    assert proj2.n_group.order == 4
    assert proj2.projection == Matrix.identity(2)
    return {
        "mirror_projection": serialize.matrix_json(proj.projection),
        "x_squared_projection": serialize.matrix_json(proj2.projection),
    }


def _run_real_target(case_name: str, expect_dim: int) -> dict:
    case = germ_case(case_name)
    model = preimage_model(case.germ, case.p, case.lifts[0])
    report = real_target_structure(case.germ, model)
    assert report.stratum_dimension == expect_dim
    assert report.g_trivial and report.image_equals_kernel
    return {
        "gamma_order": report.gamma_order,
        "stratum_dimension": report.stratum_dimension,
        "fixed_line": [serialize.vector_json(b) for b in report.fixed_line.basis],
    }


def _run_suborb_axis() -> dict:
    qp = charts()["quarter-plane"]
    axis = Subspace.from_vectors(2, [[1, 0]])
    model = suborbifold_model(qp, axis, qp.group.full_subgroup())
    assert model.full
    assert model.omega.order == 2
    assert model.intrinsic_isotropy.order == 2
    return {"omega_order": model.omega.order,
            "intrinsic_order": model.intrinsic_isotropy.order,
            "full": model.full}


def _run_suborb_diagonal() -> dict:
    qp = charts()["quarter-plane"]
    diag = Subspace.from_vectors(2, [[1, 1]])
    minus = qp.group.index_of(Matrix.diagonal([-1, -1]))
    lam = Subgroup(qp.group, (0, minus))
    model = suborbifold_model(qp, diag, lam)
    assert not model.full
    assert model.omega.is_trivial()
    assert model.intrinsic_isotropy.order == 2
    return {"intrinsic_order": 2, "full": False}


def _run_suborb_diagonal_error() -> dict:
    qp = charts()["quarter-plane"]
    diag = Subspace.from_vectors(2, [[1, 1]])
    return _expect_error(
        NotInvariant,
        lambda: suborbifold_model(qp, diag, qp.group.full_subgroup()))


def _axis_embedding() -> ChartEmbedding:
    mirror = charts()["mirror-plane"]
    qp = charts()["quarter-plane"]
    theta = verify_homomorphism(mirror.group, qp.group, [_m([[1, 0], [0, -1]])])
    emb = ChartEmbedding(mirror, qp, Matrix.identity(2), (F(1), F(0)), theta)
    return verify_embedding(emb)


def _run_embedding_axis() -> dict:
    emb = _axis_embedding()
    return {"translate": serialize.vector_json(emb.translate)}


def _run_embedding_identity() -> dict:
    qp = charts()["quarter-plane"]
    theta = verify_homomorphism(qp.group, qp.group, list(qp.group.generators))
    verify_embedding(ChartEmbedding(qp, qp, Matrix.identity(2), (F(0), F(0)), theta))
    return {"ok": True}


def _run_embedding_error() -> dict:
    mirror = charts()["mirror-plane"]
    qp = charts()["quarter-plane"]
    theta = verify_homomorphism(mirror.group, qp.group, [_m([[-1, 0], [0, 1]])])
    return _expect_error(
        EmbeddingError,
        lambda: verify_embedding(ChartEmbedding(
            mirror, qp, Matrix.identity(2), (F(1), F(0)), theta)))


def _run_embedding_pullback() -> dict:
    emb = _axis_embedding()
    case = germ_case("sum-squares")
    pulled = pull_back_germ(case.germ, emb)
    assert pulled.lift.eval([0, 0]) == (F(1),)
    assert pulled.jacobian_at([0, 0]) == Matrix([[2, 0]])
    return {"value_at_origin": "1", "jacobian": [["2", "0"]]}


def _run_product() -> dict:
    q = charts()["line-z2"]
    prod = product_chart(q, q)
    assert prod.group.order == 4
    summary = _strata_summary(prod)
    assert summary["singular_dims"] == [1, 1, 0]
    return summary


def _run_obstruction(name: str, verdict: str, reason: str) -> dict:
    c = charts()
    line = c["line-trivial"]
    if name == "z2-line":
        cert = obstruction_certificate(c["line-z2"], line,
                                       _trivial_theta(c["line-z2"], line))
    elif name == "quarter-plane":
        plane = c["plane-trivial"]
        cert = obstruction_certificate(c["quarter-plane"], plane,
                                       _trivial_theta(c["quarter-plane"], plane))
    elif name == "rotation-drop":
        cert = obstruction_certificate(c["rotation-3"], line,
                                       _trivial_theta(c["rotation-3"], line))
    elif name == "mirror-witness":
        cert = obstruction_certificate(c["mirror-plane"], line,
                                       _trivial_theta(c["mirror-plane"], line))
    else:
        raise KeyError(name)
    assert cert.verdict == verdict, cert
    assert cert.reason_code == reason, cert
    out = {"verdict": cert.verdict, "reason": cert.reason_code}
    if cert.witness_lift is not None:
        out["witness_lift"] = serialize.poly_json(cert.witness_lift)
    return out


def _run_sard(case_name: str, box, min_fraction: F) -> dict:
    case = germ_case(case_name)
    report = sard_sample(case.germ, box, 10000, SARD_SEED)
    assert report.regular_fraction >= min_fraction, report.regular_fraction
    return report.to_jsonable()


def _run_classify_types() -> dict:
    comps = [
        OneOrbifoldComponent(LOOP),
        OneOrbifoldComponent(INTERVAL, (BOUNDARY, BOUNDARY)),
        OneOrbifoldComponent(INTERVAL, (BOUNDARY, MIRROR)),
        OneOrbifoldComponent(INTERVAL, (MIRROR, MIRROR)),
    ]
    types = [classify_1_orbifold(c) for c in comps]
    assert types == ["a", "b", "c", "d"]
    return {"types": types}


def _boundary_piece(name: str, token: str, base=False, chart=None) -> AssemblyPiece:
    return AssemblyPiece(name, (
        AssemblyEnd(BOUNDARY, chart_index=chart, point=(F(0), F(0)), is_base=base),
        AssemblyEnd(GLUE, token=token, chart_index=chart)))


def _run_assembly_interval() -> dict:
    case = germ_case("half-plane-edge")
    model = preimage_model_boundary(case.germ, case.p, case.lifts[0])
    p1 = piece_from_model("west-edge", model, ["t"], chart_index=0)
    p2 = piece_from_model("east-edge", model, ["t"], chart_index=1)
    comps = assemble_components([p1, p2])
    assert len(comps) == 1
    assert classify_1_orbifold(comps[0].component) == "b"
    return {"type": "b", "pieces": list(comps[0].piece_names)}


def _run_assembly_mirror() -> dict:
    mirror_model = preimage_model(germ_case("mirror-line").germ, (F(0),), (F(0), F(0)))
    edge_model = preimage_model_boundary(
        germ_case("half-plane-edge").germ, (F(0),), (F(0), F(0)))
    pm = piece_from_model("mirror-arc", mirror_model, ["t"], chart_index=0)
    pb = piece_from_model("edge-arc", edge_model, ["t"], chart_index=1)
    comps = assemble_components([pm, pb])
    assert len(comps) == 1
    assert classify_1_orbifold(comps[0].component) == "c"
    return {"type": "c"}


def _run_assembly_loop() -> dict:
    a = AssemblyPiece("north", (AssemblyEnd(GLUE, token="e"),
                                AssemblyEnd(GLUE, token="w")))
    b = AssemblyPiece("south", (AssemblyEnd(GLUE, token="w"),
                                AssemblyEnd(GLUE, token="e")))
    comps = assemble_components([a, b])
    assert len(comps) == 1
    assert classify_1_orbifold(comps[0].component) == "a"
    return {"type": "a"}


def _run_assembly_token_error() -> dict:
    bad = AssemblyPiece("dangling", (AssemblyEnd(GLUE, token="x"),
                                     AssemblyEnd(BOUNDARY)))
    return _expect_error(AssemblyError, lambda: assemble_components([bad]))


def _run_assembly_mismatch_error() -> dict:
    a = AssemblyPiece("regular-arc", (AssemblyEnd(GLUE, token="x"),
                                      AssemblyEnd(BOUNDARY)))
    b = AssemblyPiece("half-mirror", (AssemblyEnd(GLUE, token="x", isotropy_order=2),
                                      AssemblyEnd(BOUNDARY)))
    return _expect_error(AssemblyError, lambda: assemble_components([a, b]))


def _half_plane_edge_germ() -> tuple[MapGerm, list]:
    case = germ_case("half-plane-edge")
    return case.germ, [list(case.lifts[0])]


def _run_retraction_type_c() -> dict:
    atlas = [charts()["line-z2"], charts()["half-line"]]
    s = RetractionScenario(atlas=atlas, p=(F(0),), germs=[], pieces=[])
    report = retraction_contradiction(s)
    assert report.status == "hypothesis not met"
    return {"status": report.status, "detail": report.detail}


def _run_retraction_disk() -> dict:
    atlas = [charts()["point-reflection"], charts()["half-plane"]]
    germ, lifts = _half_plane_edge_germ()
    pieces = [
        _boundary_piece("edge-arc", "t1", base=True, chart=1),
        AssemblyPiece("mirror-arc", (
            AssemblyEnd(MIRROR, isotropy_order=2, chart_index=0,
                        point=(F(0), F(0))),
            AssemblyEnd(GLUE, token="t1", chart_index=0))),
    ]
    s = RetractionScenario(atlas=atlas, p=(F(0),),
                           germs=[(1, germ, lifts)], pieces=pieces)
    report = retraction_contradiction(s)
    assert report.status == "contradiction"
    assert report.contradiction_kind == "forced_codim1_mirror"
    assert report.mirror_site is not None and report.mirror_site[3] == 0
    return {"status": report.status, "kind": report.contradiction_kind,
            "detail": report.detail}


def _run_retraction_manifold() -> dict:
    atlas = [charts()["plane-trivial"], charts()["half-plane"], charts()["half-plane"]]
    germ, lifts = _half_plane_edge_germ()
    pieces = [
        _boundary_piece("near-edge", "a", base=True, chart=1),
        AssemblyPiece("crossing", (AssemblyEnd(GLUE, token="a", chart_index=0),
                                   AssemblyEnd(GLUE, token="b", chart_index=0))),
        _boundary_piece("far-edge", "b", base=False, chart=2),
    ]
    s = RetractionScenario(atlas=atlas, p=(F(0),),
                           germs=[(1, germ, lifts), (2, germ, lifts)],
                           pieces=pieces)
    report = retraction_contradiction(s)
    assert report.status == "contradiction"
    assert report.contradiction_kind == "extra_boundary_point"
    return {"status": report.status, "kind": report.contradiction_kind,
            "detail": report.detail}


def _run_parity_cone() -> dict:
    atlas = [charts()["rotation-3"], charts()["half-plane"], charts()["half-plane"]]
    checks = [forbidden_index2_check(c) for c in atlas]
    assert all(not r.found for r in checks)
    pieces = [
        _boundary_piece("west", "a", base=True, chart=1),
        AssemblyPiece("chord", (AssemblyEnd(GLUE, token="a", chart_index=0),
                                AssemblyEnd(GLUE, token="b", chart_index=0))),
        _boundary_piece("east", "b", base=False, chart=2),
        AssemblyPiece("ring-n", (AssemblyEnd(GLUE, token="u", chart_index=0),
                                 AssemblyEnd(GLUE, token="v", chart_index=0))),
        AssemblyPiece("ring-s", (AssemblyEnd(GLUE, token="v", chart_index=0),
                                 AssemblyEnd(GLUE, token="u", chart_index=0))),
    ]
    comps = assemble_components(pieces)
    types = sorted(classify_1_orbifold(c.component) for c in comps)
    assert types == ["a", "b"], types
    parity = boundary_parity([c.component for c in comps])
    assert parity.even and parity.boundary_points == 2
    return {"types": types, "boundary_points": parity.boundary_points,
            "even": parity.even}


def _run_parity_mirror_error() -> dict:
    c = OneOrbifoldComponent(INTERVAL, (BOUNDARY, MIRROR))
    return _expect_error(TheoremHypothesisError, lambda: boundary_parity([c]))


def _run_forbidden_index2() -> dict:
    mirror = forbidden_index2_check(charts()["mirror-plane"])
    assert mirror.found and mirror.witness.order == 1
    rot = forbidden_index2_check(charts()["rotation-3"])
    assert not rot.found
    triv = forbidden_index2_check(charts()["line-trivial"])
    assert not triv.found
    return {
        "mirror_plane_found": mirror.found,
        "witness_order": mirror.witness.order,
        "fixed_line": [serialize.vector_json(b) for b in mirror.fixed_line.basis],
        "rotation_3_found": rot.found,
    }


def _run_lift_replacement() -> dict:
    case = germ_case("z2-identity")
    idrep = lift_replacement_invariance(case.germ, Matrix.identity(1))
    negrep = lift_replacement_invariance(case.germ, _m([[-1]]))
    assert idrep.kernels_equal and negrep.kernels_equal
    assert idrep.n_unchanged and negrep.n_unchanged
    return {"etas_checked": 2}


@lru_cache(maxsize=1)
def scenarios() -> tuple[Scenario, ...]:
    out = [
        Scenario("strata-line-z2", "strata", lambda: _run_strata("line-z2", [0])),
        Scenario("strata-quarter-plane", "strata",
                 lambda: _run_strata("quarter-plane", [1, 1, 0])),
        Scenario("strata-point-reflection", "strata",
                 lambda: _run_strata("point-reflection", [0])),
        Scenario("strata-rotation-3", "strata", lambda: _run_strata("rotation-3", [0])),
        Scenario("strata-dihedral-8", "strata",
                 lambda: _run_strata("dihedral-8", [1, 1, 1, 1, 0])),
        Scenario("product-line-z2-squared", "product", _run_product),
        Scenario("suborbifold-axis", "suborbifold", _run_suborb_axis),
        Scenario("suborbifold-diagonal", "suborbifold", _run_suborb_diagonal),
        Scenario("suborbifold-diagonal-rejected", "suborbifold",
                 _run_suborb_diagonal_error),
        Scenario("embedding-axis-chart", "embedding", _run_embedding_axis),
        Scenario("embedding-identity", "embedding", _run_embedding_identity),
        Scenario("embedding-equivariance-rejected", "embedding", _run_embedding_error),
        Scenario("embedding-germ-pullback", "embedding", _run_embedding_pullback),
        Scenario("germ-z2-square-critical", "regular-value", _run_square_critical),
        Scenario("projection-worked-examples", "projection", _run_projection_examples),
        Scenario("real-target-mirror-line", "real-target",
                 lambda: _run_real_target("mirror-line", 1)),
        Scenario("real-target-cycle-sum", "real-target",
                 lambda: _run_real_target("cycle-sum", 1)),
        Scenario("obstruction-z2-line", "obstruction",
                 lambda: _run_obstruction("z2-line", "impossible", "kernel_on_point")),
        Scenario("obstruction-quarter-plane", "obstruction",
                 lambda: _run_obstruction("quarter-plane", "impossible",
                                          "kernel_on_point")),
        Scenario("obstruction-rotation-drop", "obstruction",
                 lambda: _run_obstruction("rotation-drop", "impossible",
                                          "no_invariant_kernel")),
        Scenario("obstruction-mirror-witness", "obstruction",
                 lambda: _run_obstruction("mirror-witness", "possible",
                                          "linear_witness")),
        Scenario("sard-z2-square", "sard",
                 lambda: _run_sard("z2-square", [(-2, 2)], F(999, 1000))),
        Scenario("sard-mirror-linear", "sard",
                 lambda: _run_sard("mirror-line", [(-2, 2)], F(1))),
        Scenario("sard-constant", "sard",
                 lambda: _run_sard("z2-constant", [(-2, 2)], F(999, 1000))),
        Scenario("one-orbifold-types", "one-orbifold", _run_classify_types),
        Scenario("assembly-interval", "one-orbifold", _run_assembly_interval),
        Scenario("assembly-mirror-interval", "one-orbifold", _run_assembly_mirror),
        Scenario("assembly-loop", "one-orbifold", _run_assembly_loop),
        Scenario("assembly-dangling-token", "one-orbifold", _run_assembly_token_error),
        Scenario("assembly-isotropy-mismatch", "one-orbifold",
                 _run_assembly_mismatch_error),
        Scenario("retraction-type-c", "retraction", _run_retraction_type_c),
        Scenario("retraction-disk-reflection", "retraction", _run_retraction_disk),
        Scenario("retraction-manifold-disk", "retraction", _run_retraction_manifold),
        Scenario("parity-cone", "parity", _run_parity_cone),
        Scenario("parity-mirror-rejected", "parity", _run_parity_mirror_error),
        Scenario("forbidden-index2", "parity", _run_forbidden_index2),
        Scenario("lift-replacement-z2", "lift-replacement", _run_lift_replacement),
    ]
    out.extend(_germ_scenarios())
    return tuple(sorted(out, key=lambda s: s.name))


def run_corpus(anchor: str | None = None):
    """Run (a filter of) the corpus; yields (name, anchor, ok, detail)."""
    for sc in scenarios():
        if anchor and anchor not in sc.anchor and anchor not in sc.name:
            continue
        try:
            detail = sc.run()
            yield sc.name, sc.anchor, True, detail
        except Exception as e:  # noqa: BLE001 - report any failure per scenario
            yield sc.name, sc.anchor, False, {"error": "%s: %s" % (type(e).__name__, e)}


# JSON documents for the file-driven CLI commands


def builtin_documents() -> dict[str, dict]:
    """Scenario files for the CLI, one per representative corpus entry."""
    c = charts()
    docs: dict[str, dict] = {}
    for case in germ_cases():
        docs["germ-%s" % case.name] = {
            "kind": "germ",
            "name": "germ-%s" % case.name,
            "anchor": "preimage",
            "payload": serialize.germ_payload_json(case.germ, case.p, case.lifts),
        }
    sq = germ_case("z2-square")
    docs["germ-z2-square-critical"] = {
        "kind": "germ",
        "name": "germ-z2-square-critical",
        "anchor": "regular-value",
        "payload": serialize.germ_payload_json(sq.germ, (F(0),), ((F(0),),)),
    }
    line = c["line-trivial"]
    docs["obstruction-z2-line"] = {
        "kind": "obstruction",
        "name": "obstruction-z2-line",
        "anchor": "obstruction",
        "payload": {
            "source": serialize.chart_json(c["line-z2"]),
            "target": serialize.chart_json(line),
            "theta_gen_images": [serialize.matrix_json(Matrix.identity(1))],
        },
    }
    docs["chart-quarter-plane"] = {
        "kind": "chart",
        "name": "chart-quarter-plane",
        "anchor": "strata",
        "payload": serialize.chart_json(c["quarter-plane"]),
    }
    docs["components-four-types"] = {
        "kind": "component-list",
        "name": "components-four-types",
        "anchor": "one-orbifold",
        "payload": {"components": [
            {"shape": "loop"},
            {"shape": "interval", "ends": ["boundary", "boundary"]},
            {"shape": "interval", "ends": ["boundary", "mirror"]},
            {"shape": "interval", "ends": ["mirror", "mirror"]},
        ]},
    }
    edge_case = germ_case("half-plane-edge")
    docs["atlas-disk-reflection"] = {
        "kind": "atlas",
        "name": "atlas-disk-reflection",
        "anchor": "retraction",
        "payload": {
            "charts": [serialize.chart_json(c["point-reflection"]),
                       serialize.chart_json(c["half-plane"])],
            "target": serialize.chart_json(line),
            "p": ["0"],
            "germs": [{
                "chart": 1,
                "lift": serialize.poly_json(edge_case.germ.lift),
                "theta_gen_images": [],
                "preimage_lifts": [["0", "0"]],
            }],
            "pieces": [
                {"name": "edge-arc", "chart": 1, "ends": [
                    {"kind": "boundary", "chart": 1, "point": ["0", "0"],
                     "is_base": True},
                    {"kind": "glue", "token": "t1", "chart": 1}]},
                {"name": "mirror-arc", "chart": 0, "ends": [
                    {"kind": "mirror", "chart": 0, "point": ["0", "0"]},
                    {"kind": "glue", "token": "t1", "chart": 0}]},
            ],
        },
    }
    docs["atlas-type-c"] = {
        "kind": "atlas",
        "name": "atlas-type-c",
        "anchor": "retraction",
        "payload": {
            "charts": [serialize.chart_json(c["line-z2"]),
                       serialize.chart_json(c["half-line"])],
            "target": serialize.chart_json(line),
            "p": ["0"],
            "germs": [],
            "pieces": [],
        },
    }
    return docs
