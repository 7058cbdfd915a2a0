"""Built-in scenario corpus: every worked example as a runnable regression.

Each scenario has a name, a topic anchor for filtering (strata, preimage,
projection, obstruction, retraction, ...), a compute() callable that returns
a JSON-able summary of derived data, and the summary values it expects.
Scenario.run() compares them and raises on any failed check, with explicit
raises only, so the corpus decides the same under python -O.  The germ
roster is shared with the acceptance suite: group orders 1 through 8, chart
dimensions 1 through 4, with and without boundary.
"""

from __future__ import annotations

from fractions import Fraction as F
from functools import lru_cache
from typing import Callable

from .ratlin import Matrix, MultiPoly, Record, Subspace
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
    analyze_germ,
    build_germ,
    invariant_projection,
    is_regular_value,
    lift_replacement_invariance,
    obstruction_certificate,
    preimage_model,
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


@lru_cache(maxsize=1)
def charts() -> dict[str, LocalChart]:
    """The shared chart roster."""
    return {
        "line-trivial": build_chart(1, []),
        "line-z2": build_chart(1, [Matrix([[-1]])]),
        "half-line": build_chart(1, [], boundary=True),
        "plane-trivial": build_chart(2, []),
        "quarter-plane": build_chart(2, [Matrix([[-1, 0], [0, 1]]),
                                         Matrix([[1, 0], [0, -1]])]),
        "mirror-plane": build_chart(2, [Matrix([[1, 0], [0, -1]])]),
        "point-reflection": build_chart(2, [Matrix([[-1, 0], [0, -1]])]),
        "rotation-3": build_chart(2, [Matrix([[0, -1], [1, -1]])]),
        "rotation-4": build_chart(2, [Matrix([[0, -1], [1, 0]])]),
        "dihedral-8": build_chart(2, [Matrix([[0, -1], [1, 0]]),
                                      Matrix([[1, 0], [0, -1]])]),
        "cycle-3": build_chart(3, [Matrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])]),
        "sym-3": build_chart(3, [Matrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
                                 Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])]),
        "four-dim": build_chart(4, [Matrix.diagonal([-1, -1, 1, 1]),
                                    Matrix.diagonal([1, 1, -1, -1])]),
        "half-plane": build_chart(2, [], boundary=True),
        "half-plane-mirror": build_chart(2, [Matrix([[-1, 0], [0, 1]])], boundary=True),
    }


def _trivial_theta(src: LocalChart, tgt: LocalChart):
    ident = Matrix.identity(tgt.dim)
    return verify_homomorphism(src.group, tgt.group,
                               [ident] * len(src.group.generator_indices))


class GermCase(Record):
    """One corpus germ with a target point and its known regularity."""

    __slots__ = _fields = ("name", "germ", "p", "lifts", "regular")


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
        verify_homomorphism(qline.group, qline.group, [Matrix([[-1]])]),
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
        verify_homomorphism(c["rotation-4"].group, qline.group, [Matrix([[-1]])]),
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
    """Preimage models for every supplied lift point (preimage_model
    re-centers the points the chart group does not fix)."""
    return [preimage_model(case.germ, case.p, pt) for pt in case.lifts]


class ExpectationMismatch(AssertionError):
    """A scenario's summary differs from its expected values.

    mismatches lists [field, expected, got] for each differing field; got
    is None for a field the summary lacks.
    """

    def __init__(self, mismatches: list[list]):
        super().__init__("expected values differ: %s"
                         % ", ".join(m[0] for m in mismatches))
        self.mismatches = mismatches


class Scenario(Record):
    """A named worked example: compute() gives its summary, expect the
    values that summary must hold, field by field (none when not given)."""

    __slots__ = _fields = ("name", "anchor", "compute", "expect")

    def __init__(self, name: str, anchor: str, compute: Callable[[], dict],
                 expect: dict | None = None):
        Record.__init__(self, name, anchor, compute, {} if expect is None else expect)

    def run(self) -> dict:
        """The summary, after checking every expected field against it."""
        summary = self.compute()
        wrong = [[k, v, summary.get(k)] for k, v in self.expect.items()
                 if k not in summary or summary[k] != v]
        if wrong:
            raise ExpectationMismatch(wrong)
        return summary


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


def _run_germ_case(case: GermCase) -> dict:
    reg, proj, cc, models, faith = analyze_germ(case.germ, case.p, case.lifts)
    out = {
        "regular": reg.regular,
        "ranks": [r for _, r in reg.point_ranks],
        "group_order": case.germ.source.group.order,
        "n_order": proj.n_group.order,
        "projection": serialize.matrix_json(proj.projection),
        "cocycle_pairs": cc.pairs_checked,
        "g_order_at_base": faith.g_order,
    }
    if reg.regular:
        out["models"] = [{
            "gamma_s_order": model.gamma_s.order,
            "g_order": model.g_group.order,
            "dim": model.dim,
            "boundary_kind": model.boundary_kind,
        } for model in models]
    return out


def _run_square_critical() -> dict:
    report = is_regular_value(germ_case("z2-square").germ, [F(0)], [[F(0)]])
    return {"regular": report.regular, "rank_at_origin": report.point_ranks[0][1]}


def _run_projection_examples() -> dict:
    proj = invariant_projection(germ_case("mirror-line").germ)
    if proj.proj_kernel != Subspace.from_vectors(2, [[1, 0]]):
        raise AssertionError("the mirror projection's kernel is not the x-axis")
    proj2 = invariant_projection(germ_case("x-squared-plane").germ)
    if proj2.n_group.order != 4:
        raise AssertionError("x-squared N has order %d, not 4" % proj2.n_group.order)
    return {
        "mirror_projection": serialize.matrix_json(proj.projection),
        "x_squared_projection": serialize.matrix_json(proj2.projection),
    }


def _run_real_target(case_name: str) -> dict:
    case = germ_case(case_name)
    model = preimage_model(case.germ, case.p, case.lifts[0])
    report = real_target_structure(case.germ, model)
    return {
        "gamma_order": report.gamma_order,
        "stratum_dimension": report.stratum_dimension,
        "fixed_line": serialize.matrix_json(report.fixed_line.echelon),
    }


def _run_suborb_axis() -> dict:
    qp = charts()["quarter-plane"]
    axis = Subspace.from_vectors(2, [[1, 0]])
    model = suborbifold_model(qp, axis, qp.group.full_subgroup())
    return {"omega_order": model.omega.order,
            "intrinsic_order": model.intrinsic_isotropy.order,
            "full": model.full}


def _run_suborb_diagonal() -> dict:
    qp = charts()["quarter-plane"]
    diag = Subspace.from_vectors(2, [[1, 1]])
    minus = qp.group.index_of(Matrix.diagonal([-1, -1]))
    lam = Subgroup(qp.group, (0, minus))
    model = suborbifold_model(qp, diag, lam)
    if not model.omega.is_trivial():
        raise AssertionError("-I fixes the diagonal pointwise")
    return {"intrinsic_order": model.intrinsic_isotropy.order, "full": model.full}


def _run_suborb_diagonal_error() -> dict:
    qp = charts()["quarter-plane"]
    diag = Subspace.from_vectors(2, [[1, 1]])
    return _expect_error(
        NotInvariant,
        lambda: suborbifold_model(qp, diag, qp.group.full_subgroup()))


def _axis_embedding() -> ChartEmbedding:
    mirror = charts()["mirror-plane"]
    qp = charts()["quarter-plane"]
    theta = verify_homomorphism(mirror.group, qp.group, [Matrix([[1, 0], [0, -1]])])
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
    theta = verify_homomorphism(mirror.group, qp.group, [Matrix([[-1, 0], [0, 1]])])
    return _expect_error(
        EmbeddingError,
        lambda: verify_embedding(ChartEmbedding(
            mirror, qp, Matrix.identity(2), (F(1), F(0)), theta)))


def _run_embedding_pullback() -> dict:
    pulled = pull_back_germ(germ_case("sum-squares").germ, _axis_embedding())
    (value,) = pulled.value_at([0, 0])
    return {"value_at_origin": str(value),
            "jacobian": serialize.matrix_json(pulled.lift.jacobian_at([0, 0]))}


def _run_product() -> dict:
    q = charts()["line-z2"]
    return _strata_summary(product_chart(q, q))


def _run_obstruction(source: str, target: str) -> dict:
    src, tgt = charts()[source], charts()[target]
    cert = obstruction_certificate(src, tgt, _trivial_theta(src, tgt))
    out = {"verdict": cert.verdict, "reason": cert.reason_code}
    if cert.witness_lift is not None:
        out["witness_lift"] = serialize.poly_json(cert.witness_lift)
    return out


def _run_sard(case_name: str) -> dict:
    report = sard_sample(germ_case(case_name).germ, [(-2, 2)], 10000, SARD_SEED)
    return report.to_jsonable()


def _four_types() -> list[OneOrbifoldComponent]:
    """One compact 1-orbifold of each type (a) to (d)."""
    return [
        OneOrbifoldComponent(LOOP),
        OneOrbifoldComponent(INTERVAL, (BOUNDARY, BOUNDARY)),
        OneOrbifoldComponent(INTERVAL, (BOUNDARY, MIRROR)),
        OneOrbifoldComponent(INTERVAL, (MIRROR, MIRROR)),
    ]


def _run_classify_types() -> dict:
    return {"types": [classify_1_orbifold(c) for c in _four_types()]}


def _boundary_piece(name: str, token: str, base=False, chart=None) -> AssemblyPiece:
    return AssemblyPiece(name, (
        AssemblyEnd(BOUNDARY, chart_index=chart, point=(F(0), F(0)), is_base=base),
        AssemblyEnd(GLUE, token=token, chart_index=chart)), chart)


def _single_component(pieces):
    comps = assemble_components(pieces)
    if len(comps) != 1:
        raise AssertionError("the pieces assemble into %d components, not 1" % len(comps))
    return comps[0]


def _run_assembly_interval() -> dict:
    case = germ_case("half-plane-edge")
    model = preimage_model(case.germ, case.p, case.lifts[0])
    p1 = piece_from_model("west-edge", model, ["t"], chart_index=0)
    p2 = piece_from_model("east-edge", model, ["t"], chart_index=1)
    comp = _single_component([p1, p2])
    return {"type": classify_1_orbifold(comp.component), "pieces": list(comp.piece_names)}


def _run_assembly_mirror() -> dict:
    mirror_model = preimage_model(germ_case("mirror-line").germ, (F(0),), (F(0), F(0)))
    edge_model = preimage_model(germ_case("half-plane-edge").germ, (F(0),), (F(0), F(0)))
    pm = piece_from_model("mirror-arc", mirror_model, ["t"], chart_index=0)
    pb = piece_from_model("edge-arc", edge_model, ["t"], chart_index=1)
    return {"type": classify_1_orbifold(_single_component([pm, pb]).component)}


def _run_assembly_loop() -> dict:
    a = AssemblyPiece("north", (AssemblyEnd(GLUE, token="e"),
                                AssemblyEnd(GLUE, token="w")))
    b = AssemblyPiece("south", (AssemblyEnd(GLUE, token="w"),
                                AssemblyEnd(GLUE, token="e")))
    return {"type": classify_1_orbifold(_single_component([a, b]).component)}


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


def _type_c() -> RetractionScenario:
    """An atlas with a mirror line, where the hypothesis fails."""
    atlas = [charts()["line-z2"], charts()["half-line"]]
    return RetractionScenario(atlas=atlas, p=(F(0),), germs=[], pieces=[])


def _run_retraction_type_c() -> dict:
    report = retraction_contradiction(_type_c())
    return {"status": report.status, "detail": report.detail}


def _disk_reflection() -> RetractionScenario:
    """A disk modulo the point reflection: the preimage of p runs from the
    boundary to the cone point, a forced mirror end."""
    atlas = [charts()["point-reflection"], charts()["half-plane"]]
    edge = germ_case("half-plane-edge")
    pieces = [
        _boundary_piece("edge-arc", "t1", base=True, chart=1),
        AssemblyPiece("mirror-arc", (
            AssemblyEnd(MIRROR, isotropy_order=2, chart_index=0,
                        point=(F(0), F(0))),
            AssemblyEnd(GLUE, token="t1", chart_index=0)), 0),
    ]
    return RetractionScenario(atlas=atlas, p=(F(0),),
                              germs=[(1, edge.germ, edge.lifts)], pieces=pieces)


def _run_retraction_disk() -> dict:
    report = retraction_contradiction(_disk_reflection())
    if report.mirror_site is None or report.mirror_site[3] != 0:
        raise AssertionError("the mirror site's fixed space is not the origin")
    return {"status": report.status, "kind": report.contradiction_kind,
            "detail": report.detail}


def _run_retraction_manifold() -> dict:
    atlas = [charts()["plane-trivial"], charts()["half-plane"], charts()["half-plane"]]
    edge = germ_case("half-plane-edge")
    pieces = [
        _boundary_piece("near-edge", "a", base=True, chart=1),
        AssemblyPiece("crossing", (AssemblyEnd(GLUE, token="a", chart_index=0),
                                   AssemblyEnd(GLUE, token="b", chart_index=0))),
        _boundary_piece("far-edge", "b", base=False, chart=2),
    ]
    s = RetractionScenario(atlas=atlas, p=(F(0),),
                           germs=[(1, edge.germ, edge.lifts), (2, edge.germ, edge.lifts)],
                           pieces=pieces)
    report = retraction_contradiction(s)
    return {"status": report.status, "kind": report.contradiction_kind,
            "detail": report.detail}


def _run_parity_cone() -> dict:
    atlas = [charts()["rotation-3"], charts()["half-plane"], charts()["half-plane"]]
    if any(forbidden_index2_check(c).found for c in atlas):
        raise AssertionError("an atlas chart has an index-2 subgroup fixing a line")
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
    parity = boundary_parity([c.component for c in comps])
    return {"types": types, "boundary_points": parity.boundary_points,
            "even": parity.even}


def _run_parity_mirror_error() -> dict:
    c = OneOrbifoldComponent(INTERVAL, (BOUNDARY, MIRROR))
    return _expect_error(TheoremHypothesisError, lambda: boundary_parity([c]))


def _run_forbidden_index2() -> dict:
    mirror = forbidden_index2_check(charts()["mirror-plane"])
    rot = forbidden_index2_check(charts()["rotation-3"])
    if forbidden_index2_check(charts()["line-trivial"]).found:
        raise AssertionError("the trivial group has an index-2 subgroup")
    return {
        "mirror_plane_found": mirror.found,
        "witness_order": mirror.witness.order,
        "fixed_line": serialize.matrix_json(mirror.fixed_line.echelon),
        "rotation_3_found": rot.found,
    }


def _run_lift_replacement() -> dict:
    germ = germ_case("z2-identity").germ
    reports = [lift_replacement_invariance(germ, eta)
               for eta in (Matrix.identity(1), Matrix([[-1]]))]
    return {"etas_checked": len(reports)}


@lru_cache(maxsize=1)
def scenarios() -> tuple[Scenario, ...]:
    def strata(name):
        return lambda: _strata_summary(charts()[name])

    out = [
        Scenario("strata-line-z2", "strata", strata("line-z2"), {"singular_dims": [0]}),
        Scenario("strata-quarter-plane", "strata", strata("quarter-plane"),
                 {"singular_dims": [1, 1, 0]}),
        Scenario("strata-point-reflection", "strata", strata("point-reflection"),
                 {"singular_dims": [0]}),
        Scenario("strata-rotation-3", "strata", strata("rotation-3"),
                 {"singular_dims": [0]}),
        Scenario("strata-dihedral-8", "strata", strata("dihedral-8"),
                 {"singular_dims": [1, 1, 1, 1, 0]}),
        Scenario("product-line-z2-squared", "product",
                 _run_product,
                 {"group_order": 4, "singular_dims": [1, 1, 0]}),
        Scenario("suborbifold-axis", "suborbifold", _run_suborb_axis,
                 {"omega_order": 2, "intrinsic_order": 2, "full": True}),
        Scenario("suborbifold-diagonal", "suborbifold", _run_suborb_diagonal,
                 {"intrinsic_order": 2, "full": False}),
        Scenario("suborbifold-diagonal-rejected", "suborbifold",
                 _run_suborb_diagonal_error),
        Scenario("embedding-axis-chart", "embedding", _run_embedding_axis),
        Scenario("embedding-identity", "embedding", _run_embedding_identity),
        Scenario("embedding-equivariance-rejected", "embedding", _run_embedding_error),
        Scenario("embedding-germ-pullback", "embedding", _run_embedding_pullback,
                 {"value_at_origin": "1", "jacobian": [["2", "0"]]}),
        Scenario("germ-z2-square-critical", "regular-value", _run_square_critical,
                 {"regular": False, "rank_at_origin": 0}),
        Scenario("projection-worked-examples", "projection", _run_projection_examples,
                 {"mirror_projection": [["0", "0"], ["0", "1"]],
                  "x_squared_projection": [["1", "0"], ["0", "1"]]}),
        Scenario("real-target-mirror-line", "real-target",
                 lambda: _run_real_target("mirror-line"), {"stratum_dimension": 1}),
        Scenario("real-target-cycle-sum", "real-target",
                 lambda: _run_real_target("cycle-sum"), {"stratum_dimension": 1}),
        Scenario("obstruction-z2-line", "obstruction",
                 lambda: _run_obstruction("line-z2", "line-trivial"),
                 {"verdict": "impossible", "reason": "kernel_on_point"}),
        Scenario("obstruction-quarter-plane", "obstruction",
                 lambda: _run_obstruction("quarter-plane", "plane-trivial"),
                 {"verdict": "impossible", "reason": "kernel_on_point"}),
        Scenario("obstruction-rotation-drop", "obstruction",
                 lambda: _run_obstruction("rotation-3", "line-trivial"),
                 {"verdict": "impossible", "reason": "no_invariant_kernel"}),
        Scenario("obstruction-mirror-witness", "obstruction",
                 lambda: _run_obstruction("mirror-plane", "line-trivial"),
                 {"verdict": "possible", "reason": "linear_witness"}),
        Scenario("sard-z2-square", "sard", lambda: _run_sard("z2-square"),
                 {"regular_fraction": "1"}),
        Scenario("sard-mirror-linear", "sard", lambda: _run_sard("mirror-line"),
                 {"regular_fraction": "1"}),
        Scenario("sard-constant", "sard", lambda: _run_sard("z2-constant"),
                 {"regular_fraction": "1"}),
        Scenario("one-orbifold-types", "one-orbifold", _run_classify_types,
                 {"types": ["a", "b", "c", "d"]}),
        Scenario("assembly-interval", "one-orbifold", _run_assembly_interval,
                 {"type": "b"}),
        Scenario("assembly-mirror-interval", "one-orbifold", _run_assembly_mirror,
                 {"type": "c"}),
        Scenario("assembly-loop", "one-orbifold", _run_assembly_loop, {"type": "a"}),
        Scenario("assembly-dangling-token", "one-orbifold", _run_assembly_token_error),
        Scenario("assembly-isotropy-mismatch", "one-orbifold",
                 _run_assembly_mismatch_error),
        Scenario("retraction-type-c", "retraction", _run_retraction_type_c,
                 {"status": "hypothesis not met"}),
        Scenario("retraction-disk-reflection", "retraction", _run_retraction_disk,
                 {"status": "contradiction", "kind": "forced_codim1_mirror"}),
        Scenario("retraction-manifold-disk", "retraction", _run_retraction_manifold,
                 {"status": "contradiction", "kind": "extra_boundary_point"}),
        Scenario("parity-cone", "parity", _run_parity_cone,
                 {"types": ["a", "b"], "boundary_points": 2, "even": True}),
        Scenario("parity-mirror-rejected", "parity", _run_parity_mirror_error),
        Scenario("forbidden-index2", "parity", _run_forbidden_index2,
                 {"mirror_plane_found": True, "witness_order": 1,
                  "rotation_3_found": False}),
        Scenario("lift-replacement-z2", "lift-replacement", _run_lift_replacement,
                 {"etas_checked": 2}),
    ]
    out.extend(Scenario("germ-%s" % case.name, "preimage",
                        lambda case=case: _run_germ_case(case), {"regular": case.regular})
               for case in germ_cases())
    return tuple(sorted(out, key=lambda s: s.name))


def run_corpus(anchor: str | None = None):
    """Run (a filter of) the corpus; yields (name, anchor, ok, detail).

    A failing scenario's detail holds its error and, when its summary
    differed from the expected values, the [field, expected, got] mismatches.
    """
    for sc in scenarios():
        if anchor and anchor not in sc.anchor and anchor not in sc.name:
            continue
        try:
            detail = sc.run()
            yield sc.name, sc.anchor, True, detail
        except Exception as e:  # noqa: BLE001 - report any failure per scenario
            detail = {"error": "%s: %s" % (type(e).__name__, e)}
            if isinstance(e, ExpectationMismatch):
                detail["mismatches"] = e.mismatches
            yield sc.name, sc.anchor, False, detail


# JSON documents for the file-driven CLI commands


def builtin_documents() -> dict[str, dict]:
    """Scenario files for the CLI, one per representative corpus entry,
    each written by the serialize writer of its kind from the objects the
    corpus runs."""
    c = charts()
    line, qline = c["line-trivial"], c["line-z2"]
    sq = germ_case("z2-square")
    docs = [("germ-%s" % case.name, "germ", "preimage",
             serialize.germ_payload_json(case.germ, case.p, case.lifts))
            for case in germ_cases()]
    docs += [
        ("germ-z2-square-critical", "germ", "regular-value",
         serialize.germ_payload_json(sq.germ, (F(0),), ((F(0),),))),
        ("obstruction-z2-line", "obstruction", "obstruction",
         serialize.obstruction_json(qline, line, _trivial_theta(qline, line))),
        ("chart-quarter-plane", "chart", "strata", serialize.chart_json(c["quarter-plane"])),
        ("components-four-types", "component-list", "one-orbifold",
         serialize.components_json(_four_types())),
        ("atlas-disk-reflection", "atlas", "retraction",
         serialize.atlas_json(_disk_reflection(), line)),
        ("atlas-type-c", "atlas", "retraction", serialize.atlas_json(_type_c(), line)),
    ]
    return {name: {"kind": kind, "name": name, "anchor": anchor, "payload": payload}
            for name, kind, anchor, payload in docs}
