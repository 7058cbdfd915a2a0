"""Compact 1-orbifold bookkeeping and the no-retraction argument.

A compact connected 1-orbifold is one of four types: (a) the circle,
(b) a closed interval with trivial structure, (c) an interval with one
order-2 mirror end, (d) an interval with two mirror ends.  This module
classifies components, assembles them from chart-level preimage pieces
glued along declared identifications, counts boundary points, and runs the
two theorem-level checks: the no-retraction hypothesis (no interior
codimension-1 singular strata) with its forced contradiction, and the
index-2/parity condition that makes a regular preimage an honest 1-manifold
with an even number of boundary points.
"""

from __future__ import annotations

from fractions import Fraction

from .ratlin import Record, Subspace
from .groups import fixed_subspace, index2_subgroups
from .charts import LocalChart, isotropy_at, stratify
from .germs import MapGerm, PreimageModel, _boundary_restriction, is_regular_value
from .ratlin import Matrix, MultiPoly


class AssemblyError(ValueError):
    """Declared gluing data is inconsistent."""


class TheoremHypothesisError(ValueError):
    """Component types outside the theorem's hypotheses."""


LOOP = "loop"
INTERVAL = "interval"

BOUNDARY = "boundary"
MIRROR = "mirror"
GLUE = "glue"


class OneOrbifoldComponent(Record):
    """A compact connected 1-orbifold: a loop, or an interval with two ends."""

    __slots__ = _fields = ("shape", "ends")

    def __init__(self, shape: str, ends: tuple[str, ...] = ()):
        if shape == LOOP:
            if ends:
                raise ValueError("a loop carries no end data")
        elif shape == INTERVAL:
            if len(ends) != 2 or not all(e in (BOUNDARY, MIRROR) for e in ends):
                raise ValueError("an interval needs exactly two boundary/mirror ends")
        else:
            raise ValueError("unknown shape %r" % shape)
        self._init(shape, ends)


def classify_1_orbifold(c: OneOrbifoldComponent) -> str:
    """Type a (circle), b (plain interval), c (one mirror), d (two mirrors)."""
    if c.shape == LOOP:
        return "a"
    mirrors = sum(1 for e in c.ends if e == MIRROR)
    return {0: "b", 1: "c", 2: "d"}[mirrors]


class AssemblyEnd(Record):
    """One end of a chart-level preimage arc.

    Terminal ends are boundary points or mirror points; glue ends carry a
    token shared with exactly one other glue end.  The isotropy order lets
    the assembler reject gluings that identify points with different local
    structure.  Mirror ends may record where they sit (chart index and
    point) so theorem-level checks can inspect the chart there.
    """

    __slots__ = _fields = ("kind", "token", "isotropy_order", "chart_index", "point",
                           "is_base")

    def __init__(self, kind: str, token: str | None = None, isotropy_order: int = 1,
                 chart_index: int | None = None, point: tuple[Fraction, ...] | None = None,
                 is_base: bool = False):
        if kind not in (BOUNDARY, MIRROR, GLUE):
            raise ValueError("unknown end kind %r" % kind)
        if kind == GLUE and not token:
            raise ValueError("glue ends need a token")
        if kind != GLUE and token:
            raise ValueError("terminal ends cannot carry a glue token")
        self._init(kind, token, isotropy_order, chart_index, point, is_base)


class AssemblyPiece(Record):
    """A 1-dimensional preimage arc inside one chart, with its two ends."""

    __slots__ = _fields = ("name", "ends", "chart_index")
    _defaults = {"chart_index": None}


def piece_from_model(name: str, model: PreimageModel,
                     glue_tokens: list[str], chart_index: int | None = None) -> AssemblyPiece:
    """Derive a piece's end structure from a 1-dimensional preimage model.

    A boundary-point model contributes a boundary end; an order-2 intrinsic
    isotropy on a line is a mirror end (the only nontrivial effective case);
    remaining ends are free and consume the supplied glue tokens.
    """
    if model.dim != 1:
        raise ValueError("pieces come from 1-dimensional preimage models")
    order = model.gamma_s.order
    if order > 2:
        raise AssertionError("effective action on a line has order at most 2")
    ends: list[AssemblyEnd] = []
    if model.boundary_kind == "boundary-point":
        if order == 2:
            raise ValueError("mirror on the boundary is unsupported")
        ends.append(AssemblyEnd(BOUNDARY, chart_index=chart_index,
                                point=model.lift_point))
    elif order == 2:
        ends.append(AssemblyEnd(MIRROR, isotropy_order=2,
                                chart_index=chart_index, point=model.lift_point))
    free = 2 - len(ends)
    if len(glue_tokens) != free:
        raise ValueError("piece %r needs %d glue tokens, got %d"
                         % (name, free, len(glue_tokens)))
    for t in glue_tokens:
        ends.append(AssemblyEnd(GLUE, token=t, chart_index=chart_index))
    return AssemblyPiece(name, (ends[0], ends[1]), chart_index)


class AssembledComponent(Record):
    __slots__ = _fields = ("component", "piece_names", "terminal_ends")


def assemble_components(pieces: list[AssemblyPiece]) -> list[AssembledComponent]:
    """Glue arcs along matching tokens into loops and intervals.

    Every token must occur exactly twice, and the two glued ends must carry
    the same isotropy order; anything else raises AssemblyError.
    """
    token_sites: dict[str, list[tuple[int, int]]] = {}
    for pi, piece in enumerate(pieces):
        for ei, end in enumerate(piece.ends):
            if end.kind == GLUE:
                token_sites.setdefault(end.token, []).append((pi, ei))
    for token, sites in token_sites.items():
        if len(sites) != 2:
            raise AssemblyError("glue token %r occurs %d times, expected 2"
                                % (token, len(sites)))
        (pa, ea), (pb, eb) = sites
        oa = pieces[pa].ends[ea].isotropy_order
        ob = pieces[pb].ends[eb].isotropy_order
        if oa != ob:
            raise AssemblyError(
                "token %r glues ends with isotropy orders %d and %d"
                % (token, oa, ob))

    out: list[AssembledComponent] = []
    seen: set[int] = set()
    for start in range(len(pieces)):
        if start in seen:
            continue
        stack = [start]
        member_set = {start}
        while stack:
            pi = stack.pop()
            for end in pieces[pi].ends:
                if end.kind != GLUE:
                    continue
                for (qa, _qe) in token_sites[end.token]:
                    if qa not in member_set:
                        member_set.add(qa)
                        stack.append(qa)
        seen |= member_set
        members = sorted(member_set)
        terminals = [end for pi in members for end in pieces[pi].ends
                     if end.kind != GLUE]
        names = tuple(pieces[pi].name for pi in members)
        if not terminals:
            out.append(AssembledComponent(
                OneOrbifoldComponent(LOOP), names, ()))
        elif len(terminals) == 2:
            kinds = tuple(sorted(t.kind for t in terminals))
            out.append(AssembledComponent(
                OneOrbifoldComponent(INTERVAL, kinds), names, tuple(terminals)))
        else:
            raise AssemblyError(
                "component %s has %d terminal ends; arcs glued end-to-end "
                "must form paths or cycles" % (names, len(terminals)))
    return out


class ParityReport(Record):
    __slots__ = _fields = ("boundary_points", "even", "type_counts")


def boundary_parity(components: list[OneOrbifoldComponent]) -> ParityReport:
    """Count boundary points over type a/b components only.

    Mirror-ended components are outside the theorem's hypotheses and raise
    TheoremHypothesisError.
    """
    counts: dict[str, int] = {}
    total = 0
    for c in components:
        t = classify_1_orbifold(c)
        counts[t] = counts.get(t, 0) + 1
        if t in ("c", "d"):
            raise TheoremHypothesisError(
                "type (%s) component present: mirrors violate the hypotheses" % t)
        if t == "b":
            total += 2
    return ParityReport(boundary_points=total, even=total % 2 == 0,
                        type_counts=counts)


class Index2Report(Record):
    """Outcome of the forbidden index-2 configuration test on one chart.

    found means some index-2 subgroup (the kernel H of a nontrivial sign
    character) fixes a nonzero vector, that is, the common +1-eigenspace of
    its generators is nonzero; witness is the first such H in sign-character
    order and fixed_line the first basis line of its fixed space.  An
    invariant complement to the fixed line always exists by averaging an
    inner product over the group, so the fixed-vector test decides the
    'acts as a product with trivial line factor' condition.
    """

    __slots__ = _fields = ("found", "witness", "fixed_line")
    _defaults = {"witness": None, "fixed_line": None}


def forbidden_index2_check(chart: LocalChart) -> Index2Report:
    """Does some index-2 subgroup of the chart group fix a nonzero vector?"""
    for h in index2_subgroups(chart.group):
        fs = fixed_subspace(h)
        if fs.dim >= 1:
            line = Subspace.from_vectors(chart.dim, [fs.basis[0]])
            return Index2Report(found=True, witness=h, fixed_line=line)
    return Index2Report(found=False)


class HypothesisEvidence(Record):
    __slots__ = _fields = ("chart_index", "has_interior_codim1", "codim1_fixed_spaces")


class HypothesisReport(Record):
    __slots__ = _fields = ("holds", "evidence")


def no_retraction_hypothesis(atlas: list[LocalChart]) -> HypothesisReport:
    """True iff no chart of the atlas has an interior codimension-1 stratum."""
    evidence = []
    holds = True
    for i, chart in enumerate(atlas):
        bad = tuple(
            s.fixed_space for s in stratify(chart).singular_strata()
            if s.codimension == 1 and not s.in_boundary)
        if bad:
            holds = False
        evidence.append(HypothesisEvidence(i, bool(bad), bad))
    return HypothesisReport(holds, tuple(evidence))


class RetractionScenario(Record):
    """A candidate boundary retraction presented as chart-level data.

    germs pair an atlas chart index with the candidate's germ there and the
    preimage lift points of p to verify regularity at; pieces declare the
    assembled preimage of p (exactly one boundary end flagged is_base marks
    p itself).
    """

    __slots__ = _fields = ("atlas", "p", "germs", "pieces")


class RetractionReport(Record):
    # status is "hypothesis not met" | "contradiction"
    __slots__ = _fields = ("status", "hypothesis", "contradiction_kind", "detail",
                           "components", "mirror_site")
    _defaults = {"contradiction_kind": None, "detail": "", "components": (),
                 "mirror_site": None}


def _verify_boundary_identity(germ: MapGerm):
    """The germ must restrict to the identity on the boundary hyperplane."""
    n = germ.source.dim
    if not germ.source.boundary:
        return
    if germ.target.dim != n - 1:
        raise ValueError("boundary germ must map to an (n-1)-dimensional target")
    restricted = _boundary_restriction(germ.lift)
    ident = MultiPoly.from_linear(Matrix.identity(n - 1))
    if not (restricted - ident).is_zero():
        raise ValueError("candidate does not fix the boundary pointwise")


def retraction_contradiction(s: RetractionScenario) -> RetractionReport:
    """Run the no-retraction argument on a declared candidate.

    If the atlas has an interior codimension-1 stratum the hypothesis fails
    and the candidate is not contradicted (a retraction may exist).  When
    the hypothesis holds, the candidate's own data forces a contradiction:
    either its assembled preimage shows a second boundary point (impossible
    when the boundary is fixed pointwise) or the component through p is an
    interval with a mirror end, and such a mirror needs an interior
    codimension-1 stratum that the verified hypothesis excludes.
    """
    hyp = no_retraction_hypothesis(s.atlas)
    if not hyp.holds:
        bad = next(e for e in hyp.evidence if e.has_interior_codim1)
        return RetractionReport(
            status="hypothesis not met", hypothesis=hyp,
            detail="chart %d has an interior codimension-1 singular stratum; "
                   "a boundary retraction is not excluded" % bad.chart_index)
    for idx, germ, lifts in s.germs:
        _verify_boundary_identity(germ)
        report = is_regular_value(germ, s.p, lifts)
        if not report.regular:
            raise ValueError("p is not regular for the candidate germ on chart %d" % idx)

    components = assemble_components(s.pieces)
    boundary_ends = [e for c in components for e in c.terminal_ends
                     if e.kind == BOUNDARY]
    base_ends = [e for e in boundary_ends if e.is_base]
    if len(base_ends) != 1:
        raise AssemblyError("exactly one boundary end must be flagged as p itself")
    if len(boundary_ends) > 1:
        extra = [e for e in boundary_ends if not e.is_base]
        return RetractionReport(
            status="contradiction", hypothesis=hyp,
            contradiction_kind="extra_boundary_point",
            detail="the preimage of p meets the boundary in %d points, but a "
                   "boundary-fixing candidate forces exactly {p}"
                   % len(boundary_ends),
            components=tuple(components),
            mirror_site=(extra[0].chart_index, extra[0].point))

    pc = next(c for c in components
              if any(e.kind == BOUNDARY for e in c.terminal_ends))
    if classify_1_orbifold(pc.component) != "c":
        raise AssertionError("single-boundary interval must carry a mirror end")
    mirror = next(e for e in pc.terminal_ends if e.kind == MIRROR)
    n = s.atlas[0].dim
    detail = ("the component of p is a type (c) interval; its interior mirror "
              "point needs an invariant splitting with a fixed factor of "
              "dimension %d, i.e. an interior codimension-1 singular stratum, "
              "which the verified hypothesis excludes" % (n - 1))
    site = None
    if mirror.chart_index is not None and mirror.point is not None:
        chart = s.atlas[mirror.chart_index]
        iso = isotropy_at(chart, mirror.point)
        fix_dim = fixed_subspace(iso).dim
        site = (mirror.chart_index, mirror.point, iso.order, fix_dim)
        detail += ("; at the declared site the isotropy has order %d with a "
                   "%d-dimensional fixed space (codimension %d, not 1)"
                   % (iso.order, fix_dim, chart.dim - fix_dim))
    return RetractionReport(
        status="contradiction", hypothesis=hyp,
        contradiction_kind="forced_codim1_mirror",
        detail=detail, components=tuple(components), mirror_site=site)
