"""The document format: the scenario wrapper, the payloads of charts,
germs, obstructions, component lists and atlases, and report values.

Each payload kind has a reader (parse_*), which checks the document and
builds the library's objects, and a writer (*_json), which writes those
objects back as the reader reads them; the built-in documents
(corpus.builtin_documents) are written by these writers from the objects
the corpus runs.  Rationals travel as strings "p/q" or "n" so nothing is
ever rounded; matrices are row-major nested arrays of such strings;
polynomial maps are arrays (one per output coordinate) of
{"coef": rational, "exps": [int,...]} terms.  Schema violations raise
SchemaError carrying the JSON path of the offending field; mathematical
failures (non-invertible generators, broken equivariance, ...) propagate
as the library's own exceptions.

Entries of the form str(Fraction) writes ("-?[0-9]+(/[0-9]+)?" or a JSON
integer) are read with int(), and a matrix is built as integer rows over
the lcm of its denominators; any other entry goes through parse_rational
and Fraction.  Lengths are checked against their charts, and a literal
whose decimal exponent is too large to write is rejected (check_exponent).
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm

from .ratlin import Matrix, MultiPoly
from .groups import GroupHom, verify_homomorphism
from .charts import ChartEmbedding, LocalChart, build_chart, verify_embedding
from .germs import MapGerm, build_germ
from .onedim import (
    AssemblyEnd,
    AssemblyPiece,
    OneOrbifoldComponent,
    RetractionScenario,
    BOUNDARY,
    MIRROR,
    GLUE,
    LOOP,
    INTERVAL,
)

# an integer or a fraction of integers, in the ASCII form str(Fraction) writes
_PLAIN_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
# a decimal literal with an exponent, in the syntax of fractions.Fraction
_EXPONENT_LITERAL = re.compile(
    r"\s*[-+]?(?=\d|\.\d)(\d*|\d+(?:_\d+)*)(?:\.(\d*|\d+(?:_\d+)*))?"
    r"[eE]([-+]?\d+(?:_\d+)*)\s*")


class SchemaError(ValueError):
    """Input does not match the schema; carries the JSON path."""

    def __init__(self, path: str, message: str):
        super().__init__("at %s: %s" % (path, message))
        self.path = path
        self.reason = message


def _is_int(v) -> bool:
    """Whether v is a JSON integer; Python's bool is an int, JSON's is not."""
    return isinstance(v, int) and not isinstance(v, bool)


def check_exponent(text: str, path: str) -> None:
    """Raise SchemaError at path when text is a decimal literal whose
    exponent would make Fraction build an integer of more digits than
    sys.get_int_max_str_digits() (no bound when that is 0).

    Fraction reads "a.be" + "x" as (ab * 10^x) / 10^len(b), building the
    power of ten first, so "1e999999999" would never finish, and "1e5000"
    would give a value that str() cannot write.
    """
    limit = sys.get_int_max_str_digits()
    m = _EXPONENT_LITERAL.fullmatch(text)
    if not limit or m is None:
        return
    whole, frac, exp = m.groups()
    frac = len((frac or "").replace("_", ""))
    try:
        e = int(exp)
    except ValueError:  # the exponent itself is past the limit
        e = limit + 1
    # digits of the numerator and the denominator before reduction
    if max(len(whole.replace("_", "")) + frac + max(e, 0), 1 + frac + max(-e, 0)) > limit:
        raise SchemaError(path, "bad rational %r (its exponent gives more than "
                          "%d digits)" % (text, limit))


def parse_rational(v, path: str) -> Fraction:
    if not (isinstance(v, str) or _is_int(v)):
        raise SchemaError(path, "expected a rational string or integer, got %r" % (v,))
    if isinstance(v, str):
        check_exponent(v, path)
    try:
        q = Fraction(v)
    except (ValueError, ZeroDivisionError) as e:
        raise SchemaError(path, "bad rational %r (%s)" % (v, e)) from None
    return q


def _parts(v: list, path: str, row: int | None = None) -> list[tuple[int, int]]:
    """(numerator, denominator > 0) of each entry of the array v at path, or
    at path[row]; an entry that is not plain, or whose int() fails (past
    the int max str digits) or whose denominator is 0, goes through
    parse_rational, which reports it.  The pairs need not be in lowest terms."""
    out = []
    plain = _PLAIN_RATIONAL.fullmatch
    for i, x in enumerate(v):
        if type(x) is int:
            out.append((x, 1))
            continue
        m = plain(x) if type(x) is str else None
        if m is not None:
            num, den = m.groups()
            try:
                num, den = int(num), int(den or 1)
            except ValueError:
                den = 0
            if den:
                out.append((num, den))
                continue
        where = "%s[%d]" % (path, i) if row is None else "%s[%d][%d]" % (path, row, i)
        q = parse_rational(x, where)
        out.append((q.numerator, q.denominator))
    return out


def array_field(v: dict, key: str, path: str, items: str) -> list:
    """The array v[key], [] when v has no key; SchemaError at path.key when
    it is not an array (of the named items)."""
    a = v.get(key, [])
    if not isinstance(a, list):
        raise SchemaError("%s.%s" % (path, key), "expected an array of %s" % items)
    return a


def parse_vector(v, path: str, dim: int | None = None) -> tuple[Fraction, ...]:
    """An array of rationals, of dim entries when dim is given."""
    if not isinstance(v, list):
        raise SchemaError(path, "expected an array of rationals")
    out = tuple([Fraction(n, d) for n, d in _parts(v, path)])
    if dim is not None and len(out) != dim:
        raise SchemaError(path, "expected %d coordinates, got %d" % (dim, len(out)))
    return out


def vector_json(v) -> list[str]:
    return [str(x) for x in v]


def parse_matrix(v, path: str, dim: int | None = None) -> Matrix:
    """A matrix from nested arrays of rationals, dim x dim when dim is given."""
    if not isinstance(v, list) or not v or not all(isinstance(r, list) for r in v):
        raise SchemaError(path, "expected a nested array of rationals (rows)")
    rows = [_parts(r, path, i) for i, r in enumerate(v)]
    cols = len(rows[0])
    if any(len(r) != cols for r in rows):
        raise SchemaError(path, "rows have unequal lengths")
    if dim is not None and (len(rows) != dim or cols != dim):
        raise SchemaError(path, "expected a %dx%d matrix, got %dx%d"
                          % (dim, dim, len(rows), cols))
    den = lcm(*[d for row in rows for _, d in row])
    return Matrix._make(tuple([tuple([n * (den // d) for n, d in row]) for row in rows]),
                        den, cols)


def matrix_json(m: Matrix) -> list[list[str]]:
    """The entries of m as str(Fraction) writes them, "n" or "n/d" in
    lowest terms, read straight from its integer rows m._num over m._den:
    one gcd per entry and no Fraction.  For a subspace s,
    matrix_json(s.echelon) is the list of vector_json of s.basis."""
    den = m._den
    if den == 1:
        return [[str(x) for x in row] for row in m._num]
    out = []
    for row in m._num:
        strs = []
        for x in row:
            g = gcd(x, den)
            strs.append(str(x // g) if g == den else "%d/%d" % (x // g, den // g))
        out.append(strs)
    return out


def parse_poly(v, num_vars: int, path: str, out_dim: int | None = None) -> MultiPoly:
    """A polynomial map in num_vars variables, with out_dim output
    coordinates when out_dim is given."""
    if not isinstance(v, list):
        raise SchemaError(path, "expected an array of output coordinates")
    if out_dim is not None and len(v) != out_dim:
        raise SchemaError(path, "expected %d output coordinates, got %d"
                          % (out_dim, len(v)))
    coords = []
    for i, coord in enumerate(v):
        cpath = "%s[%d]" % (path, i)
        if not isinstance(coord, list):
            raise SchemaError(cpath, "expected an array of terms")
        d = {}
        for j, term in enumerate(coord):
            tpath = "%s[%d]" % (cpath, j)
            if not isinstance(term, dict) or set(term) != {"coef", "exps"}:
                raise SchemaError(tpath, 'expected {"coef": ..., "exps": [...]}')
            coef = parse_rational(term["coef"], tpath + ".coef")
            exps = term["exps"]
            if (not isinstance(exps, list)
                    or any(not _is_int(e) or e < 0 for e in exps)):
                raise SchemaError(tpath + ".exps", "expected nonnegative integers")
            if len(exps) != num_vars:
                raise SchemaError(tpath + ".exps",
                                  "expected %d exponents, got %d" % (num_vars, len(exps)))
            key = tuple(exps)
            if key in d:
                raise SchemaError(tpath + ".exps", "duplicate exponent vector")
            d[key] = d.get(key, Fraction(0)) + coef
        coords.append(d)
    return MultiPoly(num_vars, coords)


def poly_json(p: MultiPoly) -> list[list[dict]]:
    return [
        [{"coef": str(c), "exps": list(e)} for e, c in coord]
        for coord in p.coords
    ]


def parse_chart(v, path: str) -> LocalChart:
    if not isinstance(v, dict):
        raise SchemaError(path, "expected a chart object")
    if "dim" not in v or not _is_int(v["dim"]) or v["dim"] < 1:
        raise SchemaError(path + ".dim", "expected a positive integer")
    boundary = v.get("boundary", False)
    if not isinstance(boundary, bool):
        raise SchemaError(path + ".boundary", "expected a boolean")
    gens = [parse_matrix(g, "%s.generators[%d]" % (path, i), v["dim"])
            for i, g in enumerate(array_field(v, "generators", path, "matrices"))]
    return build_chart(v["dim"], gens, boundary=boundary)


def chart_json(c: LocalChart) -> dict:
    return {
        "dim": c.dim,
        "boundary": c.boundary,
        "generators": [matrix_json(g) for g in c.group.generators],
    }


def parse_theta(v, source: LocalChart, target: LocalChart, path: str) -> GroupHom:
    if not isinstance(v, list):
        raise SchemaError(path, "expected an array of target element matrices")
    images = [parse_matrix(m, "%s[%d]" % (path, i), target.dim)
              for i, m in enumerate(v)]
    if len(images) != len(source.group.generator_indices):
        raise SchemaError(path, "expected %d generator images, got %d"
                          % (len(source.group.generator_indices), len(images)))
    return verify_homomorphism(source.group, target.group, images)


def theta_json(theta: GroupHom) -> list[list[list[str]]]:
    """The images of the source group's generators, as parse_theta reads them."""
    image = theta.target.element
    return [matrix_json(image(theta.mapping[i])) for i in theta.source.generator_indices]


def _parse_germ(v: dict, source: LocalChart, target: LocalChart, path: str,
                base_point=None) -> tuple[MapGerm, list]:
    """(germ, preimage lifts) from the germ fields of v at path: its
    theta_gen_images ([] when absent), lift and preimage_lifts, with the
    germ's base point base_point (None for the origin)."""
    theta = parse_theta(v.get("theta_gen_images", []), source, target,
                        path + ".theta_gen_images")
    lift = parse_poly(v.get("lift"), source.dim, path + ".lift", target.dim)
    germ = build_germ(source, target, lift, theta, base_point)
    lifts = [parse_vector(x, "%s.preimage_lifts[%d]" % (path, i), source.dim)
             for i, x in enumerate(array_field(v, "preimage_lifts", path, "points"))]
    return germ, lifts


def _germ_json(germ: MapGerm, lifts) -> dict:
    """The germ fields _parse_germ reads."""
    return {"theta_gen_images": theta_json(germ.theta), "lift": poly_json(germ.lift),
            "preimage_lifts": [vector_json(x) for x in lifts]}


def _require(v, path: str, what: str, keys: tuple[str, ...]) -> None:
    """SchemaError at path unless v is an object (what names it), and at
    path.key for the first of keys that it lacks."""
    if not isinstance(v, dict):
        raise SchemaError(path, "expected %s" % what)
    for key in keys:
        if key not in v:
            raise SchemaError("%s.%s" % (path, key), "missing required field")


def parse_germ_payload(v, path: str) -> tuple[MapGerm, tuple, list]:
    """Parse a germ scenario payload: (germ, target point p, preimage lifts)."""
    _require(v, path, "a germ scenario object",
             ("source", "target", "theta_gen_images", "lift", "p"))
    source = parse_chart(v["source"], path + ".source")
    target = parse_chart(v["target"], path + ".target")
    base = parse_vector(v["base_point"], path + ".base_point", source.dim) \
        if "base_point" in v else None
    germ, lifts = _parse_germ(v, source, target, path, base)
    return germ, parse_vector(v["p"], path + ".p", target.dim), lifts


def germ_payload_json(germ: MapGerm, p, lifts) -> dict:
    return {"source": chart_json(germ.source), "target": chart_json(germ.target),
            **_germ_json(germ, lifts), "base_point": vector_json(germ.base_point),
            "p": vector_json(p)}


def parse_obstruction_payload(v, path: str):
    _require(v, path, "an obstruction scenario object",
             ("source", "target", "theta_gen_images"))
    source = parse_chart(v["source"], path + ".source")
    target = parse_chart(v["target"], path + ".target")
    theta = parse_theta(v["theta_gen_images"], source, target,
                        path + ".theta_gen_images")
    return source, target, theta


def obstruction_json(source: LocalChart, target: LocalChart, theta: GroupHom) -> dict:
    return {"source": chart_json(source), "target": chart_json(target),
            "theta_gen_images": theta_json(theta)}


def parse_component(v, path: str) -> OneOrbifoldComponent:
    if not isinstance(v, dict) or "shape" not in v:
        raise SchemaError(path, 'expected {"shape": ...}')
    shape = v["shape"]
    if shape == LOOP:
        return OneOrbifoldComponent(LOOP)
    if shape == INTERVAL:
        ends = v.get("ends")
        if (not isinstance(ends, list) or len(ends) != 2
                or any(e not in (BOUNDARY, MIRROR) for e in ends)):
            raise SchemaError(path + ".ends",
                              'expected two of "boundary"/"mirror"')
        return OneOrbifoldComponent(INTERVAL, tuple(ends))
    raise SchemaError(path + ".shape", 'expected "loop" or "interval"')


def component_json(c: OneOrbifoldComponent) -> dict:
    if c.shape == LOOP:
        return {"shape": LOOP}
    return {"shape": INTERVAL, "ends": list(c.ends)}


def parse_components(v, path: str) -> list[OneOrbifoldComponent]:
    """The components of a component-list payload {"components": [...]}."""
    _require(v, path, "a component-list object", ("components",))
    return [parse_component(c, "%s.components[%d]" % (path, i))
            for i, c in enumerate(array_field(v, "components", path, "components"))]


def components_json(components) -> dict:
    return {"components": [component_json(c) for c in components]}


def _chart_index(i, atlas: list[LocalChart], path: str) -> int:
    """i when it is an integer that indexes into atlas."""
    if not _is_int(i) or not 0 <= i < len(atlas):
        raise SchemaError(path, "expected a chart index from 0 to %d" % (len(atlas) - 1))
    return i


def parse_end(v, path: str, atlas: list[LocalChart]) -> AssemblyEnd:
    """An end, whose chart and point must fit the atlas."""
    if not isinstance(v, dict) or "kind" not in v:
        raise SchemaError(path, 'expected {"kind": ...}')
    kind = v["kind"]
    if kind not in (BOUNDARY, MIRROR, GLUE):
        raise SchemaError(path + ".kind", "unknown end kind %r" % (kind,))
    token = v.get("token")
    if token is not None and not isinstance(token, str):
        raise SchemaError(path + ".token", "expected a string")
    order = v.get("isotropy_order", 2 if kind == MIRROR else 1)
    if not _is_int(order) or order < 1:
        raise SchemaError(path + ".isotropy_order", "expected a positive integer")
    chart_index = v.get("chart")
    if chart_index is not None:
        _chart_index(chart_index, atlas, path + ".chart")
    point = None if "point" not in v else parse_vector(
        v["point"], path + ".point", atlas[0].dim)
    is_base = v.get("is_base", False)
    if not isinstance(is_base, bool):
        raise SchemaError(path + ".is_base", "expected a boolean")
    try:
        return AssemblyEnd(kind, token=token, isotropy_order=order,
                           chart_index=chart_index, point=point, is_base=is_base)
    except ValueError as e:
        raise SchemaError(path, str(e)) from None


def end_json(e: AssemblyEnd) -> dict:
    """The end as parse_end reads it, without the fields at their parse
    defaults: no token, chart or point, the kind's isotropy order, not base."""
    order = e.isotropy_order
    fields = {"kind": e.kind, "token": e.token, "chart": e.chart_index,
              "isotropy_order": None if order == (2 if e.kind == MIRROR else 1) else order,
              "point": None if e.point is None else vector_json(e.point),
              "is_base": e.is_base or None}
    return {k: v for k, v in fields.items() if v is not None}


def parse_piece(v, path: str, atlas: list[LocalChart]) -> AssemblyPiece:
    """A piece, whose charts and points must fit the atlas."""
    if not isinstance(v, dict) or "ends" not in v:
        raise SchemaError(path, 'expected {"name": ..., "ends": [...]}')
    name = v.get("name", "piece")
    if not isinstance(name, str):
        raise SchemaError(path + ".name", "expected a string")
    ends = v["ends"]
    if not isinstance(ends, list) or len(ends) != 2:
        raise SchemaError(path + ".ends", "expected exactly two ends")
    chart_index = v.get("chart")
    if chart_index is not None:
        _chart_index(chart_index, atlas, path + ".chart")
    ends = tuple(parse_end(e, "%s.ends[%d]" % (path, i), atlas) for i, e in enumerate(ends))
    return AssemblyPiece(name, ends, chart_index)


def piece_json(pc: AssemblyPiece) -> dict:
    """The piece as parse_piece reads it, without a chart when it has none."""
    fields = {"name": pc.name, "chart": pc.chart_index, "ends": [end_json(e) for e in pc.ends]}
    return {k: v for k, v in fields.items() if v is not None}


def parse_atlas_payload(v, path: str) -> RetractionScenario:
    """Parse a retraction/parity atlas: charts of one dimension, target, p,
    germs, pieces."""
    _require(v, path, "an atlas object", ())
    charts_json = v.get("charts")
    if not isinstance(charts_json, list) or not charts_json:
        raise SchemaError(path + ".charts", "expected a nonempty array of charts")
    charts = [parse_chart(c, "%s.charts[%d]" % (path, i))
              for i, c in enumerate(charts_json)]
    for i, c in enumerate(charts):
        if c.dim != charts[0].dim:
            raise SchemaError("%s.charts[%d].dim" % (path, i),
                              "expected %d, the dimension of charts[0], got %d"
                              % (charts[0].dim, c.dim))
    _require(v, path, "an atlas object", ("target", "p"))
    target = parse_chart(v["target"], path + ".target")
    p = parse_vector(v["p"], path + ".p", target.dim)
    germs = []
    for i, g in enumerate(array_field(v, "germs", path, "germs")):
        gpath = "%s.germs[%d]" % (path, i)
        if not isinstance(g, dict) or "chart" not in g:
            raise SchemaError(gpath, 'expected {"chart": index, "lift": ...}')
        ci = _chart_index(g["chart"], charts, gpath + ".chart")
        germs.append((ci, *_parse_germ(g, charts[ci], target, gpath)))
    pieces = [parse_piece(pc, "%s.pieces[%d]" % (path, i), charts)
              for i, pc in enumerate(array_field(v, "pieces", path, "pieces"))]
    for i, e in enumerate(array_field(v, "embeddings", path, "embeddings")):
        epath = "%s.embeddings[%d]" % (path, i)
        parse_embedding(e, charts, epath)
    return RetractionScenario(atlas=charts, p=p, germs=germs, pieces=pieces)


def atlas_json(s: RetractionScenario, target: LocalChart) -> dict:
    """The atlas payload of s, whose germs map to target; embeddings are
    not written."""
    return {
        "charts": [chart_json(c) for c in s.atlas],
        "target": chart_json(target),
        "p": vector_json(s.p),
        "germs": [{"chart": ci, **_germ_json(germ, lifts)} for ci, germ, lifts in s.germs],
        "pieces": [piece_json(pc) for pc in s.pieces],
    }


def parse_embedding(v, charts: list[LocalChart], path: str) -> ChartEmbedding:
    """Parse and verify a declared chart embedding (indices into the atlas)."""
    _require(v, path, "an embedding object",
             ("source", "target", "linear", "translate", "theta_gen_images"))
    si = _chart_index(v["source"], charts, path + ".source")
    ti = _chart_index(v["target"], charts, path + ".target")
    linear = parse_matrix(v["linear"], path + ".linear")
    translate = parse_vector(v["translate"], path + ".translate")
    theta = parse_theta(v["theta_gen_images"], charts[si], charts[ti],
                        path + ".theta_gen_images")
    emb = ChartEmbedding(charts[si], charts[ti], linear, translate, theta)
    return verify_embedding(emb)


KNOWN_KINDS = ("chart", "germ", "obstruction", "atlas", "component-list")


def parse_scenario(doc, path: str = "$") -> dict:
    """Validate the scenario wrapper; returns kind/name/anchor/payload."""
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected a scenario object")
    kind = doc.get("kind")
    if kind not in KNOWN_KINDS:
        raise SchemaError(path + ".kind", "expected one of %s" % (KNOWN_KINDS,))
    name = doc.get("name", "unnamed")
    if not isinstance(name, str):
        raise SchemaError(path + ".name", "expected a string")
    anchor = doc.get("anchor", "")
    if not isinstance(anchor, str):
        raise SchemaError(path + ".anchor", "expected a string")
    if "payload" not in doc:
        raise SchemaError(path + ".payload", "missing required field")
    return {"kind": kind, "name": name, "anchor": anchor, "payload": doc["payload"]}
