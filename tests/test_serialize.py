import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from orblocal.ratlin import Matrix, MultiPoly, Subspace
from orblocal import serialize
from orblocal.serialize import SchemaError
from orblocal.corpus import builtin_documents, germ_case


class TestRationals:
    def test_roundtrip(self):
        for s in ("3/4", "-2", "0", "7/3"):
            q = serialize.parse_rational(s, "$")
            assert serialize.parse_rational(str(q), "$") == q

    def test_integer_accepted(self):
        assert serialize.parse_rational(5, "$") == 5

    def test_zero_denominator(self):
        with pytest.raises(SchemaError) as exc:
            serialize.parse_rational("1/0", "$.p[0]")
        assert exc.value.path == "$.p[0]"

    def test_float_rejected(self):
        with pytest.raises(SchemaError):
            serialize.parse_rational(0.5, "$")

    def test_garbage_rejected(self):
        with pytest.raises(SchemaError):
            serialize.parse_rational("pi", "$")


class TestMatrixVector:
    def test_matrix_roundtrip(self):
        m = Matrix([[F(1, 2), 0], [3, -1]])
        assert serialize.parse_matrix(serialize.matrix_json(m), "$") == m

    def test_ragged_rejected(self):
        with pytest.raises(SchemaError):
            serialize.parse_matrix([["1"], ["1", "2"]], "$")

    def test_vector_roundtrip(self):
        v = (F(1), F(-2, 3))
        assert serialize.parse_vector(serialize.vector_json(v), "$") == v


def reference_rational(v, path):
    """parse_rational as it was before integer parsing: Fraction(v)."""
    if not (isinstance(v, str) or serialize._is_int(v)):
        raise SchemaError(path, "expected a rational string or integer, got %r" % (v,))
    try:
        return F(v)
    except (ValueError, ZeroDivisionError) as e:
        raise SchemaError(path, "bad rational %r (%s)" % (v, e)) from None


def reference_vector(v, path):
    if not isinstance(v, list):
        raise SchemaError(path, "expected an array of rationals")
    return tuple(reference_rational(x, "%s[%d]" % (path, i)) for i, x in enumerate(v))


def reference_matrix(v, path):
    """parse_matrix as it was: Fraction rows, then Matrix(rows)."""
    if not isinstance(v, list) or not v or not all(isinstance(r, list) for r in v):
        raise SchemaError(path, "expected a nested array of rationals (rows)")
    rows = [reference_vector(r, "%s[%d]" % (path, i)) for i, r in enumerate(v)]
    if any(len(r) != len(rows[0]) for r in rows):
        raise SchemaError(path, "rows have unequal lengths")
    return Matrix(rows)


def outcome(parse, v):
    try:
        return "value", parse(v, "$.m")
    except SchemaError as e:
        return "error", e.path, e.reason


LIMIT = sys.get_int_max_str_digits()
positive = st.one_of(st.integers(0, 10 ** 6), st.integers(10 ** 30, 10 ** 60))
big = st.one_of(positive, positive.map(lambda n: -n))
valid = st.one_of(
    big,                                          # JSON integers
    big.map(str),
    st.tuples(big, positive.map(lambda n: n + 1)).map(lambda t: "%d/%d" % t),
    # reducible fractions: both parts times a common factor
    st.tuples(big, positive.map(lambda n: n + 1), positive.map(lambda n: n + 2)).map(
        lambda t: "%d/%d" % (t[0] * t[2], t[1] * t[2])),
    # forms only Fraction reads
    st.sampled_from(["+3", " 3 ", "1_000", "1.5", "-.5", "2e3", "\u0663", "-1.5E-2",
                     "3/4\n", "007/014", "-0", "0/5"]),
)
entries = st.one_of(
    valid,
    # digit strings around the int max str digits
    st.tuples(st.integers(LIMIT - 3, LIMIT + 3), st.sampled_from("0123456789")).flatmap(
        lambda t: st.sampled_from([
            "1" + t[1] * t[0], "-" + "7" * t[0], "1/" + "3" * t[0], "3" * t[0] + "/2"])),
    # invalid entries
    st.sampled_from(["3/0", "-0/0", "1/-2", "", " ", "-", "/", "1/", "pi", "0x10",
                     "1 /2", "1e", "inf", "nan"]),
    st.text(alphabet="0123456789-+/._ \u0663", max_size=8),
    st.booleans(), st.floats(allow_nan=False), st.none(), st.just([1]), st.just({}),
)


def matrices(entry):
    """Rectangular arrays of entries, with a row now and then not a list."""
    return st.integers(1, 3).flatmap(lambda cols: st.lists(
        st.one_of(st.lists(entry, min_size=cols, max_size=cols), entry),
        min_size=1, max_size=3))


class TestIntegerParsing:
    """parse_matrix and parse_vector read plain entries with int() and the
    rest with Fraction; either way they give the values, or the errors, of
    the Fraction-only parsers."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.lists(valid, max_size=4), st.lists(entries, max_size=4), entries))
    def test_vector_matches_fraction_reference(self, v):
        assert outcome(serialize.parse_vector, v) == outcome(reference_vector, v)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(matrices(valid), matrices(entries),
                     st.lists(st.lists(entries, max_size=3), max_size=3), entries))
    def test_matrix_matches_fraction_reference(self, v):
        got, want = outcome(serialize.parse_matrix, v), outcome(reference_matrix, v)
        assert got == want
        if got[0] == "value":
            assert got[1].entries == want[1].entries

    def test_exponent_within_the_limit(self):
        q = serialize.parse_rational("1e%d" % (LIMIT - 1), "$")
        assert q == 10 ** (LIMIT - 1) and len(str(q)) == LIMIT
        assert serialize.parse_rational("-25e-%d" % (LIMIT - 1), "$") == F(-25, 10 ** (LIMIT - 1))


def reference_matrix_json(m):
    """The writer before it read integer rows: str of each Fraction entry."""
    return [[str(x) for x in row] for row in m.entries]


BIG = 10 ** 40
# numerators and denominators: small, negative, 40 digits, denominator 1
written_ints = st.one_of(st.integers(-6, 6), st.integers(-BIG, BIG))
written_dens = st.one_of(st.just(1), st.integers(1, 12), st.integers(1, BIG))


@st.composite
def written_matrices(draw):
    """A Matrix of 0-4 rows and 0-4 columns, built from Fraction entries or
    from integer rows over a common denominator."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    if draw(st.booleans()):
        den = draw(written_dens)
        num = tuple(tuple(draw(written_ints) for _ in range(cols)) for _ in range(rows))
        return Matrix._make(num, den, cols)
    entries = [[F(draw(written_ints), draw(written_dens)) for _ in range(cols)]
               for _ in range(rows)]
    return Matrix(entries) if rows else Matrix.zero(0, cols)


@st.composite
def written_subspaces(draw):
    """A subspace of Q^0..Q^4 spanned by 0-5 vectors, among them zero and
    repeated vectors, or the zero or the full space."""
    n = draw(st.integers(0, 4))
    how = draw(st.sampled_from(["span", "span", "zero", "full"]))
    if how == "zero":
        return Subspace.zero(n)
    if how == "full":
        return Subspace.full(n)
    vectors = draw(st.lists(st.lists(st.builds(F, written_ints, written_dens),
                                     min_size=n, max_size=n), max_size=5))
    if vectors and draw(st.booleans()):
        vectors.append(vectors[0])
    return Subspace.from_vectors(n, vectors)


class TestMatrixWriter:
    """matrix_json writes each entry from the integer rows as str(Fraction)
    writes it."""

    @settings(max_examples=300, deadline=None)
    @given(written_matrices())
    def test_matches_fraction_reference(self, m):
        got = serialize.matrix_json(m)
        assert got == reference_matrix_json(m)
        assert len(got) == m.rows and all(len(row) == m.cols for row in got)

    @pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0)])
    def test_empty_shapes(self, rows, cols):
        m = Matrix.zero(rows, cols)
        assert serialize.matrix_json(m) == reference_matrix_json(m) == [[]] * rows

    def test_denominators_reduced_per_entry(self):
        m = Matrix([[F(1, 2), F(-3, 4), 0], [F(5, 6), -2, F(BIG + 1, 3)]])
        assert serialize.matrix_json(m) == [["1/2", "-3/4", "0"],
                                            ["5/6", "-2", "%d/3" % (BIG + 1)]]

    @settings(max_examples=300, deadline=None)
    @given(written_subspaces())
    def test_echelon_is_the_basis(self, s):
        got = serialize.matrix_json(s.echelon)
        assert got == [serialize.vector_json(b) for b in s.basis]
        assert len(got) == s.dim


class TestPoly:
    def test_roundtrip(self):
        p = MultiPoly(2, [{(2, 0): F(1), (0, 2): F(1)}, {(1, 1): F(-1, 2)}])
        blob = serialize.poly_json(p)
        assert serialize.parse_poly(blob, 2, "$") == p

    def test_zero_map_roundtrip(self):
        p = MultiPoly.zero_map(1, 1)
        assert serialize.parse_poly(serialize.poly_json(p), 1, "$") == p

    def test_wrong_arity(self):
        with pytest.raises(SchemaError) as exc:
            serialize.parse_poly([[{"coef": "1", "exps": [1]}]], 2, "$.lift")
        assert "exps" in exc.value.path

    def test_negative_exponent(self):
        with pytest.raises(SchemaError):
            serialize.parse_poly([[{"coef": "1", "exps": [-1]}]], 1, "$")

    def test_duplicate_exponents(self):
        with pytest.raises(SchemaError):
            serialize.parse_poly([[{"coef": "1", "exps": [1]},
                                   {"coef": "2", "exps": [1]}]], 1, "$")


class TestChart:
    def test_roundtrip(self):
        from orblocal.corpus import charts
        for name in ("line-z2", "quarter-plane", "half-plane-mirror"):
            c = charts()[name]
            parsed = serialize.parse_chart(serialize.chart_json(c), "$")
            assert parsed.dim == c.dim
            assert parsed.boundary == c.boundary
            assert set(parsed.group.elements) == set(c.group.elements)

    def test_bad_dim(self):
        with pytest.raises(SchemaError):
            serialize.parse_chart({"dim": 0, "generators": []}, "$")

    def test_noninvertible_generator_is_math_error(self):
        # schema-valid but mathematically broken: not a SchemaError
        doc = {"dim": 2, "generators": [[["1", "0"], ["1", "0"]]]}
        with pytest.raises(ValueError) as exc:
            serialize.parse_chart(doc, "$")
        assert not isinstance(exc.value, SchemaError)


class TestGermPayload:
    def test_roundtrip(self):
        case = germ_case("mirror-line")
        blob = serialize.germ_payload_json(case.germ, case.p, case.lifts)
        germ, p, lifts = serialize.parse_germ_payload(blob, "$")
        assert germ.lift == case.germ.lift
        assert p == case.p
        assert tuple(lifts) == case.lifts

    def test_all_corpus_documents_parse(self):
        for name, doc in builtin_documents().items():
            meta = serialize.parse_scenario(doc)
            assert meta["name"] == name
            if meta["kind"] == "germ":
                serialize.parse_germ_payload(meta["payload"], "$")
            elif meta["kind"] == "chart":
                serialize.parse_chart(meta["payload"], "$")
            elif meta["kind"] == "obstruction":
                serialize.parse_obstruction_payload(meta["payload"], "$")
            elif meta["kind"] == "atlas":
                serialize.parse_atlas_payload(meta["payload"], "$")
            elif meta["kind"] == "component-list":
                for i, cj in enumerate(meta["payload"]["components"]):
                    serialize.parse_component(cj, "$[%d]" % i)

    def test_missing_field_path(self):
        case = germ_case("mirror-line")
        blob = serialize.germ_payload_json(case.germ, case.p, case.lifts)
        del blob["p"]
        with pytest.raises(SchemaError) as exc:
            serialize.parse_germ_payload(blob, "$")
        assert exc.value.path == "$.p"


# each payload kind's reader and the writer that writes its objects back
ROUND_TRIPS = {
    "germ": lambda v: serialize.germ_payload_json(*serialize.parse_germ_payload(v, "$")),
    "chart": lambda v: serialize.chart_json(serialize.parse_chart(v, "$")),
    "obstruction": lambda v: serialize.obstruction_json(
        *serialize.parse_obstruction_payload(v, "$")),
    "component-list": lambda v: serialize.components_json(
        serialize.parse_components(v, "$")),
    "atlas": lambda v: serialize.atlas_json(serialize.parse_atlas_payload(v, "$"),
                                            serialize.parse_chart(v["target"], "$.target")),
}


@pytest.mark.parametrize("name", sorted(builtin_documents()))
def test_builtin_document_round_trip(name):
    # reading a built-in payload and writing it back gives the payload
    doc = builtin_documents()[name]
    assert ROUND_TRIPS[doc["kind"]](doc["payload"]) == doc["payload"]


class TestAtlasEmbeddings:
    def test_declared_embedding_verified(self):
        from orblocal.corpus import charts
        qp = serialize.chart_json(charts()["quarter-plane"])
        mirror = serialize.chart_json(charts()["mirror-plane"])
        payload = {
            "charts": [mirror, qp],
            "target": serialize.chart_json(charts()["line-trivial"]),
            "p": ["0"],
            "embeddings": [{
                "source": 0, "target": 1,
                "linear": [["1", "0"], ["0", "1"]],
                "translate": ["1", "0"],
                "theta_gen_images": [[["1", "0"], ["0", "-1"]]],
            }],
        }
        scenario = serialize.parse_atlas_payload(payload, "$")
        assert len(scenario.atlas) == 2

    def test_broken_embedding_rejected(self):
        from orblocal.corpus import charts
        from orblocal.charts import EmbeddingError
        qp = serialize.chart_json(charts()["quarter-plane"])
        mirror = serialize.chart_json(charts()["mirror-plane"])
        payload = {
            "charts": [mirror, qp],
            "target": serialize.chart_json(charts()["line-trivial"]),
            "p": ["0"],
            "embeddings": [{
                "source": 0, "target": 1,
                "linear": [["1", "0"], ["0", "1"]],
                "translate": ["1", "0"],
                "theta_gen_images": [[["-1", "0"], ["0", "1"]]],
            }],
        }
        with pytest.raises(EmbeddingError):
            serialize.parse_atlas_payload(payload, "$")


def _line_chart():
    return {"dim": 1, "generators": [[["-1"]]]}


def _atlas(**extra):
    return dict({"charts": [_line_chart(), _line_chart()], "target": _line_chart(),
                 "p": ["0"]}, **extra)


def _embedding(source, target):
    return {"source": source, "target": target, "linear": [["1"]],
            "translate": ["0"], "theta_gen_images": [[["-1"]]]}


class TestBooleansAreNotIntegers:
    """JSON true is not an integer, though Python's bool is an int: each
    integer field given true is a schema error at its own path."""

    @pytest.mark.parametrize("parse, doc, path", [
        (serialize.parse_chart, {"dim": True, "generators": [[["-1"]]]}, "$.dim"),
        (serialize.parse_end, {"kind": "mirror", "isotropy_order": True},
         "$.isotropy_order"),
        (serialize.parse_end, {"kind": "boundary", "chart": True}, "$.chart"),
        (serialize.parse_piece, {"chart": True, "ends": [
            {"kind": "boundary"}, {"kind": "boundary"}]}, "$.chart"),
        (serialize.parse_atlas_payload, _atlas(germs=[{"chart": True, "lift": [[]]}]),
         "$.germs[0].chart"),
        (serialize.parse_atlas_payload, _atlas(embeddings=[_embedding(True, 0)]),
         "$.embeddings[0].source"),
        (serialize.parse_atlas_payload, _atlas(embeddings=[_embedding(0, True)]),
         "$.embeddings[0].target"),
    ])
    def test_true_rejected_at_its_path(self, parse, doc, path):
        # an end or a piece is read against its atlas
        atlas = [serialize.parse_chart(_line_chart(), "$")] * 2
        args = (atlas,) if parse in (serialize.parse_end, serialize.parse_piece) else ()
        with pytest.raises(SchemaError) as exc:
            parse(doc, "$", *args)
        assert exc.value.path == path

    def test_cli_exits_one(self, tmp_path, capsys):
        from orblocal.cli import main
        path = tmp_path / "chart.json"
        path.write_text('{"dim": true, "generators": [[["-1"]]]}')
        assert main(["strata", str(path)]) == 1
        assert "$.dim" in capsys.readouterr().err


class TestScenarioWrapper:
    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            serialize.parse_scenario({"kind": "nope", "payload": {}})

    def test_missing_payload(self):
        with pytest.raises(SchemaError) as exc:
            serialize.parse_scenario({"kind": "germ", "name": "x"})
        assert exc.value.path == "$.payload"


class TestComponents:
    def test_loop(self):
        c = serialize.parse_component({"shape": "loop"}, "$")
        assert serialize.component_json(c) == {"shape": "loop"}

    def test_interval(self):
        c = serialize.parse_component(
            {"shape": "interval", "ends": ["boundary", "mirror"]}, "$")
        assert c.ends == ("boundary", "mirror")

    def test_bad_ends(self):
        with pytest.raises(SchemaError):
            serialize.parse_component({"shape": "interval", "ends": ["x", "y"]}, "$")


def _plane_atlas():
    from orblocal.corpus import charts
    return [charts()["point-reflection"], charts()["half-plane"]]


class TestPieces:
    def test_roundtrip(self):
        from orblocal.onedim import AssemblyEnd, AssemblyPiece
        blob = {"name": "arc", "chart": 1, "ends": [
            {"kind": "boundary", "chart": 1, "point": ["0", "0"], "is_base": True},
            {"kind": "glue", "token": "t"}]}
        piece = AssemblyPiece("arc", (
            AssemblyEnd("boundary", chart_index=1, point=(F(0), F(0)), is_base=True),
            AssemblyEnd("glue", token="t")), chart_index=1)
        assert serialize.parse_piece(blob, "$", _plane_atlas()) == piece

    def test_glue_without_token(self):
        with pytest.raises(SchemaError):
            serialize.parse_end({"kind": "glue"}, "$", _plane_atlas())
