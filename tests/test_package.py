import ast
import inspect
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

import orblocal
from orblocal import charts as charts_mod, corpus, germs, groups, onedim, ratlin, serialize
from orblocal.charts import ChartEmbedding, stratify, verify_embedding
from orblocal.corpus import builtin_documents, charts, germ_case, germ_cases, scenarios
from orblocal.germs import (
    cocycle_identities,
    faithfulness_check,
    invariant_projection,
    is_regular_value,
    lift_replacement_invariance,
    obstruction_certificate,
    preimage_model,
    real_target_structure,
    sard_sample,
)
from orblocal.groups import find_invariant_subspace, verify_homomorphism
from orblocal.onedim import (
    assemble_components,
    boundary_parity,
    forbidden_index2_check,
    no_retraction_hypothesis,
    retraction_contradiction,
)
from orblocal.ratlin import Matrix, Record


def test_every_export_resolves():
    missing = [name for name in orblocal.__all__ if not hasattr(orblocal, name)]
    assert missing == []


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def starred_subscripts(tree, source):
    """The lines of subscripts like x[*a] or x[a, *b]: a starred element in
    an unparenthesized tuple slice, Python 3.11 syntax (PEP 646) that
    ast.parse accepts even with feature_version=(3, 10).  A parenthesized
    tuple, x[(a, *b)], is valid Python 3.10; it ends past its last element,
    at its closing parenthesis."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)
                and any(isinstance(e, ast.Starred) for e in node.slice.elts)):
            t, last = node.slice, node.slice.elts[-1]
            if not ((t.end_lineno, t.end_col_offset) > (last.end_lineno, last.end_col_offset)
                    and ast.get_source_segment(source, t).endswith(")")):
                yield node.lineno


@pytest.mark.parametrize("source, lines", [
    ("x[*a]", [1]), ("x[a, *b]", [1]), ("x[*a,]", [1]), ("x[(a), *b]", [1]),
    ("x[a, *(b)]", [1]), ("y = 1\nx[\n  a,\n  *b]", [2]),
    ("x[(a, *b)]", []), ("x[(*a,)]", []), ("x[(a, *b,)]", []), ("x[f(*a)]", []),
    ("x[a, b]", []), ("x[a:b]", []),
])
def test_starred_subscript_check(source, lines):
    assert list(starred_subscripts(ast.parse(source), source)) == lines


def python_sources():
    """(name, source) of every .py file under src/, tests/ and perfbench/,
    then of every record class's generated constructor."""
    for top in ("src", "tests", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith((".", "__")))
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    with open(path, encoding="utf-8") as fh:
                        yield os.path.relpath(path, ROOT), fh.read()
    for name in GENERATED:
        yield "%s.__init__" % name, ratlin._init_source(RECORD_TYPES[name])


def test_sources_keep_python_3_10_grammar():
    """pyproject.toml declares Python 3.10: every .py file under src/,
    tests/ and perfbench/, and the source of every generated record
    constructor, parses with the 3.10 grammar and has no starred
    subscript."""
    found = []
    for rel, source in python_sources():
        try:
            tree = ast.parse(source, rel, feature_version=(3, 10))
        except SyntaxError as exc:
            found.append("%s:%s: %s" % (rel, exc.lineno, exc.msg))
            continue
        found += ["%s:%d: starred subscript" % (rel, line)
                  for line in starred_subscripts(tree, source)]
    assert found == []


def test_cli_import_loads_no_dataclass_machinery():
    # the records are plain classes, so a cold CLI call does not import
    # dataclasses or what it pulls in (inspect, ast, dis, tokenize, ...)
    src = os.path.dirname(os.path.dirname(os.path.abspath(orblocal.__file__)))
    script = ("import sys, orblocal.cli, orblocal.corpus; "
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


# fields that take no part in equality and hashing, with another value for each
UNCOMPARED = {
    "Subspace": {"pivots": ()},
    "Subgroup": {"generators": ()},
    "QuotientGroup": {"coset_index": {}},
    "MapGerm": {"_lift_values": {(F(7),): (F(7),)}},
    "GroupHom": {"_multiplicative": False},
}


def record_instances():
    """class name -> one instance of every Record class, built from the
    built-in corpus and documents."""
    docs = builtin_documents()
    mirror = germ_case("mirror-line").germ
    edge = germ_case("half-plane-edge")
    qp = charts()["quarter-plane"]
    model = preimage_model(mirror, [0], [0, 0])
    proj = invariant_projection(mirror)
    source, target, theta = serialize.parse_obstruction_payload(
        docs["obstruction-z2-line"]["payload"], "$")
    atlas = serialize.parse_atlas_payload(docs["atlas-disk-reflection"]["payload"], "$")
    components = assemble_components(atlas.pieces)
    strata = stratify(qp)
    identity = verify_homomorphism(qp.group, qp.group, list(qp.group.generators))
    out = [
        mirror.base_kernel,
        mirror.n_group,
        mirror.theta,
        mirror.base_split.intrinsic_isotropy,
        find_invariant_subspace(qp.group, 1),
        qp,
        strata.strata[0],
        strata,
        mirror.base_split,
        verify_embedding(ChartEmbedding(qp, qp, Matrix.identity(2), (F(0), F(0)), identity)),
        mirror,
        is_regular_value(mirror, [0], [[0, 0]]),
        preimage_model(edge.germ, edge.p, edge.lifts[0]),
        proj,
        cocycle_identities(proj),
        faithfulness_check(mirror),
        real_target_structure(mirror, model),
        obstruction_certificate(source, target, theta),
        sard_sample(mirror, [(F(-1), F(1))], 10, 1),
        lift_replacement_invariance(mirror, Matrix.identity(1)),
        components[0].component,
        atlas.pieces[0].ends[0],
        atlas.pieces[0],
        components[0],
        boundary_parity([c.component for c in components if c.component.shape == "loop"]),
        forbidden_index2_check(qp),
        no_retraction_hypothesis(atlas.atlas).evidence[0],
        no_retraction_hypothesis(atlas.atlas),
        atlas,
        retraction_contradiction(atlas),
        germ_cases()[0],
        scenarios()[0],
    ]
    return {type(r).__name__: r for r in out}


RECORD_TYPES = {
    name: obj for mod in (ratlin, groups, charts_mod, germs, onedim, corpus)
    for name, obj in vars(mod).items()
    if isinstance(obj, type) and issubclass(obj, Record) and obj is not Record
    and obj.__module__ == mod.__name__}
RECORD_CLASSES = sorted(RECORD_TYPES)
# the record classes that declare slots of their own, each with a generated
# constructor
GENERATED = [name for name in RECORD_CLASSES if "__slots__" in vars(RECORD_TYPES[name])]


def generated(fn):
    """Whether fn is a constructor that Record generated."""
    return fn.__code__.co_filename == ratlin._INIT_FILE


@pytest.fixture(scope="module")
def records():
    return record_instances()


def hash_or_error(r):
    try:
        return hash(r)
    except TypeError as e:  # a record holding a dict or list is unhashable
        return str(e)


def init_fields(r):
    """The names of the parameters of r's constructor."""
    return list(inspect.signature(type(r).__init__).parameters)[1:]


def twin(r):
    """A new record built from r's constructor arguments."""
    return type(r)(**{name: getattr(r, name) for name in init_fields(r)})


def test_every_record_class_has_an_instance(records):
    assert len(RECORD_CLASSES) == 32
    assert sorted(records) == RECORD_CLASSES


@pytest.mark.parametrize("name", RECORD_CLASSES)
def test_record_contract(records, name):
    r = records[name]
    for field in init_fields(r) + list(UNCOMPARED.get(name, ())):
        with pytest.raises(AttributeError):
            setattr(r, field, getattr(r, field))
        with pytest.raises(AttributeError):
            delattr(r, field)
    other = twin(r)
    assert other is not r and other == r and not other != r
    assert hash_or_error(other) == hash_or_error(r)
    for field, value in UNCOMPARED.get(name, {}).items():
        changed = twin(r)
        object.__setattr__(changed, field, value)
        assert getattr(changed, field) != getattr(r, field)
        assert changed == r and hash(changed) == hash(r)


def test_record_constructors():
    # only the records that validate their arguments or compute a slot
    # define a constructor; the others are built by their generated one
    own = sorted(name for name, cls in RECORD_TYPES.items() if not generated(cls.__init__))
    assert own == ["AssemblyEnd", "LocalChart", "MapGerm", "OneOrbifoldComponent",
                   "Scenario", "Subgroup"]
    # MapGerm declares no slots, so none is compiled for it
    assert sorted(set(RECORD_CLASSES) - set(GENERATED)) == ["MapGerm"]
    assert all(generated(RECORD_TYPES[name]._init) for name in GENERATED)


@pytest.mark.parametrize("name", RECORD_CLASSES)
def test_generated_constructor_signature(name):
    # the public slots in slot order, then the private slots by keyword
    # only, each defaulting to its _defaults value, and nothing else; a
    # class without slots of its own gets no constructor
    cls = RECORD_TYPES[name]
    if name not in GENERATED:
        assert not hasattr(cls, "_init") and not generated(cls.__init__)
        return
    slots = vars(cls)["__slots__"]
    P = inspect.Parameter

    def param(slot, kind):
        return P(slot, kind, default=cls._defaults.get(slot, P.empty))

    expected = inspect.Signature(
        [P("self", P.POSITIONAL_OR_KEYWORD)]
        + [param(s, P.POSITIONAL_OR_KEYWORD) for s in slots if not s.startswith("_")]
        + [param(s, P.KEYWORD_ONLY) for s in slots if s.startswith("_")])
    assert inspect.signature(cls._init) == expected
    assert cls._init.__qualname__ == name + ".__init__"
    if generated(cls.__init__):
        assert cls.__init__ is cls._init


def test_subgroup_checks_closure():
    qp = charts()["quarter-plane"].group
    assert groups.Subgroup(qp, (0,)).generators == ()
    with pytest.raises(ValueError, match="^member set not closed under product$"):
        groups.Subgroup(qp, tuple(range(qp.order - 1)))


def test_record_init_binds_slots():
    Report = onedim.RetractionReport
    hyp = onedim.HypothesisReport(True, ())
    full = Report("contradiction", hyp, "kind", "detail", (), (0, (F(1),)))
    assert full == Report(status="contradiction", hypothesis=hyp, contradiction_kind="kind",
                          detail="detail", components=(), mirror_site=(0, (F(1),)))
    assert full == Report("contradiction", hyp, "kind", detail="detail",
                          mirror_site=(0, (F(1),)))
    # fields left out take the class's defaults
    short = Report("hypothesis not met", hyp)
    assert (short.contradiction_kind, short.detail, short.components,
            short.mirror_site) == (None, "", (), None)
    assert Report("hypothesis not met", hyp, components=()) == short
    # private slots start from the defaults, and a keyword may set them
    assert groups.GroupHom(None, None, ())._multiplicative is False
    assert groups.GroupHom(None, None, (), _multiplicative=True)._multiplicative is True


@pytest.mark.parametrize("args, kwargs, message", [
    pytest.param((), {}, "RetractionReport.__init__() missing 2 required positional "
                 "arguments: 'status' and 'hypothesis'", id="missing-two"),
    pytest.param(("s",), {}, "RetractionReport.__init__() missing 1 required positional "
                 "argument: 'hypothesis'", id="missing-one"),
    pytest.param(("s", None), {"colour": 1}, "RetractionReport.__init__() got an "
                 "unexpected keyword argument 'colour'", id="unexpected-keyword"),
    pytest.param(("s", None), {"status": "t"}, "RetractionReport.__init__() got multiple "
                 "values for argument 'status'", id="doubled"),
    pytest.param(("s", None, None, "", (), None, 7), {}, "RetractionReport.__init__() takes "
                 "from 3 to 7 positional arguments but 8 were given", id="surplus"),
])
def test_record_init_rejects_bad_arguments(args, kwargs, message):
    with pytest.raises(TypeError) as exc:
        onedim.RetractionReport(*args, **kwargs)
    assert str(exc.value) == message
