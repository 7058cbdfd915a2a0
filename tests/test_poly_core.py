"""Property tests: MultiPoly's integer form (integer numerators over one
denominator) against a plain-Fraction reference of polynomial maps."""

from fractions import Fraction as F
from math import gcd

from hypothesis import given, settings, strategies as st

from orblocal.ratlin import Matrix, MultiPoly

SETTINGS = settings(max_examples=80, deadline=None)

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=7)
# zero coefficients are allowed in the input and must be dropped
coefficients = st.one_of(rationals, st.just(F(0)), st.integers(-3, 3))


def term_dicts(n):
    exps = st.tuples(*[st.integers(0, 2)] * n)
    return st.dictionaries(exps, coefficients, max_size=4)


def maps(n, out):
    return st.lists(term_dicts(n), min_size=out, max_size=out)


def vectors(n):
    return st.lists(rationals, min_size=n, max_size=n)


def matrices(rows, cols):
    return st.lists(vectors(cols), min_size=rows, max_size=rows)


dims = st.tuples(st.integers(0, 3), st.integers(0, 3))
map_and_point = dims.flatmap(lambda d: st.tuples(maps(*d), vectors(d[0])))
map_pair = dims.flatmap(lambda d: st.tuples(st.just(d[0]), maps(*d), maps(*d)))
# a map in n variables, a linear part n x k and a translation in Q^n
substitution = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)).flatmap(
    lambda d: st.tuples(st.just(d[2]), maps(d[0], d[1]), matrices(d[0], d[2]),
                        vectors(d[0])))
post_matrix = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)).flatmap(
    lambda d: st.tuples(st.just(d[0]), maps(d[0], d[1]), matrices(d[2], d[1])))


# --------------------------------------------------------------------------
# plain-Fraction reference: a map is a list of {exponent tuple: Fraction}

def ref_add(a, b, f=F(1)):
    out = {e: F(c) for e, c in a.items()}
    for e, c in b.items():
        out[e] = out.get(e, F(0)) + f * c
    return out


def ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, F(0)) + ca * cb
    return out


def ref_eval(d, point):
    total = F(0)
    for e, c in d.items():
        term = F(c)
        for x, k in zip(point, e):
            term *= F(x) ** k
        total += term
    return total


def ref_partial(d, j):
    out = {}
    for e, c in d.items():
        if e[j]:
            ne = e[:j] + (e[j] - 1,) + e[j + 1:]
            out[ne] = out.get(ne, F(0)) + c * e[j]
    return out


def ref_compose(coords, linear, translate, k):
    zero = (0,) * k
    subs = []
    for row, t in zip(linear, translate):
        sub = {tuple(int(i == j) for i in range(k)): F(a) for j, a in enumerate(row)}
        sub[zero] = sub.get(zero, F(0)) + t
        subs.append(sub)
    out = []
    for d in coords:
        acc = {}
        for e, c in d.items():
            term = {zero: F(c)}
            for sub, p in zip(subs, e):
                for _ in range(p):
                    term = ref_mul(term, sub)
            acc = ref_add(acc, term)
        out.append(acc)
    return out


def ref_apply(coords, m):
    out = []
    for row in m:
        acc = {}
        for a, d in zip(row, coords):
            acc = ref_add(acc, d, F(a))
        out.append(acc)
    return out


def matrix(rows, cols):
    """The Matrix of rows, which has cols columns even without rows."""
    return Matrix(rows) if rows else Matrix.zero(0, cols)


def canonical(coords):
    return tuple(tuple(sorted((e, F(c)) for e, c in d.items() if c != 0))
                 for d in coords)


def assert_matches(p, n, ref):
    """p is the map ref in n variables, in lowest terms, with the canonical
    Fraction view."""
    want = MultiPoly(n, ref)
    assert p == want and hash(p) == hash(want)
    assert p.num_vars == n and p.out_dim == len(ref)
    assert p.coords == canonical(ref)
    assert all(type(c) is F for coord in p.coords for _, c in coord)
    assert p._den > 0
    assert gcd(p._den, *(c for terms in p._num for _, c in terms)) == 1
    assert p.is_zero() == (not any(p.coords))
    again = MultiPoly(n, [dict(p.coords[i]) for i in range(p.out_dim)])
    assert again == p and hash(again) == hash(p)


# --------------------------------------------------------------------------

@SETTINGS
@given(map_and_point)
def test_construction_eval_and_jacobian(case):
    coords, point = case
    n = len(point)
    p = MultiPoly(n, coords)
    assert_matches(p, n, coords)
    assert p.eval(point) == tuple(ref_eval(d, point) for d in coords)
    assert all(type(x) is F for x in p.eval(point))
    jac = p.jacobian_at(point)
    ref_jac = [[ref_eval(ref_partial(d, j), point) for j in range(n)] for d in coords]
    assert jac == matrix(ref_jac, n) and (jac.rows, jac.cols) == (len(coords), n)
    assert jac.entries == tuple(map(tuple, ref_jac))


@SETTINGS
@given(substitution)
def test_compose_affine(case):
    k, coords, linear, translate = case
    n = len(linear)
    p = MultiPoly(n, coords)
    lin = matrix(linear, k)
    assert_matches(p.compose_affine(lin), k,
                   ref_compose(coords, linear, [F(0)] * n, k))
    assert_matches(p.compose_affine(lin, translate), k,
                   ref_compose(coords, linear, translate, k))


@SETTINGS
@given(post_matrix)
def test_apply_matrix(case):
    n, coords, m = case
    p = MultiPoly(n, coords)
    mat = matrix(m, len(coords))
    assert_matches(p.apply_matrix(mat), n, ref_apply(coords, m))


@SETTINGS
@given(map_pair)
def test_sub_eq_and_zero(case):
    n, a, b = case
    pa, pb = MultiPoly(n, a), MultiPoly(n, b)
    diff = [ref_add(x, y, F(-1)) for x, y in zip(a, b)]
    assert_matches(pa - pb, n, diff)
    assert (pa - pa).is_zero() and pa - pa == MultiPoly.zero_map(n, len(a))
    assert (pa == pb) == (canonical(a) == canonical(b))
    if pa == pb:
        assert hash(pa) == hash(pb)


@SETTINGS
@given(st.integers(1, 4), st.data())
def test_linear_and_coordinate_maps(n, data):
    m = data.draw(matrices(data.draw(st.integers(0, 3)), n))
    mat = matrix(m, n)
    ref = [{tuple(int(i == j) for i in range(n)): F(a) for j, a in enumerate(row)}
           for row in m]
    assert_matches(MultiPoly.from_linear(mat), n, ref)
    var = data.draw(st.integers(0, n - 1))
    assert_matches(MultiPoly.coordinate(n, var), n,
                   [{tuple(int(i == var) for i in range(n)): F(1)}])
    assert_matches(MultiPoly.zero_map(n, 2), n, [{}, {}])
