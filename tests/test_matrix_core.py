"""Property tests: the integer-scaled Matrix core against plain Fractions."""

from fractions import Fraction as F
from math import gcd

from hypothesis import given, settings, strategies as st

from orblocal.groups import generate_closure
from orblocal.ratlin import Matrix

SETTINGS = settings(max_examples=80, deadline=None)

rationals = st.fractions(min_value=-12, max_value=12, max_denominator=9)
scalars = st.one_of(rationals, st.integers(-5, 5), st.just(F(0)), st.just(0))


def grids(rows, cols):
    return st.lists(st.lists(rationals, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


shapes = st.tuples(st.integers(0, 4), st.integers(0, 4))
grid = shapes.flatmap(lambda rc: grids(*rc))
same_shape_pair = shapes.flatmap(lambda rc: st.tuples(grids(*rc), grids(*rc)))
# a matrix with no rows has no columns, so it chains only with a 0-row matrix
chained_pair = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)).flatmap(
    lambda rkc: st.tuples(grids(rkc[0], rkc[1] if rkc[0] else 0),
                          grids(rkc[1] if rkc[0] else 0, rkc[2])))


def ref_mul(a, b):
    cols = len(b[0]) if b else 0
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), F(0))
             for j in range(cols)] for i in range(len(a))]


def assert_matches(m, ref):
    """m equals the matrix of ref, entry by entry, and is in lowest terms."""
    want = Matrix(ref)
    assert m == want and hash(m) == hash(want)
    assert (m.rows, m.cols) == (want.rows, want.cols)
    assert m.entries == tuple(tuple(F(x) for x in row) for row in ref)
    assert all(type(x) is F for row in m.entries for x in row)
    assert m._den > 0
    assert gcd(m._den, *(x for row in m._num for x in row)) == 1
    again = Matrix(m.entries)
    assert again == m and hash(again) == hash(m)


@SETTINGS
@given(chained_pair)
def test_mul(pair):
    a, b = pair
    assert_matches(Matrix(a) * Matrix(b), ref_mul(a, b))


@SETTINGS
@given(same_shape_pair)
def test_add_sub(pair):
    a, b = pair
    assert_matches(Matrix(a) + Matrix(b),
                   [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
    assert_matches(Matrix(a) - Matrix(b),
                   [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
    assert (Matrix(a) - Matrix(a)).is_zero()


@SETTINGS
@given(grid, scalars)
def test_neg_transpose_and_scale(a, c):
    m = Matrix(a)
    assert_matches(-m, [[-x for x in row] for row in a])
    assert_matches(m.transpose(), [list(col) for col in zip(*a)])
    scaled = [[F(c) * x for x in row] for row in a]
    assert_matches(m.scale(c), scaled)
    assert_matches(m * c, scaled)
    assert_matches(c * m, scaled)
    assert m.scale(c).is_zero() == all(x == 0 for row in scaled for x in row)


conjugators = st.lists(rationals, min_size=4, max_size=4).filter(
    lambda p: p[0] * p[3] - p[1] * p[2] != 0)


@SETTINGS
@given(conjugators, st.data())
def test_group_index_finds_products(p, data):
    p = Matrix([p[:2], p[2:]])
    pinv = p.inverse()
    rot4, mirror = Matrix([[0, -1], [1, 0]]), Matrix([[1, 0], [0, -1]])
    grp = generate_closure(2, [p * g * pinv for g in (rot4, mirror)])
    assert grp.order == 8
    from_entries = {Matrix(e.entries): k for k, e in enumerate(grp.elements)}
    i = data.draw(st.integers(0, grp.order - 1))
    j = data.draw(st.integers(0, grp.order - 1))
    product = grp.element(i) * grp.element(j)
    assert from_entries[product] == grp.index_of(product) == grp.mul(i, j)
    assert grp.index_of(Matrix(product.entries)) == grp.mul(i, j)
