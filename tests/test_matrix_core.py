"""Property tests: the integer-scaled Matrix core, its fraction-free
elimination and Subspace against plain Fractions."""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from orblocal import ratlin
from orblocal.groups import eigenspace, generate_closure
from orblocal.ratlin import (Matrix, Subspace, _eliminate, _over, kernel, kernel_image_rank,
                             solve_exact)

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
    if m.cols:
        assert_matches(m.transpose(), [list(col) for col in zip(*a)])
    else:  # the transpose has no rows to list its entries by
        assert m.transpose() == Matrix.zero(0, m.rows)
    assert m.transpose().transpose() == m
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


# ---------------------------------------------------------------------------
# elimination and subspaces against a plain-Fraction Gauss-Jordan reference


def ref_rref(a):
    """Reduced row-echelon rows and pivot columns, over Fractions."""
    m = [[F(x) for x in row] for row in a]
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [inv * x for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, tuple(pivots)


def ref_det(a):
    m = [[F(x) for x in row] for row in a]
    n = len(m)
    d = F(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pr is None:
            return F(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            d = -d
        d *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return d


def ref_span(n, vectors):
    """The nonzero reduced echelon rows of a spanning set."""
    red, pivots = ref_rref(vectors)
    return tuple(tuple(row) for row in red[:len(pivots)])


def ref_contains(basis, v):
    return ref_span(len(v), list(basis) + [list(v)]) == tuple(basis)


def ref_kernel(a, cols):
    red, pivots = ref_rref(a)
    vecs = []
    for j in range(cols):
        if j not in pivots:
            v = [F(0)] * cols
            v[j] = F(1)
            for r, c in enumerate(pivots):
                v[c] = -red[r][j]
            vecs.append(v)
    return ref_span(cols, vecs)


def ref_intersect(n, a, b):
    block = [list(x) + list(x) for x in a] + [list(x) + [F(0)] * n for x in b]
    red, _ = ref_rref(block)
    return ref_span(n, [row[n:] for row in red
                        if not any(row[:n]) and any(row[n:])])


def ref_apply(m, v):
    return [sum((x * y for x, y in zip(row, v)), F(0)) for row in m]


sparse = st.sampled_from((F(0), F(0), F(1), F(-1), F(2), F(-1, 2)))


@st.composite
def row_sets(draw, cols, min_rows=0, max_rows=5):
    """Rows with zero rows, repeats, negated multiples and sums of earlier rows."""
    rows = []
    for _ in range(draw(st.integers(min_rows, max_rows))):
        kind = draw(st.sampled_from(("fresh", "sparse", "zero", "repeat", "multiple", "sum")))
        if kind == "zero":
            rows.append([F(0)] * cols)
        elif kind == "sparse":
            rows.append(draw(st.lists(sparse, min_size=cols, max_size=cols)))
        elif kind == "fresh" or not rows:
            rows.append(draw(st.lists(rationals, min_size=cols, max_size=cols)))
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "multiple":
            c = draw(st.sampled_from((F(-1), F(-3, 2), F(2), F(-1, 7))))
            rows.append([c * x for x in draw(st.sampled_from(rows))])
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([x - y for x, y in zip(a, b)])
    return rows


def matrices(max_rows=5, max_cols=6):
    return st.integers(0, max_cols).flatmap(lambda c: row_sets(c, 0, max_rows))


def square_matrices(max_n=5):
    return st.integers(0, max_n).flatmap(lambda n: row_sets(n, n, n))


def subspaces(n):
    return row_sets(n).map(lambda rows: (rows, Subspace.from_vectors(n, rows)))


def assert_echelon(s):
    """The echelon Matrix of a Subspace is its basis over one denominator."""
    num, den, pivots = s.echelon._num, s.echelon._den, s.pivots
    assert den > 0 and gcd(den, *(x for row in num for x in row)) == 1
    assert s.basis == tuple(tuple(F(x, den) for x in row) for row in num)
    assert len(pivots) == s.dim == len(s.basis)
    for row, c in zip(s.basis, pivots):
        assert row[c] == 1 and not any(row[:c])


@SETTINGS
@given(matrices())
def test_rref_and_rank(a):
    m = Matrix(a)
    red, pivots = m.rref()
    ref, ref_pivots = ref_rref(a)
    assert pivots == ref_pivots
    assert_matches(red, ref)
    assert m.rank() == len(ref_pivots)


@SETTINGS
@given(square_matrices())
def test_det_and_inverse(a):
    m = Matrix(a)
    d = ref_det(a)
    assert m.det() == d and type(m.det()) is F
    if len(a) >= 2:
        assert Matrix([a[1], a[0]] + a[2:]).det() == -d
    if d == 0:
        with pytest.raises(ValueError):
            m.inverse()
        assert m.rank() != m.rows
    else:
        n = len(a)
        inv, _ = ref_rref([list(row) + [F(int(i == j)) for j in range(n)]
                           for i, row in enumerate(a)])
        assert_matches(m.inverse(), [row[n:] for row in inv])
        assert m * m.inverse() == Matrix.identity(n)


@SETTINGS
@given(matrices(), st.data())
def test_solve_exact(a, data):
    m = Matrix(a)
    x = data.draw(st.lists(rationals, min_size=m.cols, max_size=m.cols))
    other = data.draw(st.lists(rationals, min_size=m.rows, max_size=m.rows))
    for b in (ref_apply(a, x), other):
        red, pivots = ref_rref([list(row) + [y] for row, y in zip(a, b)])
        got = solve_exact(m, b)
        if m.cols in pivots:
            assert got is None
        else:
            want = [F(0)] * m.cols
            for r, c in enumerate(pivots):
                want[c] = red[r][m.cols]
            assert got == tuple(want)
            assert ref_apply(a, got) == list(b)


def test_solve_exact_inconsistent():
    a = Matrix([[1, F(1, 2)], [2, 1], [0, 0]])
    assert solve_exact(a, [1, 2, 0]) == (F(1), F(0))
    assert solve_exact(a, [1, 3, 0]) is None
    assert solve_exact(a, [1, 2, F(1, 3)]) is None


@SETTINGS
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(st.just(n), subspaces(n), subspaces(n))),
       st.data())
def test_subspace_operations(case, data):
    n, (rows_a, a), (rows_b, b) = case
    assert a.basis == ref_span(n, rows_a)
    assert_echelon(a)
    inter = a.intersect(b)
    assert inter.basis == ref_intersect(n, a.basis, b.basis)
    assert_echelon(inter)
    assert inter == b.intersect(a)
    assert a.sum_with(b) == Subspace.from_vectors(n, rows_a + rows_b)
    coeffs = data.draw(st.lists(rationals, min_size=a.dim, max_size=a.dim))
    inside = [sum((c * row[j] for c, row in zip(coeffs, a.basis)), F(0))
              for j in range(n)]
    assert a.contains(inside)
    v = data.draw(st.lists(rationals, min_size=n, max_size=n))
    assert a.contains(v) == ref_contains(a.basis, v)
    m = data.draw(grids(n, n))
    images = [ref_apply(m, row) for row in a.basis]
    assert a.is_invariant_under(Matrix(m)) == all(ref_contains(a.basis, w) for w in images)
    assert a.fixed_pointwise_by(Matrix(m)) == all(
        list(w) == list(row) for w, row in zip(images, a.basis))
    # B^T C maps everything into the span of the basis rows B
    c = data.draw(grids(a.dim, n))
    into = ref_mul([list(col) for col in zip(*a.basis)], c) if a.dim else [[F(0)] * n] * n
    assert a.is_invariant_under(Matrix(into))
    assert a.fixed_pointwise_by(Matrix.identity(n))


@SETTINGS
# wide matrices of few rows have several free columns, between and around
# the pivots
@given(st.one_of(matrices(), matrices(max_rows=3, max_cols=8)))
@example([[0, 1, 2, 0, 3, 0], [0, 0, 0, 1, F(-4, 3), 0]])
@example([[F(1, 2), 1, 2, 3, 5, 8, 13]])
@example([[0] * 5, [0] * 5])
def test_kernel_and_image(a):
    m = Matrix(a)
    ker = kernel(m)
    assert ker.ambient_dim == m.cols
    assert ker.basis == ref_kernel(a, m.cols)
    assert_echelon(ker)
    for v in ker.basis:
        assert not any(m.apply(v))
    k, image, rank = kernel_image_rank(m)
    assert k == ker
    assert image.basis == ref_span(m.rows, [list(c) for c in zip(*a)])
    assert rank == image.dim == len(ref_rref(a)[1]) == m.cols - ker.dim


@SETTINGS
@given(square_matrices(), st.sampled_from((1, -1)))
def test_shifted_rows(a, c):
    """m = a + c I, so {v : m v = c v} is the kernel of a: _shifted_rows
    gives the integer rows den (m - c I), and eigenspace their kernel."""
    n = len(a)
    m = Matrix([[x + c * (i == j) for j, x in enumerate(row)] for i, row in enumerate(a)])
    rows = ratlin._shifted_rows(m, c)
    assert rows == [tuple(m._den * x for x in row) for row in a]
    want = ref_kernel(a, n)
    assert eigenspace(n, [(m, c)]).basis == ratlin._null_space(rows, n).basis == want
    for v in want:
        assert ref_apply(m.entries, v) == [c * x for x in v]


@pytest.mark.parametrize("a", [
    [[1, 2, 3], [2, 4, 6]],
    [[0, 1, 2, 0, 3, 0], [0, 2, 4, 1, F(-4, 3), 0], [0, 3, 6, 1, F(5, 3), 0]],
    [[0, 0, 0]],
])
def test_kernel_eliminates_once(a, monkeypatch):
    """kernel reads the reduced echelon rows of a kernel with several free
    columns off one elimination."""
    calls = []
    monkeypatch.setattr(ratlin, "_eliminate",
                        lambda rows, n: calls.append(n) or _eliminate(rows, n))
    ker = kernel(Matrix(a))
    assert len(calls) == 1 and ker.dim >= 2
    monkeypatch.undo()
    assert ker.basis == ref_kernel(a, len(a[0]))


@SETTINGS
@given(matrices(), st.sampled_from((F(-1), F(3, 2), F(-7, 3))))
def test_row_and_column_spaces(a, c):
    # the reference is from_vectors over the Fraction rows and columns
    m = Matrix(a)
    rows, cols = Subspace.row_space(m), Subspace.column_space(m)
    assert rows == Subspace.from_vectors(m.cols, m.entries)
    assert cols == Subspace.from_vectors(m.rows, [m.column(j) for j in range(m.cols)])
    assert_echelon(rows)
    assert_echelon(cols)
    assert rows.dim == cols.dim == m.rank()
    # other spanning sets of the same spaces: scaled, reversed, padded
    others = [(Subspace.from_vectors(m.cols, [[c * x for x in row] for row in a[::-1]]
                                     + [[0] * m.cols]), rows),
              (Subspace.column_space(m.transpose()), rows),
              (Subspace.row_space(m.transpose()), cols)]
    for same, space in others:
        assert same == space and hash(same) == hash(space)


def test_shapes_without_rows():
    # a matrix without rows keeps its column count, and the shape is part
    # of equality and hashing
    assert (Matrix.zero(0, 3).rows, Matrix.zero(0, 3).cols) == (0, 3)
    t = Matrix([[]]).transpose()
    assert (t.rows, t.cols) == (0, 1) and t.transpose() == Matrix([[]])
    assert Matrix.zero(0, 3) != Matrix.zero(0, 5) and Matrix.zero(0, 3) != Matrix([])
    assert len({Matrix.zero(0, 3), Matrix.zero(0, 5), Matrix.zero(0, 3)}) == 2
    zero = Subspace.zero(3)
    assert (zero.echelon.rows, zero.echelon.cols) == (0, 3)
    assert Subspace.row_space(zero.echelon) == zero == Subspace.from_vectors(3, [])
    assert Subspace.column_space(zero.echelon.transpose()) == zero
    assert Matrix.zero(2, 0).transpose() == Matrix.zero(0, 2)
    assert Matrix.zero(2, 0) * Matrix.zero(0, 3) == Matrix.zero(2, 3)


def test_negative_final_pivot():
    rows = [[2, 1], [1, -1]]
    pivots, d, sign = _eliminate([list(r) for r in rows], 2)
    assert pivots == [0, 1] and d == -3 and sign == 1
    m = Matrix(rows)
    assert m.det() == -3
    red, piv = m.rref()
    assert red == Matrix.identity(2) and red._den == 1 and piv == (0, 1)
    assert m.inverse() == Matrix([[F(1, 3), F(1, 3)], [F(1, 3), F(-2, 3)]])
    assert solve_exact(m, [3, 0]) == (F(1), F(1))
    assert kernel(m).is_zero() and Subspace.from_vectors(2, rows).is_full()
    swapped = Matrix([[0, 1, 2], [3, 4, 5], [6, 7, 9]])
    assert _eliminate([list(r) for r in swapped._num], 3)[2] == -1
    assert swapped.det() == ref_det(swapped.entries) == -3


# ---------------------------------------------------------------------------
# the elimination kernel against an earlier, plainer form of itself


def reference_eliminate(rows, ncols):
    """_eliminate as it was written before its loops were trimmed: the same
    pivot rule and Bareiss updates, with a generator search per column and
    an enumerate over every row."""
    nrows = len(rows)
    pivots = []
    prev = sign = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            sign = -sign
        prow = rows[r]
        p = prow[c]
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[c]
            if f:
                rows[i] = ([p * a - f * b for a, b in zip(row, prow)] if prev == 1
                           else [(p * a - f * b) // prev for a, b in zip(row, prow)])
            elif p != prev:
                rows[i] = [p * a // prev for a in row]
        pivots.append(c)
        prev = p
    return pivots, prev, sign


BIG = 10 ** 40


def int_row(width):
    """A dense small, a sparse (mostly zero) or a 40-digit integer row."""
    entries = st.sampled_from([
        st.integers(-9, 9),
        st.sampled_from((0, 0, 0, 0, 0, 1, -1, 3)),
        st.one_of(st.just(0), st.integers(-BIG, BIG)),
        st.sampled_from((0, 0, 0, BIG + 1, -BIG, 7 * BIG - 3)),
    ])
    return entries.flatmap(lambda e: st.lists(e, min_size=width, max_size=width))


@st.composite
def int_row_lists(draw):
    """0-6 integer rows of one length 0-9, some of them zero, repeated or
    sums of earlier rows, and a column count ncols no greater than the row
    length, as solve_exact, inverse and intersect pass it."""
    width = draw(st.integers(0, 9))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("fresh", "fresh", "zero", "repeat", "sum")))
        if kind == "zero":
            rows.append([0] * width)
        elif kind == "fresh" or not rows:
            rows.append(draw(int_row(width)))
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([x + 2 * y for x, y in zip(a, b)])
    return rows, draw(st.integers(0, width))


@settings(max_examples=300, deadline=None)
@given(int_row_lists())
def test_eliminate_matches_reference(case):
    rows, ncols = case
    got, want = [list(r) for r in rows], [list(r) for r in rows]
    assert _eliminate(got, ncols) == reference_eliminate(want, ncols)
    assert got == want


@SETTINGS
@given(st.integers(0, 9).flatmap(lambda n: st.tuples(st.just(n), int_row(n))))
def test_one_row_span_matches_elimination(case):
    """The span of one row is read off without eliminating; it equals the
    span that eliminating the row gives, and the span of the row with a
    zero row, which does eliminate."""
    n, row = case
    rows = [list(row)]
    pivots, d, _ = reference_eliminate(rows, n)
    want = Subspace(n, _over(rows[:len(pivots)], d, n), tuple(pivots))
    for got in (Subspace._from_rows(n, [list(row)]),
                Subspace._from_rows(n, [list(row), [0] * n])):
        assert got == want and hash(got) == hash(want)
        assert got.pivots == want.pivots
        assert ((got.echelon._num, got.echelon._den, got.echelon.rows, got.echelon.cols)
                == (want.echelon._num, want.echelon._den, want.echelon.rows, want.echelon.cols))
