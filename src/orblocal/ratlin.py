"""Exact rational linear algebra and polynomial maps.

Everything in this module is computed exactly over Q; no floating-point
arithmetic enters any code path here.  The three value types are

* ``Matrix``    -- immutable rational matrix (also used for vectors of group
                   actions and differentials), stored as integer numerator
                   rows over one positive common denominator in lowest
                   terms: products, sums, scaling, elimination, equality and
                   hashing run on ints, and ``entries`` is its ``Fraction``
                   view,
* ``Subspace``  -- a linear subspace of Q^n stored as the ``Matrix`` of its
                   reduced row-echelon rows, so equality of subspaces is
                   integer comparison, and membership, invariance and
                   intersection run on those integer rows,
* ``MultiPoly`` -- a polynomial map Q^n -> Q^m, stored the same way: per
                   output coordinate a sorted tuple of (exponent vector,
                   integer numerator) terms, over one positive denominator
                   in lowest terms; evaluation, Jacobians, affine
                   substitution and composition with a Matrix run on ints,
                   and ``coords`` is its ``Fraction`` view.

Elimination (rref, rank, det, inverse, solve, kernels) is fraction-free
Gauss-Jordan elimination (Bareiss) on the integer rows: every intermediate
entry is a minor of the input, every division is exact, and the reduced
form is read off at the end over the last pivot.  Vectors and univariate
polynomials work on ``fractions.Fraction``.  On top of those it provides
kernels/images/rank, characteristic polynomials with full factorization
into irreducibles over Q (Yun square-free split plus Kronecker's finite
interpolation method; fine at the degrees <= 8 this library works with),
and dense univariate helpers (gcd, Sturm chains) used by the critical-value
sampler.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import gcd, inf, lcm, prod
from operator import add, attrgetter, mul
from typing import Iterable, Sequence

Rational = Fraction

QZERO = Fraction(0)
QONE = Fraction(1)


class BudgetExceeded(RuntimeError):
    """A computation passed a resource limit; no mathematical check failed."""


# stores a field in a Record's __init__, past the record's own __setattr__
_set = object.__setattr__


class Record:
    """Base of the library's immutable value records.

    A subclass names in ``_fields`` the fields that take part in equality,
    hashing and repr, and its ``__init__`` stores every field with
    ``_set``; assigning or deleting an attribute afterwards raises
    AttributeError.  Two records are equal when they have the same class
    and equal ``_fields`` values, and a record hashes as the tuple of those
    values.  A subclass compared in hot loops defines its own ``__eq__`` and
    ``__hash__`` on the same tuple.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields))


def rat(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("refusing to coerce float %r to an exact rational" % (x,))
    return Fraction(x)


def vec(entries: Iterable) -> tuple[Fraction, ...]:
    """A rational vector as an immutable tuple."""
    return tuple(rat(e) for e in entries)


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _scaled_vec(v: Sequence) -> tuple[list[int], int]:
    """A rational vector as integers over the lcm d of its denominators:
    (ints, d) with v = ints / d."""
    v = vec(v)
    d = lcm(*(x.denominator for x in v))
    return [x.numerator * (d // x.denominator) for x in v], d


def _int_vec(v: Sequence) -> list[int]:
    """A rational vector scaled to integers by the lcm of its denominators."""
    return _scaled_vec(v)[0]


def _eliminate(rows: list[list[int]], ncols: int) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of integer rows, in place.

    Pivots are sought in the first ncols columns; rows are updated in full.
    At each pivot p (the previous pivot prev starts at 1) every other row
    becomes (p row_i - row_i[c] row_r) // prev; by Sylvester's identity each
    entry is then a minor of the input, so the division is exact.  Rows
    with a zero in the pivot column are scaled by p / prev all the same,
    which keeps later divisions exact.  Afterwards the first len(pivots)
    rows are d times the reduced echelon rows, d being the last pivot, and
    the other rows are zero in the first ncols columns.

    Returns (pivot columns, d, sign of the row swaps); d is 1 without pivots,
    and for a square matrix of full rank sign * d is its determinant.
    """
    nrows = len(rows)
    pivots: list[int] = []
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
                rows[i] = [(p * a - f * b) // prev for a, b in zip(row, prow)]
            elif p != prev:
                rows[i] = [p * a // prev for a in row]
        pivots.append(c)
        prev = p
    return pivots, prev, sign


def _over(rows: Sequence[Sequence[int]], d: int, cols: int) -> "Matrix":
    """The matrix rows / d with cols columns, for a nonzero integer d of
    either sign."""
    if d < 0:
        rows, d = [[-x for x in row] for row in rows], -d
    return Matrix._make(tuple(map(tuple, rows)), d, cols)


class Matrix:
    """Immutable rational matrix, row-major.

    Stored as integer numerator rows over one positive common denominator,
    in lowest terms (the gcd of the denominator and every numerator is 1),
    so the representation is canonical: products, sums, scaling, equality
    and hashing are integer work, and so are rref, rank, det and inverse,
    which run fraction-free elimination on the numerator rows.  ``entries``
    is the Fraction view, built on first use, or kept as given when the
    matrix was built from entries.

    The tuple of rows is built from a list (``tuple([...])``) wherever
    tall matrices pass: CPython allocates a tuple built from a generator at
    a guessed size and shrinks it, so freeing tall results would stock the
    interpreter's per-size tuple free lists and raise peak memory.
    """

    __slots__ = ("rows", "cols", "_num", "_den", "_entries", "_hash")

    def __init__(self, entries: Sequence[Sequence]):
        rows = tuple(tuple(rat(e) for e in row) for row in entries)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged matrix")
        den = lcm(*(e.denominator for row in rows for e in row))
        self._num = tuple(tuple(e.numerator * (den // e.denominator) for e in row)
                          for row in rows)
        self._den = den
        self._entries = rows
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        self._hash = None

    @classmethod
    def _make(cls, num: tuple[tuple[int, ...], ...], den: int,
              cols: int) -> "Matrix":
        """The matrix num / den (den > 0) with cols columns, brought to
        lowest terms.  cols is passed because num has no row to read it
        from when the matrix has no rows."""
        if den != 1:
            g = gcd(den, *itertools.chain.from_iterable(num))
            if g != 1:
                num = tuple([tuple(x // g for x in row) for row in num])
                den //= g
        m = object.__new__(cls)
        m._num = num
        m._den = den
        m._entries = None
        m.rows = len(num)
        m.cols = cols
        m._hash = None
        return m

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        if self._entries is None:
            den = self._den
            self._entries = tuple(tuple(Fraction(x, den) for x in row)
                                  for row in self._num)
        return self._entries

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._make(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1, n)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls._make(((0,) * cols,) * rows, 1, cols)

    @classmethod
    def diagonal(cls, diag: Sequence) -> "Matrix":
        d = vec(diag)
        n = len(d)
        return cls([[d[i] if i == j else QZERO for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence]) -> "Matrix":
        cols = [vec(c) for c in columns]
        if not cols:
            return cls([])
        return cls([[c[i] for c in cols] for i in range(len(cols[0]))])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def column(self, j) -> tuple[Fraction, ...]:
        return tuple(r[j] for r in self.entries)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.cols == other.cols
                and self._den == other._den and self._num == other._num)

    def __hash__(self):
        # num fixes the row count; cols is the shape's only other part
        if self._hash is None:
            self._hash = hash((self.cols, self._den, self._num))
        return self._hash

    def __repr__(self):
        return "Matrix(%s)" % (
            [[str(e) for e in row] for row in self.entries],
        )

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign: int) -> "Matrix":
        """self + sign * other over the least common denominator."""
        self._same_shape(other)
        den = lcm(self._den, other._den)
        fa, fb = den // self._den, sign * (den // other._den)
        return Matrix._make(
            tuple([tuple(a * fa + b * fb for a, b in zip(ra, rb))
                   for ra, rb in zip(self._num, other._num)]),
            den, self.cols)

    def __neg__(self):
        return Matrix._make(tuple([tuple(-a for a in row) for row in self._num]),
                            self._den, self.cols)

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch: %dx%d vs %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError("cannot multiply %dx%d by %dx%d"
                                 % (self.rows, self.cols, other.rows, other.cols))
            bt = tuple(zip(*other._num)) if other._num else ((),) * other.cols
            return Matrix._make(
                tuple([tuple(sum(map(mul, row, col)) for col in bt)
                       for row in self._num]),
                self._den * other._den, other.cols)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Matrix":
        c = rat(c)
        k = c.numerator
        return Matrix._make(tuple([tuple(k * a for a in row) for row in self._num]),
                            self._den * c.denominator, self.cols)

    def transpose(self) -> "Matrix":
        num = tuple(zip(*self._num)) if self._num else ((),) * self.cols
        return Matrix._make(num, self._den, self.rows)

    def apply(self, v: Sequence) -> tuple[Fraction, ...]:
        """Matrix times column vector, returned as a tuple."""
        iv, d = _scaled_vec(v)
        if len(iv) != self.cols:
            raise ValueError("vector length %d does not match %d columns"
                             % (len(iv), self.cols))
        den = self._den * d
        return tuple(Fraction(sum(map(mul, row, iv)), den) for row in self._num)

    def is_zero(self) -> bool:
        return not any(map(any, self._num))

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace of non-square matrix")
        return Fraction(sum(self._num[i][i] for i in range(self.rows)), self._den)

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row-echelon form and pivot columns."""
        rows = [list(row) for row in self._num]
        pivots, d, _ = _eliminate(rows, self.cols)
        return _over(rows, d, self.cols), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        pivots, d, sign = _eliminate([list(row) for row in self._num], n)
        if len(pivots) < n:
            return QZERO
        return Fraction(sign * d, self._den ** n)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        rows = [list(row) + [int(i == j) for j in range(n)]
                for i, row in enumerate(self._num)]
        pivots, d, _ = _eliminate(rows, n)
        if len(pivots) < n:
            raise ValueError("matrix is singular")
        # rows = [d I | d num^-1], and the inverse of num / den is den num^-1
        return _over([[self._den * x for x in row[n:]] for row in rows], d, n)

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def charpoly(self) -> tuple[Fraction, ...]:
        """Coefficients of det(xI - A), low degree first, monic.

        Faddeev-LeVerrier; exact over Q.
        """
        if self.rows != self.cols:
            raise ValueError("characteristic polynomial of non-square matrix")
        n = self.rows
        coeffs = [QZERO] * (n + 1)
        coeffs[n] = QONE
        mk = Matrix.identity(n)
        for k in range(1, n + 1):
            am = self * mk
            ck = -am.trace() / k
            coeffs[n - k] = ck
            if k < n:
                mk = am + ck * Matrix.identity(n)
        return tuple(coeffs)


class Subspace(Record):
    """A linear subspace of Q^n, kept as the Matrix of its reduced echelon rows.

    The echelon matrix is the nonzero rows of the RREF of any spanning set,
    an integer Matrix in lowest terms, so two Subspace values are equal
    exactly when they are the same subspace, and equality and hashing
    compare integers.  pivots[i] is the column of the leading 1 of row i; it
    takes no part in equality, hashing or repr.  Membership, invariance and
    intersection work on the integer rows, and ``basis`` is the rows as
    Fractions, built on first read.
    """

    __slots__ = ("ambient_dim", "echelon", "pivots")
    _fields = ("ambient_dim", "echelon")

    def __init__(self, ambient_dim: int, echelon: Matrix, pivots: tuple[int, ...]):
        _set(self, "ambient_dim", ambient_dim)
        _set(self, "echelon", echelon)
        _set(self, "pivots", pivots)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.ambient_dim, self.echelon) == (other.ambient_dim, other.echelon)
        return NotImplemented

    def __hash__(self):
        return hash((self.ambient_dim, self.echelon))

    @property
    def basis(self) -> tuple[tuple[Fraction, ...], ...]:
        return self.echelon.entries

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        rows = [_int_vec(v) for v in vectors]
        for v in rows:
            if len(v) != ambient_dim:
                raise ValueError("vector length %d in ambient dimension %d"
                                 % (len(v), ambient_dim))
        return cls._from_rows(ambient_dim, rows)

    @classmethod
    def row_space(cls, m: Matrix) -> "Subspace":
        """The span of the rows of m."""
        return cls._from_rows(m.cols, [list(row) for row in m._num])

    @classmethod
    def column_space(cls, m: Matrix) -> "Subspace":
        """The span of the columns of m."""
        return cls._from_rows(m.rows, [list(col) for col in zip(*m._num)])

    @classmethod
    def _from_rows(cls, n: int, rows: list[list[int]]) -> "Subspace":
        """The span of integer rows of length n (the list is reduced in place)."""
        pivots, d, _ = _eliminate(rows, n)
        return cls(n, _over(rows[:len(pivots)], d, n), tuple(pivots))

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls(n, Matrix.identity(n), tuple(range(n)))

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(n, Matrix.zero(0, n), ())

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def is_zero(self) -> bool:
        return not self.pivots

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def contains(self, v: Sequence) -> bool:
        v = _int_vec(v)
        if len(v) != self.ambient_dim:
            raise ValueError("vector/ambient dimension mismatch")
        return self._spans(v)

    def _spans(self, v: Sequence[int]) -> bool:
        """True iff the integer vector v lies in the subspace.

        With the echelon basis b_i = num_i / den, v is in the span exactly
        when v = sum v[pivot_i] b_i, that is den v = sum v[pivot_i] num_i.
        """
        e = self.echelon
        acc = [e._den * x for x in v]
        for row, c in zip(e._num, self.pivots):
            f = v[c]
            if f:
                acc = [a - f * b for a, b in zip(acc, row)]
        return not any(acc)

    def sum_with(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        return Subspace._from_rows(
            self.ambient_dim, [list(r) for r in self.echelon._num + other.echelon._num])

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: row reduce [A|A; B|0], read intersection off rows [0|D]."""
        self._same_ambient(other)
        if self.is_zero() or other.is_full():
            return self
        if other.is_zero() or self.is_full():
            return other
        n = self.ambient_dim
        zero = (0,) * n
        block = ([list(r + r) for r in self.echelon._num]
                 + [list(r + zero) for r in other.echelon._num])
        pivots, d, _ = _eliminate(block, 2 * n)
        # the rows with pivots in the right half are d times the reduced
        # echelon basis of the intersection
        k = next((i for i, c in enumerate(pivots) if c >= n), len(pivots))
        return Subspace(n, _over([row[n:] for row in block[k:len(pivots)]], d, n),
                        tuple(c - n for c in pivots[k:]))

    def is_invariant_under(self, m: Matrix) -> bool:
        """True iff m maps this subspace into itself."""
        self._same_shape(m)
        return all(self._spans([sum(map(mul, r, b)) for r in m._num])
                   for b in self.echelon._num)

    def fixed_pointwise_by(self, m: Matrix) -> bool:
        self._same_shape(m)
        md = m._den
        return all([sum(map(mul, r, b)) for r in m._num] == [md * x for x in b]
                   for b in self.echelon._num)

    def _same_ambient(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")

    def _same_shape(self, m: Matrix):
        if m.rows != self.ambient_dim or m.cols != self.ambient_dim:
            raise ValueError("%dx%d matrix on a subspace of Q^%d"
                             % (m.rows, m.cols, self.ambient_dim))


def kernel(m: Matrix) -> Subspace:
    """Exact kernel of a rational matrix, read off its integer reduced rows."""
    rows = [list(row) for row in m._num]
    pivots, d, _ = _eliminate(rows, m.cols)
    pivot_set = set(pivots)
    vecs = []
    for j in range(m.cols):
        if j not in pivot_set:
            # d times the kernel vector with a 1 in free column j
            v = [0] * m.cols
            v[j] = d
            for row, c in zip(rows, pivots):
                v[c] = -row[j]
            vecs.append(v)
    return Subspace._from_rows(m.cols, vecs)


def kernel_image_rank(m: Matrix) -> tuple[Subspace, Subspace, int]:
    """Exact kernel, column space, and rank of a rational matrix."""
    image = Subspace.column_space(m)
    return kernel(m), image, image.dim


def restrict_to_subspace(m: Matrix, s: Subspace) -> Matrix:
    """The matrix of m acting on s, in the coordinates of s's basis.

    Requires s invariant under m; raises ValueError with a witness vector
    otherwise.
    """
    k = s.dim
    if k == 0:
        return Matrix.identity(0)
    bt = s.echelon.transpose()
    cols = []
    for b in s.basis:
        mb = m.apply(b)
        coords = solve_exact(bt, mb)
        if coords is None:
            raise ValueError("subspace not invariant: image of %s leaves it"
                             % (tuple(str(x) for x in b),))
        cols.append(coords)
    return Matrix.from_columns(cols)


def solve_exact(a: Matrix, b: Sequence) -> tuple[Fraction, ...] | None:
    """One exact solution x of a x = b, or None if inconsistent."""
    b = vec(b)
    bd = lcm(*(y.denominator for y in b))
    # a = num / den, so a x = b is (bd num) x = den (bd b), all in integers
    rows = [[bd * x for x in row] + [a._den * y.numerator * (bd // y.denominator)]
            for row, y in zip(a._num, b)]
    pivots, d, _ = _eliminate(rows, a.cols)
    if any(row[-1] for row in rows[len(pivots):]):
        return None
    x = [QZERO] * a.cols
    for row, c in zip(rows, pivots):
        x[c] = Fraction(row[-1], d)
    return tuple(x)


# ---------------------------------------------------------------------------
# dense univariate polynomials over Q (coefficients low degree first)


def poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_deg(p: Sequence[Fraction]) -> int:
    return len(p) - 1


def poly_eval_at(p: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = QZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [QZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def poly_add(p, q):
    out = [QZERO] * max(len(p), len(q))
    for i, a in enumerate(p):
        out[i] += a
    for i, b in enumerate(q):
        out[i] += b
    return poly_trim(out)


def poly_scale(p, c):
    c = rat(c)
    return poly_trim([c * a for a in p])


def poly_divmod(p, q):
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    p = list(p)
    quot = [QZERO] * max(0, len(p) - len(q) + 1)
    lead = q[-1]
    while len(p) >= len(q) and p:
        f = p[-1] / lead
        k = len(p) - len(q)
        quot[k] = f
        for i, b in enumerate(q):
            p[k + i] -= f * b
        poly_trim(p)
    return poly_trim(quot), p


def poly_derivative(p):
    return poly_trim([i * c for i, c in enumerate(p)][1:])


def poly_monic(p):
    if not p:
        return []
    return poly_scale(p, 1 / p[-1])


def poly_gcd(p, q):
    """Monic gcd over Q."""
    p, q = poly_trim(list(p)), poly_trim(list(q))
    while q:
        p, q = q, poly_divmod(p, q)[1]
    return poly_monic(p)


def sturm_chain(p: Sequence[Fraction]) -> list[list[int]]:
    """The Sturm chain of the square-free part of a nonzero p, each member
    scaled by a positive constant to integer coefficients.

    With p0 = p / gcd(p, p'), the chain is p0, p0', and then the negated
    remainders p(i+1) = -rem(p(i-1), p(i)) down to a nonzero constant; a
    constant p0 is its own chain.  For any a < b,
    ``sign_variations(chain, a) - sign_variations(chain, b)`` is the number
    of distinct real roots of p in (a, b], whether or not a or b is a root.
    """
    p = poly_trim(list(p))
    if not p:
        raise ValueError("Sturm chain of the zero polynomial")
    if poly_deg(p) >= 1:
        p = poly_divmod(p, poly_gcd(p, poly_derivative(p)))[0]
    chain = [p]
    nxt = poly_derivative(p)
    while nxt:
        chain.append(nxt)
        nxt = [-c for c in poly_divmod(chain[-2], nxt)[1]]
    return [_int_vec(f) for f in chain]


def sign_variations(chain: Sequence[Sequence[int]], x) -> int:
    """The number of sign changes along ``chain`` at x, zeros dropped.

    x is a rational (an int keeps the evaluation on ints), or ``math.inf``
    or ``-math.inf`` for the signs of the leading coefficients (flipped in
    odd degree at -inf); the infinities are only compared, never computed
    with.
    """
    signs = []
    for f in chain:
        if x == inf:
            v = f[-1]
        elif x == -inf:
            v = f[-1] if len(f) % 2 else -f[-1]
        else:
            v = 0
            for c in reversed(f):
                v = v * x + c
        if v:
            signs.append(v > 0)
    return sum(a != b for a, b in zip(signs, signs[1:]))


def sturm_real_root_count(p: Sequence[Fraction]) -> int:
    """Number of distinct real roots of p (any nonzero p)."""
    chain = sturm_chain(p)
    return sign_variations(chain, -inf) - sign_variations(chain, inf)


def has_real_root(p: Sequence[Fraction]) -> bool:
    p = poly_trim(list(p))
    if not p:
        return True
    if poly_deg(p) == 0:
        return False
    if poly_deg(p) % 2 == 1:
        return True
    return sturm_real_root_count(p) > 0


# ---------------------------------------------------------------------------
# factorization into irreducibles over Q


def _yun_squarefree(p: list[Fraction]) -> list[tuple[list[Fraction], int]]:
    """Yun's algorithm: monic square-free parts with multiplicities."""
    p = poly_monic(p)
    out = []
    a = poly_gcd(p, poly_derivative(p))
    b = poly_divmod(p, a)[0]
    c = poly_divmod(poly_derivative(p), a)[0]
    d = poly_add(c, poly_scale(poly_derivative(b), -1))
    i = 1
    while poly_deg(b) >= 1:
        ai = poly_gcd(b, d)
        if poly_deg(ai) >= 1:
            out.append((ai, i))
        b = poly_divmod(b, ai)[0]
        c = poly_divmod(d, ai)[0]
        d = poly_add(c, poly_scale(poly_derivative(b), -1))
        i += 1
    return out


def _int_divisors(n: int) -> list[int]:
    n = abs(n)
    small, big = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                big.append(n // d)
        d += 1
    ds = small + big[::-1]
    return [s * x for x in ds for s in (1, -1)]


def _rational_roots(p: list[Fraction]) -> list[Fraction]:
    """All rational roots of p, by the rational root theorem."""
    ip = _int_vec(p)
    while ip and ip[0] == 0:
        ip = ip[1:]
    roots = []
    if len(ip) != len(p):
        roots.append(QZERO)
    if not ip or len(ip) == 1:
        return roots
    for num in _int_divisors(ip[0]):
        for d in _int_divisors(ip[-1]):
            if d <= 0:
                continue
            cand = Fraction(num, d)
            if cand not in roots and poly_eval_at(p, cand) == 0:
                roots.append(cand)
    return roots


_KRONECKER_COMBO_CAP = 4_000_000


def _factor_squarefree(p: list[Fraction]) -> list[list[Fraction]]:
    """Irreducible monic factors of a monic square-free p over Q.

    Rational roots come off first; what remains of degree <= 3 is then
    irreducible.  Higher degrees use Kronecker interpolation: a degree-d
    factor is determined by its values at d+1 integer points, and those
    values divide the values of p there, so only finitely many candidates
    exist.
    """
    p = poly_monic(p)
    factors = []
    for r in sorted(_rational_roots(p)):
        p = poly_divmod(p, [-r, QONE])[0]
        factors.append([-r, QONE])
    while poly_deg(p) >= 1:
        if poly_deg(p) <= 3:
            factors.append(poly_monic(p))
            break
        q = _kronecker_find_factor(p)
        if q is None:
            factors.append(poly_monic(p))
            break
        factors.append(poly_monic(q))
        p = poly_divmod(p, q)[0]
    return factors


def _kronecker_find_factor(p: list[Fraction]) -> list[Fraction] | None:
    """A nontrivial factor of p (monic, square-free, no rational roots), or None."""
    ip = _int_vec(p)
    points: list[int] = []
    k = 0
    while len(points) <= poly_deg(p) // 2:
        for x in ([0] if k == 0 else [k, -k]):
            if poly_eval_at(p, Fraction(x)) != 0:
                points.append(x)
        k += 1
    for d in range(2, poly_deg(p) // 2 + 1):
        xs = points[: d + 1]
        divisor_lists = []
        for x in xs:
            divisor_lists.append(_int_divisors(poly_eval_at([Fraction(c) for c in ip], Fraction(x)).numerator))
        total = 1
        for dl in divisor_lists:
            total *= len(dl)
        if total > _KRONECKER_COMBO_CAP:
            raise BudgetExceeded("factor search space too large at degree %d" % d)
        # sign symmetry: q and -q divide together, so pin the first value > 0
        first = [v for v in divisor_lists[0] if v > 0]
        for values in itertools.product(first, *divisor_lists[1:]):
            q = _lagrange_interpolate(xs, values)
            if poly_deg(q) != d or q[-1] == 0:
                continue
            q = poly_monic(q)
            quot, rem = poly_divmod(p, q)
            if not rem and poly_deg(quot) >= 1:
                return q
    return None


def _lagrange_interpolate(xs: Sequence[int], ys: Sequence[int]) -> list[Fraction]:
    out: list[Fraction] = []
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        term = [Fraction(yi)]
        for j, xj in enumerate(xs):
            if j == i:
                continue
            term = poly_mul(term, [Fraction(-xj, 1), QONE])
            term = poly_scale(term, Fraction(1, xi - xj))
        out = poly_add(out, term)
    return out


def factor_rational_poly(p: Sequence[Fraction]) -> list[tuple[tuple[Fraction, ...], int]]:
    """Factor a univariate rational polynomial into monic irreducibles over Q.

    Returns (factor, multiplicity) pairs; the product of factor^multiplicity
    equals the monic normalization of the input.  Factors are sorted by
    (degree, coefficients) so output is canonical.
    """
    p = poly_trim([rat(c) for c in p])
    if poly_deg(p) < 1:
        return []
    found: list[tuple[tuple[Fraction, ...], int]] = []
    for part, mult in _yun_squarefree(p):
        for f in _factor_squarefree(part):
            found.append((tuple(f), mult))
    merged: dict[tuple[Fraction, ...], int] = {}
    for f, m in found:
        merged[f] = merged.get(f, 0) + m
    return sorted(merged.items(), key=lambda fm: (len(fm[0]), fm[0]))


def poly_apply_matrix(p: Sequence[Fraction], m: Matrix) -> Matrix:
    """Evaluate a univariate polynomial at a square matrix by Horner's rule,
    from the top coefficient down: degree d costs d matrix products."""
    n = m.rows
    p = poly_trim(list(p))
    if not p:
        return Matrix.zero(n, n)
    ident = Matrix.identity(n)
    acc = ident.scale(p[-1])
    for c in reversed(p[:-1]):
        acc = acc * m
        if c != 0:
            acc = acc + ident.scale(c)
    return acc


# ---------------------------------------------------------------------------
# multivariate polynomial maps

TermDict = dict[tuple[int, ...], Fraction]
Terms = tuple[tuple[tuple[int, ...], int], ...]


def _combine(pairs: Iterable[tuple[int, Iterable]]) -> Terms:
    """The sum of w * terms over (w, terms) pairs of an integer weight and
    (exponent, integer) terms, as sorted terms without a zero numerator."""
    acc: dict[tuple[int, ...], int] = {}
    for w, terms in pairs:
        if w:
            for e, c in terms:
                acc[e] = acc.get(e, 0) + w * c
    return tuple(sorted([(e, c) for e, c in acc.items() if c]))


def _t_mul(a: dict, b: dict) -> dict:
    """The product of two integer term dictionaries."""
    out: dict[tuple[int, ...], int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return out


def _top_degree(rows: Iterable[Terms]) -> int:
    """The largest total degree of a term in rows of terms, 0 without terms."""
    return max([sum(e) for terms in rows for e, _ in terms], default=0)


@functools.cache
def _units(n: int) -> tuple[tuple[int, ...], ...]:
    """The exponent vectors of the n variables x_0, ..., x_{n-1}."""
    return tuple(tuple(int(i == j) for i in range(n)) for j in range(n))


class MultiPoly:
    """A polynomial map Q^num_vars -> Q^out_dim with exact coefficients.

    Stored like a Matrix: per output coordinate a tuple of (exponent vector,
    integer numerator) terms, sorted by exponent vector, with no zero
    numerator, over one positive denominator for all coordinates, in lowest
    terms.  The form is canonical, so equality and hashing compare integers,
    and every operation runs on integers.  ``coords`` is the Fraction view,
    one sorted tuple of (exponent, coefficient) terms per coordinate, built
    on first read.
    """

    __slots__ = ("num_vars", "_num", "_den", "_coords", "_hash")

    def __init__(self, num_vars: int, coords: Sequence[TermDict]):
        terms = []
        for d in coords:
            for e in d:
                if len(e) != num_vars:
                    raise ValueError("exponent vector %r in %d variables" % (e, num_vars))
                if any(k < 0 for k in e):
                    raise ValueError("negative exponent in %r" % (e,))
            terms.append([(e, rat(c)) for e, c in d.items() if c != 0])
        den = lcm(*(c.denominator for t in terms for _, c in t))
        self.num_vars = num_vars
        self._num = tuple(tuple(sorted([(e, c.numerator * (den // c.denominator))
                                        for e, c in t])) for t in terms)
        self._den = den
        self._coords = None
        self._hash = None

    @classmethod
    def _make(cls, num_vars: int, num: tuple[Terms, ...], den: int) -> "MultiPoly":
        """The map num / den (den > 0, canonical terms), in lowest terms."""
        if den != 1:
            g = gcd(den, *(c for terms in num for _, c in terms))
            if g != 1:
                num = tuple([tuple([(e, c // g) for e, c in terms]) for terms in num])
                den //= g
        p = object.__new__(cls)
        p.num_vars = num_vars
        p._num = num
        p._den = den
        p._coords = None
        p._hash = None
        return p

    @property
    def coords(self) -> tuple[tuple[tuple[tuple[int, ...], Fraction], ...], ...]:
        if self._coords is None:
            den = self._den
            self._coords = tuple(tuple([(e, Fraction(c, den)) for e, c in terms])
                                 for terms in self._num)
        return self._coords

    @property
    def out_dim(self) -> int:
        return len(self._num)

    def coord_dict(self, i: int) -> TermDict:
        return dict(self.coords[i])

    @classmethod
    def zero_map(cls, num_vars: int, out_dim: int) -> "MultiPoly":
        return cls._make(num_vars, ((),) * out_dim, 1)

    @classmethod
    def coordinate(cls, num_vars: int, var: int) -> "MultiPoly":
        return cls._make(num_vars, (((_units(num_vars)[var], 1),),), 1)

    @classmethod
    def from_linear(cls, m: Matrix) -> "MultiPoly":
        """The linear map x -> m x as a polynomial map."""
        units = [((u, 1),) for u in _units(m.cols)]
        return cls._make(m.cols, tuple([_combine(zip(row, units)) for row in m._num]),
                         m._den)

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.num_vars == other.num_vars
                and self._den == other._den and self._num == other._num)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num_vars, self._den, self._num))
        return self._hash

    def __repr__(self):
        return "MultiPoly(vars=%d, out=%d)" % (self.num_vars, self.out_dim)

    def __sub__(self, other):
        if self.num_vars != other.num_vars or self.out_dim != other.out_dim:
            raise ValueError("polynomial map shape mismatch")
        den = lcm(self._den, other._den)
        fa, fb = den // self._den, -(den // other._den)
        return MultiPoly._make(self.num_vars, tuple([
            _combine(((fa, a), (fb, b))) for a, b in zip(self._num, other._num)]), den)

    def is_zero(self) -> bool:
        return not any(self._num)

    def _values(self, rows: Sequence[Terms], point: Sequence) -> tuple[list[int], int]:
        """The values of rows of terms (over this map's denominator) at a
        point, as integer numerators over one denominator.

        With point = v / d for integers v, a term c x^e of degree |e| <= top
        is c v^e d^(top - |e|) / d^top.
        """
        v, d = _scaled_vec(point)
        if len(v) != self.num_vars:
            raise ValueError("point length %d, expected %d arguments"
                             % (len(v), self.num_vars))
        top = _top_degree(rows)
        dp = [d ** k for k in range(top + 1)]
        return ([sum([c * prod(map(pow, v, e)) * dp[top - sum(e)] for e, c in terms])
                 for terms in rows], self._den * dp[top])

    def eval(self, point: Sequence) -> tuple[Fraction, ...]:
        nums, den = self._values(self._num, point)
        return tuple([Fraction(x, den) for x in nums])

    def jacobian_at(self, point: Sequence) -> Matrix:
        """Exact out_dim x num_vars Jacobian matrix at a rational point."""
        n = self.num_vars
        # d/dx_j of c x^e is c e_j x^(e - u_j)
        partials = [[(e[:j] + (e[j] - 1,) + e[j + 1:], c * e[j]) for e, c in terms if e[j]]
                    for terms in self._num for j in range(n)]
        nums, den = self._values(partials, point)
        return _over([nums[i * n:(i + 1) * n] for i in range(self.out_dim)], den, n)

    def compose_affine(self, linear: Matrix, translate: Sequence | None = None) -> "MultiPoly":
        """Substitute x = linear*y + translate; result is a map in linear.cols vars."""
        if linear.rows != self.num_vars:
            raise ValueError("linear part has %d rows, map has %d variables"
                             % (linear.rows, self.num_vars))
        t, td = _scaled_vec(translate) if translate is not None else (None, 1)
        s = lcm(linear._den, td)
        fl, ft = s // linear._den, s // td
        nv = linear.cols
        zero_e = (0,) * nv
        one = {zero_e: 1}
        # x_i = subs[i](y) / s, with integer term dictionaries subs[i];
        # powers[i][k] is subs[i] ** k, extended as higher powers are needed
        powers = []
        for i, row in enumerate(linear._num):
            sub = {u: fl * a for u, a in zip(_units(nv), row) if a}
            if t is not None and t[i]:
                sub[zero_e] = ft * t[i]
            powers.append([one, sub])

        def substituted(e):
            term = one
            for pw, k in zip(powers, e):
                if k:
                    while len(pw) <= k:
                        pw.append(_t_mul(pw[-1], pw[1]))
                    term = pw[k] if term is one else _t_mul(term, pw[k])
            return term.items()

        # over s^top a term c x^e is c subs^e s^(top - |e|)
        top = _top_degree(self._num)
        sp = [s ** k for k in range(top + 1)]
        return MultiPoly._make(nv, tuple([
            _combine([(c * sp[top - sum(e)], substituted(e)) for e, c in terms])
            for terms in self._num]), self._den * sp[top])

    def apply_matrix(self, m: Matrix) -> "MultiPoly":
        """Post-compose with a linear map: returns m o self."""
        if m.cols != self.out_dim:
            raise ValueError("matrix has %d columns, map has %d outputs"
                             % (m.cols, self.out_dim))
        return MultiPoly._make(self.num_vars, tuple([
            _combine(zip(row, self._num)) for row in m._num]), self._den * m._den)

    def variables_used(self, coord: int) -> set[int]:
        return {i for e, _ in self._num[coord] for i, k in enumerate(e) if k}
