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

``Record`` is the base of the library's immutable value records: a
record's fields are its public slots, set once by ``Record.__init__``.

Elimination (rref, rank, det, inverse, solve, kernels) is fraction-free
Gauss-Jordan elimination (Bareiss) on the integer rows: every intermediate
entry is a minor of the input, every division is exact, and the reduced
form is read off at the end over the last pivot.  Vectors work on
``fractions.Fraction``, univariate polynomials on integer coefficient lists
up to a positive scale.  On top of those it provides kernels/images/rank,
characteristic polynomials with full factorization into irreducibles over
Q (Musser's square-free split, rational roots, then Kronecker's
interpolation method; fine at the degrees <= 8 this library works with),
and the gcds and Sturm chains of the critical-value sampler.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import gcd, inf, isqrt, lcm, prod
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

    A record's fields are its public ``__slots__``, set once by
    ``Record.__init__``: positional arguments bind to them in slot order and
    keyword arguments by name.  A field left out takes its value from the
    class's ``_defaults``, which also gives the private slots their first
    values (a keyword may set those too).  A missing, unknown, doubled or
    surplus argument raises TypeError.  Assigning or deleting an attribute
    afterwards raises AttributeError.  A record that validates or converts
    its arguments defines its own ``__init__``, which ends in
    ``Record.__init__``; Subgroup (which computes a slot) and MapGerm
    (which has no slots) store their fields with ``_set``.  A subclass
    names in ``_fields`` the fields that take part in equality, hashing and
    repr.  Two records are equal when they have the same class and equal
    ``_fields`` values, and a record hashes as the tuple of those values.  A
    subclass compared in hot loops defines its own ``__eq__`` and
    ``__hash__`` on the same tuple.
    """

    __slots__ = ()
    _fields: tuple[str, ...]
    _defaults: dict = {}

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls._fields)
        slots = cls.__dict__.get("__slots__", ())
        cls._public = tuple([s for s in slots if not s.startswith("_")])
        cls._slots = cls._public + tuple([s for s in slots if s.startswith("_")])
        # the slots' own setters, which skip the name lookup of _set
        cls._setters = tuple([getattr(cls, s).__set__ for s in cls._public])

    def __init__(self, *args, **kwargs):
        n = len(args)
        if n > len(self._public):
            raise TypeError("%s takes %d positional arguments but %d were given"
                            % (type(self).__name__, len(self._public), n))
        for setter, value in zip(self._setters, args):
            setter(self, value)
        names = self._slots
        defaults = self._defaults
        for name in names[n:]:
            if name in kwargs:
                _set(self, name, kwargs.pop(name))
            elif name in defaults:
                _set(self, name, defaults[name])
            else:
                raise TypeError("%s missing argument %r" % (type(self).__name__, name))
        if kwargs:  # each name left is bound already or names no slot
            name = next(iter(kwargs))
            raise TypeError("%s got %s argument %r" % (
                type(self).__name__,
                "multiple values for" if name in names else "an unexpected keyword", name))

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
    """A rational vector as an immutable tuple; Fraction entries pass
    through as they are."""
    return tuple([e if e.__class__ is Fraction else rat(e) for e in entries])


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

    Pivots are sought in the first ncols columns, row by row below the
    rows that already hold one, and the search ends once every row holds a
    pivot; rows are updated in full.
    At each pivot p (the previous pivot prev starts at 1) every other row
    becomes (p row_i - row_i[c] row_r) // prev; by Sylvester's identity each
    entry is then a minor of the input, so the division is exact (and
    skipped while prev is 1).  Rows with a zero in the pivot column are
    scaled by p / prev all the same, which keeps later divisions exact.
    Afterwards the first len(pivots) rows are d times the reduced echelon
    rows, d being the last pivot, and the other rows are zero in the first
    ncols columns.

    Returns (pivot columns, d, sign of the row swaps); d is 1 without pivots,
    and for a square matrix of full rank sign * d is its determinant.
    """
    nrows = len(rows)
    pivots: list[int] = []
    prev = sign = 1
    r = 0  # the row the next pivot goes to: len(pivots)
    for c in range(ncols):
        for pr in range(r, nrows):
            if rows[pr][c]:
                break
        else:
            continue
        prow = rows[pr]
        if pr != r:
            rows[pr] = rows[r]
            rows[r] = prow
            sign = -sign
        p = prow[c]
        for i in range(nrows):
            if i == r:
                continue
            row = rows[i]
            f = row[c]
            if f:
                rows[i] = ([p * a - f * b for a, b in zip(row, prow)] if prev == 1
                           else [(p * a - f * b) // prev for a, b in zip(row, prow)])
            elif p != prev:
                rows[i] = [p * a // prev for a in row]
        pivots.append(c)
        prev = p
        r += 1
        if r == nrows:
            break
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
        return cls._lowest(num, den, cols)

    @classmethod
    def _lowest(cls, num: tuple[tuple[int, ...], ...], den: int,
                cols: int) -> "Matrix":
        """The matrix num / den with cols columns, which the caller already
        holds in lowest terms (den > 0, and its gcd with the numerators
        is 1)."""
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
            tuple([tuple([a * fa + b * fb for a, b in zip(ra, rb)])
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
                tuple([tuple([sum(map(mul, row, col)) for col in bt])
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
        """The span of integer rows of length n (the list is reduced in place).

        A single row needs no elimination: its echelon row is the row over
        its leading entry, which is what _eliminate leaves."""
        if len(rows) == 1:
            row = rows[0]
            for c in range(n):
                if row[c]:
                    return cls(n, _over(rows, row[c], n), (c,))
            return cls.zero(n)
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
    return _null_space(m._num, m.cols)


def _null_space(rows: list[list[int]], n: int) -> Subspace:
    """The kernel of the integer rows of length n: the kernel of any matrix
    num / den with these rows as num.  The rows are left as they are.

    One elimination, of the rows with their columns reversed, gives the
    kernel's reduced echelon rows.  Reversed, a pivot row is d times a
    reduced row with its leading 1 at pivot column c and nonzero entries
    only at free columns left of c (right of it, reversed).  So the kernel
    vector of free column f, d at f and minus each pivot row's entry at f
    at that row's pivot, is nonzero only at f and at pivot columns right
    of f, and it is zero at every other free column: over d, these vectors
    in ascending f are the reduced echelon rows, leading 1s at the free
    columns."""
    rev = [row[::-1] for row in rows]
    pivots, d, _ = _eliminate(rev, n)
    top = n - 1
    pivots = [top - c for c in pivots]
    free = [f for f in range(n) if f not in pivots]
    if not free:
        return Subspace.zero(n)
    vecs = []
    for f in free:
        v = [0] * n
        v[f] = d
        for row, c in zip(rev, pivots):
            v[c] = -row[top - f]
        vecs.append(v)
    return Subspace(n, _over(vecs, d, n), tuple(free))


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
# dense univariate polynomials over Q: a list of ints, low degree first, with
# a nonzero top coefficient ([] is zero), standing for each of its positive
# multiples, which have the same real roots, signs, gcds and factors


def poly_int(p: Iterable) -> list[int]:
    """The primitive integer multiple of a rational sequence, the positive
    multiple with coprime integer coefficients, trailing zeros dropped."""
    return _primitive(_int_vec(p))


def _primitive(p: Sequence[int]) -> list[int]:
    """p over the gcd of its coefficients, trailing zeros dropped."""
    p = list(p)
    while p and not p[-1]:
        p.pop()
    g = gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _positive(p: list[int]) -> list[int]:
    """p or -p, whichever has a positive lead coefficient."""
    return [-c for c in p] if p and p[-1] < 0 else p


def poly_value(p: Sequence[int], n: int, d: int = 1) -> int:
    """d^deg p(n / d), which has the sign of p(n / d) for d > 0."""
    v, dk = 0, 1
    for c in reversed(p):
        v = v * n + c * dk
        dk *= d
    return v


def poly_divmod(p: Sequence[int], q: Sequence[int]) -> tuple[list[int], list[int]]:
    """Pseudo-division by a nonzero q: (quo, rem) with c p = quo q + rem for
    some integer c > 0 and deg rem < deg q.

    Each step multiplies by |lead(q)| / g alone, g being its gcd with the
    top coefficient, so c is 1 when q divides p in Z[x].
    """
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    lead, n = q[-1], len(q)
    rem = list(p)
    quo = [0] * max(0, len(rem) - n + 1)
    while len(rem) >= n:
        top, k = rem[-1], len(rem) - n
        g = gcd(top, lead)
        a, f = abs(lead) // g, (top if lead > 0 else -top) // g
        if a != 1:
            rem = [a * c for c in rem]
            quo = [a * c for c in quo]
        quo[k] = f
        for i, b in enumerate(q):
            rem[k + i] -= f * b
        while rem and not rem[-1]:
            rem.pop()
    return quo, rem


def poly_derivative(p: Sequence[int]) -> list[int]:
    return [i * c for i, c in enumerate(p)][1:]


def poly_gcd(p: Sequence[int], q: Sequence[int]) -> list[int]:
    """The gcd, primitive with a positive lead coefficient ([] when p and q
    are both zero): Euclid on primitive remainders."""
    p, q = _primitive(p), _primitive(q)
    while q:
        p, q = q, _primitive(poly_divmod(p, q)[1])
    return _positive(p)


def _squarefree(p: Sequence[int]) -> list[int]:
    """p / gcd(p, p') for a nonzero p, primitive: the product of the
    distinct irreducible factors of p, with the sign of p."""
    p = _primitive(p)
    return poly_divmod(p, poly_gcd(p, poly_derivative(p)))[0]


def sturm_chain(p: Sequence[int]) -> list[list[int]]:
    """The Sturm chain of the square-free part of a nonzero p, each member
    primitive.

    With p0 = p / gcd(p, p'), the chain is p0, p0', and then the negated
    remainders p(i+1) = -rem(p(i-1), p(i)) down to a nonzero constant; a
    constant p0 is its own chain.  For any a < b,
    ``sign_variations(chain, a) - sign_variations(chain, b)`` is the number
    of distinct real roots of p in (a, b], whether or not a or b is a root.
    """
    if not any(p):
        raise ValueError("Sturm chain of the zero polynomial")
    chain = [_squarefree(p)]
    nxt = _primitive(poly_derivative(chain[0]))
    while nxt:
        chain.append(nxt)
        nxt = _primitive([-c for c in poly_divmod(chain[-2], nxt)[1]])
    return chain


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
            v = poly_value(f, x)
        if v:
            signs.append(v > 0)
    return sum(a != b for a, b in zip(signs, signs[1:]))


def sturm_real_root_count(p: Sequence[int]) -> int:
    """Number of distinct real roots of p (any nonzero p)."""
    chain = sturm_chain(p)
    return sign_variations(chain, -inf) - sign_variations(chain, inf)


def has_real_root(p: Sequence[int]) -> bool:
    if len(p) % 2 == 0:  # zero, or of odd degree
        return True
    return len(p) > 1 and sturm_real_root_count(p) > 0


# ---------------------------------------------------------------------------
# factorization into irreducibles over Q


def _squarefree_parts(p: Sequence[int]) -> list[tuple[list[int], int]]:
    """Musser's square-free split of a nonconstant p: the pairs (a_i, i),
    a_i nonconstant, square-free, primitive with a positive lead and
    pairwise coprime, with p a rational multiple of the product of a_i^i.
    From g = gcd(p, p') and w = p / g, step i splits off w / gcd(w, g),
    then w becomes gcd(w, g) and g becomes g / gcd(w, g); every quotient is
    exact."""
    p = _positive(_primitive(p))
    g = poly_gcd(p, poly_derivative(p))
    w = poly_divmod(p, g)[0]
    out, i = [], 1
    while len(w) > 1:
        y = poly_gcd(w, g)
        z = poly_divmod(w, y)[0]
        if len(z) > 1:
            out.append((z, i))
        w, g = y, poly_divmod(g, y)[0]
        i += 1
    return out


def _int_divisors(n: int) -> list[int]:
    """The divisors of n != 0 in ascending absolute value, each followed by
    its negative."""
    n = abs(n)
    ds = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    ds += [n // d for d in reversed(ds) if d * d != n]
    return [s * x for x in ds for s in (1, -1)]


_KRONECKER_COMBO_CAP = 4_000_000


def _factor_squarefree(p: list[int]) -> list[list[int]]:
    """Irreducible factors of a square-free primitive p with a positive lead,
    each primitive with a positive lead.  Rational roots a / b come off
    first as factors b x - a, gcd(a, b) = 1 and b > 0, with a dividing the
    constant coefficient and b the lead; what remains of degree <= 3 is then
    irreducible.  Higher degrees use Kronecker's method."""
    factors = []
    if not p[0]:
        factors.append([0, 1])
        p = p[1:]
    for a, b in itertools.product(_int_divisors(p[0]), _int_divisors(p[-1])):
        if b > 0 and gcd(a, b) == 1 and not poly_value(p, a, b):
            factors.append([-a, b])
            p = poly_divmod(p, [-a, b])[0]
    while len(p) > 4 and (q := _kronecker_find_factor(p)):
        factors.append(q)
        p = poly_divmod(p, q)[0]
    if len(p) > 1:
        factors.append(p)
    return factors


def _kronecker_find_factor(p: list[int]) -> list[int] | None:
    """A nontrivial factor of least degree of p (primitive, square-free,
    without rational roots), primitive with a positive lead, or None.

    By Gauss's lemma a factor of degree d is a multiple of a primitive q
    dividing p in Z[x], so q(x) divides p(x) at the points x = 0, 1, -1,
    2, ..., none of them a root of p, and q is the interpolant of its values
    at d + 1 of them, with q(0) > 0 up to sign.  A candidate is tried only
    if its lead is an integer dividing p's.
    """
    half = (len(p) - 1) // 2
    points = [(k + 1) // 2 * (1 if k % 2 else -1) for k in range(half + 1)]
    values = [poly_value(p, x) for x in points]
    for d in range(2, half + 1):
        divisor_lists = [_int_divisors(v) for v in values[:d + 1]]
        if prod(map(len, divisor_lists)) > _KRONECKER_COMBO_CAP:
            raise BudgetExceeded("factor search space too large at degree %d" % d)
        cols, w = _lagrange_basis(points[:d + 1])
        positive = [v for v in divisor_lists[0] if v > 0]  # q(0) > 0
        for ys in itertools.product(positive, *divisor_lists[1:]):
            lead, r = divmod(sum(map(mul, ys, cols[-1])), w)
            if r or not lead or p[-1] % lead:
                continue
            q = [sum(map(mul, ys, col)) for col in cols]  # w times the interpolant
            if not poly_divmod(p, q)[1]:
                return _positive(_primitive(q))
    return None


def _lagrange_basis(xs: Sequence[int]) -> tuple[list[tuple[int, ...]], int]:
    """(cols, w) for distinct integer points xs: with L_i the polynomial of
    degree < len(xs) that is 1 at xs[i] and 0 at the other points,
    cols[k][i] / w is the coefficient of x^k in L_i, and w > 0."""
    nums, dens = [], []
    for i, xi in enumerate(xs):
        num, den = [1], 1
        for xj in xs[:i] + xs[i + 1:]:
            num = [a - xj * b for a, b in zip([0] + num, num + [0])]  # num (x - xj)
            den *= xi - xj
        nums.append(num)
        dens.append(den)
    w = lcm(*dens)
    return list(zip(*[[w // den * c for c in num] for num, den in zip(nums, dens)])), w


def factor_rational_poly(p: Sequence) -> list[tuple[tuple[int, ...], int]]:
    """Factor a univariate rational polynomial into irreducibles over Q.

    Returns (factor, multiplicity) pairs, each factor primitive with a
    positive lead coefficient; the product of factor^multiplicity is a
    rational multiple of p.  For an integral monic p, such as the
    characteristic polynomial of a matrix of finite order, the factors are
    monic.  Factors are sorted by (degree, coefficients) so output is
    canonical.
    """
    p = poly_int(p)
    if len(p) < 2:
        return []
    return sorted(((tuple(f), mult) for part, mult in _squarefree_parts(p)
                   for f in _factor_squarefree(part)),
                  key=lambda fm: (len(fm[0]), fm[0]))


def poly_apply_matrix(p: Sequence, m: Matrix) -> Matrix:
    """Evaluate a univariate polynomial with rational coefficients at a
    square matrix by Horner's rule, from the top coefficient down: degree d
    costs d matrix products."""
    n = m.rows
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
