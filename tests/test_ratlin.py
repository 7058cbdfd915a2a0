import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from orblocal import ratlin
from orblocal.ratlin import (
    BudgetExceeded,
    Matrix,
    MultiPoly,
    Subspace,
    factor_rational_poly,
    has_real_root,
    kernel_image_rank,
    poly_apply_matrix,
    poly_divmod,
    poly_gcd,
    poly_int,
    restrict_to_subspace,
    sign_variations,
    solve_exact,
    sturm_chain,
    sturm_real_root_count,
)


def random_matrix(rng, rows, cols, span=4):
    return Matrix([[F(rng.randint(-span, span), rng.randint(1, 3))
                    for _ in range(cols)] for _ in range(rows)])


# A Fraction reference for univariate polynomials, coefficients low degree
# first and the top one nonzero; the library keeps them as integer lists.


def ref_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def ref_deg(p):
    return len(p) - 1


def ref_eval(p, x):
    acc = F(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def ref_add(p, q):
    out = [F(0)] * max(len(p), len(q))
    for i, a in enumerate(p):
        out[i] += a
    for i, b in enumerate(q):
        out[i] += b
    return ref_trim(out)


def ref_mul(p, q):
    out = [F(0)] * max(0, len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return ref_trim(out)


def ref_derivative(p):
    return ref_trim([i * F(c) for i, c in enumerate(p)][1:])


def ref_gcd(p, q):
    """The monic gcd, by Euclid's algorithm over Fractions."""
    p, q = ref_trim([F(c) for c in p]), ref_trim([F(c) for c in q])
    while q:
        r = list(p)
        while len(r) >= len(q):
            f, k = r[-1] / q[-1], len(r) - len(q)
            for i, b in enumerate(q):
                r[k + i] -= f * b
            ref_trim(r)
        p, q = q, r
    return [c / p[-1] for c in p] if p else []


class TestMatrix:
    def test_mul_identity(self):
        m = Matrix([[1, 2], [3, 4]])
        assert m * Matrix.identity(2) == m
        assert Matrix.identity(2) * m == m

    def test_inverse(self):
        m = Matrix([[1, 2], [3, 5]])
        assert m * m.inverse() == Matrix.identity(2)

    def test_singular_inverse_raises(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2], [2, 4]]).inverse()

    def test_det(self):
        assert Matrix([[2, 0], [0, 3]]).det() == 6
        assert Matrix([[1, 2], [2, 4]]).det() == 0

    def test_charpoly_diag(self):
        # det(xI - diag(1,2)) = (x-1)(x-2) = x^2 - 3x + 2
        assert Matrix.diagonal([1, 2]).charpoly() == (F(2), F(-3), F(1))

    def test_charpoly_matches_det(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(1, 4)
            m = random_matrix(rng, n, n)
            cp = m.charpoly()
            # constant term is det(-A) = (-1)^n det A
            assert cp[0] == (-1) ** n * m.det()
            assert cp[n] == 1


class TestKernelImageRank:
    def test_one_by_two(self):
        k, im, r = kernel_image_rank(Matrix([[2, 0]]))
        assert k == Subspace.from_vectors(2, [[0, 1]])
        assert im == Subspace.full(1)
        assert r == 1

    def test_zero_matrix(self):
        k, im, r = kernel_image_rank(Matrix.zero(3, 3))
        assert k.is_full() and im.is_zero() and r == 0

    def test_identity(self):
        k, im, r = kernel_image_rank(Matrix.identity(3))
        assert k.is_zero() and r == 3

    def test_rank_nullity_random(self):
        rng = random.Random(20240)
        for _ in range(60):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            m = random_matrix(rng, rows, cols)
            k, im, r = kernel_image_rank(m)
            assert r + k.dim == cols
            assert im.dim == r
            for b in k.basis:
                assert all(x == 0 for x in m.apply(b))

    def test_solve_exact(self):
        a = Matrix([[1, 2], [0, 1]])
        x = solve_exact(a, (5, 2))
        assert a.apply(x) == (F(5), F(2))
        assert solve_exact(Matrix([[1, 0], [1, 0]]), (0, 1)) is None


class TestSubspace:
    def test_canonical_equality(self):
        s1 = Subspace.from_vectors(3, [[1, 1, 0], [0, 0, 1]])
        s2 = Subspace.from_vectors(3, [[2, 2, 2], [0, 0, 5]])
        assert s1 == s2
        assert hash(s1) == hash(s2)

    def test_order_independent(self):
        rng = random.Random(5)
        vecs = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)]
        s1 = Subspace.from_vectors(4, vecs)
        s2 = Subspace.from_vectors(4, vecs[::-1])
        assert s1 == s2

    def test_contains(self):
        s = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])
        assert s.contains([2, -3, 0])
        assert not s.contains([0, 0, 1])

    def test_intersect_sum(self):
        xy = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])
        yz = Subspace.from_vectors(3, [[0, 1, 0], [0, 0, 1]])
        assert xy.intersect(yz) == Subspace.from_vectors(3, [[0, 1, 0]])
        assert xy.sum_with(yz).is_full()

    def test_intersect_random_dims(self):
        rng = random.Random(99)
        for _ in range(30):
            n = rng.randint(2, 5)
            a = Subspace.from_vectors(n, [[rng.randint(-2, 2) for _ in range(n)]
                                          for _ in range(rng.randint(0, n))])
            b = Subspace.from_vectors(n, [[rng.randint(-2, 2) for _ in range(n)]
                                          for _ in range(rng.randint(0, n))])
            inter, total = a.intersect(b), a.sum_with(b)
            assert inter.dim + total.dim == a.dim + b.dim
            for v in inter.basis:
                assert a.contains(v) and b.contains(v)

    def test_restrict_to_subspace(self):
        m = Matrix.diagonal([1, -1])
        s = Subspace.from_vectors(2, [[0, 1]])
        assert restrict_to_subspace(m, s) == Matrix([[-1]])

    def test_restrict_non_invariant_raises(self):
        rot = Matrix([[0, -1], [1, 0]])
        line = Subspace.from_vectors(2, [[1, 0]])
        with pytest.raises(ValueError):
            restrict_to_subspace(rot, line)


class TestFactorization:
    def test_rotation_charpoly_irreducible(self):
        m = Matrix([[0, -1], [1, -1]])
        assert m.charpoly() == (F(1), F(1), F(1))
        assert factor_rational_poly(m.charpoly()) == [((F(1), F(1), F(1)), 1)]

    def test_diag_splits(self):
        fs = factor_rational_poly(Matrix.diagonal([1, -1]).charpoly())
        assert fs == [((F(-1), F(1)), 1), ((F(1), F(1)), 1)]

    def test_identity_multiplicity(self):
        fs = factor_rational_poly(Matrix.identity(2).charpoly())
        assert fs == [((F(-1), F(1)), 2)]

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2]]).charpoly()

    @pytest.mark.parametrize("poly,expect", [
        # x^4 + 4 = (x^2-2x+2)(x^2+2x+2)
        ([4, 0, 0, 0, 1], [[2, -2, 1], [2, 2, 1]]),
        # x^4 + x^2 + 1 = (x^2-x+1)(x^2+x+1)
        ([1, 0, 1, 0, 1], [[1, -1, 1], [1, 1, 1]]),
        # x^4 + 1 irreducible over Q
        ([1, 0, 0, 0, 1], [[1, 0, 0, 0, 1]]),
        # x^2 - 2 irreducible
        ([-2, 0, 1], [[-2, 0, 1]]),
        # (x-1)^2 (x+2)
        ([2, -3, 0, 1], [[-1, 1], [2, 1]]),
    ])
    def test_known_factorizations(self, poly, expect):
        fs = factor_rational_poly([F(c) for c in poly])
        assert [[int(c) for c in f] for f, _ in fs] == expect

    def test_search_cap_is_a_budget(self, monkeypatch):
        # x^4 + 1 has no rational root, so its degree-2 factor search runs
        monkeypatch.setattr(ratlin, "_KRONECKER_COMBO_CAP", 1)
        with pytest.raises(BudgetExceeded):
            factor_rational_poly([F(1), F(0), F(0), F(0), F(1)])

    def test_reexpansion_random(self):
        rng = random.Random(31337)
        for _ in range(25):
            deg = rng.randint(1, 6)
            coeffs = [F(rng.randint(-4, 4)) for _ in range(deg)] + [F(1)]
            fs = factor_rational_poly(coeffs)
            prod = [F(1)]
            for f, mult in fs:
                for _ in range(mult):
                    prod = ref_mul(prod, list(f))
            assert prod == coeffs

    def test_cyclotomic_matrix_orders(self):
        # finite-order rational matrices have cyclotomic charpoly factors
        rot4 = Matrix([[0, -1], [1, 0]])
        assert factor_rational_poly(rot4.charpoly()) == [((F(1), F(0), F(1)), 1)]

    def test_poly_apply_matrix(self):
        m = Matrix([[0, -1], [1, -1]])
        # Cayley-Hamilton: p(m) = 0 for the characteristic polynomial
        assert poly_apply_matrix(list(m.charpoly()), m).is_zero()

    def test_poly_apply_matrix_matches_power_sum(self):
        """Horner's rule against the sum of c_i * m^i, on random polynomials
        (empty, constant, with zero and trailing zero coefficients) and
        random square matrices."""
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(1, 4)
            mat = random_matrix(rng, n, n)
            p = [F(rng.choice([0, rng.randint(-5, 5)]), rng.randint(1, 4))
                 for _ in range(rng.randint(0, 6))]
            want, power = Matrix.zero(n, n), Matrix.identity(n)
            for c in p:
                want = want + power.scale(c)
                power = power * mat
            assert poly_apply_matrix(p, mat) == want

    def test_poly_apply_matrix_costs_degree_products(self, monkeypatch):
        products = []
        matmul = Matrix.__mul__
        monkeypatch.setattr(Matrix, "__mul__",
                            lambda a, b: products.append(1) or matmul(a, b))
        m = Matrix([[0, -1], [1, -1]])
        poly_apply_matrix([F(1), F(2), F(0), F(3)], m)
        assert len(products) == 3


class TestSturm:
    @pytest.mark.parametrize("poly,count", [
        ([-1, 0, 1], 2),     # x^2 - 1
        ([1, 0, 1], 0),      # x^2 + 1
        ([0, 0, 1], 1),      # x^2 (double root counts once)
        ([0, -3, 0, 1], 3),  # x^3 - 3x
        ([2, 0, 1], 0),      # x^2 + 2
    ])
    def test_root_counts(self, poly, count):
        assert sturm_real_root_count(poly) == count
        assert has_real_root(poly) == (count > 0)

    def test_variations_count_roots_in_half_open_intervals(self):
        """(x - 1)^2 (x + 2) (x^2 + 1) (x - 1/3): V(a) - V(b) is the number
        of distinct real roots in (a, b], roots at the ends included, for
        ints, Fractions and the infinities."""
        p = [F(1)]
        for factor in ([-1, 1], [-1, 1], [2, 1], [1, 0, 1], [F(-1, 3), 1]):
            p = ref_mul(p, [F(c) for c in factor])
        roots = [F(-2), F(1, 3), F(1)]
        chain = sturm_chain(poly_int(p))
        assert all(isinstance(c, int) for f in chain for c in f)
        points = [-math.inf, -3, F(-2), F(-1, 2), 0, F(1, 3), F(1, 2), 1, F(3, 2), math.inf]
        for i, a in enumerate(points):
            for b in points[i + 1:]:
                want = sum(1 for r in roots if a < r <= b)
                assert sign_variations(chain, a) - sign_variations(chain, b) == want
        assert sturm_chain([5]) == [[1]]
        with pytest.raises(ValueError):
            sturm_chain([0])

    def test_gcd(self):
        # gcd(x^2-1, x-1) = x-1 up to normalization
        g = poly_gcd([-1, 0, 1], [-1, 1])
        assert g == [-1, 1]


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
int_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=6).filter(lambda p: p[-1])


@st.composite
def factored_polys(draw):
    """(p, factors, mults, roots): p a nonzero rational multiple of the
    product of factors[i]^mults[i], with Fraction factors x - r for distinct
    small rationals r (the real roots) and (x - a)^2 + b with b > 0 and
    distinct (a, b), which have no real root; so the factors are
    irreducible over Q, square-free and pairwise coprime."""
    roots = draw(st.lists(small_rationals, unique=True, max_size=3))
    quadratics = draw(st.lists(st.tuples(small_rationals, small_rationals.filter(lambda b: b > 0)),
                               unique=True, max_size=2))
    factors = [[-r, F(1)] for r in roots] + [[a * a + b, -2 * a, F(1)] for a, b in quadratics]
    assume(factors)
    mults = [draw(st.integers(1, 3)) for _ in factors]
    p = [draw(small_rationals.filter(lambda c: c != 0))]
    for f, m in zip(factors, mults):
        for _ in range(m):
            p = ref_mul(p, f)
    return p, factors, mults, roots


class TestIntegerPolynomials:
    """The integer polynomial functions against the Fraction reference on
    products of small rational factors with multiplicities."""

    @settings(max_examples=80, deadline=None)
    @given(factored_polys(), int_polys, int_polys)
    def test_divmod_is_a_pseudo_division(self, fp, q, r):
        """c p = quo q + rem with c > 0 and deg rem < deg q, and c = 1 when q
        divides p in Z[x]."""
        for p in (poly_int(fp[0]), r):
            quo, rem = poly_divmod(p, q)
            assert len(rem) < len(q) and (not rem or rem[-1])
            lhs = ref_add(ref_mul(quo, q), rem)
            c = F(lhs[-1], p[-1])
            assert c > 0 and lhs == [c * a for a in p]
        assert poly_divmod([int(c) for c in ref_mul(q, r)], q) == (r, [])

    @settings(max_examples=80, deadline=None)
    @given(factored_polys(), st.data())
    def test_gcd_is_the_monic_gcd_up_to_a_positive_scale(self, fp, data):
        p, factors, mults, _ = fp
        q = data.draw(int_polys)
        for f in data.draw(st.lists(st.sampled_from(factors), max_size=3)):
            q = ref_mul(q, f)
        for a, b in [(p, q), (q, p), (p, ref_derivative(p)), (p, [])]:
            g = poly_gcd(poly_int(a), poly_int(b))
            assert g[-1] > 0 and [F(c, g[-1]) for c in g] == ref_gcd(a, b)

    @settings(max_examples=80, deadline=None)
    @given(factored_polys())
    def test_squarefree_parts_give_the_multiplicities(self, fp):
        p, factors, mults, _ = fp
        want = []
        for i in sorted(set(mults)):
            part = [F(1)]
            for f, m in zip(factors, mults):
                if m == i:
                    part = ref_mul(part, f)
            want.append((poly_int(part), i))
        assert ratlin._squarefree_parts(poly_int(p)) == want

    @settings(max_examples=80, deadline=None)
    @given(factored_polys())
    def test_factors_reexpand_to_a_multiple(self, fp):
        p, factors, mults, _ = fp
        got = factor_rational_poly(p)
        assert got == sorted(((tuple(poly_int(f)), m) for f, m in zip(factors, mults)),
                             key=lambda fm: (len(fm[0]), fm[0]))
        prod = [F(1)]
        for f, m in got:
            assert f[-1] > 0 and math.gcd(*f) == 1
            for _ in range(m):
                prod = ref_mul(prod, f)
        c = prod[-1] / p[-1]
        assert prod == [c * a for a in p]

    @settings(max_examples=80, deadline=None)
    @given(factored_polys())
    def test_sturm_counts_the_distinct_real_roots(self, fp):
        p, _, _, roots = fp
        assert sturm_real_root_count(poly_int(p)) == len(roots)
        assert has_real_root(poly_int(p)) == bool(roots)
        chain = sturm_chain(poly_int(p))
        # distinct roots with denominators up to 4 lie at least 1/12 apart
        for r in roots:
            assert sign_variations(chain, r - F(1, 100)) - sign_variations(chain, r) == 1


class TestMultiPoly:
    def test_eval_sum_squares(self):
        p = MultiPoly(2, [{(2, 0): F(1), (0, 2): F(1)}])
        assert p.eval([F(3, 2), 0]) == (F(9, 4),)
        assert p.eval([0, 0]) == (F(0),)

    def test_eval_square_negative(self):
        p = MultiPoly(1, [{(2,): F(1)}])
        assert p.eval([-2]) == (F(4),)

    def test_eval_arity_mismatch(self):
        p = MultiPoly(2, [{(1, 0): F(1)}])
        with pytest.raises(ValueError):
            p.eval([1])

    def test_jacobian_square(self):
        p = MultiPoly(1, [{(2,): F(1)}])
        assert p.jacobian_at([1]) == Matrix([[2]])

    def test_jacobian_linear(self):
        p = MultiPoly.coordinate(2, 0)
        assert p.jacobian_at([7, -2]) == Matrix([[1, 0]])

    def test_jacobian_gradient(self):
        p = MultiPoly(2, [{(2, 0): F(1), (0, 2): F(1)}])
        assert p.jacobian_at([1, 0]) == Matrix([[2, 0]])

    def test_identity_zero_even_composition(self):
        p = MultiPoly(1, [{(2,): F(1)}])
        neg = Matrix([[-1]])
        assert (p.compose_affine(neg) - p).is_zero()

    def test_identity_zero_odd_composition(self):
        p = MultiPoly.coordinate(1, 0)
        neg = Matrix([[-1]])
        diff = p.compose_affine(neg) - p
        assert not diff.is_zero()
        assert diff.coords[0] == (((1,), F(-2)),)

    def test_zero_map(self):
        assert MultiPoly.zero_map(3, 2).is_zero()

    def test_compose_affine_translation(self):
        p = MultiPoly(1, [{(2,): F(1)}])
        shifted = p.compose_affine(Matrix.identity(1), [1])
        # (y+1)^2 = y^2 + 2y + 1
        assert shifted.eval([0]) == (F(1),)
        assert shifted.eval([1]) == (F(4),)
        assert shifted.eval([F(-1, 2)]) == (F(1, 4),)

    def test_compose_matches_pointwise(self):
        rng = random.Random(8)
        p = MultiPoly(2, [{(2, 1): F(3), (0, 1): F(-1)}, {(1, 1): F(1)}])
        lin = random_matrix(rng, 2, 2)
        t = [F(1, 2), F(-1)]
        comp = p.compose_affine(lin, t)
        for _ in range(10):
            y = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2)]
            x = [a + b for a, b in zip(lin.apply(y), t)]
            assert comp.eval(y) == p.eval(x)

    def test_apply_matrix(self):
        p = MultiPoly(1, [{(1,): F(1)}, {(2,): F(1)}])
        m = Matrix([[0, 1], [1, 0]])
        q = p.apply_matrix(m)
        assert q.eval([3]) == (F(9), F(3))

    def test_jacobian_float_shadow(self):
        # central finite differences on a float shadow agree to 1e-6
        rng = random.Random(4242)
        p = MultiPoly(3, [
            {(2, 0, 0): F(1), (0, 1, 1): F(-2), (1, 0, 0): F(1, 3)},
            {(0, 3, 0): F(1, 2), (1, 1, 0): F(2)},
        ])

        def shadow(pt):
            return [float(v) for v in p.eval([F(x).limit_denominator(10 ** 9)
                                              for x in pt])]

        for _ in range(5):
            pt = [rng.uniform(-1, 1) for _ in range(3)]
            jac = p.jacobian_at([F(x).limit_denominator(10 ** 9) for x in pt])
            h = 1e-4
            for j in range(3):
                up = list(pt)
                dn = list(pt)
                up[j] += h
                dn[j] -= h
                fd = [(u - d) / (2 * h) for u, d in zip(shadow(up), shadow(dn))]
                for i in range(2):
                    assert abs(float(jac[i, j]) - fd[i]) < 1e-6
