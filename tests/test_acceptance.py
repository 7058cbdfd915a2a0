"""Acceptance suite: one test per criterion, exact checks, timed limits.

Run with `pytest tests/test_acceptance.py -s` for one PASS line per
criterion.  Everything algebraic is asserted with exact rational equality
(zero tolerance); the only statistical check is the regular-value density
sample, which is seeded and byte-reproducible.
"""

import itertools
import json
import time
from fractions import Fraction as F

import pytest

from orblocal.ratlin import (
    Matrix,
    Subspace,
    factor_rational_poly,
    kernel_image_rank,
    poly_apply_matrix,
)
from orblocal.groups import find_invariant_subspace, generate_closure
from orblocal.charts import stratify
from orblocal.germs import (
    cocycle_identities,
    invariant_projection,
    lift_replacement_invariance,
    obstruction_certificate,
    sard_sample,
)
from orblocal.onedim import (
    AssemblyEnd,
    AssemblyPiece,
    BOUNDARY,
    GLUE,
    RetractionScenario,
    assemble_components,
    boundary_parity,
    classify_1_orbifold,
    forbidden_index2_check,
    retraction_contradiction,
)
from orblocal.groups import verify_homomorphism
from orblocal.corpus import (
    SARD_SEED,
    case_preimage_models,
    charts,
    germ_case,
    germ_cases,
)


def _trivial_theta(src, tgt):
    return verify_homomorphism(
        src.group, tgt.group,
        [Matrix.identity(tgt.dim)] * len(src.group.generator_indices))


def report(num, text):
    print("ACCEPTANCE %-2d PASS: %s" % (num, text))


def test_criterion_01_projection_suite():
    cases = germ_cases()
    orders = {c.germ.source.group.order for c in cases}
    dims = {c.germ.source.dim for c in cases}
    assert len(cases) >= 10
    assert orders <= set(range(1, 9)) and {1, 8} <= orders
    assert dims == {1, 2, 3, 4}
    t0 = time.monotonic()
    for case in cases:
        proj = invariant_projection(case.germ)
        p = proj.projection
        assert p * p == p
        for i in proj.n_group.members:
            g = case.germ.source.group.element(i)
            assert g * p == p * g
        for col in range(p.cols):
            assert proj.kernel_space.contains(p.column(col))
        for b in proj.proj_kernel.basis:
            for i in proj.n_group.members:
                assert case.germ.source.group.element(i).apply(b) == b
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, "projection suite took %.2fs" % elapsed
    report(1, "projection identities exact on %d germs (orders %s, dims %s) "
              "in %.2fs" % (len(cases), sorted(orders), sorted(dims), elapsed))


def test_criterion_02_cocycle_suite():
    t0 = time.monotonic()
    total_pairs = 0
    for case in germ_cases():
        proj = invariant_projection(case.germ)
        grp = case.germ.source.group
        amap = dict(proj.a_gamma)
        for gi in proj.n_group.members:
            for di in proj.n_group.members:
                g = grp.element(gi)
                d = grp.element(di)
                a_gd = amap[grp.mul(gi, di)]
                assert a_gd == amap[gi] + g * amap[di]
                assert a_gd == amap[di] + amap[gi] * d
                assert a_gd == amap[di] + amap[gi] + amap[gi] * amap[di]
                total_pairs += 1
        assert cocycle_identities(proj).ok
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, "cocycle suite took %.2fs" % elapsed
    report(2, "all three composition identities on %d pairs in %.2fs"
           % (total_pairs, elapsed))


def test_criterion_03_preimage_suite():
    scenarios = 0
    for case in germ_cases():
        if not case.regular:
            continue
        for model in case_preimage_models(case):
            src, tgt = model.germ.source, model.germ.target
            grp = src.group
            assert model.dim == src.dim - tgt.dim
            assert model.kernel.dim == model.dim
            for m in grp.elements:
                assert model.kernel.is_invariant_under(m)
            assert model.gamma_s.order * model.g_group.order == grp.order
            for coset in range(1, model.gamma_s.order):
                rep = grp.element(model.gamma_s.representative(coset))
                assert not model.kernel.fixed_pointwise_by(rep)
            assert model.suborbifold.full
            scenarios += 1
    assert scenarios >= 10
    report(3, "preimage structure exact on %d regular scenarios" % scenarios)


def test_criterion_04_faithfulness_suite():
    for case in germ_cases():
        split = case.germ.base_split
        ngrp = case.germ.n_group
        assert set(ngrp.members) & set(split.omega.members) == {0}
        cosets = [split.intrinsic_isotropy.coset_of(i) for i in ngrp.members]
        assert len(set(cosets)) == ngrp.order
    report(4, "kernel of the homomorphism embeds in the quotient on %d germs"
           % len(germ_cases()))


def test_criterion_05_obstruction_regression():
    c = charts()
    line = c["line-trivial"]
    plane = c["plane-trivial"]
    a1 = obstruction_certificate(c["line-z2"], line,
                                 _trivial_theta(c["line-z2"], line))
    assert (a1.verdict, a1.reason_code) == ("impossible", "kernel_on_point")
    a2 = obstruction_certificate(c["quarter-plane"], plane,
                                 _trivial_theta(c["quarter-plane"], plane))
    assert (a2.verdict, a2.reason_code) == ("impossible", "kernel_on_point")
    b = obstruction_certificate(c["rotation-3"], line,
                                _trivial_theta(c["rotation-3"], line))
    assert (b.verdict, b.reason_code) == ("impossible", "no_invariant_kernel")
    w = obstruction_certificate(c["mirror-plane"], line,
                                _trivial_theta(c["mirror-plane"], line))
    assert w.verdict == "possible" and w.witness_lift is not None
    report(5, "two reason-(a) refusals, one reason-(b) refusal, one witness")


def test_criterion_06_sard_statistical():
    case = germ_case("z2-square")
    t0 = time.monotonic()
    rep1 = sard_sample(case.germ, [(-2, 2)], 10000, SARD_SEED)
    elapsed = time.monotonic() - t0
    rep2 = sard_sample(case.germ, [(-2, 2)], 10000, SARD_SEED)
    b1 = json.dumps(rep1.to_jsonable(), sort_keys=True).encode()
    b2 = json.dumps(rep2.to_jsonable(), sort_keys=True).encode()
    assert b1 == b2, "reports differ between runs"
    assert rep1.regular_fraction >= F(999, 1000)
    assert elapsed < 1.0, "sard run took %.2fs" % elapsed
    report(6, "regular fraction %s over 10^4 samples, byte-identical reruns, "
              "%.3fs" % (rep1.regular_fraction, elapsed))


def test_criterion_07_strata_regression():
    rep = stratify(charts()["quarter-plane"])
    sing = rep.singular_strata()
    assert len(sing) == 3
    assert sorted(s.dimension for s in sing) == [0, 1, 1]
    axes = {s.fixed_space for s in sing}
    assert Subspace.from_vectors(2, [[1, 0]]) in axes
    assert Subspace.from_vectors(2, [[0, 1]]) in axes
    report(7, "product of two mirror lines: exactly 3 singular strata, "
              "dims (0, 1, 1)")


def test_criterion_08_retraction_machinery():
    c = charts()
    type_c = RetractionScenario(atlas=[c["line-z2"], c["half-line"]],
                                p=(F(0),), germs=[], pieces=[])
    r1 = retraction_contradiction(type_c)
    assert r1.status == "hypothesis not met"

    edge = germ_case("half-plane-edge")
    entry = (1, edge.germ, [list(edge.lifts[0])])
    disk = RetractionScenario(
        atlas=[c["point-reflection"], c["half-plane"]], p=(F(0),),
        germs=[entry],
        pieces=[
            AssemblyPiece("edge", (
                AssemblyEnd(BOUNDARY, chart_index=1, point=(F(0), F(0)),
                            is_base=True),
                AssemblyEnd(GLUE, token="t"))),
            AssemblyPiece("mirror", (
                AssemblyEnd("mirror", isotropy_order=2, chart_index=0,
                            point=(F(0), F(0))),
                AssemblyEnd(GLUE, token="t"))),
        ])
    r2 = retraction_contradiction(disk)
    assert r2.status == "contradiction"
    assert r2.contradiction_kind == "forced_codim1_mirror"

    borsuk = RetractionScenario(
        atlas=[c["plane-trivial"], c["half-plane"], c["half-plane"]], p=(F(0),),
        germs=[entry, (2, edge.germ, [list(edge.lifts[0])])],
        pieces=[
            AssemblyPiece("near", (
                AssemblyEnd(BOUNDARY, chart_index=1, point=(F(0), F(0)),
                            is_base=True),
                AssemblyEnd(GLUE, token="a"))),
            AssemblyPiece("across", (AssemblyEnd(GLUE, token="a"),
                                     AssemblyEnd(GLUE, token="b"))),
            AssemblyPiece("far", (
                AssemblyEnd(BOUNDARY, chart_index=2, point=(F(0), F(0))),
                AssemblyEnd(GLUE, token="b"))),
        ])
    r3 = retraction_contradiction(borsuk)
    assert r3.status == "contradiction"
    assert r3.contradiction_kind == "extra_boundary_point"
    report(8, "type-(c) atlas permits a retraction; the reflection disk and "
              "the trivial disk are both contradicted")


def test_criterion_09_parity_theorem():
    c = charts()
    atlases = {
        "cone": ([c["rotation-3"], c["half-plane"], c["half-plane"]], [
            AssemblyPiece("west", (
                AssemblyEnd(BOUNDARY, chart_index=1, point=(F(0), F(0)),
                            is_base=True),
                AssemblyEnd(GLUE, token="a"))),
            AssemblyPiece("chord", (AssemblyEnd(GLUE, token="a"),
                                    AssemblyEnd(GLUE, token="b"))),
            AssemblyPiece("east", (
                AssemblyEnd(BOUNDARY, chart_index=2, point=(F(0), F(0))),
                AssemblyEnd(GLUE, token="b"))),
            AssemblyPiece("ring-n", (AssemblyEnd(GLUE, token="u"),
                                     AssemblyEnd(GLUE, token="v"))),
            AssemblyPiece("ring-s", (AssemblyEnd(GLUE, token="v"),
                                     AssemblyEnd(GLUE, token="u"))),
        ]),
        "disk": ([c["plane-trivial"], c["half-plane"], c["half-plane"]], [
            AssemblyPiece("near", (
                AssemblyEnd(BOUNDARY, chart_index=1, point=(F(0), F(0)),
                            is_base=True),
                AssemblyEnd(GLUE, token="a"))),
            AssemblyPiece("across", (AssemblyEnd(GLUE, token="a"),
                                     AssemblyEnd(GLUE, token="b"))),
            AssemblyPiece("far", (
                AssemblyEnd(BOUNDARY, chart_index=2, point=(F(0), F(0))),
                AssemblyEnd(GLUE, token="b"))),
        ]),
    }
    for name, (atlas, pieces) in atlases.items():
        for chart in atlas:
            assert not forbidden_index2_check(chart).found, name
        comps = [a.component for a in assemble_components(pieces)]
        types = [classify_1_orbifold(cc) for cc in comps]
        assert all(t in ("a", "b") for t in types), (name, types)
        parity = boundary_parity(comps)
        assert parity.even
    report(9, "index-2-free atlases assemble to types a/b with even "
              "boundary counts")


# --- criterion 10: brute-force oracle for invariant subspaces ---------------


def signed_permutation_matrices(n):
    out = []
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            rows = [[0] * n for _ in range(n)]
            for i, (j, s) in enumerate(zip(perm, signs)):
                rows[j][i] = s
            out.append(Matrix(rows))
    return out


def subgroups_up_to_order(mats, max_order):
    """All subgroups of the full signed-permutation group with small order."""
    index = {m: i for i, m in enumerate(mats)}
    table = [[index[a * b] for b in mats] for a in mats]

    def close(seed):
        members = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for a in frontier:
                for g in seed:
                    p = table[a][g]
                    if p not in members:
                        if len(members) >= max_order:
                            return None
                        members.add(p)
                        nxt.append(p)
            frontier = nxt
        return frozenset(members)

    found = set()
    ids = range(len(mats))
    for size in (1, 2, 3):
        for seed in itertools.combinations(ids, size):
            got = close(seed)
            if got is not None:
                found.add(got)
    return [[mats[i] for i in sorted(s)] for s in sorted(found, key=sorted)]


def oracle_invariant_subspace_exists(elements, d):
    """Brute-force oracle: coordinate subspaces, primary components of single
    elements, their intersections, sums, and orthogonal complements."""
    n = elements[0].rows
    candidates = set()
    for size in range(1, n):
        for cols in itertools.combinations(range(n), size):
            basis = [[1 if j == c else 0 for j in range(n)] for c in cols]
            candidates.add(Subspace.from_vectors(n, basis))
    for g in elements:
        for factor, mult in factor_rational_poly(g.charpoly()):
            fm = poly_apply_matrix(list(factor), g)
            power = fm
            for _ in range(mult):
                ker, img, _ = kernel_image_rank(power)
                for s in (ker, img):
                    if 0 < s.dim < n:
                        candidates.add(s)
                power = power * fm
    for _ in range(3):
        fresh = set()
        for a in candidates:
            for b in candidates:
                i = a.intersect(b)
                if 0 < i.dim < n:
                    fresh.add(i)
        candidates |= fresh
    with_complements = set(candidates)
    for s in candidates:
        comp, _, _ = kernel_image_rank(Matrix(s.basis))
        if 0 < comp.dim < n:
            with_complements.add(comp)
    for a in list(with_complements):
        for b in list(with_complements):
            u = a.sum_with(b)
            if 0 < u.dim < n:
                with_complements.add(u)

    def invariant(s):
        return all(s.is_invariant_under(g) for g in elements)

    return any(s.dim == d and invariant(s) for s in with_complements)


@pytest.mark.parametrize("dim", [2, 3])
def test_criterion_10_oracle_equivalence(dim):
    mats = signed_permutation_matrices(dim)
    groups = subgroups_up_to_order(mats, max_order=8)
    checked = 0
    ident = Matrix.identity(dim)
    for members in groups:
        gens = [g for g in members if g != ident] or [ident]
        grp = generate_closure(dim, gens)
        assert grp.order == len(members)
        for d in range(1, dim):
            res = find_invariant_subspace(grp, d)
            oracle = oracle_invariant_subspace_exists(members, d)
            assert res.status in ("found", "certified_none"), res
            assert res.found == oracle, (
                "disagreement at order %d, dim_wanted %d: search=%s oracle=%s"
                % (grp.order, d, res.status, oracle))
            if res.found:
                for g in grp.elements:
                    assert res.subspace.is_invariant_under(g)
            checked += 1
    report(10, "search vs brute-force oracle on %d (group, dimension) cases "
               "in dimension %d" % (checked, dim))


def test_criterion_11_lift_replacement():
    pairs = 0
    for case in germ_cases():
        for eta in case.germ.target.group.elements:
            rep = lift_replacement_invariance(case.germ, eta)
            assert rep.kernels_equal and rep.n_unchanged
            pairs += 1
    assert pairs >= len(germ_cases())
    report(11, "kernels and homomorphism kernels preserved across %d "
               "(germ, eta) pairs" % pairs)
