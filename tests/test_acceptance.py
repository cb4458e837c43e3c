"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from deformq.closedform import (
    GaugeOperator,
    gauge_inverse,
    gauge_transform,
    moyal,
    moyal_series,
    moyal_via_wick,
)
from deformq.graphs import AdmissibleGraph, boundary
from deformq.linsymp import (
    SkewForm,
    Subspace,
    canonical_block,
    classify_subspace,
    identity,
    mat_mul,
    rank,
    restrict_dirac,
    restrict_dirac_quotient,
    dirac_from_pair,
    dirac_pairing,
    standard_form,
    symplectic_orthogonal,
    transpose,
)
from deformq.operators import (
    MultiDiffOp,
    apply_op,
    gerstenhaber_bracket,
    hkr,
    hochschild_d,
)
from deformq.polyalg import (
    Polynomial,
    PolyVector,
    jacobiator,
    poisson_bracket,
    schouten,
)
from deformq.starprod import (
    associator,
    associator_bound,
    band_weights,
    class_rows,
    contains_zero,
    first_order_antisym,
    kontsevich_star,
    kontsevich_star_series,
    star_classes,
)
from deformq.weights import WeightEstimate, WeightTable, _sample_weight

b1, b2 = boundary(1), boundary(2)


def report(num, text):
    print(f"criterion {num}: PASS - {text}")


def rand_poly(rng, dim, maxdeg=3, nterms=3):
    terms = {}
    for _ in range(nterms):
        key = tuple(rng.randint(0, maxdeg) for _ in range(dim))
        if sum(key) <= maxdeg:
            terms[key] = Fraction(rng.randint(-3, 3))
    return Polynomial(dim, terms)


def rand_polyvector(rng, dim, degree, maxdeg=2):
    comps = {}
    for key in itertools.combinations(range(1, dim + 1), degree):
        if rng.random() < 0.7:
            comps[key] = rand_poly(rng, dim, maxdeg, nterms=2)
    return PolyVector(dim, degree, comps)


def rand_const_bivector(rng, dim):
    comps = {}
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            comps[(i, j)] = Polynomial.const(
                dim, Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            )
    return PolyVector(dim, 2, comps)


def so3_bivector():
    return PolyVector(
        3,
        2,
        {
            (1, 2): Polynomial.var(3, 3),
            (1, 3): -Polynomial.var(3, 2),
            (2, 3): Polynomial.var(3, 1),
        },
    )


def pv_combine(*parts):
    live = [p for p in parts if not p.is_zero]
    if not live:
        return None
    out = live[0]
    for p in live[1:]:
        out = out + p
    return out


def pv_eq(a, b):
    if (a is None or a.is_zero) and (b is None or b.is_zero):
        return True
    if a is None or b is None:
        return False
    return a == b


# ---------------------------------------------------------------------------


def test_criterion_1_wedge_weight():
    # weight_mc returns 1/2 by rule; the sampler checks the integrand
    wedge = AdmissibleGraph(1, 2, ((b1, b2),))
    start = time.time()
    est = _sample_weight(wedge, 1_000_000, seed=20240)
    elapsed = time.time() - start
    assert elapsed < 60.0
    assert est.stderr < 0.01
    assert abs(est.mean - 0.5) <= 3 * est.stderr
    # equivalent restatement: the raw slice integral is (2 pi)^2
    scale = 2 * (2 * math.pi) ** 2
    assert abs(est.mean * scale - (2 * math.pi) ** 2) <= 3 * est.stderr * scale
    report(
        1,
        f"wedge weight {est.mean:.6f} +- {est.stderr:.6f} brackets 1/2 "
        f"({elapsed:.1f}s, 10^6 samples)",
    )


def test_criterion_2_moyal_associativity():
    rng = random.Random(1001)
    start = time.time()
    for _ in range(50):
        dim = rng.randint(1, 4)
        pi = rand_const_bivector(rng, dim)
        series = moyal_series(pi, 4)
        f, g, h = (rand_poly(rng, dim) for _ in range(3))
        defect = associator(series, f, g, h, 4)
        assert all(c.is_zero for c in defect.coeffs)
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(2, f"Moyal associator exactly zero at order 4, 50 random cases ({elapsed:.1f}s)")


def test_criterion_3_wick_oracle():
    rng = random.Random(1002)
    start = time.time()
    for _ in range(50):
        dim = rng.randint(1, 4)
        pi = rand_const_bivector(rng, dim)
        f, g = rand_poly(rng, dim), rand_poly(rng, dim)
        assert moyal(pi, f, g, 3).coeffs == moyal_via_wick(pi, f, g, 3).coeffs
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(3, f"Wick expectation equals Moyal exactly at order 3, 50 cases ({elapsed:.1f}s)")


def test_criterion_4_order_one_kontsevich(weight_table):
    assert weight_table.exact("1;2;[b1,b2]") == Fraction(1, 2)
    rng = random.Random(1003)
    checked = 0
    for pi in [so3_bivector()] + [rand_const_bivector(rng, 3) for _ in range(3)]:
        for i, j in itertools.combinations(range(1, 4), 2):
            f, g = Polynomial.var(3, i), Polynomial.var(3, j)
            series = kontsevich_star(pi, f, g, star_classes(pi, 1), weight_table)
            assert series.coeffs[1] == poisson_bracket(pi, f, g)
            checked += 1
    report(4, f"order-1 coefficient equals the Poisson bracket on {checked} coordinate pairs")


def test_criterion_5_order_two_matches_moyal(weight_table):
    # snapped at weights.snap_bound(2) = 24 from runs of at least 10^6 samples
    for gid, entry in weight_table.entries.items():
        assert entry.snapped is not None, f"{gid} failed to snap uniquely"
        assert entry.snapped.denominator <= 24
        if entry.stderr > 0:
            assert entry.samples >= 1_000_000
    rng = random.Random(1004)
    for _ in range(10):
        dim = rng.randint(2, 4)
        pi = rand_const_bivector(rng, dim)
        f, g = rand_poly(rng, dim), rand_poly(rng, dim)
        assert kontsevich_star(pi, f, g, star_classes(pi, 2), weight_table).coeffs == moyal(
            pi, f, g, 2
        ).coeffs
    snapped_values = sorted(
        {str(e.snapped) for e in weight_table.entries.values()}
    )
    report(
        5,
        "snapped order-2 table reproduces Moyal exactly for 10 random "
        f"constant structures (weights: {', '.join(snapped_values)})",
    )


def test_criterion_6_order_two_associativity(weight_table):
    pi = so3_bivector()
    series = kontsevich_star_series(pi, star_classes(pi, 2), weight_table)
    xs = [Polynomial.var(3, i) for i in (1, 2, 3)]
    for f, g, h in itertools.product(xs, repeat=3):
        defect = associator(series, f, g, h, 2)
        assert all(c.is_zero for c in defect.coeffs)
    # raw Monte-Carlo weights: the 3-sigma associator bound admits zero
    raw = WeightTable()
    for gid, e in weight_table.entries.items():
        raw.put(
            WeightEstimate(gid, e.mean, e.stderr, e.samples, e.seed),
            None if e.stderr > 0 else e.snapped,
        )
    bound = associator_bound(
        class_rows(pi.dim, star_classes(pi, 2), band_weights(raw))
    )
    for fgh in [(xs[0], xs[1], xs[2]), (xs[1], xs[1], xs[2]), (xs[2], xs[0], xs[2])]:
        for center, radius in bound:
            assert contains_zero(apply_op(center, fgh), apply_op(radius, fgh))
    report(
        6,
        "so(3) order-2 associator exactly zero on all 27 coordinate triples; "
        "raw-weight 3-sigma bound admits zero",
    )


def test_criterion_7_schouten_identities():
    rng = random.Random(1005)
    for _ in range(100):
        dim = rng.randint(2, 4)
        dx, dy, dz = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 2)
        X = rand_polyvector(rng, dim, dx)
        Y = rand_polyvector(rng, dim, dy)
        Z = rand_polyvector(rng, dim, dz)
        asym = pv_eq(
            pv_combine(schouten(X, Y)),
            pv_combine(schouten(Y, X).scale(-((-1) ** ((dx + 1) * (dy + 1))))),
        )
        leib = pv_eq(
            pv_combine(schouten(X, Y.wedge(Z))),
            pv_combine(
                schouten(X, Y).wedge(Z),
                Y.wedge(schouten(X, Z)).scale((-1) ** ((dx + 1) * dy)),
            ),
        )
        jac = pv_eq(
            pv_combine(schouten(X, schouten(Y, Z))),
            pv_combine(
                schouten(schouten(X, Y), Z),
                schouten(Y, schouten(X, Z)).scale((-1) ** ((dx + 1) * (dy + 1))),
            ),
        )
        assert asym and leib and jac
    assert jacobiator(so3_bivector()).is_zero

    xs = [Polynomial.var(3, i) for i in (1, 2, 3)]
    for _ in range(30):
        comps = {
            key: rand_poly(rng, 3, maxdeg=1, nterms=2)
            for key in [(1, 2), (1, 3), (2, 3)]
        }
        pi = PolyVector(3, 2, comps)
        cyclic_zero = True
        for f, g, h in itertools.combinations(xs, 3):
            cyc = (
                poisson_bracket(pi, poisson_bracket(pi, f, g), h)
                + poisson_bracket(pi, poisson_bracket(pi, g, h), f)
                + poisson_bracket(pi, poisson_bracket(pi, h, f), g)
            )
            if not cyc.is_zero:
                cyclic_zero = False
        assert jacobiator(pi).is_zero == cyclic_zero
    report(
        7,
        "graded antisymmetry, Leibniz, Jacobi exact on 100 random triples; "
        "so(3) jacobiator zero; cyclic-sum biconditional on 30 linear structures",
    )


def test_criterion_8_hochschild_gerstenhaber():
    rng = random.Random(1006)

    def rand_op(dim, arity, max_order=2, maxdeg=2):
        terms = {}
        for _ in range(2):
            key = []
            for _ in range(arity):
                deriv = [0] * dim
                for _ in range(rng.randint(0, max_order)):
                    deriv[rng.randrange(dim)] += 1
                key.append(tuple(deriv))
            terms[tuple(key)] = rand_poly(rng, dim, maxdeg, nterms=2)
        return MultiDiffOp(dim, arity, terms)

    for _ in range(50):
        psi = rand_op(rng.choice([2, 3]), rng.randint(1, 3))
        assert hochschild_d(hochschild_d(psi)).is_zero
    for _ in range(15):
        dim = 2
        phi = rand_op(dim, rng.randint(1, 3), max_order=1, maxdeg=1)
        psi = rand_op(dim, rng.randint(1, 3), max_order=1, maxdeg=1)
        chi = rand_op(dim, rng.randint(1, 3), max_order=1, maxdeg=1)
        m, n = phi.degree, psi.degree
        lhs = gerstenhaber_bracket(phi, gerstenhaber_bracket(psi, chi))
        rhs = gerstenhaber_bracket(gerstenhaber_bracket(phi, psi), chi) + (
            gerstenhaber_bracket(psi, gerstenhaber_bracket(phi, chi)).scale(
                (-1) ** (m * n)
            )
        )
        assert lhs == rhs
    for _ in range(15):
        dim = rng.choice([2, 3])
        degree = rng.randint(1, min(3, dim))
        comps = {}
        for key in itertools.combinations(range(1, dim + 1), degree):
            comps[key] = rand_poly(rng, dim, maxdeg=2, nterms=2)
        xi = PolyVector(dim, degree, comps)
        assert hochschild_d(hkr(xi)).is_zero
    report(
        8,
        "d^2 = 0 on 50 random operators; Gerstenhaber Jacobi on 15 triples; "
        "antisymmetrization cocycles closed on 15 multivectors",
    )


def test_criterion_9_gauge_equivalence():
    rng = random.Random(1007)

    def rand_gauge(dim, order):
        maps = [MultiDiffOp.identity(dim)]
        for _ in range(order):
            terms = {}
            for _ in range(2):
                deriv = [0] * dim
                for _ in range(rng.randint(1, 2)):
                    deriv[rng.randrange(dim)] += 1
                terms[(tuple(deriv),)] = rand_poly(rng, dim, maxdeg=1, nterms=2)
            maps.append(MultiDiffOp(dim, 1, terms))
        return GaugeOperator(order, tuple(maps))

    for _ in range(20):
        dim = rng.randint(1, 2)
        pi = rand_const_bivector(rng, dim)
        base = moyal_series(pi, 2)
        d_op = rand_gauge(dim, 2)
        moved = gauge_transform(base, d_op)
        assert moved.is_strict()
        for _ in range(2):
            f, g, h = (rand_poly(rng, dim, maxdeg=2) for _ in range(3))
            defect = associator(moved, f, g, h, 2)
            assert all(c.is_zero for c in defect.coeffs)
        back = gauge_transform(moved, gauge_inverse(d_op))
        assert back.ops == base.ops
    report(
        9,
        "20 random gauge transforms of Moyal stay associative at order 2; "
        "round trips through the formal inverse are exact",
    )


def test_criterion_10_linear_symplectic():
    rng = random.Random(1008)

    def random_skew(m):
        mat = [[Fraction(0)] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                v = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                mat[i][j] = v
                mat[j][i] = -v
        return SkewForm(m, tuple(tuple(r) for r in mat))

    def random_subspace(m, dim):
        vecs = []
        while len(vecs) < dim:
            cand = tuple(Fraction(rng.randint(-3, 3)) for _ in range(m))
            if rank(vecs + [cand]) > len(vecs):
                vecs.append(cand)
        return Subspace(m, tuple(vecs))

    for _ in range(100):
        m = rng.randint(2, 10)
        omega = random_skew(m)
        basis_change, k, n = standard_form(omega)
        bt = mat_mul(transpose(basis_change), mat_mul(omega.matrix, basis_change))
        assert bt == canonical_block(k, n)
        assert k + 2 * n == m

    omega = SkewForm.standard(2)
    for _ in range(30):
        w = random_subspace(4, rng.randint(1, 3))
        worth = symplectic_orthogonal(omega, w)
        c = classify_subspace(omega, w)
        assert c.isotropic == w.is_subspace_of(worth)
        assert c.coisotropic == worth.is_subspace_of(w)
        assert c.lagrangian == (w == worth)
        gram = tuple(tuple(omega.pair(u, v) for v in w.basis) for u in w.basis)
        assert c.symplectic == (rank(gram) == w.dim)

    for _ in range(50):
        m = rng.choice([3, 4])
        wdim = rng.randint(0, m)
        w = random_subspace(m, wdim) if wdim else Subspace.zero(m)
        theta = random_skew(wdim).matrix if wdim else ()
        ld = dirac_from_pair(w, theta)
        udim = rng.randint(1, m)
        u = random_subspace(m, udim)
        a = restrict_dirac(ld, u)
        quotient = restrict_dirac_quotient(ld, u)
        assert len(a.basis) == len(quotient.basis) == udim
        assert a == quotient
        for x in a.basis:
            for y in a.basis:
                assert dirac_pairing(x, y, udim) == 0
    report(
        10,
        "standard form exact on 100 random skew forms (m <= 10); "
        "classification matches definitions; 50 Dirac restrictions agree "
        "between pair and quotient presentations",
    )
