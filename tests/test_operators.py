import itertools
import random
from fractions import Fraction

import pytest

from deformq.graphs import AdmissibleGraph, boundary
from deformq.operators import (
    MultiDiffOp,
    apply_op,
    build_b_gamma,
    compose_gerstenhaber,
    gerstenhaber_bracket,
    hkr,
    hochschild_d,
    insert,
    multiindex_splits,
)
from deformq.polyalg import Polynomial, PolyVector, parse_polynomial, poisson_bracket

b1, b2, b3 = boundary(1), boundary(2), boundary(3)


def P(text, dim):
    return parse_polynomial(text, dim)


def rand_poly(rng, dim, maxdeg=2, nterms=2):
    terms = {}
    for _ in range(nterms):
        key = tuple(rng.randint(0, maxdeg) for _ in range(dim))
        if sum(key) <= maxdeg:
            terms[key] = Fraction(rng.randint(-2, 2))
    return Polynomial(dim, terms)


def rand_op(rng, dim, arity, max_order=2, nterms=2, maxdeg=2):
    terms = {}
    for _ in range(nterms):
        key = []
        for _ in range(arity):
            deriv = [0] * dim
            for _ in range(rng.randint(0, max_order)):
                deriv[rng.randrange(dim)] += 1
            key.append(tuple(deriv))
        terms[tuple(key)] = rand_poly(rng, dim, maxdeg)
    return MultiDiffOp(dim, arity, terms)


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


def wedge_graph():
    return AdmissibleGraph(1, 2, ((b1, b2),))


# ---------------------------------------------------------------------------
# B_Gamma construction
# ---------------------------------------------------------------------------


def test_wedge_operator_is_full_range_contraction():
    pi = PolyVector(2, 2, {(1, 2): Polynomial.const(2, 1)})
    op = build_b_gamma(wedge_graph(), [pi])
    f, g = P("x1", 2), P("x2", 2)
    assert apply_op(op, [f, g]) == Polynomial.const(2, 1)
    # skew extension: both (d1 f)(d2 g) and -(d2 f)(d1 g) terms present
    assert len(op.terms) == 2


def test_wedge_matches_poisson_bracket_cross_module():
    pi = so3_bivector()
    op = build_b_gamma(wedge_graph(), [pi])
    rng = random.Random(17)
    for _ in range(10):
        f, g = rand_poly(rng, 3), rand_poly(rng, 3)
        assert apply_op(op, [f, g]) == poisson_bracket(pi, f, g)
    assert apply_op(op, [P("x1", 3), P("x2", 3)]) == P("x3", 3)


def test_first_worked_example_graph():
    # stars: 1 -> (b1, b2), 2 -> (1, 3), 3 -> (b1, b2); three bivectors
    g = AdmissibleGraph(3, 2, ((b1, b2), (1, 3), (b1, b2)))
    d = 2
    x1, x2 = Polynomial.var(d, 1), Polynomial.var(d, 2)
    xi1 = PolyVector(d, 2, {(1, 2): x1 * x2})
    xi2 = PolyVector(d, 2, {(1, 2): x1})
    xi3 = PolyVector(d, 2, {(1, 2): x2 * x2})
    op = build_b_gamma(g, [xi1, xi2, xi3])

    # oracle: direct sum over all index assignments of
    # xi2^{j1 j2} (d_{j1} xi1^{i1 i2}) (d_{j2} xi3^{l1 l2})
    #   (d_{i1} d_{l1} f) (d_{i2} d_{l2} g)
    rng = random.Random(23)
    for _ in range(5):
        f, g_arg = rand_poly(rng, d, maxdeg=3), rand_poly(rng, d, maxdeg=3)
        expected = Polynomial.zero(d)
        rng_idx = range(1, d + 1)
        for j1, j2, i1, i2, l1, l2 in itertools.product(rng_idx, repeat=6):
            c = (
                xi2.component((j1, j2))
                * xi1.component((i1, i2)).partial(j1)
                * xi3.component((l1, l2)).partial(j2)
            )
            if c.is_zero:
                continue
            expected = expected + c * f.partial(i1).partial(l1) * g_arg.partial(
                i2
            ).partial(l2)
        assert apply_op(op, [f, g_arg]) == expected


def test_second_worked_example_tridifferential():
    # stars: 1 -> (b1, b2, b3) carries the trivector, 2 -> (1, b3) the bivector
    g = AdmissibleGraph(2, 3, ((b1, b2, b3), (1, b3)))
    d = 3
    chi2 = PolyVector(
        3, 3, {(1, 2, 3): P("x1 x2", 3)}
    )  # trivector at vertex 1
    chi1 = PolyVector(3, 2, {(1, 2): P("x3", 3), (1, 3): P("x1", 3)})
    op = build_b_gamma(g, [chi2, chi1])
    rng = random.Random(29)
    for _ in range(5):
        f, g_arg, h = (rand_poly(rng, 3, maxdeg=2) for _ in range(3))
        expected = Polynomial.zero(3)
        idx = range(1, 4)
        for i1, i2, j1, j2, j3 in itertools.product(idx, repeat=5):
            c = chi1.component((i1, i2)) * chi2.component((j1, j2, j3)).partial(i1)
            if c.is_zero:
                continue
            expected = (
                expected
                + c
                * f.partial(j1)
                * g_arg.partial(j2)
                * h.partial(j3).partial(i2)
            )
        assert apply_op(op, [f, g_arg, h]) == expected


def test_parallel_edges_vanish_for_skew_tensor():
    g = AdmissibleGraph(1, 2, ((b1, b1),))
    pi = so3_bivector()
    assert build_b_gamma(g, [pi]).is_zero


def test_empty_graph_is_multiplication():
    g = AdmissibleGraph(0, 2, ())
    op = build_b_gamma(g, [], dim=2)
    assert op == MultiDiffOp.multiplication(2)


def test_build_validates_degree_and_dim():
    g = wedge_graph()
    with pytest.raises(ValueError):
        build_b_gamma(g, [PolyVector.basis_vector(2, 1)])  # degree 1 != star 2
    with pytest.raises(ValueError):
        build_b_gamma(g, [])


def test_multilinearity_in_tensor_arguments():
    rng = random.Random(47)
    d = 2
    g = AdmissibleGraph(2, 2, ((2, b1), (b1, b2)))
    for _ in range(5):
        x = PolyVector(d, 2, {(1, 2): rand_poly(rng, d)})
        y = PolyVector(d, 2, {(1, 2): rand_poly(rng, d)})
        z = PolyVector(d, 2, {(1, 2): rand_poly(rng, d)})
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        lhs = build_b_gamma(g, [x.scale(c) + y, z])
        rhs = build_b_gamma(g, [x, z]).scale(c) + build_b_gamma(g, [y, z])
        assert lhs == rhs
        lhs2 = build_b_gamma(g, [z, x.scale(c) + y])
        rhs2 = build_b_gamma(g, [z, x]).scale(c) + build_b_gamma(g, [z, y])
        assert lhs2 == rhs2


def test_equivariance_under_vertex_relabeling():
    # permuting aerial labels together with the tensors leaves results fixed
    rng = random.Random(31)
    d = 2
    for _ in range(5):
        xi_a = PolyVector(d, 2, {(1, 2): rand_poly(rng, d)})
        xi_b = PolyVector(d, 2, {(1, 2): rand_poly(rng, d)})
        g_ab = AdmissibleGraph(2, 2, ((2, b1), (b1, b2)))
        g_ba = AdmissibleGraph(2, 2, ((b1, b2), (1, b1)))  # labels 1<->2 swapped
        f, h = rand_poly(rng, d, maxdeg=3), rand_poly(rng, d, maxdeg=3)
        lhs = apply_op(build_b_gamma(g_ab, [xi_a, xi_b]), [f, h])
        rhs = apply_op(build_b_gamma(g_ba, [xi_b, xi_a]), [f, h])
        assert lhs == rhs


def test_strictness_on_units():
    one = Polynomial.const(3, 1)
    pi = so3_bivector()
    for g in [wedge_graph(), AdmissibleGraph(1, 2, ((b2, b1),))]:
        op = build_b_gamma(g, [pi])
        rng = random.Random(37)
        f = rand_poly(rng, 3)
        assert apply_op(op, [one, f]).is_zero
        assert apply_op(op, [f, one]).is_zero


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------


def test_identity_operator():
    rng = random.Random(2)
    f = rand_poly(rng, 2)
    assert apply_op(MultiDiffOp.identity(2), [f]) == f


def test_apply_arity_check():
    with pytest.raises(ValueError):
        apply_op(MultiDiffOp.identity(2), [P("x1", 2), P("x2", 2)])


# ---------------------------------------------------------------------------
# Gerstenhaber composition and bracket
# ---------------------------------------------------------------------------


def test_multiplication_self_composition_measures_associativity():
    m = MultiDiffOp.multiplication(2)
    defect = compose_gerstenhaber(m, m)
    rng = random.Random(3)
    f, g, h = (rand_poly(rng, 2) for _ in range(3))
    assert apply_op(defect, [f, g, h]).is_zero


def test_unary_composition_is_operator_composition():
    rng = random.Random(5)
    phi = rand_op(rng, 2, 1)
    psi = rand_op(rng, 2, 1)
    composed = compose_gerstenhaber(phi, psi)
    f = rand_poly(rng, 2, maxdeg=3)
    assert apply_op(composed, [f]) == apply_op(phi, [apply_op(psi, [f])])


def test_bracket_of_multiplication_with_itself():
    m = MultiDiffOp.multiplication(2)
    br = gerstenhaber_bracket(m, m)
    rng = random.Random(7)
    f, g, h = (rand_poly(rng, 2) for _ in range(3))
    # [m,m](f,g,h) = 2(m(m(f,g),h) - m(f,m(g,h))) = 0 for pointwise product
    assert apply_op(br, [f, g, h]).is_zero
    assert br.is_zero


def test_self_bracket_of_odd_operator():
    rng = random.Random(11)
    phi = rand_op(rng, 2, 2)  # degree 1, odd
    assert gerstenhaber_bracket(phi, phi) == compose_gerstenhaber(phi, phi).scale(2)


def test_graded_antisymmetry():
    rng = random.Random(13)
    for _ in range(15):
        dim = rng.choice([1, 2])
        phi = rand_op(rng, dim, rng.randint(1, 3), max_order=1, maxdeg=1)
        psi = rand_op(rng, dim, rng.randint(1, 3), max_order=1, maxdeg=1)
        m, n = phi.degree, psi.degree
        sign = -((-1) ** (m * n))
        assert gerstenhaber_bracket(phi, psi) == gerstenhaber_bracket(psi, phi).scale(
            sign
        )


def test_gerstenhaber_graded_jacobi():
    rng = random.Random(17)
    for _ in range(12):
        dim = rng.choice([1, 2])
        phi = rand_op(rng, dim, rng.randint(1, 3), max_order=1, nterms=1, maxdeg=1)
        psi = rand_op(rng, dim, rng.randint(1, 3), max_order=1, nterms=1, maxdeg=1)
        chi = rand_op(rng, dim, rng.randint(1, 3), max_order=1, nterms=1, maxdeg=1)
        m, n = phi.degree, psi.degree
        lhs = gerstenhaber_bracket(phi, gerstenhaber_bracket(psi, chi))
        rhs = gerstenhaber_bracket(gerstenhaber_bracket(phi, psi), chi) + (
            gerstenhaber_bracket(psi, gerstenhaber_bracket(phi, chi)).scale(
                (-1) ** (m * n)
            )
        )
        assert lhs == rhs


def test_bracket_with_multiplication_is_hochschild():
    rng = random.Random(19)
    for arity in (1, 2, 3):
        psi = rand_op(rng, 2, arity)
        m = MultiDiffOp.multiplication(2)
        assert gerstenhaber_bracket(m, psi) == hochschild_d(psi)


# ---------------------------------------------------------------------------
# Hochschild differential
# ---------------------------------------------------------------------------


def test_hochschild_squares_to_zero():
    rng = random.Random(23)
    for _ in range(15):
        dim = rng.choice([2, 3])
        psi = rand_op(rng, dim, rng.randint(1, 3), max_order=2, maxdeg=2)
        assert hochschild_d(hochschild_d(psi)).is_zero


def test_hochschild_of_identity_is_multiplication():
    # direct expansion: (d id)(f,g) = f id(g) - id(fg) + id(f) g = fg, i.e.
    # the identity operator is not a cocycle; its differential is m itself
    out = hochschild_d(MultiDiffOp.identity(2))
    assert out == MultiDiffOp.multiplication(2)
    rng = random.Random(29)
    f, g = rand_poly(rng, 2), rand_poly(rng, 2)
    direct = f * g - (f * g) + f * g
    assert apply_op(out, [f, g]) == direct


def test_constant_wedge_operator_is_cocycle():
    pi = PolyVector(3, 2, {(1, 2): Polynomial.const(3, 2), (2, 3): Polynomial.const(3, -1)})
    op = build_b_gamma(wedge_graph(), [pi])
    assert hochschild_d(op).is_zero


def test_derivation_is_cocycle():
    # first-order operators that vanish on constants are derivations
    X = MultiDiffOp(
        2,
        1,
        {((1, 0),): P("x2", 2), ((0, 1),): P("x1^2", 2)},
    )
    assert hochschild_d(X).is_zero


# ---------------------------------------------------------------------------
# HKR map
# ---------------------------------------------------------------------------


def test_hkr_on_constant_bivector():
    xi = PolyVector(2, 2, {(1, 2): Polynomial.const(2, 1)})
    op = hkr(xi)
    f, g = P("x1", 2), P("x2", 2)
    # (1/2)(d1 f d2 g - d2 f d1 g)
    assert apply_op(op, [f, g]) == Polynomial.const(2, Fraction(1, 2))


def test_hkr_on_vector_field_is_the_field():
    X = PolyVector(2, 1, {(1,): P("x2", 2), (2,): P("x1", 2)})
    op = hkr(X)
    rng = random.Random(31)
    f = rand_poly(rng, 2, maxdeg=3)
    assert apply_op(op, [f]) == P("x2", 2) * f.partial(1) + P("x1", 2) * f.partial(2)


def test_hkr_degree_zero_is_multiplication_by_function():
    f = P("x1 x2", 2)
    op = hkr(PolyVector.from_function(f))
    g = P("x1 - x2", 2)
    assert apply_op(op, [g]) == f * g


def test_hkr_is_hochschild_closed():
    rng = random.Random(37)
    for _ in range(10):
        dim = rng.choice([2, 3])
        degree = rng.randint(1, 3)
        comps = {}
        for key in itertools.combinations(range(1, dim + 1), degree):
            comps[key] = rand_poly(rng, dim)
        xi = PolyVector(dim, degree, comps)
        assert hochschild_d(hkr(xi)).is_zero


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def test_multiindex_splits_leibniz_count():
    # splitting (2, 1) into 2 parts: multinomials sum to 2^2 * 2^1
    total = sum(c for _, c in multiindex_splits((2, 1), 2))
    assert total == 8
    for pieces, _ in multiindex_splits((2, 1), 2):
        assert tuple(a + b for a, b in zip(*pieces)) == (2, 1)


def test_insert_slot_bounds():
    m = MultiDiffOp.multiplication(2)
    with pytest.raises(ValueError):
        insert(m, 2, MultiDiffOp.identity(2))
