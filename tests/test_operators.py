import itertools
import random
from fractions import Fraction

import pytest

from deformq import starprod
from deformq.graphs import (
    AdmissibleGraph,
    boundary,
    enumerate_graphs,
    is_boundary,
    orbit,
)
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
from deformq.polyalg import (
    Polynomial,
    PolyVector,
    jacobiator,
    parse_polynomial,
    poisson_bracket,
)
from deformq.starprod import graph_operators

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
# B_Gamma kernel against the per-assignment reference
# ---------------------------------------------------------------------------


def _b_gamma_reference(g, xs, d):
    """B_Gamma by the defining sum, one edge-index assignment at a time: the
    skew component of each vertex is looked up and differentiated one
    partial at a time, and the products are summed per boundary key."""
    edges = g.edges()
    zero_idx = (0,) * d
    terms = {}
    incoming = {v: [] for v in range(1, g.n + 1)}
    edge_positions_per_vertex = []
    pos = 0
    for v in range(1, g.n + 1):
        k = len(g.stars[v - 1])
        edge_positions_per_vertex.append(list(range(pos, pos + k)))
        pos += k

    for assign in itertools.product(range(1, d + 1), repeat=len(edges)):
        # tensor components per vertex, with skew sign extension
        bases = []
        ok = True
        for v in range(1, g.n + 1):
            idx = tuple(assign[p] for p in edge_positions_per_vertex[v - 1])
            base = xs[v - 1].component(idx)
            if base.is_zero:
                ok = False
                break
            bases.append(base)
        if not ok:
            continue
        # incoming derivatives on aerial coefficients and boundary slots
        for v in incoming:
            incoming[v].clear()
        bnd = [list(zero_idx) for _ in range(g.nbar)]
        for (src, tgt), i_e in zip(edges, assign):
            if is_boundary(tgt):
                bnd[-tgt - 1][i_e - 1] += 1
            else:
                incoming[tgt].append(i_e)
        coeff = Polynomial.const(d, 1)
        for v in range(1, g.n + 1):
            base = bases[v - 1]
            for i_e in incoming[v]:
                base = base.partial(i_e)
                if base.is_zero:
                    ok = False
                    break
            if not ok:
                break
            coeff = coeff * base
        if not ok:
            continue
        key = tuple(tuple(b) for b in bnd)
        terms[key] = terms[key] + coeff if key in terms else coeff
    return MultiDiffOp(d, g.nbar, terms)


def _reference_operators(pi, graphs):
    out = []
    for g in graphs:
        op = _b_gamma_reference(g, [pi] * g.n, pi.dim)
        if not op.is_zero:
            out.append((g, op))
    return out


def nambu_cubic_bivector():
    # pi^{ij} = eps^{ijk} d_k C for the cubic Casimir C = x1^3 + x1 x2 x3 - x3^3
    casimir = P("x1^3 + x1 x2 x3 - x3^3", 3)
    d1, d2, d3 = (casimir.partial(k) for k in (1, 2, 3))
    return PolyVector(3, 2, {(1, 2): d3, (1, 3): -d2, (2, 3): d1})


STRUCTURES = {
    "so3": so3_bivector(),
    "nambu-cubic": nambu_cubic_bivector(),
    "plane-quadratic": PolyVector(2, 2, {(1, 2): P("x1^2 - 2 x1 x2 + 3/2 x2", 2)}),
    "const4": PolyVector(
        4,
        2,
        {
            (1, 2): P("1", 4),
            (1, 4): P("-2", 4),
            (2, 3): P("1/2", 4),
            (3, 4): P("3", 4),
        },
    ),
}


@pytest.mark.parametrize("name", sorted(STRUCTURES))
@pytest.mark.parametrize("n", [1, 2])
def test_graph_operators_match_reference(name, n):
    pi = STRUCTURES[name]
    assert jacobiator(pi).is_zero
    graphs = enumerate_graphs(n, 2)
    assert graph_operators(pi, n) == _reference_operators(pi, graphs)


def test_order_three_graph_operators_match_reference():
    # 100 seeded order-3 graphs, 50 on each structure
    rng = random.Random(3)
    for pi in (so3_bivector(), STRUCTURES["plane-quadratic"]):
        ops = dict(graph_operators(pi, 3))
        for g in rng.sample(enumerate_graphs(3, 2), 50):
            ref = _b_gamma_reference(g, [pi] * 3, pi.dim)
            assert ops.get(g, MultiDiffOp.zero(pi.dim, 2)) == ref


def test_orbit_sign_law():
    pi = STRUCTURES["nambu-cubic"]
    g = AdmissibleGraph(2, 2, ((2, b1), (b1, b2)))
    op = build_b_gamma(g, [pi, pi])
    assert not op.is_zero
    relabelled = AdmissibleGraph(2, 2, ((b1, b2), (1, b1)))
    assert build_b_gamma(relabelled, [pi, pi]) == op
    one_swap = AdmissibleGraph(2, 2, ((b1, 2), (b1, b2)))
    assert build_b_gamma(one_swap, [pi, pi]) == -op
    two_swaps = AdmissibleGraph(2, 2, ((b1, 2), (b2, b1)))
    assert build_b_gamma(two_swaps, [pi, pi]) == op
    rep = orbit(g)[0]
    for member, sign in [(g, 1), (relabelled, 1), (one_swap, -1), (two_swaps, 1)]:
        member_op = op if sign > 0 else -op
        member_rep, rep_sign = orbit(member)
        assert member_rep == rep
        assert build_b_gamma(rep, [pi, pi]) == (member_op if rep_sign > 0 else -member_op)


def test_classes_with_an_odd_symmetry_are_never_built(monkeypatch):
    # a graph with a symmetry of sign -1 has B = -B = 0, so orbit sign 0
    # classes are skipped: 38 operators built at order 3, not 44
    odd = {rep for rep, sign in map(orbit, enumerate_graphs(3, 2)) if sign == 0}
    assert odd
    pi = STRUCTURES["plane-quadratic"]
    for structure in (so3_bivector(), pi):
        for rep in odd:
            assert build_b_gamma(rep, [structure] * 3).is_zero
    calls = []

    def counting(g, xs, dim=None):
        calls.append(g)
        return build_b_gamma(g, xs, dim=dim)

    monkeypatch.setattr(starprod, "build_b_gamma", counting)
    graph_operators(pi, 3)
    assert len(calls) == 38
    assert not odd & set(calls)


def test_build_b_gamma_distinct_tensors_of_mixed_degree():
    rng = random.Random(41)
    d = 3
    g = AdmissibleGraph(3, 2, ((b1, 3, b2), (1,), (2, b2)))
    for _ in range(3):
        tri = PolyVector(d, 3, {(1, 2, 3): rand_poly(rng, d, maxdeg=3)})
        vec = PolyVector(
            d, 1, {(i,): rand_poly(rng, d, maxdeg=2) for i in (1, 2, 3)}
        )
        biv = PolyVector(
            d, 2, {ij: rand_poly(rng, d) for ij in ((1, 2), (1, 3), (2, 3))}
        )
        xs = [tri, vec, biv]
        assert build_b_gamma(g, xs) == _b_gamma_reference(g, xs, d)
    f = PolyVector.from_function(P("x1^2 x2 + x3", d))
    g0 = AdmissibleGraph(2, 2, ((b1, 2), ()))
    xs = [so3_bivector(), f]
    assert build_b_gamma(g0, xs) == _b_gamma_reference(g0, xs, d)


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


# ---------------------------------------------------------------------------
# insertion kernel against the Polynomial-level reference
# ---------------------------------------------------------------------------


def _insert_reference(phi, i, psi):
    """phi o_i psi by the defining Leibniz sum on Polynomial objects: each
    split of phi's slot-i derivative differentiates psi's coefficient and
    adds to psi's slots, and the products are summed per term key."""
    out_arity = phi.arity + psi.arity - 1
    terms = {}
    for pkey, pcoeff in phi.terms.items():
        splits = list(multiindex_splits(pkey[i], psi.arity + 1))
        for qkey, qcoeff in psi.terms.items():
            for pieces, mult in splits:
                dcoeff = qcoeff.partial_multi(pieces[0])
                if dcoeff.is_zero:
                    continue
                coeff = pcoeff * dcoeff
                if mult != 1:
                    coeff = coeff.scale(mult)
                inner = tuple(
                    tuple(a + b for a, b in zip(qk, piece))
                    for qk, piece in zip(qkey, pieces[1:])
                )
                key = pkey[:i] + inner + pkey[i + 1 :]
                terms[key] = terms[key] + coeff if key in terms else coeff
    return MultiDiffOp(phi.dim, out_arity, terms)


def test_insert_matches_reference_on_random_operators():
    rng = random.Random(83)
    nonconstant = 0
    for _ in range(40):
        dim = rng.choice([2, 3])
        phi = rand_op(rng, dim, rng.randint(1, 3), max_order=3, nterms=3)
        psi = rand_op(rng, dim, rng.randint(1, 3), max_order=2, nterms=3, maxdeg=3)
        nonconstant += any(
            not c.is_constant() for op in (phi, psi) for c in op.terms.values()
        )
        for i in range(phi.arity):
            assert insert(phi, i, psi) == _insert_reference(phi, i, psi)
    assert nonconstant >= 30


def test_compose_gerstenhaber_matches_signed_reference_insertions():
    rng = random.Random(89)
    for _ in range(20):
        dim = rng.choice([2, 3])
        phi = rand_op(rng, dim, rng.randint(1, 3), nterms=3)
        psi = rand_op(rng, dim, rng.randint(1, 3), nterms=3)
        expected = MultiDiffOp.zero(dim, phi.arity + psi.arity - 1)
        for i in range(phi.arity):
            piece = _insert_reference(phi, i, psi)
            expected = expected - piece if i * psi.degree % 2 else expected + piece
        assert compose_gerstenhaber(phi, psi) == expected
