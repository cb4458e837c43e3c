import itertools
import random
from fractions import Fraction

import pytest

from deformq.polyalg import (
    FormalSeries,
    Polynomial,
    PolyVector,
    format_polynomial,
    jacobiator,
    parse_polynomial,
    poisson_bracket,
    schouten,
    truncated_product,
)


def P(text, dim):
    return parse_polynomial(text, dim)


def rand_poly(rng, dim, maxdeg=2, nterms=3):
    terms = {}
    for _ in range(nterms):
        key = tuple(rng.randint(0, maxdeg) for _ in range(dim))
        if sum(key) <= maxdeg:
            terms[key] = Fraction(rng.randint(-3, 3))
    return Polynomial(dim, terms)


def rand_polyvector(rng, dim, degree, maxdeg=2):
    comps = {}
    for key in itertools.combinations(range(1, dim + 1), degree):
        if rng.random() < 0.6:
            comps[key] = rand_poly(rng, dim, maxdeg)
    return PolyVector(dim, degree, comps)


def so3_bivector():
    """{x_i, x_j} = eps_ijk x_k on R^3."""
    return PolyVector(
        3,
        2,
        {
            (1, 2): Polynomial.var(3, 3),
            (1, 3): -Polynomial.var(3, 2),
            (2, 3): Polynomial.var(3, 1),
        },
    )


def pv_is_zero(v):
    return v is None or v.is_zero


def pv_combine(*parts):
    """Sum polyvectors, dropping zero vectors whose formal degree degenerated."""
    live = [p for p in parts if not p.is_zero]
    if not live:
        return None
    out = live[0]
    for p in live[1:]:
        out = out + p
    return out


def pv_eq(a, b):
    if pv_is_zero(a) and pv_is_zero(b):
        return True
    if a is None or b is None:
        return False
    return a == b


# ---------------------------------------------------------------------------
# polynomial ring
# ---------------------------------------------------------------------------


def test_difference_of_squares():
    a = P("x1 + x2", 2)
    b = P("x1 - x2", 2)
    assert a * b == P("x1^2 - x2^2", 2)


def test_additive_identity():
    p = P("3 x1^2 x2 - 1/2 x2", 2)
    assert p + Polynomial.zero(2) == p


def test_rational_cancellation():
    a = Polynomial(2, {(2, 0): Fraction(3, 2)})
    b = Polynomial(2, {(0, 1): Fraction(2, 3)})
    assert a * b == P("x1^2 x2", 2)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        P("x1", 1) + P("x1", 2)


def test_no_zero_terms_stored():
    p = P("x1", 2) - P("x1", 2)
    assert p.terms == {}
    q = P("x1 + x2", 2) - P("x2", 2)
    assert set(q.terms) == {(1, 0)}


def test_partial_power_rule():
    assert P("x1^2 x2", 2).partial(1) == P("2 x1 x2", 2)


def test_partial_constant_in_other_variable():
    assert P("x1", 2).partial(2).is_zero


def test_partial_of_cubic():
    assert P("x1^3 - x1", 1).partial(1) == P("3 x1^2 - 1", 1)


def test_partial_index_out_of_range():
    with pytest.raises(ValueError):
        P("x1", 2).partial(3)


@pytest.mark.parametrize(
    "multi",
    [(1,), (1, 0, 0), (), (-1, 1), (0, -2)],
    ids=["short", "long", "empty", "negative-first", "negative-second"],
)
def test_partial_multi_rejects_bad_multi_index(multi):
    # a short index would build a short exponent, a negative one would
    # multiply by the variable
    with pytest.raises(ValueError):
        P("x1^2 x2", 2).partial_multi(multi)


def test_parse_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        dim = rng.randint(1, 4)
        p = rand_poly(rng, dim, maxdeg=3, nterms=4)
        assert parse_polynomial(format_polynomial(p), dim) == p


def test_parse_examples():
    p = parse_polynomial("3/2 x1^2 x3 - x2", 3)
    assert p.terms == {(2, 0, 1): Fraction(3, 2), (0, 1, 0): Fraction(-1)}
    assert parse_polynomial("0", 2).is_zero
    assert parse_polynomial("1", 2) == Polynomial.const(2, 1)
    assert parse_polynomial("-x1", 2) == -Polynomial.var(2, 1)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_polynomial("x0", 2)
    with pytest.raises(ValueError):
        parse_polynomial("y1", 2)
    with pytest.raises(ValueError):
        parse_polynomial("x3", 2)
    with pytest.raises(ValueError):
        parse_polynomial("", 2)


@pytest.mark.parametrize(
    "text", ["x1 +", "x1 -", "x1 + x2 -", "x1 + + x2", "x1 - - x2"]
)
def test_parse_rejects_a_dangling_sign(text):
    with pytest.raises(ValueError, match="dangling sign"):
        parse_polynomial(text, 2)


# ---------------------------------------------------------------------------
# Schouten bracket
# ---------------------------------------------------------------------------


def test_lie_bracket_of_vector_fields():
    X = PolyVector.basis_vector(2, 1)
    Y = PolyVector(2, 1, {(2,): Polynomial.var(2, 1)})
    assert schouten(X, Y) == PolyVector.basis_vector(2, 2)


def test_constant_bivector_self_bracket_vanishes():
    pi = PolyVector(
        3, 2, {(1, 2): Polynomial.const(3, 1), (1, 3): Polynomial.const(3, -2)}
    )
    assert schouten(pi, pi).is_zero


def brute_trivector(pi):
    """Independent expansion sum_{i,j,k,l} pi^{ij} (d_j pi^{kl}) d_i^d_k^d_l."""
    d = pi.dim
    terms = []
    for i, j, k, l in itertools.product(range(1, d + 1), repeat=4):
        coeff = pi.component((i, j)) * pi.component((k, l)).partial(j)
        if not coeff.is_zero:
            terms.append(((i, k, l), coeff))
    return PolyVector.from_terms(d, 3, terms)


def test_so3_self_bracket_vanishes_against_bruteforce():
    pi = so3_bivector()
    assert brute_trivector(pi).is_zero
    assert schouten(pi, pi).is_zero


def test_bruteforce_matches_schouten_zero_locus():
    rng = random.Random(41)
    for _ in range(30):
        pi = rand_polyvector(rng, 3, 2, maxdeg=1)
        assert brute_trivector(pi).is_zero == schouten(pi, pi).is_zero


def test_schouten_dimension_mismatch():
    with pytest.raises(ValueError):
        schouten(PolyVector.basis_vector(2, 1), PolyVector.basis_vector(3, 1))


def test_bracket_of_two_functions_is_zero_vector():
    f = PolyVector.from_function(P("x1^2", 2))
    g = PolyVector.from_function(P("x2", 2))
    out = schouten(f, g)
    assert out.degree == 0 and out.is_zero


def _lie_bracket_parts(a, p, b, q):
    """[a d_p, b d_q] = a (d_p b) d_q - b (d_q a) d_p, as (coefficient, index)."""
    parts = []
    dpb = b.partial(p)
    if not dpb.is_zero:
        parts.append((a * dpb, q))
    dqa = a.partial(q)
    if not dqa.is_zero:
        parts.append((-(b * dqa), p))
    return parts


def _bracket_function_vector(f, Y):
    """[f, Y] = -iota_Y df, contraction convention sum_j (-1)^(j-1) alpha(W_j)."""
    dim = f.dim
    terms = []
    for key, g in Y.components.items():
        for j, idx in enumerate(key):
            dfj = f.partial(idx)
            if dfj.is_zero:
                continue
            coeff = -(g * dfj)
            if j % 2 == 1:
                coeff = -coeff
            rest = key[:j] + key[j + 1 :]
            terms.append((rest, coeff))
    return PolyVector.from_terms(dim, Y.degree - 1, terms)


def _schouten_reference(X, Y):
    """The Schouten bracket by the double sum over decomposable wedges: each
    component f d_{k1} ^ ... ^ d_{km} is read as (f d_{k1}) ^ d_{k2} ^ ...,
    and pairs of factors are combined with Lie brackets; a function argument
    is handled by contraction."""
    m, n = X.degree, Y.degree
    if m == 0 and n == 0:
        return PolyVector.zero(X.dim, 0)
    if m == 0:
        return _bracket_function_vector(X.components.get((), Polynomial.zero(X.dim)), Y)
    if n == 0:
        result = _bracket_function_vector(
            Y.components.get((), Polynomial.zero(Y.dim)), X
        )
        return result if m % 2 == 0 else -result

    terms = []
    for kx, f in X.components.items():
        for ky, g in Y.components.items():
            # vector factors: V_1 = f d_{kx[0]}, V_i = d_{kx[i-1]} (i >= 2)
            for i in range(1, m + 1):
                for j in range(1, n + 1):
                    a = f if i == 1 else Polynomial.const(X.dim, 1)
                    b = g if j == 1 else Polynomial.const(Y.dim, 1)
                    outer = f if i != 1 else None
                    outer2 = g if j != 1 else None
                    for coeff, r in _lie_bracket_parts(a, kx[i - 1], b, ky[j - 1]):
                        if outer is not None:
                            coeff = coeff * outer
                        if outer2 is not None:
                            coeff = coeff * outer2
                        if (i + j) % 2 == 1:
                            coeff = -coeff
                        rest = (r,) + kx[: i - 1] + kx[i:] + ky[: j - 1] + ky[j:]
                        terms.append((rest, coeff))
    return PolyVector.from_terms(X.dim, m + n - 1, terms)


def test_schouten_matches_double_sum_reference():
    # 10 seeded pairs for every dimension 1..4 and degree pair 0..dim
    rng = random.Random(909)
    cases = 0
    for dim in range(1, 5):
        for dx, dy in itertools.product(range(dim + 1), repeat=2):
            for _ in range(10):
                X = rand_polyvector(rng, dim, dx)
                Y = rand_polyvector(rng, dim, dy)
                assert schouten(X, Y) == _schouten_reference(X, Y)
                cases += 1
    assert cases == 540


def test_schouten_sign_convention():
    # [X, f] = X(f), [f, X] = -X(f), and the Lie bracket on vector fields
    X = PolyVector(2, 1, {(1,): P("x2", 2), (2,): P("x1^2", 2)})
    Y = PolyVector(2, 1, {(1,): P("x1 x2", 2)})
    f = P("x1^2 x2", 2)
    Xf = P("x2", 2) * f.partial(1) + P("x1^2", 2) * f.partial(2)
    F = PolyVector.from_function(f)
    assert schouten(X, F) == PolyVector.from_function(Xf)
    assert schouten(F, X) == PolyVector.from_function(-Xf)
    lie = {
        k: P("x2", 2) * Y.component((k,)).partial(1)
        + P("x1^2", 2) * Y.component((k,)).partial(2)
        - P("x1 x2", 2) * X.component((k,)).partial(1)
        for k in (1, 2)
    }
    assert schouten(X, Y) == PolyVector(2, 1, {(k,): c for k, c in lie.items()})


def test_schouten_graded_antisymmetry():
    rng = random.Random(101)
    for _ in range(60):
        dim = rng.randint(2, 4)
        dx, dy = rng.randint(0, 3), rng.randint(0, 3)
        X = rand_polyvector(rng, dim, dx)
        Y = rand_polyvector(rng, dim, dy)
        sign = -((-1) ** ((dx + 1) * (dy + 1)))
        assert pv_eq(pv_combine(schouten(X, Y)), pv_combine(schouten(Y, X).scale(sign)))


def test_schouten_graded_leibniz():
    # [X, Y^Z] = [X,Y]^Z + (-1)^((|X|+1)|Y|) Y^[X,Z], the graded Leibniz
    # rule in the sign convention of schouten.
    rng = random.Random(202)
    for _ in range(60):
        dim = rng.randint(2, 4)
        dx, dy, dz = rng.randint(0, 3), rng.randint(0, 2), rng.randint(0, 2)
        X = rand_polyvector(rng, dim, dx)
        Y = rand_polyvector(rng, dim, dy)
        Z = rand_polyvector(rng, dim, dz)
        lhs = pv_combine(schouten(X, Y.wedge(Z)))
        rhs = pv_combine(
            schouten(X, Y).wedge(Z),
            Y.wedge(schouten(X, Z)).scale((-1) ** ((dx + 1) * dy)),
        )
        assert pv_eq(lhs, rhs)


def test_schouten_graded_jacobi():
    rng = random.Random(303)
    for _ in range(60):
        dim = rng.randint(2, 4)
        dx, dy, dz = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 2)
        X = rand_polyvector(rng, dim, dx)
        Y = rand_polyvector(rng, dim, dy)
        Z = rand_polyvector(rng, dim, dz)
        lhs = pv_combine(schouten(X, schouten(Y, Z)))
        rhs = pv_combine(
            schouten(schouten(X, Y), Z),
            schouten(Y, schouten(X, Z)).scale((-1) ** ((dx + 1) * (dy + 1))),
        )
        assert pv_eq(lhs, rhs)


# ---------------------------------------------------------------------------
# Poisson brackets and the jacobiator
# ---------------------------------------------------------------------------


def test_canonical_bracket_on_r2():
    pi = PolyVector(2, 2, {(1, 2): Polynomial.const(2, 1)})
    assert poisson_bracket(pi, P("x1", 2), P("x2", 2)) == Polynomial.const(2, 1)


def test_bracket_skew_symmetry():
    rng = random.Random(5)
    pi = rand_polyvector(rng, 3, 2)
    f = rand_poly(rng, 3)
    assert poisson_bracket(pi, f, f).is_zero


def test_so3_coordinate_bracket():
    assert poisson_bracket(so3_bivector(), P("x1", 3), P("x2", 3)) == P("x3", 3)


def test_poisson_bracket_requires_bivector():
    with pytest.raises(ValueError):
        poisson_bracket(PolyVector.basis_vector(2, 1), P("x1", 2), P("x2", 2))


def test_poisson_bracket_leibniz():
    rng = random.Random(6)
    for _ in range(25):
        pi = rand_polyvector(rng, 3, 2)
        f, g, h = (rand_poly(rng, 3) for _ in range(3))
        lhs = poisson_bracket(pi, f, g * h)
        rhs = poisson_bracket(pi, f, g) * h + g * poisson_bracket(pi, f, h)
        assert lhs == rhs


def test_jacobiator_constant_pi():
    pi = PolyVector(3, 2, {(1, 2): Polynomial.const(3, 5)})
    assert jacobiator(pi).is_zero


def test_any_bivector_on_r2_is_poisson():
    pi = PolyVector(2, 2, {(1, 2): P("x1", 2)})
    assert jacobiator(pi).is_zero
    rng = random.Random(8)
    for _ in range(10):
        pi = PolyVector(2, 2, {(1, 2): rand_poly(rng, 2, maxdeg=3)})
        assert jacobiator(pi).is_zero


def cyclic_sum(pi, f, g, h):
    def br(a, b):
        return poisson_bracket(pi, a, b)

    return br(br(f, g), h) + br(br(g, h), f) + br(br(h, f), g)


def test_jacobiator_biconditional_with_cyclic_sum():
    rng = random.Random(99)
    xs = [Polynomial.var(3, i) for i in (1, 2, 3)]
    for _ in range(40):
        comps = {
            key: rand_poly(rng, 3, maxdeg=1, nterms=2)
            for key in [(1, 2), (1, 3), (2, 3)]
        }
        pi = PolyVector(3, 2, comps)
        cyc_zero = all(
            cyclic_sum(pi, f, g, h).is_zero
            for f, g, h in itertools.combinations(xs, 3)
        )
        assert jacobiator(pi).is_zero == cyc_zero


def test_mixed_sign_structure_constants_satisfy_jacobi():
    # pi^12 = x3, pi^13 = x2, pi^23 = x1: cyclic sums on coordinates vanish
    pi = PolyVector(
        3,
        2,
        {
            (1, 2): Polynomial.var(3, 3),
            (1, 3): Polynomial.var(3, 2),
            (2, 3): Polynomial.var(3, 1),
        },
    )
    xs = [Polynomial.var(3, i) for i in (1, 2, 3)]
    assert cyclic_sum(pi, *xs).is_zero == jacobiator(pi).is_zero


# ---------------------------------------------------------------------------
# formal series container
# ---------------------------------------------------------------------------


def test_formal_series_shape():
    s = FormalSeries(2, (P("x1", 1), P("0", 1), P("1", 1)))
    assert s.order == 2 and len(s.coeffs) == 3
    with pytest.raises(ValueError):
        FormalSeries(2, (P("x1", 1),))


def test_formal_series_convolution():
    one = Polynomial.const(1, 1)
    x = Polynomial.var(1, 1)
    a = FormalSeries(2, (one, x, Polynomial.zero(1)))
    b = FormalSeries(2, (x, one, Polynomial.zero(1)))
    prod = truncated_product((a, b), 2, lambda p, q: p * q, Polynomial.zero(1))
    assert prod == [x, one + x * x, x]
    # list-valued terms expose the summation order: index tuples of sum r,
    # lexicographic
    for nfactors in (3, 4):
        indices = [range(3)] * nfactors
        tuples = truncated_product(indices, 2, lambda *idx: [idx], [])
        for r, got in enumerate(tuples):
            expected = [
                idx
                for idx in itertools.product(range(r + 1), repeat=nfactors)
                if sum(idx) == r
            ]
            assert got == expected
