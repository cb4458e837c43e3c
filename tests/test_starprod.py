import itertools
import random
import warnings
from fractions import Fraction

import pytest

from deformq.closedform import (
    GaugeOperator,
    gauge_inverse,
    gauge_transform,
    moyal,
    moyal_series,
    moyal_via_wick,
    wick_pairings,
)
from deformq.graphs import orbit, parse_id
from deformq.operators import (
    MultiDiffOp,
    apply_op,
    build_b_gamma,
    hkr,
    insert,
    linear_combination,
)
from deformq.polyalg import (
    FormalSeries,
    Polynomial,
    PolyVector,
    jacobiator,
    parse_polynomial,
    poisson_bracket,
)
from deformq.starprod import (
    MissingWeightError,
    StarSeries,
    associator,
    associator_bound,
    band_weights,
    class_rows,
    contains_zero,
    first_order_antisym,
    kontsevich_star,
    kontsevich_star_series,
    lift,
    operator_associator,
    point_weights,
    star_apply,
)
from deformq.weights import WeightTable, WeightEstimate


def P(text, dim):
    return parse_polynomial(text, dim)


def rand_poly(rng, dim, maxdeg=3, nterms=3):
    terms = {}
    for _ in range(nterms):
        key = tuple(rng.randint(0, maxdeg) for _ in range(dim))
        if sum(key) <= maxdeg:
            terms[key] = Fraction(rng.randint(-3, 3))
    return Polynomial(dim, terms)


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


PI0 = PolyVector(2, 2, {(1, 2): Polynomial.const(2, 1)})


# ---------------------------------------------------------------------------
# Moyal product
# ---------------------------------------------------------------------------


def test_moyal_coordinates():
    s = moyal(PI0, P("x1", 2), P("x2", 2), 2)
    assert [str(c) for c in s.coeffs] == ["x1 x2", "1", "0"]


def test_moyal_unit_axiom():
    g = P("x2^2 + x1", 2)
    s = moyal(PI0, Polynomial.const(2, 1), g, 3)
    assert s.coeffs[0] == g
    assert all(c.is_zero for c in s.coeffs[1:])
    s2 = moyal(PI0, g, Polynomial.const(2, 1), 3)
    assert s2.coeffs[0] == g
    assert all(c.is_zero for c in s2.coeffs[1:])


def test_moyal_squares():
    s = moyal(PI0, P("x1^2", 2), P("x2^2", 2), 2)
    assert [str(c) for c in s.coeffs] == ["x1^2 x2^2", "4 x1 x2", "2"]


def test_moyal_rejects_nonconstant():
    with pytest.raises(ValueError):
        moyal(so3_bivector(), P("x1", 3), P("x2", 3), 1)


def test_moyal_associative_order_four():
    rng = random.Random(7)
    for _ in range(8):
        dim = rng.randint(1, 4)
        pi = rand_const_bivector(rng, dim)
        series = moyal_series(pi, 4)
        f, g, h = (rand_poly(rng, dim) for _ in range(3))
        defect = associator(series, f, g, h, 4)
        assert all(c.is_zero for c in defect.coeffs)


def test_moyal_first_order_antisym_recovers_pi():
    assert first_order_antisym(moyal_series(PI0, 2)) == PI0
    # P = sum_{i,j} pi^{ij} d_i (x) d_j over the full skew range
    one = Polynomial.const(2, 1)
    assert moyal_series(PI0, 1).ops[1] == MultiDiffOp(
        2, 2, {((1, 0), (0, 1)): one, ((0, 1), (1, 0)): -one}
    )


# ---------------------------------------------------------------------------
# Wick pairings and oracle
# ---------------------------------------------------------------------------


def test_pairing_counts():
    assert len(wick_pairings(1)) == 1
    assert len(wick_pairings(2)) == 3
    assert len(wick_pairings(4)) == 105


def test_pairings_satisfy_ordering_conditions():
    for s in range(1, 5):
        seen = set()
        for pairing in wick_pairings(s):
            flat = [x for pair in pairing for x in pair]
            assert sorted(flat) == list(range(1, 2 * s + 1))
            for a, b in pairing:
                assert a < b
            firsts = [pair[0] for pair in pairing]
            assert firsts == sorted(firsts)
            seen.add(pairing)
        assert len(seen) == len(wick_pairings(s))


def test_pairing_count_matches_symmetric_group_filter():
    # brute force: permutations with sigma(2i-1) < sigma(2i) and increasing
    # odd positions; (2s-1)!! of them
    for s, expected in ((3, 15), (4, 105)):
        count = 0
        for perm in itertools.permutations(range(1, 2 * s + 1)):
            if all(perm[2 * i] < perm[2 * i + 1] for i in range(s)) and all(
                perm[2 * i] < perm[2 * i + 2] for i in range(s - 1)
            ):
                count += 1
        assert count == len(wick_pairings(s)) == expected


def test_wick_agrees_with_moyal():
    rng = random.Random(12)
    for _ in range(10):
        dim = rng.randint(1, 4)
        pi = rand_const_bivector(rng, dim)
        f, g = rand_poly(rng, dim), rand_poly(rng, dim)
        assert moyal(pi, f, g, 3).coeffs == moyal_via_wick(pi, f, g, 3).coeffs


def test_wick_with_constant_argument():
    s = moyal_via_wick(PI0, Polynomial.const(2, 5), P("x1 x2", 2), 2)
    assert str(s.coeffs[0]) == "5 x1 x2"
    assert all(c.is_zero for c in s.coeffs[1:])


def test_wick_order_one_structure():
    # single contraction: coefficient of h is exactly pi(df, dg)
    rng = random.Random(13)
    pi = rand_const_bivector(rng, 3)
    f, g = rand_poly(rng, 3), rand_poly(rng, 3)
    s = moyal_via_wick(pi, f, g, 1)
    assert s.coeffs[1] == poisson_bracket(pi, f, g)


def test_unbalanced_insertions_vanish_by_normal_ordering():
    # oracle integrity: with r != s fields at the two points, every pairing
    # contains a same-point pair, and theta(0) = 0 kills it
    from deformq.closedform import _theta

    assert _theta(Fraction(0)) == 0
    u, v = Fraction(0), Fraction(1)
    pi = PI0
    fields = [(u, 1), (u, 2), (u, 1), (v, 2)]  # r=3, s=1

    def propagator(t1, a, t2, b):
        return _theta(t2 - t1) * pi.component((a, b)).constant_term() + _theta(
            t1 - t2
        ) * pi.component((b, a)).constant_term()

    total = Fraction(0)
    for pairing in wick_pairings(2):
        prod = Fraction(1)
        for p, q in pairing:
            t1, a = fields[p - 1]
            t2, b = fields[q - 1]
            prod *= propagator(t1, a, t2, b)
        total += prod
    assert total == 0


# ---------------------------------------------------------------------------
# graph-assembled star product
# ---------------------------------------------------------------------------


def test_kontsevich_order_one_is_poisson_bracket(weight_table):
    pi = so3_bivector()
    for i, j in [(1, 2), (1, 3), (2, 3)]:
        f, g = Polynomial.var(3, i), Polynomial.var(3, j)
        s = kontsevich_star(pi, f, g, 1, weight_table)
        assert s.coeffs[0] == f * g
        assert s.coeffs[1] == poisson_bracket(pi, f, g)


def test_kontsevich_zero_pi_is_pointwise(weight_table):
    pi = PolyVector(2, 2, {})
    f, g = P("x1 + x2", 2), P("x1 x2", 2)
    s = kontsevich_star(pi, f, g, 2, weight_table)
    assert s.coeffs[0] == f * g
    assert all(c.is_zero for c in s.coeffs[1:])


def test_kontsevich_matches_moyal_at_order_two(weight_table):
    rng = random.Random(21)
    for _ in range(5):
        dim = rng.randint(2, 3)
        pi = rand_const_bivector(rng, dim)
        f, g = rand_poly(rng, dim), rand_poly(rng, dim)
        km = kontsevich_star(pi, f, g, 2, weight_table)
        assert km.coeffs == moyal(pi, f, g, 2).coeffs


def test_kontsevich_unit_axiom(weight_table):
    pi = so3_bivector()
    one = Polynomial.const(3, 1)
    f = P("x1 x3^2 - x2", 3)
    s = kontsevich_star(pi, one, f, 2, weight_table)
    assert s.coeffs[0] == f and all(c.is_zero for c in s.coeffs[1:])
    s = kontsevich_star(pi, f, one, 2, weight_table)
    assert s.coeffs[0] == f and all(c.is_zero for c in s.coeffs[1:])


def test_kontsevich_first_order_antisym(weight_table):
    pi = so3_bivector()
    assert first_order_antisym(kontsevich_star_series(pi, 2, weight_table)) == pi


def test_kontsevich_order_two_associativity_so3(weight_table):
    pi = so3_bivector()
    series = kontsevich_star_series(pi, 2, weight_table)
    assert series.is_strict()
    xs = [Polynomial.var(3, i) for i in (1, 2, 3)]
    for f, g, h in itertools.product(xs, repeat=3):
        defect = associator(series, f, g, h, 2)
        assert all(c.is_zero for c in defect.coeffs)


def test_kontsevich_order_two_associativity_other_linear(weight_table):
    heisenberg = PolyVector(3, 2, {(1, 2): Polynomial.var(3, 3)})
    mixed_signs = PolyVector(
        3,
        2,
        {
            (1, 2): Polynomial.var(3, 3),
            (1, 3): Polynomial.var(3, 2),
            (2, 3): Polynomial.var(3, 1),
        },
    )
    from deformq.polyalg import jacobiator

    xs = [Polynomial.var(3, i) for i in (1, 2, 3)]
    for pi in (heisenberg, mixed_signs):
        assert jacobiator(pi).is_zero
        series = kontsevich_star_series(pi, 2, weight_table)
        for f, g, h in itertools.product(xs, repeat=3):
            defect = associator(series, f, g, h, 2)
            assert all(c.is_zero for c in defect.coeffs)


def test_kontsevich_order_two_associativity_quadratic(weight_table):
    # any bivector on R^2 is Poisson; quadratic coefficients exercise the
    # x-dependent internal-edge contributions
    pi = PolyVector(2, 2, {(1, 2): P("x1 x2 + x1^2", 2)})
    series = kontsevich_star_series(pi, 2, weight_table)
    xs = [Polynomial.var(2, 1), Polynomial.var(2, 2)]
    args = xs + [xs[0] * xs[1]]
    for f, g, h in itertools.product(args, repeat=3):
        defect = associator(series, f, g, h, 2)
        assert all(c.is_zero for c in defect.coeffs)


def test_kontsevich_rejects_high_order(weight_table):
    with pytest.raises(ValueError):
        kontsevich_star_series(so3_bivector(), 4, weight_table)


def test_kontsevich_missing_weight_raises():
    with pytest.raises(MissingWeightError):
        kontsevich_star_series(so3_bivector(), 1, WeightTable())


def test_kontsevich_warns_on_non_poisson():
    bad = PolyVector(
        3,
        2,
        {
            (1, 2): Polynomial.var(3, 1),
            (1, 3): Polynomial.var(3, 3),
            (2, 3): Polynomial.var(3, 2),
        },
    )
    from deformq.polyalg import jacobiator

    assert not jacobiator(bad).is_zero
    table = WeightTable()
    with pytest.warns(UserWarning):
        with pytest.raises(MissingWeightError):
            kontsevich_star_series(bad, 1, table)


def _bound(pi, order, weight):
    return associator_bound([class_rows(pi, n, weight) for n in range(order + 1)])


def _raw_table(weight_table):
    """weight_table with the snaps of its Monte-Carlo entries stripped."""
    raw = WeightTable()
    for gid, e in weight_table.entries.items():
        raw.put(
            WeightEstimate(gid, e.mean, e.stderr, e.samples, e.seed),
            None if e.stderr > 0 else e.snapped,
        )
    return raw


def test_interval_propagation_with_raw_weights(weight_table):
    # strip the snaps: every weight becomes its 3-sigma band; the associator
    # bound must still admit zero, on (x1, x2, x3) and as an operator identity
    raw = _raw_table(weight_table)
    pi = so3_bivector()
    xs = [Polynomial.var(3, i) for i in (1, 2, 3)]
    bound = _bound(pi, 2, band_weights(raw))
    assert any(not radius.is_zero for _, radius in bound)
    for center, radius in bound:
        assert contains_zero(apply_op(center, xs), apply_op(radius, xs))
        assert contains_zero(center, radius)


def _associator_bound_reference(rows):
    """associator_bound pair by pair on MultiDiffOp objects: D(a, b) as
    insert(a, 0, b) - insert(a, 1, b), its absolute value coefficient by
    coefficient, and one linear_combination each for C_r and R_r."""

    def abs_op(op):
        return MultiDiffOp(
            op.dim,
            op.arity,
            {
                key: Polynomial(op.dim, {e: abs(c) for e, c in p.terms.items()})
                for key, p in op.terms.items()
            },
        )

    dim = rows[0][0][1].dim
    out = []
    for r in range(len(rows)):
        terms = []
        for i in range(r + 1):
            for (ca, ra), a in rows[i]:
                for (cb, rb), b in rows[r - i]:
                    radius = abs(ca) * rb + abs(cb) * ra + ra * rb
                    terms.append((ca * cb, radius, insert(a, 0, b) - insert(a, 1, b)))
        out.append(
            (
                linear_combination(((c, d) for c, _, d in terms), dim, 3),
                linear_combination(((w, abs_op(d)) for _, w, d in terms), dim, 3),
            )
        )
    return out


def test_associator_bound_matches_pairwise_reference(weight_table):
    # raw 3-sigma bands for every Monte-Carlo weight, so most class pairs
    # carry a radius; then the snapped table, where none does
    raw = _raw_table(weight_table)
    pi = so3_bivector()
    for weight, banded in ((band_weights(raw), True), (point_weights(weight_table), False)):
        rows = [class_rows(pi, n, weight) for n in range(3)]
        bound = associator_bound(rows)
        assert bound == _associator_bound_reference(rows)
        assert any(not radius.is_zero for _, radius in bound) == banded


def test_associator_bound_encloses_every_weight_choice(weight_table):
    # widen each so(3) class weight w to w +- |w| (the multiplication stays
    # a point); the defect of the series built from any choice of weights in
    # those intervals lies within C +- R
    pi = so3_bivector()
    rows = [
        [((w, abs(w) if n else r), op) for (w, r), op in class_rows(pi, n, weights)]
        for n, weights in enumerate([point_weights(weight_table)] * 3)
    ]
    bound = associator_bound(rows)
    rng = random.Random(61)
    for corner in [-1, 1] + [None] * 6:
        ops = []
        for row in rows:
            sides = [corner or rng.choice([-1, 0, 1]) for _ in row]
            pairs = [(w + s * r, op) for s, ((w, r), op) in zip(sides, row)]
            ops.append(linear_combination(pairs, 3, 2))
        defect = operator_associator(StarSeries(2, tuple(ops)))
        for (center, radius), d in zip(bound, defect):
            assert contains_zero(d - center, radius)


def _nambu_bivector():
    # pi^{ij} = eps^{ijk} d_k C is Poisson for every Casimir C
    casimir = P("x1^2 x2 - 2 x2 x3 + 1/2 x3^3", 3)
    d = [casimir.partial(k) for k in (1, 2, 3)]
    return PolyVector(3, 2, {(1, 2): d[2], (1, 3): -d[1], (2, 3): d[0]})


def test_interval_zero_widths_match_exact_path(weight_table):
    # all weights snapped: the radius vanishes and the center is the exact
    # operator defect of the assembled series, zero for a Poisson structure
    structures = [
        so3_bivector(),
        _nambu_bivector(),
        PolyVector(2, 2, {(1, 2): P("x1^2 - 3 x1 x2 + x2", 2)}),
        rand_const_bivector(random.Random(7), 4),
    ]
    for pi in structures:
        bound = _bound(pi, 2, point_weights(weight_table))
        exact = operator_associator(kontsevich_star_series(pi, 2, weight_table))
        assert len(bound) == len(exact) == 3
        for (center, radius), defect in zip(bound, exact):
            assert radius.is_zero
            assert center == defect
            assert center.is_zero


def _rand_quadratic_bivector(rng, dim):
    """Two random terms of degree <= 2 in each component."""
    monomials = [e for e in itertools.product(range(3), repeat=dim) if sum(e) <= 2]
    comps = {}
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            comps[(i, j)] = Polynomial(
                dim,
                {
                    key: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))
                    for key in rng.sample(monomials, 2)
                },
            )
    return PolyVector(dim, 2, comps)


def test_order_two_associator_is_minus_two_hkr_jacobiator(weight_table):
    # for any bivector, not only a Poisson one, the associator of the graph
    # series is a graph expression in [pi, pi]; at h^2 it is -2 hkr([pi, pi])
    # in this package's normalizations (see starprod's module docstring)
    rng = random.Random(67)
    for dim in (3, 3, 3, 3, 4, 4, 4, 4):
        pi = _rand_quadratic_bivector(rng, dim)
        jac = jacobiator(pi)
        assert not jac.is_zero
        with pytest.warns(UserWarning, match="not Poisson"):
            series = kontsevich_star_series(pi, 2, weight_table)
        defect = operator_associator(series)
        assert defect[0].is_zero and defect[1].is_zero
        assert defect[2] == hkr(jac).scale(-2)


def test_class_rows_name_every_missing_graph():
    with pytest.raises(MissingWeightError) as info:
        class_rows(so3_bivector(), 1, point_weights(WeightTable()))
    assert "1;2;[b1,b2]" in str(info.value) and "1;2;[b2,b1]" in str(info.value)


def test_orbit_cache_holds_an_order_three_assembly():
    # the 1 728 order-3 graphs are scanned once: a second assembly in the
    # same process finds every scan in graphs.orbit's cache
    from deformq.starprod import _class_operators

    pi = PolyVector(2, 2, {(1, 2): P("x1^2 + 2 x1 x2 + 3 x2^2", 2)})
    orbit.cache_clear()
    _class_operators(pi, 3)
    first = orbit.cache_info()
    _class_operators(pi, 3)
    second = orbit.cache_info()
    assert (first.hits, first.misses) == (0, 1728)
    assert (second.hits, second.misses) == (1728, 1728)


# ---------------------------------------------------------------------------
# operator-level Maurer-Cartan equation
# ---------------------------------------------------------------------------


def _maurer_cartan_defect(series: StarSeries, r: int) -> MultiDiffOp:
    """Order-r coefficient of d_m B + (1/2)[B, B]_G for B = sum h^i B_i."""
    from deformq.operators import gerstenhaber_bracket, hochschild_d

    dim = series.dim
    acc = hochschild_d(series.ops[r])
    for i in range(1, r):
        j = r - i
        half = gerstenhaber_bracket(series.ops[i], series.ops[j]).scale(
            Fraction(1, 2)
        )
        acc = acc + half
    return acc


def test_maurer_cartan_equals_associativity_defect(weight_table):
    # both sides computed independently and compared, then both vanish for
    # genuinely associative series
    rng = random.Random(53)
    series_list = [
        moyal_series(rand_const_bivector(rng, 2), 2),
        kontsevich_star_series(so3_bivector(), 2, weight_table),
    ]
    for series in series_list:
        defect = operator_associator(series)
        assert defect[0].is_zero
        for r in (1, 2):
            mc = _maurer_cartan_defect(series, r)
            assert defect[r] == mc
            assert mc.is_zero
    # a non-associative truncation shows the same nonzero defect both ways
    dim = 2
    b1 = MultiDiffOp(dim, 2, {((2, 0), (0, 1)): Polynomial.const(dim, 1)})
    bad = StarSeries(1, (MultiDiffOp.multiplication(dim), b1))
    assert operator_associator(bad)[1] == _maurer_cartan_defect(bad, 1)
    assert not _maurer_cartan_defect(bad, 1).is_zero


def test_operator_associator_matches_argument_associator(weight_table):
    # the operator defect applied to (f, g, h) is the per-argument associator,
    # on associative series and on the non-strict counterexample alike
    rng = random.Random(59)
    gauged = gauge_transform(
        moyal_series(rand_const_bivector(rng, 2), 2), rand_gauge(rng, 2, 2)
    )
    non_strict = StarSeries(
        1,
        (
            MultiDiffOp.multiplication(2),
            MultiDiffOp(2, 2, {((2, 0), (0, 0)): Polynomial.const(2, 1)}),
        ),
    )
    series_list = [
        moyal_series(rand_const_bivector(rng, dim), order)
        for dim, order in ((1, 1), (2, 2), (3, 2))
    ]
    series_list += [
        kontsevich_star_series(so3_bivector(), 2, weight_table),
        gauged,
        non_strict,
    ]
    for series in series_list:
        defect = operator_associator(series)
        assert len(defect) == series.order + 1
        for _ in range(3):
            fgh = [rand_poly(rng, series.dim) for _ in range(3)]
            expected = associator(series, *fgh, series.order)
            assert [apply_op(op, fgh) for op in defect] == list(expected.coeffs)
    assert not operator_associator(non_strict)[1].is_zero


def test_orientation_weight_operator_product_invariance(weight_table):
    # swapping the two edges of a star negates both the weight and the
    # operator; the weighted contribution is unchanged
    from deformq.graphs import parse_id
    from deformq.operators import build_b_gamma

    pi = so3_bivector()
    ga = parse_id("1;2;[b1,b2]")
    gb = parse_id("1;2;[b2,b1]")
    wa = weight_table.exact("1;2;[b1,b2]")
    wb = weight_table.exact("1;2;[b2,b1]")
    assert wa == -wb == Fraction(1, 2)
    contrib_a = build_b_gamma(ga, [pi]).scale(wa)
    contrib_b = build_b_gamma(gb, [pi]).scale(wb)
    assert contrib_a == contrib_b


# ---------------------------------------------------------------------------
# strictness counterexample
# ---------------------------------------------------------------------------


def test_non_strict_first_term_breaks_associativity():
    # note B_1(f,g) = fg would NOT witness: the multiplication is its own
    # Hochschild cocycle, so that deformation stays associative at order 1
    # (it only breaks the unit axiom); a second-order non-cocycle does fail
    dim = 2
    b1 = MultiDiffOp(
        dim, 2, {((2, 0), (0, 0)): Polynomial.const(dim, 1)}
    )  # B_1(f,g) = (d1^2 f) g, non-strict in the second slot
    series = StarSeries(1, (MultiDiffOp.multiplication(dim), b1))
    assert not series.is_strict()
    f, g, h = P("x1^2", 2), P("x1", 2), P("x1", 2)
    defect = associator(series, f, g, h, 1)
    assert not defect.coeffs[1].is_zero


def test_multiplication_as_first_term_stays_associative_but_not_unital():
    # the deformation f*g = fg (1 + h) is associative; the failure a
    # non-strict B_1 = fg produces is in the unit axiom instead
    dim = 2
    mult = MultiDiffOp.multiplication(dim)
    series = StarSeries(1, (mult, mult))
    f, g, h = P("x1", 2), P("x2", 2), P("x1 x2", 2)
    defect = associator(series, f, g, h, 1)
    assert defect.coeffs[1].is_zero
    one = lift(Polynomial.const(dim, 1), 1)
    unit = star_apply(series, one, lift(f, 1))
    assert not unit.coeffs[1].is_zero


# ---------------------------------------------------------------------------
# gauge equivalence
# ---------------------------------------------------------------------------


def rand_gauge(rng, dim, order):
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


def test_gauge_identity_leaves_star_unchanged():
    series = moyal_series(PI0, 2)
    ident = GaugeOperator(2, tuple([MultiDiffOp.identity(2)] + [MultiDiffOp.zero(2, 1)] * 2))
    assert gauge_transform(series, ident).ops == series.ops


def test_gauge_transform_preserves_associativity_and_strictness():
    rng = random.Random(31)
    for _ in range(6):
        dim = rng.randint(1, 2)
        pi = rand_const_bivector(rng, dim)
        series = moyal_series(pi, 2)
        d_op = rand_gauge(rng, dim, 2)
        moved = gauge_transform(series, d_op)
        assert moved.is_strict()
        for _ in range(3):
            f, g, h = (rand_poly(rng, dim, maxdeg=2) for _ in range(3))
            defect = associator(moved, f, g, h, 2)
            assert all(c.is_zero for c in defect.coeffs)


def test_gauge_round_trip():
    rng = random.Random(37)
    for _ in range(5):
        dim = rng.randint(1, 2)
        pi = rand_const_bivector(rng, dim)
        series = moyal_series(pi, 2)
        d_op = rand_gauge(rng, dim, 2)
        back = gauge_transform(gauge_transform(series, d_op), gauge_inverse(d_op))
        assert back.ops == series.ops


def test_gauge_inverse_is_formal_inverse():
    rng = random.Random(41)
    d_op = rand_gauge(rng, 2, 3)
    inv = gauge_inverse(d_op)
    # compose order by order: D Dinv = id + O(h^4)
    for k in range(1, 4):
        acc = MultiDiffOp.zero(2, 1)
        for i in range(k + 1):
            acc = acc + insert(d_op.maps[i], 0, inv.maps[k - i])
        assert acc.is_zero


def test_gauge_operator_validation():
    with pytest.raises(ValueError):
        GaugeOperator(1, (MultiDiffOp.identity(2), MultiDiffOp.identity(2)))
    with pytest.raises(ValueError):
        GaugeOperator(0, (MultiDiffOp.zero(2, 1),))


def test_gauge_transform_preserves_induced_bivector(weight_table):
    # the skew part of B_1 only changes by symmetric coboundary terms under
    # gauge transforms, so equivalent products deform the same structure
    rng = random.Random(47)
    cases = [moyal_series(rand_const_bivector(rng, 2), 2)]
    cases.append(kontsevich_star_series(so3_bivector(), 2, weight_table))
    for series in cases:
        pi = first_order_antisym(series)
        d_op = rand_gauge(rng, series.dim, 2)
        moved = gauge_transform(series, d_op)
        assert first_order_antisym(moved) == pi


def test_wheel_weight_is_a_gauge_direction_at_order_two(weight_table):
    # the wheel's operator is symmetric and Hochschild-closed, so moving its
    # weight by delta (every member, with its orbit sign) moves the order-2
    # series by a gauge transform, D = id + h^2 (-2 delta) B_tadpole; no
    # identity of the product can fix the wheel (Kontsevich q-alg/9709040 §8)
    delta = Fraction(1, 7)
    wheel, tadpole = parse_id("2;2;[2,b1],[1,b2]"), parse_id("2;1;[2,b1],[1,b1]")
    shifted = WeightTable(weight_table.entries)
    members = 0
    for gid, entry in weight_table.entries.items():
        rep, sign = orbit(parse_id(gid), mirror=True)
        if rep == wheel:
            est = WeightEstimate(gid, entry.mean, entry.stderr, entry.samples, entry.seed)
            shifted.put(est, entry.snapped + sign * delta)
            members += 1
    assert members == 8

    def series(pi, table):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a generic pi in 3-D is not Poisson
            return kontsevich_star_series(pi, 2, table)

    rng = random.Random(71)
    generic = [_rand_quadratic_bivector(rng, dim) for dim in (2, 2, 3, 3)]
    for pi in generic + [so3_bivector()]:
        d_op = GaugeOperator(
            2,
            (
                MultiDiffOp.identity(pi.dim),
                MultiDiffOp.zero(pi.dim, 1),
                build_b_gamma(tadpole, [pi, pi]).scale(-2 * delta),
            ),
        )
        committed, moved = series(pi, weight_table), series(pi, shifted)
        assert moved.ops != committed.ops
        assert moved.ops == gauge_transform(committed, d_op).ops
    # on a constant pi the wheel and the tadpole vanish
    pi = rand_const_bivector(rng, 3)
    assert series(pi, shifted).ops == series(pi, weight_table).ops
    assert build_b_gamma(tadpole, [pi, pi]).is_zero


def test_gauge_unit_preserved():
    rng = random.Random(43)
    series = moyal_series(PI0, 2)
    d_op = rand_gauge(rng, 2, 2)
    moved = gauge_transform(series, d_op)
    one = Polynomial.const(2, 1)
    f = P("x1^2 x2", 2)
    out = star_apply(moved, lift(one, 2), lift(f, 2))
    assert out.coeffs[0] == f and all(c.is_zero for c in out.coeffs[1:])
    out = star_apply(moved, lift(f, 2), lift(one, 2))
    assert out.coeffs[0] == f and all(c.is_zero for c in out.coeffs[1:])


# ---------------------------------------------------------------------------
# symmetrized-only first term
# ---------------------------------------------------------------------------


def test_symmetric_first_term_gives_zero_bivector():
    dim = 2
    terms = {}
    for i, j in [(1, 2), (2, 1), (1, 1)]:
        ki = [0] * dim
        ki[i - 1] = 1
        kj = [0] * dim
        kj[j - 1] = 1
        terms[(tuple(ki), tuple(kj))] = Polynomial.const(dim, 1)
    sym = MultiDiffOp(dim, 2, terms)
    series = StarSeries(1, (MultiDiffOp.multiplication(dim), sym))
    assert first_order_antisym(series).is_zero


def test_first_order_antisym_rejects_second_order():
    dim = 2
    terms = {((2, 0), (0, 1)): Polynomial.const(dim, 1)}
    b1 = MultiDiffOp(dim, 2, terms)
    series = StarSeries(1, (MultiDiffOp.multiplication(dim), b1))
    with pytest.raises(ValueError):
        first_order_antisym(series)


def test_non_poisson_structure_fails_associativity(weight_table):
    # the order-2 defect must be visible when [pi,pi] != 0
    import warnings as _warnings

    bad = PolyVector(
        3,
        2,
        {
            (1, 2): Polynomial.var(3, 1),
            (1, 3): Polynomial.var(3, 3),
            (2, 3): Polynomial.var(3, 2),
        },
    )
    from deformq.polyalg import jacobiator

    assert not jacobiator(bad).is_zero
    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore")
        series = kontsevich_star_series(bad, 2, weight_table)
    xs = [Polynomial.var(3, i) for i in (1, 2, 3)]
    found_defect = False
    for f, g, h in itertools.product(xs, repeat=3):
        defect = associator(series, f, g, h, 2)
        if not all(c.is_zero for c in defect.coeffs):
            found_defect = True
            break
    assert found_defect
