"""Gutt's star product on the dual of a nilpotent Lie algebra, as an oracle
for the order-2 Kontsevich series of a linear Poisson structure (Gutt 1983;
Kathotia, math/9811174).

For pi^{ij} = c^{ij}_k x_k, the dual of the Lie algebra [e_i, e_j] =
c^{ij}_k e_k, Gutt's product of exponentials of linear functions is

    e^<x,X> * e^<x,Y> = exp <x, (1/hb) BCH(hb X, hb Y)>,

with hb = 2h in this package's convention (the h-coefficient of f*g is the
bracket {f, g} itself).  Writing X = sum s_i e_i and Y = sum t_j e_j,
x^a * x^b is the derivative d_s^a d_t^b of the right side at s = t = 0.
Kontsevich's product on g* differs from Gutt's by the wheel graphs
(Kathotia), whose operators contract to zero on a nilpotent g*, so on the
algebras below the two agree coefficient by coefficient.

The oracle is written without any deformq code: a polynomial is a plain dict
from exponent tuples to Fractions, as in `perfbench/oracles.py`.
"""

import math
from fractions import Fraction

import pytest

from deformq.graphs import canonical_id, enumerate_graphs, orbit, parse_id
from deformq.polyalg import Polynomial, PolyVector
from deformq.starprod import kontsevich_star_series, lift, star_apply, star_classes
from deformq.table import WeightEntry, WeightTable

# structure constants {(i, j): {k: c}}, 1-based, i < j: [e_i, e_j] = c e_k
FILIFORM_4 = {(1, 2): {3: 1}, (1, 3): {4: 1}}
STEP_3_RANK_3 = {(1, 2): {4: 1}, (2, 3): {5: 1}, (1, 4): {6: 1}}

ORDER = 2
WHEEL = "2;2;[2,b1],[1,b2]"
TWELFTH = "2;2;[2,b1],[b1,b2]"  # the class of weight +-1/12


# ---------------------------------------------------------------------------
# the oracle: plain dicts and Fractions
# ---------------------------------------------------------------------------


def _mul(p: dict, q: dict, keep) -> dict:
    """p q, without the terms whose exponent keep rejects."""
    out: dict = {}
    for ka, ca in p.items():
        for kb, cb in q.items():
            key = tuple(a + b for a, b in zip(ka, kb))
            if keep(key):
                out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v != 0}


def _add(p: dict, q: dict, scale=1) -> dict:
    out = dict(p)
    for key, c in q.items():
        out[key] = out.get(key, 0) + scale * c
    return {k: v for k, v in out.items() if v != 0}


def _combine(keep, *terms) -> dict:
    """sum of scale * factor * u over terms (scale, factor, u), for Lie
    algebra elements u = {k: polynomial coefficient of e_k}."""
    out: dict = {}
    for scale, factor, u in terms:
        for k, p in u.items():
            out[k] = _add(out.get(k, {}), _mul(factor, p, keep), scale)
    return {k: p for k, p in out.items() if p}


def _bracket(consts: dict, u: dict, v: dict, keep) -> dict:
    out: dict = {}
    for (i, j), image in consts.items():
        # u_i v_j [e_i, e_j] + u_j v_i [e_j, e_i]
        coeff = _add(
            _mul(u.get(i, {}), v.get(j, {}), keep),
            _mul(u.get(j, {}), v.get(i, {}), keep),
            -1,
        )
        for k, c in image.items():
            out[k] = _add(out.get(k, {}), coeff, c)
    return {k: p for k, p in out.items() if p}


def gutt_products(consts: dict, dim: int) -> dict:
    """{(a, b): [h^m coefficient of x^a * x^b for m = 0..ORDER]} for every
    pair of monomials of degree 1 or 2, each coefficient a polynomial
    {exponent in x: Fraction}.

    The generating series lives in the variables s_1..s_dim, t_1..t_dim, hb,
    x_1..x_dim, in that exponent order, truncated at degree 2 in s, in t and
    in hb."""
    hb = 2 * dim
    nvars = 3 * dim + 1

    def keep(key):
        return sum(key[:dim]) <= 2 and sum(key[dim:hb]) <= 2 and key[hb] <= ORDER

    def var(index):
        return {tuple(int(k == index) for k in range(nvars)): Fraction(1)}

    one = {(0,) * nvars: Fraction(1)}
    X = {i: var(i - 1) for i in range(1, dim + 1)}
    Y = {i: var(dim + i - 1) for i in range(1, dim + 1)}
    XY = _bracket(consts, X, Y, keep)
    # (1/hb) BCH(hb X, hb Y) through its brackets of three letters, the last
    # that order 2 reaches: X + Y + hb/2 [X,Y] + hb^2/12 ([X,[X,Y]] + [Y,[Y,X]])
    Z = _combine(
        keep,
        (1, one, X),
        (1, one, Y),
        (Fraction(1, 2), var(hb), XY),
        (Fraction(1, 12), _mul(var(hb), var(hb), keep), _bracket(consts, X, XY, keep)),
        (Fraction(-1, 12), _mul(var(hb), var(hb), keep), _bracket(consts, Y, XY, keep)),
    )
    pairing: dict = {}
    for k, p in Z.items():
        pairing = _add(pairing, _mul(p, var(hb + k), keep))
    # exp <x, Z>: each term has degree >= 1 in s and t, so four powers suffice
    power, series = one, one
    for n in range(1, 5):
        power = _mul(power, pairing, keep)
        series = _add(series, power, Fraction(1, math.factorial(n)))
    out: dict = {}
    for key, c in series.items():
        a, b, m, x = key[:dim], key[dim:hb], key[hb], key[hb + 1:]
        if sum(a) and sum(b):
            coeffs = out.setdefault((a, b), [{} for _ in range(ORDER + 1)])
            coeffs[m][x] = c * 2**m * math.prod(map(math.factorial, a + b))
    return out


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------


def _linear_pi(consts: dict, dim: int) -> PolyVector:
    return PolyVector(
        dim,
        2,
        {
            ij: sum(
                (Polynomial.var(dim, k).scale(c) for k, c in image.items()),
                Polynomial.zero(dim),
            )
            for ij, image in consts.items()
        },
    )


def _mismatches(consts: dict, dim: int, table: WeightTable) -> list:
    """The (a, b, m) whose h^m coefficient of x^a * x^b differs from Gutt's,
    over every pair of monomials of degree 1 or 2."""
    oracle = gutt_products(consts, dim)
    pi = _linear_pi(consts, dim)
    series = kontsevich_star_series(pi, star_classes(pi, ORDER), table)
    bad = []
    for (a, b), want in sorted(oracle.items()):
        got = star_apply(
            series,
            lift(Polynomial(dim, {a: 1}), ORDER),
            lift(Polynomial(dim, {b: 1}), ORDER),
        )
        bad.extend(
            (a, b, m) for m in range(ORDER + 1) if got.coeffs[m].terms != want[m]
        )
    return bad


def _doubled_class(table: WeightTable, gid: str) -> WeightTable:
    """The table with the weight of every graph in the weight orbit of gid
    doubled: the class under relabelling, star reordering and the mirror
    (graphs.orbit with the mirror), whose members share one weight up to
    sign, whichever of its entries a star series reads."""
    owner = orbit(parse_id(gid), mirror=True)[0]
    entries = dict(table.entries)
    for g in enumerate_graphs(owner.n, 2):
        if orbit(g, mirror=True)[0] == owner:
            e = entries[canonical_id(g)]
            entries[canonical_id(g)] = WeightEntry(
                e.mean, e.stderr, e.samples, e.seed, 2 * e.snapped
            )
    return WeightTable(entries)


# the number of degree-1 and degree-2 monomials, squared
@pytest.mark.parametrize(
    "consts, dim, pairs",
    [(FILIFORM_4, 4, 14**2), (STEP_3_RANK_3, 6, 27**2)],
    ids=["filiform-4", "step-3-rank-3"],
)
def test_oracle_covers_every_pair_and_order(consts, dim, pairs):
    def coordinate(v):
        return tuple(int(k == v - 1) for k in range(dim))

    oracle = gutt_products(consts, dim)
    assert len(oracle) == pairs
    # h^0 is the pointwise product, h^1 the bracket of two coordinates
    for (a, b), coeffs in oracle.items():
        assert coeffs[0] == {tuple(map(sum, zip(a, b))): 1}
    for (i, j), image in consts.items():
        bracket = {coordinate(k): c for k, c in image.items()}
        assert oracle[(coordinate(i), coordinate(j))][1] == bracket
        assert oracle[(coordinate(j), coordinate(i))][1] == {
            e: -c for e, c in bracket.items()
        }


def test_order_two_series_is_gutts_on_the_filiform_algebra(weight_table):
    assert _mismatches(FILIFORM_4, 4, weight_table) == []


def test_order_two_series_is_gutts_on_a_step_three_algebra(weight_table):
    assert _mismatches(STEP_3_RANK_3, 6, weight_table) == []


def test_gutt_sees_the_twelfth_class_but_not_the_wheel(weight_table):
    # wheels contract to zero on a nilpotent g*: the oracle cannot check the
    # wheel's weight, only the other order-2 classes
    assert len(_mismatches(FILIFORM_4, 4, _doubled_class(weight_table, TWELFTH))) == 15
    assert _mismatches(FILIFORM_4, 4, _doubled_class(weight_table, WHEEL)) == []
