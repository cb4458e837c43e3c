"""Star products: the graph-assembled series, its associator and the
first-order part.  The closed forms it is checked against (Moyal, the Wick
oracle, gauge transforms) are in `closedform`.

Conventions.  The formal parameter h absorbs the physics normalization: the
Moyal product here is exp(h pi^{ij} d_i (x) d_j) with the full-range skew
extension of pi, so the h-coefficient of f*g is the Poisson bracket
pi(df, dg) itself.  The graph-assembled series is calibrated to the same
convention through the weight normalization (wedge graph weight +1/2).
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Sequence
from fractions import Fraction
from math import factorial

from deformq.graphs import (
    AdmissibleGraph,
    _order_key,
    canonical_id,
    enumerate_graphs,
    has_repeated_edge,
    is_boundary,
    orbit,
)
from deformq.operators import (
    MultiDiffOp,
    TermKey,
    apply_op,
    build_b_gamma,
    from_sums,
    insert_into,
    linear_combination,
)
from deformq.polyalg import (
    FormalSeries,
    Polynomial,
    PolyVector,
    jacobiator,
    truncated_product,
)
from deformq.record import Frozen
from deformq.table import WeightTable


class MissingWeightError(KeyError):
    """A contributing graph has no snapped weight in the table."""


# ---------------------------------------------------------------------------
# series of bidifferential operators
# ---------------------------------------------------------------------------


class StarSeries(Frozen):
    """Truncated star product: ops[k] is the h^k bidifferential operator,
    ops[0] the pointwise multiplication."""

    __slots__ = ("order", "ops")

    def __post_init__(self):
        if len(self.ops) != self.order + 1:
            raise ValueError("ops length must be order + 1")
        dims = {op.dim for op in self.ops}
        if len(dims) != 1:
            raise ValueError("operator dimensions differ")
        if any(op.arity != 2 for op in self.ops):
            raise ValueError("star coefficients must be bidifferential")
        if self.ops[0] != MultiDiffOp.multiplication(self.dim):
            raise ValueError("ops[0] must be the pointwise multiplication")

    @property
    def dim(self) -> int:
        return self.ops[0].dim

    def is_strict(self) -> bool:
        """B_i(1, f) = B_i(f, 1) = 0 for every i >= 1."""
        return all(op.vanishes_on_constant_slots() for op in self.ops[1:])


def lift(p: Polynomial, order: int) -> FormalSeries:
    """A polynomial as a constant formal series."""
    zero = Polynomial.zero(p.dim)
    return FormalSeries(order, (p,) + (zero,) * order)


def star_apply(star: StarSeries, a: FormalSeries, b: FormalSeries) -> FormalSeries:
    """Bilinear extension of the star product to truncated series arguments."""
    order = min(star.order, a.order, b.order)
    out = truncated_product(
        (a, b, star.ops),
        order,
        lambda p, q, op: apply_op(op, [p, q]),
        Polynomial.zero(star.dim),
    )
    return FormalSeries(order, tuple(out))


def associator(
    star: StarSeries, f: Polynomial, g: Polynomial, h: Polynomial, order: int
) -> FormalSeries:
    """(f*g)*h - f*(g*h), truncated; the zero series certifies associativity
    at this order for these arguments."""
    order = min(order, star.order)
    fa, ga, ha = (lift(p, order) for p in (f, g, h))
    left = star_apply(star, star_apply(star, fa, ga), ha)
    right = star_apply(star, fa, star_apply(star, ga, ha))
    return left.sub(right)


# A weight known to lie in center +- radius, both exact; radius 0 is a point.
Interval = tuple[Fraction, Fraction]
_UNIT: Interval = (Fraction(1), Fraction(0))


def associator_bound(
    rows: Sequence[Sequence[tuple[Interval, MultiDiffOp]]],
) -> list[tuple[MultiDiffOp, MultiDiffOp]]:
    """(C_r, R_r) for r = 0..len(rows)-1: every coefficient of the h^r
    associator (f*g)*h - f*(g*h) lies within C_r +- R_r, coefficient by
    coefficient, for every choice of the weights within their intervals.

    rows[n] lists (weight, op) pairs whose weighted sum is the h^n star
    coefficient.  The h^r defect is bilinear in the weights:
    sum_{i+j=r} sum_{a in rows[i], b in rows[j]} w_a w_b D(op_a, op_b) with
    D(x, y) = insert(x, 0, y) - insert(x, 1, y).  Each product w_a w_b is
    enclosed in center-radius form; its radius multiplies |D|, so R_r is a
    nonnegative operator and point weights add nothing to it.

    Every D is accumulated as term dicts: a pair of point weights adds
    straight into C_r, any other pair builds D once for C_r and |D| for R_r.
    """
    dim = rows[0][0][1].dim
    # derivatives of each op's coefficients, shared by every insertion of it
    partials = [[{} for _ in row] for row in rows]
    out = []
    for r in range(len(rows)):
        center: dict[TermKey, dict] = {}
        radius: dict[TermKey, dict] = {}
        for i in range(r + 1):
            for (ca, ra), a in rows[i]:
                for ((cb, rb), b), memo in zip(rows[r - i], partials[r - i]):
                    c = ca * cb
                    w = abs(ca) * rb + abs(cb) * ra + ra * rb
                    if not w:
                        insert_into(center, c, a, 0, b, memo)
                        insert_into(center, -c, a, 1, b, memo)
                        continue
                    d: dict[TermKey, dict] = {}
                    insert_into(d, 1, a, 0, b, memo)
                    insert_into(d, -1, a, 1, b, memo)
                    for key, sums in d.items():
                        csums = center.setdefault(key, {})
                        rsums = radius.setdefault(key, {})
                        for e, v in sums.items():
                            csums[e] = csums.get(e, 0) + c * v
                            rsums[e] = rsums.get(e, 0) + w * abs(v)
        out.append((from_sums(dim, 3, center), from_sums(dim, 3, radius)))
    return out


def contains_zero(center, radius) -> bool:
    """|center| <= radius in every scalar coefficient, for two polynomials
    or two operators of one arity: the bound center +- radius admits 0."""

    def coefficients(x) -> dict:
        if isinstance(x, Polynomial):
            return x.terms
        return {(k, e): c for k, p in x.terms.items() for e, c in p.terms.items()}

    rad = coefficients(radius)
    return all(abs(c) <= rad.get(k, 0) for k, c in coefficients(center).items())


def operator_associator(star: StarSeries) -> tuple[MultiDiffOp, ...]:
    """The h^r coefficients of (f*g)*h - f*(g*h) as tridifferential
    operators, sum_{i+j=r} B_i(B_j(.,.),.) - B_i(.,B_j(.,.)) for r = 0..order;
    all vanish iff the series is associative for every argument triple."""
    rows = [[(_UNIT, op)] for op in star.ops]
    return tuple(center for center, _ in associator_bound(rows))


# ---------------------------------------------------------------------------
# graph-assembled star product
# ---------------------------------------------------------------------------


def _vanishes_by_rule(g: AdmissibleGraph, top_degree: int) -> bool:
    """B_Gamma(pi,...,pi) = 0 without building it: a repeated edge
    (has_repeated_edge), or an aerial vertex hit by more edges than pi's top
    polynomial degree, which differentiates every component to zero."""
    if has_repeated_edge(g):
        return True
    in_degree = [0] * (g.n + 1)
    for _, t in g.edges():
        if not is_boundary(t):
            in_degree[t] += 1
    return any(k > top_degree for k in in_degree[1:])


def _class_operators(
    pi: PolyVector, n: int
) -> list[tuple[MultiDiffOp, list[tuple[AdmissibleGraph, int]]]]:
    """(B_rep, [(g, sign), ...]) for every class of order-n graphs under
    graphs.orbit whose operator is nonzero, in order of first member, with
    the members in enumeration order: B_Gamma(g) = sign * B_rep.

    Each class's operator is built once, from its representative.  Graphs
    that vanish by rule (_vanishes_by_rule) and classes of sign 0, whose
    operator is B = -B = 0, are never built.
    """
    top_degree = max((c.total_degree() for c in pi.components.values()), default=-1)
    classes: dict[AdmissibleGraph, list[tuple[AdmissibleGraph, int]]] = {}
    for g in enumerate_graphs(n, 2, 2):
        if _vanishes_by_rule(g, top_degree):
            continue
        rep, sign = orbit(g)
        if sign:
            classes.setdefault(rep, []).append((g, sign))
    out = []
    for rep, members in classes.items():
        op = build_b_gamma(rep, [pi] * n, dim=pi.dim)
        if not op.is_zero:
            out.append((op, members))
    return out


def graph_operators(
    pi: PolyVector, n: int
) -> list[tuple[AdmissibleGraph, MultiDiffOp]]:
    """(graph, B_Gamma(pi,...,pi)) for every order-n graph with a nonzero
    operator, in enumeration order: the members of _class_operators, each
    with its class's operator or its negative."""
    out = []
    for op, members in _class_operators(pi, n):
        neg = -op
        out.extend((g, op if sign > 0 else neg) for g, sign in members)
    out.sort(key=lambda pair: _order_key(pair[0]))
    return out


def point_weights(table: WeightTable) -> Callable[[str], Interval | None]:
    """Each graph's snapped weight as a point; None where it has none."""

    def weight(gid: str) -> Interval | None:
        w = table.exact(gid)
        return None if w is None else (w, Fraction(0))

    return weight


def band_weights(table: WeightTable) -> Callable[[str], Interval | None]:
    """Every entry as its 3-sigma band mean +- 3 stderr, converted to
    Fractions exactly, whether or not it snapped; None where a graph has no
    entry.  A weight exact by rule has stderr 0, so it stays a point."""

    def weight(gid: str) -> Interval | None:
        entry = table.get(gid)
        if entry is None:
            return None
        return (Fraction(entry.mean), 3 * Fraction(entry.stderr))

    return weight


def class_rows(
    pi: PolyVector, n: int, weight: Callable[[str], Interval | None]
) -> list[tuple[Interval, MultiDiffOp]]:
    """The h^n star coefficient as rows (W_c, B_c / n!), one per class c of
    _class_operators(pi, n); a class whose W_c is the point 0 is left out.

    B_c is the representative's operator and W_c = sum_{g in c} sign_g *
    weight(id of g) reads every member's own entry, so an inconsistent table
    is assembled as it stands.  Members without a weight raise
    MissingWeightError naming each of them.  Order 0 is the multiplication
    with weight 1.
    """
    if n == 0:
        return [(_UNIT, MultiDiffOp.multiplication(pi.dim))]
    scale = Fraction(1, factorial(n))
    rows = []
    missing = []
    for op, members in _class_operators(pi, n):
        centre = radius = 0
        for g, sign in members:
            w = weight(canonical_id(g))
            if w is None:
                missing.append(g)
                continue
            centre += sign * w[0]
            radius += w[1]
        if centre or radius:
            rows.append(((centre, radius), op.scale(scale)))
    if missing:
        missing.sort(key=_order_key)
        raise MissingWeightError(
            f"no snapped weight for graphs: {', '.join(map(canonical_id, missing))}"
        )
    return rows


def kontsevich_star_series(
    pi: PolyVector, order: int, table: WeightTable
) -> StarSeries:
    """Exact star series from snapped weights: the h^n operator is
    (1/n!) sum_Gamma w_Gamma B_Gamma over the 2n-edge graphs of order n,
    summed over the class_rows of each order.

    Graphs whose operator vanishes identically (parallel edges) never need a
    weight.  A contributing graph without a snapped weight raises
    MissingWeightError.
    """
    if order > 3:
        raise ValueError("orders above 3 are outside the weight table scope")
    if not jacobiator(pi).is_zero:
        warnings.warn(
            "bivector is not Poisson: [pi,pi] != 0; the series will not be "
            "associative",
            stacklevel=2,
        )
    weight = point_weights(table)
    ops = [
        linear_combination(
            ((c, op) for (c, _), op in class_rows(pi, n, weight)), pi.dim, 2
        )
        for n in range(order + 1)
    ]
    return StarSeries(order, tuple(ops))


def kontsevich_star(
    pi: PolyVector,
    f: Polynomial,
    g: Polynomial,
    order: int,
    table: WeightTable,
) -> FormalSeries:
    series = kontsevich_star_series(pi, order, table)
    return star_apply(series, lift(f, order), lift(g, order))


def star_graphs(order: int) -> list[AdmissibleGraph]:
    """All graphs the weight table must cover up to the given order."""
    out = []
    for n in range(1, order + 1):
        out.extend(enumerate_graphs(n, 2, 2))
    return out


# ---------------------------------------------------------------------------
# first-order part
# ---------------------------------------------------------------------------


def first_order_antisym(star: StarSeries) -> PolyVector:
    """The bivector beta with beta(df, dg) = (B_1(f,g) - B_1(g,f))/2,
    read off on coordinate pairs.  B_1 must be first order per slot."""
    if star.order < 1:
        raise ValueError("series has no first-order term")
    b1 = star.ops[1]
    if b1.max_order_per_slot() > 1:
        raise ValueError("B_1 has higher derivatives: not induced by a bivector")
    d = star.dim
    transposed = MultiDiffOp(
        d, 2, {(k2, k1): c for (k1, k2), c in b1.terms.items()}
    )
    minus = (b1 - transposed).scale(Fraction(1, 2))
    comps = {}
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            val = apply_op(minus, [Polynomial.var(d, i), Polynomial.var(d, j)])
            if not val.is_zero:
                comps[(i, j)] = val
    return PolyVector(d, 2, comps)
