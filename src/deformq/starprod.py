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

from collections.abc import Callable, Sequence
from fractions import Fraction
from math import factorial

from deformq.graphs import (
    AdmissibleGraph,
    _order_key,
    canonical_id,
    enumerate_graphs,
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
    truncated_product,
)
from deformq.record import Frozen
from deformq.table import WeightTable


# the highest order a star series is assembled at: order 4 would
# orbit-scan 16 400 labelled graphs for an affine pi and 120 576 for a
# quadratic one (3.2 s and 20 s on a 2-core VM)
MAX_ORDER = 3


class MissingWeightError(LookupError):
    """Graphs that a star series reads have no snapped weight: the message
    names each of them, in enumeration order."""

    def __init__(self, graphs):
        ids = ", ".join(canonical_id(g) for g in sorted(graphs, key=_order_key))
        super().__init__(f"no snapped weight for graphs: {ids}")


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


def _class_operators(
    pi: PolyVector, n: int
) -> list[tuple[MultiDiffOp, list[tuple[AdmissibleGraph, int]]]]:
    """(B_rep, [(rep, 1), (g, sign), ...]) for every class of order-n graphs
    under graphs.orbit whose operator is nonzero, in order of first member,
    with the members in enumeration order, so the representative (the least
    image) comes first: B_Gamma(g) = sign * B_rep.

    Each class's operator is built once, from its representative.  Graphs
    that vanish for every pi of this top degree (enumerate_graphs) and
    classes of sign 0, whose operator is B = -B = 0, are never built.
    """
    top_degree = max((c.total_degree() for c in pi.components.values()), default=-1)
    classes: dict[AdmissibleGraph, list[tuple[AdmissibleGraph, int]]] = {}
    for g in enumerate_graphs(n, 2, top_degree=top_degree):
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


# per order n = 1..order: (owner, B) for each weight orbit (star_classes)
Classes = list[list[tuple[AdmissibleGraph, MultiDiffOp]]]


def star_classes(pi: PolyVector, order: int) -> Classes:
    """(owner, B) for each weight orbit of order n = 1..order, in order of
    first class; the owners are the only graphs a series reads a weight for.
    The classes c of _class_operators(pi, n) are grouped by (owner, sign) =
    orbit(rep_c, mirror=True), and B = sum sign * |c| / n! * B_c, since each
    member g has w(g) = sign_g * sign * w(owner) and B(g) = sign_g * B_c (the
    mirror transposes B_c, so each class is built apart).  An orbit whose B
    sums to 0 is kept: its owner is still read."""
    if order > MAX_ORDER:
        raise ValueError(f"orders above {MAX_ORDER} are outside the weight table scope")
    out = []
    for n in range(1, order + 1):
        orbits: dict[AdmissibleGraph, list[tuple[Fraction, MultiDiffOp]]] = {}
        for op, members in _class_operators(pi, n):
            owner, sign = orbit(members[0][0], mirror=True)
            scale = Fraction(sign * len(members), factorial(n))
            orbits.setdefault(owner, []).append((scale, op))
        out.append([(g, linear_combination(t, pi.dim, 2)) for g, t in orbits.items()])
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
    dim: int, classes: Classes, weight: Callable[[str], Interval | None]
) -> list[list[tuple[Interval, MultiDiffOp]]]:
    """The star coefficients of orders 0..len(classes) as rows (weight(id of
    owner), B), one per pair of classes[n - 1] (star_classes) whose weight
    is not the point 0; order 0 is the multiplication with weight 1.  Owners
    without a weight raise MissingWeightError, which names each."""
    out = [[(_UNIT, MultiDiffOp.multiplication(dim))]]
    missing = []
    for pairs in classes:
        rows = []
        for owner, op in pairs:
            w = weight(canonical_id(owner))
            if w is None:
                missing.append(owner)
            elif w[0] or w[1]:
                rows.append((w, op))
        out.append(rows)
    if missing:
        raise MissingWeightError(missing)
    return out


def kontsevich_star_series(
    pi: PolyVector, classes: Classes, table: WeightTable
) -> StarSeries:
    """Exact star series of pi from snapped weights up to len(classes): the
    h^n operator (1/n!) sum_Gamma w_Gamma B_Gamma over the order-n graphs is
    the sum of w(owner) * B over the class_rows of classes (star_classes).
    An owner without a snapped weight raises MissingWeightError.  Any pi is
    assembled, silently: from order 2 on, associative iff [pi,pi] = 0."""
    ops = [
        linear_combination(((c, op) for (c, _), op in rows), pi.dim, 2)
        for rows in class_rows(pi.dim, classes, point_weights(table))
    ]
    return StarSeries(len(classes), tuple(ops))


def kontsevich_star(
    pi: PolyVector, f: Polynomial, g: Polynomial, classes: Classes, table: WeightTable
) -> FormalSeries:
    series = kontsevich_star_series(pi, classes, table)
    return star_apply(series, lift(f, series.order), lift(g, series.order))


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
