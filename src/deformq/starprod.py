"""Star products: closed-form Moyal, graph-assembled series, associativity
checks, gauge equivalence, and the Wick-pairing oracle.

Conventions.  The formal parameter h absorbs the physics normalization: the
Moyal product here is exp(h pi^{ij} d_i (x) d_j) with the full-range skew
extension of pi, so the h-coefficient of f*g is the Poisson bracket
pi(df, dg) itself.  The graph-assembled series is calibrated to the same
convention through the weight normalization (wedge graph weight +1/2).
"""

from __future__ import annotations

import itertools
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
    hkr,
    insert,
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
from deformq.weights import WeightTable


class MissingWeightError(KeyError):
    """A contributing graph has no snapped weight in the table."""


# ---------------------------------------------------------------------------
# series of bidifferential operators
# ---------------------------------------------------------------------------


class StarSeries(Frozen):
    """Truncated star product: ops[k] is the h^k bidifferential operator,
    ops[0] the pointwise multiplication."""

    __slots__ = ("order", "ops")

    def __init__(self, order: int, ops: tuple[MultiDiffOp, ...]):
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "ops", ops)
        self.__post_init__()

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
# Moyal product
# ---------------------------------------------------------------------------


def _require_constant(pi: PolyVector):
    if pi.degree != 2:
        raise ValueError("expected a bivector")
    for comp in pi.components.values():
        if not comp.is_constant():
            raise ValueError("Moyal product requires a constant bivector")


def _slotwise_mul(a: MultiDiffOp, b: MultiDiffOp) -> MultiDiffOp:
    """Pointwise product of two bidifferential operators: derivative
    multi-indices add per slot, coefficients multiply."""
    terms: dict = {}
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            key = tuple(
                tuple(x + y for x, y in zip(sa, sb)) for sa, sb in zip(ka, kb)
            )
            c = ca * cb
            terms[key] = terms[key] + c if key in terms else c
    return MultiDiffOp(a.dim, a.arity, terms)


def moyal_series(pi: PolyVector, order: int) -> StarSeries:
    """exp(h P) as a truncated operator series, P = 2 hkr(pi) the
    pi-contraction sum_{i,j} pi^{ij} d_i (x) d_j."""
    _require_constant(pi)
    d = pi.dim
    p_op = hkr(pi).scale(2)
    ops = [MultiDiffOp.multiplication(d)]
    power = MultiDiffOp.multiplication(d)
    for k in range(1, order + 1):
        power = _slotwise_mul(power, p_op)
        ops.append(power.scale(Fraction(1, factorial(k))))
    return StarSeries(order, tuple(ops))


def moyal(
    pi: PolyVector, f: Polynomial, g: Polynomial, order: int
) -> FormalSeries:
    """Closed-form Moyal product of two polynomials, exact at every order.

    The h^k term takes k derivatives of each argument, so the series is built
    only up to the lower degree of f and g and padded with zeros."""
    top = min(order, f.total_degree(), g.total_degree())
    out = star_apply(moyal_series(pi, top), lift(f, top), lift(g, top))
    zeros = (Polynomial.zero(pi.dim),) * (order - top)
    return FormalSeries(order, out.coeffs + zeros)


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


# ---------------------------------------------------------------------------
# gauge equivalence
# ---------------------------------------------------------------------------


class GaugeOperator(Frozen):
    """D = id + sum_{i>=1} h^i D_i with each D_i vanishing on constants."""

    __slots__ = ("order", "maps")

    def __init__(self, order: int, maps: tuple[MultiDiffOp, ...]):
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "maps", maps)
        self.__post_init__()

    def __post_init__(self):
        if len(self.maps) != self.order + 1:
            raise ValueError("maps length must be order + 1")
        dims = {op.dim for op in self.maps}
        if len(dims) != 1:
            raise ValueError("operator dimensions differ")
        if any(op.arity != 1 for op in self.maps):
            raise ValueError("gauge maps must be unary")
        if self.maps[0] != MultiDiffOp.identity(self.dim):
            raise ValueError("maps[0] must be the identity")
        for op in self.maps[1:]:
            if not op.vanishes_on_constant_slots():
                raise ValueError("gauge maps must vanish on constants")

    @property
    def dim(self) -> int:
        return self.maps[0].dim


def gauge_inverse(d_op: GaugeOperator) -> GaugeOperator:
    """Order-by-order formal inverse: Dinv_k = -sum_{i=1..k} D_i Dinv_{k-i}."""
    dim = d_op.dim
    inv = [MultiDiffOp.identity(dim)]
    for k in range(1, d_op.order + 1):
        acc = MultiDiffOp.zero(dim, 1)
        for i in range(1, k + 1):
            acc = acc + insert(d_op.maps[i], 0, inv[k - i])
        inv.append(-acc)
    return GaugeOperator(d_op.order, tuple(inv))


def gauge_transform(star: StarSeries, d_op: GaugeOperator) -> StarSeries:
    """f *' g = Dinv(Df * Dg), truncated at min(star.order, D.order)."""
    if star.dim != d_op.dim:
        raise ValueError("dimension mismatch")
    order = min(star.order, d_op.order)
    dinv = gauge_inverse(d_op)

    def term(inv, op, left, right):
        inner = insert(insert(op, 0, left), 1, right)
        return insert(inv, 0, inner)

    ops = truncated_product(
        (dinv.maps, star.ops, d_op.maps, d_op.maps),
        order,
        term,
        MultiDiffOp.zero(star.dim, 2),
    )
    return StarSeries(order, tuple(ops))


# ---------------------------------------------------------------------------
# Wick pairings and the path-integral oracle
# ---------------------------------------------------------------------------

Pairing = tuple[tuple[int, int], ...]


def wick_pairings(s: int) -> list[Pairing]:
    """All (2s-1)!! perfect matchings of {1..2s}, each written as pairs
    (a, b) with a < b, blocks sorted by first element; deterministic order."""
    if s < 0:
        raise ValueError("s must be >= 0")

    def rec(remaining: tuple[int, ...]) -> list[Pairing]:
        if not remaining:
            return [()]
        head = remaining[0]
        out = []
        for idx in range(1, len(remaining)):
            partner = remaining[idx]
            rest = remaining[1:idx] + remaining[idx + 1 :]
            for tail in rec(rest):
                out.append(((head, partner),) + tail)
        return out

    return rec(tuple(range(1, 2 * s + 1)))


def _theta(x: Fraction) -> Fraction:
    """Normal-ordered step: theta(x) = sig(x)/2 with theta(0) = 0."""
    if x > 0:
        return Fraction(1, 2)
    if x < 0:
        return Fraction(-1, 2)
    return Fraction(0)


def moyal_via_wick(
    pi: PolyVector, f: Polynomial, g: Polynomial, order: int
) -> FormalSeries:
    """Moyal product as a normal-ordered Gaussian expectation.

    Both arguments are Taylor-expanded in field deviations at two path points
    u < v; every pairing of the deviation fields contributes the product of
    directed propagators h (theta(t2-t1) pi^{ab} + theta(t1-t2) pi^{ba}),
    with theta(0) = 0 killing same-point contractions.  Shares no expansion
    code with the closed-form product; serves as its combinatorial oracle.
    """
    _require_constant(pi)
    d = pi.dim
    u, v = Fraction(0), Fraction(1)  # any u < v gives the same expectation

    def propagator(t1: Fraction, a: int, t2: Fraction, b: int) -> Fraction:
        forward = _theta(t2 - t1) * pi.component((a, b)).constant_term()
        backward = _theta(t1 - t2) * pi.component((b, a)).constant_term()
        return forward + backward

    coeffs = [Polynomial.zero(d) for _ in range(order + 1)]
    coeffs[0] = f * g
    # Only r fields at u and s = r at v can pair up: with r != s some pair
    # sits at one point, and theta(0) = 0 zeroes it (checked in tests).
    for r in range(1, min(f.total_degree(), g.total_degree(), order) + 1):
        norm = Fraction(1, factorial(r) ** 2)
        for idx_f in itertools.product(range(1, d + 1), repeat=r):
            df = f
            for i in idx_f:
                df = df.partial(i)
                if df.is_zero:
                    break
            if df.is_zero:
                continue
            for idx_g in itertools.product(range(1, d + 1), repeat=r):
                dg = g
                for j in idx_g:
                    dg = dg.partial(j)
                    if dg.is_zero:
                        break
                if dg.is_zero:
                    continue
                fields = [(u, a) for a in idx_f] + [(v, b) for b in idx_g]
                weight = Fraction(0)
                for pairing in wick_pairings(r):
                    prod = Fraction(1)
                    for p, q in pairing:
                        t1, a = fields[p - 1]
                        t2, b = fields[q - 1]
                        prod *= propagator(t1, a, t2, b)
                        if prod == 0:
                            break
                    weight += prod
                if weight != 0:
                    coeffs[r] = coeffs[r] + (df * dg).scale(weight * norm)
    return FormalSeries(order, tuple(coeffs))
