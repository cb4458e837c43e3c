"""Star products: closed-form Moyal, graph-assembled series, associativity
checks, gauge equivalence, and the Wick-pairing oracle.

Conventions.  The formal parameter h absorbs the physics normalization: the
Moyal product here is exp(h pi^{ij} d_i (x) d_j) with the full-range skew
extension of pi, so the h-coefficient of f*g is the Poisson bracket
pi(df, dg) itself.  The graph-assembled series is calibrated to the same
convention through the weight normalization (wedge graph weight +1/2).
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from deformq.graphs import AdmissibleGraph, canonical_id, enumerate_graphs
from deformq.operators import (
    MultiDiffOp,
    apply_op,
    build_b_gamma,
    insert,
)
from deformq.polyalg import (
    FormalSeries,
    Polynomial,
    PolyVector,
    jacobiator,
    truncated_product,
)
from deformq.weights import WeightTable


class MissingWeightError(KeyError):
    """A contributing graph has no snapped weight in the table."""


# ---------------------------------------------------------------------------
# series of bidifferential operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StarSeries:
    """Truncated star product: ops[k] is the h^k bidifferential operator,
    ops[0] the pointwise multiplication."""

    order: int
    ops: tuple[MultiDiffOp, ...]

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


# ---------------------------------------------------------------------------
# Moyal product
# ---------------------------------------------------------------------------


def _require_constant(pi: PolyVector):
    if pi.degree != 2:
        raise ValueError("expected a bivector")
    for comp in pi.components.values():
        if not comp.is_constant():
            raise ValueError("Moyal product requires a constant bivector")


def _contraction_op(pi: PolyVector) -> MultiDiffOp:
    """sum_{i,j} pi^{ij} d_i (x) d_j over the full skew range."""
    d = pi.dim
    terms = {}
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            comp = pi.component((i, j))
            if comp.is_zero:
                continue
            ki = [0] * d
            ki[i - 1] = 1
            kj = [0] * d
            kj[j - 1] = 1
            key = (tuple(ki), tuple(kj))
            terms[key] = terms[key] + comp if key in terms else comp
    return MultiDiffOp(d, 2, terms)


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
    """exp(h P) as a truncated operator series, P the pi-contraction."""
    _require_constant(pi)
    d = pi.dim
    p_op = _contraction_op(pi)
    ops = [MultiDiffOp.multiplication(d)]
    power = MultiDiffOp.multiplication(d)
    for k in range(1, order + 1):
        power = _slotwise_mul(power, p_op)
        ops.append(power.scale(Fraction(1, factorial(k))))
    return StarSeries(order, tuple(ops))


def moyal(
    pi: PolyVector, f: Polynomial, g: Polynomial, order: int
) -> FormalSeries:
    """Closed-form Moyal product of two polynomials, exact at every order."""
    series = moyal_series(pi, order)
    return star_apply(series, lift(f, order), lift(g, order))


# ---------------------------------------------------------------------------
# graph-assembled star product
# ---------------------------------------------------------------------------


def graph_operators(
    pi: PolyVector, n: int
) -> list[tuple[AdmissibleGraph, MultiDiffOp]]:
    """(graph, B_Gamma(pi,...,pi)) for every order-n graph with a nonzero
    operator; graphs with parallel edges drop out here."""
    out = []
    for g in enumerate_graphs(n, 2, 2):
        op = build_b_gamma(g, [pi] * n, dim=pi.dim)
        if not op.is_zero:
            out.append((g, op))
    return out


def kontsevich_star_series(
    pi: PolyVector, order: int, table: WeightTable
) -> StarSeries:
    """Exact star series from snapped weights: the h^n operator is
    (1/n!) sum_Gamma w_Gamma B_Gamma over the 2n-edge graphs of order n.

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
    d = pi.dim
    ops = [MultiDiffOp.multiplication(d)]
    for n in range(1, order + 1):
        acc = MultiDiffOp.zero(d, 2)
        missing = []
        for g, op in graph_operators(pi, n):
            gid = canonical_id(g)
            w = table.exact(gid)
            if w is None:
                missing.append(gid)
                continue
            if w != 0:
                acc = acc + op.scale(w)
        if missing:
            raise MissingWeightError(
                f"no snapped weight for graphs: {', '.join(missing)}"
            )
        ops.append(acc.scale(Fraction(1, factorial(n))))
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


@dataclass(frozen=True)
class GaugeOperator:
    """D = id + sum_{i>=1} h^i D_i with each D_i vanishing on constants."""

    order: int
    maps: tuple[MultiDiffOp, ...]

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


def _compose_unary(a: MultiDiffOp, b: MultiDiffOp) -> MultiDiffOp:
    return insert(a, 0, b)


def gauge_inverse(d_op: GaugeOperator) -> GaugeOperator:
    """Order-by-order formal inverse: Dinv_k = -sum_{i=1..k} D_i Dinv_{k-i}."""
    dim = d_op.dim
    inv = [MultiDiffOp.identity(dim)]
    for k in range(1, d_op.order + 1):
        acc = MultiDiffOp.zero(dim, 1)
        for i in range(1, k + 1):
            acc = acc + _compose_unary(d_op.maps[i], inv[k - i])
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
        return _compose_unary(inv, inner)

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
    max_r = f.total_degree()
    max_s = g.total_degree()
    for r in range(0, max_r + 1):
        for s in range(0, max_s + 1):
            if (r + s) % 2 == 1 or r + s == 0:
                continue
            npairs = (r + s) // 2
            if npairs > order:
                continue
            if r != s:
                continue  # theta(0) = 0 zeroes every pairing (checked in tests)
            norm = Fraction(1, factorial(r) * factorial(s))
            for idx_f in itertools.product(range(1, d + 1), repeat=r):
                df = f
                for i in idx_f:
                    df = df.partial(i)
                    if df.is_zero:
                        break
                if df.is_zero:
                    continue
                for idx_g in itertools.product(range(1, d + 1), repeat=s):
                    dg = g
                    for j in idx_g:
                        dg = dg.partial(j)
                        if dg.is_zero:
                            break
                    if dg.is_zero:
                        continue
                    fields = [(u, a) for a in idx_f] + [(v, b) for b in idx_g]
                    weight = Fraction(0)
                    for pairing in wick_pairings(npairs):
                        prod = Fraction(1)
                        for p, q in pairing:
                            t1, a = fields[p - 1]
                            t2, b = fields[q - 1]
                            prod *= propagator(t1, a, t2, b)
                            if prod == 0:
                                break
                        weight += prod
                    if weight != 0:
                        coeffs[npairs] = coeffs[npairs] + (df * dg).scale(
                            weight * norm
                        )
    return FormalSeries(order, tuple(coeffs))


# ---------------------------------------------------------------------------
# interval propagation for raw Monte-Carlo weights
# ---------------------------------------------------------------------------

Interval = tuple[float, float]


def _iadd(a: Interval, b: Interval) -> Interval:
    return (a[0] + b[0], a[1] + b[1])


def _imul(a: Interval, b: Interval) -> Interval:
    prods = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(prods), max(prods))


IntervalPoly = dict[tuple, Interval]


def _ipoly_from(p: Polynomial) -> IntervalPoly:
    return {k: (float(c), float(c)) for k, c in p.terms.items()}


def _ipoly_add(a: IntervalPoly, b: IntervalPoly) -> IntervalPoly:
    out = dict(a)
    for k, iv in b.items():
        out[k] = _iadd(out[k], iv) if k in out else iv
    return out


def _ipoly_scale_poly(p: Polynomial, iv: Interval) -> IntervalPoly:
    return {k: _imul(iv, (float(c), float(c))) for k, c in p.terms.items()}


def _weight_intervals(
    pi: PolyVector, order: int, table: WeightTable
) -> list[list[tuple[MultiDiffOp, Interval]]]:
    """Per order n: the nonzero h^n operators with their weight 3-sigma
    intervals (snapped entries become exact points); order 0 is the
    pointwise multiplication with weight exactly 1."""
    per_order = [[(MultiDiffOp.multiplication(pi.dim), (1.0, 1.0))]]
    for n in range(1, order + 1):
        row = []
        for g, op in graph_operators(pi, n):
            entry = table.get(canonical_id(g))
            if entry is None:
                raise MissingWeightError(f"no weight entry for {canonical_id(g)}")
            if entry.snapped is not None:
                w = float(entry.snapped)
                iv = (w, w)
            else:
                iv = (
                    entry.mean - 3.0 * entry.stderr,
                    entry.mean + 3.0 * entry.stderr,
                )
            row.append((op.scale(Fraction(1, factorial(n))), iv))
        per_order.append(row)
    return per_order


def _istar_apply(
    per_order, dim: int, a: list[IntervalPoly], b: list[IntervalPoly]
) -> list[IntervalPoly]:
    """Interval star product of two interval series (index = h order).

    Each term returns its contributions as a list and the lists are summed
    afterwards, one contribution at a time, which fixes the float summation
    order."""

    def term(ca: IntervalPoly, cb: IntervalPoly, row) -> list[IntervalPoly]:
        parts = []
        for mono_a, iva in ca.items():
            pa = Polynomial(dim, {mono_a: Fraction(1)})
            for mono_b, ivb in cb.items():
                pb = Polynomial(dim, {mono_b: Fraction(1)})
                scale = _imul(iva, ivb)
                for op, wiv in row:
                    val = apply_op(op, [pa, pb])
                    if not val.is_zero:
                        parts.append(_ipoly_scale_poly(val, _imul(scale, wiv)))
        return parts

    sums = truncated_product((a, b, per_order), len(a) - 1, term, [])
    return [functools.reduce(_ipoly_add, parts, {}) for parts in sums]


def associator_weight_intervals(
    pi: PolyVector,
    f: Polynomial,
    g: Polynomial,
    h: Polynomial,
    order: int,
    table: WeightTable,
) -> list[IntervalPoly]:
    """Interval bounds on every associator coefficient when weights carry
    Monte-Carlo spread: each unsnapped weight enters as mean +- 3 stderr and
    the bounds propagate by interval arithmetic (outer bounds; dependency
    between repeated weights is ignored, widening the result)."""
    per_order = _weight_intervals(pi, order, table)
    dim = pi.dim

    def lift_ip(p: Polynomial) -> list[IntervalPoly]:
        return [_ipoly_from(p)] + [dict() for _ in range(order)]

    fa, ga, ha = lift_ip(f), lift_ip(g), lift_ip(h)
    left = _istar_apply(per_order, dim, _istar_apply(per_order, dim, fa, ga), ha)
    right = _istar_apply(per_order, dim, fa, _istar_apply(per_order, dim, ga, ha))
    minus_one = (-1.0, -1.0)
    return [
        _ipoly_add(lc, {k: _imul(iv, minus_one) for k, iv in rc.items()})
        for lc, rc in zip(left, right)
    ]


def intervals_contain_zero(series: list[IntervalPoly]) -> bool:
    return all(
        iv[0] <= 0.0 <= iv[1] for coeff in series for iv in coeff.values()
    )
