"""Closed forms to check the graph-assembled star product against: the
Moyal product of a constant Poisson structure, its Wick-pairing oracle, and
gauge transforms of a star series.

None of this runs on a `star` or `check assoc` request, so it lives apart
from `starprod`, which this module builds on and which does not import it;
the CLI imports it only in `moyal` and `check wick`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial

from deformq.operators import MultiDiffOp, hkr, insert
from deformq.polyalg import FormalSeries, Polynomial, PolyVector, truncated_product
from deformq.record import Frozen
from deformq.starprod import StarSeries, lift, star_apply


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
# gauge equivalence
# ---------------------------------------------------------------------------


class GaugeOperator(Frozen):
    """D = id + sum_{i>=1} h^i D_i with each D_i vanishing on constants."""

    __slots__ = ("order", "maps")

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

    coeffs = [f * g] + [Polynomial.zero(d)] * order
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
