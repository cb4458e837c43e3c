"""Multidifferential operators: graph operators B_Gamma and the Gerstenhaber
bracket / Hochschild differential machinery.

A MultiDiffOp of arity m is a finite sum of terms

    coeff(x) . (d^{K_1} slot_1) ... (d^{K_m} slot_m)

where each K_s is a derivative multi-index (counts per variable).  Terms are
merged on equal derivative signatures, so operator equality is syntactic.
The Gerstenhaber degree of an arity-(m+1) operator is m.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Mapping, Sequence

from deformq.graphs import AdmissibleGraph, is_boundary
from deformq.polyalg import Polynomial, PolyVector

DerivIndex = tuple[int, ...]
TermKey = tuple[DerivIndex, ...]


@dataclass(frozen=True)
class MultiDiffOp:
    dim: int
    arity: int
    terms: Mapping[TermKey, Polynomial] = field(default_factory=dict)

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("arity must be >= 1")
        clean = {}
        for key, coeff in self.terms.items():
            key = tuple(tuple(k) for k in key)
            if len(key) != self.arity:
                raise ValueError("term key length != arity")
            if any(len(k) != self.dim for k in key):
                raise ValueError("derivative multi-index length != dim")
            if coeff.dim != self.dim:
                raise ValueError("coefficient dimension mismatch")
            if not coeff.is_zero:
                clean[key] = coeff
        object.__setattr__(self, "terms", clean)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(dim: int, arity: int) -> "MultiDiffOp":
        return MultiDiffOp(dim, arity, {})

    @staticmethod
    def identity(dim: int) -> "MultiDiffOp":
        zero_idx = (0,) * dim
        return MultiDiffOp(dim, 1, {(zero_idx,): Polynomial.const(dim, 1)})

    @staticmethod
    def multiplication(dim: int) -> "MultiDiffOp":
        zero_idx = (0,) * dim
        return MultiDiffOp(
            dim, 2, {(zero_idx, zero_idx): Polynomial.const(dim, 1)}
        )

    @staticmethod
    def mult_by(poly: Polynomial) -> "MultiDiffOp":
        zero_idx = (0,) * poly.dim
        return MultiDiffOp(poly.dim, 1, {(zero_idx,): poly})

    # -- linear structure ----------------------------------------------------

    def _check_compatible(self, other: "MultiDiffOp"):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        if self.arity != other.arity:
            raise ValueError("arity mismatch")

    def __add__(self, other: "MultiDiffOp") -> "MultiDiffOp":
        self._check_compatible(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out[key] + coeff if key in out else coeff
        return MultiDiffOp(self.dim, self.arity, out)

    def __sub__(self, other: "MultiDiffOp") -> "MultiDiffOp":
        return self + (-other)

    def __neg__(self) -> "MultiDiffOp":
        return MultiDiffOp(self.dim, self.arity, {k: -c for k, c in self.terms.items()})

    def scale(self, c) -> "MultiDiffOp":
        c = Fraction(c)
        return MultiDiffOp(
            self.dim, self.arity, {k: v.scale(c) for k, v in self.terms.items()}
        )

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Gerstenhaber degree: arity - 1."""
        return self.arity - 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiDiffOp)
            and (self.dim, self.arity) == (other.dim, other.arity)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.dim, self.arity, frozenset(self.terms.items())))

    def max_order_per_slot(self) -> int:
        return max(
            (sum(k) for key in self.terms for k in key), default=0
        )

    def vanishes_on_constant_slots(self) -> bool:
        """True iff every term derives every slot at least once (strictness)."""
        return all(
            all(sum(k) > 0 for k in key) for key in self.terms
        )


def apply_op(op: MultiDiffOp, args: Sequence[Polynomial]) -> Polynomial:
    """Evaluate: sum over terms of coeff . prod_s d^{K_s}(args[s]); exact."""
    if len(args) != op.arity:
        raise ValueError(f"expected {op.arity} arguments, got {len(args)}")
    for a in args:
        if a.dim != op.dim:
            raise ValueError("argument dimension mismatch")
    total = Polynomial.zero(op.dim)
    for key, coeff in op.terms.items():
        prod = coeff
        for deriv, arg in zip(key, args):
            part = arg.partial_multi(deriv)
            if part.is_zero:
                prod = None
                break
            prod = prod * part
        if prod is not None:
            total = total + prod
    return total


# ---------------------------------------------------------------------------
# graph operators
# ---------------------------------------------------------------------------


def build_b_gamma(
    g: AdmissibleGraph, xs: Sequence[PolyVector], dim: int | None = None
) -> MultiDiffOp:
    """The multidifferential operator of an admissible graph.

    Aerial vertex v carries the skew tensor of xs[v-1]; each edge carries a
    summed coordinate index; the edge's partial derivative acts on the tensor
    coefficient or function at its endpoint.  Skew components are extended to
    all index orderings with signs.  The empty graph (n = 0) needs an explicit
    dim and yields the pointwise multiplication operator.
    """
    if len(xs) != g.n:
        raise ValueError(f"expected {g.n} polyvectors, got {len(xs)}")
    if g.nbar == 0:
        raise ValueError("graphs without boundary vertices carry no operator slots")
    dims = {x.dim for x in xs}
    if dim is not None:
        dims.add(dim)
    if len(dims) > 1:
        raise ValueError("polyvector dimensions differ")
    if not dims:
        raise ValueError("dimension undetermined for the empty graph")
    d = dims.pop()
    for v, x in enumerate(xs, start=1):
        if x.degree != len(g.stars[v - 1]):
            raise ValueError(
                f"vertex {v}: polyvector degree {x.degree} != star size "
                f"{len(g.stars[v - 1])}"
            )

    edges = g.edges()
    zero_idx = (0,) * d
    terms: dict[TermKey, Polynomial] = {}
    incoming: dict[int, list[int]] = {v: [] for v in range(1, g.n + 1)}
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


# ---------------------------------------------------------------------------
# Gerstenhaber composition
# ---------------------------------------------------------------------------


def _fact_product(tup):
    out = 1
    for t in tup:
        out *= factorial(t)
    return out


def multiindex_splits(multi: DerivIndex, parts: int):
    """Split a derivative multi-index into `parts` ordered pieces.

    Yields (pieces, coeff): pieces is a tuple of `parts` multi-indices summing
    to `multi`, coeff the product of per-variable multinomial coefficients
    (the Leibniz multiplicity).
    """
    per_var = []
    for count in multi:
        options = []
        for combo in itertools.product(range(count + 1), repeat=parts):
            if sum(combo) == count:
                options.append(
                    (combo, factorial(count) // _fact_product(combo))
                )
        per_var.append(options)
    for chosen in itertools.product(*per_var):
        coeff = 1
        pieces = []
        for p in range(parts):
            pieces.append(tuple(ch[0][p] for ch in chosen))
        for ch in chosen:
            coeff *= ch[1]
        yield tuple(pieces), coeff


def insert(phi: MultiDiffOp, i: int, psi: MultiDiffOp) -> MultiDiffOp:
    """The single composition phi o_i psi (no sign): slot i of phi consumes
    the output of psi; phi's derivative on that slot Leibniz-distributes over
    psi's coefficient and argument slots."""
    if phi.dim != psi.dim:
        raise ValueError("dimension mismatch")
    if not 0 <= i <= phi.arity - 1:
        raise ValueError("insertion slot out of range")
    dim = phi.dim
    out_arity = phi.arity + psi.arity - 1
    terms: dict[TermKey, Polynomial] = {}
    for pkey, pcoeff in phi.terms.items():
        k_slot = pkey[i]
        for qkey, qcoeff in psi.terms.items():
            for pieces, mult in multiindex_splits(k_slot, psi.arity + 1):
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
    return MultiDiffOp(dim, out_arity, terms)


def compose_gerstenhaber(phi: MultiDiffOp, psi: MultiDiffOp) -> MultiDiffOp:
    """phi o psi = sum_{0 <= i <= m} (-1)^{i n} phi o_i psi, m/n shifted degrees."""
    m, n = phi.degree, psi.degree
    out = MultiDiffOp.zero(phi.dim, phi.arity + psi.arity - 1)
    for i in range(m + 1):
        piece = insert(phi, i, psi)
        if (i * n) % 2 == 1:
            piece = -piece
        out = out + piece
    return out


def gerstenhaber_bracket(phi: MultiDiffOp, psi: MultiDiffOp) -> MultiDiffOp:
    """[phi, psi]_G = phi o psi - (-1)^{mn} psi o phi."""
    m, n = phi.degree, psi.degree
    left = compose_gerstenhaber(phi, psi)
    right = compose_gerstenhaber(psi, phi)
    if (m * n) % 2 == 1:
        return left + right
    return left - right


def hochschild_d(psi: MultiDiffOp) -> MultiDiffOp:
    """d_m psi = [m, psi]_G for the pointwise multiplication m."""
    return gerstenhaber_bracket(MultiDiffOp.multiplication(psi.dim), psi)


# ---------------------------------------------------------------------------
# HKR antisymmetrization
# ---------------------------------------------------------------------------


def hkr(xi: PolyVector) -> MultiDiffOp:
    """Total antisymmetrization of a multivector as a multidifferential
    operator: (1/k!) sum over index tuples of the skew component with one
    first-order derivative per slot.  Degree 0 gives multiplication by the
    function."""
    if xi.degree == 0:
        return MultiDiffOp.mult_by(
            xi.components.get((), Polynomial.zero(xi.dim))
        )
    d, k = xi.dim, xi.degree
    inv = Fraction(1, factorial(k))
    terms: dict[TermKey, Polynomial] = {}
    for idx in itertools.permutations(range(1, d + 1), k):
        comp = xi.component(idx)
        if comp.is_zero:
            continue
        key = []
        for i in idx:
            deriv = [0] * d
            deriv[i - 1] = 1
            key.append(tuple(deriv))
        key = tuple(key)
        contrib = comp.scale(inv)
        terms[key] = terms[key] + contrib if key in terms else contrib
    return MultiDiffOp(d, k, terms)
