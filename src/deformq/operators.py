"""Multidifferential operators: graph operators B_Gamma and the Gerstenhaber
bracket / Hochschild differential machinery.

A MultiDiffOp of arity m is a finite sum of terms

    coeff(x) . (d^{K_1} slot_1) ... (d^{K_m} slot_m)

where each K_s is a derivative multi-index (counts per variable).  Terms are
merged on equal derivative signatures, so operator equality is syntactic.
The Gerstenhaber degree of an arity-(m+1) operator is m.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import factorial, prod
from operator import add
from typing import Iterable, Sequence

from deformq.graphs import AdmissibleGraph, is_boundary
from deformq.polyalg import (
    Polynomial,
    PolyVector,
    mul_terms,
    normalize_wedge,
    partial_terms,
)
from deformq.record import Frozen

DerivIndex = tuple[int, ...]
TermKey = tuple[DerivIndex, ...]


class MultiDiffOp(Frozen):
    __slots__ = ("dim", "arity", "terms")

    _defaults = {"terms": {}}

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
        return linear_combination([(1, self), (1, other)], self.dim, self.arity)

    def __sub__(self, other: "MultiDiffOp") -> "MultiDiffOp":
        self._check_compatible(other)
        return linear_combination([(1, self), (-1, other)], self.dim, self.arity)

    def __neg__(self) -> "MultiDiffOp":
        return linear_combination([(-1, self)], self.dim, self.arity)

    def scale(self, c) -> "MultiDiffOp":
        return linear_combination([(Fraction(c), self)], self.dim, self.arity)

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


def _skew_components(x: PolyVector) -> list[tuple[tuple[int, ...], dict]]:
    """The nonzero skew-extended components of x as (index tuple, term dict),
    in lexicographic index order."""
    out = []
    for key, poly in x.components.items():
        for idx in itertools.permutations(key):
            sign, _ = normalize_wedge(idx)
            terms = poly.terms if sign == 1 else {e: -c for e, c in poly.terms.items()}
            out.append((idx, terms))
    out.sort(key=lambda item: item[0])
    return out


def build_b_gamma(
    g: AdmissibleGraph, xs: Sequence[PolyVector], dim: int | None = None
) -> MultiDiffOp:
    """The multidifferential operator of an admissible graph.

    Aerial vertex v carries the skew tensor of xs[v-1]; each edge carries a
    summed coordinate index; the edge's partial derivative acts on the tensor
    coefficient or function at its endpoint.  Skew components are extended to
    all index orderings with signs.  The empty graph (n = 0) needs an explicit
    dim and yields the pointwise multiplication operator.

    The sum runs over the nonzero skew components of each vertex, vertex by
    vertex; derivatives of a component are computed once per (index tuple,
    derivative multi-index) and shared by vertices carrying the same tensor.
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

    # per distinct tensor: its skew components and a memo of their partials
    shared: dict[int, tuple[list, dict]] = {}
    vertices = [shared.setdefault(id(x), (_skew_components(x), {})) for x in xs]
    # derivative slot of each edge: aerial vertices 0..n-1, then boundary
    slots = [t - 1 if not is_boundary(t) else g.n - t - 1 for _, t in g.edges()]
    unit = {(0,) * d: Fraction(1)}
    acc: dict[TermKey, dict] = {}
    for combo in itertools.product(*(comps for comps, _ in vertices)):
        derivs = [[0] * d for _ in range(g.n + g.nbar)]
        flat = (i for idx, _ in combo for i in idx)
        for slot, i in zip(slots, flat):
            derivs[slot][i - 1] += 1
        coeff = unit
        for (idx, terms), (_, memo), deriv in zip(combo, vertices, derivs):
            k = tuple(deriv)
            part = memo.get((idx, k))
            if part is None:
                part = memo[idx, k] = partial_terms(terms, k)
            if not part:
                break
            # a product of nonzero polynomials is nonzero
            coeff = part if coeff is unit else mul_terms(coeff, part)
        else:
            key = tuple(tuple(b) for b in derivs[g.n :])
            sums = acc.setdefault(key, {})
            for exp, c in coeff.items():
                sums[exp] = sums.get(exp, 0) + c
    return from_sums(d, g.nbar, acc)


def from_sums(dim: int, arity: int, acc: dict[TermKey, dict]) -> MultiDiffOp:
    """The operator whose term `key` has coefficient term dict acc[key]."""
    terms = {}
    for key, sums in acc.items():
        clean = {exp: c for exp, c in sums.items() if c}
        if clean:
            terms[key] = Polynomial._trusted(dim, clean)
    return MultiDiffOp(dim, arity, terms)


def linear_combination(
    pairs: Iterable[tuple[Fraction, MultiDiffOp]], dim: int, arity: int
) -> MultiDiffOp:
    """sum c * op over the (c, op) pairs, accumulated in one pass."""
    acc: dict[TermKey, dict] = {}
    for c, op in pairs:
        for key, coeff in op.terms.items():
            sums = acc.setdefault(key, {})
            for exp, v in coeff.terms.items():
                sums[exp] = sums.get(exp, 0) + c * v
    return from_sums(dim, arity, acc)


# ---------------------------------------------------------------------------
# Gerstenhaber composition
# ---------------------------------------------------------------------------


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
                    (combo, factorial(count) // prod(map(factorial, combo)))
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


@functools.cache
def _splits(multi: DerivIndex, parts: int) -> tuple:
    """multiindex_splits(multi, parts) as a tuple, computed once per input."""
    return tuple(multiindex_splits(multi, parts))


def insert_into(
    acc: dict[TermKey, dict],
    scale,
    phi: MultiDiffOp,
    i: int,
    psi: MultiDiffOp,
    partials: dict | None = None,
) -> None:
    """Add scale * (phi o_i psi) to the term-dict accumulator acc, which maps
    a term key to its coefficient term dict (as from_sums reads it).

    partials memoises, per Leibniz split of a derivative multi-index, the
    terms of psi that split leaves nonzero: the derivatives it puts on psi's
    slots and the split's multiplicity times the derivative of the term's
    coefficient.  A caller inserting the same psi several times may pass one
    dict to all of those calls.  No argument is validated.
    """
    if partials is None:
        partials = {}
    parts = psi.arity + 1
    for pkey, pcoeff in phi.terms.items():
        head, tail = pkey[:i], pkey[i + 1 :]
        pterms = pcoeff.terms.items()
        if scale != 1:
            pterms = [(ea, scale * ca) for ea, ca in pterms]
        for pieces, mult in _splits(pkey[i], parts):
            split = partials.get(pieces)
            if split is None:
                split = partials[pieces] = _split_terms(psi, pieces, mult)
            for inner, part in split:
                sums = acc.setdefault(head + inner + tail, {})
                for ea, ca in pterms:
                    for eb, cb in part:
                        e = tuple(map(add, ea, eb))
                        prev = sums.get(e)
                        sums[e] = ca * cb if prev is None else prev + ca * cb


def _split_terms(psi: MultiDiffOp, pieces: TermKey, mult: int) -> list:
    """(slot derivatives, coefficient term items) of each term of psi that
    the Leibniz split pieces, of multiplicity mult, leaves nonzero:
    pieces[0] differentiates the coefficient and pieces[1:] add to the
    slots."""
    out = []
    for qkey, qcoeff in psi.terms.items():
        part = partial_terms(qcoeff.terms, pieces[0])
        if part:
            inner = tuple(tuple(map(add, qk, r)) for qk, r in zip(qkey, pieces[1:]))
            out.append((inner, [(e, mult * c) for e, c in part.items()]))
    return out


def insert(phi: MultiDiffOp, i: int, psi: MultiDiffOp) -> MultiDiffOp:
    """The single composition phi o_i psi (no sign): slot i of phi consumes
    the output of psi; phi's derivative on that slot Leibniz-distributes over
    psi's coefficient and argument slots."""
    if phi.dim != psi.dim:
        raise ValueError("dimension mismatch")
    if not 0 <= i <= phi.arity - 1:
        raise ValueError("insertion slot out of range")
    acc: dict[TermKey, dict] = {}
    insert_into(acc, 1, phi, i, psi)
    return from_sums(phi.dim, phi.arity + psi.arity - 1, acc)


def compose_gerstenhaber(phi: MultiDiffOp, psi: MultiDiffOp) -> MultiDiffOp:
    """phi o psi = sum_{0 <= i <= m} (-1)^{i n} phi o_i psi, m/n shifted degrees."""
    if phi.dim != psi.dim:
        raise ValueError("dimension mismatch")
    m, n = phi.degree, psi.degree
    acc: dict[TermKey, dict] = {}
    partials: dict = {}
    for i in range(m + 1):
        insert_into(acc, -1 if (i * n) % 2 else 1, phi, i, psi, partials)
    return from_sums(phi.dim, phi.arity + psi.arity - 1, acc)


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
    # one term per skew index tuple: a first-order derivative in each slot
    terms = {
        tuple(tuple(int(j == i) for j in range(1, d + 1)) for i in idx):
            Polynomial(d, {e: inv * c for e, c in comp.items()})
        for idx, comp in _skew_components(xi)
    }
    return MultiDiffOp(d, k, terms)
