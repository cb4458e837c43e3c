"""Exact polynomial and polyvector-field algebra on R^d.

Polynomials are sparse maps from exponent tuples to rational coefficients
(fractions.Fraction), so every identity check in this package is exact.
Variables are 1-based (x1 .. xd) in the public API and in the text grammar;
exponent tuples are positional (entry i-1 is the exponent of xi).

Polyvector fields of degree k store one Polynomial per strictly increasing
k-tuple of variable indices.  Wedge monomials with repeated or unsorted
indices are normalized on construction with the usual sign.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

Exponent = tuple[int, ...]


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


@dataclass(frozen=True)
class Polynomial:
    """Multivariate polynomial with exact rational coefficients."""

    dim: int
    terms: Mapping[Exponent, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for key, coeff in self.terms.items():
            if len(key) != self.dim:
                raise ValueError(f"exponent {key} has length != dim {self.dim}")
            if any(e < 0 for e in key):
                raise ValueError(f"negative exponent in {key}")
            coeff = _as_fraction(coeff)
            if coeff != 0:
                clean[tuple(key)] = coeff
        object.__setattr__(self, "terms", clean)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(dim: int) -> "Polynomial":
        return Polynomial(dim, {})

    @staticmethod
    def const(dim: int, value) -> "Polynomial":
        return Polynomial(dim, {(0,) * dim: _as_fraction(value)})

    @staticmethod
    def var(dim: int, i: int) -> "Polynomial":
        """The coordinate polynomial x_i, 1-based."""
        if not 1 <= i <= dim:
            raise ValueError(f"variable index {i} out of range 1..{dim}")
        exp = [0] * dim
        exp[i - 1] = 1
        return Polynomial(dim, {tuple(exp): Fraction(1)})

    @classmethod
    def _trusted(cls, dim: int, terms: dict[Exponent, Fraction]) -> "Polynomial":
        """Wrap a term dict that is already clean (exponent tuples of length
        dim, nonzero Fraction coefficients) without re-validating it."""
        p = object.__new__(cls)
        object.__setattr__(p, "dim", dim)
        object.__setattr__(p, "terms", terms)
        return p

    # -- ring operations ---------------------------------------------------

    def _check_dim(self, other: "Polynomial"):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} != {other.dim}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_dim(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + coeff
        return Polynomial(self.dim, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.dim, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_dim(other)
        out: dict[Exponent, Fraction] = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                key = tuple(a + b for a, b in zip(ka, kb))
                out[key] = out.get(key, Fraction(0)) + ca * cb
        return Polynomial(self.dim, out)

    def __rmul__(self, other) -> "Polynomial":
        return self * other

    def scale(self, c) -> "Polynomial":
        c = _as_fraction(c)
        return Polynomial(self.dim, {k: c * v for k, v in self.terms.items()})

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        out = Polynomial.const(self.dim, 1)
        for _ in range(n):
            out = out * self
        return out

    # -- calculus ----------------------------------------------------------

    def partial(self, i: int) -> "Polynomial":
        """Exact partial derivative with respect to x_i (1-based)."""
        if not 1 <= i <= self.dim:
            raise ValueError(f"variable index {i} out of range 1..{self.dim}")
        out: dict[Exponent, Fraction] = {}
        pos = i - 1
        for key, coeff in self.terms.items():
            e = key[pos]
            if e == 0:
                continue
            new = list(key)
            new[pos] = e - 1
            out[tuple(new)] = coeff * e
        return Polynomial(self.dim, out)

    def partial_multi(self, multi: Sequence[int]) -> "Polynomial":
        """Apply the derivative multi-index (counts per variable, positional)."""
        p = self
        for pos, count in enumerate(multi):
            for _ in range(count):
                p = p.partial(pos + 1)
                if p.is_zero:
                    return p
        return p

    def evaluate(self, point: Sequence) -> Fraction:
        vals = [_as_fraction(v) for v in point]
        total = Fraction(0)
        for key, coeff in self.terms.items():
            term = coeff
            for e, v in zip(key, vals):
                if e:
                    term *= v ** e
            total += term
        return total

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(k) for k in self.terms), default=0)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.dim, Fraction(0))

    def is_constant(self) -> bool:
        return all(sum(k) == 0 for k in self.terms)

    # -- text grammar ------------------------------------------------------

    def __str__(self) -> str:
        return format_polynomial(self)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.dim == other.dim
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))


_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")
_COEFF_RE = re.compile(r"^-?\d+(?:/\d+)?$")


def parse_polynomial(text: str, dim: int) -> Polynomial:
    """Parse the term grammar `[+-][coef] [x<i>[^e]]*`, e.g. `3/2 x1^2 x3 - x2`."""
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial string")
    # split into signed terms at top-level +/-
    chunks: list[tuple[int, str]] = []
    sign, buf = 1, []
    first = True
    for tok in s.replace("+", " + ").replace("-", " - ").split():
        if tok == "+" or tok == "-":
            if buf:
                chunks.append((sign, " ".join(buf)))
                buf = []
            elif not first:
                raise ValueError(f"dangling sign in {text!r}")
            sign = 1 if tok == "+" else -1
            first = False
            continue
        buf.append(tok)
        first = False
    if buf:
        chunks.append((sign, " ".join(buf)))
    if not chunks:
        raise ValueError(f"no terms in {text!r}")

    total = Polynomial.zero(dim)
    for sgn, chunk in chunks:
        coeff = Fraction(sgn)
        exps = [0] * dim
        saw_factor = False
        for factor in chunk.split():
            if _COEFF_RE.match(factor):
                coeff *= Fraction(factor)
                saw_factor = True
                continue
            m = _FACTOR_RE.match(factor)
            if not m:
                raise ValueError(f"bad factor {factor!r} in {text!r}")
            idx = int(m.group(1))
            if not 1 <= idx <= dim:
                raise ValueError(f"variable x{idx} out of range 1..{dim}")
            exps[idx - 1] += int(m.group(2) or 1)
            saw_factor = True
        if not saw_factor:
            raise ValueError(f"empty term in {text!r}")
        total = total + Polynomial(dim, {tuple(exps): coeff})
    return total


def format_polynomial(p: Polynomial) -> str:
    """Deterministic rendering (terms in lexicographic exponent order)."""
    if p.is_zero:
        return "0"
    parts = []
    for key in sorted(p.terms):
        coeff = p.terms[key]
        factors = [
            f"x{i + 1}" + (f"^{e}" if e > 1 else "")
            for i, e in enumerate(key)
            if e
        ]
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = " ".join(factors)
        else:
            body = " ".join([str(mag)] + factors)
        if not parts:
            parts.append(body if coeff > 0 else f"- {body}")
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Formal power series truncations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FormalSeries:
    """Truncated power series in the formal parameter h.

    coeffs[k] is the coefficient of h^k; len(coeffs) == order + 1.  The value
    type is arbitrary (Polynomial, MultiDiffOp, ...); products go through
    truncated_product.
    """

    order: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coeffs length must be order + 1")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    def __getitem__(self, k: int):
        return self.coeffs[k]

    def sub(self, other: "FormalSeries") -> "FormalSeries":
        order = min(self.order, other.order)
        return FormalSeries(
            order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )


def truncated_product(
    factors: Sequence[Sequence], order: int, term: Callable, zero
) -> list:
    """Coefficients h^0 .. h^order of the Cauchy product of the factors.

    factors[m][i] is the h^i coefficient of the m-th factor.  The h^r
    coefficient is zero plus term(factors[0][i_0], ..., factors[-1][i_last])
    summed over every index tuple with i_0 + ... + i_last = r, taken in
    lexicographic order, so a list-valued term sums in a fixed order.
    """
    out = []
    for r in range(order + 1):
        acc = zero
        for head in itertools.product(range(r + 1), repeat=len(factors) - 1):
            last = r - sum(head)
            if last < 0:
                continue
            idx = head + (last,)
            acc = acc + term(*(f[i] for f, i in zip(factors, idx)))
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# Polyvector fields
# ---------------------------------------------------------------------------

IndexTuple = tuple[int, ...]


def normalize_wedge(indices: Sequence[int]) -> tuple[int, IndexTuple]:
    """Sort a wedge index tuple; return (sign, sorted tuple), sign 0 on repeats."""
    idx = list(indices)
    if len(set(idx)) != len(idx):
        return 0, ()
    sign = 1
    # insertion sort, counting transpositions
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(idx)


@dataclass(frozen=True)
class PolyVector:
    """Skew multivector field of degree k with Polynomial components.

    components maps strictly increasing 1-based index tuples to Polynomial
    coefficients; a degree-0 polyvector is a polynomial keyed by ().
    """

    dim: int
    degree: int
    components: Mapping[IndexTuple, Polynomial] = field(default_factory=dict)

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        clean = {}
        for key, poly in self.components.items():
            key = tuple(key)
            if len(key) != self.degree:
                raise ValueError(f"key {key} has length != degree {self.degree}")
            if any(not 1 <= i <= self.dim for i in key):
                raise ValueError(f"index out of range in {key}")
            if list(key) != sorted(set(key)):
                raise ValueError(f"key {key} not strictly increasing")
            if poly.dim != self.dim:
                raise ValueError("component dimension mismatch")
            if not poly.is_zero:
                clean[key] = poly
        object.__setattr__(self, "components", clean)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(dim: int, degree: int) -> "PolyVector":
        return PolyVector(dim, degree, {})

    @staticmethod
    def from_terms(
        dim: int, degree: int, terms: Iterable[tuple[Sequence[int], Polynomial]]
    ) -> "PolyVector":
        """Build from possibly unsorted wedge monomials, normalizing signs."""
        acc: dict[IndexTuple, Polynomial] = {}
        for indices, poly in terms:
            sign, key = normalize_wedge(indices)
            if sign == 0 or poly.is_zero:
                continue
            contrib = poly if sign == 1 else -poly
            acc[key] = acc[key] + contrib if key in acc else contrib
        return PolyVector(dim, degree, acc)

    @staticmethod
    def from_function(poly: Polynomial) -> "PolyVector":
        return PolyVector(poly.dim, 0, {(): poly})

    @staticmethod
    def basis_vector(dim: int, i: int) -> "PolyVector":
        """The coordinate vector field for x_i."""
        return PolyVector(dim, 1, {(i,): Polynomial.const(dim, 1)})

    # -- algebra -----------------------------------------------------------

    def component(self, indices: Sequence[int]) -> Polynomial:
        """Skew-extended component lookup for an arbitrary index tuple."""
        sign, key = normalize_wedge(indices)
        if sign == 0:
            return Polynomial.zero(self.dim)
        poly = self.components.get(key)
        if poly is None:
            return Polynomial.zero(self.dim)
        return poly if sign == 1 else -poly

    def __add__(self, other: "PolyVector") -> "PolyVector":
        if (self.dim, self.degree) != (other.dim, other.degree):
            raise ValueError("dimension or degree mismatch")
        out = dict(self.components)
        for key, poly in other.components.items():
            out[key] = out[key] + poly if key in out else poly
        return PolyVector(self.dim, self.degree, out)

    def __sub__(self, other: "PolyVector") -> "PolyVector":
        return self + (-other)

    def __neg__(self) -> "PolyVector":
        return PolyVector(
            self.dim, self.degree, {k: -p for k, p in self.components.items()}
        )

    def scale(self, c) -> "PolyVector":
        c = _as_fraction(c)
        return PolyVector(
            self.dim, self.degree, {k: p.scale(c) for k, p in self.components.items()}
        )

    def wedge(self, other: "PolyVector") -> "PolyVector":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        terms = []
        for ka, pa in self.components.items():
            for kb, pb in other.components.items():
                terms.append((ka + kb, pa * pb))
        return PolyVector.from_terms(self.dim, self.degree + other.degree, terms)

    @property
    def is_zero(self) -> bool:
        return not self.components

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyVector)
            and (self.dim, self.degree) == (other.dim, other.degree)
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.dim, self.degree, frozenset(self.components.items())))


# ---------------------------------------------------------------------------
# Schouten-Nijenhuis bracket
# ---------------------------------------------------------------------------


def _lie_bracket_parts(
    a: Polynomial, p: int, b: Polynomial, q: int
) -> list[tuple[Polynomial, int]]:
    """[a d_p, b d_q] = a (d_p b) d_q - b (d_q a) d_p, as (coefficient, index)."""
    parts = []
    dpb = b.partial(p)
    if not dpb.is_zero:
        parts.append((a * dpb, q))
    dqa = a.partial(q)
    if not dqa.is_zero:
        parts.append((-(b * dqa), p))
    return parts


def _bracket_function_vector(f: Polynomial, Y: PolyVector) -> PolyVector:
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


def schouten(X: PolyVector, Y: PolyVector) -> PolyVector:
    """Schouten-Nijenhuis bracket [X, Y], degree |X| + |Y| - 1.

    Each component f d_{k1} ^ ... ^ d_{km} is treated as the decomposable
    wedge (f d_{k1}) ^ d_{k2} ^ ... and the double-sum formula over Lie
    brackets of the factors is applied; the bracket of two functions is zero.
    """
    if X.dim != Y.dim:
        raise ValueError("dimension mismatch")
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
                        rest = (
                            (r,)
                            + kx[: i - 1]
                            + kx[i:]
                            + ky[: j - 1]
                            + ky[j:]
                        )
                        terms.append((rest, coeff))
    return PolyVector.from_terms(X.dim, m + n - 1, terms)


def poisson_bracket(pi: PolyVector, f: Polynomial, g: Polynomial) -> Polynomial:
    """{f, g} = sum_{i<j} pi^{ij} (d_i f d_j g - d_j f d_i g)."""
    if pi.degree != 2:
        raise ValueError("poisson_bracket requires a bivector")
    if pi.dim != f.dim or pi.dim != g.dim:
        raise ValueError("dimension mismatch")
    total = Polynomial.zero(pi.dim)
    for (i, j), comp in pi.components.items():
        total = total + comp * (f.partial(i) * g.partial(j) - f.partial(j) * g.partial(i))
    return total


def jacobiator(pi: PolyVector) -> PolyVector:
    """[pi, pi]; the bivector is Poisson iff this trivector vanishes."""
    if pi.degree != 2:
        raise ValueError("jacobiator requires a bivector")
    return schouten(pi, pi)
