"""Exact polynomial and polyvector-field algebra on R^d.

Polynomials are sparse maps from exponent tuples to rational coefficients
(fractions.Fraction), so every identity check in this package is exact.
Variables are 1-based (x1 .. xd) in the public API and in the text grammar;
exponent tuples are positional (entry i-1 is the exponent of xi).

Two term-dict kernels, `partial_terms` (a derivative multi-index) and
`mul_terms` (a product), are the only implementations of differentiation
and multiplication: `Polynomial.partial_multi`, `Polynomial.partial` and
`Polynomial.__mul__` wrap them, and the operator code in `operators` calls
them on raw term dicts.

Polyvector fields of degree k store one Polynomial per strictly increasing
k-tuple of variable indices.  Wedge monomials with repeated or unsorted
indices are normalized on construction with the usual sign.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from deformq.record import Frozen

Exponent = tuple[int, ...]


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def partial_terms(terms: Mapping, multi: Sequence[int]) -> dict:
    """The term dict of d^multi applied to a term dict, in one pass.

    multi holds one nonnegative count per variable; it is not validated."""
    out = {}
    for exp, coeff in terms.items():
        if any(e < k for e, k in zip(exp, multi)):
            continue
        for e, k in zip(exp, multi):
            for j in range(k):
                coeff = coeff * (e - j)
        out[tuple(e - k for e, k in zip(exp, multi))] = coeff
    return out


def mul_terms(a: Mapping, b: Mapping) -> dict:
    """The term dict of the product of two term dicts, zeros dropped."""
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


class Polynomial(Frozen):
    """Multivariate polynomial with exact rational coefficients."""

    __slots__ = ("dim", "terms")

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

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_dim(other)
        return Polynomial._trusted(self.dim, mul_terms(self.terms, other.terms))

    def scale(self, c) -> "Polynomial":
        c = _as_fraction(c)
        return Polynomial(self.dim, {k: c * v for k, v in self.terms.items()})

    # -- calculus ----------------------------------------------------------

    def partial(self, i: int) -> "Polynomial":
        """Exact partial derivative with respect to x_i (1-based)."""
        if not 1 <= i <= self.dim:
            raise ValueError(f"variable index {i} out of range 1..{self.dim}")
        unit = [0] * self.dim
        unit[i - 1] = 1
        return self.partial_multi(unit)

    def partial_multi(self, multi: Sequence[int]) -> "Polynomial":
        """Apply the derivative multi-index (counts per variable, positional)."""
        if len(multi) != self.dim or any(k < 0 for k in multi):
            raise ValueError(
                f"derivative multi-index {tuple(multi)} needs {self.dim} "
                "counts >= 0"
            )
        return Polynomial._trusted(self.dim, partial_terms(self.terms, multi))

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


_FACTOR_RE = re.compile(r"^x([0-9]+)(?:\^([0-9]+))?$")
_COEFF_RE = re.compile(r"^-?[0-9]+(?:/[0-9]+)?$")


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
    elif chunks:  # a sign after the last term
        raise ValueError(f"dangling sign in {text!r}")
    if not chunks:
        raise ValueError(f"no terms in {text!r}")

    total = Polynomial.zero(dim)
    for sgn, chunk in chunks:
        coeff = Fraction(sgn)
        exps = [0] * dim
        for factor in chunk.split():
            if _COEFF_RE.match(factor):
                try:
                    coeff *= Fraction(factor)
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator in {text!r}") from None
                continue
            m = _FACTOR_RE.match(factor)
            if not m:
                raise ValueError(f"bad factor {factor!r} in {text!r}")
            idx = int(m.group(1))
            if not 1 <= idx <= dim:
                raise ValueError(f"variable x{idx} out of range 1..{dim}")
            exps[idx - 1] += int(m.group(2) or 1)
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


class FormalSeries(Frozen):
    """Truncated power series in the formal parameter h.

    coeffs[k] is the coefficient of h^k; len(coeffs) == order + 1.  The value
    type is arbitrary (Polynomial, MultiDiffOp, ...); products go through
    truncated_product.
    """

    __slots__ = ("order", "coeffs")

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


class PolyVector(Frozen):
    """Skew multivector field of degree k with Polynomial components.

    components maps strictly increasing 1-based index tuples to Polynomial
    coefficients; a degree-0 polyvector is a polynomial keyed by ().
    """

    __slots__ = ("dim", "degree", "components")

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


# ---------------------------------------------------------------------------
# Schouten-Nijenhuis bracket
# ---------------------------------------------------------------------------


def schouten(X: PolyVector, Y: PolyVector) -> PolyVector:
    """Schouten-Nijenhuis bracket [X, Y], degree |X| + |Y| - 1.

    Read as functions of x and odd coordinates xi (d_k ^ ... as xi_k ...),

        [X, Y] = sum_i (X d<-/dxi_i)(d_i Y) - (d_i X)(d->/dxi_i Y).

    The first odd derivative acts from the right, so removing position j of
    a k-tuple gives the sign (-1)^(k-1-j); the second acts from the left,
    sign (-1)^j.  On vector fields this is the Lie bracket, [X, f] = X(f)
    and [f, X] = -X(f); the bracket of two functions is zero.
    """
    if X.dim != Y.dim:
        raise ValueError("dimension mismatch")
    m, n = X.degree, Y.degree
    if m == 0 and n == 0:
        return PolyVector.zero(X.dim, 0)
    terms = []
    for kx, f in X.components.items():
        for ky, g in Y.components.items():
            for j, i in enumerate(kx):
                dg = g.partial(i)
                if not dg.is_zero:
                    terms.append(((m - 1 - j) % 2, kx[:j] + kx[j + 1 :] + ky, f * dg))
            for j, i in enumerate(ky):
                df = f.partial(i)
                if not df.is_zero:
                    terms.append(((j + 1) % 2, kx + ky[:j] + ky[j + 1 :], df * g))
    return PolyVector.from_terms(
        X.dim, m + n - 1, ((idx, -p if odd else p) for odd, idx, p in terms)
    )


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
