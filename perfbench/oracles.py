"""Output oracles for the benchmark, written without any deformq code.

A polynomial here is a plain dict from exponent tuples (entry i is the
exponent of x_{i+1}) to Fractions, with no zero coefficients.  A bivector
`pi` is a dict {(i, j): polynomial} over 1-based pairs i < j; unlisted
components are zero and the rest follow by skew symmetry.

A check returns None (or, for checks over many items, an empty list) when
the output is right, and one-line reasons when it is wrong, so a caller can
count failures without catching exceptions.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
from fractions import Fraction

_FACTOR = re.compile(r"^x(\d+)(?:\^(\d+))?$")
_COEFF = re.compile(r"^\d+(?:/\d+)?$")


# ---------------------------------------------------------------------------
# polynomial arithmetic on dicts
# ---------------------------------------------------------------------------


def add(p: dict, q: dict, scale=1) -> dict:
    out = dict(p)
    for key, c in q.items():
        out[key] = out.get(key, 0) + scale * c
    return {k: Fraction(v) for k, v in out.items() if v != 0}


def mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for ka, ca in p.items():
        for kb, cb in q.items():
            key = tuple(a + b for a, b in zip(ka, kb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: Fraction(v) for k, v in out.items() if v != 0}


def derive(p: dict, counts) -> dict:
    """Mixed partial derivative; counts[i] differentiations in x_{i+1}."""
    out = {}
    for key, c in p.items():
        if any(e < k for e, k in zip(key, counts)):
            continue
        factor = 1
        for e, k in zip(key, counts):
            factor *= math.perm(e, k)
        out[tuple(e - k for e, k in zip(key, counts))] = c * factor
    return out


def evaluate(p: dict, point) -> Fraction:
    total = Fraction(0)
    for key, c in p.items():
        term = Fraction(c)
        for x, e in zip(point, key):
            term *= Fraction(x) ** e
        total += term
    return total


def unit(dim: int, i: int) -> tuple:
    """Derivative counts for one differentiation in x_i (1-based)."""
    return tuple(1 if k == i - 1 else 0 for k in range(dim))


def parse(text: str, dim: int) -> dict:
    """The CLI grammar `[+-][coef] [x<i>[^e]]*`, e.g. `- 3/2 x1^2 x3 + x2`."""
    out: dict = {}
    sign, coeff, exps, seen = 1, Fraction(1), [0] * dim, False

    def flush():
        if not seen:
            raise ValueError(f"empty term in {text!r}")
        key = tuple(exps)
        out[key] = out.get(key, 0) + sign * coeff

    for tok in text.replace("+", " + ").replace("-", " - ").split():
        if tok in "+-":
            if seen:
                flush()
            sign, coeff, exps, seen = (1 if tok == "+" else -1), Fraction(1), [0] * dim, False
        elif _COEFF.match(tok):
            coeff *= Fraction(tok)
            seen = True
        else:
            m = _FACTOR.match(tok)
            if not m or not 1 <= int(m.group(1)) <= dim:
                raise ValueError(f"bad factor {tok!r} in {text!r}")
            exps[int(m.group(1)) - 1] += int(m.group(2) or 1)
            seen = True
    flush()
    return {k: Fraction(v) for k, v in out.items() if v != 0}


def fmt(p: dict) -> str:
    """Render in the CLI grammar (the benchmark's inputs use this)."""
    if not p:
        return "0"
    parts = []
    for key in sorted(p):
        c = p[key]
        body = [f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(key) if e]
        if abs(c) != 1 or not body:
            body.insert(0, str(abs(c)))
        parts.append(("- " if c < 0 else "+ ") + " ".join(body))
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


# ---------------------------------------------------------------------------
# reference values
# ---------------------------------------------------------------------------


def pi_component(pi: dict, i: int, j: int) -> tuple[int, dict]:
    """(sign, polynomial) with pi^{ij} = sign * polynomial, 1-based."""
    if i == j:
        return 0, {}
    if i < j:
        return 1, pi.get((i, j), {})
    return -1, pi.get((j, i), {})


def poisson_bracket(pi: dict, f: dict, g: dict, dim: int) -> dict:
    """sum over all i, j of pi^{ij} d_i f d_j g."""
    total: dict = {}
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            sign, comp = pi_component(pi, i, j)
            if sign:
                term = mul(comp, mul(derive(f, unit(dim, i)), derive(g, unit(dim, j))))
                total = add(total, term, sign)
    return total


def moyal(pi: dict, f: dict, g: dict, dim: int, order: int) -> list[dict]:
    """Coefficients of exp(h pi^{ij} d_i (x) d_j) (f, g), pi constant."""
    pairs = [(i, j) for i in range(1, dim + 1) for j in range(1, dim + 1) if i != j]
    out = []
    for k in range(order + 1):
        total: dict = {}
        for chosen in itertools.product(pairs, repeat=k):
            weight = Fraction(1, math.factorial(k))
            df, dg = [0] * dim, [0] * dim
            for i, j in chosen:
                sign, comp = pi_component(pi, i, j)
                weight *= sign * comp.get((0,) * dim, 0)
                df[i - 1] += 1
                dg[j - 1] += 1
            if weight:
                total = add(total, mul(derive(f, df), derive(g, dg)), weight)
        out.append(total)
    return out


def b_gamma_at(stars, pi: dict, f: dict, g: dict, point, dim: int) -> Fraction:
    """B_Gamma(pi, ..., pi)(f, g) at a point, summed over every assignment of
    a coordinate index to each edge.  Stars use the graph-id encoding: k > 0
    is aerial vertex k, -1 and -2 are the boundary vertices carrying f and g.
    """
    edges = [(v, t) for v, star in enumerate(stars, start=1) for t in star]
    total = Fraction(0)
    for assign in itertools.product(range(1, dim + 1), repeat=len(edges)):
        derivs = {v: [0] * dim for v in [*range(1, len(stars) + 1), -1, -2]}
        for (_, t), i in zip(edges, assign):
            derivs[t][i - 1] += 1
        value = evaluate(derive(f, derivs[-1]), point) * evaluate(derive(g, derivs[-2]), point)
        pos = 0
        for v, star in enumerate(stars, start=1):
            sign, comp = pi_component(pi, *assign[pos : pos + len(star)])
            pos += len(star)
            value *= sign * evaluate(derive(comp, derivs[v]), point)
            if not value:
                break
        total += value
    return total


def op_at(terms: dict, f: dict, g: dict, point) -> Fraction:
    """A bidifferential operator {(K_f, K_g): coefficient} applied to (f, g)
    and evaluated at a point."""
    return sum(
        (
            evaluate(coeff, point)
            * evaluate(derive(f, kf), point)
            * evaluate(derive(g, kg), point)
            for (kf, kg), coeff in terms.items()
        ),
        Fraction(0),
    )


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_digest(text: str, expected: str | None) -> str | None:
    if expected is None:
        return "no reference digest for this input"
    if digest(text) != expected:
        return "output digest differs from the reference"
    return None


def check_star(stdout: str, pi: dict, f: dict, g: dict, dim: int, order: int) -> str | None:
    """Order 0 is f g, order 1 the Poisson bracket; for a constant pi the
    whole series is the Moyal product."""
    try:
        coeffs = [parse(c, dim) for c in json.loads(stdout)["coeffs"]]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable star output: {exc}"
    if len(coeffs) != order + 1:
        return f"expected {order + 1} coefficients, got {len(coeffs)}"
    if coeffs[0] != mul(f, g):
        return "order 0 differs from f g"
    if order >= 1 and coeffs[1] != poisson_bracket(pi, f, g, dim):
        return "order 1 differs from the Poisson bracket"
    constant = all(set(c) <= {(0,) * dim} for c in pi.values())
    if constant and coeffs != moyal(pi, f, g, dim, order):
        return "series differs from the Moyal product"
    return None


def check_assoc(returncode: int, stdout: str) -> str | None:
    if returncode != 0:
        return f"check assoc exited {returncode}"
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return f"unreadable assoc output: {exc}"
    if report.get("pass") is not True or report.get("failures") != 0:
        return "check assoc reports a failure"
    return None


def check_weights(saved: dict, committed: dict, gids) -> list[str]:
    """Every graph's snapped weight equals the committed table's."""
    bad = []
    for gid in gids:
        got = saved.get(gid, {}).get("snapped")
        want = committed[gid]["snapped"]
        if got is None:
            bad.append(f"{gid}: not snapped")
        elif Fraction(got) != Fraction(want):
            bad.append(f"{gid}: snapped {got}, committed {want}")
    return bad


def check_operator_sample(ops: dict, sample, pi: dict, f: dict, g: dict, point, dim: int) -> list[str]:
    """ops maps star tuples to operator terms; a graph missing from ops has
    the zero operator.  Each sampled graph's operator, applied to (f, g) at
    the point, must equal the direct index sum."""
    bad = []
    for stars in sample:
        got = op_at(ops.get(stars, {}), f, g, point)
        want = b_gamma_at(stars, pi, f, g, point, dim)
        if got != want:
            bad.append(f"{stars}: operator gives {got}, index sum gives {want}")
    return bad


def operators_text(ops: dict) -> str:
    """Canonical text of {stars: {(K_f, K_g): polynomial}} for digests."""
    lines = []
    for stars in sorted(ops):
        terms = ops[stars]
        for key in sorted(terms):
            coeff = ",".join(f"{e}:{c}" for e, c in sorted(terms[key].items()))
            lines.append(f"{stars}|{key}|{coeff}")
    return "\n".join(lines)
