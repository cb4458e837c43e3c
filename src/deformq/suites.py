"""The randomised identity suites behind `check hochschild` and `check
wick`, each returning the report the CLI prints.  They run on no `star` or
`check assoc` request, so the CLI imports this module only for them.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from deformq.closedform import moyal, moyal_via_wick
from deformq.operators import MultiDiffOp, gerstenhaber_bracket, hkr, hochschild_d
from deformq.polyalg import Polynomial, PolyVector


def hochschild_report(seed: int) -> dict:
    """`check hochschild`: d^2 = 0, the graded Jacobi identity of the
    Gerstenhaber bracket and closedness of HKR images, on operators and
    polyvectors drawn from random.Random(seed)."""
    rng = random.Random(seed)

    def rand_poly(dim, maxdeg=2):
        terms = {}
        for _ in range(2):
            key = tuple(rng.randint(0, maxdeg) for _ in range(dim))
            if sum(key) <= maxdeg:
                terms[key] = Fraction(rng.randint(-2, 2))
        return Polynomial(dim, terms)

    def rand_op(dim, arity):
        terms = {}
        for _ in range(2):
            key = []
            for _ in range(arity):
                deriv = [0] * dim
                for _ in range(rng.randint(0, 2)):
                    deriv[rng.randrange(dim)] += 1
                key.append(tuple(deriv))
            terms[tuple(key)] = rand_poly(dim)
        return MultiDiffOp(dim, arity, terms)

    d_squared_ok = all(
        hochschild_d(hochschild_d(rand_op(rng.choice([2, 3]), rng.randint(1, 3)))).is_zero
        for _ in range(20)
    )
    jacobi_ok = True
    for _ in range(8):
        dim = 2
        phi, psi, chi = (rand_op(dim, rng.randint(1, 2)) for _ in range(3))
        m, n = phi.degree, psi.degree
        lhs = gerstenhaber_bracket(phi, gerstenhaber_bracket(psi, chi))
        rhs = gerstenhaber_bracket(gerstenhaber_bracket(phi, psi), chi) + (
            gerstenhaber_bracket(psi, gerstenhaber_bracket(phi, chi)).scale(
                (-1) ** (m * n)
            )
        )
        if lhs != rhs:
            jacobi_ok = False
    hkr_ok = True
    for _ in range(8):
        dim = rng.choice([2, 3])
        degree = rng.randint(1, min(3, dim))
        comps = {}
        for key in itertools.combinations(range(1, dim + 1), degree):
            comps[key] = rand_poly(dim)
        xi = PolyVector(dim, degree, comps)
        if not hochschild_d(hkr(xi)).is_zero:
            hkr_ok = False
    return {
        "check": "hochschild",
        "d_squared_zero": d_squared_ok,
        "gerstenhaber_jacobi": jacobi_ok,
        "hkr_closed": hkr_ok,
        "pass": d_squared_ok and jacobi_ok and hkr_ok,
    }


def wick_report(order: int, seed: int) -> dict:
    """`check wick`: the closed-form Moyal product against its Wick-pairing
    oracle at `order`, on constant bivectors and polynomials drawn from
    random.Random(seed)."""
    rng = random.Random(seed)
    failures = 0
    trials = 20
    for _ in range(trials):
        dim = rng.randint(1, 4)
        comps = {}
        for i in range(1, dim + 1):
            for j in range(i + 1, dim + 1):
                comps[(i, j)] = Polynomial.const(
                    dim, Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                )
        pi = PolyVector(dim, 2, comps)
        terms = {}
        for _ in range(3):
            key = tuple(rng.randint(0, 3) for _ in range(dim))
            if sum(key) <= 3:
                terms[key] = Fraction(rng.randint(-3, 3))
        f = Polynomial(dim, terms)
        g = Polynomial(
            dim,
            {
                tuple(rng.randint(0, 1) for _ in range(dim)): Fraction(
                    rng.randint(-3, 3)
                )
            },
        )
        if moyal(pi, f, g, order).coeffs != moyal_via_wick(pi, f, g, order).coeffs:
            failures += 1
    return {
        "check": "wick",
        "order": order,
        "trials": trials,
        "failures": failures,
        "pass": failures == 0,
    }
