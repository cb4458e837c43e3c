"""Seeded inputs for the three workloads.

Every input comes from `random.Random` seeded with a string, so the same
seed gives the same inputs on any machine.  warm-cli and order3-assembly
draw their inputs from fixed pools (`WARM_POOL` variants per family,
`ORDER3_POOL` structures) whose output digests are recorded in
reference.json; the workload seed picks which pool members a run uses and
in which order.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import oracles

TABLE_SEED = 2024  # the MC seed of the committed weight table (README)
INITIAL_SAMPLES = 1_000_000

WARM_POOL = 16
ORDER3_POOL = 24
WARM_REQUESTS = 100  # the least count that leaves ten requests above p90

# One closed-loop cycle of warm-cli requests.  A fixed cycle keeps the mix
# of families and commands, and so the latency distribution, the same for
# every seed; the seed varies only the structures and factors.  The slowest
# slot (4-D assoc, 1/8 of requests) holds more than the 10% of requests
# above p90, so p90 falls inside it: assoc requests form the tail.
WARM_CYCLE = [
    ("const4", "assoc"),
    ("so3", "star"),
    ("nambu", "star"),
    ("plane", "assoc"),
    ("const4", "star"),
    ("so3", "assoc"),
    ("nambu", "assoc"),
    ("plane", "star"),
]

_COEFFS = [Fraction(c) for c in (1, -1, 2, -2, 3, -3, "1/2", "-1/2", "3/2", "-2/3")]


def _monomials(dim: int, degree: int) -> list[tuple]:
    return [e for e in itertools.product(range(degree + 1), repeat=dim) if sum(e) == degree]


def _random_poly(rng: random.Random, dim: int, terms: int, degrees) -> dict:
    pool = [m for d in degrees for m in _monomials(dim, d)]
    return {m: rng.choice(_COEFFS) for m in rng.sample(pool, terms)}


# ---------------------------------------------------------------------------
# cold-weights
# ---------------------------------------------------------------------------


def cold_graph_ids(seed: int, committed: dict) -> list[str]:
    """Order-1 graphs plus a seeded order-2 sample drawn by stratum, so every
    seed pays the same mix: one graph that needs two snap rounds (1M then 4M
    samples), one of the 8 graphs whose weight is zero only within float
    noise, and two parallel-edge graphs that are zero by rule.  The one graph
    that needs 16M samples (about a minute alone) is left out."""
    order2 = {gid: e for gid, e in committed.items() if gid.startswith("2;")}
    two_rounds = sorted(g for g, e in order2.items() if e["samples"] == 4 * INITIAL_SAMPLES)
    noise_zero = sorted(g for g, e in order2.items() if e["stderr"] > 0 and e["snapped"] == "0")
    parallel = sorted(g for g, e in order2.items() if e["stderr"] == 0)
    rng = random.Random(f"cold-weights/{seed}")
    order1 = sorted(g for g in committed if g.startswith("1;"))
    return order1 + [rng.choice(two_rounds), rng.choice(noise_zero), *rng.sample(parallel, 2)]


# ---------------------------------------------------------------------------
# warm-cli
# ---------------------------------------------------------------------------


def warm_item(family: str, variant: int) -> dict:
    """A Poisson structure with factors f and g, as oracle polynomials.

    so3: the Lie-Poisson structure of so(3).  nambu: pi^{ij} = eps^{ijk} d_k C
    for a seeded Casimir C, Poisson for every C; even variants have a
    quadratic C (linear pi), odd ones a cubic C (quadratic pi).  plane: a
    seeded 2-D pi^{12}.  const4: a seeded constant 4-D pi.
    """
    rng = random.Random(f"warm-cli/{family}/{variant}")
    if family == "so3":
        dim = 3
        pi = {(1, 2): {(0, 0, 1): Fraction(1)}, (1, 3): {(0, 1, 0): Fraction(-1)},
              (2, 3): {(1, 0, 0): Fraction(1)}}
    elif family == "nambu":
        dim = 3
        casimir = _random_poly(rng, 3, 3, [2 + variant % 2])
        d = [oracles.derive(casimir, oracles.unit(3, k)) for k in (1, 2, 3)]
        pi = {(1, 2): d[2], (1, 3): oracles.add({}, d[1], -1), (2, 3): d[0]}
    elif family == "plane":
        dim = 2
        pi = {(1, 2): _random_poly(rng, 2, 2, [1, 2])}
    elif family == "const4":
        dim = 4
        pi = {(i, j): {(0,) * 4: rng.choice(_COEFFS)} for i in range(1, 5) for j in range(i + 1, 5)}
    else:
        raise ValueError(f"unknown family {family!r}")
    pi = {k: v for k, v in pi.items() if v}
    f = _random_poly(rng, dim, 2, [1, 2, 3])
    g = _random_poly(rng, dim, 2, [1, 2, 3])
    return {"dim": dim, "pi": pi, "f": f, "g": g}


def warm_requests(seed: int, count: int = WARM_REQUESTS) -> list[tuple[str, int, str]]:
    """(family, variant, command) for each request of a run, in order.
    Nambu requests alternate between linear and quadratic pi by cycle."""
    rng = random.Random(f"warm-cli/{seed}")
    out = []
    for r in range(count):
        family, command = WARM_CYCLE[r % len(WARM_CYCLE)]
        if family == "nambu":
            variant = 2 * rng.randrange(WARM_POOL // 2) + (r // len(WARM_CYCLE)) % 2
        else:
            variant = rng.randrange(WARM_POOL)
        out.append((family, variant, command))
    return out


def poisson_json(item: dict) -> dict:
    """The CLI's Poisson structure file format."""
    return {
        "dim": item["dim"],
        "components": {f"{i},{j}": oracles.fmt(p) for (i, j), p in sorted(item["pi"].items())},
    }


def warm_argv(item: dict, command: str, pi_path: str, cache_path: str) -> list[str]:
    common = ["--order", "2", "--cache", cache_path]
    if command == "star":
        return ["star", "--pi", pi_path, "--f", oracles.fmt(item["f"]), "--g", oracles.fmt(item["g"]), *common]
    return ["check", "assoc", "--pi", pi_path, *common]


# ---------------------------------------------------------------------------
# order3-assembly
# ---------------------------------------------------------------------------


def _order3_stars(parallel: bool) -> list[tuple]:
    """Order-3 graphs (star tuples) with or without a parallel edge pair."""
    per_vertex = []
    for v in (1, 2, 3):
        targets = [k for k in (1, 2, 3) if k != v] + [-1, -2]
        per_vertex.append(list(itertools.product(targets, repeat=2)))
    return [s for s in itertools.product(*per_vertex) if any(a == b for a, b in s) == parallel]


def order3_item(variant: int) -> dict:
    """pi^{12} = a x1^2 + b x1 x2 + c x2^2 with seeded nonzero a, b, c: the
    same monomials for every variant keep the assembly cost alike across
    seeds.  Also seeded: factors f, g, a rational point, and the sample of
    graphs whose operators the oracle evaluates."""
    rng = random.Random(f"order3-assembly/{variant}")
    pi = {(1, 2): {m: rng.choice(_COEFFS) for m in _monomials(2, 2)}}
    return {
        "dim": 2,
        "pi": pi,
        "f": _random_poly(rng, 2, 3, [1, 2, 3]),
        "g": _random_poly(rng, 2, 3, [1, 2, 3]),
        "point": (Fraction(rng.randint(-5, 5), rng.randint(1, 4)), Fraction(rng.randint(-5, 5), rng.randint(1, 4))),
        # parallel edges give zero operators; most other graphs do not
        "sample": rng.sample(_order3_stars(False), 10) + rng.sample(_order3_stars(True), 2),
    }


def order3_variants(seed: int) -> list[int]:
    """The pool structures a run assembles, in order."""
    order = list(range(ORDER3_POOL))
    random.Random(f"order3-assembly/{seed}").shuffle(order)
    return order
