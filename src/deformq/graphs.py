"""Enumeration and validation of Kontsevich admissible graphs.

A graph has n aerial (first-type) vertices 1..n and nbar boundary
(second-type) vertices.  Targets are encoded as ints: k > 0 is the aerial
vertex k, -k is the boundary vertex written b<k> in the id grammar.  Every
edge starts at an aerial vertex; the outgoing edges of a vertex form an
ordered star, and that order is data.
"""

from __future__ import annotations

import functools
import itertools
import re

from deformq.record import Frozen

Target = int


def boundary(k: int) -> Target:
    """Encode the boundary vertex b<k> (k >= 1)."""
    if k < 1:
        raise ValueError("boundary index must be >= 1")
    return -k


def is_boundary(t: Target) -> bool:
    return t < 0


class AdmissibleGraph(Frozen):
    __slots__ = ("n", "nbar", "stars")

    def __post_init__(self):
        object.__setattr__(self, "stars", tuple(tuple(s) for s in self.stars))

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self.stars)

    def edges(self) -> list[tuple[int, Target]]:
        """(source, target) pairs in vertex order then star order."""
        return [(v + 1, t) for v, star in enumerate(self.stars) for t in star]

    def has_required_edge_count(self) -> bool:
        return self.edge_count == 2 * self.n + self.nbar - 2


def is_admissible(g: AdmissibleGraph) -> bool:
    if g.n < 0 or g.nbar < 0 or 2 * g.n + g.nbar - 2 < 0:
        return False
    if len(g.stars) != g.n:
        return False
    for v, star in enumerate(g.stars, start=1):
        for t in star:
            if t == 0:
                return False
            if t == v:
                return False  # short loop
            if t > g.n:
                return False
            if is_boundary(t) and -t > g.nbar:
                return False
    return True


def enumerate_graphs(
    n: int, nbar: int, *, top_degree: int | None = None
) -> list[AdmissibleGraph]:
    """All labeled admissible graphs with two ordered edges per aerial
    vertex, in lexicographic order (aerial targets first, then boundary
    targets).  Parallel edges are permitted; short loops are not.

    Given top_degree, only those whose B_Gamma on bivectors of that top
    polynomial degree can be nonzero: no star repeats a target
    (has_repeated_edge) and no aerial vertex is hit by more than top_degree
    edges, each of which differentiates its bivector.  A partial graph that
    breaks either is never extended.
    """
    if n < 0 or nbar < 0 or 2 * n + nbar - 2 < 0:
        raise ValueError("invalid vertex counts")
    partial = [((), (0,) * n)]  # (stars so far, in-degree of each aerial vertex)
    for v in range(1, n + 1):
        targets = [k for k in range(1, n + 1) if k != v]
        targets += [boundary(k) for k in range(1, nbar + 1)]
        stars = itertools.product(targets, repeat=2)
        stars = [s for s in stars if top_degree is None or s[0] != s[1]]
        extended = []
        for prefix, hits in partial:
            for s in stars:
                after = hits
                if top_degree is not None:
                    after = [c + s.count(k) for k, c in enumerate(hits, 1)]
                    if max(after) > top_degree:
                        continue
                extended.append((prefix + (s,), after))
        partial = extended
    return [AdmissibleGraph(n, nbar, stars) for stars, _ in partial]


def _target_order(t: Target) -> tuple[bool, int]:
    """Aerial targets before boundary ones, each ascending (the order of
    enumerate_graphs)."""
    return is_boundary(t), abs(t)


def has_repeated_edge(g: AdmissibleGraph) -> bool:
    """Whether a star lists one target twice.  The edge's 1-form is then
    wedged with itself, so the weight is 0, and its two derivatives
    contract a skew tensor symmetrically, so B_Gamma of skew tensors is 0."""
    return any(len(set(star)) != len(star) for star in g.stars)


def _order_key(g: AdmissibleGraph) -> tuple:
    """g's position in the order of enumerate_graphs."""
    return tuple(tuple(map(_target_order, star)) for star in g.stars)


# one cache for the operators, the weight rules and the estimates: a scan
# runs 2 n! relabellings (0.17 s at n = 7).  Unbounded, so that an order-3
# assembly keeps all 1 728 of its scans; a CLI run, refused above order 3,
# adds at most the graphs its pi reads up to order 3 (640 at order 3 for an
# affine pi, 1 728 for a quadratic one), or a `weight` graph and its
# representative
@functools.cache
def orbit(g: AdmissibleGraph, mirror: bool = False) -> tuple[AdmissibleGraph, int]:
    """(rep, sign): rep is the least image of g, in the order of
    enumerate_graphs, under relabelling of the aerial vertices and sorting
    of each star, and with mirror also under the mirror b1 <-> b2.

    sign is the parity of the permutation that takes the edge rows of g
    (vertex order, then star order) to their images among the rows of rep:
    moving two stars past each other is odd when both have odd size, and
    sorting a star adds its inversions.  With every aerial vertex carrying
    the same skew bivector, B_Gamma(g) = sign * B_Gamma(rep) (no mirror:
    it transposes B_Gamma).  For weights the rows are those of the Jacobian
    of the edge angles, whose columns move in pairs, so w(g) = sign * w(rep);
    the mirror z -> 1 - conj(z) negates each of the 2n edge angles and
    reverses the orientation of each aerial vertex's half-plane, which adds
    (-1)^n.

    sign is 0 when two maps reach rep with opposite signs, that is, when g
    has a symmetry of sign -1, so that B_Gamma(g) or w(g) is its own
    negative, 0; every member of the orbit then has one.  A repeated edge
    (has_repeated_edge) leaves the sign undefined.
    """
    n = g.n
    odd_size = [len(star) % 2 for star in g.stars]
    best = None
    for swap in ({}, {boundary(1): boundary(2), boundary(2): boundary(1)})[: 1 + mirror]:
        for perm in itertools.permutations(range(1, n + 1)):
            odd = n if swap else 0
            stars: list[tuple] = [()] * n
            for v, star in enumerate(g.stars):
                keys = [
                    _target_order(swap.get(t, t) if is_boundary(t) else perm[t - 1])
                    for t in star
                ]
                odd += sum(a > b for i, a in enumerate(keys) for b in keys[i + 1 :])
                if odd_size[v]:
                    odd += sum(odd_size[u] for u in range(v) if perm[u] > perm[v])
                stars[perm[v] - 1] = tuple(sorted(keys))
            key = tuple(stars)
            sign = -1 if odd % 2 else 1
            if best is None or key < best[0]:
                best = [key, sign]
            elif key == best[0] and sign != best[1]:
                best[1] = 0
    rep = tuple(tuple(-k if b else k for b, k in star) for star in best[0])
    return AdmissibleGraph(n, g.nbar, rep), best[1]


# parse_id's patterns, compiled (and cached by re) on its first call, so that
# a process that parses no id compiles none
_ID_RE = r"^([0-9]+);([0-9]+);(.*)$"
_STAR_RE = r"\[([^\]]*)\]"
_TARGET = r"\s*b?[0-9]+\s*"
_STAR = rf"\[(?:{_TARGET}(?:,{_TARGET})*)?\]"
_STARS_RE = rf"(?:{_STAR}(?:,{_STAR})*)?"


def canonical_id(g: AdmissibleGraph) -> str:
    """Stable text id `<n>;<nbar>;[t,t],...` with b<k> for boundary targets."""
    if not is_admissible(g):
        raise ValueError("graph is not admissible")

    def fmt(t: Target) -> str:
        return f"b{-t}" if is_boundary(t) else str(t)

    stars = ",".join("[" + ",".join(fmt(t) for t in s) + "]" for s in g.stars)
    return f"{g.n};{g.nbar};{stars}"


def parse_id(text: str) -> AdmissibleGraph:
    m = re.match(_ID_RE, text.strip())
    if not m:
        raise ValueError(f"malformed graph id {text!r}")
    n, nbar, rest = int(m.group(1)), int(m.group(2)), m.group(3)
    if not re.fullmatch(_STARS_RE, rest):
        raise ValueError(f"malformed graph id {text!r}")
    stars = []
    for sm in re.finditer(_STAR_RE, rest):
        inner = sm.group(1)
        star = []
        if inner:
            for tok in inner.split(","):
                tok = tok.strip()
                if tok.startswith("b"):
                    star.append(boundary(int(tok[1:])))
                else:
                    star.append(int(tok))
        stars.append(tuple(star))
    if len(stars) != n:
        raise ValueError(f"graph id {text!r} lists {len(stars)} stars, expected {n}")
    g = AdmissibleGraph(n, nbar, tuple(stars))
    if not is_admissible(g):
        raise ValueError(f"graph id {text!r} does not describe an admissible graph")
    return g
