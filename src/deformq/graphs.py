"""Enumeration and validation of Kontsevich admissible graphs.

A graph has n aerial (first-type) vertices 1..n and nbar boundary
(second-type) vertices.  Targets are encoded as ints: k > 0 is the aerial
vertex k, -k is the boundary vertex written b<k> in the id grammar.  Every
edge starts at an aerial vertex; the outgoing edges of a vertex form an
ordered star, and that order is data.
"""

from __future__ import annotations

import itertools
import re

from deformq.record import Frozen

Target = int
Star = tuple[Target, ...]


def boundary(k: int) -> Target:
    """Encode the boundary vertex b<k> (k >= 1)."""
    if k < 1:
        raise ValueError("boundary index must be >= 1")
    return -k


def is_boundary(t: Target) -> bool:
    return t < 0


class AdmissibleGraph(Frozen):
    __slots__ = ("n", "nbar", "stars")

    def __init__(self, n: int, nbar: int, stars: tuple[Star, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "nbar", nbar)
        object.__setattr__(self, "stars", tuple(tuple(s) for s in stars))

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


def enumerate_graphs(n: int, nbar: int, out_degree: int) -> list[AdmissibleGraph]:
    """All labeled admissible graphs with exactly out_degree ordered edges
    per aerial vertex, in lexicographic order (aerial targets first, then
    boundary targets).  Parallel edges are permitted; short loops are not.
    """
    if n < 0 or nbar < 0 or 2 * n + nbar - 2 < 0:
        raise ValueError("invalid vertex counts")
    if out_degree < 0:
        raise ValueError("invalid out degree")
    all_graphs = []
    per_vertex = []
    for v in range(1, n + 1):
        targets = [k for k in range(1, n + 1) if k != v]
        targets += [boundary(k) for k in range(1, nbar + 1)]
        stars = list(itertools.product(targets, repeat=out_degree))
        if not stars:
            return []
        per_vertex.append(stars)
    for combo in itertools.product(*per_vertex):
        all_graphs.append(AdmissibleGraph(n, nbar, tuple(combo)))
    return all_graphs


def _target_order(t: Target) -> tuple[bool, int]:
    """Aerial targets before boundary ones, each ascending (the order of
    enumerate_graphs)."""
    return is_boundary(t), abs(t)


def orbit_representative(g: AdmissibleGraph) -> tuple[AdmissibleGraph, int]:
    """The least graph in the orbit of g under relabelling of the aerial
    vertices and reordering within each star, and the sign of the star
    reorderings that reach it from g.

    When every aerial vertex carries the same skew tensor, relabelling leaves
    B_Gamma unchanged and swapping two edges of a star negates it, so
    B_Gamma(g) = sign * B_Gamma(representative).  A star with a repeated
    target makes the sign ambiguous; its operator vanishes for skew tensors.
    """
    best = None
    for perm in itertools.permutations(range(1, g.n + 1)):
        stars: list[Star] = [()] * g.n
        sign = 1
        for v, star in enumerate(g.stars):
            mapped = [perm[t - 1] if not is_boundary(t) else t for t in star]
            keys = [_target_order(t) for t in mapped]
            inversions = sum(
                keys[i] > keys[j]
                for i in range(len(keys))
                for j in range(i + 1, len(keys))
            )
            if inversions % 2:
                sign = -sign
            stars[perm[v] - 1] = tuple(sorted(mapped, key=_target_order))
        order = tuple(tuple(map(_target_order, s)) for s in stars)
        if best is None or order < best[0]:
            best = (order, tuple(stars), sign)
    return AdmissibleGraph(g.n, g.nbar, best[1]), best[2]


_ID_RE = re.compile(r"^(\d+);(\d+);(.*)$")
_STAR_RE = re.compile(r"\[([^\]]*)\]")


def canonical_id(g: AdmissibleGraph) -> str:
    """Stable text id `<n>;<nbar>;[t,t],...` with b<k> for boundary targets."""
    if not is_admissible(g):
        raise ValueError("graph is not admissible")

    def fmt(t: Target) -> str:
        return f"b{-t}" if is_boundary(t) else str(t)

    stars = ",".join("[" + ",".join(fmt(t) for t in s) + "]" for s in g.stars)
    return f"{g.n};{g.nbar};{stars}"


def parse_id(text: str) -> AdmissibleGraph:
    m = _ID_RE.match(text.strip())
    if not m:
        raise ValueError(f"malformed graph id {text!r}")
    n, nbar, rest = int(m.group(1)), int(m.group(2)), m.group(3)
    stars = []
    consumed = 0
    for sm in _STAR_RE.finditer(rest):
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
        consumed += 1
    if len(stars) != n:
        raise ValueError(f"graph id {text!r} lists {len(stars)} stars, expected {n}")
    g = AdmissibleGraph(n, nbar, tuple(stars))
    if not is_admissible(g):
        raise ValueError(f"graph id {text!r} does not describe an admissible graph")
    return g
