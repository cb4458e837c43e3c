import itertools

import pytest

from deformq.graphs import (
    AdmissibleGraph,
    boundary,
    canonical_id,
    enumerate_graphs,
    has_repeated_edge,
    is_admissible,
    is_boundary,
    orbit,
    parse_id,
)

b1, b2 = boundary(1), boundary(2)


def wedge():
    return AdmissibleGraph(1, 2, ((b1, b2),))


def test_wedge_is_admissible():
    assert is_admissible(wedge())


def test_edges_from_boundary_rejected():
    # a star listed for a vertex id beyond n means an edge sourced outside
    # the aerial set; modelled as a malformed stars tuple
    g = AdmissibleGraph(0, 2, ((b2,),))
    assert not is_admissible(g)


def test_self_loop_rejected():
    g = AdmissibleGraph(1, 2, ((1, b1),))
    assert not is_admissible(g)


def test_target_out_of_range_rejected():
    assert not is_admissible(AdmissibleGraph(1, 2, ((2, b1),)))
    assert not is_admissible(AdmissibleGraph(1, 2, ((b1, boundary(3)),)))


def test_vertex_count_inequality():
    assert not is_admissible(AdmissibleGraph(0, 1, ()))  # 2n + nbar - 2 < 0
    assert is_admissible(AdmissibleGraph(0, 2, ()))


def test_enumerate_one_vertex():
    got = enumerate_graphs(1, 2, 2)
    stars = [g.stars for g in got]
    assert stars == [((b1, b1),), ((b1, b2),), ((b2, b1),), ((b2, b2),)]


def test_enumerate_empty_graph():
    got = enumerate_graphs(0, 2, 2)
    assert got == [AdmissibleGraph(0, 2, ())]
    assert got[0].has_required_edge_count()


def test_enumerate_against_exhaustive_oracle():
    # oracle: all ordered target assignments over the raw alphabet, filtered
    for n in (1, 2, 3):
        nbar = 2
        alphabet = list(range(1, n + 1)) + [boundary(k) for k in range(1, nbar + 1)]
        raw = itertools.product(
            itertools.product(alphabet, repeat=2), repeat=n
        )
        oracle = []
        for stars in raw:
            g = AdmissibleGraph(n, nbar, stars)
            if is_admissible(g):
                oracle.append(g)
        got = enumerate_graphs(n, nbar, 2)
        assert sorted(canonical_id(g) for g in got) == sorted(
            canonical_id(g) for g in oracle
        )
        assert len(got) == (n + nbar - 1) ** (2 * n)


def test_enumerate_no_duplicates_all_admissible():
    got = enumerate_graphs(2, 2, 2)
    ids = [canonical_id(g) for g in got]
    assert len(set(ids)) == len(ids)
    assert all(is_admissible(g) for g in got)
    assert len(got) == 81


def test_enumerate_rejects_bad_counts():
    with pytest.raises(ValueError):
        enumerate_graphs(0, 1, 2)
    with pytest.raises(ValueError):
        enumerate_graphs(-1, 2, 2)


def test_canonical_id_format():
    assert canonical_id(wedge()) == "1;2;[b1,b2]"
    chain = AdmissibleGraph(2, 2, ((2, b1), (b1, b2)))
    assert canonical_id(chain) == "2;2;[2,b1],[b1,b2]"


def test_id_round_trip():
    for g in enumerate_graphs(2, 2, 2):
        assert parse_id(canonical_id(g)) == g
    assert parse_id("0;2;") == AdmissibleGraph(0, 2, ())
    assert parse_id("1;2;[ b1, b2 ]") == wedge()


def test_distinct_star_orderings_get_distinct_ids():
    a = AdmissibleGraph(1, 2, ((b1, b2),))
    b = AdmissibleGraph(1, 2, ((b2, b1),))
    assert canonical_id(a) != canonical_id(b)


def test_canonical_id_rejects_inadmissible():
    with pytest.raises(ValueError):
        canonical_id(AdmissibleGraph(1, 2, ((1, b1),)))


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        parse_id("nonsense")
    with pytest.raises(ValueError):
        parse_id("1;2;[b1,b2],[b1,b2]")  # too many stars
    with pytest.raises(ValueError):
        parse_id("1;2;[1,b1]")  # self loop


@pytest.mark.parametrize(
    "text",
    [
        "1;2;junk[b1,b2]",
        "1;2;[b1,b2]xyz",
        "2;2;[2,b1] [b1,b2]",
        "2;2;[2,b1],,[b1,b2]",
        "1;2;[-1,-2]",  # b1, b2 written as their integer codes
        "1;2;[b1,b_2]",
    ],
)
def test_parse_rejects_text_canonical_id_never_writes(text):
    with pytest.raises(ValueError, match="malformed graph id"):
        parse_id(text)


def test_orbit_is_constant_on_orbits():
    graphs = enumerate_graphs(2, 2, 2)
    reps = {}
    for g in graphs:
        rep, sign = orbit(g)
        assert sign in (1, -1)
        assert orbit(rep) == (rep, 1)
        # swapping vertex labels and both stars' edges stays in the orbit
        swapped = AdmissibleGraph(
            2, 2, tuple(tuple({1: 2, 2: 1}.get(t, t) for t in reversed(s))
                        for s in reversed(g.stars))
        )
        assert orbit(swapped)[0] == rep
        reps.setdefault(rep, []).append(g)
    assert sum(map(len, reps.values())) == len(graphs)
    assert orbit(wedge()) == (wedge(), 1)
    assert orbit(AdmissibleGraph(1, 2, ((b2, b1),))) == (wedge(), -1)


def _target_order(t):
    return is_boundary(t), abs(t)


def _least(images):
    """(rep, sign) from (h, sign) pairs: the least h, and the sign every pair
    reaching it shares, or 0 when they disagree."""
    found = {}
    for h, sign in images:
        key = tuple(tuple(map(_target_order, s)) for s in h.stars)
        found.setdefault(key, (h, set()))[1].add(sign)
    rep, signs = found[min(found)]
    return rep, signs.pop() if len(signs) == 1 else 0


def _star_swap_images(g):
    """The relabelling loop orbit() replaced on the operator side: each
    relabelling with its stars sorted, signed by the star sorts alone."""
    for perm in itertools.permutations(range(1, g.n + 1)):
        stars = [()] * g.n
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
        yield AdmissibleGraph(g.n, g.nbar, tuple(stars)), sign


def _jacobian_row_images(g):
    """The relabelling loop orbit() replaced on the weight side: each
    relabelling, without and then with the mirror, signed by the parity of
    the Jacobian rows it moves, plus n for the mirror."""
    n = g.n
    edges = g.edges()
    for mirrored in (False, True):
        swap = {b1: b2, b2: b1} if mirrored else {}
        for perm in itertools.permutations(range(1, n + 1)):

            def image(t):
                return swap.get(t, t) if is_boundary(t) else perm[t - 1]

            stars = [()] * n
            for v, star in enumerate(g.stars):
                stars[perm[v] - 1] = tuple(sorted(map(image, star), key=_target_order))
            h = AdmissibleGraph(n, g.nbar, tuple(stars))
            rows = h.edges()
            moved = [rows.index((perm[src - 1], image(t))) for src, t in edges]
            inversions = sum(
                moved[i] > moved[j]
                for i in range(len(moved))
                for j in range(i + 1, len(moved))
            )
            yield h, -1 if (inversions + (n if mirrored else 0)) % 2 else 1


def _graphs_without_repeated_edges(order):
    return [g for g in enumerate_graphs(order, 2, 2) if not has_repeated_edge(g)]


def _two_vertex_graphs():
    """Every two-vertex graph with 4 edges in stars of any sizes and no
    repeated edge."""
    out = []
    for size in range(5):
        for first in itertools.permutations([2, b1, b2], size):
            for second in itertools.permutations([1, b1, b2], 4 - size):
                out.append(AdmissibleGraph(2, 2, (first, second)))
    return out


def test_orbit_matches_the_star_swap_loop():
    graphs = [g for n in (1, 2, 3) for g in _graphs_without_repeated_edges(n)]
    assert len(graphs) == 2 + 36 + 1728
    zero = 0
    for g in graphs:
        want = _least(_star_swap_images(g))
        assert orbit(g) == want, canonical_id(g)
        zero += want[1] == 0
    assert zero > 0


def test_orbit_with_mirror_matches_the_jacobian_row_loop():
    graphs = [g for n in (1, 2, 3) for g in _graphs_without_repeated_edges(n)]
    graphs += _two_vertex_graphs()
    signs = set()
    for g in graphs:
        want = _least(_jacobian_row_images(g))
        assert orbit(g, mirror=True) == want, canonical_id(g)
        signs.add(want[1])
    assert signs == {-1, 0, 1}


def test_has_repeated_edge():
    assert has_repeated_edge(AdmissibleGraph(1, 2, ((b1, b1),)))
    assert has_repeated_edge(AdmissibleGraph(2, 2, ((b1, b2), (b2, b1, b2))))
    assert not has_repeated_edge(AdmissibleGraph(2, 2, ((2, b1), (b1, b2))))
    assert sum(map(has_repeated_edge, enumerate_graphs(2, 2, 2))) == 81 - 36
