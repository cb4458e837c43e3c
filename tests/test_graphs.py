import itertools

import pytest

from deformq.graphs import (
    AdmissibleGraph,
    boundary,
    canonical_id,
    enumerate_graphs,
    is_admissible,
    orbit_representative,
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


def test_orbit_representative_is_constant_on_orbits():
    graphs = enumerate_graphs(2, 2, 2)
    reps = {}
    for g in graphs:
        rep, sign = orbit_representative(g)
        assert sign in (1, -1)
        assert orbit_representative(rep) == (rep, 1)
        # swapping vertex labels and both stars' edges stays in the orbit
        swapped = AdmissibleGraph(
            2, 2, tuple(tuple({1: 2, 2: 1}.get(t, t) for t in reversed(s))
                        for s in reversed(g.stars))
        )
        assert orbit_representative(swapped)[0] == rep
        reps.setdefault(rep, []).append(g)
    assert sum(map(len, reps.values())) == len(graphs)
    assert orbit_representative(wedge()) == (wedge(), 1)
    assert orbit_representative(AdmissibleGraph(1, 2, ((b2, b1),))) == (wedge(), -1)
