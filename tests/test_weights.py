import cmath
import math
import random
import signal
from fractions import Fraction
from pathlib import Path

import pytest

from deformq import weights
from deformq.graphs import (
    AdmissibleGraph,
    boundary,
    canonical_id,
    is_boundary,
    orbit,
    parse_id,
)
from deformq.starprod import star_graphs
from deformq.table import WeightEntry
from deformq.weights import (
    CHUNK,
    TWO_PI,
    WeightEstimate,
    WeightTable,
    _cayley_density,
    _cayley_points,
    _chunk_rng,
    _cos_sin,
    _heavy_density,
    _heavy_points,
    _internal_pairs,
    _offset_density,
    _pairwise_sum,
    _raw_integrand,
    _sample_offset_radius,
    _sample_weight,
    angle,
    build_weight_table,
    estimate_and_snap,
    graph_seed,
    snap,
    weight_mc,
    weight_rule,
)

b1, b2 = boundary(1), boundary(2)
WEDGE = AdmissibleGraph(1, 2, ((b1, b2),))


# ---------------------------------------------------------------------------
# angle map
# ---------------------------------------------------------------------------


def test_angle_on_vertical_geodesic():
    assert angle(1j, 2j) == 0.0


def test_angle_off_axis_point():
    # z = i, w = -1 + i: arg((w-z)/(w-conj z)) = arg((1+2i)/5) = atan(2)
    got = angle(1j, complex(-1.0, 1.0))
    assert abs(got - math.atan(2.0)) < 1e-12


def log_form_angle(z1, z2):
    """Second form: log((z2-z1)(cz2-z1) / ((z2-cz1)(cz2-cz1))) / 2i.

    The ratio inside the log is exp(2i angle), so the principal branch
    recovers the angle modulo pi; the comparison accounts for that."""
    num = (z2 - z1) * (z2.conjugate() - z1)
    den = (z2 - z1.conjugate()) * (z2.conjugate() - z1.conjugate())
    return (cmath.log(num / den) / 2j).real


def test_angle_agrees_with_log_form():
    import random

    rng = random.Random(11)
    for _ in range(50):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3))
        w = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3))
        if z == w:
            continue
        a = angle(z, w)
        b = log_form_angle(z, w)
        diff = (a - b) % math.pi
        assert min(diff, math.pi - diff) < 1e-9


def test_angle_invariant_under_scaling_translation():
    import random

    rng = random.Random(13)
    for _ in range(30):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
        t = rng.uniform(-2, 2)  # boundary target
        a = rng.uniform(0.2, 4.0)
        b = rng.uniform(-3, 3)
        base = angle(z, complex(t, 0))
        moved = angle(a * z + b, complex(a * t + b, 0))
        assert abs(base - moved) < 1e-12


def test_angle_from_boundary_source_degenerates():
    # source on the real axis: conjugate equals the point, angle extends to 0
    assert angle(complex(0.3, 0.0), 1j) == 0.0


def test_angle_coincident_rejected():
    with pytest.raises(ValueError):
        angle(1j, 1j)


def test_angle_range():
    import random

    rng = random.Random(17)
    for _ in range(50):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.05, 3))
        w = complex(rng.uniform(-3, 3), 0.0)
        val = angle(z, w)
        assert 0.0 <= val < 2 * math.pi


# ---------------------------------------------------------------------------
# Monte-Carlo weights
# ---------------------------------------------------------------------------


def test_wedge_weight_brackets_half():
    # the sampler against the normalization the order-1 rule asserts
    est = _sample_weight(WEDGE, 200_000, 4242)
    assert est.stderr > 0
    assert abs(est.mean - 0.5) <= 3 * est.stderr
    # equivalent restatement: raw slice integral is (2 pi)^2
    raw = est.mean * 2 * (2 * math.pi) ** 2
    assert abs(raw - (2 * math.pi) ** 2) <= 3 * est.stderr * 2 * (2 * math.pi) ** 2


def test_order_one_weights_are_exact_by_rule():
    assert weight_rule(WEDGE) == ("order 1", Fraction(1, 2))
    assert weight_rule(parse_id("1;2;[b2,b1]")) == ("order 1", Fraction(-1, 2))
    est = weight_mc(parse_id("1;2;[b2,b1]"), 1000, 1)
    assert (est.mean, est.stderr) == (-0.5, 0.0)


def test_wrong_edge_count_weight_is_exact_zero():
    g = AdmissibleGraph(1, 2, ((b1,),))  # 1 edge != 2n + nbar - 2 = 2
    est = weight_mc(g, 1000, 1)
    assert est.mean == 0.0 and est.stderr == 0.0


def test_repeated_edge_weight_is_exact_zero():
    g = AdmissibleGraph(1, 2, ((b1, b1),))
    est = weight_mc(g, 1000, 1)
    assert est.mean == 0.0 and est.stderr == 0.0


def test_empty_graph_weight_is_one():
    g = AdmissibleGraph(0, 2, ())
    est = weight_mc(g, 1000, 1)
    assert est.mean == 1.0 and est.stderr == 0.0


def test_nbar_other_than_two_rejected():
    with pytest.raises(ValueError):
        weight_mc(AdmissibleGraph(1, 3, ((b1, b2),)), 100, 1)


def test_reproducibility():
    a = _sample_weight(WEDGE, 150_000, 99)
    b = _sample_weight(WEDGE, 150_000, 99)
    assert (a.mean, a.stderr) == (b.mean, b.stderr)
    c = _sample_weight(WEDGE, 150_000, 100)
    assert (c.mean, c.stderr) != (a.mean, a.stderr)


def test_stderr_scaling():
    # doubling samples four times cuts stderr by about 4 (within 20%)
    small = _sample_weight(WEDGE, 60_000, 31415)
    large = _sample_weight(WEDGE, 960_000, 31415)
    ratio = small.stderr / large.stderr
    assert 0.8 * 4 <= ratio <= 1.2 * 4


def test_gauge_invariance_of_pinning():
    base = _sample_weight(WEDGE, 150_000, 555)
    for c in (2.0, 5.0):
        moved = _sample_weight(WEDGE, 150_000, 556, boundary_points=(0.0, c))
        combined = math.hypot(base.stderr, moved.stderr)
        assert abs(base.mean - moved.mean) <= 3 * combined


def test_gauge_invariance_with_internal_edge():
    g = AdmissibleGraph(2, 2, ((2, b1), (1, b2)))
    base = weight_mc(g, 200_000, 900)
    moved = weight_mc(g, 200_000, 901, boundary_points=(0.0, 2.0))
    combined = math.hypot(base.stderr, moved.stderr)
    assert abs(base.mean - moved.mean) <= 3 * combined


def test_wedge_integrand_closed_form():
    # for the wedge, d phi(z,0) ^ d phi(z,1) = 4 b / (|z|^2 |z-1|^2) da^db;
    # the integrand carries the calibration factor 2 per aerial vertex
    import numpy as np

    from deformq.weights import _raw_integrand

    rng = __import__("random").Random(77)
    for _ in range(30):
        a = rng.uniform(-3, 3)
        b = rng.uniform(0.05, 3)
        got = _raw_integrand(
            WEDGE, np.array([[a]]), np.array([[b]]), (0.0, 1.0)
        )[0]
        r2 = a * a + b * b
        r2b = (a - 1) ** 2 + b * b
        expected = 2.0 * 4.0 * b / (r2 * r2b)
        assert abs(got - expected) < 1e-10 * max(1.0, abs(expected))


def test_jacobian_matches_finite_differences_of_angle():
    # independent oracle: central differences of the scalar angle map
    import numpy as np

    from deformq.weights import _raw_integrand

    g = AdmissibleGraph(2, 2, ((2, b1), (1, b2)))
    edges = g.edges()
    rng = __import__("random").Random(78)
    step = 1e-6
    for _ in range(10):
        pts = [
            complex(rng.uniform(-2, 2), rng.uniform(0.5, 2)) for _ in range(2)
        ]
        if abs(pts[0] - pts[1]) < 0.3:
            continue

        def edge_angle(zs, src, tgt):
            w = complex(float(-tgt - 1), 0.0) if tgt < 0 else zs[tgt - 1]
            return angle(zs[src - 1], w)

        jac = np.zeros((4, 4))
        for col in range(4):
            i, comp = divmod(col, 2)
            dz = [0j, 0j]
            dz[i] = step if comp == 0 else 1j * step
            for row, (src, tgt) in enumerate(edges):
                plus = edge_angle([p + d for p, d in zip(pts, dz)], src, tgt)
                minus = edge_angle([p - d for p, d in zip(pts, dz)], src, tgt)
                diff = plus - minus
                if diff > math.pi:
                    diff -= 2 * math.pi
                if diff < -math.pi:
                    diff += 2 * math.pi
                jac[row, col] = diff / (2 * step)
        expected = (2.0 ** 2) * np.linalg.det(jac)
        got = _raw_integrand(
            g,
            np.array([[pts[0].real, pts[1].real]]),
            np.array([[pts[0].imag, pts[1].imag]]),
            (0.0, 1.0),
        )[0]
        assert abs(got - expected) < 1e-4 * max(1.0, abs(expected))


def test_orientation_sign_flip():
    a = _sample_weight(WEDGE, 150_000, 777)
    swapped = AdmissibleGraph(1, 2, ((b2, b1),))
    c = _sample_weight(swapped, 150_000, 778)
    combined = math.hypot(a.stderr, c.stderr)
    assert abs(a.mean + c.mean) <= 3 * combined


# ---------------------------------------------------------------------------
# snapping
# ---------------------------------------------------------------------------


def test_snap_unique_candidate():
    est = WeightEstimate("g", 0.4999, 0.0004, 1, 1)
    assert snap(est, 12) == Fraction(1, 2)


def test_snap_ambiguity_refused():
    est = WeightEstimate("g", 0.3337, 0.02, 1, 1)
    assert snap(est, 12) is None  # 1/3 and 3/8 both within 3 sigma


def test_snap_empty_band():
    est = WeightEstimate("g", 0.3537, 0.0001, 1, 1)
    assert snap(est, 12) is None


def test_snap_requires_positive_stderr():
    with pytest.raises(ValueError):
        snap(WeightEstimate("g", 0.5, 0.0, 1, 1), 12)


@pytest.mark.parametrize("max_denominator", [0, -1])
def test_snap_requires_a_denominator_bound_of_at_least_one(max_denominator):
    with pytest.raises(ValueError):
        snap(WeightEstimate("g", 0.5, 0.001, 1, 1), max_denominator)


def test_wedge_snaps_to_half():
    est = _sample_weight(WEDGE, 1_000_000, 2718)
    assert est.stderr < 0.01
    assert snap(est, 12) == Fraction(1, 2)


def test_estimate_and_snap_exact_cases():
    est, val = estimate_and_snap(AdmissibleGraph(0, 2, ()), 5)
    assert val == 1 and est.stderr == 0.0
    est, val = estimate_and_snap(AdmissibleGraph(1, 2, ((b1, b1),)), 5)
    assert val == 0 and est.stderr == 0.0


def test_zero_spread_estimate_does_not_snap():
    # one sample gives zero variance; only weights fixed by a rule are exact
    g = parse_id("2;2;[b1,b2],[b1,b2]")
    assert weight_rule(g) is None
    with pytest.raises(ValueError):
        estimate_and_snap(g, 5, initial_samples=1)


# ---------------------------------------------------------------------------
# weight table
# ---------------------------------------------------------------------------


def test_weight_table_json_round_trip(tmp_path):
    table = WeightTable()
    table.put(WeightEstimate("1;2;[b1,b2]", 0.5001, 0.0008, 1000, 7), Fraction(1, 2))
    table.put(WeightEstimate("1;2;[b2,b1]", -0.5001, 0.0008, 1000, 7), None)
    path = tmp_path / "cache.json"
    table.save(path)
    loaded = WeightTable.load(path)
    assert loaded.exact("1;2;[b1,b2]") == Fraction(1, 2)
    assert loaded.exact("1;2;[b2,b1]") is None
    assert loaded.get("1;2;[b2,b1]").mean == -0.5001


def test_weight_table_save_that_fails_halfway_keeps_the_old_cache(
    tmp_path, monkeypatch
):
    import builtins
    import errno
    import io

    path = tmp_path / "cache.json"
    old = WeightTable()
    old.put(WeightEstimate("1;2;[b1,b2]", 0.5001, 0.0008, 1000, 7), Fraction(1, 2))
    old.save(path)
    new = WeightTable(old.entries)
    new.put(WeightEstimate("1;2;[b2,b1]", -0.5001, 0.0008, 1000, 7), Fraction(-1, 2))
    real_open = builtins.open

    class HalfWriter:
        """A file on a disk that fills up halfway through the write."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    def open_filling_up(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return HalfWriter(fh) if "w" in mode else fh

    monkeypatch.setattr(builtins, "open", open_filling_up)
    monkeypatch.setattr(io, "open", open_filling_up)
    with pytest.raises(OSError, match="No space left"):
        new.save(path)
    monkeypatch.undo()
    assert WeightTable.load(path).entries == old.entries
    assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]


def test_weight_table_last_write_wins():
    table = WeightTable()
    table.put(WeightEstimate("id", 0.4, 0.1, 10, 1), None)
    table.put(WeightEstimate("id", 0.5, 0.01, 1000, 1), Fraction(1, 2))
    assert table.exact("id") == Fraction(1, 2)
    assert table.get("id").samples == 1000


def test_build_weight_table_order_one():
    graphs = [parse_id("1;2;[b1,b2]"), parse_id("1;2;[b2,b1]"),
              parse_id("1;2;[b1,b1]"), parse_id("1;2;[b2,b2]")]
    table = build_weight_table(graphs, seed=12, initial_samples=400_000)
    assert table.exact("1;2;[b1,b2]") == Fraction(1, 2)
    assert table.exact("1;2;[b2,b1]") == Fraction(-1, 2)
    assert table.exact("1;2;[b1,b1]") == 0
    assert table.exact("1;2;[b2,b2]") == 0


def test_graph_seed_stable():
    assert graph_seed(7, "1;2;[b1,b2]") == graph_seed(7, "1;2;[b1,b2]")
    assert graph_seed(7, "1;2;[b1,b2]") != graph_seed(7, "1;2;[b2,b1]")
    assert graph_seed(7, "x") != graph_seed(8, "x")
    assert graph_seed(0, "x") != graph_seed(2**32 - 1, "x")


@pytest.mark.parametrize("seed", [-5, -1, 2**32, 2**32 + 1])
def test_graph_seed_refuses_seeds_outside_32_bits(seed):
    # the seed fills the high half of the key: -5 would alias 2**32 - 5,
    # 2**32 + 1 would alias 1
    with pytest.raises(ValueError, match="outside"):
        graph_seed(seed, "1;2;[b1,b2]")


def test_weight_entry_json_round_trip():
    e = WeightEntry(0.25, 0.001, 10, 3, Fraction(1, 4))
    assert WeightEntry.from_json(e.to_json()) == e
    e2 = WeightEntry(0.25, 0.001, 10, 3, None)
    assert WeightEntry.from_json(e2.to_json()) == e2


def test_snap_wide_band_refused():
    est = WeightEstimate("g", 0.5, 10.0, 1, 1)
    assert snap(est, 24) is None


def _snap_reference(mean, stderr, max_denominator):
    """snap as one loop over every p/q in the band, q <= max_denominator."""
    lo, hi = mean - 3.0 * stderr, mean + 3.0 * stderr
    if hi - lo >= 1.0:
        return None
    candidates = {
        Fraction(p, q)
        for q in range(1, max_denominator + 1)
        for p in range(math.ceil(lo * q), math.floor(hi * q) + 1)
    }
    return candidates.pop() if len(candidates) == 1 else None


def test_snap_matches_the_loop_over_every_candidate():
    rng = random.Random(2024)
    unique = 0
    for _ in range(3000):
        bound = rng.randint(1, 100)
        if rng.random() < 0.5:
            q = rng.randint(1, 30)
            mean = rng.randint(-q, q) / q + rng.gauss(0, 0.002)
        else:
            mean = rng.uniform(-1, 1)
        stderr = 10 ** rng.uniform(-6, -1)
        want = _snap_reference(mean, stderr, bound)
        assert snap(WeightEstimate("g", mean, stderr, 1, 1), bound) == want
        unique += want is not None
    assert 200 < unique < 2800  # both outcomes are covered


def test_snap_stops_at_the_second_candidate():
    # a loop over every p/q in the band takes hours at a bound of 10^6
    def too_slow(signum, frame):
        raise TimeoutError("snap scanned every denominator")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(10)
    try:
        for mean, stderr in ((0.1234, 0.005), (-0.0413667, 1e-8)):
            assert snap(WeightEstimate("g", mean, stderr, 1, 1), 10**6) is None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_snap_with_one_candidate_does_not_scan_every_denominator():
    # a loop over every q <= 10^8 takes about 45 s when 1/2 is the only candidate
    def too_slow(signum, frame):
        raise TimeoutError("snap scanned every denominator")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(10)
    try:
        assert snap(WeightEstimate("g", 0.5, 1e-10, 1, 1), 10**8) == Fraction(1, 2)
        # 49999999/99999999 lies 5e-9 from 1/2, inside a band of 3e-8
        assert snap(WeightEstimate("g", 0.5, 1e-8, 1, 1), 10**8) is None
        assert snap(WeightEstimate("g", 0.5, 1e-8, 1, 1), 10**7) == Fraction(1, 2)
        assert snap(WeightEstimate("g", 2.0, 1e-10, 1, 1), 10**8) == Fraction(2)
        assert snap(WeightEstimate("g", 1 / 3, 1e-10, 1, 1), 10**8) == Fraction(1, 3)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_snap_is_exact_for_a_bound_past_the_float_range():
    # a float product lo * q overflows for q above about 1.8e308
    assert snap(WeightEstimate("g", -0.0833, 0.002, 10000, 1), 10**400) is None
    assert snap(WeightEstimate("g", 0.5, 1e-300, 1, 1), 10**400) == Fraction(1, 2)


# ---------------------------------------------------------------------------
# orbits and the unreached-boundary rule
# ---------------------------------------------------------------------------

CACHE = Path(__file__).parent / ".weight_cache.json"
NOISE_ZERO_ORBITS = ("2;2;[2,b1],[1,b1]", "2;2;[2,b2],[1,b2]")


def _configurations(n, seed=2024, count=1000):
    """Seeded configurations of n aerial points, shape (count, n), whose
    points (the aerial vertices and the pins 0 and 1) stay 0.2 apart."""
    import numpy as np

    rng = np.random.default_rng(seed)
    z = rng.uniform(-2, 2, (4 * count, n)) + 1j * rng.uniform(0.2, 2, (4 * count, n))
    pts = np.concatenate([z, np.zeros((len(z), 1)), np.ones((len(z), 1))], axis=1)
    gaps = np.abs(pts[:, :, None] - pts[:, None, :]) + 9 * np.eye(n + 2)
    z = z[gaps.min(axis=(1, 2)) > 0.2][:count]
    assert len(z) == count
    return z


def _integrand_sizes(ids, n=2, seed=2024, count=1000):
    """|_raw_integrand| of each graph with n aerial vertices on
    _configurations(n, seed, count)."""
    import numpy as np

    z = _configurations(n, seed, count)
    return {
        gid: np.abs(_raw_integrand(parse_id(gid), z.real, z.imag, (0.0, 1.0)))
        for gid in ids
    }


def test_unreached_boundary_vertex_integrand_vanishes():
    members = [
        canonical_id(g) for g in star_graphs(2)
        if canonical_id(orbit(g, mirror=True)[0]) in NOISE_ZERO_ORBITS
    ]
    assert len(members) == 8
    sizes = _integrand_sizes(members + ["2;2;[2,b1],[1,b2]"])
    reached = sizes.pop("2;2;[2,b1],[1,b2]")
    assert reached.max() > 1e-3
    for gid, vals in sizes.items():
        assert vals.max() < 1e-9, gid


def test_unreached_boundary_vertex_is_structural_zero():
    for gid in NOISE_ZERO_ORBITS + ("2;2;[b1,2],[b1,1]",):
        assert weight_rule(parse_id(gid))[1] == 0
    for gid in ("2;2;[2,b1],[1,b2]", "2;2;[b1,b2],[b1,b2]"):
        assert weight_rule(parse_id(gid)) is None


def test_estimate_and_snap_returns_signed_representative_estimate():
    # the member is the representative's mirror with its second star swapped
    rep, member = "2;2;[2,b1],[b1,b2]", "2;2;[2,b2],[b1,b2]"
    assert orbit(parse_id(member), mirror=True) == (parse_id(rep), -1)
    rep_est, rep_val = estimate_and_snap(parse_id(rep), 7)
    est, val = estimate_and_snap(parse_id(member), 7)
    assert est.graph == member and rep_est.graph == rep
    assert est.mean == -rep_est.mean
    assert (est.stderr, est.samples, est.seed) == (
        rep_est.stderr, rep_est.samples, rep_est.seed,
    )
    assert rep_est.seed == graph_seed(7, rep)
    assert (rep_val, val) == (Fraction(-1, 12), Fraction(1, 12))


def test_relabelling_odd_stars_flips_the_sign():
    # swapping the aerial labels of a graph with stars of sizes 1 and 3
    # swaps two odd blocks of rows of the Jacobian: the integrand flips sign
    import numpy as np

    g = parse_id("2;2;[b1],[1,b1,b2]")
    relabelled = parse_id("2;2;[2,b1,b2],[b1]")
    assert orbit(g, mirror=True) == (relabelled, -1)
    rng = np.random.default_rng(5)
    a, b = rng.uniform(-2, 2, (50, 2)), rng.uniform(0.3, 2, (50, 2))
    got = _raw_integrand(g, a, b, (0.0, 1.0))
    swapped = _raw_integrand(relabelled, a[:, ::-1], b[:, ::-1], (0.0, 1.0))
    assert np.abs(got).max() > 1e-3
    assert np.allclose(got, -swapped, rtol=1e-9, atol=1e-12)


def test_committed_table_is_signed_consistent_on_orbits():
    table = WeightTable.load(CACHE)
    assert len(table.entries) == 85
    for gid in table.entries:
        rep, sign = orbit(parse_id(gid), mirror=True)
        assert table.exact(gid) == sign * table.exact(canonical_id(rep)), gid


def _mirror_id(gid):
    """The id of the graph with b1 and b2 swapped."""
    return gid.replace("b1", "x").replace("b2", "b1").replace("x", "b2")


def test_committed_table_obeys_every_rule():
    table = WeightTable.load(CACHE)
    assert len(table.entries) == 85
    ruled = mirrored = 0
    for gid, entry in table.entries.items():
        g = parse_id(gid)
        rule = weight_rule(g)
        if rule is not None:
            assert entry.snapped == rule[1], (gid, rule)
            ruled += 1
        mirror = table.exact(_mirror_id(gid))
        if mirror is not None:
            assert entry.snapped == (-1) ** g.n * mirror, gid
            mirrored += 1
    assert (ruled, mirrored) == (57, 85)


def test_integrand_mirror_identity():
    # z -> 1 - conj(z) swaps the pins 0 and 1 and negates every edge angle:
    # the mirrored graph's integrand at the mirrored points is (-1)^n times,
    # and orbit with the mirror folds it with that sign
    import numpy as np

    checked = 0
    for order in (1, 2, 3):
        z = _configurations(order, seed=31, count=200)
        for g in _integrand_graphs(order):
            mirror = parse_id(_mirror_id(canonical_id(g)))
            got = _raw_integrand(mirror, 1.0 - z.real, z.imag, (0.0, 1.0))
            want = (-1) ** order * _raw_integrand(g, z.real, z.imag, (0.0, 1.0))
            assert np.allclose(got, want, rtol=1e-9, atol=1e-12), canonical_id(g)
            if weight_rule(g) is None:
                rep, sign = orbit(g, mirror=True)
                assert orbit(mirror, mirror=True) == (rep, (-1) ** order * sign)
            checked += 1
    assert checked == 2 + 28 + 1304


def test_odd_automorphism_rule():
    # swapping vertices 2 and 3 fixes the graph, swaps the two edges of
    # vertex 1 and the two stars of size 2: the integrand is odd under it
    import numpy as np

    g = parse_id("3;2;[2,3],[b1,b2],[b1,b2]")
    assert weight_rule(g) == ("odd automorphism", 0)
    z = _configurations(3, seed=5, count=200)
    vals = _raw_integrand(g, z.real, z.imag, (0.0, 1.0))
    swapped = _raw_integrand(g, z.real[:, [0, 2, 1]], z.imag[:, [0, 2, 1]], (0.0, 1.0))
    assert np.abs(vals).max() > 1e-3
    assert np.allclose(swapped, -vals, rtol=1e-9, atol=1e-12)


def test_mirror_zero_rule():
    # the mirror maps the graph to itself up to one swap in the star of
    # size 3, and n = 2: the integrand is odd under z -> 1 - conj(z)
    import numpy as np

    g = parse_id("2;2;[2],[1,b1,b2]")
    assert weight_rule(g) == ("mirror zero", 0)
    z = _configurations(2, seed=5, count=200)
    vals = _raw_integrand(g, z.real, z.imag, (0.0, 1.0))
    mirrored = _raw_integrand(g, 1.0 - z.real, z.imag, (0.0, 1.0))
    assert np.abs(vals).max() > 1e-3
    assert np.allclose(mirrored, -vals, rtol=1e-9, atol=1e-12)


def test_build_weight_table_estimates_each_orbit_once(monkeypatch):
    committed = WeightTable.load(CACHE)
    estimated = []
    real = weights.weight_mc

    def stub(g, samples, seed):
        if weight_rule(g) is not None:
            return real(g, samples, seed)
        estimated.append(canonical_id(g))
        exact = committed.exact(canonical_id(g))
        return WeightEstimate(canonical_id(g), float(exact), 1e-6, samples, seed)

    monkeypatch.setattr(weights, "weight_mc", stub)
    table = build_weight_table(star_graphs(2), seed=2024)
    assert sorted(estimated) == sorted(
        {canonical_id(orbit(g, mirror=True)[0]) for g in star_graphs(2)
         if weight_rule(g) is None}
    )
    assert len(estimated) == 3
    assert {gid: e.snapped for gid, e in table.entries.items()} == {
        gid: e.snapped for gid, e in committed.entries.items()
    }


def test_estimate_and_snap_quadruples_the_samples_until_the_band_snaps(monkeypatch):
    # the 3-sigma band at 1M samples holds -1/12 and -2/23, the one at 4M
    # only -1/12
    rep, member = "2;2;[2,b1],[b1,b2]", "2;2;[2,b2],[b1,b2]"
    rounds = []

    def stub(g, samples, seed, boundary_points):
        rounds.append((canonical_id(g), samples, seed))
        stderr = 0.002 if samples < 4_000_000 else 0.0005
        return WeightEstimate(canonical_id(g), -1 / 12, stderr, samples, seed)

    monkeypatch.setattr(weights, "_sample_weight", stub)
    assert snap(stub(parse_id(rep), 1_000_000, 0, None), 24) is None
    rounds.clear()
    rseed = graph_seed(7, rep)
    memo = {}
    est, val = estimate_and_snap(parse_id(rep), 7, memo=memo)
    assert rounds == [(rep, 1_000_000, rseed), (rep, 4_000_000, rseed)]
    assert (est.graph, est.samples, val) == (rep, 4_000_000, Fraction(-1, 12))
    # the mirror member reuses the memo, with its orbit sign -1
    est, val = estimate_and_snap(parse_id(member), 7, memo=memo)
    assert len(rounds) == 2
    assert (est.graph, est.mean, est.stderr) == (member, 1 / 12, 0.0005)
    assert (est.samples, est.seed, val) == (4_000_000, rseed, Fraction(1, 12))
    # a cap of 1M stops after the first, ambiguous round
    rounds.clear()
    est, val = estimate_and_snap(parse_id(member), 7, max_samples=1_000_000)
    assert rounds == [(rep, 1_000_000, rseed)]
    assert (est.samples, val) == (1_000_000, None)


def test_estimate_and_snap_stops_escalating_at_the_cap(monkeypatch):
    # a band 3 wide never snaps: from 10 000 samples the rounds quadruple up
    # to MAX_SAMPLES, and the last round runs exactly the cap
    rounds = []

    def never_snaps(g, samples, seed, boundary_points):
        rounds.append(samples)
        return WeightEstimate(canonical_id(g), 0.0, 0.5, samples, seed)

    monkeypatch.setattr(weights, "_sample_weight", never_snaps)
    est, val = estimate_and_snap(parse_id("2;2;[2,b1],[b1,b2]"), 7, 24, 10_000)
    assert rounds == [10_000 * 4**k for k in range(7)] + [weights.MAX_SAMPLES]
    assert (est.samples, val) == (weights.MAX_SAMPLES, None)


def test_order_two_table_rederived_from_empty_cache():
    # the whole order-2 table from scratch: three Monte-Carlo orbits at 1M
    # samples must reproduce every committed snapped value
    table = build_weight_table(star_graphs(2), seed=2024)
    committed = WeightTable.load(CACHE)
    assert len(table.entries) == 85
    assert {gid: e.snapped for gid, e in table.entries.items()} == {
        gid: e.snapped for gid, e in committed.entries.items()
    }


# ---------------------------------------------------------------------------
# the integrand kernel against the dense determinant, and the sample stream
# ---------------------------------------------------------------------------

CLOSED_SET_ORBITS = (
    "3;2;[2,b1],[1,b1],[1,b2]",
    "3;2;[2,b1],[1,b1],[b1,b2]",
    "3;2;[2,b1],[3,b2],[2,b2]",
    "3;2;[2,b2],[1,b2],[b1,b2]",
)


def _raw_integrand_reference(g, a, b, boundary_points):
    """2^n det(d phi_e / d aerial coords) from the dense Jacobian, one row per
    edge in g.edges() and columns (a_1, b_1, ..., a_n, b_n), by LU."""
    import numpy as np

    n = g.n
    edges = g.edges()
    nsamp = a.shape[0]
    jac = np.zeros((nsamp, len(edges), 2 * n))
    for row, (src, tgt) in enumerate(edges):
        si = src - 1
        az, bz = a[:, si], b[:, si]
        if is_boundary(tgt):
            cw = np.full(nsamp, float(boundary_points[-tgt - 1]))
            dw = np.zeros(nsamp)
        else:
            ti = tgt - 1
            cw, dw = a[:, ti], b[:, ti]
        ux, uy = cw - az, dw - bz
        vx, vy = cw - az, dw + bz
        u2 = ux * ux + uy * uy
        v2 = vx * vx + vy * vy
        jac[:, row, 2 * si] = uy / u2 - vy / v2
        jac[:, row, 2 * si + 1] = -ux / u2 - vx / v2
        if not is_boundary(tgt):
            ti = tgt - 1
            jac[:, row, 2 * ti] += -uy / u2 + vy / v2
            jac[:, row, 2 * ti + 1] += ux / u2 - vx / v2
    return (2.0 ** n) * np.linalg.det(jac)


# the rules that read the weight off the support of the integrand; the
# others (order 1, closed set and the symmetries) fix the weight of graphs
# whose integrand the kernel must still get right
SUPPORT_RULES = ("edge count", "repeated edge", "empty graph", "unreached boundary")


def _rule_name(g):
    rule = weight_rule(g)
    return None if rule is None else rule[0]


def _integrand_graphs(order):
    """The graphs with exactly `order` aerial vertices and two edges per
    vertex whose weight no support rule fixes."""
    return [
        g for g in star_graphs(order)
        if g.n == order and _rule_name(g) not in SUPPORT_RULES
    ]


def _integrand_representatives(order):
    """Ids of the orbit (no mirror) representatives of _integrand_graphs(order):
    for order 1 the wedge, for order 2 the four classes whose Monte-Carlo
    estimates the stream pins fix, for order 3 the 31 classes before any
    closed-set or symmetry rule."""
    return sorted(
        {canonical_id(orbit(g)[0]) for g in _integrand_graphs(order)}
    )


def test_raw_integrand_matches_dense_determinant():
    # every Monte-Carlo orbit of orders 1-3 plus two graphs with odd stars;
    # the closed-set orbits integrate to noise and are checked below
    import numpy as np

    ids = {n: _integrand_representatives(n) for n in (1, 2, 3)}
    assert [len(v) for v in ids.values()] == [1, 4, 31]
    ids[2] += ["2;2;[b1],[1,b1,b2]", "2;2;[b2],[1,b1,b2]"]
    checked = 0
    for n, gids in ids.items():
        z = _configurations(n, seed=7, count=500)
        for gid in gids:
            if gid in CLOSED_SET_ORBITS:
                continue
            g = parse_id(gid)
            got = _raw_integrand(g, z.real, z.imag, (0.0, 1.0))
            want = _raw_integrand_reference(g, z.real, z.imag, (0.0, 1.0))
            assert np.all(np.abs(want) > 1e-8), gid
            assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want)), gid
            checked += 1
    assert checked == 1 + 6 + 27


def test_closed_set_orbit_integrands_vanish():
    # each of these has a set S of aerial vertices whose 2|S| edges all land
    # in S plus one boundary vertex; the wedge vanishes pointwise
    assert set(CLOSED_SET_ORBITS) <= set(_integrand_representatives(3))
    for gid in CLOSED_SET_ORBITS:
        assert weight_rule(parse_id(gid)) == ("closed set", 0), gid
    sizes = _integrand_sizes(CLOSED_SET_ORBITS + ("3;2;[2,b1],[3,b2],[1,b2]",), n=3)
    assert sizes.pop("3;2;[2,b1],[3,b2],[1,b2]").max() > 1e-3
    for gid, vals in sizes.items():
        assert vals.max() < 1e-9, gid


# _sample_weight(rep, 100_000, 11).mean of the integrand representatives of
# orders 1 and 2, as the dense-determinant kernel gave them
STREAM_PINS = {
    "1;2;[b1,b2]": 0.5000421401816252,
    "2;2;[2,b1],[1,b2]": -0.04738778109271478,
    "2;2;[2,b1],[b1,b2]": -0.09035400516183707,
    "2;2;[2,b2],[b1,b2]": 0.0836848359073919,
    "2;2;[b1,b2],[b1,b2]": 0.24956168086290512,
}


def test_weight_mc_keeps_its_sample_stream():
    # a changed draw order or count moves each mean by about one stderr,
    # far outside the tolerance; float reordering moves it by ~1e-14
    reps = _integrand_representatives(1) + _integrand_representatives(2)
    assert sorted(STREAM_PINS) == reps
    for gid, mean in STREAM_PINS.items():
        est = _sample_weight(parse_id(gid), 100_000, 11)
        assert abs(est.mean - mean) <= 1e-9 * abs(mean), gid


def test_weight_mc_keeps_its_order_three_sample_stream():
    # an order-3 cocycle class that only Monte Carlo fixes so far: a change
    # to a helper the bit-identity references share shows here
    g = parse_id("3;2;[2,3],[3,b1],[2,b2]")
    assert weight_rule(g) is None and orbit(g, mirror=True) == (g, 1)
    mean = -0.021636599767452698
    assert abs(_sample_weight(g, 100_000, 11).mean - mean) <= 1e-9 * abs(mean)


# ---------------------------------------------------------------------------
# blocks and workers against the whole-chunk serial loop
# ---------------------------------------------------------------------------


def _weight_mc_reference(g, samples, seed, boundary_points=(0.0, 1.0)):
    """(mean, stderr) from one serial loop that evaluates each chunk whole:
    the reference for the blocks and worker processes of _sample_weight."""
    import numpy as np

    n = g.n
    prefactor = 1.0 / (TWO_PI ** (2 * n))
    for star in g.stars:
        prefactor /= math.factorial(len(star))
    pairs = _internal_pairs(g)
    pins = [(i, float(t)) for i in range(n) for t in boundary_points]
    if pairs:
        betas = [0.35, 0.15]
        betas += [0.3 / len(pins)] * len(pins)
        betas += [0.2 / len(pairs)] * len(pairs)
    else:
        betas = [0.4, 0.2] + [0.4 / len(pins)] * len(pins)
    total_beta = sum(betas)
    betas = [b / total_beta for b in betas]
    pin_base = 2
    pair_base = 2 + len(pins)

    chunk_sums, chunk_sq_sums = [], []
    done = 0
    index = 0
    while done < samples:
        size = min(CHUNK, samples - done)
        rng = _chunk_rng(seed, index)
        comp = rng.choice(len(betas), size=size, p=betas)
        z = _cayley_points(rng.random((size, 2 * n)))
        u_heavy = rng.random((size, 2 * n))
        heavy_sel = comp == 1
        z[heavy_sel] = _heavy_points(u_heavy[heavy_sel])
        rho = _sample_offset_radius(rng.random(size))
        cos_t, sin_t = _cos_sin(TWO_PI * rng.random(size))
        offs = np.empty(size, dtype=complex)
        offs.real = rho * cos_t
        offs.imag = rho * sin_t
        for ci, (i, t) in enumerate(pins, start=pin_base):
            sel = comp == ci
            if not np.any(sel):
                continue
            moved = t + offs[sel]
            moved = np.where(moved.imag <= 0.0, np.conj(moved), moved)
            z[sel, i] = moved
        for ci, (i, j) in enumerate(pairs, start=pair_base):
            sel = comp == ci
            if not np.any(sel):
                continue
            moved = z[sel, i] + offs[sel]
            moved = np.where(moved.imag <= 0.0, np.conj(moved), moved)
            z[sel, j] = moved
        cay_all = _cayley_density(z)
        heavy_all = _heavy_density(z)
        density = betas[0] * math.prod(cay_all.T) + betas[1] * math.prod(
            heavy_all.T
        )
        others = [
            math.prod(c for m, c in enumerate(cay_all.T) if m != k)
            for k in range(n)
        ]
        for ci, (i, t) in enumerate(pins, start=pin_base):
            qd = 2.0 * _offset_density(z[:, i] - t)
            density = density + betas[ci] * others[i] * qd
        for ci, (i, j) in enumerate(pairs, start=pair_base):
            dz = z[:, j] - z[:, i]
            dz_mirror = np.conj(z[:, j]) - z[:, i]
            qd = _offset_density(dz) + _offset_density(dz_mirror)
            density = density + betas[ci] * others[j] * qd
        coincide = np.zeros(size, dtype=bool)
        for i in range(n):
            for t in boundary_points:
                coincide |= z[:, i] == complex(t, 0.0)
            for j in range(i + 1, n):
                coincide |= z[:, i] == z[:, j]
        if np.any(coincide):
            for k in range(n):
                z[coincide, k] = (k + 1) * 1j
        vals = (
            _raw_integrand(g, z.real, z.imag, boundary_points) / density
        ) * prefactor
        if np.any(coincide):
            vals = np.where(coincide, 0.0, vals)
        assert np.all(np.isfinite(vals))
        chunk_sums.append(float(np.sum(vals)))
        chunk_sq_sums.append(float(np.sum(vals * vals)))
        done += size
        index += 1
    mean = _pairwise_sum(chunk_sums) / samples
    var = max(_pairwise_sum(chunk_sq_sums) / samples - mean * mean, 0.0)
    return mean, math.sqrt(var / samples)


@pytest.mark.parametrize(
    "orders, samples, count, block",
    # each count leaves a short last chunk, and so a short last block; an odd
    # block size starts blocks, and an odd last chunk the parts of its
    # stream, inside Philox's groups of 4 doubles
    [
        ((1, 2), 2 * CHUNK + 5000, 5, weights.BLOCK),
        ((3,), CHUNK + 777, 27, weights.BLOCK),
        ((1, 2), CHUNK + 777, 5, 3001),
    ],
    ids=["order-1-2", "order-3", "order-1-2-odd-block"],
)
def test_weight_mc_is_bit_identical_to_whole_chunk_loop(
    orders, samples, count, block, monkeypatch
):
    monkeypatch.setattr(weights, "BLOCK", block)
    gids = [
        gid for order in orders for gid in _integrand_representatives(order)
        if gid not in CLOSED_SET_ORBITS
    ]
    assert len(gids) == count
    for gid in gids:
        g = parse_id(gid)
        est = _sample_weight(g, samples, 11)
        mean, stderr = _weight_mc_reference(g, samples, 11)
        assert (est.mean.hex(), est.stderr.hex()) == (mean.hex(), stderr.hex()), gid


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_weight_mc_gives_the_same_bits_for_any_worker_count(workers, monkeypatch):
    # four chunks, the last one short: three workers do not divide them evenly
    monkeypatch.setattr(weights, "_usable_cpus", lambda: workers)
    samples = 3 * CHUNK + 5000
    for gid in _integrand_representatives(1) + _integrand_representatives(2):
        if gid in CLOSED_SET_ORBITS:
            continue
        g = parse_id(gid)
        est = _sample_weight(g, samples, 11)
        mean, stderr = _weight_mc_reference(g, samples, 11)
        assert (est.mean.hex(), est.stderr.hex()) == (mean.hex(), stderr.hex()), gid


def test_chunk_holds_no_chunk_sized_draws():
    # drawing every uniform of a chunk first takes CHUNK * (3 + 4n) doubles
    import tracemalloc

    g = parse_id("2;2;[2,b1],[1,b2]")
    weights._chunk_sums(g, 11, (0.0, 1.0), 0, CHUNK)
    tracemalloc.start()
    try:
        weights._chunk_sums(g, 11, (0.0, 1.0), 0, CHUNK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < CHUNK * (3 + 4 * g.n) * 8


def test_failing_chunk_raises_and_leaves_no_worker(monkeypatch):
    import multiprocessing
    import threading

    import numpy as np

    real = weights._raw_integrand
    short = 100  # only the last of four chunks has a block this short

    def inf_in_last_chunk(g, a, b, boundary_points):
        vals = real(g, a, b, boundary_points)
        return np.full_like(vals, np.inf) if len(vals) == short else vals

    before = threading.active_count()
    _sample_weight(WEDGE, 3 * CHUNK + short, 3)
    assert threading.active_count() == before
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(weights, "_raw_integrand", inf_in_last_chunk)
    with pytest.raises(FloatingPointError, match=r"1;2;\[b1,b2\]"):
        _sample_weight(WEDGE, 3 * CHUNK + short, 3)
    assert threading.active_count() == before
    assert multiprocessing.active_children() == []
