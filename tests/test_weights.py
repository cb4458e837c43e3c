import cmath
import math
from fractions import Fraction

import pytest

from deformq.graphs import AdmissibleGraph, boundary, parse_id
from deformq.weights import (
    WeightEntry,
    WeightEstimate,
    WeightTable,
    angle,
    build_weight_table,
    estimate_and_snap,
    graph_seed,
    snap,
    structural_weight,
    weight_mc,
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
    est = weight_mc(WEDGE, 200_000, 4242)
    assert est.stderr > 0
    assert abs(est.mean - 0.5) <= 3 * est.stderr
    # equivalent restatement: raw slice integral is (2 pi)^2
    raw = est.mean * 2 * (2 * math.pi) ** 2
    assert abs(raw - (2 * math.pi) ** 2) <= 3 * est.stderr * 2 * (2 * math.pi) ** 2


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
    a = weight_mc(WEDGE, 150_000, 99)
    b = weight_mc(WEDGE, 150_000, 99)
    assert (a.mean, a.stderr) == (b.mean, b.stderr)
    c = weight_mc(WEDGE, 150_000, 100)
    assert (c.mean, c.stderr) != (a.mean, a.stderr)


def test_stderr_scaling():
    # doubling samples four times cuts stderr by about 4 (within 20%)
    small = weight_mc(WEDGE, 60_000, 31415)
    large = weight_mc(WEDGE, 960_000, 31415)
    ratio = small.stderr / large.stderr
    assert 0.8 * 4 <= ratio <= 1.2 * 4


def test_gauge_invariance_of_pinning():
    base = weight_mc(WEDGE, 150_000, 555)
    for c in (2.0, 5.0):
        moved = weight_mc(WEDGE, 150_000, 556, boundary_points=(0.0, c))
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
    a = weight_mc(WEDGE, 150_000, 777)
    swapped = AdmissibleGraph(1, 2, ((b2, b1),))
    c = weight_mc(swapped, 150_000, 778)
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


def test_wedge_snaps_to_half():
    est = weight_mc(WEDGE, 1_000_000, 2718)
    assert est.stderr < 0.01
    assert snap(est, 12) == Fraction(1, 2)


def test_estimate_and_snap_exact_cases():
    est, val = estimate_and_snap(AdmissibleGraph(0, 2, ()), 5)
    assert val == 1 and est.stderr == 0.0
    est, val = estimate_and_snap(AdmissibleGraph(1, 2, ((b1, b1),)), 5)
    assert val == 0 and est.stderr == 0.0


def test_zero_spread_estimate_does_not_snap():
    # one sample gives zero variance; only structural weights are exact
    assert structural_weight(WEDGE) is None
    with pytest.raises(ValueError):
        estimate_and_snap(WEDGE, 5, initial_samples=1)


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


def test_weight_entry_json_round_trip():
    e = WeightEntry(0.25, 0.001, 10, 3, Fraction(1, 4))
    assert WeightEntry.from_json(e.to_json()) == e
    e2 = WeightEntry(0.25, 0.001, 10, 3, None)
    assert WeightEntry.from_json(e2.to_json()) == e2


def test_snap_wide_band_refused():
    est = WeightEstimate("g", 0.5, 10.0, 1, 1)
    assert snap(est, 24) is None
