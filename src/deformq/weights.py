"""Monte-Carlo estimation of graph weights, rational snapping, weight cache.

The weight of a graph with n aerial vertices and two boundary vertices is

    w = prod_v 1/|Star(v)|! . 1/(2pi)^{2n} . I

where I integrates the wedge of edge-angle 1-forms over the gauge slice that
pins the boundary points to (0, 1).  The slice integral is evaluated as the
determinant of the Jacobian of the edge angles with respect to the aerial
coordinates (rows in vertex order then star order), with a factor 2 per
aerial vertex folded into the integrand.  That factor is this artifact's
normalization: it makes the one-vertex two-edge graph come out at exactly
1/2 (raw integral (2pi)^2), which calibrates the star product so the order-1
coefficient is the Poisson bracket itself; it amounts to a fixed rescaling
of the formal parameter and so preserves associativity at every order.

Aerial points are drawn from a defensive mixture proposal and the integrand
is divided by the exact mixture density, which keeps the estimator unbiased
while taming every singular region:

  - a bulk component pushing uniform unit-disk samples through the Cayley
    map (matches the integrand where its mass is),
  - a heavy-tailed radial component around i (tail index 3; the edge-angle
    form decays like |z|^-3, so this bounds the ratio at infinity),
  - one pin component per aerial vertex and boundary point, planting the
    vertex near the pin with radial density ~ 1/rho (the form blows up like
    1/r when a vertex approaches a pinned boundary point),
  - one collision component per internally joined vertex pair, planting the
    target near its source the same way (same 1/rho blow-up at collisions).

Offsets landing below the real axis are folded back by mirror reflection,
which keeps every component density in closed form.  Uniform sampling alone
has a log-divergent second moment at the collision and pin strata and
settles too slowly to separate neighbouring snap candidates.  Samples are
generated in fixed-size chunks with independent Philox streams keyed by
(seed, chunk index) and combined by pairwise summation, so estimates are
bit-stable and chunk-parallelizable.
"""

from __future__ import annotations

import cmath
import json
import math
import zlib
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from deformq.graphs import AdmissibleGraph, canonical_id, is_boundary

TWO_PI = 2.0 * math.pi
CHUNK = 1 << 16


def angle(z: complex, w: complex) -> float:
    """Hyperbolic angle arg((w - z)/(w - conj z)) in [0, 2pi).

    z is the edge source in the closed upper half-plane, w the target.  For z
    on the boundary the conjugate equals z and the angle degenerates to 0,
    matching the smooth extension to the compactified configuration space.
    """
    if z == w:
        raise ValueError("angle undefined for coincident points")
    if z.imag < 0 or w.imag < 0:
        raise ValueError("points must lie in the closed upper half-plane")
    num = w - z
    den = w - z.conjugate()
    if den == 0:
        raise ValueError("angle undefined: target equals conjugate source")
    val = cmath.phase(num / den)
    return val % TWO_PI


@dataclass(frozen=True)
class WeightEstimate:
    graph: str
    mean: float
    stderr: float
    samples: int
    seed: int


def _pairwise_sum(values: list[float]) -> float:
    if not values:
        return 0.0
    items = list(values)
    while len(items) > 1:
        nxt = []
        for i in range(0, len(items) - 1, 2):
            nxt.append(items[i] + items[i + 1])
        if len(items) % 2 == 1:
            nxt.append(items[-1])
        items = nxt
    return items[0]


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed).jumped(index))


def _raw_integrand(
    g: AdmissibleGraph, a: np.ndarray, b: np.ndarray, boundary_points
) -> np.ndarray:
    """2^n det(d phi_e / d aerial coords) for a batch of configurations.

    a, b: arrays of shape (N, n) holding the aerial coordinates.
    """
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


def _cayley_density(z: np.ndarray) -> np.ndarray:
    """Density on H^2 of the Cayley-pushed uniform disk: 4 / (pi |z + i|^4).

    Matches the integrand's bulk well but its tail index 4 sits exactly on
    the second-moment boundary; the heavy component below covers the tail."""
    return 4.0 / (math.pi * np.abs(z + 1j) ** 4)


def _heavy_density(z: np.ndarray) -> np.ndarray:
    """Tail-insurance density: radial law 1/(pi (1+R)^3) around i, folded
    across the real axis.  Tail index 3 keeps F/p bounded at infinity since
    the edge-angle form decays like |z|^-3."""
    r1 = np.abs(z - 1j)
    r2 = np.abs(z + 1j)
    return (1.0 / (1.0 + r1) ** 3 + 1.0 / (1.0 + r2) ** 3) / math.pi


def _offset_density(dz: np.ndarray) -> np.ndarray:
    """2D density q(dz) = f(rho)/(2 pi rho), f(rho) = 2/(1+rho)^3: ~1/rho at 0."""
    rho = np.abs(dz)
    return 1.0 / (math.pi * rho * (1.0 + rho) ** 3)


def _sample_offset_radius(u: np.ndarray) -> np.ndarray:
    """Inverse CDF of f(rho) = 2/(1+rho)^3."""
    return 1.0 / np.sqrt(1.0 - u) - 1.0


def _internal_pairs(g: AdmissibleGraph) -> list[tuple[int, int]]:
    """Unordered aerial index pairs (0-based) joined by at least one edge."""
    pairs = set()
    for src, tgt in g.edges():
        if not is_boundary(tgt):
            pairs.add(tuple(sorted((src - 1, tgt - 1))))
    return sorted(pairs)


def _sample_cayley(rng: np.random.Generator, size: int, n: int) -> np.ndarray:
    u = rng.random((size, 2 * n))
    w = np.sqrt(u[:, 0::2]) * np.exp(1j * (TWO_PI * u[:, 1::2]))
    return 1j * (1.0 + w) / (1.0 - w)


def _sample_heavy(rng: np.random.Generator, size: int, n: int) -> np.ndarray:
    u = rng.random((size, 2 * n))
    disk_r = np.sqrt(u[:, 0::2])
    radii = disk_r / (1.0 - disk_r)
    z = 1j + radii * np.exp(1j * (TWO_PI * u[:, 1::2]))
    return np.where(z.imag <= 0.0, np.conj(z), z)


def structural_weight(g: AdmissibleGraph) -> Fraction | None:
    """The weight of a graph that is exact by rule, else None.

    A graph whose edge count differs from 2n + nbar - 2 has weight 0, as does
    a graph with a repeated edge (the same 1-form wedged with itself); the
    empty graph integrates the empty wedge over a point and has weight 1.
    """
    if not g.has_required_edge_count():
        return Fraction(0)
    edges = g.edges()
    if len(set(edges)) != len(edges):
        return Fraction(0)
    if g.n == 0:
        return Fraction(1)
    return None


def weight_mc(
    g: AdmissibleGraph,
    samples: int,
    seed: int,
    boundary_points: tuple[float, float] = (0.0, 1.0),
) -> WeightEstimate:
    """Monte-Carlo estimate of the (prefactored) weight of a graph, nbar = 2.

    Graphs with a structural_weight get it exactly, with zero stderr.
    Identical (graph, samples, seed) inputs give bit-identical estimates.
    """
    if g.nbar != 2:
        raise ValueError("only two boundary vertices are supported")
    if samples < 1:
        raise ValueError("samples must be positive")
    gid = canonical_id(g)
    exact = structural_weight(g)
    if exact is not None:
        return WeightEstimate(gid, float(exact), 0.0, samples, seed)
    n = g.n

    prefactor = 1.0 / (TWO_PI ** (2 * n))
    for star in g.stars:
        prefactor /= math.factorial(len(star))

    pairs = _internal_pairs(g)
    pins = [(i, float(t)) for i in range(n) for t in boundary_points]
    # component layout: [cayley, heavy, pins..., pairs...]
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
    ncomp = len(betas)

    chunk_sums: list[float] = []
    chunk_sq_sums: list[float] = []
    done = 0
    index = 0
    while done < samples:
        size = min(CHUNK, samples - done)
        rng = _chunk_rng(seed, index)
        comp = rng.choice(ncomp, size=size, p=betas)
        z = _sample_cayley(rng, size, n)
        z_heavy = _sample_heavy(rng, size, n)
        heavy_sel = comp == 1
        z[heavy_sel] = z_heavy[heavy_sel]
        # planted offsets, folded into the half-plane by mirror reflection
        rho = _sample_offset_radius(rng.random(size))
        offs = rho * np.exp(1j * (TWO_PI * rng.random(size)))
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
        # mixture density at the realized points
        cay_all = _cayley_density(z)
        heavy_all = _heavy_density(z)
        density = betas[0] * np.prod(cay_all, axis=1) + betas[1] * np.prod(
            heavy_all, axis=1
        )
        for ci, (i, t) in enumerate(pins, start=pin_base):
            others = np.ones(size)
            for k in range(n):
                if k != i:
                    others = others * cay_all[:, k]
            dz = z[:, i] - t
            qd = _offset_density(dz) + _offset_density(np.conj(dz))
            density = density + betas[ci] * others * qd
        for ci, (i, j) in enumerate(pairs, start=pair_base):
            others = np.ones(size)
            for k in range(n):
                if k != j:
                    others = others * cay_all[:, k]
            dz = z[:, j] - z[:, i]
            dz_mirror = np.conj(z[:, j]) - z[:, i]
            qd = _offset_density(dz) + _offset_density(dz_mirror)
            density = density + betas[ci] * others * qd
        # exact float coincidences (vertex on vertex or on a pin) occur with
        # probability ~0 and make the integrand singular; drop those samples
        coincide = np.zeros(size, dtype=bool)
        for i in range(n):
            for t in boundary_points:
                coincide |= z[:, i] == complex(t, 0.0)
            for j in range(i + 1, n):
                coincide |= z[:, i] == z[:, j]
        if np.any(coincide):
            for k in range(n):  # harmless distinct placeholders; zeroed below
                z[coincide, k] = (k + 1) * 1j
        vals = (
            _raw_integrand(g, z.real, z.imag, boundary_points) / density
        ) * prefactor
        if np.any(coincide):
            vals = np.where(coincide, 0.0, vals)
        if not np.all(np.isfinite(vals)):
            raise FloatingPointError(f"non-finite integrand sample for {gid}")
        chunk_sums.append(float(np.sum(vals)))
        chunk_sq_sums.append(float(np.sum(vals * vals)))
        done += size
        index += 1

    total = _pairwise_sum(chunk_sums)
    total_sq = _pairwise_sum(chunk_sq_sums)
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    stderr = math.sqrt(var / samples)
    return WeightEstimate(gid, mean, stderr, samples, seed)


# ---------------------------------------------------------------------------
# rational snapping
# ---------------------------------------------------------------------------


def snap(est: WeightEstimate, max_denominator: int) -> Fraction | None:
    """The unique rational p/q, q <= max_denominator, within 3 stderr of the
    mean, or None when zero or several candidates lie in the band."""
    if est.stderr <= 0:
        raise ValueError("snap requires a positive stderr")
    lo = est.mean - 3.0 * est.stderr
    hi = est.mean + 3.0 * est.stderr
    if hi - lo >= 1.0:
        return None  # band this wide always holds several integers
    candidates: set[Fraction] = set()
    for q in range(1, max_denominator + 1):
        p_lo = math.ceil(lo * q)
        p_hi = math.floor(hi * q)
        for p in range(p_lo, p_hi + 1):
            candidates.add(Fraction(p, q))
    if len(candidates) == 1:
        return candidates.pop()
    return None


# ---------------------------------------------------------------------------
# weight cache
# ---------------------------------------------------------------------------


@dataclass
class WeightEntry:
    mean: float
    stderr: float
    samples: int
    seed: int
    snapped: Fraction | None

    def to_json(self) -> dict:
        return {
            "mean": self.mean,
            "stderr": self.stderr,
            "samples": self.samples,
            "seed": self.seed,
            "snapped": str(self.snapped) if self.snapped is not None else None,
        }

    @staticmethod
    def from_json(data: dict) -> "WeightEntry":
        snapped = data.get("snapped")
        return WeightEntry(
            mean=float(data["mean"]),
            stderr=float(data["stderr"]),
            samples=int(data["samples"]),
            seed=int(data["seed"]),
            snapped=Fraction(snapped) if snapped is not None else None,
        )


class WeightTable:
    """GraphId -> weight entries, persisted as a JSON map (last write wins)."""

    def __init__(self, entries: dict[str, WeightEntry] | None = None):
        self.entries: dict[str, WeightEntry] = dict(entries or {})

    def put(self, est: WeightEstimate, snapped: Fraction | None):
        self.entries[est.graph] = WeightEntry(
            est.mean, est.stderr, est.samples, est.seed, snapped
        )

    def get(self, gid: str) -> WeightEntry | None:
        return self.entries.get(gid)

    def exact(self, gid: str) -> Fraction | None:
        entry = self.entries.get(gid)
        return entry.snapped if entry else None

    def to_json(self) -> dict:
        return {gid: e.to_json() for gid, e in sorted(self.entries.items())}

    @staticmethod
    def from_json(data: dict) -> "WeightTable":
        return WeightTable(
            {gid: WeightEntry.from_json(e) for gid, e in data.items()}
        )

    def save(self, path: str | Path):
        Path(path).write_text(json.dumps(self.to_json(), indent=1) + "\n")

    @staticmethod
    def load(path: str | Path) -> "WeightTable":
        return WeightTable.from_json(json.loads(Path(path).read_text()))


def graph_seed(base_seed: int, gid: str) -> int:
    """Stable per-graph stream key derived from (seed, graph id)."""
    return ((base_seed << 32) ^ zlib.crc32(gid.encode("utf-8"))) & (2**64 - 1)


def estimate_and_snap(
    g: AdmissibleGraph,
    seed: int,
    max_denominator: int = 24,
    initial_samples: int = 1_000_000,
    max_samples: int = 64_000_000,
) -> tuple[WeightEstimate, Fraction | None]:
    """Estimate with doubling sample counts until snapping is unambiguous.

    A graph with a structural_weight returns it directly.  Any other
    estimate must have a positive spread: snap raises ValueError otherwise.
    """
    gid = canonical_id(g)
    gseed = graph_seed(seed, gid)
    samples = initial_samples
    est = weight_mc(g, samples, gseed)
    exact = structural_weight(g)
    if exact is not None:
        return est, exact
    while True:
        snapped = snap(est, max_denominator)
        if snapped is not None or samples >= max_samples:
            return est, snapped
        samples *= 4
        est = weight_mc(g, samples, gseed)


def build_weight_table(
    graphs,
    seed: int,
    max_denominator: int = 24,
    initial_samples: int = 1_000_000,
    table: WeightTable | None = None,
) -> WeightTable:
    """Snapped weights for the given graphs; existing snapped entries are kept."""
    table = table if table is not None else WeightTable()
    for g in graphs:
        gid = canonical_id(g)
        if table.exact(gid) is not None:
            continue
        est, snapped = estimate_and_snap(
            g, seed, max_denominator, initial_samples
        )
        table.put(est, snapped)
    return table
