"""Graph weights: the rules that fix some exactly, Monte-Carlo estimation of
the rest, rational snapping, and the builds that fill a weight table.

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

weight_mc returns a weight that a rule fixes (weight_rule: the support of
the integrand, that order-1 normalization, closed vertex sets, odd
automorphisms and the mirror) exactly, without sampling; every other weight
it estimates with _sample_weight, the Monte-Carlo sampler described below.
Estimates are made once per class of graphs under relabelling, star
reordering and the mirror b1 <-> b2 (graphs.orbit with the mirror).

The Jacobian is never stored densely.  An edge row has nonzero entries only
in the columns of its endpoints: 2 for an edge to a boundary point, 4 for an
edge between aerial vertices.  The determinant is expanded row by row over
the set of columns used so far, a signed sum over the permutations that
touch only nonzero entries, memoised by column set.  This holds for any n
and any star sizes, and it divides by nothing, so no pivot can vanish.

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
which keeps every component density in closed form.  Every sample draws
the uniforms of every component, so a sample's position in the stream does
not depend on which component it picked; only the rows that picked the
heavy component turn its uniforms into points.  Uniform sampling alone
has a log-divergent second moment at the collision and pin strata and
settles too slowly to separate neighbouring snap candidates.

Samples are generated in chunks of CHUNK with independent Philox streams
keyed by (seed, chunk index).  A chunk is evaluated in blocks of BLOCK
rows, and a block draws only its own uniforms: Philox is counter-based, so
each part of the chunk's stream (component, Cayley, heavy, offset radius
and offset angle uniforms) is read from its own position without drawing
what lies before it.  A chunk holds its sample values and one block's
temporaries, never the uniforms of the whole chunk.  The chunks run on a
pool of worker processes forked from the caller, one per usable core (a
chunk is many small numpy calls, and threads would trade the interpreter
lock between each pair of them); each chunk sums its own samples, the
workers send back the two sums, and the chunk sums are combined by
pairwise summation in chunk order.  Nothing a sum depends on varies with
the block or the worker, so estimates are bit-identical for any number of
cores.

The weight table itself lives in `table`; WeightTable and MAX_SAMPLES,
which the builds here use, are imported from it.  The exact-algebra
commands (star and check assoc) import this module only when the cache lacks
a snapped weight they need; numpy and the process pool are imported inside
the Monte-Carlo functions, so that a weight fixed by a rule loads neither.
"""

from __future__ import annotations

import cmath
import itertools
import math
import os
import zlib
from fractions import Fraction

from deformq.graphs import (
    AdmissibleGraph,
    boundary,
    canonical_id,
    has_repeated_edge,
    is_boundary,
    orbit,
)
from deformq.record import Frozen
from deformq.table import MAX_SAMPLES, WeightTable

TWO_PI = 2.0 * math.pi
CHUNK = 1 << 16
BLOCK = 8192


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


class WeightEstimate(Frozen):
    __slots__ = ("graph", "mean", "stderr", "samples", "seed")


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
    import numpy as np

    return np.random.Generator(np.random.Philox(key=seed).jumped(index))


def _jacobian_rows(
    g: AdmissibleGraph, a: np.ndarray, b: np.ndarray, boundary_points
) -> list[dict[int, np.ndarray]]:
    """The nonzero entries of each row of d phi_e / d aerial coords.

    Rows follow g.edges(); an entry maps a column (2i for a_i, 2i+1 for b_i)
    to its values over the batch.  An edge to a boundary point has entries
    only at its source, an edge between aerial vertices at both ends."""
    rows = []
    for src, tgt in g.edges():
        si = src - 1
        az, bz = a[:, si], b[:, si]
        if is_boundary(tgt):
            # target on the real axis: |w - z| = |w - conj z|
            ux = boundary_points[-tgt - 1] - az
            inv = 1.0 / (ux * ux + bz * bz)
            rows.append({2 * si: -2.0 * bz * inv, 2 * si + 1: -2.0 * ux * inv})
            continue
        ti = tgt - 1
        ux = a[:, ti] - az
        uy = b[:, ti] - bz
        vy = b[:, ti] + bz
        ux2 = ux * ux
        inv_u = 1.0 / (ux2 + uy * uy)
        inv_v = 1.0 / (ux2 + vy * vy)
        d_a = uy * inv_u - vy * inv_v
        rows.append(
            {
                2 * si: d_a,
                2 * si + 1: -ux * (inv_u + inv_v),
                2 * ti: -d_a,
                2 * ti + 1: ux * (inv_u - inv_v),
            }
        )
    return rows


def _raw_integrand(
    g: AdmissibleGraph, a: np.ndarray, b: np.ndarray, boundary_points
) -> np.ndarray:
    """2^n det(d phi_e / d aerial coords) for a batch of configurations.

    a, b: arrays of shape (N, n) holding the aerial coordinates.

    The determinant is expanded row by row over the set of columns the rows
    so far have used: partial[S] is the signed sum, over the assignments of
    the first k rows to distinct nonzero entries in the columns S, of the
    products of those entries.  Each row has 2 or 4 nonzero entries, so few
    column sets occur.
    """
    import numpy as np

    n = g.n
    partial = {0: np.ones(a.shape[0])}
    for row in _jacobian_rows(g, a, b, boundary_points):
        nxt: dict[int, np.ndarray] = {}
        for used, acc in partial.items():
            for col, val in row.items():
                bit = 1 << col
                if used & bit:
                    continue
                term = acc * val
                # the permutation sign gains one inversion per used column
                # to the right of col
                odd = bin(used >> col).count("1") % 2
                key = used | bit
                if key not in nxt:
                    nxt[key] = -term if odd else term
                elif odd:
                    nxt[key] -= term
                else:
                    nxt[key] += term
        partial = nxt
    det = partial.get((1 << (2 * n)) - 1)
    if det is None:  # some column has no entry on any row
        return np.zeros(a.shape[0])
    return (2.0 ** n) * det


def _cayley_density(z: np.ndarray) -> np.ndarray:
    """Density on H^2 of the Cayley-pushed uniform disk: 4 / (pi |z + i|^4).

    Matches the integrand's bulk well but its tail index 4 sits exactly on
    the second-moment boundary; the heavy component below covers the tail."""
    import numpy as np

    s = z.real * z.real + (z.imag + 1.0) * (z.imag + 1.0)  # |z + i|^2
    return 4.0 / (math.pi * (s * s))


def _heavy_density(z: np.ndarray) -> np.ndarray:
    """Tail-insurance density: radial law 1/(pi (1+R)^3) around i, folded
    across the real axis.  Tail index 3 keeps F/p bounded at infinity since
    the edge-angle form decays like |z|^-3."""
    import numpy as np

    t1 = 1.0 + np.abs(z - 1j)
    t2 = 1.0 + np.abs(z + 1j)
    return (1.0 / (t1 * t1 * t1) + 1.0 / (t2 * t2 * t2)) / math.pi


def _offset_density(dz: np.ndarray) -> np.ndarray:
    """2D density q(dz) = f(rho)/(2 pi rho), f(rho) = 2/(1+rho)^3: ~1/rho at 0."""
    import numpy as np

    rho = np.abs(dz)
    t = 1.0 + rho
    return 1.0 / (math.pi * rho * (t * t * t))


def _sample_offset_radius(u: np.ndarray) -> np.ndarray:
    """Inverse CDF of f(rho) = 2/(1+rho)^3."""
    import numpy as np

    return 1.0 / np.sqrt(1.0 - u) - 1.0


def _cos_sin(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos t and sin t from the half-angle tangent tau = tan(t/2):
    ((1 - tau^2), 2 tau) / (1 + tau^2), within 3e-16 of np.cos and np.sin.

    numpy vectorises float64 tan on x86-64 but not cos and sin, which made
    them the costliest step of the samplers."""
    import numpy as np

    tau = np.tan(0.5 * t)
    tau2 = tau * tau
    inv = 1.0 / (1.0 + tau2)
    return (1.0 - tau2) * inv, 2.0 * tau * inv


def _internal_pairs(g: AdmissibleGraph) -> list[tuple[int, int]]:
    """Unordered aerial index pairs (0-based) joined by at least one edge."""
    pairs = set()
    for src, tgt in g.edges():
        if not is_boundary(tgt):
            pairs.add(tuple(sorted((src - 1, tgt - 1))))
    return sorted(pairs)


def _cayley_points(u: np.ndarray) -> np.ndarray:
    """Cayley images i (1 + w)/(1 - w) of uniform disk points w = r e^{i t}
    from uniforms u of shape (N, 2n), in real arithmetic:
    (-2 r sin t + i (1 - r^2)) / |1 - w|^2."""
    import numpy as np

    r = np.sqrt(u[:, 0::2])
    cos_t, sin_t = _cos_sin(TWO_PI * u[:, 1::2])
    x = 1.0 - r * cos_t
    y = r * sin_t
    inv = 1.0 / (x * x + y * y)
    z = np.empty(r.shape, dtype=complex)
    z.real = -2.0 * y * inv
    z.imag = (1.0 - u[:, 0::2]) * inv
    return z


def _heavy_points(u: np.ndarray) -> np.ndarray:
    """Heavy-component points from uniforms u of shape (N, 2n), folded into
    the upper half-plane."""
    import numpy as np

    disk_r = np.sqrt(u[:, 0::2])
    radii = disk_r / (1.0 - disk_r)
    cos_t, sin_t = _cos_sin(TWO_PI * u[:, 1::2])
    z = np.empty(disk_r.shape, dtype=complex)
    z.real = radii * cos_t
    z.imag = np.abs(1.0 + radii * sin_t)
    return z


def _closed_set(g: AdmissibleGraph) -> bool:
    """Whether a nonempty set S of aerial vertices sends at least 2|S| edges,
    all into S and one boundary vertex.

    Those edges' rows of the Jacobian are nonzero only in the 2|S| columns
    of S.  More than 2|S| such rows are dependent; exactly 2|S| have the
    dilation of S about that boundary point, which moves no angle among
    them, in their kernel.  Either way the integrand vanishes pointwise."""
    for size in range(1, g.n + 1):
        for members in itertools.combinations(range(1, g.n + 1), size):
            targets = [t for v in members for t in g.stars[v - 1]]
            if len(targets) < 2 * size:
                continue
            outside = {t for t in targets if t not in members}
            if len(outside) <= 1 and all(map(is_boundary, outside)):
                return True
    return False


def weight_rule(g: AdmissibleGraph) -> tuple[str, Fraction] | None:
    """(rule, weight) for a graph whose weight a rule fixes, else None.

    The rules, in the order they are tried:

      - edge count: an edge count other than 2n + nbar - 2 gives 0;
      - repeated edge: the same 1-form wedged with itself gives 0;
      - empty graph: the empty wedge over a point gives 1;
      - unreached boundary: for n >= 1, a boundary vertex that no edge
        reaches gives 0, since the form is pulled back from the
        configuration space without that point, whose dimension is one less
        than the form's degree;

    and, for two boundary vertices,

      - order 1: the wedge [b1,b2] weighs 1/2, the normalization that makes
        B_1 the Poisson bracket, and [b2,b1] weighs -1/2;
      - closed set: see _closed_set; gives 0;
      - odd automorphism: a relabelling (with star reorderings) that maps g
        to itself with sign -1 gives w = -w = 0, seen as orbit sign 0;
      - mirror zero: likewise for a relabelling composed with the mirror,
        seen as sign 0 of the orbit with the mirror.
    """
    if not g.has_required_edge_count():
        return "edge count", Fraction(0)
    if has_repeated_edge(g):
        return "repeated edge", Fraction(0)
    if g.n == 0:
        return "empty graph", Fraction(1)
    targets = {t for _, t in g.edges()}
    if any(boundary(k) not in targets for k in range(1, g.nbar + 1)):
        return "unreached boundary", Fraction(0)
    if g.nbar != 2:
        return None
    if g.n == 1:
        return "order 1", Fraction(1 if g.stars[0] == (boundary(1), boundary(2)) else -1, 2)
    if _closed_set(g):
        return "closed set", Fraction(0)
    if orbit(g, mirror=True)[1] == 0:
        return "odd automorphism" if orbit(g)[1] == 0 else "mirror zero", Fraction(0)
    return None


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _stream_at(seed: int, index: int, offset: int) -> np.random.Generator:
    """The generator of chunk `index` positioned at double `offset` of its
    stream: Philox makes 4 doubles per counter step, so advance(k) skips 4k
    of them and the rest are drawn and dropped."""
    rng = _chunk_rng(seed, index)
    rng.bit_generator.advance(offset // 4)
    rng.random(offset % 4)
    return rng


def _chunk_sums(
    g: AdmissibleGraph,
    seed: int,
    boundary_points: tuple[float, float],
    index: int,
    size: int,
) -> tuple[float, float]:
    """The sum and the sum of squares of the weighted integrand over chunk
    `index` of `size` samples.

    The chunk's stream holds, in this order, the component uniforms, then
    the Cayley, heavy, offset radius and offset angle uniforms of all its
    samples.  Each part is read through a generator placed at its start,
    BLOCK rows at a time, so a block draws only its own rows and evaluates
    their points, mixture density and integrand.  Both sums run over the
    whole chunk, so the result does not depend on BLOCK."""
    import numpy as np

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
    cdf = np.cumsum(betas)
    cdf /= cdf[-1]

    u_comp, u_cayley, u_heavy, u_rho, u_angle = (
        _stream_at(seed, index, offset)
        for offset in itertools.accumulate((0, size, 2 * n * size, 2 * n * size, size))
    )
    vals = np.empty(size)
    for lo in range(0, size, BLOCK):
        m = min(BLOCK, size - lo)
        # a component uniform u picks the number of cumulative weights <= u,
        # as Generator.choice(p=betas) does; a small integer type makes the
        # stable sort below a radix sort
        u = u_comp.random(m)
        comp = np.zeros(m, dtype=np.min_scalar_type(len(betas)))
        for edge in cdf:
            comp += edge <= u
        # rows[c]: the rows of component c, in row order
        rows = np.split(
            np.argsort(comp, kind="stable"),
            np.cumsum(np.bincount(comp, minlength=len(betas)))[:-1],
        )
        z = _cayley_points(u_cayley.random((m, 2 * n)))
        # every sample draws heavy uniforms, which keeps the stream layout;
        # only the samples of the heavy component transform them
        z[rows[1]] = _heavy_points(u_heavy.random((m, 2 * n))[rows[1]])
        # planted offsets, folded into the half-plane by mirror reflection
        rho = _sample_offset_radius(u_rho.random(m))
        cos_t, sin_t = _cos_sin(TWO_PI * u_angle.random(m))
        offs = np.empty(m, dtype=complex)
        offs.real = rho * cos_t
        offs.imag = rho * sin_t
        for ci, (i, t) in enumerate(pins, start=pin_base):
            moved = t + offs[rows[ci]]
            z[rows[ci], i] = np.where(moved.imag <= 0.0, np.conj(moved), moved)
        for ci, (i, j) in enumerate(pairs, start=pair_base):
            moved = z[rows[ci], i] + offs[rows[ci]]
            z[rows[ci], j] = np.where(moved.imag <= 0.0, np.conj(moved), moved)
        # mixture density at the realized points
        cay_all = _cayley_density(z)
        heavy_all = _heavy_density(z)
        density = betas[0] * math.prod(cay_all.T)
        density += betas[1] * math.prod(heavy_all.T)
        # others[k]: product of the Cayley densities of every vertex but k
        others = [
            math.prod(c for v, c in enumerate(cay_all.T) if v != k)
            for k in range(n)
        ]
        for ci, (i, t) in enumerate(pins, start=pin_base):
            # the mirror image of z - t about the axis has the same modulus
            density += betas[ci] * others[i] * (2.0 * _offset_density(z[:, i] - t))
        for ci, (i, j) in enumerate(pairs, start=pair_base):
            qd = _offset_density(z[:, j] - z[:, i])
            qd += _offset_density(np.conj(z[:, j]) - z[:, i])
            density += betas[ci] * others[j] * qd
        # exact float coincidences (vertex on vertex or on a pin) occur with
        # probability ~0 and make the integrand singular; drop those samples
        coincide = np.zeros(m, dtype=bool)
        for i in range(n):
            for t in boundary_points:
                coincide |= z[:, i] == complex(t, 0.0)
            for j in range(i + 1, n):
                coincide |= z[:, i] == z[:, j]
        if np.any(coincide):
            for k in range(n):  # harmless distinct placeholders; zeroed below
                z[coincide, k] = (k + 1) * 1j
        block = vals[lo : lo + m]
        raw = _raw_integrand(g, z.real, z.imag, boundary_points)
        np.divide(raw, density, out=block)
        block *= prefactor
        block[coincide] = 0.0
    if not np.all(np.isfinite(vals)):
        raise FloatingPointError(
            f"non-finite integrand sample for {canonical_id(g)}"
        )
    total = float(np.sum(vals))
    vals *= vals
    return total, float(np.sum(vals))


def weight_mc(
    g: AdmissibleGraph,
    samples: int,
    seed: int,
    boundary_points: tuple[float, float] = (0.0, 1.0),
) -> WeightEstimate:
    """The (prefactored) weight of a graph, nbar = 2: exact, with zero
    stderr, when a rule fixes it (weight_rule), else the Monte-Carlo
    estimate of _sample_weight.
    """
    if g.nbar != 2:
        raise ValueError("only two boundary vertices are supported")
    if samples < 1:
        raise ValueError("samples must be positive")
    rule = weight_rule(g)
    if rule is not None:
        return WeightEstimate(canonical_id(g), float(rule[1]), 0.0, samples, seed)
    return _sample_weight(g, samples, seed, boundary_points)


def _sample_weight(
    g: AdmissibleGraph,
    samples: int,
    seed: int,
    boundary_points: tuple[float, float] = (0.0, 1.0),
) -> WeightEstimate:
    """Monte-Carlo estimate of the (prefactored) weight of a graph with two
    boundary vertices and samples >= 1, whatever rules fix it.

    Identical (graph, samples, seed) inputs give bit-identical estimates on
    any number of cores.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    import numpy.random  # noqa: F401 - loaded once here, not again in each worker

    sizes = [min(CHUNK, samples - done) for done in range(0, samples, CHUNK)]
    # forked workers inherit this module as it stands, patched names
    # included; map yields the sums in chunk order and, when a chunk raises,
    # cancels the chunks that have not started
    with ProcessPoolExecutor(
        max_workers=min(_usable_cpus(), len(sizes)),
        mp_context=multiprocessing.get_context("fork"),
    ) as pool:
        sums = list(
            pool.map(
                _chunk_sums,
                itertools.repeat(g),
                itertools.repeat(seed),
                itertools.repeat(boundary_points),
                range(len(sizes)),
                sizes,
            )
        )
    total = _pairwise_sum([s for s, _ in sums])
    total_sq = _pairwise_sum([sq for _, sq in sums])
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    stderr = math.sqrt(var / samples)
    return WeightEstimate(canonical_id(g), mean, stderr, samples, seed)


# ---------------------------------------------------------------------------
# rational snapping
# ---------------------------------------------------------------------------


def snap(est: WeightEstimate, max_denominator: int) -> Fraction | None:
    """The unique rational p/q, q <= max_denominator, within 3 stderr of the
    mean, or None when zero or several candidates lie in the band."""
    if max_denominator < 1:
        raise ValueError("snap requires max_denominator >= 1")
    if est.stderr <= 0:
        raise ValueError("snap requires a positive stderr")
    lo = est.mean - 3.0 * est.stderr
    hi = est.mean + 3.0 * est.stderr
    if hi - lo >= 1.0:
        return None  # band this wide always holds several integers
    # The fractions p/q, q <= n, in the band are consecutive in the Farey
    # sequence of order n, so the one nearest the mean is alone there unless
    # a neighbour is too: a/b with p b - a q = 1 and c/d with c q - p d = 1,
    # each with the largest such denominator <= n.
    n = max_denominator
    near = Fraction(est.mean).limit_denominator(n)
    p, q = near.numerator, near.denominator
    inv = pow(p, -1, q)  # 0 when q == 1: both neighbours have denominator n
    b, d = n - (n - inv) % q, n - (n + inv) % q
    fractions = [(p, q), ((p * b - 1) // q, b), ((p * d + 1) // q, d)]
    # exact for any bound: a float product lo * y overflows past 1.8e308
    lo, hi = Fraction(lo), Fraction(hi)
    inside = [lo * y <= x <= hi * y for x, y in fractions]
    return near if inside == [True, False, False] else None


# ---------------------------------------------------------------------------
# table builds
# ---------------------------------------------------------------------------


def graph_seed(base_seed: int, gid: str) -> int:
    """Stable per-graph stream key derived from (seed, graph id).

    The seed fills the high 32 bits of the 64-bit key, so it must lie in
    [0, 2**32): any other seed would share its streams with one inside."""
    if not 0 <= base_seed < 1 << 32:
        raise ValueError(f"seed {base_seed} is outside [0, 2**32)")
    return (base_seed << 32) ^ zlib.crc32(gid.encode("utf-8"))


def estimate_and_snap(
    g: AdmissibleGraph,
    seed: int,
    max_denominator: int = 24,
    initial_samples: int = 1_000_000,
    max_samples: int = MAX_SAMPLES,
    memo: dict | None = None,
) -> tuple[WeightEstimate, Fraction | None]:
    """Estimate with quadrupling sample counts until snapping is unambiguous
    or a round of max_samples has run.

    A graph whose weight a rule fixes (weight_rule) returns it directly.  Any other graph
    is estimated through its orbit representative (over relabelling, star
    reordering and the mirror), with the stream key graph_seed(seed,
    representative id), and the result comes back under g's id with the
    orbit sign applied to the mean and the snapped value.
    Callers passing the same `memo` dict (with the same other arguments)
    estimate each orbit once.  A Monte-Carlo estimate must have a positive
    spread: snap raises ValueError otherwise.
    """
    gid = canonical_id(g)
    rule = weight_rule(g)
    if rule is not None:
        return weight_mc(g, initial_samples, graph_seed(seed, gid)), rule[1]
    rep, sign = orbit(g, mirror=True)
    rid = canonical_id(rep)
    memo = {} if memo is None else memo
    if rid not in memo:
        samples, rseed = initial_samples, graph_seed(seed, rid)
        while True:
            est = weight_mc(rep, samples, rseed)
            snapped = snap(est, max_denominator)
            if snapped is not None or samples >= max_samples:
                break
            samples = min(4 * samples, max_samples)
        memo[rid] = est, snapped
    est, snapped = memo[rid]
    return (
        WeightEstimate(gid, sign * est.mean, est.stderr, est.samples, est.seed),
        None if snapped is None else sign * snapped,
    )


def build_weight_table(
    graphs,
    seed: int,
    max_denominator: int = 24,
    initial_samples: int = 1_000_000,
    table: WeightTable | None = None,
    max_samples: int = MAX_SAMPLES,
) -> WeightTable:
    """Snapped weights for the given graphs; existing snapped entries are kept.

    An unsnapped entry that ran to max_samples on the stream this call would
    use is snapped again from its stored estimate, which a new run would
    only reproduce.  Each orbit is estimated at most once per call; every
    requested graph gets its own entry under its labelled id."""
    table = table if table is not None else WeightTable()
    memo: dict = {}
    for g in graphs:
        gid = canonical_id(g)
        e = table.get(gid)
        if e is not None and e.snapped is not None:
            continue
        if (
            e is not None
            and e.samples >= max_samples
            and e.stderr > 0
            and weight_rule(g) is None
            and e.seed == graph_seed(seed, canonical_id(orbit(g, mirror=True)[0]))
        ):
            est = WeightEstimate(gid, e.mean, e.stderr, e.samples, e.seed)
            table.put(est, snap(est, max_denominator))
            continue
        est, snapped = estimate_and_snap(
            g, seed, max_denominator, initial_samples, max_samples, memo
        )
        table.put(est, snapped)
    return table
