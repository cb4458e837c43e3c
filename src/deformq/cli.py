"""Command-line surface: graphs, weight, star, moyal, assoc, check.

All outputs are UTF-8 JSON on stdout.  Exit codes: 0 pass, 1 check failure,
2 usage/parse error.  The weight cache path resolves flag > DEFORMQ_CACHE
environment variable > ./weights_cache.json.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from deformq.graphs import canonical_id, enumerate_graphs, parse_id
from deformq.operators import MultiDiffOp, hkr, hochschild_d, gerstenhaber_bracket
from deformq.polyalg import (
    Polynomial,
    PolyVector,
    format_polynomial,
    jacobiator,
    parse_polynomial,
)
from deformq.starprod import (
    MissingWeightError,
    associator,
    associator_weight_intervals,
    intervals_contain_zero,
    kontsevich_star_series,
    lift,
    moyal,
    moyal_via_wick,
    star_apply,
    star_graphs,
)
from deformq.weights import (
    WeightTable,
    build_weight_table,
    estimate_and_snap,
    graph_seed,
    snap,
    structural_weight,
    weight_mc,
)

DEFAULT_CACHE = "weights_cache.json"
ENV_CACHE = "DEFORMQ_CACHE"


class UsageError(Exception):
    pass


class CheckFailure(Exception):
    pass


@dataclass
class RunConfig:
    order: int = 2
    samples: int = 1_000_000
    seed: int = 2024
    weights_mode: str = "table"
    max_denominator: int = 24
    cache_path: Path = Path(DEFAULT_CACHE)

    def validate(self):
        if self.order > 3:
            raise UsageError("--order above 3 is outside the weight table scope")
        if self.order < 0:
            raise UsageError("--order must be nonnegative")
        if self.samples < 10_000:
            raise UsageError("--samples must be at least 10000")
        if self.weights_mode not in ("table", "mc"):
            raise UsageError("--weights must be 'table' or 'mc'")


def _resolve_cache(flag_value: str | None) -> Path:
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(ENV_CACHE)
    if env:
        return Path(env)
    return Path(DEFAULT_CACHE)


def _config(args) -> RunConfig:
    cfg = RunConfig(
        order=getattr(args, "order", 2),
        samples=getattr(args, "samples", 1_000_000),
        seed=getattr(args, "seed", 2024),
        weights_mode=getattr(args, "weights", "table"),
        max_denominator=getattr(args, "max_denominator", 24),
        cache_path=_resolve_cache(getattr(args, "cache", None)),
    )
    cfg.validate()
    return cfg


def load_poisson(path: str) -> PolyVector:
    """Poisson JSON: {"dim": d, "components": {"i,j": "poly-string"}}."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read poisson file {path}: {exc}") from exc
    try:
        dim = int(data["dim"])
        comps = {}
        for key, text in data.get("components", {}).items():
            i_str, j_str = key.split(",")
            i, j = int(i_str), int(j_str)
            if not 1 <= i < j <= dim:
                raise ValueError(f"component key {key!r} must satisfy 1 <= i < j <= dim")
            comps[(i, j)] = parse_polynomial(text, dim)
        return PolyVector(dim, 2, comps)
    except (KeyError, ValueError) as exc:
        raise UsageError(f"malformed poisson file {path}: {exc}") from exc


def save_poisson(pi: PolyVector, path: str | Path):
    data = {
        "dim": pi.dim,
        "components": {
            f"{i},{j}": format_polynomial(p)
            for (i, j), p in sorted(pi.components.items())
        },
    }
    Path(path).write_text(json.dumps(data, indent=1) + "\n")


def _load_table(cfg: RunConfig) -> WeightTable:
    if cfg.cache_path.exists():
        try:
            return WeightTable.load(cfg.cache_path)
        except (ValueError, KeyError, TypeError) as exc:
            raise UsageError(
                f"cannot read weight cache {cfg.cache_path}: {exc}"
            ) from exc
    return WeightTable()


def _ensure_snapped(cfg: RunConfig, order: int) -> WeightTable:
    """Table mode: cached snapped weights, computing and persisting any
    missing ones."""
    table = _load_table(cfg)
    needed = star_graphs(order)
    before = dict(table.entries)
    table = build_weight_table(
        needed,
        seed=cfg.seed,
        max_denominator=cfg.max_denominator,
        initial_samples=cfg.samples,
        table=table,
    )
    if table.entries != before:
        table.save(cfg.cache_path)
    unsnapped = [
        gid for gid, e in table.entries.items() if e.snapped is None
    ]
    if unsnapped:
        raise CheckFailure(
            f"weights failed to snap uniquely: {', '.join(sorted(unsnapped))}"
        )
    return table


def _series_json(series) -> dict:
    return {
        "order": series.order,
        "coeffs": [format_polynomial(c) for c in series.coeffs],
    }


def _emit(data) -> None:
    print(json.dumps(data, indent=1, sort_keys=True))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_graphs(args) -> int:
    if args.nbar != 2:
        raise UsageError("only --nbar 2 is in scope for star products")
    if args.n < 0 or 2 * args.n + args.nbar - 2 < 0:
        raise UsageError("invalid vertex counts")
    graphs = enumerate_graphs(args.n, args.nbar, 2)
    ids = [canonical_id(g) for g in graphs]
    flag = all(g.has_required_edge_count() for g in graphs)
    _emit(
        {
            "n": args.n,
            "nbar": args.nbar,
            "count": len(ids),
            "edge_count_matches": flag,
            "graphs": ids,
        }
    )
    return 0


def cmd_weight(args) -> int:
    cfg = _config(args)
    try:
        g = parse_id(args.graph)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if cfg.weights_mode == "table":
        est, snapped = estimate_and_snap(
            g, cfg.seed, cfg.max_denominator, initial_samples=cfg.samples
        )
    else:
        est = weight_mc(g, cfg.samples, graph_seed(cfg.seed, canonical_id(g)))
        snapped = structural_weight(g)
        if snapped is None:
            snapped = snap(est, cfg.max_denominator)
    table = _load_table(cfg)
    table.put(est, snapped)
    table.save(cfg.cache_path)
    record = table.get(est.graph).to_json()
    record["graph"] = est.graph
    _emit(record)
    return 0


def _snapped_table_for(cfg: RunConfig, order: int) -> WeightTable:
    """table mode: cached snapped weights; mc mode: fresh estimate + snap
    (an ambiguous snap is a reported failure either way)."""
    if cfg.weights_mode == "table":
        return _ensure_snapped(cfg, order)
    table = WeightTable()
    unsnapped = []
    for g in star_graphs(order):
        est, snapped = estimate_and_snap(
            g,
            cfg.seed,
            cfg.max_denominator,
            initial_samples=cfg.samples,
            max_samples=cfg.samples,
        )
        table.put(est, snapped)
        if snapped is None:
            unsnapped.append(est.graph)
    if unsnapped:
        raise CheckFailure(
            f"weights failed to snap uniquely: {', '.join(sorted(unsnapped))}"
        )
    return table


def cmd_star(args) -> int:
    cfg = _config(args)
    pi = load_poisson(args.pi)
    try:
        f = parse_polynomial(args.f, pi.dim)
        g = parse_polynomial(args.g, pi.dim)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if not jacobiator(pi).is_zero:
        print(
            "warning: [pi,pi] != 0, star product will not be associative",
            file=sys.stderr,
        )
    table = _snapped_table_for(cfg, cfg.order)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the warning above already surfaced
        series_ops = kontsevich_star_series(pi, cfg.order, table)
    out = star_apply(series_ops, lift(f, cfg.order), lift(g, cfg.order))
    _emit(_series_json(out))
    return 0


def cmd_moyal(args) -> int:
    cfg = _config(args)
    pi = load_poisson(args.pi)
    try:
        f = parse_polynomial(args.f, pi.dim)
        g = parse_polynomial(args.g, pi.dim)
        out = moyal(pi, f, g, cfg.order)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _emit(_series_json(out))
    return 0


def _check_jacobi(args, cfg: RunConfig) -> dict:
    pi = load_poisson(args.pi)
    jac = jacobiator(pi)
    return {
        "check": "jacobi",
        "pass": jac.is_zero,
        "jacobiator_components": len(jac.components),
    }


def _check_assoc(args, cfg: RunConfig) -> dict:
    pi = load_poisson(args.pi)
    xs = [Polynomial.var(pi.dim, i) for i in range(1, pi.dim + 1)]
    triples = list(itertools.product(xs, repeat=3))
    if cfg.weights_mode == "table":
        table = _ensure_snapped(cfg, cfg.order)
        series = kontsevich_star_series(pi, cfg.order, table)
        failures = 0
        for f, g, h in triples:
            defect = associator(series, f, g, h, cfg.order)
            if not all(c.is_zero for c in defect.coeffs):
                failures += 1
        return {
            "check": "assoc",
            "mode": "table",
            "order": cfg.order,
            "triples": len(triples),
            "failures": failures,
            "pass": failures == 0,
        }
    # mc mode: raw estimates with 3-sigma interval propagation
    table = WeightTable()
    for g in star_graphs(cfg.order):
        est = weight_mc(g, cfg.samples, graph_seed(cfg.seed, canonical_id(g)))
        table.put(est, structural_weight(g))
    failures = 0
    for f, g, h in triples:
        bounds = associator_weight_intervals(pi, f, g, h, cfg.order, table)
        if not intervals_contain_zero(bounds):
            failures += 1
    return {
        "check": "assoc",
        "mode": "mc",
        "order": cfg.order,
        "samples": cfg.samples,
        "triples": len(triples),
        "failures": failures,
        "pass": failures == 0,
    }


def _check_hochschild(args, cfg: RunConfig) -> dict:
    rng = random.Random(cfg.seed)

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


def _check_wick(args, cfg: RunConfig) -> dict:
    rng = random.Random(cfg.seed)
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
        if moyal(pi, f, g, cfg.order).coeffs != moyal_via_wick(
            pi, f, g, cfg.order
        ).coeffs:
            failures += 1
    return {
        "check": "wick",
        "order": cfg.order,
        "trials": trials,
        "failures": failures,
        "pass": failures == 0,
    }


CHECKS = {
    "jacobi": _check_jacobi,
    "assoc": _check_assoc,
    "hochschild": _check_hochschild,
    "wick": _check_wick,
}


def cmd_check(args) -> int:
    cfg = _config(args)
    kind = args.kind
    if kind not in CHECKS:
        raise UsageError(f"unknown check kind {kind!r}")
    if kind in ("jacobi", "assoc") and not getattr(args, "pi", None):
        raise UsageError(f"check {kind} requires --pi")
    report = CHECKS[kind](args, cfg)
    _emit(report)
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sp, *, pi=False, fg=False):
    sp.add_argument("--order", type=int, default=2)
    sp.add_argument("--samples", type=int, default=1_000_000)
    sp.add_argument("--seed", type=int, default=2024)
    sp.add_argument("--weights", choices=("table", "mc"), default="table")
    sp.add_argument("--max-denominator", dest="max_denominator", type=int, default=24)
    sp.add_argument("--cache", default=None)
    if pi:
        sp.add_argument("--pi", required=True, help="poisson structure JSON file")
    if fg:
        sp.add_argument("--f", required=True, help="first factor (polynomial text)")
        sp.add_argument("--g", required=True, help="second factor (polynomial text)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deformq",
        description="star products on polynomial Poisson structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("graphs", help="enumerate admissible graphs")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--nbar", type=int, required=True)
    sp.set_defaults(fn=cmd_graphs)

    sp = sub.add_parser("weight", help="estimate one graph weight")
    sp.add_argument("--graph", required=True, help="graph id")
    _add_common(sp)
    sp.set_defaults(fn=cmd_weight)

    sp = sub.add_parser("star", help="graph-assembled star product")
    _add_common(sp, pi=True, fg=True)
    sp.set_defaults(fn=cmd_star)

    sp = sub.add_parser("moyal", help="closed-form Moyal product")
    _add_common(sp, pi=True, fg=True)
    sp.set_defaults(fn=cmd_moyal)

    sp = sub.add_parser("check", help="run a verification suite")
    sp.add_argument("kind", choices=sorted(CHECKS))
    sp.add_argument("--pi", default=None)
    _add_common(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("assoc", help="alias of `check assoc`")
    sp.add_argument("--pi", required=True)
    _add_common(sp)
    sp.set_defaults(fn=lambda a: cmd_check(_as_assoc(a)))

    return parser


def _as_assoc(args):
    args.kind = "assoc"
    return args


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MissingWeightError as exc:
        print(f"error: missing weights: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
