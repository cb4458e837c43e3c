"""Command-line surface: graphs, weight, star, moyal, assoc, check.

All outputs are UTF-8 JSON on stdout.  Exit codes: 0 pass, 1 check failure,
2 usage/parse error, 70 a crash (a bug; traceback on stderr); stdout is empty
on 2 and 70.  The cache path resolves flag > DEFORMQ_CACHE > ./weights_cache.json.

The parsed arguments are the only configuration.  Each command accepts only
the options it reads (argparse refuses any other, exit 2), each default set
once in an `_add_*` helper.  `weight`, `star` and `check assoc` (alias `assoc`)
check the weight options (`_weight_cache`) and get their weights from
`_weight_table`, which in table mode reads a snapped weight, never re-samples
it; every command that reads `--order` checks its range (`_order`).  A warm
`star` or `check assoc` (every weight it needs snapped in the cache) imports
only the modules whose code it runs.  The Monte-Carlo estimation
(`weights`), the closed forms (`closedform`) and the randomised suites
(`suites`) are imported inside the handlers that use them.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import warnings
from pathlib import Path

from deformq.graphs import canonical_id, enumerate_graphs, parse_id
from deformq.operators import apply_op
from deformq.polyalg import (
    Polynomial,
    PolyVector,
    format_polynomial,
    jacobiator,
    parse_polynomial,
)
from deformq.starprod import (
    associator_bound,
    band_weights,
    class_rows,
    contains_zero,
    kontsevich_star,
    point_weights,
    star_graphs,
)
from deformq.table import MAX_SAMPLES, WeightTable

DEFAULT_CACHE = "weights_cache.json"
ENV_CACHE = "DEFORMQ_CACHE"
# `graphs` refuses to list more labelled graphs than this
MAX_GRAPHS = 1_000_000
# `weight` refuses graphs with more aerial vertices than this: estimating one
# scans its 2 n! relabellings, and those of its representative when that
# differs (about 2 s per scan at n = 8)
MAX_AERIAL = 7


class UsageError(Exception):
    pass


class CheckFailure(Exception):
    pass


def _order(args, top: int | None = None) -> int:
    """--order, refused when negative or, for a command that reads graph
    weights, above the `top` order they are derived for."""
    if args.order < 0:
        raise UsageError("--order must be nonnegative")
    if top is not None and args.order > top:
        # order 3 would mean Monte Carlo on ~1700 graphs
        raise UsageError(
            f"--order {args.order} needs order-{args.order} graph weights, not derived"
        )
    return args.order


def _weight_cache(args) -> Path:
    """Refuse the weight options no estimate can use, before any work, and
    resolve the cache path: flag > DEFORMQ_CACHE > ./weights_cache.json."""
    if args.samples < 10_000:
        raise UsageError("--samples must be at least 10000")
    if args.samples > MAX_SAMPLES:
        # table mode escalates from --samples up to this cap
        raise UsageError(f"--samples must be at most {MAX_SAMPLES}")
    if not 0 <= args.seed < 1 << 32:
        # graph_seed puts the seed in the high half of a 64-bit stream key
        raise UsageError("--seed must be in [0, 2**32)")
    if args.max_denominator < 1:
        raise UsageError("--max-denominator must be at least 1")
    return Path(args.cache or os.environ.get(ENV_CACHE) or DEFAULT_CACHE)


def load_poisson(path: str) -> PolyVector:
    """Poisson JSON: {"dim": d, "components": {"i,j": "poly-string"}} and no
    other key (a misspelt "components" would read as pi = 0)."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read poisson file {path}: {exc}") from exc
    try:
        unknown = set(data) - {"dim", "components"}
        if unknown:
            raise ValueError(f"unknown keys {sorted(unknown)}")
        dim = data["dim"]
        if type(dim) is not int or dim < 1:
            raise ValueError(f"dim must be an integer >= 1, not {dim!r}")
        comps = {}
        for key, text in data.get("components", {}).items():
            i_str, j_str = key.split(",")
            i, j = int(i_str), int(j_str)
            if not 1 <= i < j <= dim:
                raise ValueError(f"component key {key!r} must satisfy 1 <= i < j <= dim")
            if (i, j) in comps:
                raise ValueError(f"component ({i}, {j}) is given twice")
            comps[(i, j)] = parse_polynomial(text, dim)
        return PolyVector(dim, 2, comps)
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
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


def _load_table(cache: Path) -> WeightTable:
    if cache.exists():
        try:
            return WeightTable.load(cache)
        except (
            OSError, ValueError, ZeroDivisionError, KeyError, TypeError, AttributeError
        ) as exc:
            raise UsageError(f"cannot read weight cache {cache}: {exc}") from exc
    if not cache.parent.is_dir():
        # refused now: the save after the estimates would fail
        raise UsageError(f"weight cache directory {cache.parent} does not exist")
    return WeightTable()


def _star_graphs(order: int) -> dict:
    """Every graph the weight table must cover up to `order`, by id."""
    return {canonical_id(g): g for g in star_graphs(order)}


def _weight_table(args, cache: Path, graphs: dict) -> WeightTable:
    """The weight table for `graphs` (id -> graph) at the weight options: mc
    mode estimates each graph afresh at exactly --samples and reads and
    writes no file; table mode loads the cache, fills the graphs without a
    snapped entry (build_weight_table: one already run to MAX_SAMPLES is
    snapped again, any other estimated up to it) and saves it if one changed."""
    mc = args.weights == "mc"
    table = WeightTable() if mc else _load_table(cache)
    # a warm cache needs no estimate, nor the module that makes them
    if any(table.exact(gid) is None for gid in graphs):
        from deformq.weights import build_weight_table

        before = dict(table.entries)
        table = build_weight_table(
            graphs.values(),
            seed=args.seed,
            max_denominator=args.max_denominator,
            initial_samples=args.samples,
            table=table,
            max_samples=args.samples if mc else MAX_SAMPLES,
        )
        if not mc and table.entries != before:
            table.save(cache)
    return table


def _snapped_table(args, cache: Path, order: int) -> WeightTable:
    """_weight_table for every graph up to `order`, where a graph that fails
    to snap is a check failure."""
    graphs = _star_graphs(order)
    table = _weight_table(args, cache, graphs)
    unsnapped = [gid for gid in graphs if table.exact(gid) is None]
    if unsnapped:
        raise CheckFailure(
            f"weights failed to snap uniquely: {', '.join(sorted(unsnapped))}"
        )
    return table


def _print_not_poisson() -> None:
    print(
        "warning: [pi,pi] != 0, star product will not be associative",
        file=sys.stderr,
    )


def _warn_if_not_poisson(pi: PolyVector) -> None:
    if not jacobiator(pi).is_zero:
        _print_not_poisson()


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
    # two ordered edges per aerial vertex, each to one of n + nbar - 1 targets
    count = (args.n + args.nbar - 1) ** (2 * args.n)
    if count > MAX_GRAPHS:
        raise UsageError(
            f"--n {args.n} has {count} labelled graphs, more than {MAX_GRAPHS}"
        )
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
    cache = _weight_cache(args)
    try:
        g = parse_id(args.graph)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if g.nbar != 2:
        raise UsageError("weights are defined for graphs with two boundary vertices")
    if g.n > MAX_AERIAL:
        raise UsageError(f"--graph has {g.n} aerial vertices, more than {MAX_AERIAL}")
    gid = canonical_id(g)
    entry = _weight_table(args, cache, {gid: g}).get(gid)
    _emit({**entry.to_json(), "graph": gid})
    return 0


def cmd_star(args) -> int:
    order = _order(args, top=2)
    cache = _weight_cache(args)
    pi = load_poisson(args.pi)
    try:
        f = parse_polynomial(args.f, pi.dim)
        g = parse_polynomial(args.g, pi.dim)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    table = _snapped_table(args, cache, order)
    # its one warning (pi is not Poisson) becomes the CLI's one-line warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = kontsevich_star(pi, f, g, order, table)
    if caught:
        _print_not_poisson()
    _emit(_series_json(out))
    return 0


def cmd_moyal(args) -> int:
    from deformq.closedform import moyal

    order = _order(args)
    pi = load_poisson(args.pi)
    try:
        f = parse_polynomial(args.f, pi.dim)
        g = parse_polynomial(args.g, pi.dim)
        out = moyal(pi, f, g, order)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _emit(_series_json(out))
    return 0


def _check_jacobi(args) -> dict:
    pi = load_poisson(args.pi)
    jac = jacobiator(pi)
    return {
        "check": "jacobi",
        "pass": jac.is_zero,
        "jacobiator_components": len(jac.components),
    }


def _check_assoc(args) -> dict:
    order = _order(args, top=2)
    cache = _weight_cache(args)
    pi = load_poisson(args.pi)
    _warn_if_not_poisson(pi)
    xs = [Polynomial.var(pi.dim, i) for i in range(1, pi.dim + 1)]
    triples = list(itertools.product(xs, repeat=3))
    report = {
        "check": "assoc",
        "mode": args.weights,
        "order": order,
        "triples": len(triples),
    }
    if args.weights == "table":
        weight = point_weights(_snapped_table(args, cache, order))
    else:
        # raw estimates, one per orbit, each within its 3-sigma band
        weight = band_weights(_weight_table(args, cache, _star_graphs(order)))
        report["samples"] = args.samples
    bound = associator_bound(
        [class_rows(pi, n, weight) for n in range(order + 1)]
    )
    # apply_op on coordinates is a nonnegative linear map of the coefficients,
    # so a triple whose applied bound excludes 0 has a nonzero defect
    report["failures"] = sum(
        not all(
            contains_zero(apply_op(c, list(fgh)), apply_op(r, list(fgh)))
            for c, r in bound
        )
        for fgh in triples
    )
    # the triples can miss a defect that acts on second derivatives
    report["pass"] = all(contains_zero(c, r) for c, r in bound)
    return report


def _check_hochschild(args) -> dict:
    from deformq.suites import hochschild_report

    return hochschild_report(args.seed)


def _check_wick(args) -> dict:
    from deformq.suites import wick_report

    return wick_report(_order(args), args.seed)


def cmd_check(args) -> int:
    report = args.report(args)
    _emit(report)
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_order(sp):
    sp.add_argument("--order", type=int, default=2)


def _add_seed(sp):
    sp.add_argument("--seed", type=int, default=2024)


def _add_weight_options(sp):
    sp.add_argument("--samples", type=int, default=1_000_000)
    _add_seed(sp)
    sp.add_argument("--weights", choices=("table", "mc"), default="table")
    sp.add_argument("--max-denominator", dest="max_denominator", type=int, default=24)
    sp.add_argument("--cache", default=None)


def _add_pi(sp, *, fg=False):
    sp.add_argument("--pi", required=True, help="poisson structure JSON file")
    if fg:
        sp.add_argument("--f", required=True, help="first factor (polynomial text)")
        sp.add_argument("--g", required=True, help="second factor (polynomial text)")


def _add_check_assoc(sp):
    _add_pi(sp)
    _add_order(sp)
    _add_weight_options(sp)
    sp.set_defaults(fn=cmd_check, report=_check_assoc)


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
    _add_weight_options(sp)
    sp.set_defaults(fn=cmd_weight)

    sp = sub.add_parser("star", help="graph-assembled star product")
    _add_pi(sp, fg=True)
    _add_order(sp)
    _add_weight_options(sp)
    sp.set_defaults(fn=cmd_star)

    sp = sub.add_parser("moyal", help="closed-form Moyal product")
    _add_pi(sp, fg=True)
    _add_order(sp)
    sp.set_defaults(fn=cmd_moyal)

    check = sub.add_parser("check", help="run a verification suite")
    kinds = check.add_subparsers(dest="kind", required=True)
    sp = kinds.add_parser("jacobi", help="[pi, pi] = 0")
    _add_pi(sp)
    sp.set_defaults(fn=cmd_check, report=_check_jacobi)
    _add_check_assoc(kinds.add_parser("assoc", help="associativity up to --order"))
    sp = kinds.add_parser("hochschild", help="Hochschild and Gerstenhaber identities")
    _add_seed(sp)
    sp.set_defaults(fn=cmd_check, report=_check_hochschild)
    sp = kinds.add_parser("wick", help="Moyal against its Wick-pairing oracle")
    _add_order(sp)
    _add_seed(sp)
    sp.set_defaults(fn=cmd_check, report=_check_wick)

    _add_check_assoc(sub.add_parser("assoc", help="alias of `check assoc`"))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except Exception:
        import traceback  # not at the top: it would cost every request ~5 ms

        traceback.print_exc()
        return 70


if __name__ == "__main__":
    sys.exit(main())
