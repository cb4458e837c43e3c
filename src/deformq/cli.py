"""Command-line surface: graphs, weight, star, moyal, assoc, check.

All outputs are UTF-8 JSON on stdout.  Exit codes: 0 pass, 1 check failure,
2 usage/parse error, 70 a crash (a bug; traceback on stderr); stdout is empty
on 2 and 70.  The cache path resolves flag > DEFORMQ_CACHE > ./weights_cache.json.

The parsed arguments are the only configuration.  Each command accepts only
the options it reads (argparse refuses any other, exit 2), each default set
once in an `_add_*` helper.  Every integer option is declared with its range
(`_integer`), so argparse refuses a value in other digits or out of range
(exit 2) before any handler runs.  `weight`, `star` and `check assoc` (alias
`assoc`) resolve the cache path (`_weight_cache`) and get their weights from
`_weight_table`, which in table mode reads a snapped weight, never re-samples
it, and snaps a new one at the bound its graph's order sets (no option does:
`weights.snap_bound`).  `star` and `check assoc` fill only the weight-orbit owners
that `starprod.star_classes` pairs with their summed operators, the entries
they read (`_star_table`), which prints one stderr line when pi is not
Poisson.  No warning is recorded: each reaches the interpreter's filters.
A warm `star` or `check assoc` (every weight it needs snapped in the cache)
imports only the modules whose code it runs.  The Monte-Carlo estimation
(`weights`), the closed forms (`closedform`) and the randomised suites
(`suites`) are imported inside the handlers that use them.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys
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
    MAX_ORDER,
    Classes,
    MissingWeightError,
    associator_bound,
    band_weights,
    class_rows,
    contains_zero,
    kontsevich_star,
    point_weights,
    star_classes,
)
from deformq.table import MAX_SAMPLES, WeightTable

DEFAULT_CACHE = "weights_cache.json"
ENV_CACHE = "DEFORMQ_CACHE"
# `weight` refuses graphs with more aerial vertices than this: estimating one
# scans its 2 n! relabellings, and those of its representative when that
# differs (about 2 s per scan at n = 8)
MAX_AERIAL = 7
# `star` and `check assoc` sample no weight of a graph above this order
MAX_SAMPLED_ORDER = 2


class UsageError(Exception):
    pass


class CheckFailure(Exception):
    pass


def _weight_cache(args) -> Path:
    """The cache path: flag > DEFORMQ_CACHE > ./weights_cache.json."""
    return Path(args.cache or os.environ.get(ENV_CACHE) or DEFAULT_CACHE)


def load_poisson(path: str) -> PolyVector:
    """Poisson JSON: {"dim": d, "components": {"i,j": "poly-string"}} and no
    other key (a misspelt "components" would read as pi = 0)."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
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
            if not re.fullmatch(r"[0-9]+, ?[0-9]+", key):
                raise ValueError(f"component key {key!r} is not i,j in digits 0-9")
            i, j = map(int, key.split(","))
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


def _load_table(args, cache: Path) -> WeightTable:
    """The cache's table; an empty one in mc mode, which reads no file."""
    if args.weights == "mc":
        return WeightTable()
    if cache.exists():
        try:
            return WeightTable.load(cache)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read weight cache {cache}: {exc}") from exc
    if not cache.parent.is_dir():
        # refused now: the save after the estimates would fail
        raise UsageError(f"weight cache directory {cache.parent} does not exist")
    return WeightTable()


def _weight_table(
    args, cache: Path, graphs: dict, max_order: int | None = None
) -> WeightTable:
    """The cache's table (_load_table) with `graphs` (id -> graph) filled at
    the weight options.  Only the graphs without a snapped entry need a fill,
    and only they load `weights`: one above `max_order` that no rule fixes is
    refused (MissingWeightError) before any fill, and the rest go to
    build_weight_table.  mc mode estimates each afresh at exactly --samples
    and writes no file; table mode saves the entries it changed over the
    cache file as it is then, so another process's entries stay."""
    table = _load_table(args, cache)
    mc = args.weights == "mc"
    need = [g for gid, g in graphs.items() if table.exact(gid) is None]
    if need:
        from deformq.weights import build_weight_table, weight_rule

        if max_order is not None:
            missing = [g for g in need if g.n > max_order and weight_rule(g) is None]
            if missing:
                raise MissingWeightError(missing)
        before = dict(table.entries)
        table = build_weight_table(
            need,
            seed=args.seed,
            initial_samples=args.samples,
            table=table,
            max_samples=args.samples if mc else MAX_SAMPLES,
        )
        changed = {k: e for k, e in table.entries.items() if before.get(k) != e}
        if not mc and changed:
            try:
                WeightTable(changed).save(cache)
            except OSError as exc:
                # the save is atomic: the file is left as it was
                raise UsageError(f"cannot write weight cache {cache}: {exc}") from exc
    return table


def _star_table(
    args, cache: Path, pi: PolyVector, snapped: bool
) -> tuple[Classes, WeightTable]:
    """star_classes(pi, --order) and _weight_table for the owners of its
    (owner, B) pairs, the only graphs a star or check assoc request reads
    (class_rows).  Refused (by _weight_table): an owner above
    MAX_SAMPLED_ORDER with no snapped entry and no rule, before any fill.  If
    `snapped`, one that fails to snap is a check failure.  Last, it prints one
    stderr line if pi is not Poisson."""
    classes = star_classes(pi, args.order)
    graphs = {canonical_id(g): g for row in classes for g, _ in row}
    table = _weight_table(args, cache, graphs, MAX_SAMPLED_ORDER)
    unsnapped = [gid for gid in graphs if table.exact(gid) is None]
    if unsnapped and snapped:
        raise CheckFailure(
            f"weights failed to snap uniquely: {', '.join(sorted(unsnapped))}"
        )
    if not jacobiator(pi).is_zero:
        print(
            "warning: [pi,pi] != 0, star product will not be associative",
            file=sys.stderr,
        )
    return classes, table


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
    graphs = enumerate_graphs(args.n, args.nbar)
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
    cache = _weight_cache(args)
    pi = load_poisson(args.pi)
    try:
        f = parse_polynomial(args.f, pi.dim)
        g = parse_polynomial(args.g, pi.dim)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    classes, table = _star_table(args, cache, pi, snapped=True)
    _emit(_series_json(kontsevich_star(pi, f, g, classes, table)))
    return 0


def cmd_moyal(args) -> int:
    from deformq.closedform import moyal

    pi = load_poisson(args.pi)
    try:
        f = parse_polynomial(args.f, pi.dim)
        g = parse_polynomial(args.g, pi.dim)
        out = moyal(pi, f, g, args.order)
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


def _coordinate_triples(op) -> set[tuple[int, int, int]]:
    """The (i, j, k) on which op(x_i, x_j, x_k) can be nonzero.  A term
    whose slot s takes the derivative e_t reaches only x_t there, one that
    takes none there reaches every coordinate, and one that takes a higher
    derivative in any slot reaches no triple."""
    out = set()
    anyone = range(1, op.dim + 1)
    for key in op.terms:
        if all(sum(k) < 2 for k in key):
            slots = [(k.index(1) + 1,) if any(k) else anyone for k in key]
            out.update(itertools.product(*slots))
    return out


def _check_assoc(args) -> dict:
    cache = _weight_cache(args)
    pi = load_poisson(args.pi)
    # mc mode reads every estimate as a band, snapped or not
    classes, table = _star_table(args, cache, pi, snapped=args.weights == "table")
    report = {
        "check": "assoc",
        "mode": args.weights,
        "order": args.order,
        "triples": pi.dim**3,
    }
    if args.weights == "table":
        weight = point_weights(table)
    else:
        # raw estimates, one per orbit, each within its 3-sigma band
        weight = band_weights(table)
        report["samples"] = args.samples
    bound = associator_bound(class_rows(pi.dim, classes, weight))
    # the triples can miss a defect that acts on second derivatives
    report["pass"] = all(contains_zero(c, r) for c, r in bound)
    # apply_op on coordinates is a nonnegative linear map of the coefficients:
    # a triple whose applied bound excludes 0 has a nonzero defect, and a
    # passing identity has none
    report["failures"] = 0
    if not report["pass"]:
        # a triple on which every C_r is 0 cannot fail, since |0| <= R_r
        triples = sorted(set().union(*(_coordinate_triples(c) for c, _ in bound)))
        named = sorted({i for t in triples for i in t})
        xs = {i: Polynomial.var(pi.dim, i) for i in named}
        report["failures"] = sum(
            not all(
                contains_zero(apply_op(c, fgh), apply_op(r, fgh)) for c, r in bound
            )
            for fgh in ([xs[i] for i in t] for t in triples)
        )
    return report


def _check_hochschild(args) -> dict:
    from deformq.suites import hochschild_report

    return hochschild_report(args.seed)


def _check_wick(args) -> dict:
    from deformq.suites import wick_report

    return wick_report(args.order, args.seed)


def cmd_check(args) -> int:
    report = args.report(args)
    _emit(report)
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _integer(low: int | None = None, high: int | None = None):
    """The argparse type of an integer option: ASCII digits with an optional
    leading minus (int() would also take other Unicode digits, underscores
    and spaces), in [low, high], an end left open when None."""

    def integer(text: str) -> int:
        if not re.fullmatch(r"-?[0-9]+", text):
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer in digits 0-9")
        value = int(text)
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"{value} is above {high}")
        return value

    return integer


def _add_order(sp, high: int | None = None):
    sp.add_argument("--order", type=_integer(0, high), default=2)


def _add_seed(sp, *bounds):
    sp.add_argument("--seed", type=_integer(*bounds), default=2024)


def _add_weight_options(sp):
    # below 10^4 samples an estimate can snap by chance, and table mode
    # escalates up to MAX_SAMPLES
    sp.add_argument("--samples", type=_integer(10_000, MAX_SAMPLES), default=1_000_000)
    # graph_seed puts the seed in the high half of a 64-bit stream key
    _add_seed(sp, 0, (1 << 32) - 1)
    sp.add_argument("--weights", choices=("table", "mc"), default="table")
    sp.add_argument("--cache", default=None)


def _add_pi(sp, *, fg=False):
    sp.add_argument("--pi", required=True, help="poisson structure JSON file")
    if fg:
        sp.add_argument("--f", required=True, help="first factor (polynomial text)")
        sp.add_argument("--g", required=True, help="second factor (polynomial text)")


def _add_check_assoc(sp):
    _add_pi(sp)
    _add_order(sp, MAX_ORDER)
    _add_weight_options(sp)
    sp.set_defaults(fn=cmd_check, report=_check_assoc)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deformq",
        description="star products on polynomial Poisson structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("graphs", help="enumerate admissible graphs")
    # (n + 1)^(2n) labelled graphs: 390 625 at n = 4, 60 466 176 at n = 5
    sp.add_argument("--n", type=_integer(0, 4), required=True)
    sp.add_argument("--nbar", type=_integer(2, 2), required=True)
    sp.set_defaults(fn=cmd_graphs)

    sp = sub.add_parser("weight", help="estimate one graph weight")
    sp.add_argument("--graph", required=True, help="graph id")
    _add_weight_options(sp)
    sp.set_defaults(fn=cmd_weight)

    sp = sub.add_parser("star", help="graph-assembled star product")
    _add_pi(sp, fg=True)
    _add_order(sp, MAX_ORDER)
    _add_weight_options(sp)
    sp.set_defaults(fn=cmd_star)

    sp = sub.add_parser("moyal", help="closed-form Moyal product")
    _add_pi(sp, fg=True)
    # it prints order + 1 coefficients: 10^6 takes under 1 s and 107 MB
    _add_order(sp, 1_000_000)
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
    except (UsageError, MissingWeightError) as exc:
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
