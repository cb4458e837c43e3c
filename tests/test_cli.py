import errno
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from deformq import cli, closedform, graphs, starprod, weights
from deformq.cli import load_poisson, main, save_poisson
from deformq.graphs import canonical_id, orbit, parse_id
from deformq.operators import compose_gerstenhaber
from deformq.polyalg import FormalSeries, Polynomial, PolyVector, parse_polynomial
from deformq.table import WeightTable


@pytest.fixture
def so3_file(tmp_path):
    pi = PolyVector(
        3,
        2,
        {
            (1, 2): Polynomial.var(3, 3),
            (1, 3): -Polynomial.var(3, 2),
            (2, 3): Polynomial.var(3, 1),
        },
    )
    path = tmp_path / "so3.json"
    save_poisson(pi, path)
    return str(path)


@pytest.fixture
def cache_arg(weight_cache_path):
    return ["--cache", weight_cache_path]


# a weight fixed by a rule (no edge reaches b2) that so(3) reads at order 2
READ_RULE_FIXED = "2;2;[2,b1],[1,b1]"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


def test_graphs_one_aerial(capsys):
    code, out = run(capsys, ["graphs", "--n", "1", "--nbar", "2"])
    assert code == 0
    assert out["count"] == 4
    assert out["graphs"] == [
        "1;2;[b1,b1]",
        "1;2;[b1,b2]",
        "1;2;[b2,b1]",
        "1;2;[b2,b2]",
    ]
    assert out["edge_count_matches"] is True


def test_graphs_empty(capsys):
    code, out = run(capsys, ["graphs", "--n", "0", "--nbar", "2"])
    assert code == 0
    assert out["count"] == 1
    assert out["graphs"] == ["0;2;"]


def test_graphs_scope_guard(capsys):
    code = main(["graphs", "--n", "1", "--nbar", "0"])
    assert code == 2


def test_graphs_refuses_a_negative_n(capsys):
    assert main(["graphs", "--n", "-1", "--nbar", "2"]) == 2
    assert capsys.readouterr() == ("", "error: invalid vertex counts\n")


def test_graphs_refuses_more_than_a_million_before_enumerating(
    capsys, monkeypatch
):
    def refuse(*args):
        raise AssertionError("enumerate_graphs called")

    monkeypatch.setattr(cli, "enumerate_graphs", refuse)
    # n = 5 has 36^5 = 60 466 176 labelled graphs
    assert main(["graphs", "--n", "5", "--nbar", "2"]) == 2
    assert "60466176 labelled graphs" in capsys.readouterr().err
    # n = 4 has 25^4 = 390 625, under the limit
    monkeypatch.setattr(cli, "enumerate_graphs", lambda *args: [])
    code, out = run(capsys, ["graphs", "--n", "4", "--nbar", "2"])
    assert code == 0 and out["count"] == 0


@pytest.mark.parametrize("n", [748, 10_000_000])
def test_graphs_refuses_a_huge_n_at_once(capsys, n):
    # (n + 1)^(2n) is never multiplied out: at n = 748 it has more digits
    # than Python prints, and at n = 10^7 it takes minutes to compute
    start = time.perf_counter()
    assert main(["graphs", "--n", str(n), "--nbar", "2"]) == 2
    assert time.perf_counter() - start < 2
    out, err = capsys.readouterr()
    assert out == "" and f"--n {n} has {n + 1}^{2 * n} labelled graphs" in err


def test_a_crash_exits_70_with_empty_stdout(monkeypatch, capsys):
    # an uncaught exception must not share exit 1 with a failed check
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_graphs", crash)
    code = main(["graphs", "--n", "1", "--nbar", "2"])
    out, err = capsys.readouterr()
    assert (code, out) == (70, "")
    assert "Traceback" in err and "RuntimeError: boom" in err


def test_unknown_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["graphs", "--bogus"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# weight
# ---------------------------------------------------------------------------


def test_weight_wedge(capsys, tmp_path):
    cache = tmp_path / "w.json"
    code, out = run(
        capsys,
        [
            "weight",
            "--graph",
            "1;2;[b1,b2]",
            "--samples",
            "200000",
            "--seed",
            "7",
            "--cache",
            str(cache),
        ],
    )
    assert code == 0
    # exact by the order-1 rule
    assert (out["mean"], out["stderr"]) == (0.5, 0.0)
    assert out["snapped"] == "1/2"
    stored = json.loads(cache.read_text())
    assert "1;2;[b1,b2]" in stored


def test_weight_wrong_edge_count(capsys, tmp_path):
    code, out = run(
        capsys,
        ["weight", "--graph", "1;2;[b1,b1]", "--samples", "10000",
         "--cache", str(tmp_path / "w.json")],
    )
    assert code == 0
    assert out["mean"] == 0.0 and out["snapped"] == "0"


def test_weight_determinism(capsys, tmp_path):
    argv = [
        "weight", "--graph", "2;2;[b1,b2],[b1,b2]", "--weights", "mc",
        "--samples", "100000", "--seed", "3", "--cache", str(tmp_path / "w.json"),
    ]
    _, a = run(capsys, argv)
    _, b = run(capsys, argv)
    assert a == b


def test_weight_mc_mode_leaves_the_cache_untouched(capsys, tmp_path):
    # an unsnapped mc estimate must not replace the snapped entry
    cache = tmp_path / "w.json"
    shutil.copyfile(Path(__file__).parent / ".weight_cache.json", cache)
    before = hashlib.md5(cache.read_bytes()).hexdigest()
    code, out = run(
        capsys,
        ["weight", "--graph", "2;2;[2,b1],[b1,b2]", "--weights", "mc",
         "--samples", "10000", "--seed", "3", "--cache", str(cache)],
    )
    assert code == 0 and out["snapped"] is None
    assert hashlib.md5(cache.read_bytes()).hexdigest() == before


@pytest.mark.parametrize(
    "options",
    [[], ["--samples", "10000", "--seed", "3"]],
    ids=["defaults", "other-samples-seed"],
)
def test_weight_reads_a_snapped_entry_without_sampling_or_writing(
    monkeypatch, capsys, tmp_path, options
):
    # table mode serves the cached snapped value whatever the sampling
    # options; a re-estimate at seed 3 would draw another stream and save
    # another entry over it
    def no_sampling(*args, **kwargs):
        raise AssertionError("a snapped entry must not be re-sampled")

    monkeypatch.setattr(weights, "_sample_weight", no_sampling)
    cache = tmp_path / "w.json"
    shutil.copyfile(Path(__file__).parent / ".weight_cache.json", cache)
    before = cache.read_bytes()
    gid = "2;2;[2,b1],[b1,b2]"
    code, out = run(capsys, ["weight", "--graph", gid, *options, "--cache", str(cache)])
    assert code == 0
    assert out == {**json.loads(before)[gid], "graph": gid}
    assert cache.read_bytes() == before


def test_weight_mc_mode_creates_no_cache(capsys, tmp_path):
    cache = tmp_path / "none.json"
    code, out = run(
        capsys,
        ["weight", "--graph", "1;2;[b1,b2]", "--weights", "mc", "--seed", "7",
         "--cache", str(cache)],
    )
    assert code == 0 and out["snapped"] == "1/2"
    assert not cache.exists()


def test_weight_samples_floor_in_table_mode(tmp_path):
    # a one-sample estimate has zero spread and must not snap to 0
    cache = tmp_path / "w.json"
    code = main(
        ["weight", "--graph", "1;2;[b1,b2]", "--samples", "1",
         "--cache", str(cache)]
    )
    assert code == 2
    assert not cache.exists()


def test_weight_malformed_id(capsys, tmp_path):
    code = main(["weight", "--graph", "junk", "--cache", str(tmp_path / "w.json")])
    assert code == 2


@pytest.mark.parametrize("gid", ["1;2;junk[b1,b2]", "1;2;[b1,b2]xyz"])
def test_weight_rejects_text_outside_the_stars(capsys, tmp_path, gid):
    cache = tmp_path / "w.json"
    code = main(["weight", "--graph", gid, "--cache", str(cache)])
    assert code == 2
    assert not cache.exists()


def _forbid_monte_carlo(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the request must be refused before Monte Carlo")

    monkeypatch.setattr(weights, "weight_mc", no_work)


@pytest.mark.parametrize("value", ["0", "-3"])
def test_max_denominator_below_one_refused_before_any_work(
    monkeypatch, capsys, tmp_path, value
):
    # no command reads --max-denominator (the graph's order sets the snap
    # bound), so a bound below 1 is refused as an unknown option, before
    # any sampling and without writing the cache
    _forbid_monte_carlo(monkeypatch)
    cache = tmp_path / "w.json"
    with pytest.raises(SystemExit) as exc:
        main(
            ["weight", "--graph", "1;2;[b1,b2]", "--samples", "10000",
             "--max-denominator", value, "--cache", str(cache)]
        )
    assert exc.value.code == 2
    assert "--max-denominator" in capsys.readouterr().err
    assert not cache.exists()


@pytest.mark.parametrize("seed",["-5", "4294967296", "4294967297"])
@pytest.mark.parametrize(
    "command",
    [["weight", "--graph", "1;2;[b1,b2]"],
     ["star", "--f", "x1", "--g", "x2"],
     ["check", "assoc", "--weights", "mc"]],
    ids=["weight", "star", "check-assoc-mc"],
)
def test_seed_outside_32_bits_refused_before_any_work(
    monkeypatch, capsys, tmp_path, so3_file, command, seed
):
    # the seed is the high half of every 64-bit stream key: -5 would draw
    # the streams of 4294967291, and 4294967297 those of 1
    _forbid_monte_carlo(monkeypatch)
    cache = tmp_path / "w.json"
    pi = [] if command[0] == "weight" else ["--pi", so3_file, "--order", "2"]
    code = main(
        command + pi + ["--samples", "10000", "--seed", seed, "--cache", str(cache)]
    )
    assert code == 2
    assert "--seed" in capsys.readouterr().err
    assert not cache.exists()


@pytest.mark.parametrize("samples", [str(weights.MAX_SAMPLES + 1), "100000000000"])
@pytest.mark.parametrize(
    "command",
    [["weight", "--graph", "2;2;[b1,b2],[b1,b2]"],
     ["star", "--f", "x1", "--g", "x2"],
     ["check", "assoc", "--weights", "mc"]],
    ids=["weight", "star", "check-assoc-mc"],
)
def test_samples_above_the_cap_refused_before_any_work(
    monkeypatch, capsys, tmp_path, so3_file, command, samples
):
    # table mode escalates from --samples up to MAX_SAMPLES; a start above
    # the cap would skip it, and 10^11 samples take days
    _forbid_monte_carlo(monkeypatch)
    cache = tmp_path / "w.json"
    pi = [] if command[0] == "weight" else ["--pi", so3_file, "--order", "2"]
    code = main(command + pi + ["--samples", samples, "--cache", str(cache)])
    assert code == 2
    assert "--samples" in capsys.readouterr().err
    assert not cache.exists()


def test_weight_refuses_more_than_seven_aerial_vertices_before_any_work(
    monkeypatch, capsys, tmp_path
):
    # estimating a graph scans its 2 n! relabellings, about 2 s per scan at n = 8
    def no_scan(*args, **kwargs):
        raise AssertionError("the request must be refused before any orbit scan")

    monkeypatch.setattr(weights, "orbit", no_scan)
    _forbid_monte_carlo(monkeypatch)
    cache = tmp_path / "w.json"
    # a cycle through 8 aerial vertices: no rule fixes its weight
    stars = ",".join(f"[{v % 8 + 1},b{1 + v % 2}]" for v in range(1, 9))
    code = main(
        ["weight", "--graph", f"8;2;{stars}", "--samples", "10000", "--cache", str(cache)]
    )
    assert code == 2
    assert "8 aerial vertices, more than 7" in capsys.readouterr().err
    assert not cache.exists()


@pytest.mark.parametrize(
    "graph, scans", [("2;2;[2,b1],[b1,b2]", 1), ("2;2;[2,b2],[b1,b2]", 2)]
)
def test_weight_scans_each_orbit_once(graph, scans, capsys, tmp_path):
    # weight_rule and estimate_and_snap ask for the graph's orbit and
    # weight_mc for its representative's; the second graph is the mirror
    # image of the first, which is its representative
    weights.orbit.cache_clear()
    code, out = run(
        capsys,
        ["weight", "--graph", graph, "--weights", "mc", "--samples", "10000",
         "--seed", "7", "--cache", str(tmp_path / "w.json")],
    )
    assert code == 0 and out["graph"] == graph
    assert weights.orbit.cache_info().misses == scans


def test_weight_needs_two_boundary_vertices(monkeypatch, capsys, tmp_path):
    _forbid_monte_carlo(monkeypatch)
    cache = tmp_path / "w.json"
    code = main(
        ["weight", "--graph", "1;3;[b1,b2,b3]", "--samples", "10000",
         "--cache", str(cache)]
    )
    assert code == 2
    assert "two boundary vertices" in capsys.readouterr().err
    assert not cache.exists()


# ---------------------------------------------------------------------------
# moyal and star
# ---------------------------------------------------------------------------


@pytest.fixture
def const_pi_file(tmp_path):
    pi = PolyVector(2, 2, {(1, 2): Polynomial.const(2, 1)})
    path = tmp_path / "pi0.json"
    save_poisson(pi, path)
    return str(path)


def test_moyal_command(capsys, const_pi_file):
    code, out = run(
        capsys,
        ["moyal", "--pi", const_pi_file, "--f", "x1", "--g", "x2", "--order", "2"],
    )
    assert code == 0
    assert out == {"order": 2, "coeffs": ["x1 x2", "1", "0"]}
    # the closed form needs no weights, so order 3 stays available
    code, out = run(
        capsys,
        ["moyal", "--pi", const_pi_file, "--f", "x1^2", "--g", "x2^2", "--order", "3"],
    )
    assert code == 0
    assert out == {"order": 3, "coeffs": ["x1^2 x2^2", "4 x1 x2", "2", "0"]}


def test_moyal_any_order(capsys, const_pi_file):
    # no weight table bounds the closed form's order
    argv = ["moyal", "--pi", const_pi_file, "--f", "x1^3 x2", "--g", "x1 x2^2"]
    code, out = run(capsys, argv + ["--order", "4"])
    assert code == 0
    pi = load_poisson(const_pi_file)
    f, g = (parse_polynomial(text, 2) for text in ("x1^3 x2", "x1 x2^2"))
    expected = closedform.moyal(pi, f, g, 4)
    assert out == {"order": 4, "coeffs": [str(c) for c in expected.coeffs]}


def test_moyal_cost_bounded_by_the_degrees_of_the_arguments(capsys, tmp_path):
    # every component nonzero, so that building the series' P^14 in full
    # would take more than a minute
    pairs = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    pi = PolyVector(4, 2, {(i, j): Polynomial.const(4, i + j) for i, j in pairs})
    path = tmp_path / "pi4.json"
    save_poisson(pi, path)
    start = time.perf_counter()
    code, out = run(
        capsys,
        ["moyal", "--pi", str(path), "--f", "x1", "--g", "x2", "--order", "14"],
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out == {"order": 14, "coeffs": ["x1 x2", "3"] + ["0"] * 13}


@pytest.mark.parametrize(
    "argv",
    [["moyal", "--f", "x1", "--g", "x2"], ["check", "wick"]],
    ids=["moyal", "check-wick"],
)
def test_negative_order_refused(capsys, const_pi_file, argv):
    pi = ["--pi", const_pi_file] if argv[0] == "moyal" else []
    assert main(argv + pi + ["--order", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--order must be nonnegative" in captured.err


# the options each command does not read: a usage error, never ignored;
# no command reads --max-denominator, as each graph's order sets the snap
# bound (weights.snap_bound)
_UNREAD = {
    "graphs": ["--max-denominator"],
    "weight": ["--order", "--max-denominator"],
    "star": ["--max-denominator"],
    "check-assoc": ["--max-denominator"],
    "assoc": ["--max-denominator"],
    "moyal": ["--samples", "--seed", "--weights", "--max-denominator", "--cache"],
    "jacobi": ["--order", "--samples", "--seed", "--weights", "--max-denominator",
               "--cache"],
    "hochschild": ["--pi", "--order", "--samples", "--weights", "--max-denominator",
                   "--cache"],
    "wick": ["--pi", "--samples", "--weights", "--max-denominator", "--cache"],
}


@pytest.mark.parametrize(
    "command, option",
    [(command, option) for command, options in _UNREAD.items() for option in options],
    ids=lambda value: value.lstrip("-"),
)
def test_options_a_command_does_not_read_are_refused(
    capsys, tmp_path, const_pi_file, command, option
):
    argv = {
        "graphs": ["graphs", "--n", "1", "--nbar", "2"],
        "weight": ["weight", "--graph", "1;2;[b1,b2]"],
        "star": ["star", "--pi", const_pi_file, "--f", "x1", "--g", "x2"],
        "check-assoc": ["check", "assoc", "--pi", const_pi_file],
        "assoc": ["assoc", "--pi", const_pi_file],
        "moyal": ["moyal", "--pi", const_pi_file, "--f", "x1", "--g", "x2"],
        "jacobi": ["check", "jacobi", "--pi", const_pi_file],
        "hochschild": ["check", "hochschild"],
        "wick": ["check", "wick"],
    }[command]
    # a value each option takes where it is read (any number for
    # --max-denominator, which no command reads)
    value = {
        "--order": "2", "--samples": "10000", "--seed": "7", "--weights": "mc",
        "--max-denominator": "12", "--cache": str(tmp_path / "w.json"),
        "--pi": const_pi_file,
    }[option]
    with pytest.raises(SystemExit) as exc:
        main(argv + [option, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {option}" in captured.err
    assert not (tmp_path / "w.json").exists()


def test_star_so3_coordinates(capsys, so3_file, cache_arg):
    code, out = run(
        capsys,
        ["star", "--pi", so3_file, "--f", "x1", "--g", "x2", "--order", "2"]
        + cache_arg,
    )
    assert code == 0
    assert out["order"] == 2
    assert out["coeffs"][0] == "x1 x2"
    assert out["coeffs"][1] == "x3"  # order-1 term is the Poisson bracket


def test_star_zero_pi(capsys, tmp_path, cache_arg):
    pi = PolyVector(2, 2, {})
    path = tmp_path / "zero.json"
    save_poisson(pi, path)
    code, out = run(
        capsys,
        ["star", "--pi", str(path), "--f", "x1", "--g", "x2", "--order", "2"]
        + cache_arg,
    )
    assert code == 0
    assert out["coeffs"] == ["x1 x2", "0", "0"]


def test_star_unit(capsys, so3_file, cache_arg):
    code, out = run(
        capsys,
        ["star", "--pi", so3_file, "--f", "1", "--g", "x2 - x3", "--order", "2"]
        + cache_arg,
    )
    assert code == 0
    assert out["coeffs"] == ["- x3 + x2", "0", "0"]


def test_star_output_byte_stable(capsys, so3_file, cache_arg):
    argv = (
        ["star", "--pi", so3_file, "--f", "x1", "--g", "x2", "--order", "2"]
        + cache_arg
    )
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_star_mc_mode_order_one(capsys, so3_file, tmp_path):
    code, out = run(
        capsys,
        [
            "star", "--pi", so3_file, "--f", "x1", "--g", "x2",
            "--order", "1", "--weights", "mc",
            "--samples", "1000000", "--seed", "5",
            "--cache", str(tmp_path / "unused.json"),
        ],
    )
    assert code == 0
    assert out["coeffs"] == ["x1 x2", "x3"]


def test_star_parse_failure(capsys, so3_file, cache_arg):
    code = main(
        ["star", "--pi", so3_file, "--f", "y1", "--g", "x2"] + cache_arg
    )
    assert code == 2


@pytest.mark.parametrize("f", ["x1 +", "x1 -"])
def test_star_rejects_a_trailing_sign(capsys, so3_file, cache_arg, f):
    code = main(["star", "--pi", so3_file, "--f", f, "--g", "x2"] + cache_arg)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "dangling sign" in captured.err


def test_star_refuses_a_sign_alone(capsys, so3_file, cache_arg):
    code = main(["star", "--pi", so3_file, "--f", "+", "--g", "x2"] + cache_arg)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == "error: no terms in '+'\n"


# Arabic-Indic digits: x1 + 3/2 x2 and the graph id 1;2;[b1,b2]
NON_ASCII_POLY = "x\u0661 + \u0663/\u0662 x2"


@pytest.mark.parametrize(
    "where", ["f", "poisson-file", "graph-count", "graph-label"]
)
def test_digits_other_than_ascii_are_usage_errors(capsys, tmp_path, cache_arg, where):
    path = tmp_path / "pi.json"
    pi12 = NON_ASCII_POLY if where == "poisson-file" else "x3"
    components = {"1,2": pi12, "1,3": "-x2", "2,3": "x1"}
    path.write_text(json.dumps({"dim": 3, "components": components}))
    if where in ("f", "poisson-file"):
        f = NON_ASCII_POLY if where == "f" else "x1"
        argv = ["star", "--pi", str(path), "--f", f, "--g", "x2"] + cache_arg
    else:
        gid = "\u0661;2;[b1,b2]" if where == "graph-count" else "1;2;[b\u0661,b2]"
        argv = ["weight", "--graph", gid, "--cache", str(tmp_path / "w.json")]
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "w.json").exists()


@pytest.mark.parametrize("order", ["4", "40"])
@pytest.mark.parametrize("mode", ["table", "mc"])
@pytest.mark.parametrize(
    "command",
    [["star", "--f", "x1", "--g", "x2"], ["check", "assoc"]],
    ids=["star", "check-assoc"],
)
def test_orders_above_three_refused_before_any_enumeration(
    monkeypatch, capsys, tmp_path, so3_file, command, mode, order
):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("an order above 3 must be refused before enumerating")

    for module in (graphs, starprod, cli):
        monkeypatch.setattr(module, "enumerate_graphs", no_enumeration)
    cache = tmp_path / "w.json"
    code = main(
        command
        + ["--pi", so3_file, "--order", order, "--weights", mode,
           "--samples", "10000", "--cache", str(cache)]
    )
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == f"error: --order {order} is above 3, the highest star order\n"
    assert not cache.exists()


def test_star_ignores_unsnapped_graphs_it_does_not_use(
    capsys, so3_file, weight_cache_path, tmp_path
):
    # an order-2 estimate too short to snap must not fail an order-1 request
    entries = json.loads(Path(weight_cache_path).read_text())
    entries["2;2;[2,b1],[b1,b2]"] = {
        "mean": -0.0812, "stderr": 0.0049, "samples": 10000, "seed": 3,
        "snapped": None,
    }
    cache = tmp_path / "c.json"
    cache.write_text(json.dumps(entries))
    code, out = run(
        capsys,
        ["star", "--pi", so3_file, "--f", "x1", "--g", "x2", "--order", "1",
         "--cache", str(cache)],
    )
    assert code == 0
    assert out["coeffs"] == ["x1 x2", "x3"]


CAPPED = "2;2;[2,b1],[b1,b2]"


def _capped_cache(tmp_path, **changes):
    """A copy of the committed cache whose CAPPED entry is unsnapped after a
    run to the 64M cap, with `changes` applied; its seed is already the
    stream key graph_seed(2024, its representative's id)."""
    entries = json.loads((Path(__file__).parent / ".weight_cache.json").read_text())
    entries[CAPPED].update({"snapped": None, "samples": 64_000_000, **changes})
    cache = tmp_path / "capped.json"
    cache.write_text(json.dumps(entries, indent=1) + "\n")
    return cache


def _no_sampling(*args, **kwargs):
    raise AssertionError("an entry estimated to the cap must not be sampled again")


@pytest.mark.parametrize(
    "command",
    [["star", "--f", "x1", "--g", "x2"], ["check", "assoc", "--order", "2"]],
    ids=["star", "check-assoc"],
)
def test_a_capped_entry_that_cannot_snap_fails_without_sampling(
    monkeypatch, capsys, tmp_path, so3_file, command
):
    # a 3-sigma band of 0.06 around -1/12 holds several fractions p/q, q <= 24
    monkeypatch.setattr(weights, "_sample_weight", _no_sampling)
    cache = _capped_cache(tmp_path, stderr=0.01)
    before = cache.read_bytes()
    code = main([*command, "--pi", so3_file, "--cache", str(cache)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == f"check failed: weights failed to snap uniquely: {CAPPED}\n"
    assert cache.read_bytes() == before


def test_weight_prints_a_capped_entry_without_sampling(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(weights, "_sample_weight", _no_sampling)
    cache = _capped_cache(tmp_path, stderr=0.01)
    before = cache.read_bytes()
    code, out = run(capsys, ["weight", "--graph", CAPPED, "--cache", str(cache)])
    assert code == 0
    assert out == {**json.loads(before)[CAPPED], "graph": CAPPED}
    assert cache.read_bytes() == before


def test_a_capped_entry_snaps_again_from_its_stored_estimate(
    monkeypatch, capsys, tmp_path, so3_file, weight_cache_path
):
    argv = ["star", "--pi", so3_file, "--f", "x1 x2", "--g", "x3^2 + x1"]
    assert main([*argv, "--cache", weight_cache_path]) == 0
    committed = capsys.readouterr().out
    monkeypatch.setattr(weights, "_sample_weight", _no_sampling)
    cache = _capped_cache(tmp_path)
    stored = json.loads(cache.read_text())[CAPPED]
    assert main([*argv, "--cache", str(cache)]) == 0
    assert capsys.readouterr().out == committed
    assert json.loads(cache.read_text())[CAPPED] == {**stored, "snapped": "-1/12"}


def test_an_entry_below_the_cap_is_still_escalated(
    monkeypatch, capsys, tmp_path, so3_file
):
    rounds = []

    def never_snapping(g, samples, seed, boundary_points=(0.0, 1.0)):
        rounds.append(samples)
        # a 3-sigma band of width 6 always holds several candidates
        return weights.WeightEstimate(CAPPED, -1 / 12, 1.0, samples, seed)

    monkeypatch.setattr(weights, "_sample_weight", never_snapping)
    cache = _capped_cache(tmp_path, samples=1_000_000)
    argv = ["star", "--pi", so3_file, "--f", "x1", "--g", "x2", "--cache", str(cache)]
    assert main(argv) == 1
    assert rounds == [1_000_000, 4_000_000, 16_000_000, 64_000_000]


@pytest.mark.parametrize("mode", ["table", "mc"])
def test_star_fails_the_check_on_a_weight_that_cannot_snap(
    monkeypatch, capsys, tmp_path, so3_file, mode
):
    def never_snapping(g, samples, seed, boundary_points=(0.0, 1.0)):
        # a 3-sigma band of width 6 always holds several candidates
        return weights.WeightEstimate(canonical_id(g), -1 / 12, 1.0, samples, seed)

    monkeypatch.setattr(weights, "_sample_weight", never_snapping)
    cache = _capped_cache(tmp_path, samples=1_000_000)
    code = main(
        ["star", "--pi", so3_file, "--f", "x1", "--g", "x2", "--order", "2",
         "--weights", mode, "--samples", "10000", "--cache", str(cache)]
    )
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    # mc mode estimates every graph it reads; table mode only the one unsnapped
    assert err.startswith("check failed: weights failed to snap uniquely: ")
    assert CAPPED in err and err.endswith("\n") and err.count("\n") == 1


@pytest.mark.parametrize("mode", ["table", "mc"])
@pytest.mark.parametrize(
    "command",
    [["star", "--f", "x1", "--g", "x2"], ["check", "assoc"], ["assoc"]],
    ids=["star", "check-assoc", "assoc"],
)
def test_order_three_refused_before_any_work(
    monkeypatch, capsys, tmp_path, so3_file, command, mode
):
    def no_work(*args, **kwargs):
        raise AssertionError("order 3 must be refused before any work")

    # the CLI imports the estimators from weights when it calls them
    for name in ("build_weight_table", "estimate_and_snap", "weight_mc"):
        monkeypatch.setattr(weights, name, no_work)
    monkeypatch.setattr(starprod, "kontsevich_star_series", no_work)
    ruled = []
    real_rule = weights.weight_rule

    def counting_rule(g):
        ruled.append(g)
        return real_rule(g)

    monkeypatch.setattr(weights, "weight_rule", counting_rule)
    cache = tmp_path / "w.json"
    code = main(
        command
        + ["--pi", so3_file, "--order", "3", "--weights", mode,
           "--samples", "10000", "--cache", str(cache)]
    )
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert not cache.exists()
    # one rule lookup per order-3 weight orbit
    assert len(ruled) == len(set(ruled)) == 6
    # so(3) reads 10 order-3 classes in 6 weight orbits, one owner each; no
    # rule fixes 5 of them, and none is ever sampled
    prefix = "error: no snapped weight for graphs: "
    assert err.startswith(prefix) and err.endswith("\n")
    named = [parse_id(gid) for gid in err[len(prefix):-1].split(", ")]
    assert len(named) == 5
    assert all(orbit(g, mirror=True) == (g, 1) for g in named)
    assert named == sorted(named, key=graphs._order_key)
    assert all(g.n == 3 and weights.weight_rule(g) is None for g in named)


def test_star_order_three_on_so3_enumerates_only_the_graphs_it_reads(
    monkeypatch, capsys, so3_file, cache_arg
):
    # so(3) is linear, so a graph with a repeated target or an aerial vertex
    # hit twice has B_Gamma = 0: 640 of the 4 096 order-3 graphs are built
    counts = {}
    real = starprod.enumerate_graphs

    def counting(n, *args, **kwargs):
        out = real(n, *args, **kwargs)
        counts[n] = counts.get(n, 0) + len(out)
        return out

    monkeypatch.setattr(starprod, "enumerate_graphs", counting)
    argv = ["star", "--pi", so3_file, "--f", "x1", "--g", "x2", "--order", "3"]
    # the cache holds no order-3 weight, so the request is refused
    assert main(argv + cache_arg) == 2
    assert capsys.readouterr().out == ""
    assert counts[3] == 640


def test_mc_samples_guard(so3_file):
    code = main(
        ["star", "--pi", so3_file, "--f", "x1", "--g", "x2",
         "--weights", "mc", "--samples", "100"]
    )
    assert code == 2


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def test_check_jacobi_pass(capsys, so3_file):
    code, out = run(capsys, ["check", "jacobi", "--pi", so3_file])
    assert code == 0 and out["pass"] is True


def test_check_jacobi_fail(capsys, tmp_path):
    bad = PolyVector(
        3,
        2,
        {
            (1, 2): Polynomial.var(3, 1),
            (1, 3): Polynomial.var(3, 3),
            (2, 3): Polynomial.var(3, 2),
        },
    )
    path = tmp_path / "bad.json"
    save_poisson(bad, path)
    code, out = run(capsys, ["check", "jacobi", "--pi", str(path)])
    assert code == 1 and out["pass"] is False


def test_check_assoc_table(capsys, so3_file, cache_arg):
    code, out = run(
        capsys,
        ["check", "assoc", "--pi", so3_file, "--order", "2", "--weights", "table"]
        + cache_arg,
    )
    assert code == 0
    assert out["pass"] is True and out["failures"] == 0


def test_check_assoc_stdout_bytes(capsys, so3_file, cache_arg):
    # the benchmark's digest oracle compares exactly these bytes
    code = main(["check", "assoc", "--pi", so3_file, "--order", "2"] + cache_arg)
    assert code == 0
    assert capsys.readouterr().out == (
        '{\n "check": "assoc",\n "failures": 0,\n "mode": "table",\n'
        ' "order": 2,\n "pass": true,\n "triples": 27\n}\n'
    )


def test_check_assoc_certifies_operator_identity(
    capsys, so3_file, weight_cache_path, tmp_path
):
    # a wrong order-2 weight whose defect acts only on second derivatives:
    # every coordinate triple passes, the operator identity does not
    entries = json.loads(Path(weight_cache_path).read_text())
    assert entries["2;2;[b1,b2],[b1,b2]"]["snapped"] == "1/4"
    entries["2;2;[b1,b2],[b1,b2]"]["snapped"] = "1/2"
    cache = tmp_path / "perturbed.json"
    cache.write_text(json.dumps(entries))
    code, out = run(
        capsys,
        ["check", "assoc", "--pi", so3_file, "--order", "2", "--cache", str(cache)],
    )
    assert code == 1
    assert out["pass"] is False
    assert out["failures"] == 0 and out["triples"] == 27


def test_a_passing_check_assoc_applies_no_triple(
    monkeypatch, capsys, so3_file, cache_arg, tmp_path
):
    # a passing identity has failures 0 without building the d coordinates
    # or evaluating the d^3 triples; a failing one builds each coordinate once
    calls, coordinates = [], []
    real, real_var = cli.apply_op, Polynomial.var

    def counting(op, args):
        calls.append(op)
        return real(op, args)

    def counting_var(dim, i):
        coordinates.append(i)
        return real_var(dim, i)

    monkeypatch.setattr(cli, "apply_op", counting)
    monkeypatch.setattr(Polynomial, "var", staticmethod(counting_var))
    code, out = run(capsys, ["check", "assoc", "--pi", so3_file] + cache_arg)
    assert code == 0
    assert (out["pass"], out["failures"], out["triples"]) == (True, 0, 27)
    assert calls == [] and coordinates == []
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"dim": 3, "components": {"1,2": "x1", "1,3": "x3", "2,3": "x2"}})
    )
    code, out = run(capsys, ["check", "assoc", "--pi", str(bad)] + cache_arg)
    assert code == 1
    assert (out["pass"], out["failures"], out["triples"]) == (False, 6, 27)
    assert calls and coordinates == [1, 2, 3]


def test_check_assoc_counts_failing_triples_of_a_non_poisson_pi(
    capsys, tmp_path, cache_arg
):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"dim": 3, "components": {"1,2": "x1", "1,3": "x3", "2,3": "x2"}})
    )
    code = main(["check", "assoc", "--pi", str(path)] + cache_arg)
    out, err = capsys.readouterr()
    assert code == 1
    assert err == "warning: [pi,pi] != 0, star product will not be associative\n"
    assert out == (
        '{\n "check": "assoc",\n "failures": 6,\n "mode": "table",\n'
        ' "order": 2,\n "pass": false,\n "triples": 27\n}\n'
    )


def test_check_assoc_evaluates_only_the_triples_a_defect_reaches(
    capsys, monkeypatch, tmp_path, cache_arg
):
    # the non-Poisson pi above embedded in 80 dimensions: a triple on which
    # every C_r vanishes cannot fail, so of the 512 000 coordinate triples
    # only the few that a term of some C_r reaches are evaluated
    path = tmp_path / "bad80.json"
    path.write_text(
        json.dumps({"dim": 80, "components": {"1,2": "x1", "1,3": "x3", "2,3": "x2"}})
    )
    calls = []
    real = cli.apply_op

    def counting(op, args):
        calls.append(op)
        return real(op, args)

    monkeypatch.setattr(cli, "apply_op", counting)
    code, out = run(capsys, ["check", "assoc", "--pi", str(path)] + cache_arg)
    assert code == 1
    assert (out["pass"], out["failures"], out["triples"]) == (False, 6, 512_000)
    assert len(calls) <= 100
    # the 3-sigma bands reach more triples, and fail on as many as in 20
    # dimensions when every triple is evaluated
    code, out = run(
        capsys,
        ["check", "assoc", "--pi", str(path), "--weights", "mc",
         "--samples", "10000", "--seed", "7"],
    )
    assert code == 1
    assert (out["mode"], out["failures"], out["triples"]) == ("mc", 6, 512_000)


def test_check_assoc_reads_only_the_owners_weight(
    capsys, so3_file, weight_cache_path, tmp_path
):
    # a weight orbit is read through its owner alone: altering the owner's
    # entry breaks the certificate, altering another member's entry leaves
    # it as it was
    entries = json.loads(Path(weight_cache_path).read_text())
    member, rep = "2;2;[2,b1],[b2,b1]", "2;2;[2,b1],[b1,b2]"
    assert entries[member]["snapped"] == "1/12"
    assert entries[rep]["snapped"] == "-1/12"
    for gid, passes in ((rep, False), (member, True)):
        altered = json.loads(json.dumps(entries))
        altered[gid]["snapped"] = "0"
        cache = tmp_path / "altered.json"
        cache.write_text(json.dumps(altered))
        code, out = run(
            capsys,
            ["check", "assoc", "--pi", so3_file, "--order", "2", "--cache", str(cache)],
        )
        assert (code, out["pass"]) == ((0, True) if passes else (1, False))


def test_assoc_alias(capsys, so3_file, cache_arg):
    code, out = run(
        capsys,
        ["assoc", "--pi", so3_file, "--order", "1", "--weights", "table"]
        + cache_arg,
    )
    assert code == 0 and out["check"] == "assoc"


def test_check_wick(capsys):
    code, out = run(capsys, ["check", "wick", "--order", "3"])
    assert code == 0 and out["pass"] is True


def test_check_wick_above_order_three(capsys):
    # like moyal, the Wick oracle needs no weights
    code, out = run(capsys, ["check", "wick", "--order", "6"])
    assert code == 0 and out["pass"] is True
    assert out["order"] == 6


def test_check_wick_cost_does_not_grow_with_order(capsys):
    # both series vanish above the arguments' lower degree (at most 3 here),
    # so a billion orders cost what three do
    small = run(capsys, ["check", "wick", "--order", "3"])[1]
    start = time.perf_counter()
    code, big = run(capsys, ["check", "wick", "--order", "1000000000"])
    assert time.perf_counter() - start < 2
    assert code == 0 and big == {**small, "order": 1_000_000_000}


def test_check_hochschild(capsys):
    code, out = run(capsys, ["check", "hochschild"])
    assert code == 0 and out["pass"] is True


def test_check_wick_counts_every_trial_a_wrong_oracle_fails(capsys, monkeypatch):
    from deformq import suites

    real = suites.moyal_via_wick

    def perturbed(pi, f, g, order):
        series = real(pi, f, g, order)
        shifted = series.coeffs[0] + Polynomial.const(pi.dim, 1)
        return FormalSeries(series.order, (shifted,) + series.coeffs[1:])

    monkeypatch.setattr(suites, "moyal_via_wick", perturbed)
    code, out = run(capsys, ["check", "wick", "--order", "3"])
    assert code == 1 and out["pass"] is False
    assert out["failures"] == out["trials"] == 20


@pytest.mark.parametrize(
    "kernel, fake, broken",
    [
        # d(psi) = psi: d^2 and d(hkr(xi)) are nonzero
        ("hochschild_d", lambda psi: psi, {"d_squared_zero", "hkr_closed"}),
        # the pre-Lie composition alone, of the bracket's arity, is no Lie
        # bracket (returning the first argument would add operators of
        # different arities, a crash rather than a failed identity)
        ("gerstenhaber_bracket", compose_gerstenhaber, {"gerstenhaber_jacobi"}),
    ],
    ids=["hochschild_d", "gerstenhaber_bracket"],
)
def test_check_hochschild_fails_on_a_broken_kernel(
    capsys, monkeypatch, kernel, fake, broken
):
    from deformq import suites

    monkeypatch.setattr(suites, kernel, fake)
    code, out = run(capsys, ["check", "hochschild"])
    assert code == 1 and out["pass"] is False
    names = {"d_squared_zero", "gerstenhaber_jacobi", "hkr_closed"}
    assert {name for name in names if not out[name]} == broken


def test_check_requires_pi(capsys):
    for argv in (["check", "jacobi"], ["check", "assoc"], ["assoc"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "the following arguments are required: --pi" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# poisson file round trip and env cache
# ---------------------------------------------------------------------------


def test_poisson_round_trip(tmp_path, so3_file):
    pi = load_poisson(so3_file)
    path = tmp_path / "copy.json"
    save_poisson(pi, path)
    assert load_poisson(str(path)) == pi


def test_poisson_rejects_bad_component_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 2, "components": {"2,1": "x1"}}))
    with pytest.raises(Exception):
        load_poisson(str(path))


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        '{"dim": null}',
        '{"dim": 3, "components": ["x"]}',
        '{"dim": 3, "components": {"1,2": 5}}',
    ],
    ids=["list", "null-dim", "component-list", "number-component"],
)
def test_poisson_file_of_wrong_shape_is_usage_error(capsys, tmp_path, text):
    path = tmp_path / "pi.json"
    path.write_text(text)
    code = main(["check", "jacobi", "--pi", str(path)])
    assert code == 2
    assert "malformed poisson file" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["star", "check-jacobi"])
def test_poisson_file_that_is_not_utf8_is_usage_error(
    capsys, tmp_path, cache_arg, command
):
    path = tmp_path / "pi.json"
    path.write_bytes(b"\xff\xfe{")
    argv = {
        "star": ["star", "--pi", str(path), "--f", "x1", "--g", "x2"] + cache_arg,
        "check-jacobi": ["check", "jacobi", "--pi", str(path)],
    }[command]
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read poisson file {path}: ")


def test_poisson_file_with_an_unknown_key_is_usage_error(
    capsys, tmp_path, cache_arg
):
    # a misspelt "components" must not read as pi = 0
    path = tmp_path / "pi.json"
    path.write_text(json.dumps({"dim": 3, "compnents": {"1,2": "x3"}}))
    star = ["star", "--pi", str(path), "--f", "x1", "--g", "x2", *cache_arg]
    for argv in (star, ["check", "jacobi", "--pi", str(path)]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: malformed poisson file {path}: unknown keys ['compnents']\n"


@pytest.mark.parametrize(
    "command, pi12, f",
    [("star", "x3", "1/0"), ("moyal", "x3", "1/0"), ("star", "1/0 x1", "x1")],
    ids=["star-f", "moyal-f", "poisson-file"],
)
def test_zero_denominator_is_usage_error(capsys, tmp_path, cache_arg, command, pi12, f):
    path = tmp_path / "pi.json"
    components = {"1,2": pi12, "1,3": "-x2", "2,3": "x1"}
    path.write_text(json.dumps({"dim": 3, "components": components}))
    argv = [command, "--pi", str(path), "--f", f, "--g", "x2"]
    if command == "star":
        argv += cache_arg
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "zero denominator in '1/0" in err


def test_poisson_repeated_component_is_usage_error(capsys, tmp_path, cache_arg):
    # "1,2" and "1, 2" both name (1, 2); neither may silently win
    path = tmp_path / "pi.json"
    components = {"1,2": "x3", "1, 2": "x1", "1,3": "-x2", "2,3": "x1"}
    path.write_text(json.dumps({"dim": 3, "components": components}))
    star = ["star", "--pi", str(path), "--f", "x1", "--g", "x2", "--order", "1"]
    for argv in (["check", "jacobi", "--pi", str(path)], star + cache_arg):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: malformed poisson file {path}: component (1, 2) is given twice\n"
        )


@pytest.mark.parametrize(
    "key", ["\u0661,2", " 1 , 2 ", "+1,2", "1,0_2"],
    ids=["arabic-indic-digit", "spaces", "sign", "underscore"],
)
def test_poisson_component_key_is_ascii_digits(capsys, tmp_path, cache_arg, key):
    # int() reads each of these keys as 1 and 2
    path = tmp_path / "pi.json"
    components = {key: "x3", "1,3": "-x2", "2,3": "x1"}
    path.write_text(json.dumps({"dim": 3, "components": components}))
    star = ["star", "--pi", str(path), "--f", "x1", "--g", "x2", *cache_arg]
    for argv in (["check", "jacobi", "--pi", str(path)], star):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: malformed poisson file {path}: "
            f"component key {key!r} is not i,j in digits 0-9\n"
        )


@pytest.mark.parametrize(
    "dim", [0, -2, 2.7, "3", True], ids=["zero", "negative", "float", "string", "bool"]
)
def test_poisson_dim_must_be_a_positive_integer(capsys, tmp_path, dim, cache_arg):
    path = tmp_path / "pi.json"
    path.write_text(json.dumps({"dim": dim, "components": {}}))
    for argv in (
        ["check", "jacobi", "--pi", str(path)],
        ["star", "--pi", str(path), "--f", "1", "--g", "1", *cache_arg],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed poisson file {path}: dim must be")


@pytest.mark.parametrize(
    "argv",
    [["star", "--pi", "pi.json", "--f", "x1", "--g", "x2"],
     ["check", "assoc", "--pi", "pi.json"],
     ["weight", "--graph", "1;2;[b1,b2]"]],
    ids=["star", "check-assoc", "weight"],
)
def test_defaults(monkeypatch, argv):
    monkeypatch.delenv("DEFORMQ_CACHE", raising=False)
    args = cli.build_parser().parse_args(argv)
    if argv[0] != "weight":  # weight reads no --order
        assert args.order == 2
    assert args.samples == 1_000_000
    assert args.seed == 2024
    assert args.weights == "table"
    assert cli._weight_cache(args) == Path("weights_cache.json")


def test_env_cache_override(capsys, tmp_path, monkeypatch):
    env_cache = tmp_path / "env_cache.json"
    monkeypatch.setenv("DEFORMQ_CACHE", str(env_cache))
    code, _ = run(
        capsys,
        ["weight", "--graph", "1;2;[b1,b1]", "--samples", "10000"],
    )
    assert code == 0
    assert env_cache.exists()
    # explicit flag wins over the environment
    flag_cache = tmp_path / "flag_cache.json"
    code, _ = run(
        capsys,
        ["weight", "--graph", "1;2;[b2,b2]", "--samples", "10000",
         "--cache", str(flag_cache)],
    )
    assert code == 0
    assert flag_cache.exists()
    assert "1;2;[b2,b2]" not in json.loads(env_cache.read_text())


def test_corrupt_cache_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"1;2;[b1,b2]": {"mean": "notafloat"}}')
    code = main(
        ["weight", "--graph", "1;2;[b1,b1]", "--samples", "10000",
         "--cache", str(bad)]
    )
    assert code == 2


@pytest.mark.parametrize("kind", ["json-list", "directory"])
def test_unreadable_cache_is_usage_error_before_monte_carlo(
    monkeypatch, capsys, tmp_path, kind
):
    bad = tmp_path / "cache"
    if kind == "directory":
        bad.mkdir()
    else:
        bad.write_text("[]\n")
    _forbid_monte_carlo(monkeypatch)
    code = main(
        ["weight", "--graph", "1;2;[b1,b2]", "--samples", "10000",
         "--cache", str(bad)]
    )
    assert code == 2
    assert "cannot read weight cache" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [("snapped", "1/0"), ("snapped", 0.1), ("samples", 1.5), ("seed", True),
     ("mean", "0.5"), ("mean", True), ("mean", float("nan")),
     ("mean", float("inf")), ("stderr", -1)],
)
@pytest.mark.parametrize(
    "command",
    [["star", "--f", "x1", "--g", "x2"], ["check", "assoc"]],
    ids=["star", "check-assoc"],
)
def test_malformed_cache_entry_is_usage_error(
    monkeypatch, capsys, so3_file, weight_cache_path, tmp_path, key, value, command
):
    entries = json.loads(Path(weight_cache_path).read_text())
    entries[next(iter(entries))][key] = value
    cache = tmp_path / "bad.json"
    cache.write_text(json.dumps(entries))
    _forbid_monte_carlo(monkeypatch)
    code = main([*command, "--pi", so3_file, "--order", "2", "--cache", str(cache)])
    assert code == 2
    assert "cannot read weight cache" in capsys.readouterr().err


def test_cache_entry_with_an_unknown_key_is_usage_error(
    capsys, so3_file, weight_cache_path, tmp_path
):
    # a misspelt "snapped" must not read as unsnapped, which would
    # re-estimate the entry and rewrite the cache
    entries = json.loads(Path(weight_cache_path).read_text())
    entries["1;2;[b1,b1]"]["snaped"] = entries["1;2;[b1,b1]"].pop("snapped")
    cache = tmp_path / "misspelt.json"
    text = json.dumps(entries)
    cache.write_text(text)
    code = main(["star", "--pi", so3_file, "--f", "x1", "--g", "x2", "--cache", str(cache)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert "cannot read weight cache" in err and "unknown keys ['snaped']" in err
    assert cache.read_text() == text


@pytest.mark.parametrize(
    "command",
    [["weight", "--graph", "1;2;[b1,b1]"],
     ["star", "--f", "x1", "--g", "x2"],
     ["check", "assoc"]],
    ids=["weight", "star", "check-assoc"],
)
def test_cache_in_missing_directory_is_usage_error_before_monte_carlo(
    monkeypatch, capsys, tmp_path, so3_file, command
):
    _forbid_monte_carlo(monkeypatch)
    cache = tmp_path / "missing" / "w.json"
    pi = [] if command[0] == "weight" else ["--pi", so3_file]
    code = main(command + pi + ["--samples", "10000", "--cache", str(cache)])
    assert code == 2
    assert "does not exist" in capsys.readouterr().err
    assert not cache.parent.exists()


@pytest.mark.parametrize(
    "error",
    [PermissionError(errno.EACCES, "Permission denied"),
     OSError(errno.ENOSPC, "No space left on device")],
    ids=["permission", "no-space"],
)
@pytest.mark.parametrize(
    "command",
    [["star", "--f", "x1", "--g", "x2"], ["weight", "--graph", READ_RULE_FIXED]],
    ids=["star", "weight"],
)
def test_a_cache_that_cannot_be_written_is_a_usage_error(
    monkeypatch, capsys, tmp_path, so3_file, command, error
):
    # the rule-fixed weight the copy lacks is filled, so the cache is saved
    entries = json.loads((Path(__file__).parent / ".weight_cache.json").read_text())
    del entries[READ_RULE_FIXED]
    cache = tmp_path / "partial.json"
    cache.write_text(json.dumps(entries, indent=1) + "\n")
    before = cache.read_bytes()

    def refuse(src, dst):
        raise error

    monkeypatch.setattr(os, "replace", refuse)
    pi = [] if command[0] == "weight" else ["--pi", so3_file]
    code = main(command + pi + ["--cache", str(cache)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == f"error: cannot write weight cache {cache}: {error}\n"
    assert cache.read_bytes() == before
    # and the temporary file the save wrote is gone
    assert sorted(p.name for p in tmp_path.iterdir()) == ["partial.json", "so3.json"]


@pytest.mark.parametrize(
    "written", ["{", '{"1;2;[b1,b2]": {"mean": 0.5}}'], ids=["json", "entry"]
)
def test_a_cache_unreadable_at_save_time_is_a_usage_error(
    monkeypatch, capsys, tmp_path, so3_file, written
):
    # the save keeps the file's other entries, so it reads the file first
    entries = json.loads((Path(__file__).parent / ".weight_cache.json").read_text())
    del entries[READ_RULE_FIXED]
    cache = tmp_path / "partial.json"
    cache.write_text(json.dumps(entries))
    real = weights.build_weight_table

    def another_process_writes(*args, **kwargs):
        table = real(*args, **kwargs)
        cache.write_text(written)
        return table

    monkeypatch.setattr(weights, "build_weight_table", another_process_writes)
    code = main(["star", "--pi", so3_file, "--f", "x1", "--g", "x2", "--cache", str(cache)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write weight cache {cache}: ")
    assert cache.read_text() == written
    assert sorted(p.name for p in tmp_path.iterdir()) == ["partial.json", "so3.json"]


def test_a_save_keeps_what_another_process_changed_since_its_load(
    monkeypatch, tmp_path
):
    # two processes load one cache: the first snaps CAPPED again and saves,
    # then the second fills a graph the file lacks and saves; the second
    # must not write back the unsnapped CAPPED it loaded
    monkeypatch.setattr(weights, "_sample_weight", _no_sampling)
    cache = _capped_cache(tmp_path)
    entries = json.loads(cache.read_text())
    del entries[READ_RULE_FIXED]
    cache.write_text(json.dumps(entries))
    args = cli.build_parser().parse_args(["weight", "--graph", CAPPED])
    loads = iter([WeightTable.load(cache), WeightTable.load(cache)])
    monkeypatch.setattr(cli, "_load_table", lambda args, cache: next(loads))
    cli._weight_table(args, cache, {CAPPED: parse_id(CAPPED)})
    fixed = parse_id(READ_RULE_FIXED)
    cli._weight_table(args, cache, {READ_RULE_FIXED: fixed})
    saved = json.loads(cache.read_text())
    assert saved[CAPPED]["snapped"] == "-1/12"
    assert saved[READ_RULE_FIXED]["snapped"] == "0"


def test_a_fault_in_the_save_is_a_crash_not_a_usage_error(
    monkeypatch, capsys, tmp_path
):
    entries = json.loads((Path(__file__).parent / ".weight_cache.json").read_text())
    del entries[READ_RULE_FIXED]
    cache = tmp_path / "partial.json"
    cache.write_text(json.dumps(entries))
    before = cache.read_bytes()

    def faulty(self):
        raise TypeError("a fault in the program")

    monkeypatch.setattr(WeightTable, "to_json", faulty)
    code = main(["weight", "--graph", READ_RULE_FIXED, "--cache", str(cache)])
    out, err = capsys.readouterr()
    assert (code, out) == (70, "")
    assert err.startswith("Traceback") and "a fault in the program" in err
    assert cache.read_bytes() == before


def test_star_warns_on_non_poisson(capsys, tmp_path, weight_cache_path, monkeypatch):
    bad = PolyVector(
        3,
        2,
        {
            (1, 2): Polynomial.var(3, 1),
            (1, 3): Polynomial.var(3, 3),
            (2, 3): Polynomial.var(3, 2),
        },
    )
    path = tmp_path / "bad.json"
    save_poisson(bad, path)
    calls = []
    real = cli.jacobiator

    def counting(pi):
        calls.append(pi)
        return real(pi)

    # one verdict per request, from one jacobiator call, for star and for
    # check assoc alike
    monkeypatch.setattr(cli, "jacobiator", counting)
    for argv in [
        ["star", "--pi", str(path), "--f", "x1", "--g", "x2"],
        ["check", "assoc", "--pi", str(path)],
    ]:
        calls.clear()
        code = main(argv + ["--order", "1", "--cache", weight_cache_path])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == (
            "warning: [pi,pi] != 0, star product will not be associative\n"
        )
        assert json.loads(captured.out)["order"] == 1
        assert len(calls) == 1


@pytest.mark.parametrize("action", ["error", "ignore"])
def test_star_leaves_any_other_warning_to_the_filters(
    capsys, so3_file, cache_arg, monkeypatch, action
):
    # nothing records warnings: one raised in the assembly reaches the
    # interpreter's filters, so it is an error under an "error" filter (a
    # crash, exit 70) and silent under "ignore"
    real = cli.kontsevich_star

    def deprecated(*args):
        warnings.warn("an assembly step is deprecated", DeprecationWarning)
        return real(*args)

    argv = ["star", "--pi", so3_file, "--f", "x1", "--g", "x2"] + cache_arg
    assert main(argv) == 0
    expected = capsys.readouterr().out
    monkeypatch.setattr(cli, "kontsevich_star", deprecated)
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        code = main(argv)
    out, err = capsys.readouterr()
    assert "[pi,pi]" not in err
    if action == "error":
        assert (code, out) == (70, "")
        assert "DeprecationWarning: an assembly step is deprecated" in err
    else:
        assert (code, out, err) == (0, expected, "")


def test_star_prints_its_non_poisson_line_under_an_error_filter(
    capsys, tmp_path, cache_arg
):
    # the CLI prints its non-Poisson line and raises no warning, so no
    # filter makes it an error
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"dim": 3, "components": {"1,2": "x1", "1,3": "x3", "2,3": "x2"}})
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["star", "--pi", str(path), "--f", "x1", "--g", "x2"] + cache_arg)
    out, err = capsys.readouterr()
    assert code == 0 and json.loads(out)["order"] == 2
    assert err == "warning: [pi,pi] != 0, star product will not be associative\n"


def test_check_assoc_mc_mode_order_one(capsys, so3_file):
    code, out = run(
        capsys,
        ["check", "assoc", "--pi", so3_file, "--order", "1",
         "--weights", "mc", "--samples", "50000", "--seed", "11"],
    )
    assert code == 0
    assert out["mode"] == "mc" and out["pass"] is True


def test_check_assoc_mc_mode_builds_operators_once_per_order(
    capsys, so3_file, monkeypatch
):
    calls = []
    real = starprod._class_operators

    def counting(pi, n):
        calls.append(n)
        return real(pi, n)

    monkeypatch.setattr(starprod, "_class_operators", counting)
    code, out = run(
        capsys,
        ["check", "assoc", "--pi", so3_file, "--order", "2",
         "--weights", "mc", "--samples", "10000"],
    )
    assert code == 0 and out["pass"] is True and out["triples"] == 27
    assert calls == [1, 2]


def test_star_builds_operators_once_per_order(capsys, so3_file, cache_arg, monkeypatch):
    calls = []
    real = starprod._class_operators

    def counting(pi, n):
        calls.append(n)
        return real(pi, n)

    monkeypatch.setattr(starprod, "_class_operators", counting)
    code, out = run(capsys, ["star", "--pi", so3_file, "--f", "x1", "--g", "x2"] + cache_arg)
    assert code == 0 and out["coeffs"][1] == "x3"
    assert calls == [1, 2]


@pytest.mark.parametrize(
    "components, written, estimated",
    [
        # so(3): 1 order-1 and 6 order-2 classes in 5 weight orbits, one
        # owner each, 2 of them fixed by a rule
        ({"1,2": "x3", "1,3": "- x2", "2,3": "x1"}, 5,
         ["2;2;[2,b1],[1,b2]", "2;2;[2,b1],[b1,b2]", "2;2;[b1,b2],[b1,b2]"]),
        # a constant pi reads no graph with an edge between aerial vertices
        ({"1,2": "1", "3,4": "2"}, 2, ["2;2;[b1,b2],[b1,b2]"]),
    ],
    ids=["so3", "constant-4d"],
)
def test_a_cold_star_fills_only_the_graphs_it_reads(
    monkeypatch, capsys, tmp_path, cache_arg, components, written, estimated
):
    committed = json.loads((Path(__file__).parent / ".weight_cache.json").read_text())
    sampled = []

    def committed_estimate(g, samples, seed, boundary_points=(0.0, 1.0)):
        # a band narrow enough to snap to the committed value
        gid = canonical_id(g)
        sampled.append(gid)
        mean = float(Fraction(committed[gid]["snapped"]))
        return weights.WeightEstimate(gid, mean, 1e-6, samples, seed)

    dim = max(int(i) for key in components for i in key.split(","))
    pi = tmp_path / "pi.json"
    pi.write_text(json.dumps({"dim": dim, "components": components}))
    argv = ["star", "--pi", str(pi), "--f", "x1 x2", "--g", "x2 + x1^2"]
    code, warm = run(capsys, argv + cache_arg)
    assert code == 0
    monkeypatch.setattr(weights, "_sample_weight", committed_estimate)
    cache = tmp_path / "cold.json"
    code, cold = run(capsys, argv + ["--cache", str(cache)])
    assert (code, cold) == (0, warm)
    assert sorted(sampled) == estimated
    filled = json.loads(cache.read_text())
    assert len(filled) == written
    # the rest are fixed by a rule, exact with stderr 0
    assert sum(e["stderr"] == 0 for e in filled.values()) == written - len(estimated)
    assert all(e["snapped"] == committed[gid]["snapped"] for gid, e in filled.items())


def test_check_assoc_mc_mode_estimates_once_per_orbit(
    capsys, so3_file, monkeypatch
):
    estimated = []
    real = weights.weight_mc

    def counting(g, samples, seed, *args):
        if weights.weight_rule(g) is None:
            estimated.append(g)
        return real(g, samples, seed, *args)

    monkeypatch.setattr(weights, "weight_mc", counting)
    code, out = run(
        capsys,
        ["check", "assoc", "--pi", so3_file, "--order", "2",
         "--weights", "mc", "--samples", "10000"],
    )
    assert code == 0 and out["pass"] is True
    # three order-2 orbits, not the 38 labelled graphs: order 1 is exact by
    # rule, and the mirror folds the -1/12 and 1/12 classes into one
    assert len(estimated) == 3
    assert all(orbit(g, mirror=True) == (g, 1) for g in estimated)


def test_check_assoc_mc_mode_rejects_non_poisson(capsys, tmp_path):
    bad = PolyVector(
        3,
        2,
        {
            (1, 2): Polynomial.var(3, 1),
            (1, 3): Polynomial.var(3, 3),
            (2, 3): Polynomial.var(3, 2),
        },
    )
    path = tmp_path / "bad.json"
    save_poisson(bad, path)
    code, out = run(
        capsys,
        ["check", "assoc", "--pi", str(path), "--order", "2",
         "--weights", "mc", "--samples", "10000", "--seed", "2024"],
    )
    assert code == 1
    assert out["mode"] == "mc" and out["pass"] is False


SRC = str(Path(cli.__file__).resolve().parents[1])


def _deformq_subprocess(code_text, *argv, flags=()):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *flags, "-c", code_text, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_warm_star_and_check_assoc_import_only_the_code_they_run(
    so3_file, weight_cache_path
):
    script = (
        "import sys\n"
        "from deformq.cli import main\n"
        "pi, cache = sys.argv[1], sys.argv[2]\n"
        "assert main(['star', '--pi', pi, '--f', 'x1', '--g', 'x2 x3',"
        " '--cache', cache]) == 0\n"
        "assert main(['check', 'assoc', '--pi', pi, '--order', '2',"
        " '--cache', cache]) == 0\n"
        "print(*(m in sys.modules for m in"
        " ('numpy', 'deformq.linsymp', 'dataclasses', 'inspect',"
        " 'concurrent.futures', 'multiprocessing',"
        " 'concurrent.futures.process', 'deformq.weights',"
        " 'deformq.closedform', 'deformq.suites', 'typing')),"
        " file=sys.stderr)\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'deformq'))\n"
    )
    # -S: no site, whose .pth files may import typing themselves
    proc = _deformq_subprocess(script, so3_file, weight_cache_path, flags=["-S"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == " ".join(["False"] * 11) + "\n"
    # every warm request compiles these afresh when no bytecode is cached
    warm = ["cli", "graphs", "operators", "polyalg", "record", "starprod", "table"]
    loaded = proc.stdout.splitlines()[-1].split()
    assert loaded == ["deformq", *(f"deformq.{m}" for m in warm)]


def test_a_fully_cached_order_three_star_loads_no_monte_carlo_code(
    tmp_path, so3_file, weight_cache_path
):
    # synthetic snapped entries for the order-3 weight-orbit owners the
    # cache lacks (5 that no rule fixes, 1 that one does), and for no other
    # graph of the 10 order-3 classes: nothing to fill
    entries = json.loads(Path(weight_cache_path).read_text())
    classes = starprod.star_classes(load_poisson(so3_file), 3)
    owners = {canonical_id(g) for row in classes for g, _ in row}
    added = sorted(owners - set(entries))
    assert len(added) == 6 and all(gid.startswith("3;") for gid in added)
    for gid in added:
        entries[gid] = {
            "mean": 0.0, "stderr": 0.0, "samples": 1, "seed": 0, "snapped": "0",
        }
    cache = tmp_path / "order3.json"
    cache.write_text(json.dumps(entries))
    before = cache.read_bytes()
    script = (
        "import sys; from deformq.cli import main; code = main(sys.argv[1:]);"
        " print('deformq.weights' in sys.modules, file=sys.stderr); sys.exit(code)"
    )
    proc = _deformq_subprocess(
        script, "star", "--pi", so3_file, "--f", "x1", "--g", "x2",
        "--order", "3", "--cache", str(cache),
    )
    assert (proc.returncode, proc.stderr) == (0, "False\n")
    assert json.loads(proc.stdout)["order"] == 3
    assert cache.read_bytes() == before


def test_star_estimates_a_weight_the_cache_lacks(tmp_path, so3_file, weight_cache_path):
    # a rule-fixed weight so(3) reads: restoring it imports the weights
    # module, which the full cache never needs, but neither numpy nor Monte
    # Carlo
    gid = READ_RULE_FIXED
    full = json.loads(Path(weight_cache_path).read_text())
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({k: v for k, v in full.items() if k != gid}))
    argv = ["star", "--pi", so3_file, "--f", "x1 x2", "--g", "x3^2 + x1"]
    script = (
        "import sys; from deformq.cli import main; code = main(sys.argv[1:]);"
        " print(*(m in sys.modules for m in ('deformq.weights', 'numpy')),"
        " file=sys.stderr); sys.exit(code)"
    )
    warm = _deformq_subprocess(script, *argv, "--cache", weight_cache_path)
    cold = _deformq_subprocess(script, *argv, "--cache", str(partial))
    assert warm.returncode == cold.returncode == 0, cold.stderr
    assert cold.stdout == warm.stdout
    assert (warm.stderr, cold.stderr) == ("False False\n", "True False\n")
    # the committed entry holds an estimate made before the rule existed;
    # the restored one is the rule's exact weight, the same snapped value
    restored = json.loads(partial.read_text())
    assert restored.pop(gid) == {**full.pop(gid), "mean": 0.0, "stderr": 0.0}
    assert restored == full


def test_check_assoc_non_poisson_prints_one_warning_line(tmp_path, weight_cache_path):
    bad = PolyVector(
        3,
        2,
        {
            (1, 2): Polynomial.var(3, 1),
            (1, 3): Polynomial.var(3, 3),
            (2, 3): Polynomial.var(3, 2),
        },
    )
    path = tmp_path / "bad.json"
    save_poisson(bad, path)
    proc = _deformq_subprocess(
        "import sys; from deformq.cli import main; sys.exit(main(sys.argv[1:]))",
        "check", "assoc", "--pi", str(path), "--order", "2",
        "--cache", weight_cache_path,
    )
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["pass"] is False
    assert proc.stderr == (
        "warning: [pi,pi] != 0, star product will not be associative\n"
    )
