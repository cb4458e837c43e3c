import json

import pytest

from deformq.cli import load_poisson, main, save_poisson
from deformq.polyalg import Polynomial, PolyVector


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
    assert abs(out["mean"] - 0.5) <= 3 * out["stderr"]
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
        "weight", "--graph", "1;2;[b1,b2]", "--samples", "100000",
        "--seed", "3", "--cache", str(tmp_path / "w.json"),
    ]
    _, a = run(capsys, argv)
    _, b = run(capsys, argv)
    assert a == b


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


def test_star_order_guard(capsys, so3_file, cache_arg):
    code = main(
        ["star", "--pi", so3_file, "--f", "x1", "--g", "x2", "--order", "4"]
        + cache_arg
    )
    assert code == 2


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


def test_check_hochschild(capsys):
    code, out = run(capsys, ["check", "hochschild"])
    assert code == 0 and out["pass"] is True


def test_check_requires_pi(capsys):
    code = main(["check", "jacobi"])
    assert code == 2


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


def test_star_warns_on_non_poisson(capsys, tmp_path, weight_cache_path):
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
    code = main(
        ["star", "--pi", str(path), "--f", "x1", "--g", "x2", "--order", "1",
         "--cache", weight_cache_path]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "warning" in captured.err
    assert json.loads(captured.out)["order"] == 1


def test_check_assoc_mc_mode_order_one(capsys, so3_file):
    code, out = run(
        capsys,
        ["check", "assoc", "--pi", so3_file, "--order", "1",
         "--weights", "mc", "--samples", "50000", "--seed", "11"],
    )
    assert code == 0
    assert out["mode"] == "mc" and out["pass"] is True
