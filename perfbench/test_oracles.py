"""Each oracle accepts the program's real output and rejects a corrupted one.

    python3 -m pytest perfbench/test_oracles.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import oracles  # noqa: E402
from deformq import cli  # noqa: E402
from deformq.polyalg import Polynomial, PolyVector  # noqa: E402
from deformq.starprod import graph_operators  # noqa: E402

COMMITTED = json.loads((ROOT / "tests" / ".weight_cache.json").read_text())


def _cli(item, command, tmp_path):
    pi_path = tmp_path / "pi.json"
    pi_path.write_text(json.dumps(inputs.poisson_json(item)))
    out = io.StringIO()
    argv = inputs.warm_argv(item, command, str(pi_path), str(ROOT / "tests" / ".weight_cache.json"))
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _corrupt_coeff(stdout: str, k: int) -> str:
    data = json.loads(stdout)
    data["coeffs"][k] = oracles.fmt(oracles.add(oracles.parse(data["coeffs"][k], 4), {(1, 0, 0, 0): 1}))
    return json.dumps(data)


def test_parse_and_fmt_round_trip():
    text = "- 2/3 x3 - 2/3 x2 + 2/3 x1 x2^3"
    assert oracles.fmt(oracles.parse(text, 3)) == text
    assert oracles.parse("0", 2) == {}


def test_weights_oracle():
    ids = inputs.cold_graph_ids(7, COMMITTED)
    saved = {gid: dict(COMMITTED[gid]) for gid in ids}
    assert oracles.check_weights(saved, COMMITTED, ids) == []
    wrong = json.loads(json.dumps(saved))
    wrong[ids[1]]["snapped"] = str(-Fraction(wrong[ids[1]]["snapped"]))
    wrong[ids[4]]["snapped"] = None
    assert len(oracles.check_weights(wrong, COMMITTED, ids)) == 2


def test_cold_sample_strata():
    for seed in range(20):
        ids = inputs.cold_graph_ids(seed, COMMITTED)
        order2 = [COMMITTED[g] for g in ids if g.startswith("2;")]
        assert sum(e["samples"] > inputs.INITIAL_SAMPLES for e in order2) == 1
        assert sum(e["stderr"] > 0 and e["snapped"] == "0" for e in order2) == 1
        assert sum(e["stderr"] == 0 for e in order2) == 2


def test_star_oracle_moyal(tmp_path):
    item = inputs.warm_item("const4", 3)
    code, stdout = _cli(item, "star", tmp_path)
    assert code == 0
    check = lambda text: oracles.check_star(text, item["pi"], item["f"], item["g"], 4, 2)  # noqa: E731
    assert check(stdout) is None
    for k in range(3):
        assert check(_corrupt_coeff(stdout, k)) is not None
    assert check("not json") is not None


def test_star_oracle_bracket(tmp_path):
    item = inputs.warm_item("nambu", 1)
    code, stdout = _cli(item, "star", tmp_path)
    assert code == 0
    assert oracles.check_star(stdout, item["pi"], item["f"], item["g"], 3, 2) is None
    data = json.loads(stdout)
    data["coeffs"][1] = data["coeffs"][2]
    assert oracles.check_star(json.dumps(data), item["pi"], item["f"], item["g"], 3, 2) is not None


def test_assoc_oracle(tmp_path):
    code, stdout = _cli(inputs.warm_item("so3", 0), "assoc", tmp_path)
    assert oracles.check_assoc(code, stdout) is None
    assert oracles.check_assoc(1, stdout) is not None
    assert oracles.check_assoc(0, stdout.replace('"failures": 0', '"failures": 2')) is not None


def test_digest_oracle():
    assert oracles.check_digest("abc", oracles.digest("abc")) is None
    assert oracles.check_digest("abd", oracles.digest("abc")) is not None
    assert oracles.check_digest("abc", None) is not None


def _ops(pi_dict, n):
    pi = PolyVector(2, 2, {ij: Polynomial(2, p) for ij, p in pi_dict.items()})
    return {g.stars: {k: dict(c.terms) for k, c in op.terms.items()} for g, op in graph_operators(pi, n)}


def test_operator_oracle_against_index_sum():
    pi = {(1, 2): {(2, 0): Fraction(1, 2), (1, 1): Fraction(-3), (0, 2): Fraction(2)}}
    f = {(2, 1): Fraction(3), (0, 3): Fraction(-1, 2)}
    g = {(1, 2): Fraction(1), (3, 0): Fraction(2)}
    point = (Fraction(2, 3), Fraction(-1, 2))
    ops = _ops(pi, 2)
    per_vertex = [[(a, b) for a in (t, -1, -2) for b in (t, -1, -2)] for t in (2, 1)]
    sample = [(s1, s2) for s1 in per_vertex[0] for s2 in per_vertex[1]]
    assert oracles.check_operator_sample(ops, sample, pi, f, g, point, 2) == []

    stars = next(s for s in ops if len(ops[s]) > 1)
    wrong = dict(ops)
    key = sorted(ops[stars])[0]
    wrong[stars] = dict(ops[stars])
    wrong[stars][key] = oracles.add(ops[stars][key], {(0, 0): 1})
    assert len(oracles.check_operator_sample(wrong, sample, pi, f, g, point, 2)) == 1
    del wrong[stars]
    assert len(oracles.check_operator_sample(wrong, sample, pi, f, g, point, 2)) == 1
    assert oracles.operators_text(wrong) != oracles.operators_text(ops)


def test_warm_schedule_is_seeded_and_stratified():
    assert inputs.warm_requests(3) == inputs.warm_requests(3)
    assert inputs.warm_requests(3) != inputs.warm_requests(4)
    reqs = inputs.warm_requests(3)
    assert sum(1 for f, _, c in reqs if (f, c) == ("const4", "assoc")) > len(reqs) // 10
