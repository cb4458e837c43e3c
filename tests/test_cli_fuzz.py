"""A seeded fuzz of `cli.main`, in process: every request must end with the
exit-code contract (0 pass, 1 check failed, 2 usage error, or argparse's
SystemExit(2)) and no other exception.

Argv, Poisson files and cache files are drawn from random.Random(SEED) at
small sizes, after a fixed list of inputs that once ended badly or sit at
an edge.  `weights._sample_weight` is stubbed, so no request samples and
none starts a process pool; the Monte-Carlo paths around it (orbit
representatives, snapping, escalation, cache writes) run as they stand.
"""

import json
import random
import shutil
from pathlib import Path

from deformq import weights
from deformq.cli import ENV_CACHE, main
from deformq.graphs import canonical_id
from deformq.weights import WeightEstimate

SEED = 5
CASES = 240
COMMITTED = Path(__file__).parent / ".weight_cache.json"

WEIGHT_OPTIONS = ["--samples", "--seed", "--weights", "--max-denominator", "--cache"]
COMMANDS = {
    ("graphs",): ["--n", "--nbar"],
    ("weight",): ["--graph", *WEIGHT_OPTIONS],
    ("star",): ["--pi", "--f", "--g", "--order", *WEIGHT_OPTIONS],
    ("moyal",): ["--pi", "--f", "--g", "--order"],
    ("check", "jacobi"): ["--pi"],
    ("check", "assoc"): ["--pi", "--order", *WEIGHT_OPTIONS],
    ("assoc",): ["--pi", "--order", *WEIGHT_OPTIONS],
    ("check", "wick"): ["--order", "--seed"],
}
ODD_FACTORS = ["1/0*x1", "1/0 x1", "x1^-1", "1e400*x1", "x9", "x1 +", "", "0"]
# option -> (values a request may well pass, odd values), an odd one drawn
# with probability ODD
ODD = 0.08
VALUES = {
    "--n": (["0", "1", "2"], ["-1", "5", "x"]),
    "--nbar": (["2"], ["0", "3"]),
    "--graph": (
        ["1;2;[b1,b2]", "1;2;[b1,b1]", "0;2;", "2;2;[2,b1],[b1,b2]",
         "2;2;[2,b2],[b1,b2]", "2;2;[2,b1],[1,b2]", "3;2;[2,3],[1,b1],[1,b2]"],
        ["8;2;" + ",".join(["[b1,b2]"] * 8), "1;1;[b1,b1]", "1;2;[b3,b1]", "bad"],
    ),
    "--order": (["0", "1", "2"], ["-1", "3", "40", "two"]),
    "--seed": (["0", "7", "2024"], ["-1", str(2**32)]),
    "--samples": (["10000", "1000000"], ["5", "64000001"]),
    "--weights": (["table", "mc"], ["exact"]),
    "--max-denominator": (["1", "24", str(10**400)], ["0"]),
}


def _pick(rng, valid, odd):
    return rng.choice(odd if rng.random() < ODD else valid)


def _poly_text(rng, dim) -> str:
    """A small polynomial in the CLI grammar, now and then with a variable
    out of range."""
    terms = []
    for _ in range(rng.randint(1, 2)):
        factors = [rng.choice(["", "2", "3/2"])]
        for _ in range(rng.randint(0, 2)):
            factors.append(f"x{rng.randint(1, dim + (rng.random() < 0.05))}"
                           + rng.choice(["", "", "^2"]))
        terms.append(" ".join(f for f in factors if f) or "1")
    return rng.choice(["", "- "]) + rng.choice([" + ", " - "]).join(terms)


def _poisson_files(rng, root: Path) -> tuple[list[str], list[str]]:
    """Paths of Poisson files: so(3) and seeded bivectors on R^1..R^3, and
    odd ones: malformed files, a misspelt key, a directory and a missing
    file."""
    contents = [
        {"dim": 3, "components": {"1,2": "x3", "1,3": "- x2", "2,3": "x1"}},
        {"dim": 3, "compnents": {"1,2": "x3"}},
        [{"dim": 3}],
        {"dim": 2, "components": {"1,2": "1/0*x1"}},
        {"dim": 2, "components": {"1,2": "x1^-1"}},
        {"dim": 2, "components": {"1,2": "1e400*x1"}},
        {"dim": 2, "components": {"1,2": "x3"}},
        {"dim": 2, "components": {"2,1": "x1"}},
        {"dim": 0, "components": {}},
    ]
    for _ in range(6):
        dim = rng.randint(1, 3)
        pairs = [(i, j) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)]
        contents.append({"dim": dim, "components": {
            f"{i},{j}": _poly_text(rng, dim) for i, j in pairs if rng.random() < 0.7
        }})
    paths = []
    for k, data in enumerate(contents):
        path = root / f"pi{k}.json"
        path.write_text(json.dumps(data))
        paths.append(str(path))
    (root / "pi-not-json.json").write_text("{")
    odd = paths[1:9] + [str(root / "pi-not-json.json"), str(root), str(root / "absent.json")]
    return paths[:1] + paths[9:], odd


def _cache_path(rng, root: Path, kind: str | None) -> str:
    """A fresh cache for one request: the committed table, copies with an
    entry dropped or its "snapped" key misspelt, malformed files, a link to
    /dev/null (a faulty save would replace the link, not the device), a
    directory, a missing file and a file in a missing directory; a kind
    drawn from rng unless one is given."""
    kind = kind or _pick(
        rng,
        ["committed", "committed", "no-rule-entry", "no-mc-entry", "empty", "absent"],
        ["misspelt", "list", "not-json", "null", "directory", "no-dir"],
    )
    path = root / "cache" / f"{kind}.json"
    shutil.rmtree(root / "cache", ignore_errors=True)
    path.parent.mkdir()
    table = json.loads(COMMITTED.read_text())
    if kind == "misspelt":
        table["1;2;[b1,b1]"]["snaped"] = table["1;2;[b1,b1]"].pop("snapped")
    elif kind == "no-rule-entry":
        del table["1;2;[b1,b1]"]
    elif kind == "no-mc-entry":
        del table["2;2;[2,b1],[1,b2]"]
    elif kind == "empty":
        table = {}
    elif kind == "list":
        table = [table["1;2;[b1,b1]"]]
    if kind == "not-json":
        path.write_text('{"1;2;[b1,b1]": ')
    elif kind == "null":
        path.symlink_to("/dev/null")
    elif kind == "directory":
        path.mkdir()
    elif kind == "no-dir":
        path = path.parent / "missing" / "w.json"
    elif kind != "absent":
        path.write_text(json.dumps(table))
    return str(path)


def _fake_sample_weight(g, samples, seed, boundary_points=(0.0, 1.0)):
    # a mean and spread drawn from the request: some bands snap, some not
    rng = random.Random(f"{canonical_id(g)}/{samples}/{seed}")
    mean = rng.choice([-1 / 12, 1 / 4, -1 / 24, rng.uniform(-0.3, 0.3)])
    stderr = rng.choice([1e-6, 1e-3, 0.05])
    return WeightEstimate(canonical_id(g), mean, stderr, samples, seed)


def _fixed_cases(pis: list[str], odd: list[str]) -> list[tuple]:
    """(expected exit, argv) of inputs that once ended badly or sit at an
    edge; None expects any exit the contract allows."""
    so3, misspelt, listed = pis[0], odd[0], odd[1]
    star = ["star", "--pi", so3, "--f", "x1", "--g", "x2", "--cache", ("cache", None)]
    return [
        # a misspelt key must not read as pi = 0, nor as an unsnapped weight
        (2, ["star", "--pi", misspelt, "--f", "x1", "--g", "x2"]),
        (2, ["check", "jacobi", "--pi", misspelt]),
        (2, [*star[:-1], ("cache", "misspelt")]),
        (2, ["check", "jacobi", "--pi", listed]),
        # a bound past the float range must not overflow the snap
        (0, ["weight", "--graph", "2;2;[2,b1],[b1,b2]", "--weights", "mc",
             "--samples", "10000", "--max-denominator", str(10**400)]),
        (0, ["weight", "--graph", "2;2;[2,b1],[b1,b2]",
             "--max-denominator", str(10**400)]),
        *((None, ["star", "--pi", so3, "--f", f, "--g", "x2"]) for f in ODD_FACTORS),
        (None, [*star[:-1], ("cache", "null"), "--weights", "mc"]),
        (2, [*star[:-1], ("cache", "null")]),
        (2, [*star[:-1], ("cache", "directory")]),
        (2, [*star, "--order", "5"]),
        (2, [*star, "--seed", "-1"]),
        (2, [*star, "--samples", "5"]),
        (2, ["moyal", "--pi", odd[2], "--f", "x1", "--g", "x2"]),
        (0, ["check", "wick", "--order", "100000"]),
        (0, ["check", "hochschild", "--seed", "-1"]),
        ("argparse", ["check", "hochschild", "--order", "2"]),
        (0, ["graphs", "--n", "3", "--nbar", "2"]),
        ("argparse", []),
        ("argparse", ["deform"]),
    ]


def _random_case(rng, pis: list[str], odd: list[str]) -> list[str]:
    command = rng.choice(list(COMMANDS))
    argv = list(command)
    options = [o for o in COMMANDS[command] if rng.random() < 0.95]
    if rng.random() < 0.1:
        options.append(rng.choice(["--pi", "--samples", "--graph", "--n"]))
    for option in options:
        if option == "--pi":
            value = _pick(rng, pis, odd)
        elif option in ("--f", "--g"):
            value = _pick(rng, [_poly_text(rng, rng.randint(1, 3))], ODD_FACTORS)
        elif option == "--cache":
            value = ("cache", None)  # drawn fresh for each run
        else:
            value = _pick(rng, *VALUES[option])
        argv += [option, value]
    return argv


def test_every_request_ends_with_the_exit_code_contract(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(weights, "_sample_weight", _fake_sample_weight)
    monkeypatch.delenv(ENV_CACHE, raising=False)
    monkeypatch.chdir(tmp_path)  # the default cache lands here
    rng = random.Random(SEED)
    pis, odd = _poisson_files(rng, tmp_path)
    cases = _fixed_cases(pis, odd)
    cases += [(None, _random_case(rng, pis, odd)) for _ in range(CASES)]
    seen = set()
    for want, argv in cases:
        argv = [_cache_path(rng, tmp_path, v[1]) if type(v) is tuple else v for v in argv]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refused the command line
            assert exc.code == 2, argv
            code = "argparse"
        out, err = capsys.readouterr()
        seen.add(code)
        assert want in (None, code), (argv, code, err)
        if code in (2, "argparse"):
            assert out == "", argv
            continue
        assert code in (0, 1), argv
        report = json.loads(out) if out else None
        if code == 1:
            assert "check failed" in err or report["pass"] is False, argv
        else:
            assert report is not None, argv
    # each outcome occurs, so the cases reach past the parser
    assert seen == {0, 1, 2, "argparse"}
