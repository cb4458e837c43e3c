"""Record reference.json: the output digest of every pool input.

    python3 perfbench/make_reference.py

Run from the root of a deformq checkout.  Each output must first pass its
oracle, so a digest of a wrong output is never recorded.  Re-record only when
the program's output is meant to change, and say so where the change is
described.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import inputs  # noqa: E402
import oracles  # noqa: E402
from deformq import cli  # noqa: E402
from deformq.polyalg import Polynomial, PolyVector  # noqa: E402
from deformq.starprod import graph_operators  # noqa: E402

HERE = Path(__file__).resolve().parent


def warm_digests(tmp: Path) -> dict:
    cache = Path.cwd() / "tests" / ".weight_cache.json"
    out = {}
    for family in sorted({f for f, _ in inputs.WARM_CYCLE}):
        for variant in range(inputs.WARM_POOL):
            item = inputs.warm_item(family, variant)
            pi_path = tmp / f"{family}-{variant}.json"
            pi_path.write_text(json.dumps(inputs.poisson_json(item)))
            for command in ("star", "assoc"):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(inputs.warm_argv(item, command, str(pi_path), str(cache)))
                text = buf.getvalue()
                if command == "star":
                    bad = oracles.check_star(text, item["pi"], item["f"], item["g"], item["dim"], 2)
                else:
                    bad = oracles.check_assoc(code, text)
                if bad or code:
                    raise SystemExit(f"{family}/{variant}/{command}: {bad or f'exit {code}'}")
                out[f"{family}/{variant}/{command}"] = oracles.digest(text)
    return out


def order3_digests() -> dict:
    out = {}
    for variant in range(inputs.ORDER3_POOL):
        item = inputs.order3_item(variant)
        pi = PolyVector(2, 2, {ij: Polynomial(2, p) for ij, p in item["pi"].items()})
        ops = {
            g.stars: {key: dict(c.terms) for key, c in op.terms.items()}
            for g, op in graph_operators(pi, 3)
        }
        bad = oracles.check_operator_sample(
            ops, item["sample"], item["pi"], item["f"], item["g"], item["point"], 2
        )
        if bad:
            raise SystemExit(f"order3 structure {variant}: {bad}")
        out[str(variant)] = oracles.digest(oracles.operators_text(ops))
        print(f"order3 structure {variant}: {len(ops)} operators", flush=True)
    return out


def main():
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        warm = warm_digests(Path(tmp))
    reference = {"commit": commit, "warm-cli": warm, "order3-assembly": order3_digests()}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
