"""The three workloads.

Each workload prepares its inputs in `setup`, which the runner times and
may repeat, then does one unit of verified work per `unit` call:

  cold-weights     one weight-table build from an empty cache (in process)
  warm-cli         one closed-loop session of CLI subprocesses, one client
  order3-assembly  one `graph_operators(pi, 3)` call (in process)

`trace_unit` is the fixed piece of work the traced run does twice, once
plain and once under the tracer, to give per-layer numbers and the tracing
overhead.

order3-assembly is run by hand (`--workload order3-assembly`) and is not
listed in BENCHMARK.json: its run-to-run spread on a 2-core shared host
(perfbench/BASELINE.md) exceeds the largest regression bound allowed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import oracles

TRACE_REQUESTS = 40  # warm-cli requests replayed in process by the traced run


@dataclass
class Unit:
    seconds: float  # start of the unit to its verified result
    latencies: list[float]  # per request, seconds
    attempted: int
    failures: list[str] = field(default_factory=list)


@dataclass
class Context:
    root: Path  # the checkout
    seed: int
    scratch: Path  # per-run directory under the benchmark's output dir

    @property
    def env(self) -> dict:
        return dict(os.environ, PYTHONPATH=str(self.root / "src"))

    def deformq(self, *argv: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "deformq.cli", *argv],
            env=self.env, capture_output=True, text=True, timeout=120,
        )

    def fresh_dir(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.scratch))

    def committed_table(self) -> dict:
        return json.loads((self.root / "tests" / ".weight_cache.json").read_text())

    def reference(self) -> dict:
        return json.loads((Path(__file__).parent / "reference.json").read_text())


class ColdWeights:
    """Monte-Carlo weights with snap escalation; no operator assembly."""

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def setup(self):
        from deformq.graphs import parse_id

        self.committed = self.ctx.committed_table()
        self.ids = inputs.cold_graph_ids(self.ctx.seed, self.committed)
        self.graphs = [parse_id(gid) for gid in self.ids]
        self.cache = self.ctx.fresh_dir() / "weights.json"

    def unit(self, index: int) -> Unit:
        from deformq.weights import WeightTable, build_weight_table

        self.cache.write_text("{}\n")
        start = time.perf_counter()
        table = WeightTable.load(self.cache)
        table = build_weight_table(
            self.graphs, seed=inputs.TABLE_SEED,
            initial_samples=inputs.INITIAL_SAMPLES, table=table,
        )
        table.save(self.cache)
        bad = oracles.check_weights(json.loads(self.cache.read_text()), self.committed, self.ids)
        elapsed = time.perf_counter() - start
        return Unit(elapsed, [elapsed], len(self.ids), bad)

    def trace_unit(self) -> Unit:
        return self.unit(0)


class WarmCli:
    """`deformq star` / `deformq check assoc` at order 2 against a warm
    weight cache, each request a fresh process; no Monte Carlo."""

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def setup(self):
        tmp = self.ctx.fresh_dir()
        cache = tmp / "weights.json"
        shutil.copyfile(self.ctx.root / "tests" / ".weight_cache.json", cache)
        self.digests = self.ctx.reference()["warm-cli"]
        self.requests = []
        items = {}
        for family, variant, command in inputs.warm_requests(self.ctx.seed):
            key = (family, variant)
            if key not in items:
                items[key] = inputs.warm_item(family, variant)
                path = tmp / f"{family}-{variant}.json"
                path.write_text(json.dumps(inputs.poisson_json(items[key])))
            argv = inputs.warm_argv(items[key], command, str(tmp / f"{family}-{variant}.json"), str(cache))
            self.requests.append((f"{family}/{variant}/{command}", items[key], command, argv))

    def _verify(self, key, item, command, returncode, stdout) -> list[str]:
        """One entry for a failed request, none for a correct one."""
        if command == "star":
            bad = [f"exit {returncode}"] if returncode else []
            bad.append(oracles.check_star(stdout, item["pi"], item["f"], item["g"], item["dim"], 2))
        else:
            bad = [oracles.check_assoc(returncode, stdout)]
        bad.append(oracles.check_digest(stdout, self.digests.get(key)))
        bad = [b for b in bad if b]
        return [f"{key}: {'; '.join(bad)}"] if bad else []

    def unit(self, index: int) -> Unit:
        start = time.perf_counter()
        latencies, failures = [], []
        for key, item, command, argv in self.requests:
            t0 = time.perf_counter()
            proc = self.ctx.deformq(*argv)
            latencies.append(time.perf_counter() - t0)
            failures += self._verify(key, item, command, proc.returncode, proc.stdout)
        return Unit(time.perf_counter() - start, latencies, len(self.requests), failures)

    def trace_unit(self) -> Unit:
        """The first requests replayed in process through `deformq.cli.main`."""
        from deformq import cli

        start = time.perf_counter()
        failures = []
        requests = self.requests[:TRACE_REQUESTS]
        for key, item, command, argv in requests:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            failures += self._verify(key, item, command, code, out.getvalue())
        elapsed = time.perf_counter() - start
        return Unit(elapsed, [elapsed], len(requests), failures)


class Order3Assembly:
    """Every order-3 graph operator for a 2-D quadratic pi; no weights."""

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def setup(self):
        from deformq.polyalg import Polynomial, PolyVector

        self.digests = self.ctx.reference()["order3-assembly"]
        self.variants = inputs.order3_variants(self.ctx.seed)
        self.items = [inputs.order3_item(v) for v in self.variants]
        self.structures = [
            PolyVector(2, 2, {ij: Polynomial(2, p) for ij, p in item["pi"].items()})
            for item in self.items
        ]

    def unit(self, index: int) -> Unit:
        from deformq.starprod import graph_operators

        k = index % len(self.items)
        item, variant = self.items[k], self.variants[k]
        start = time.perf_counter()
        ops = {
            g.stars: {key: dict(coeff.terms) for key, coeff in op.terms.items()}
            for g, op in graph_operators(self.structures[k], 3)
        }
        bad = oracles.check_operator_sample(
            ops, item["sample"], item["pi"], item["f"], item["g"], item["point"], 2
        )
        bad.append(oracles.check_digest(oracles.operators_text(ops), self.digests.get(str(variant))))
        bad = [b for b in bad if b]
        elapsed = time.perf_counter() - start
        return Unit(elapsed, [elapsed], 1, [f"structure {variant}: {'; '.join(bad)}"] if bad else [])

    def trace_unit(self) -> Unit:
        return self.unit(0)


WORKLOADS = {"cold-weights": ColdWeights, "warm-cli": WarmCli, "order3-assembly": Order3Assembly}
