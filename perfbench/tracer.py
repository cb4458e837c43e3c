"""Per-layer timing from outside the program.

`Tracer` replaces public functions and methods of deformq modules with
timing wrappers for the length of a `with` block, and puts the originals
back on exit.  A function imported by name into another deformq module is
replaced there too, so calls through either name are timed.

For each wrapped name it keeps the call count, inclusive time and self time
(inclusive time minus the time of nested wrapped calls).  Names marked
`record` also keep one span per call: name, start, duration, parent span and
a few attributes of the arguments and result.  The hottest kernels are
counted only, to bound memory and overhead.
"""

from __future__ import annotations

import importlib
import sys
import time

# (module, attribute or Class.method, metric name, keep spans)
LAYERS = [
    ("graphs", "enumerate_graphs", "graphs.enumerate_graphs", True),
    ("graphs", "canonical_id", "graphs.canonical_id", False),
    ("weights", "build_weight_table", "weights.build_weight_table", True),
    ("weights", "estimate_and_snap", "weights.estimate_and_snap", True),
    ("weights", "weight_mc", "weights.weight_mc", True),
    ("weights", "snap", "weights.snap", True),
    ("weights", "WeightTable.save", "weights.table_save", True),
    ("weights", "WeightTable.load", "weights.table_load", True),
    ("operators", "build_b_gamma", "operators.build_b_gamma", True),
    ("operators", "apply_op", "operators.apply_op", False),
    ("starprod", "graph_operators", "starprod.graph_operators", True),
    ("starprod", "kontsevich_star_series", "starprod.kontsevich_star_series", True),
    ("starprod", "star_apply", "starprod.star_apply", False),
    ("starprod", "associator", "starprod.associator", True),
    ("polyalg", "Polynomial.__post_init__", "polyalg.Polynomial.init", False),
    ("polyalg", "Polynomial.partial", "polyalg.partial", False),
    ("polyalg", "Polynomial.__mul__", "polyalg.mul", False),
    ("polyalg", "PolyVector.component", "polyalg.PolyVector.component", False),
    ("cli", "main", "cli.main", True),
]


def _describe(name, args, result) -> dict:
    """Span attributes the per-layer metrics need."""
    if name == "weights.weight_mc":
        return {"n": args[0].n, "samples": result.samples, "graph": result.graph,
                "mc": result.stderr > 0, "mean": result.mean, "stderr": result.stderr}
    if name == "weights.snap":
        return {"graph": args[0].graph, "snapped": None if result is None else str(result)}
    if name == "weights.estimate_and_snap":
        return {"graph": result[0].graph, "snapped": None if result[1] is None else str(result[1])}
    if name == "operators.build_b_gamma":
        return {"terms": len(result.terms)}
    if name == "cli.main":
        return {"argv": " ".join(args[0][:2]) if args else "", "exit": result}
    return {}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.spans: list[dict] = []
        self._child_time: list[float] = []
        self._open_spans: list[int] = []
        self._restore: list[tuple] = []
        self._t0 = time.perf_counter()

    def _wrap(self, name: str, fn, record: bool):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        child_time, open_spans, spans = self._child_time, self._open_spans, self.spans
        t0 = self._t0

        def traced(*args, **kwargs):
            if record:
                span_id = len(spans)
                parent = open_spans[-1] if open_spans else None
                spans.append(None)  # reserve the id; filled in below
                open_spans.append(span_id)
            child_time.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = child_time.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - nested
                if child_time:
                    child_time[-1] += elapsed
                if record:
                    open_spans.pop()
            if record:
                spans[span_id] = {"id": span_id, "parent": parent, "name": name,
                                  "start": start - t0, "s": elapsed, **_describe(name, args, result)}
            return result

        return traced

    def __enter__(self):
        for mod_name, _, _, _ in LAYERS:
            importlib.import_module(f"deformq.{mod_name}")
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "deformq"]
        for mod_name, attr, name, record in LAYERS:
            mod = sys.modules[f"deformq.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(name, raw.__func__, record))
                else:
                    wrapped = self._wrap(name, raw, record)
                setattr(cls, meth, wrapped)
                self._restore.append((cls, meth, raw))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(name, orig, record)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
                        self._restore.append((m, key, orig))
        return self

    def __exit__(self, *exc):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()
        return False

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def spans_named(self, name: str) -> list[dict]:
        # a call that raised leaves its reserved slot empty
        return [s for s in self.spans if s and s["name"] == name]


def per_layer(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics read from the trace, as (value, unit), by the
    names BENCHMARK.json lists."""
    out: dict[str, tuple[float, str]] = {}
    for name in ("weights.weight_mc", "weights.snap", "operators.build_b_gamma",
                 "operators.apply_op", "starprod.associator", "polyalg.Polynomial.init",
                 "polyalg.partial", "polyalg.PolyVector.component", "polyalg.mul",
                 "graphs.canonical_id"):
        out[f"{name}.calls"] = (tracer.calls(name), "count")
    for name in ("weights.weight_mc", "weights.table_save", "weights.table_load",
                 "operators.build_b_gamma", "operators.apply_op", "starprod.graph_operators",
                 "starprod.kontsevich_star_series", "starprod.star_apply", "starprod.associator",
                 "polyalg.partial", "polyalg.mul", "graphs.enumerate_graphs", "cli.main"):
        out[f"{name}.s"] = (tracer.self_s(name), "s")

    mc = [s for s in tracer.spans_named("weights.weight_mc") if s["mc"]]
    out["weights.mc_samples"] = (sum(s["samples"] for s in mc), "count")
    for n in (1, 2):
        spans = [s for s in mc if s["n"] == n]
        seconds = sum(s["s"] for s in spans)
        rate = sum(s["samples"] for s in spans) / seconds if seconds else 0.0
        out[f"weights.mc_samples_per_s.n{n}"] = (rate, "1/s")
    rounds: dict[str, int] = {}
    for s in mc:
        rounds[s["graph"]] = rounds.get(s["graph"], 0) + 1
    out["weights.escalations"] = (sum(r - 1 for r in rounds.values()), "count")
    out["weights.exact_by_rule"] = (tracer.calls("weights.weight_mc") - len(mc), "count")
    snapped = sum(1 for s in tracer.spans_named("weights.snap") if s["snapped"] is not None)
    out["weights.snapped_per_estimate"] = (snapped / len(mc) if mc else 0.0, "ratio")

    built = tracer.spans_named("operators.build_b_gamma")
    durations = sorted(s["s"] for s in built)
    out["operators.build_b_gamma.p50_us"] = (durations[len(durations) // 2] * 1e6 if durations else 0.0, "us")
    nonzero = sum(1 for s in built if s["terms"])
    out["operators.nonzero_ratio"] = (nonzero / len(built) if built else 0.0, "ratio")
    out["operators.op_terms"] = (sum(s["terms"] for s in built), "count")
    return out
