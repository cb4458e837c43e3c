"""The weight cache: snapped graph weights by graph id, kept as JSON.

This is all of the weight code that a warm `star` or `check assoc` runs;
the Monte-Carlo estimation, the rules and the snapping that fill the table
live in `weights`, which the CLI imports only when a requested graph lacks a
snapped entry.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from pathlib import Path

from deformq.record import Frozen

# table-mode estimates escalate their sample count up to this cap
MAX_SAMPLES = 64_000_000


class WeightEntry(Frozen):
    __slots__ = ("mean", "stderr", "samples", "seed", "snapped")

    def to_json(self) -> dict:
        return {
            "mean": self.mean,
            "stderr": self.stderr,
            "samples": self.samples,
            "seed": self.seed,
            "snapped": str(self.snapped) if self.snapped is not None else None,
        }

    @staticmethod
    def from_json(data: dict) -> "WeightEntry":
        # a misspelt "snapped" would read as not snapped and be re-estimated
        unknown = set(data) - set(WeightEntry.__slots__)
        if unknown:
            raise ValueError(f"unknown keys {sorted(unknown)}")
        snapped = data.get("snapped")
        stderr = _finite(data["stderr"])
        if stderr < 0:
            raise ValueError(f"negative stderr {stderr!r}")
        return WeightEntry(
            _finite(data["mean"]),
            stderr,
            _typed(data["samples"], int),
            _typed(data["seed"], int),
            Fraction(_typed(snapped, str)) if snapped is not None else None,
        )


def _typed(value, kind: type):
    """value itself, if its JSON type is exactly kind (a bool is no int)."""
    if type(value) is not kind:
        raise ValueError(f"expected {kind.__name__}, not {value!r}")
    return value


def _finite(value) -> float:
    """value as a float, if it is a finite JSON number (a bool is none)."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"expected a finite number, not {value!r}")
    return float(value)


class WeightTable:
    """GraphId -> weight entries, persisted as a JSON map (last write wins)."""

    def __init__(self, entries: dict[str, WeightEntry] | None = None):
        self.entries: dict[str, WeightEntry] = dict(entries or {})

    def put(self, est, snapped: Fraction | None):
        """Enter a weights.WeightEstimate under its graph id."""
        self.entries[est.graph] = WeightEntry(
            est.mean, est.stderr, est.samples, est.seed, snapped
        )

    def get(self, gid: str) -> WeightEntry | None:
        return self.entries.get(gid)

    def exact(self, gid: str) -> Fraction | None:
        entry = self.entries.get(gid)
        return entry.snapped if entry else None

    def to_json(self) -> dict:
        return {gid: e.to_json() for gid, e in sorted(self.entries.items())}

    @staticmethod
    def from_json(data: dict) -> "WeightTable":
        return WeightTable(
            {gid: WeightEntry.from_json(e) for gid, e in data.items()}
        )

    def save(self, path: str | Path):
        """Write the table over the entries of the file at path, to path
        atomically: processes that save different graphs of one file keep
        both, unless they save at once, and a concurrent reader sees the old
        file or the new one, never a part of one.  Raises OSError when the
        file there cannot be read or written, and leaves it as it was."""
        path = Path(path)
        try:
            entries = {**WeightTable.load(path).entries, **self.entries}
        except FileNotFoundError:
            entries = self.entries
        except ValueError as exc:
            raise OSError(f"not a weight table: {exc}") from exc
        text = json.dumps(WeightTable(entries).to_json(), indent=1) + "\n"
        # a name no other live process writes, beside path, so that the
        # replace is a rename within one file system
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @staticmethod
    def load(path: str | Path) -> "WeightTable":
        """The table in the file at path: OSError if it cannot be read,
        ValueError if it holds no weight table."""
        data = json.loads(Path(path).read_text())
        try:
            return WeightTable.from_json(data)
        except (ZeroDivisionError, KeyError, TypeError, AttributeError) as exc:
            raise ValueError(exc) from exc
