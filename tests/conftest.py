from pathlib import Path

import pytest

from deformq.graphs import enumerate_graphs
from deformq.weights import WeightTable, build_weight_table

CACHE = Path(__file__).parent / ".weight_cache.json"
TABLE_SEED = 2024


@pytest.fixture(scope="session")
def weight_table():
    """Snapped weights for every graph up to order 2, derived by seeded
    Monte-Carlo runs and rational snapping; memoized on disk because the
    computation is deterministic."""
    if CACHE.exists():
        table = WeightTable.load(CACHE)
        if all(e.snapped is not None for e in table.entries.values()):
            return table
    graphs = [g for n in (1, 2) for g in enumerate_graphs(n, 2)]
    table = build_weight_table(graphs, seed=TABLE_SEED)
    unsnapped = [gid for gid, e in table.entries.items() if e.snapped is None]
    if unsnapped:
        raise RuntimeError(f"weights failed to snap uniquely: {unsnapped}")
    table.save(CACHE)
    return table


@pytest.fixture(scope="session")
def weight_cache_path(weight_table, tmp_path_factory):
    """The session table persisted to a file, for CLI table-mode runs."""
    path = tmp_path_factory.mktemp("weights") / "cache.json"
    weight_table.save(path)
    return str(path)
