from pathlib import Path

import pytest

from deformq.table import WeightTable

CACHE = Path(__file__).parent / ".weight_cache.json"
# README's derivation of the committed table, which
# test_order_two_table_rederived_from_empty_cache checks
DERIVATION = (
    "build_weight_table([g for n in (1, 2) for g in enumerate_graphs(n, 2)], "
    'seed=2024).save("tests/.weight_cache.json")'
)


@pytest.fixture(scope="session")
def weight_table():
    """The committed snapped weights of every graph up to order 2.  A missing
    file or an unsnapped entry fails the session: the committed test data is
    never derived again over itself, which would hide whatever left an entry
    unsnapped."""
    if not CACHE.exists():
        pytest.fail(f"{CACHE} is missing; derive it with {DERIVATION}")
    table = WeightTable.load(CACHE)
    unsnapped = sorted(gid for gid, e in table.entries.items() if e.snapped is None)
    if unsnapped:
        pytest.fail(
            f"{CACHE} holds unsnapped entries {unsnapped}; derive it with {DERIVATION}"
        )
    return table


@pytest.fixture(scope="session")
def weight_cache_path(weight_table, tmp_path_factory):
    """The session table persisted to a file, for CLI table-mode runs."""
    path = tmp_path_factory.mktemp("weights") / "cache.json"
    weight_table.save(path)
    return str(path)
