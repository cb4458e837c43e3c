"""Byte pins for the stdout of every warm-pool `star` and `check assoc`
request.

perfbench/reference.json records the sha256 of each warm-cli pool output.
These tests build every pool structure with perfbench/inputs.py, run `star`
and `check assoc` at `--order 2` in process against a copy of the committed
weight cache and compare the digests.  They only read perfbench/.
"""

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import pytest

from deformq import cli

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402
import oracles  # noqa: E402

REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())
CACHE = ROOT / "tests" / ".weight_cache.json"
FAMILIES = sorted({family for family, _ in inputs.WARM_CYCLE})


@pytest.fixture(scope="module")
def cache_copy(tmp_path_factory):
    path = tmp_path_factory.mktemp("warm-pool") / "cache.json"
    shutil.copyfile(CACHE, path)
    return str(path)


def _check_pool_request(family, variant, command, cache, tmp_path):
    item = inputs.warm_item(family, variant)
    pi_path = tmp_path / "pi.json"
    pi_path.write_text(json.dumps(inputs.poisson_json(item)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(inputs.warm_argv(item, command, str(pi_path), cache))
    assert code == 0
    expected = REFERENCE["warm-cli"][f"{family}/{variant}/{command}"]
    assert oracles.digest(out.getvalue()) == expected


@pytest.mark.parametrize("variant", range(inputs.WARM_POOL))
@pytest.mark.parametrize("family", FAMILIES)
def test_warm_pool_check_assoc_stdout_matches_reference(
    family, variant, cache_copy, tmp_path
):
    _check_pool_request(family, variant, "assoc", cache_copy, tmp_path)


@pytest.mark.parametrize("variant", range(inputs.WARM_POOL))
@pytest.mark.parametrize("family", FAMILIES)
def test_warm_pool_star_stdout_matches_reference(
    family, variant, cache_copy, tmp_path
):
    _check_pool_request(family, variant, "star", cache_copy, tmp_path)
