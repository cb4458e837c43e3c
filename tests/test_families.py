"""Family certificates: a Poisson file whose coefficients are polynomials in
extra coordinates stands for a whole family of structures.  Those coordinates
are Casimirs of the family's bivector (no component points along them, so
no edge differentiates along them), so one exact `check assoc` run through
`cli.main` on the committed weight cache certifies every member at once.

A mutated copy of the cache shows what each certificate can see: shifting
the -1/12 class or the 1/4 class breaks associativity, and shifting the
wheel does not, because at order 2 the wheel is a gauge direction.  Each
mutation adds sign * delta to every member of the class, the sign being the
member's orbit sign (graphs.orbit with the mirror), so the table stays
consistent under relabelling and the mirror.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from deformq.cli import main
from deformq.graphs import orbit, parse_id

COMMITTED = Path(__file__).parent / ".weight_cache.json"

# every 2-D bivector of degree <= 2: six parameters x3..x8
PLANE = {
    "dim": 8,
    "components": {"1,2": "x3 + x4 x1 + x5 x2 + x6 x1^2 + x7 x1 x2 + x8 x2^2"},
}
# pi^{ij} = eps^{ijk} d_k F in 3-D, F = x4 x1 + x5 x2 + x6 x3 + x7 x1^2
# + x8 x1 x2 + x9 x1 x3 + x10 x2^2 + x11 x2 x3 + x12 x3^2: nine parameters
NAMBU = {
    "dim": 12,
    "components": {
        "1,2": "x6 + x9 x1 + x11 x2 + 2 x12 x3",
        "1,3": "- x5 - x8 x1 - 2 x10 x2 - x11 x3",
        "2,3": "x4 + 2 x7 x1 + x8 x2 + x9 x3",
    },
}
MINUS_TWELFTH = "2;2;[2,b1],[b1,b2]"
QUARTER = "2;2;[b1,b2],[b1,b2]"
WHEEL = "2;2;[2,b1],[1,b2]"


def _shifted_cache(tmp_path, rep_id, delta) -> Path:
    """A copy of the committed cache with sign * delta added to the snapped
    weight of every member of the mirror class of rep_id."""
    rep = orbit(parse_id(rep_id), mirror=True)[0]
    entries = json.loads(COMMITTED.read_text())
    shifted = 0
    for gid, entry in entries.items():
        image, sign = orbit(parse_id(gid), mirror=True)
        if image == rep:
            entry["snapped"] = str(Fraction(entry["snapped"]) + sign * delta)
            shifted += 1
    assert shifted
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps(entries))
    return path


def _check_assoc(capsys, tmp_path, family, cache) -> tuple[int, dict]:
    pi = tmp_path / "family.json"
    pi.write_text(json.dumps(family))
    code = main(["check", "assoc", "--pi", str(pi), "--order", "2", "--cache", str(cache)])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("family", [PLANE, NAMBU], ids=["plane", "nambu"])
def test_order_two_associativity_holds_on_the_whole_family(capsys, tmp_path, family):
    before = COMMITTED.read_bytes()
    code, report = _check_assoc(capsys, tmp_path, family, COMMITTED)
    assert (code, report["pass"], report["failures"]) == (0, True, 0)
    assert COMMITTED.read_bytes() == before


@pytest.mark.parametrize(
    "family, rep_id, delta, passes",
    [
        (PLANE, MINUS_TWELFTH, Fraction(1, 6), False),
        (PLANE, QUARTER, Fraction(1, 7), False),
        (PLANE, WHEEL, Fraction(1, 7), True),
        (NAMBU, MINUS_TWELFTH, Fraction(1, 6), False),
        (NAMBU, WHEEL, Fraction(1, 7), True),
    ],
    ids=["plane-twelfth", "plane-quarter", "plane-wheel", "nambu-twelfth", "nambu-wheel"],
)
def test_family_certificate_sees_every_class_but_the_wheel(
    capsys, tmp_path, family, rep_id, delta, passes
):
    cache = _shifted_cache(tmp_path, rep_id, delta)
    code, report = _check_assoc(capsys, tmp_path, family, cache)
    assert (code, report["pass"]) == ((0, True) if passes else (1, False))
