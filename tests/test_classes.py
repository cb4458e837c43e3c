"""The class facts that let a star series read one weight per weight orbit.

star_classes sums the operators of the classes c of one weight orbit as
sign * |c| / n! * B_c, with (owner, sign) = orbit(rep, mirror=True), the
least member of the representative's weight orbit (relabelling, star
reordering and the mirror b1 <-> b2), and class_rows reads only the owner's
entry.  That is the series summed over every member only if each class lists
its representative first, with sign 1, every member's orbit leads to it, and
a rule fixes every member of a weight orbit or none, each with its orbit
sign, so that the owner's entry decides the whole orbit.
"""

import json
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from deformq.cli import main
from deformq.graphs import canonical_id, enumerate_graphs, orbit, parse_id
from deformq.operators import MultiDiffOp
from deformq.polyalg import PolyVector, parse_polynomial
from deformq.starprod import (
    _class_operators,
    associator_bound,
    band_weights,
    class_rows,
    kontsevich_star_series,
    point_weights,
    star_classes,
)
from deformq.table import WeightEntry, WeightTable
from deformq.weights import weight_rule

COMMITTED = Path(__file__).parent / ".weight_cache.json"


def _pi(dim, components):
    return PolyVector(
        dim,
        2,
        {
            tuple(int(i) for i in key.split(",")): parse_polynomial(text, dim)
            for key, text in components.items()
        },
    )


STRUCTURES = {
    "so3": _pi(3, {"1,2": "x3", "1,3": "- x2", "2,3": "x1"}),
    "plane-quadratic": _pi(2, {"1,2": "x1^2 + 2 x1 x2 + 3 x2^2"}),
    # pi^{ij} = eps^{ijk} d_k C for the cubic Casimir C = x1^3 + x1 x2 x3 - x3^3
    "nambu-cubic": _pi(
        3, {"1,2": "x1 x2 - 3 x3^2", "1,3": "- x1 x3", "2,3": "3 x1^2 + x2 x3"}
    ),
    "const4": _pi(4, {"1,2": "1", "3,4": "2"}),
}


@pytest.fixture(
    scope="module",
    params=[(name, n) for name in STRUCTURES for n in (1, 2, 3)],
    ids=lambda p: f"{p[0]}-{p[1]}",
)
def classes(request):
    name, n = request.param
    return _class_operators(STRUCTURES[name], n)


def test_the_first_member_is_the_representative(classes):
    assert classes
    for _, members in classes:
        rep, sign = members[0]
        assert sign == 1 and orbit(rep) == (rep, 1)
        assert all(orbit(g) == (rep, s) for g, s in members)


def test_a_rule_fixes_every_member_or_none(classes):
    for _, members in classes:
        rep = members[0][0]
        fixed = weight_rule(rep)
        for g, sign in members:
            rule = weight_rule(g)
            assert (rule is None) == (fixed is None)
            if rule is not None:
                assert rule[1] == sign * fixed[1]


def test_a_rule_fixes_every_weight_orbit_member_or_none():
    # every labelled graph of orders 1-3 against the owner of its weight
    # orbit, the entry class_rows reads for it
    graphs = [g for n in (1, 2, 3) for g in enumerate_graphs(n, 2)]
    assert len(graphs) == 4181
    for g in graphs:
        owner, sign = orbit(g, mirror=True)
        rule, fixed = weight_rule(g), weight_rule(owner)
        assert (rule is None) == (fixed is None)
        if rule is not None:
            assert rule[1] == sign * fixed[1]


def test_class_rows_reads_only_the_weight_orbit_owners():
    # so(3) at order 2 has 7 classes in 5 weight orbits: the mirror pairs
    # the -1/12 class with the 1/12 one, and the rule-fixed 2;2;[2,b1],[1,b1]
    # with 2;2;[2,b2],[1,b2]; class_rows reads each orbit's owner once
    pi = STRUCTURES["so3"]
    classes = star_classes(pi, 2)
    reps = [gs[0][0] for n in (1, 2) for _, gs in _class_operators(pi, n)]
    read = []
    weight = point_weights(WeightTable.load(COMMITTED))

    def counting(gid):
        read.append(gid)
        return weight(gid)

    class_rows(pi.dim, classes, counting)
    assert len(reps) == 7
    owners = {canonical_id(orbit(rep, mirror=True)[0]) for rep in reps}
    assert len(read) == len(set(read)) == 5
    assert set(read) == owners
    assert read == [canonical_id(g) for row in classes for g, _ in row]
    assert all(orbit(parse_id(gid), mirror=True) == (parse_id(gid), 1) for gid in read)


ORBIT_STRUCTURES = {
    "so3": STRUCTURES["so3"],
    # sl(2) in the basis (h, e, f)
    "sl2": _pi(3, {"1,2": "2 x2", "1,3": "- 2 x3", "2,3": "x1"}),
    # the 4-D Lie-Poisson structure pi^{1i} = x_i, i = 2, 3, 4
    "lie4": _pi(4, {"1,2": "x2", "1,3": "x3", "1,4": "x4"}),
    "plane-quadratic": STRUCTURES["plane-quadratic"],
    # the warm-cli benchmark pool's nambu/1: a cubic Casimir, a quadratic pi
    "nambu-pool": _pi(
        3, {"1,2": "2 x1^2", "1,3": "3 x1^2", "2,3": "4 x1 x3 - 6 x1 x2 - 9 x1^2"}
    ),
}


def _per_class_series(pi, order, weight):
    """The h^n operators sum_c sign * |c| * w(owner) * B_c / n! over the
    classes of _class_operators, (owner, sign) = orbit(rep, mirror=True)."""
    ops = [MultiDiffOp.multiplication(pi.dim)]
    for n in range(1, order + 1):
        op_n = MultiDiffOp.zero(pi.dim, 2)
        for op, members in _class_operators(pi, n):
            owner, sign = orbit(members[0][0], mirror=True)
            scale = Fraction(sign * len(members), factorial(n))
            op_n = op_n + op.scale(scale * weight[owner])
        ops.append(op_n)
    return ops


@pytest.mark.parametrize("name", ORBIT_STRUCTURES)
def test_star_classes_sum_each_weight_orbit_at_its_owner(name):
    # one pair per weight orbit, keyed by a distinct owner that is its own
    # owner; with the k-th owner weighing 1/(k + 2), the series equals the
    # sum over classes
    pi = ORBIT_STRUCTURES[name]
    classes = star_classes(pi, 3)
    assert [len(row) for row in classes] == [
        len({orbit(gs[0][0], mirror=True)[0] for _, gs in _class_operators(pi, n)})
        for n in (1, 2, 3)
    ]
    weight = {}
    for row in classes:
        owners = [g for g, _ in row]
        assert len(set(owners)) == len(owners)
        assert all(orbit(g, mirror=True) == (g, 1) for g in owners)
        for g in owners:
            weight[g] = Fraction(1, len(weight) + 2)
    entries = {g: WeightEntry(float(w), 0.0, 1, 0, w) for g, w in weight.items()}
    table = WeightTable({canonical_id(g): e for g, e in entries.items()})
    series = kontsevich_star_series(pi, classes, table)
    assert list(series.ops) == _per_class_series(pi, 3, weight)


def _per_class_rows(pi, order, weight):
    """Star rows with one row per class: (|c| * sign * w(owner), B_c / n!),
    the sign scaling the interval's centre and |c| its centre and radius."""
    rows = [[((Fraction(1), Fraction(0)), MultiDiffOp.multiplication(pi.dim))]]
    for n in range(1, order + 1):
        row = []
        for op, members in _class_operators(pi, n):
            owner, sign = orbit(members[0][0], mirror=True)
            (center, radius), size = weight(canonical_id(owner)), len(members)
            scaled = op.scale(Fraction(1, factorial(n)))
            row.append(((sign * size * center, size * radius), scaled))
        rows.append(row)
    return rows


@pytest.mark.parametrize("name", ["so3", "plane-quadratic"])
def test_a_weight_orbits_band_is_no_wider_than_its_classes_bands(name):
    # the committed entries as 3-sigma bands: the defect's centres are the
    # per-class ones, since they are bilinear in the weights, and each radius
    # is no larger, since |sum_c s_c |c| D_c| <= sum_c |c| |D_c|
    pi = STRUCTURES[name]
    weight = band_weights(WeightTable.load(COMMITTED))
    bound = associator_bound(class_rows(pi.dim, star_classes(pi, 2), weight))
    reference = associator_bound(_per_class_rows(pi, 2, weight))
    # at order 2 a mirror pair's defects partly cancel
    assert bound[2][1] != reference[2][1]
    for (center, radius), (ref_center, ref_radius) in zip(bound, reference):
        assert center == ref_center
        slack = ref_radius - radius
        assert all(c >= 0 for p in slack.terms.values() for c in p.terms.values())


@pytest.mark.parametrize(
    "command",
    [["star", "--f", "x1", "--g", "x2"], ["check", "assoc"]],
    ids=["star", "check-assoc"],
)
@pytest.mark.parametrize("change", ["delete", "alter"])
def test_a_members_entry_is_never_read_nor_filled(capsys, tmp_path, command, change):
    # 2;2;[2,b2],[1,b1] is a member of the wheel's class 2;2;[2,b1],[1,b2];
    # 2;2;[2,b2],[b1,b2] represents the 1/12 class, the mirror image of the
    # -1/12 class, whose owner 2;2;[2,b1],[b1,b2] holds the orbit's weight
    pi = tmp_path / "so3.json"
    so3 = {"1,2": "x3", "1,3": "- x2", "2,3": "x1"}
    pi.write_text(json.dumps({"dim": 3, "components": so3}))
    argv = command + ["--pi", str(pi), "--order", "2", "--cache"]
    assert main(argv + [str(COMMITTED)]) == 0
    committed = capsys.readouterr().out
    for member in ("2;2;[2,b2],[1,b1]", "2;2;[2,b2],[b1,b2]"):
        assert orbit(parse_id(member), mirror=True)[0] != parse_id(member)
        entries = json.loads(COMMITTED.read_text())
        if change == "delete":
            del entries[member]
        else:
            entries[member]["snapped"] = "1/3"
        cache = tmp_path / "member.json"
        cache.write_text(json.dumps(entries))
        before = cache.read_bytes()
        assert main(argv + [str(cache)]) == 0
        assert capsys.readouterr().out == committed
        assert cache.read_bytes() == before
