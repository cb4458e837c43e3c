"""The class facts that let a star series read one weight per weight orbit.

class_rows gives a class c the weight |c| * sign * w(owner) and reads only
the entry of the owner, (owner, sign) = orbit(rep, mirror=True), the least
member of the representative's weight orbit (relabelling, star reordering
and the mirror b1 <-> b2).  That is the series summed over every member only
if each class lists its representative first, with sign 1, every member's
orbit leads to it, and a rule fixes every member of a weight orbit or none,
each with its orbit sign, so that the owner's entry decides the whole orbit.
"""

import json
from pathlib import Path

import pytest

from deformq.cli import main
from deformq.graphs import canonical_id, enumerate_graphs, orbit, parse_id
from deformq.polyalg import PolyVector, parse_polynomial
from deformq.starprod import _class_operators, class_rows, point_weights, star_classes
from deformq.table import WeightTable
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
    # with 2;2;[2,b2],[1,b2]
    pi = STRUCTURES["so3"]
    classes = star_classes(pi, 2)
    reps = [gs[0][0] for row in classes for _, gs in row]
    read = []
    weight = point_weights(WeightTable.load(COMMITTED))

    def counting(gid):
        read.append(gid)
        return weight(gid)

    class_rows(pi.dim, classes, counting)
    assert len(reps) == 7
    assert read == [canonical_id(orbit(rep, mirror=True)[0]) for rep in reps]
    assert len(set(read)) == 5
    assert all(orbit(parse_id(gid), mirror=True) == (parse_id(gid), 1) for gid in read)


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
