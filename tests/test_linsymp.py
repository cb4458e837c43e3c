import random
from fractions import Fraction

import pytest

from deformq.linsymp import (
    LinearDirac,
    SkewForm,
    Subspace,
    annihilator,
    canonical_block,
    classify_subspace,
    dirac_from_pair,
    dirac_to_pair,
    dirac_pairing,
    identity,
    intersect,
    mat_mul,
    rank,
    restrict_dirac,
    restrict_dirac_quotient,
    rref,
    standard_form,
    symplectic_orthogonal,
    transpose,
)


def frac_matrix(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def random_skew(rng, m, span=5):
    mat = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            v = Fraction(rng.randint(-span, span))
            mat[i][j] = v
            mat[j][i] = -v
    return SkewForm(m, tuple(tuple(r) for r in mat))


def random_subspace(rng, m, dim):
    vecs = []
    while len(vecs) < dim:
        cand = tuple(Fraction(rng.randint(-3, 3)) for _ in range(m))
        if rank(vecs + [cand]) > len(vecs):
            vecs.append(cand)
    return Subspace(m, tuple(vecs))


def gauss_rank(mat):
    """Independent rank oracle: plain fraction-free forward elimination."""
    rows = [list(r) for r in mat]
    if not rows:
        return 0
    n, m = len(rows), len(rows[0])
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, n):
            if rows[i][c] != 0:
                factor = rows[i][c] / rows[r][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


# ---------------------------------------------------------------------------
# standard form
# ---------------------------------------------------------------------------


def test_standard_form_zero_form():
    omega = SkewForm(3, frac_matrix([[0, 0, 0], [0, 0, 0], [0, 0, 0]]))
    basis_change, k, n = standard_form(omega)
    assert (k, n) == (3, 0)
    assert basis_change == identity(3)


def test_standard_form_standard_symplectic():
    omega = SkewForm.standard(2)
    basis_change, k, n = standard_form(omega)
    assert (k, n) == (0, 2)
    assert basis_change == identity(4)


def test_standard_form_random_matches_block_and_rank_oracle():
    rng = random.Random(77)
    for _ in range(25):
        m = rng.choice([2, 3, 4, 5, 6])
        omega = random_skew(rng, m)
        basis_change, k, n = standard_form(omega)
        bt_omega_b = mat_mul(transpose(basis_change), mat_mul(omega.matrix, basis_change))
        assert bt_omega_b == canonical_block(k, n)
        assert k + 2 * n == m
        assert k == m - gauss_rank(omega.matrix)


def test_standard_form_rejects_non_skew():
    with pytest.raises(ValueError):
        SkewForm(2, frac_matrix([[0, 1], [1, 0]]))


# ---------------------------------------------------------------------------
# symplectic orthogonal and classification
# ---------------------------------------------------------------------------


def e_vec(m, i):
    v = [Fraction(0)] * m
    v[i] = Fraction(1)
    return tuple(v)


def test_orthogonal_of_e1_in_r4():
    omega = SkewForm.standard(2)
    w = Subspace(4, (e_vec(4, 0),))  # e_1
    worth = symplectic_orthogonal(omega, w)
    expected = Subspace(4, (e_vec(4, 0), e_vec(4, 1), e_vec(4, 3)))  # e1, e2, f2
    assert worth == expected


def test_orthogonal_of_full_space_is_kernel():
    rng = random.Random(3)
    omega = random_skew(rng, 4)
    worth = symplectic_orthogonal(omega, Subspace.full(4))
    _, k, _ = standard_form(omega)
    assert worth.dim == k


def test_double_orthogonal_identity():
    rng = random.Random(21)
    omega = SkewForm.standard(3)
    for _ in range(20):
        w = random_subspace(rng, 6, rng.randint(1, 5))
        assert symplectic_orthogonal(omega, symplectic_orthogonal(omega, w)) == w


def test_dim_duality():
    rng = random.Random(22)
    omega = SkewForm.standard(2)
    for dim in (1, 2, 3):
        w = random_subspace(rng, 4, dim)
        assert w.dim + symplectic_orthogonal(omega, w).dim == 4


def test_classification_examples():
    omega = SkewForm.standard(2)
    span_e1e2 = Subspace(4, (e_vec(4, 0), e_vec(4, 1)))
    c = classify_subspace(omega, span_e1e2)
    assert c.isotropic and c.lagrangian and not c.symplectic

    span_e1f1 = Subspace(4, (e_vec(4, 0), e_vec(4, 2)))
    c = classify_subspace(omega, span_e1f1)
    assert c.symplectic and not c.isotropic and not c.coisotropic

    rng = random.Random(30)
    for _ in range(10):
        w = random_subspace(rng, 4, 3)
        assert classify_subspace(omega, w).coisotropic


def test_lagrangian_iff_self_orthogonal():
    rng = random.Random(31)
    omega = SkewForm.standard(2)
    for _ in range(30):
        w = random_subspace(rng, 4, rng.randint(1, 3))
        worth = symplectic_orthogonal(omega, w)
        c = classify_subspace(omega, w)
        assert c.isotropic == w.is_subspace_of(worth)
        assert c.coisotropic == worth.is_subspace_of(w)
        assert c.lagrangian == (w == worth)
        assert c.lagrangian == (c.isotropic and c.coisotropic)


# ---------------------------------------------------------------------------
# linear Dirac structures
# ---------------------------------------------------------------------------


def omega0_matrix(n):
    return SkewForm.standard(n).matrix


def test_dirac_graph_of_symplectic_form():
    # W = V, theta = Omega_0: L is the graph of v -> Omega_0(v, .)
    omega = SkewForm.standard(2)
    ld = dirac_from_pair(Subspace.full(4), omega.matrix)
    for v in ld.basis:
        x, alpha = v[:4], v[4:]
        assert alpha == tuple(omega.pair(x, e_vec(4, j)) for j in range(4))


def test_dirac_tangent_and_cotangent():
    ld = dirac_from_pair(Subspace.full(3), canonical_block(3, 0))  # theta = 0
    expected = LinearDirac(
        3, tuple(tuple(row) + (Fraction(0),) * 3 for row in identity(3))
    )
    assert ld == expected

    ld0 = dirac_from_pair(Subspace.zero(3), ())
    expected0 = LinearDirac(
        3, tuple((Fraction(0),) * 3 + tuple(row) for row in identity(3))
    )
    assert ld0 == expected0


def test_dirac_round_trip_pair():
    rng = random.Random(50)
    for _ in range(20):
        m = rng.choice([2, 3, 4])
        wdim = rng.randint(0, m)
        w = random_subspace(rng, m, wdim) if wdim else Subspace.zero(m)
        theta = random_skew(rng, wdim).matrix if wdim else ()
        ld = dirac_from_pair(w, theta)
        w2, theta2 = dirac_to_pair(ld)
        assert w2 == w
        # theta2 is expressed on w2.basis; re-express theta on the same basis
        if wdim:
            coords = []
            for v in w2.basis:
                from deformq.linsymp import solve

                rows = [tuple(b[c] for b in w.basis) for c in range(m)]
                coords.append(solve(rows, v))
            expected = tuple(
                tuple(
                    sum(
                        ca[i] * theta[i][j] * cb[j]
                        for i in range(wdim)
                        for j in range(wdim)
                    )
                    for cb in coords
                )
                for ca in coords
            )
            assert theta2 == expected


def test_dirac_rejects_non_isotropic():
    with pytest.raises(ValueError):
        LinearDirac(
            1, ((Fraction(1), Fraction(1)),)
        )  # <(X,a),(X,a)> = 2 a(X) = 2


def test_restrict_identity():
    omega = SkewForm.standard(2)
    ld = dirac_from_pair(Subspace.full(4), omega.matrix)
    ru = restrict_dirac(ld, Subspace.full(4))
    assert ru == ld


def test_restrict_graph_to_symplectic_plane():
    # L = graph of Omega_0 on R^4, U = span(e_1, f_1): L_U = graph of Omega_0|_U
    omega = SkewForm.standard(2)
    ld = dirac_from_pair(Subspace.full(4), omega.matrix)
    u = Subspace(4, (e_vec(4, 0), e_vec(4, 2)))
    restricted = restrict_dirac(ld, u)
    theta_u = frac_matrix([[0, 1], [-1, 0]])  # Omega_0(e1, f1) = 1
    assert restricted == dirac_from_pair(Subspace.full(2), theta_u)


def test_restrict_tangent_bundle():
    ld = dirac_from_pair(Subspace.full(3), canonical_block(3, 0))
    rng = random.Random(61)
    for _ in range(10):
        udim = rng.randint(1, 3)
        u = random_subspace(rng, 3, udim)
        ru = restrict_dirac(ld, u)
        expected = dirac_from_pair(Subspace.full(udim), canonical_block(udim, 0))
        assert ru == expected


def test_restrict_two_presentations_agree():
    rng = random.Random(62)
    for _ in range(25):
        m = rng.choice([3, 4])
        wdim = rng.randint(0, m)
        w = random_subspace(rng, m, wdim) if wdim else Subspace.zero(m)
        theta = random_skew(rng, wdim).matrix if wdim else ()
        ld = dirac_from_pair(w, theta)
        udim = rng.randint(1, m)
        u = random_subspace(rng, m, udim)
        a = restrict_dirac(ld, u)
        b = restrict_dirac_quotient(ld, u)
        assert a.ambient_dim == b.ambient_dim == udim
        assert a == b
        # output is maximal isotropic of dim = dim U in U + U*
        assert len(a.basis) == udim
        for x in a.basis:
            for y in a.basis:
                assert dirac_pairing(x, y, udim) == 0


def test_annihilator_dims():
    rng = random.Random(70)
    for _ in range(10):
        m = rng.choice([3, 4, 5])
        d = rng.randint(0, m)
        w = random_subspace(rng, m, d) if d else Subspace.zero(m)
        assert len(annihilator(w)) == m - d


def test_intersection():
    a = Subspace(3, (e_vec(3, 0), e_vec(3, 1)))
    b = Subspace(3, (e_vec(3, 1), e_vec(3, 2)))
    assert intersect(a, b) == Subspace(3, (e_vec(3, 1),))
