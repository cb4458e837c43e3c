"""Exact linear symplectic and linear Dirac algebra over the rationals.

Vectors are tuples of Fraction, matrices are row-major tuples of such tuples.
Subspace equality is decided by comparing reduced row echelon forms, which
are canonical for row spaces.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from deformq.record import Frozen

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


def _vec(values) -> Vector:
    return tuple(Fraction(v) for v in values)


def _mat(rows) -> Matrix:
    return tuple(_vec(r) for r in rows)


def identity(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(a: Matrix, v: Sequence[Fraction]) -> Vector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form (zero rows dropped) and pivot columns."""
    mat = [list(_vec(r)) for r in rows]
    if not mat:
        return (), ()
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(rows)[0])


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[Vector]:
    """Basis of {v : A v = 0} for the matrix with the given rows."""
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -red[ri][fc]
        basis.append(tuple(v))
    return basis


def solve(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """One exact solution of A x = b, or None if inconsistent."""
    aug = [list(_vec(r)) + [Fraction(b)] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    ncols = len(rows[0]) if rows else 0
    x = [Fraction(0)] * ncols
    for ri, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = red[ri][ncols]
    return tuple(x)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


class SkewForm(Frozen):
    __slots__ = ("dim", "matrix")

    def __post_init__(self):
        m = _mat(self.matrix)
        if len(m) != self.dim or any(len(r) != self.dim for r in m):
            raise ValueError("matrix shape does not match dim")
        for i in range(self.dim):
            for j in range(self.dim):
                if m[i][j] != -m[j][i]:
                    raise ValueError("matrix is not skew-symmetric")
        object.__setattr__(self, "matrix", m)

    def pair(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
        return sum(
            ui * self.matrix[i][j] * vj
            for i, ui in enumerate(u)
            for j, vj in enumerate(v)
            if ui and vj
        )

    @staticmethod
    def standard(n: int) -> "SkewForm":
        """Omega_0 on R^{2n} with the basis e_1..e_n, f_1..f_n."""
        return SkewForm(2 * n, canonical_block(0, n))


class Subspace(Frozen):
    __slots__ = ("ambient_dim", "basis")

    def __post_init__(self):
        b = _mat(self.basis)
        if any(len(v) != self.ambient_dim for v in b):
            raise ValueError("basis vector length != ambient_dim")
        if rank(b) != len(b):
            raise ValueError("basis vectors are linearly dependent")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def canonical(self) -> Matrix:
        return rref(self.basis)[0]

    def contains(self, v: Sequence[Fraction]) -> bool:
        return rank(list(self.basis) + [_vec(v)]) == self.dim

    def is_subspace_of(self, other: "Subspace") -> bool:
        return all(other.contains(v) for v in self.basis)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.canonical() == other.canonical()
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.canonical()))

    @staticmethod
    def full(n: int) -> "Subspace":
        return Subspace(n, identity(n))

    @staticmethod
    def zero(n: int) -> "Subspace":
        return Subspace(n, ())


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection of two subspaces of the same ambient space."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim)
    # v = sum x_i a_i = sum y_j b_j: solve stacked homogeneous system
    rows = transpose(a.basis + tuple(tuple(-x for x in v) for v in b.basis))
    sols = nullspace(rows, a.dim + b.dim)
    basis_cols = transpose(a.basis)
    red, _ = rref([mat_vec(basis_cols, s[: a.dim]) for s in sols])
    return Subspace(a.ambient_dim, red)


class LinearDirac(Frozen):
    """Maximal isotropic subspace of V + V* for <(X,a),(Y,b)> = a(Y) + b(X)."""

    __slots__ = ("ambient_dim", "basis")

    def __post_init__(self):
        b = _mat(self.basis)
        n = self.ambient_dim
        if any(len(v) != 2 * n for v in b):
            raise ValueError("basis vectors must live in V + V*")
        if len(b) != n or rank(b) != n:
            raise ValueError(f"a linear Dirac structure on R^{n} must have dim {n}")
        for u in b:
            for v in b:
                if dirac_pairing(u, v, n) != 0:
                    raise ValueError("basis is not isotropic for the + pairing")
        object.__setattr__(self, "basis", b)

    def as_subspace(self) -> Subspace:
        return Subspace(2 * self.ambient_dim, self.basis)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearDirac)
            and self.ambient_dim == other.ambient_dim
            and self.as_subspace() == other.as_subspace()
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.as_subspace().canonical()))


def dirac_pairing(u: Sequence[Fraction], v: Sequence[Fraction], n: int) -> Fraction:
    """<(X,a),(Y,b)>_+ = a(Y) + b(X) on V + V* coordinates."""
    return sum(u[n + i] * v[i] + v[n + i] * u[i] for i in range(n))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def canonical_block(k: int, n: int) -> Matrix:
    """Matrix of Omega in a basis u_1..u_k, e_1..e_n, f_1..f_n."""
    m = k + 2 * n
    mat = [[Fraction(0)] * m for _ in range(m)]
    for i in range(n):
        mat[k + i][k + n + i] = Fraction(1)
        mat[k + n + i][k + i] = Fraction(-1)
    return tuple(tuple(r) for r in mat)


def standard_form(omega: SkewForm) -> tuple[Matrix, int, int]:
    """Constructive skew standard form.

    Returns (basis_change, k, n): the columns of basis_change are a basis
    u_1..u_k, e_1..e_n, f_1..f_n with Omega(e_i, f_j) = delta_ij and all other
    pairings zero, so basis_change^T . Omega . basis_change is the canonical
    block. Follows the recursive proof: split off the kernel, then peel off
    hyperbolic planes span(e_i, f_i).
    """
    m = omega.dim
    kernel = nullspace(omega.matrix, m)
    k = len(kernel)

    pairs: list[tuple[Vector, Vector]] = []
    # complement of the kernel spanned by standard basis vectors
    current = _extend_to_basis(kernel, m)[k:]
    while current:
        e = current[0]
        f = None
        f_src = None
        for idx in range(1, len(current)):
            val = omega.pair(e, current[idx])
            if val != 0:
                f = tuple(x / val for x in current[idx])
                f_src = idx
                break
        if f is None:
            raise AssertionError("degenerate restriction in standard_form")
        pairs.append((e, f))
        remaining = []
        for idx, w in enumerate(current):
            if idx == 0 or idx == f_src:
                continue
            c_coeff = omega.pair(w, e)
            d_coeff = omega.pair(w, f)
            remaining.append(
                tuple(wi + c_coeff * fi - d_coeff * ei for wi, fi, ei in zip(w, f, e))
            )
        # re-reduce: the projection can introduce dependencies
        red, _ = rref(remaining)
        current = [tuple(v) for v in red]

    n = len(pairs)
    if k + 2 * n != m:
        raise AssertionError("rank bookkeeping failed in standard_form")
    columns = list(kernel) + [p[0] for p in pairs] + [p[1] for p in pairs]
    basis_change = tuple(
        tuple(columns[j][i] for j in range(m)) for i in range(m)
    )
    return basis_change, k, n


def symplectic_orthogonal(omega: SkewForm, w: Subspace) -> Subspace:
    """W^Omega = {v : Omega(v, u) = 0 for all u in W}; kernel included if degenerate."""
    if omega.dim != w.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if w.dim == 0:
        return Subspace.full(omega.dim)
    rows = [mat_vec(omega.matrix, u) for u in w.basis]
    red, _ = rref(nullspace(rows, omega.dim))
    return Subspace(omega.dim, red)


class SubspaceClass(Frozen):
    __slots__ = ("isotropic", "coisotropic", "symplectic", "lagrangian")


def classify_subspace(omega: SkewForm, w: Subspace) -> SubspaceClass:
    worth = symplectic_orthogonal(omega, w)
    isotropic = w.is_subspace_of(worth)
    coisotropic = worth.is_subspace_of(w)
    gram = tuple(
        tuple(omega.pair(u, v) for v in w.basis) for u in w.basis
    )
    symplectic = rank(gram) == w.dim
    return SubspaceClass(
        isotropic=isotropic,
        coisotropic=coisotropic,
        symplectic=symplectic,
        lagrangian=isotropic and coisotropic,
    )


def _extend_to_basis(vectors: Sequence[Vector], n: int) -> list[Vector]:
    """Extend independent vectors to a basis of R^n with standard vectors."""
    out = [list(v) for v in vectors]
    for c in range(n):
        cand = [Fraction(0)] * n
        cand[c] = Fraction(1)
        if rank(out + [cand]) > len(out):
            out.append(cand)
    return [_vec(v) for v in out]


def annihilator(w: Subspace) -> list[Vector]:
    """Basis of Ann(W) = {alpha : alpha(W) = 0} as covectors."""
    if w.dim == 0:
        return list(identity(w.ambient_dim))
    return nullspace(w.basis, w.ambient_dim)


def dirac_from_pair(w: Subspace, theta: Matrix) -> LinearDirac:
    """Linear Dirac structure {(X, alpha) : X in W, alpha|_W = iota_X theta}."""
    kdim = w.dim
    m = w.ambient_dim
    theta = SkewForm(kdim, theta).matrix
    full = _extend_to_basis(w.basis, m)
    basis = []
    for i in range(kdim):
        # covector a with a(w_j) = theta_ij and a = 0 on the chosen complement
        targets = [theta[i][j] if j < kdim else Fraction(0) for j in range(m)]
        a = solve(full, targets)
        basis.append(tuple(w.basis[i]) + a)
    for b in annihilator(w):
        basis.append(tuple(Fraction(0) for _ in range(m)) + b)
    return LinearDirac(m, tuple(basis))


def dirac_to_pair(ld: LinearDirac) -> tuple[Subspace, Matrix]:
    """Recover (W, theta) with W = pr_1(L), theta(X, Y) = alpha(Y)."""
    n = ld.ambient_dim
    xparts = [v[:n] for v in ld.basis]
    red, _ = rref(xparts)
    w = Subspace(n, red)
    alpha_cols = transpose([v[n:] for v in ld.basis])
    theta_rows = []
    for wi in w.basis:
        # coefficients c with sum c_j X_j = w_i give alpha = sum c_j a_j
        alpha = mat_vec(alpha_cols, _to_coords(xparts, wi))
        theta_rows.append(mat_vec(w.basis, alpha))
    return w, tuple(theta_rows)


def _to_coords(basis: Sequence[Vector], v: Vector) -> Vector:
    rows = [tuple(b[c] for b in basis) for c in range(len(v))]
    x = solve(rows, v)
    if x is None:
        raise ValueError("vector not in span")
    return x


def restrict_dirac(ld: LinearDirac, u: Subspace) -> LinearDirac:
    """Restriction to U via (W_U, theta_U) = (W n U, pullback of theta).

    The result lives on U with coordinates given by u.basis.  This is the
    restriction the library computes; `restrict_dirac_quotient` is the
    independent quotient presentation the tests compare it against.
    """
    n = ld.ambient_dim
    if u.ambient_dim != n:
        raise ValueError("ambient dimension mismatch")
    w, theta = dirac_to_pair(ld)
    form = SkewForm(w.dim, theta)
    wu = intersect(w, u)
    # theta evaluated on W coordinates, pulled back to W_U
    wcoords = [_to_coords(w.basis, v) for v in wu.basis]
    theta_u = tuple(tuple(form.pair(ca, cb) for cb in wcoords) for ca in wcoords)
    # express W_U inside U's own coordinates
    wu_in_u = Subspace(u.dim, tuple(_to_coords(u.basis, v) for v in wu.basis))
    return dirac_from_pair(wu_in_u, theta_u)


def restrict_dirac_quotient(ld: LinearDirac, u: Subspace) -> LinearDirac:
    """Restriction via L n (U + V*) / L n Ann(U), mapped into U + U*.

    Shares no step with `restrict_dirac` beyond the linear-algebra helpers; it is
    the independent presentation the tests check `restrict_dirac` against.
    """
    n = ld.ambient_dim
    if u.ambient_dim != n:
        raise ValueError("ambient dimension mismatch")
    # L n (U + V*): members of L whose X-part lies in U
    big = Subspace(
        2 * n,
        tuple(tuple(v) + tuple(Fraction(0) for _ in range(n)) for v in u.basis)
        + tuple(
            tuple(Fraction(0) for _ in range(n)) + tuple(row)
            for row in identity(n)
        ),
    )
    inter = intersect(ld.as_subspace(), big)
    # push each (X, alpha) to (X in U coords, alpha|_U)
    images = []
    for v in inter.basis:
        x, alpha = v[:n], v[n:]
        xu = _to_coords(u.basis, x)
        images.append(xu + mat_vec(u.basis, alpha))
    red, _ = rref(images)
    return LinearDirac(u.dim, red)
