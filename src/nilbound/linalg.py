"""Exact rational matrices and canonical (reduced row-echelon) subspaces.

All scalars are `fractions.Fraction`; nothing in here ever touches floating
point, so rank, kernel and inclusion tests are exact and deterministic.
Subspaces are kept in RREF so equality and containment are syntactic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Q = Fraction

Vector = tuple[Fraction, ...]


def rat(x) -> Fraction:
    """Coerce ints, Fractions and "num/den" strings to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    if isinstance(x, float):
        raise TypeError("refusing to coerce a float to an exact rational")
    return Fraction(x)


def rat_str(q: Fraction) -> str:
    """Serialize as "num/den", with the denominator omitted when it is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def vec(xs: Iterable) -> Vector:
    return tuple(rat(x) for x in xs)


def zero_vec(n: int) -> Vector:
    return (Q(0),) * n


def std_basis_vec(n: int, i: int) -> Vector:
    return tuple(Q(1) if j == i else Q(0) for j in range(n))


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(c: Fraction, u: Vector) -> Vector:
    return tuple(c * a for a in u)


def is_zero_vec(u: Vector) -> bool:
    return all(a == 0 for a in u)


class DimensionMismatch(ValueError):
    pass


@dataclass(frozen=True)
class Matrix:
    """Dense exact-rational matrix, stored as a tuple of row tuples."""

    entries: tuple[Vector, ...]

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Matrix":
        data = tuple(vec(r) for r in rows)
        if data and any(len(r) != len(data[0]) for r in data):
            raise DimensionMismatch("ragged rows")
        return Matrix(data)

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(tuple(zero_vec(cols) for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(tuple(std_basis_vec(n, i) for i in range(n)))

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        return self.entries[ij[0]][ij[1]]

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix(tuple(self.col(j) for j in range(self.cols)))

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix shapes differ")
        return Matrix(tuple(vec_add(a, b) for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(Q(-1))

    def scale(self, c: Fraction) -> "Matrix":
        return Matrix(tuple(vec_scale(c, r) for r in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch("inner dimensions differ")
        ot = other.transpose()
        return Matrix(
            tuple(
                tuple(sum(a * b for a, b in zip(r, c)) for c in ot.entries)
                for r in self.entries
            )
        )

    def apply(self, v: Vector) -> Vector:
        """Matrix-vector product."""
        if len(v) != self.cols:
            raise DimensionMismatch("vector length differs from column count")
        return tuple(sum(a * b for a, b in zip(r, v)) for r in self.entries)

    def commutator(self, other: "Matrix") -> "Matrix":
        return self @ other - other @ self

    def is_zero(self) -> bool:
        return all(is_zero_vec(r) for r in self.entries)

    def is_nilpotent(self) -> bool:
        """Check M^n = 0 for an n x n matrix."""
        if self.rows != self.cols:
            return False
        power = self
        for _ in range(self.rows - 1):
            if power.is_zero():
                return True
            power = power @ self
        return power.is_zero()

    def flatten(self) -> Vector:
        """Row-major flattening, the coordinates of this matrix inside End(V)."""
        return tuple(x for r in self.entries for x in r)

    @staticmethod
    def unflatten(v: Vector, rows: int, cols: int) -> "Matrix":
        if len(v) != rows * cols:
            raise DimensionMismatch("flat length differs from rows*cols")
        return Matrix(tuple(tuple(v[i * cols + j] for j in range(cols)) for i in range(rows)))


def _rref_rows(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place Gauss-Jordan; returns (reduced rows, 0-based pivot columns)."""
    if not rows:
        return rows, []
    n_cols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rref(m: Matrix) -> tuple[Matrix, int, list[int]]:
    """Reduced row-echelon form.

    Returns (R, rank, pivot_columns); pivot columns are 1-based.
    """
    rows = [list(r) for r in m.entries]
    rows, pivots = _rref_rows(rows)
    return Matrix.from_rows(rows), len(pivots), [c + 1 for c in pivots]


def rref_with_transform(m: Matrix) -> tuple[Matrix, Matrix, int, list[int]]:
    """RREF together with an invertible T such that T @ m = R. Pivots 0-based."""
    n = m.rows
    aug = [list(r) + [Q(1) if i == j else Q(0) for j in range(n)] for i, r in enumerate(m.entries)]
    if not aug:
        return m, Matrix(()), 0, []
    # eliminate using only the first m.cols columns
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        piv = next((i for i in range(r, n) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    red = Matrix.from_rows([row[: m.cols] for row in aug])
    trans = Matrix.from_rows([row[m.cols :] for row in aug])
    return red, trans, len(pivots), pivots


def solve(m: Matrix, rhs: Vector) -> Vector | None:
    """One exact solution x of m @ x = rhs, or None if inconsistent."""
    if len(rhs) != m.rows:
        raise DimensionMismatch("rhs length differs from row count")
    rows = [list(r) + [b] for r, b in zip(m.entries, rhs)]
    rows, pivots = _rref_rows(rows)
    x = [Q(0)] * m.cols
    for i, c in enumerate(pivots):
        if c == m.cols:
            return None
        x[c] = rows[i][m.cols]
    for i in range(len(pivots), len(rows)):
        if rows[i][m.cols] != 0:
            return None
    return tuple(x)


def invert(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise DimensionMismatch("only square matrices are invertible")
    red, trans, rank, _ = rref_with_transform(m)
    if rank != m.rows:
        raise ValueError("matrix is singular")
    return trans


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of k^n in canonical form: basis rows in RREF.

    Canonicality makes equality a dataclass comparison and containment a
    row-reduction residue test.
    """

    ambient_dim: int
    basis: tuple[Vector, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, tuple(std_basis_vec(ambient_dim, i) for i in range(ambient_dim)))

    @property
    def pivot_columns(self) -> tuple[int, ...]:
        """0-based pivot column of each basis row."""
        return tuple(next(j for j, x in enumerate(r) if x != 0) for r in self.basis)

    def contains_vector(self, v: Vector) -> bool:
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        residual = list(v)
        for row, piv in zip(self.basis, self.pivot_columns):
            if residual[piv] != 0:
                f = residual[piv]
                residual = [x - f * y for x, y in zip(residual, row)]
        return all(x == 0 for x in residual)

    def coordinates(self, v: Vector) -> Vector | None:
        """Coordinates of v in this basis (RREF rows have unit pivots), or None."""
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        coeffs = tuple(v[piv] for piv in self.pivot_columns)
        residual = list(v)
        for c, row in zip(coeffs, self.basis):
            if c != 0:
                residual = [x - c * y for x, y in zip(residual, row)]
        if any(x != 0 for x in residual):
            return None
        return coeffs


def span(vectors: Iterable[Sequence], ambient_dim: int | None = None) -> Subspace:
    """Canonical form of the linear hull."""
    rows = [vec(v) for v in vectors]
    if ambient_dim is None:
        if not rows:
            raise ValueError("ambient_dim required for an empty spanning set")
        ambient_dim = len(rows[0])
    if any(len(r) != ambient_dim for r in rows):
        raise DimensionMismatch("ambient dimensions differ")
    reduced, _ = _rref_rows([list(r) for r in rows])
    basis = tuple(tuple(r) for r in reduced if any(x != 0 for x in r))
    return Subspace(ambient_dim, basis)


def contains(outer: Subspace, inner: Subspace) -> bool:
    """True iff inner is a subset of outer."""
    if outer.ambient_dim != inner.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    return all(outer.contains_vector(v) for v in inner.basis)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    return span(list(a.basis) + list(b.basis), a.ambient_dim)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """A cap B via the Zassenhaus block trick."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    n = a.ambient_dim
    block = [list(v) + list(v) for v in a.basis] + [list(v) + [Q(0)] * n for v in b.basis]
    if not block:
        return Subspace.zero(n)
    reduced, _ = _rref_rows(block)
    inter_rows = [r[n:] for r in reduced if all(x == 0 for x in r[:n]) and any(x != 0 for x in r[n:])]
    return span(inter_rows, n)


def kernel_basis(m: Matrix) -> Subspace:
    """The exact null space {x : m @ x = 0} as a canonical subspace."""
    if m.rows == 0 or m.cols == 0:
        return Subspace.full(m.cols)
    reduced, rank, pivots1 = rref(m)
    pivots = [p - 1 for p in pivots1]
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Q(0)] * m.cols
        v[f] = Q(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced[i, f]
        basis.append(v)
    return span(basis, m.cols) if basis else Subspace.zero(m.cols)


def complement_extending(ambient: Subspace, inner: Subspace, must_contain: Subspace) -> Subspace:
    """Deterministic C with C (+) inner = ambient and must_contain <= C.

    Extends a basis of must_contain pivot-greedily by rows of the ambient
    canonical basis.
    """
    if not (ambient.ambient_dim == inner.ambient_dim == must_contain.ambient_dim):
        raise DimensionMismatch("ambient dimensions differ")
    if not contains(ambient, inner):
        raise ValueError("inner is not contained in ambient")
    if not contains(ambient, must_contain):
        raise ValueError("must_contain is not contained in ambient")
    if intersect(must_contain, inner).dim != 0:
        raise ValueError("must_contain meets inner nontrivially")

    chosen = list(must_contain.basis)
    current = subspace_sum(must_contain, inner)
    target = ambient.dim
    for cand in ambient.basis:
        if current.dim == target:
            break
        if not current.contains_vector(cand):
            chosen.append(cand)
            current = span([*current.basis, cand], ambient.ambient_dim)
    assert current.dim == target, "ambient basis failed to complete the complement"
    return span(chosen, ambient.ambient_dim)
