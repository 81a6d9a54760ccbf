"""Exact rational matrices, integer operator cores and canonical (reduced row-echelon) subspaces.

Work is done on integer rows: `span`, the `Subspace` operations and the
private cores (product, commutator, nilpotency, the elimination of [m | d*I])
take rows of ints, and a rational input is cleared of denominators once, where
it is parsed. A `Subspace` stores each RREF row scaled to a primitive integer
row with a positive pivot entry, so equality is a dataclass comparison and
containment a residue test. `Matrix` keeps `Fraction` entries and is only a
view: no input is read into one. It, its methods, `rref`, `kernel_basis` and
`invert` clear denominators, call a core and build each output `Fraction`
once. Nothing in here touches floating point, so rank, kernel and inclusion
tests are exact.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

Q = Fraction

Vector = tuple[Fraction, ...]

_ZERO = Q(0)

_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")

_INTEGER = re.compile(r"[+-]?[0-9]+")  # ASCII only, where int() also takes "1_0", " 1" and non-ASCII digits


def rat(x) -> Fraction:
    """Coerce ints, Fractions and ASCII "num" or "num/den" strings to an exact rational; a bool is not a number."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        m = _RATIONAL.fullmatch(x)
        if m is None:
            raise ValueError(f"{x!r} is not an integer or a \"num/den\" string")
        if m[2] is None:
            return Fraction(int(m[1]))
        if not int(m[2]):
            raise ValueError(f"zero denominator in {x!r}")
        return Fraction(int(m[1]), int(m[2]))
    if isinstance(x, (float, bool)):
        raise TypeError(f"refusing to coerce a {type(x).__name__} to an exact rational")
    return Fraction(x)


def rat_str(q: Fraction) -> str:
    """Serialize as "num/den", with the denominator omitted when it is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def vec(xs: Iterable) -> Vector:
    return tuple(map(rat, xs))


class DimensionMismatch(ValueError):
    pass


# ---------------------------------------------------------------------------
# integer kernel: rows of ints, or of (column, int) pairs for the nonzero entries

def _clear_denominators(rows: Iterable[Sequence]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Integer rows N and one common denominator d, the lcm of the entries' ones, with rows == N / d."""
    rows = list(rows)
    d = math.lcm(*{x.denominator for r in rows for x in r})
    return tuple(tuple(x.numerator * (d // x.denominator) for x in r) for r in rows), d


def _primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries (a zero row is returned as it is)."""
    g = math.gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def _eliminate(row: list[int], prow: list[int], c: int) -> list[int]:
    """Row with column c cleared against the pivot row prow, made primitive.

    The result is a/g * row - f/g * prow for a = prow[c], f = row[c] and
    g = gcd(a, f), divided by its content, so the entries stay small.
    """
    g = math.gcd(prow[c], row[c])
    ag, fg = prow[c] // g, row[c] // g
    return _primitive([ag * x - fg * y for x, y in zip(row, prow)])


def _fraction_row(row: Sequence[int], d: int) -> Vector:
    return tuple(Fraction(x, d) if x else _ZERO for x in row)


def _rref_rows(rows: Iterable[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan on integer rows; the one elimination routine of the module.

    Returns the nonzero rows of the reduced row-echelon form, each as a
    primitive integer row with a positive pivot entry (the RREF row times
    that entry), and their 0-based pivot columns. Every elimination step is
    one `_eliminate`.
    """
    work = [_primitive(r) for r in rows if any(r)]
    pivots: list[int] = []
    for c in range(len(work[0]) if work else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        prow = work[r]
        for i, row in enumerate(work):
            if row[c] and i != r:
                work[i] = _eliminate(row, prow, c)
        pivots.append(c)
        if len(pivots) == len(work):
            break
    return [r if r[c] > 0 else [-x for x in r] for r, c in zip(work, pivots)], pivots


def _inverse_rows(ints: Sequence[Sequence[int]], d: int) -> list[list[int]]:
    """The RREF rows of [ints | d*I], d > 0: row i is row[i] > 0 times [e_i | row i of (ints / d)^-1]."""
    n = len(ints)
    rows, pivots = _rref_rows([list(r) + [d * (i == j) for j in range(n)] for i, r in enumerate(ints)])
    if any(c >= n for c in pivots):
        raise ValueError("matrix is singular")
    return rows


def _sparse_rows(rows: Iterable[Sequence[int]]) -> list[list[tuple[int, int]]]:
    return [[(j, x) for j, x in enumerate(r) if x] for r in rows]


def _square_rows(flat: Sequence[int], n: int) -> list[list[tuple[int, int]]]:
    """Sparse rows of the n x n integer matrix flattened row-major in flat."""
    return _sparse_rows(flat[i * n:(i + 1) * n] for i in range(n))


def _int_matmul(a: list[list[tuple[int, int]]], b: list[list[tuple[int, int]]], cols: int) -> list[list[int]]:
    """Dense integer product of two sparse integer matrices; b has `cols` columns."""
    out = []
    for arow in a:
        acc = [0] * cols
        for k, x in arow:
            for j, y in b[k]:
                acc[j] += x * y
        out.append(acc)
    return out


def _commutator(a: list[list[tuple[int, int]]], b: list[list[tuple[int, int]]], n: int) -> list[list[int]]:
    """Dense rows of ab - ba for two sparse integer n x n matrices."""
    return [[p - q for p, q in zip(r, s)] for r, s in zip(_int_matmul(a, b, n), _int_matmul(b, a, n))]


def _nilpotent(a: list[list[tuple[int, int]]], n: int) -> bool:
    """True iff the sparse integer n x n matrix a has a^n = 0."""
    power = a
    for _ in range(n - 1):
        power = _sparse_rows(_int_matmul(power, a, n))  # cheap once a power is zero
    return not any(power)


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

    @cached_property
    def _sparse(self) -> tuple[list[list[tuple[int, int]]], int]:
        """Nonzero (column, integer) entries of each row and the common denominator d."""
        ints, d = _clear_denominators(self.entries)
        return _sparse_rows(ints), d

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch("inner dimensions differ")
        (a, da), (b, db) = self._sparse, other._sparse
        return Matrix(tuple(_fraction_row(r, da * db) for r in _int_matmul(a, b, other.cols)))

    def apply(self, v: Vector) -> Vector:
        """Matrix-vector product."""
        if len(v) != self.cols:
            raise DimensionMismatch("vector length differs from column count")
        (iv,), dv = _clear_denominators([v])
        rows, d = self._sparse
        return _fraction_row([sum(x * iv[j] for j, x in r) for r in rows], d * dv)

    def commutator(self, other: "Matrix") -> "Matrix":
        if not self.rows == self.cols == other.rows == other.cols:
            raise DimensionMismatch("commutator needs square matrices of one size")
        (a, da), (b, db) = self._sparse, other._sparse
        return Matrix(tuple(_fraction_row(r, da * db) for r in _commutator(a, b, self.cols)))

    def is_nilpotent(self) -> bool:
        """Check M^n = 0 for an n x n matrix (on the integer numerators: scaling keeps zero powers)."""
        return self.rows == self.cols and _nilpotent(self._sparse[0], self.cols)


def rref(m: Matrix) -> tuple[Matrix, int, list[int]]:
    """Reduced row-echelon form.

    Returns (R, rank, pivot_columns); pivot columns are 1-based.
    """
    rows, pivots = _rref_rows(_clear_denominators(m.entries)[0])
    unit_rows = tuple(_fraction_row(r, r[c]) for r, c in zip(rows, pivots))  # each row over its pivot entry
    zero_rows = ((_ZERO,) * m.cols,) * (m.rows - len(pivots))
    return Matrix(unit_rows + zero_rows), len(pivots), [c + 1 for c in pivots]


def invert(m: Matrix) -> Matrix:
    """The right half of the RREF of [m | I]; its left half is I exactly when m is invertible."""
    n = m.rows
    if n != m.cols:
        raise DimensionMismatch("only square matrices are invertible")
    rows = _inverse_rows(*_clear_denominators(m.entries))  # m = ints / d, so each row over r[i] is m^-1
    return Matrix(tuple(_fraction_row(r[n:], r[i]) for i, r in enumerate(rows)))


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of k^n in canonical form.

    Row i of `rows` is the i-th RREF basis row scaled to a primitive integer
    row whose entry at `pivots[i]`, its first nonzero one, is positive. That
    form is unique, so equality is a dataclass comparison and containment a
    row-reduction residue test.
    """

    ambient_dim: int
    rows: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.rows)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, (), ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        rows = tuple(tuple(int(i == j) for j in range(ambient_dim)) for i in range(ambient_dim))
        return Subspace(ambient_dim, rows, tuple(range(ambient_dim)))

    def contains_vector(self, v: Sequence[int]) -> bool:
        """True iff the integer row v reduces to zero against the basis."""
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        for prow, c in zip(self.rows, self.pivots):
            if v[c]:
                v = _eliminate(v, prow, c)
        return not any(v)


def span(vectors: Iterable[Sequence[int]], ambient_dim: int | None = None) -> Subspace:
    """Canonical form of the linear hull of integer rows."""
    rows = list(vectors)
    if ambient_dim is None:
        if not rows:
            raise ValueError("ambient_dim required for an empty spanning set")
        ambient_dim = len(rows[0])
    if any(len(r) != ambient_dim for r in rows):
        raise DimensionMismatch("ambient dimensions differ")
    reduced, pivots = _rref_rows(rows)
    return Subspace(ambient_dim, tuple(map(tuple, reduced)), tuple(pivots))


def contains(outer: Subspace, inner: Subspace) -> bool:
    """True iff inner is a subset of outer."""
    if outer.ambient_dim != inner.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    return all(outer.contains_vector(row) for row in inner.rows)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    return span(a.rows + b.rows, a.ambient_dim)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """A cap B via the Zassenhaus block trick.

    The RREF rows of [[A, A], [B, 0]] with their pivot in the right half
    are zero in the left half, and their right halves are already the
    stored rows of the intersection.
    """
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    n = a.ambient_dim
    rows, pivots = _rref_rows([r + r for r in a.rows] + [r + (0,) * n for r in b.rows])
    k = sum(c < n for c in pivots)  # pivots ascend: the right-half rows come last
    return Subspace(n, tuple(tuple(r[n:]) for r in rows[k:]), tuple(c - n for c in pivots[k:]))


def kernel_basis(m: Matrix) -> Subspace:
    """The exact null space {x : m @ x = 0} as a canonical subspace."""
    return _kernel(_clear_denominators(m.entries)[0], m.cols)


def _kernel(rows: Iterable[Sequence[int]], cols: int) -> Subspace:
    """The null space of the integer matrix with these rows, each of length cols."""
    rows, pivots = _rref_rows(rows)
    # x_f = 1 on a free column f gives x_p = -R[i][f] = -rows[i][f] / rows[i][p] on pivot
    # column p of row i; scaling by the lcm of the pivot entries keeps this integral
    lead = math.lcm(*(r[c] for r, c in zip(rows, pivots)))
    basis = []
    for f in sorted(set(range(cols)) - set(pivots)):
        v = [0] * cols
        v[f] = lead
        for r, c in zip(rows, pivots):
            v[c] = -r[f] * (lead // r[c])
        basis.append(v)
    return span(basis, cols)


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

    n = ambient.ambient_dim
    chosen = list(must_contain.rows)
    current = subspace_sum(must_contain, inner)
    target = ambient.dim
    for cand in ambient.rows:
        if current.dim == target:
            break
        if not current.contains_vector(cand):
            chosen.append(cand)
            current = span([*current.rows, cand], n)
    assert current.dim == target, "ambient basis failed to complete the complement"
    return span(chosen, n)
