"""Shared test helpers.

Generators: random strictly upper triangular matrix subalgebras, closed under
a plain-loop integer commutator, and a dense conjugate of their
representation. Oracles: plain nested-loop `Fraction` combination, product
and commutator of matrices, which share no code with the integer cores in
`nilbound.linalg` they are used to check.
"""

import math
import random
from fractions import Fraction

from nilbound.liealg import LieAlgebra, Representation, algebra_from_matrix_basis
from nilbound.linalg import Matrix, Q, Subspace, invert, span


def frac_matrix(rows) -> Matrix:
    """The `Fraction` matrix with these rows of ints, Fractions or "num/den" strings."""
    return Matrix(tuple(tuple(map(Fraction, r)) for r in rows))


def integer_rows(rows) -> list[list[int]]:
    """Rows of ints or Fractions times the lcm of their denominators: integer rows with the same span."""
    rows = [[Fraction(x) for x in r] for r in rows]
    d = math.lcm(*(x.denominator for r in rows for x in r))
    return [[int(x * d) for x in r] for r in rows]


def representation_of(alg: LieAlgebra, dim_v: int, mats) -> Representation:
    """The representation x_k -> mats[k], each a `Matrix` or a list of rows of ints or Fractions."""
    flat = [[Fraction(x) for row in getattr(m, "entries", m) for x in row] for m in mats]
    d = math.lcm(*(x.denominator for r in flat for x in r))
    return Representation(alg, dim_v, (tuple(tuple(int(x * d) for x in r) for r in flat), d))


def frac_combination(terms, n: int) -> Matrix:
    """The sum of c * m over the (c, m) terms, every m an n x n `Matrix`."""
    out = [[Fraction(0)] * n for _ in range(n)]
    for c, m in terms:
        for i in range(n):
            for j in range(n):
                out[i][j] += Fraction(c) * m.entries[i][j]
    return Matrix(tuple(map(tuple, out)))


def frac_product(a: Matrix, b: Matrix) -> Matrix:
    out = [[Fraction(0)] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            for k in range(a.cols):
                out[i][j] += a.entries[i][k] * b.entries[k][j]
    return Matrix(tuple(map(tuple, out)))


def frac_commutator(a: Matrix, b: Matrix) -> Matrix:
    ab, ba = frac_product(a, b), frac_product(b, a)
    return Matrix(tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(ab.entries, ba.entries)))


def _random_strict_upper(rng: random.Random, n: int) -> list[list[int]]:
    return [[rng.randint(-2, 2) if j > i else 0 for j in range(n)] for i in range(n)]


def _int_commutator(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """ab - ba for square matrices of ints, by plain loops."""
    n = len(a)
    return [[sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _bracket_closure(gens: list[list[list[int]]], n: int, max_dim: int) -> list[list[list[int]]] | None:
    """Close the span of the integer matrices gens under the commutator; None if it grows past max_dim."""
    mats: list[list[list[int]]] = []
    flats: list[list[int]] = []
    sp = Subspace.zero(n * n)
    frontier = list(gens)
    while frontier:
        m = frontier.pop()
        flat = [x for r in m for x in r]
        if not any(flat) or sp.contains_vector(flat):
            continue
        frontier.extend(_int_commutator(m, other) for other in mats)
        mats.append(m)
        flats.append(flat)
        sp = span(flats, n * n)
        if len(mats) > max_dim:
            return None
    return mats


def random_upper_triangular_subalgebra(
    seed: int, max_dim_v: int = 7, max_dim: int = 12
) -> tuple[LieAlgebra, Representation]:
    """Seeded random nilpotent matrix algebra with its inclusion representation.

    Strictly upper triangular generators are closed under the bracket;
    attempts whose closure exceeds max_dim are rejected and redrawn.
    """
    rng = random.Random(seed)
    while True:
        dim_v = rng.randint(3, max_dim_v)
        gens = [_random_strict_upper(rng, dim_v) for _ in range(rng.randint(2, 3))]
        mats = _bracket_closure(gens, dim_v, max_dim)
        if mats:
            return algebra_from_matrix_basis(f"rand_{seed}", mats)


def conjugated_dense_representation(seed: int) -> Representation:
    """The representation of random_upper_triangular_subalgebra(seed) conjugated by a dense S.

    S is a lower times an upper unitriangular rational matrix, so every
    S X S^-1 is dense with non-integral entries; the algebra is unchanged.
    """
    alg, rep = random_upper_triangular_subalgebra(seed)
    n = rep.dimV
    lower = frac_matrix([[Q(i - j, j + 2) if i > j else Q(int(i == j)) for j in range(n)] for i in range(n)])
    upper = frac_matrix([[Q((-1) ** j * (i + j), i + 3) if j > i else Q(int(i == j)) for j in range(n)] for i in range(n)])
    s = frac_product(lower, upper)
    s_inv = invert(s)
    return representation_of(alg, n, [frac_product(frac_product(s, m), s_inv) for m in rep.matrices])
