"""Shared generators: random strictly upper triangular matrix subalgebras and a dense conjugate of their representation."""

import random

from nilbound.liealg import LieAlgebra, Representation, algebra_from_matrix_basis
from nilbound.linalg import Matrix, Q, Subspace, invert, span


def _random_strict_upper(rng: random.Random, n: int) -> Matrix:
    rows = [
        [Q(rng.randint(-2, 2)) if j > i else Q(0) for j in range(n)]
        for i in range(n)
    ]
    return Matrix.from_rows(rows)


def _bracket_closure(gens: list[Matrix], n: int, max_dim: int) -> list[Matrix] | None:
    """Close the span of gens under the commutator; None if it grows past max_dim."""
    mats: list[Matrix] = []
    sp = Subspace.zero(n * n)
    frontier = list(gens)
    while frontier:
        m = frontier.pop()
        if not any(map(any, m.entries)) or sp.contains_vector(m.flatten()):
            continue
        frontier.extend(m.commutator(other) for other in mats)
        mats.append(m)
        sp = span([x.flatten() for x in mats], n * n)
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
    lower = Matrix.from_rows([[Q(i - j, j + 2) if i > j else Q(int(i == j)) for j in range(n)] for i in range(n)])
    upper = Matrix.from_rows([[Q((-1) ** j * (i + j), i + 3) if j > i else Q(int(i == j)) for j in range(n)] for i in range(n)])
    s = lower @ upper
    s_inv = invert(s)
    return Representation(alg, n, tuple(s @ m @ s_inv for m in rep.matrices))
