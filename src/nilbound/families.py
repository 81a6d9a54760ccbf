"""Benchmark families of nilpotent matrix Lie algebras with their defining representations.

Every generator returns (abstract algebra, faithful nilrepresentation) where
the representation is the defining inclusion by matrix units, integer rows
over the denominator 1. Basis order is by block in lexicographic block order,
row-major inside each block, so the emitted files are reproducible byte for byte.
"""

from __future__ import annotations

from nilbound.liealg import LieAlgebra, Representation


def _unit(dim_v: int, r: int, c: int) -> tuple[int, ...]:
    return tuple(int(k == r * dim_v + c) for k in range(dim_v * dim_v))  # E_rc flattened row-major


def _units_algebra(name: str, dim_v: int, positions: list[tuple[int, int]],
                   names: tuple[str, ...] | None = None) -> tuple[LieAlgebra, Representation]:
    """Algebra spanned by matrix units E_{rc} at the given 0-based positions.

    [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb; the position set must be
    closed under this product. The names default to E{r+1}_{c+1}.
    """
    index = {pos: i for i, pos in enumerate(positions)}
    brackets = {}
    for i, (a, b) in enumerate(positions):
        for j, (c, d) in enumerate(positions):
            if i >= j:
                continue
            terms: dict[int, int] = {}
            if b == c:
                if (a, d) not in index:
                    raise ValueError(f"position set not closed: missing {(a, d)}")
                terms[index[(a, d)]] = terms.get(index[(a, d)], 0) + 1
            if d == a:
                if (c, b) not in index:
                    raise ValueError(f"position set not closed: missing {(c, b)}")
                terms[index[(c, b)]] = terms.get(index[(c, b)], 0) - 1
            terms = {k: v for k, v in terms.items() if v != 0}
            if terms:
                brackets[(i, j)] = tuple(sorted(terms.items()))
    names = names or tuple(f"E{r + 1}_{c + 1}" for r, c in positions)
    alg = LieAlgebra.create(name, len(positions), brackets, names)
    rep = Representation(alg, dim_v, (tuple(_unit(dim_v, r, c) for r, c in positions), 1))
    return alg, rep


def _check_params(**params: int) -> None:
    for key, val in params.items():
        if val < 1:
            raise ValueError(f"parameter {key} must be >= 1, got {val}")


def make_nap(a: int, p: int) -> tuple[LieAlgebra, Representation]:
    """Strictly block-upper-triangular (p+1)x(p+1) grid of a x a blocks.

    Algebra dimension p(p+1)/2 * a^2, defining representation on k^{(p+1)a}.
    """
    _check_params(a=a, p=p)
    dim_v = (p + 1) * a
    positions = []
    for bi in range(p + 1):
        for bj in range(bi + 1, p + 1):
            for r in range(a):
                for c in range(a):
                    positions.append((bi * a + r, bj * a + c))
    return _units_algebra(f"n_{{{a},{p}}}", dim_v, positions)


def make_nabc(a: int, b: int, c: int) -> tuple[LieAlgebra, Representation]:
    """Two-step nilradical with blocks a x b, a x c, b x c; center is the a x c block."""
    _check_params(a=a, b=b, c=c)
    dim_v = a + b + c
    positions = []
    for r in range(a):
        for col in range(b):
            positions.append((r, a + col))
    for r in range(a):
        for col in range(c):
            positions.append((r, a + b + col))
    for r in range(b):
        for col in range(c):
            positions.append((a + r, a + b + col))
    return _units_algebra(f"n_{{{a},{b},{c}}}", dim_v, positions)


def make_heisenberg(m: int) -> tuple[LieAlgebra, Representation]:
    """Heisenberg algebra of dimension 2m+1 with its (m+2)-dimensional defining representation."""
    _check_params(m=m)
    dim_v = m + 2
    positions = [(0, 1 + i) for i in range(m)] + [(1 + i, m + 1) for i in range(m)] + [(0, m + 1)]
    names = tuple([f"x{i + 1}" for i in range(m)] + [f"y{i + 1}" for i in range(m)] + ["z"])
    return _units_algebra(f"heisenberg_{m}", dim_v, positions, names)


def make_abelian(n: int) -> tuple[LieAlgebra, Representation]:
    """Abelian algebra of dimension n, acting by the strictly upper 1 x n block."""
    _check_params(n=n)
    dim_v = n + 1
    positions = [(0, 1 + i) for i in range(n)]
    return _units_algebra(f"abelian_{n}", dim_v, positions)


def make_family(tag: str, **params: int) -> tuple[LieAlgebra, Representation]:
    if tag == "nap":
        return make_nap(params["a"], params["p"])
    if tag == "nabc":
        return make_nabc(params["a"], params["b"], params["c"])
    if tag == "heisenberg":
        return make_heisenberg(params["m"])
    if tag == "abelian":
        return make_abelian(params["n"])
    raise ValueError(f"unknown family tag {tag!r}")
