"""Lie algebras from structure constants: series, center, filtrations, representations.

Structure constants are stored sparsely for i < j only, sorted by pair;
antisymmetry is implicit. Each algebra derives from them, once, a sparse
adjoint table (`LieAlgebra.ad`) of the integers D * c_ij^k, D the lcm of the
constants' denominators (`LieAlgebra.denominator`), and from its rows the
derived algebra W = D * [n, n] (`LieAlgebra._derived`), and keeps its lower
central series and center once computed. Brackets, the Jacobi check, the
series and the center run on that table; the public `bracket` divides by D.
W is the series' second term, and since every product of basis elements lies
in W, and an element of W is zero exactly when its entries at W's pivot
columns are, the center and the Jacobi check read those entries only. A
representation is its matrices as flattened integer rows over one common
denominator (`Representation.ops`); its `Fraction` matrices are a view. The
file formats are parsed here, every row by one reader (`_rows`), and the
checks return lists of violations. Everything is exact and immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Mapping, Sequence

from nilbound.linalg import (
    DimensionMismatch,
    Matrix,
    Q,
    Subspace,
    Vector,
    _INTEGER,
    _clear_denominators,
    _commutator,
    _fraction_row,
    _int_matmul,
    _inverse_rows,
    _kernel,
    _nilpotent,
    _sparse_rows,
    _square_rows,
    contains,
    rat,
    rat_str,
    span,
    subspace_sum,
    vec,
)


class NotNilpotentError(ValueError):
    pass


# brackets: {(i, j): ((k, coeff), ...)} with 0-based i < j, meaning
# [x_i, x_j] = sum_k coeff * x_k
Terms = tuple[tuple[int, Fraction], ...]
IntTerms = tuple[tuple[int, int], ...]


def _pair(i: int, j: int) -> str:
    """A 0-based index pair named in the files' 1-based numbering."""
    return f"bracket ({i + 1}, {j + 1})"


@dataclass(frozen=True)
class LieAlgebra:
    name: str
    dim: int
    basis_names: tuple[str, ...]
    brackets: tuple[tuple[tuple[int, int], Terms], ...]  # sorted by pair

    @staticmethod
    def create(name: str, dim: int, brackets: Mapping, basis_names: Sequence[str] | None = None) -> "LieAlgebra":
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        if basis_names is None:
            basis_names = tuple(f"x{i + 1}" for i in range(dim))
        elif len(basis_names) != dim:
            raise ValueError(f"{len(basis_names)} basis names for dimension {dim}")
        clean = {}
        for (i, j), terms in brackets.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"{_pair(i, j)} is out of range 1..{dim} or not i < j")
            terms = tuple((k, rat(c)) for k, c in terms)
            for k, _ in terms:
                if not 0 <= k < dim:
                    raise ValueError(f"{_pair(i, j)} names target index {k + 1}, out of range 1..{dim}")
            if len({k for k, _ in terms}) != len(terms):
                raise ValueError(f"{_pair(i, j)} names one target index twice")
            terms = tuple((k, c) for k, c in terms if c != 0)
            if terms:
                clean[(i, j)] = terms
        return LieAlgebra(name, dim, tuple(basis_names), tuple(sorted(clean.items())))

    @cached_property
    def denominator(self) -> int:
        """D, the lcm of the structure-constant denominators; 1 without brackets."""
        return math.lcm(*(c.denominator for _, terms in self.brackets for _, c in terms))

    @cached_property
    def ad(self) -> tuple[dict[int, IntTerms], ...]:
        """ad[i][j] are the integer terms of D * [x_i, x_j]; both orders are stored, the swapped one negated."""
        d = self.denominator
        ad: list[dict[int, IntTerms]] = [{} for _ in range(self.dim)]
        for (i, j), terms in self.brackets:
            scaled = tuple((k, c.numerator * (d // c.denominator)) for k, c in terms)
            ad[i][j] = scaled
            ad[j][i] = tuple((k, -c) for k, c in scaled)
        return tuple(ad)

    @cached_property
    def _derived(self) -> Subspace:
        """W = D * [n, n], the span of the table rows D * [x_i, x_j] for i < j."""
        rows = {}
        for i, row in enumerate(self.ad):
            for j, terms in row.items():
                if i < j:
                    w = [0] * self.dim
                    for k, c in terms:
                        w[k] = c
                    rows[tuple(w)] = None  # a repeated row changes no span
        return span(rows, self.dim)

    @cached_property
    def _ad_on_pivots(self) -> tuple[dict[int, IntTerms], ...]:
        """ad with only the terms at W's pivot columns; ad itself when that drops none,
        which is when every canonical row of W is a unit row."""
        if all(r.count(0) == self.dim - 1 for r in self._derived.rows):
            return self.ad
        keep = set(self._derived.pivots)
        return tuple({j: tuple((k, c) for k, c in terms if k in keep) for j, terms in row.items()} for row in self.ad)

    @cached_property
    def _series(self) -> tuple[tuple[Subspace, ...], bool]:
        """The lower central series and whether it ends in zero (see lower_central_series)."""
        full = Subspace.full(self.dim)
        # [n, C^k] is spanned by brackets with the basis elements that have any bracket
        acting = span([e for e, row in zip(full.rows, self.ad) if row], self.dim)
        series, nxt = [full], self._derived
        while nxt.dim and nxt != series[-1]:
            series.append(nxt)
            nxt = bracket_subspaces(self, acting, nxt)
        return tuple(series), nxt.dim == 0

    @cached_property
    def _center(self) -> Subspace:
        """See center. Row (j, k), the k-th coordinate of D * [x, e_j] as a linear
        form in x, is built only where the adjoint table makes it nonzero and only
        for k a pivot column of W."""
        rows: dict[tuple[int, int], list[int]] = {}
        for i, row in enumerate(self._ad_on_pivots):
            for j, terms in row.items():
                for k, c in terms:
                    rows.setdefault((j, k), [0] * self.dim)[i] += c
        return _kernel([rows[key] for key in sorted(rows)], self.dim)


def _bracket(alg: LieAlgebra, u: Sequence, v: Sequence) -> list:
    """D * [u, v] from the integer table; integer for integer coordinates."""
    out = [0] * alg.dim
    v_nonzero = [(j, b) for j, b in enumerate(v) if b]
    for i, a in enumerate(u):
        if not a:
            continue
        row = alg.ad[i]
        for j, b in v_nonzero:
            terms = row.get(j)
            if terms:
                ab = a * b
                for k, c in terms:
                    out[k] += ab * c
    return out


def bracket(alg: LieAlgebra, u: Sequence, v: Sequence) -> Vector:
    """Bilinear antisymmetric product of coordinate vectors, as exact rationals."""
    if len(u) != alg.dim or len(v) != alg.dim:
        raise DimensionMismatch("coordinate length differs from algebra dimension")
    return tuple(Q(x, alg.denominator) for x in _bracket(alg, vec(u), vec(v)))


def validate(alg: LieAlgebra) -> list[str]:
    """The Jacobi violations on basis triples, none for a Lie algebra; never raises.

    A basis element with no brackets is central, and every triple holding
    one satisfies the identity, so only triples of the others are summed.
    The sums are taken on the integer table: each is D^2 times the rational
    one, so it is zero exactly when that one is. Each [x_a, [x_b, x_c]] is a
    combination of table rows, Lie algebra or not, so each sum lies in W and
    is summed at W's pivot columns only.
    """
    violations = []
    ad, outer_ad = alg.ad, alg._ad_on_pivots
    for i, j, k in combinations([i for i, row in enumerate(ad) if row], 3):
        total: dict[int, int] = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            # [x_a, [x_b, x_c]] composed from the sparse terms
            for l, inner in ad[b].get(c, ()):
                for m, outer in outer_ad[a].get(l, ()):
                    total[m] = total.get(m, 0) + inner * outer
        if any(x != 0 for x in total.values()):
            violations.append(f"Jacobi fails at triple ({i + 1}, {j + 1}, {k + 1})")
    return violations


def bracket_subspaces(alg: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    # the products of the integer rows, scaled by D, span [a, b]; zero ones change no span
    return span([w for u in a.rows for v in b.rows if any(w := _bracket(alg, u, v))], alg.dim)


def lower_central_series(alg: LieAlgebra) -> list[Subspace]:
    """C^1 = n, C^{k+1} = [n, C^k], down to the last nonzero term.

    For a non-nilpotent algebra the series stabilizes at a nonzero term,
    which is returned as the last entry (is_nilpotent distinguishes the two).
    Computed once per algebra; each call returns a fresh list.
    """
    return list(alg._series[0])


def is_nilpotent(alg: LieAlgebra) -> bool:
    return alg._series[1]


def center(alg: LieAlgebra) -> Subspace:
    """Kernel of the stacked adjoint map x -> ([x, e_1], ..., [x, e_n]); computed once per algebra."""
    return alg._center


@dataclass(frozen=True)
class Filtration:
    """Decreasing chain n_1 = n >= ... >= n_p != 0 with [n_i, n_j] <= n_{i+j}, so n_p is central."""

    algebra: LieAlgebra
    chain: tuple[Subspace, ...]

    @property
    def p(self) -> int:
        return len(self.chain)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.chain)


def make_filtration(alg: LieAlgebra, chain: Sequence[Subspace]) -> Filtration:
    """Build a filtration, stripping trailing zero terms and recomputing p."""
    trimmed = list(chain)
    while trimmed and trimmed[-1].dim == 0:
        trimmed.pop()
    if not trimmed:
        raise ValueError("filtration chain is entirely zero")
    return Filtration(alg, tuple(trimmed))


def default_filtration(alg: LieAlgebra) -> Filtration:
    """The centrally augmented lower central series n_k = C^k + z."""
    if not is_nilpotent(alg):
        raise NotNilpotentError(f"algebra {alg.name!r} is not nilpotent")
    z = center(alg)
    series = lower_central_series(alg)
    chain = [subspace_sum(term, z) for term in series]
    return make_filtration(alg, chain)


def admissible_p0_set(filt: Filtration) -> list[int]:
    """All indices k with n_k contained in the center (1-based)."""
    z = center(filt.algebra)
    return [k + 1 for k, sub in enumerate(filt.chain) if contains(z, sub)]


def validate_filtration(filt: Filtration) -> list[str]:
    """The violated filtration conditions, none for a filtration."""
    violations = []
    alg = filt.algebra
    p = filt.p
    if filt.chain[0] != Subspace.full(alg.dim):
        violations.append("n_1 is not the whole algebra")
    if filt.chain[-1].dim == 0:
        violations.append("n_p is zero")
    for k in range(p - 1):
        if not contains(filt.chain[k], filt.chain[k + 1]):
            violations.append(f"n_{k + 2} is not contained in n_{k + 1}")
    for i in range(1, p + 1):
        for j in range(i, p + 1):  # [n_i, n_j] = [n_j, n_i]
            prod = bracket_subspaces(alg, filt.chain[i - 1], filt.chain[j - 1])
            if i + j > p:
                if prod.dim != 0:
                    violations.append(f"[n_{i}, n_{j}] is nonzero but n_{i + j} = 0")
            elif not contains(filt.chain[i + j - 1], prod):
                violations.append(f"[n_{i}, n_{j}] is not contained in n_{i + j}")
    return violations


@dataclass(frozen=True)
class Representation:
    algebra: LieAlgebra
    dimV: int
    ops: tuple[tuple[tuple[int, ...], ...], int]  # (O, d): rho(x_k) = O[k] / d, O[k] flattened row-major

    @cached_property
    def matrices(self) -> tuple[Matrix, ...]:
        """The Fraction matrices rho(x_k)."""
        (ops, d), n = self.ops, self.dimV
        return tuple(Matrix(tuple(_fraction_row(op[i:i + n], d) for i in range(0, n * n, n))) for op in ops)


def validate_representation(rep: Representation) -> list[str]:
    """The violations of the homomorphism property on basis pairs and of each generator's nilpotency."""
    alg = rep.algebra
    if len(rep.ops[0]) != alg.dim:
        return ["matrix count differs from algebra dimension"]
    violations = []
    (ops, d), n = rep.ops, rep.dimV
    flat, square = _sparse_rows(ops), [_square_rows(op, n) for op in ops]
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            # [O_i / d, O_j / d] = sum_k c_ij^k O_k / d exactly when D [O_i, O_j] = d sum_k (D c_ij^k) O_k
            lhs = [alg.denominator * x for row in _commutator(square[i], square[j], n) for x in row]
            (rhs,) = _int_matmul([alg.ad[i].get(j, ())], flat, n * n)
            if lhs != [d * x for x in rhs]:
                violations.append(f"homomorphism fails on basis pair ({i + 1}, {j + 1})")
    for i, op in enumerate(square):
        if not _nilpotent(op, n):
            violations.append(f"rho(x_{i + 1}) is not nilpotent")
    return violations


def is_faithful(rep: Representation) -> bool:
    """Rank test on the stacked coordinate map rho: n -> End(V)."""
    return span(rep.ops[0], rep.dimV ** 2).dim == rep.algebra.dim


def algebra_from_matrix_basis(name: str, mats: Sequence[Sequence[Sequence]]) -> tuple[LieAlgebra, Representation]:
    """Abstract algebra + defining representation from a linearly independent matrix basis.

    Each matrix is rows of ints or Fractions; raises if they are dependent or their span is not bracket-closed.
    """
    if not mats:
        raise ValueError("empty matrix basis")
    n, k = len(mats[0]), len(mats)
    if any(len(m) != n or any(len(row) != n for row in m) for m in mats):
        raise DimensionMismatch("the matrices are not all square of one size")
    ops, d = _clear_denominators([x for row in m for x in row] for m in mats)
    basis = span(ops)
    if basis.dim != k:
        raise ValueError("matrix basis is linearly dependent")
    # A = O on the pivot columns is invertible, and row i of the RREF of [A | I] is r_i [e_i | row i of A^-1]
    inverse = _inverse_rows([[op[c] for c in basis.pivots] for op in ops], 1)
    lead = math.lcm(*(row[i] for i, row in enumerate(inverse)))
    scaled = _sparse_rows([x * (lead // row[i]) for x in row[k:]] for i, row in enumerate(inverse))  # lead * A^-1
    square = [_square_rows(op, n) for op in ops]
    brackets = {}
    for i in range(k):
        for j in range(i + 1, k):
            # [O_i / d, O_j / d] = w / d^2 = sum_m c_m O_m / d, so c = w|pivots A^-1 / d
            w = [x for row in _commutator(square[i], square[j], n) for x in row]
            if not basis.contains_vector(w):
                raise ValueError("matrix span is not closed under the bracket")
            (coords,) = _int_matmul([[(r, w[c]) for r, c in enumerate(basis.pivots) if w[c]]], scaled, k)
            terms = tuple((m, Q(x, d * lead)) for m, x in enumerate(coords) if x)
            if terms:
                brackets[(i, j)] = terms
    alg = LieAlgebra.create(name, k, brackets)
    return alg, Representation(alg, n, (ops, d))


# ---------------------------------------------------------------------------
# JSON file formats (1-based indices on the wire)

def algebra_to_json(alg: LieAlgebra) -> dict:
    entries = []
    for (i, j), terms in alg.brackets:
        entries.append({"i": i + 1, "j": j + 1, "terms": [[k + 1, rat_str(c)] for k, c in terms]})
    return {"name": alg.name, "dim": alg.dim, "basis": list(alg.basis_names), "brackets": entries}


def _require_object(data, what: str) -> None:
    if not isinstance(data, dict):
        raise TypeError(f"{what} must be a JSON object, not {type(data).__name__}")


def _require_list(data, what: str) -> list:
    """data if it is a JSON list; a string or an object is refused rather than iterated."""
    if not isinstance(data, list):
        raise TypeError(f"{what} must be a list, not {type(data).__name__}")
    return data


def _require_int(x, what: str) -> int:
    """x if it is a JSON integer; a float is refused rather than truncated, and a bool is not a number."""
    if type(x) is not int:
        raise TypeError(f"{what} must be an integer, not {x!r}")
    return x


def _require_str(x, what: str) -> str:
    """x if it is a JSON string; a name is echoed in every report, so no other value stands in for one."""
    if not isinstance(x, str):
        raise TypeError(f"{what} must be a string, not {type(x).__name__}")
    return x


def _number(x) -> int | Fraction:
    """A JSON integer or an ASCII integer string as an int, anything else through rat, which raises every error."""
    if type(x) is int:
        return x
    if type(x) is str and _INTEGER.fullmatch(x):
        return int(x)
    return rat(x)


def _rows(data, what: str) -> list[list[int | Fraction]]:
    """A JSON list of rows, each a JSON list of numbers read with `_number`: the one reader of a file's rows."""
    return [[_number(x) for x in _require_list(row, f"a row of {what}")] for row in _require_list(data, what)]


def algebra_from_json(data: dict) -> LieAlgebra:
    _require_object(data, "an algebra")
    dim = _require_int(data["dim"], "dim")
    brackets = {}
    for entry in _require_list(data.get("brackets", []), "brackets"):
        _require_object(entry, "a bracket entry")
        i, j = _require_int(entry["i"], "i") - 1, _require_int(entry["j"], "j") - 1
        if (i, j) in brackets:
            raise ValueError(f"{_pair(i, j)} is given twice")
        terms = (_require_list(term, "a term") for term in _require_list(entry["terms"], "terms"))
        brackets[(i, j)] = tuple((_require_int(k, "a term index") - 1, rat(c)) for k, c in terms)
    basis = None
    if "basis" in data:
        basis = [_require_str(x, "a basis entry") for x in _require_list(data["basis"], "basis")]
    return LieAlgebra.create(_require_str(data.get("name", "algebra"), "name"), dim, brackets, basis)


def filtration_from_json(alg: LieAlgebra, data) -> Filtration:
    """A chain of subspaces, each a list of rational rows, given as {"chain": [...]} or as the bare list."""
    chain = _require_list(data["chain"] if isinstance(data, dict) else data, "chain")
    return make_filtration(alg, [span(_clear_denominators(_rows(sub, "a subspace"))[0], alg.dim) for sub in chain])


def representation_to_json(rep: Representation) -> dict:
    return {
        "algebra": algebra_to_json(rep.algebra),
        "dimV": rep.dimV,
        "matrices": [[[rat_str(x) for x in row] for row in m.entries] for m in rep.matrices],
    }


def representation_from_json(data: dict) -> Representation:
    """Every matrix is read, and checked for ragged rows, before any is checked against dimV."""
    _require_object(data, "a representation")
    alg = algebra_from_json(data["algebra"])
    dim_v = _require_int(data["dimV"], "dimV")
    mats = []
    for m in _require_list(data["matrices"], "matrices"):
        mats.append(_rows(m, "a matrix"))
        if len({len(row) for row in mats[-1]}) > 1:
            raise DimensionMismatch("ragged rows")
    if any(len(m) != dim_v or any(len(row) != dim_v for row in m) for m in mats):
        raise DimensionMismatch("representation matrix is not dimV x dimV")
    return Representation(alg, dim_v, _clear_denominators([x for row in m for x in row] for m in mats))
