"""Generic-vector decomposition of a chain of operator subspaces.

Given a decreasing chain T_p <= ... <= T_1 of subspaces of End(V), the loop
repeatedly picks a rank-vector (a vector achieving the generic maximum of
dim T_k . v at every level simultaneously), splits each level against the
annihilator of that vector, and nests the chosen complements from the
deepest level upward. The output partition, vectors and subspace grid feed
the adapted basis, the block-structure verification and the integer profile
used by the bound engine.

Operators live in End(V) as row-major flattened vectors of length dimV^2;
the basis operators of a subspace are its stored primitive integer rows,
the chain comes from `Representation.ops` and the rank vectors are integer
vectors, so every operator computation stays on integers. Rank-vector
selection is randomized (deterministic per seed); every consequence of
genericity is afterwards certified exactly by verify_decomposition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import mul
from typing import Sequence

from nilbound.bounds import BoundProblem, is_feasible
from nilbound.linalg import (
    Subspace,
    _commutator,
    _int_matmul,
    _inverse_rows,
    _kernel,
    _nilpotent,
    _sparse_rows,
    _square_rows,
    complement_extending,
    contains,
    span,
)
from nilbound.liealg import Filtration, Representation, default_filtration, is_faithful, validate_representation


class SamplingBudgetExhausted(RuntimeError):
    pass


class FaithfulnessError(ValueError):
    pass


@dataclass(frozen=True)
class OperatorChain:
    """Decreasing chain T_1 >= T_2 >= ... >= T_p of subspaces of End(V)."""

    space_dim: int
    levels: tuple[Subspace, ...]

    def __post_init__(self):
        amb = self.space_dim ** 2
        for lvl in self.levels:
            if lvl.ambient_dim != amb:
                raise ValueError("chain level has wrong ambient dimension")
        for k in range(len(self.levels) - 1):
            if not contains(self.levels[k], self.levels[k + 1]):
                raise ValueError(f"chain level {k + 2} is not contained in level {k + 1}")

    @property
    def p(self) -> int:
        return len(self.levels)


def _images(ops: Sequence[Sequence[int]], n: int, v: Sequence[int]) -> list[list[int]]:
    """T(v) for each operator T, given as a flattened integer n x n matrix."""
    return [[sum(map(mul, op[i:i + n], v)) for i in range(0, n * n, n)] for op in ops]


def chain_from_representation(rep: Representation, filt: Filtration) -> OperatorChain:
    """The image chain rho(n_p) <= ... <= rho(n_1) inside End(V)."""
    amb = rep.dimV ** 2
    ops = _sparse_rows(rep.ops[0])  # d * rho(x_k); the common d changes no span
    levels = tuple(span(_int_matmul(_sparse_rows(sub.rows), ops, amb), amb) for sub in filt.chain)
    return OperatorChain(rep.dimV, levels)


def _column_span(ops: Sequence[Sequence[int]], n: int) -> Subspace:
    """T . V for T the span of the operators: the span of their columns."""
    return span([op[c::n] for op in ops for c in range(n)], n)


def _rank_ceiling(chain: OperatorChain) -> tuple[int, ...]:
    """min(dim T_k, dim T_k . V) per level: T_k . v lies in T_k . V and is spanned by dim T_k images, so no v exceeds it."""
    return tuple(min(lvl.dim, _column_span(lvl.rows, chain.space_dim).dim) for lvl in chain.levels)


def _image_dims(levels: Sequence[Subspace], n: int, v: tuple[int, ...]) -> tuple[int, ...]:
    """dim(T_k . v) for each level."""
    return tuple(span(_images(lvl.rows, n, v), n).dim for lvl in levels)


def find_rank_vector(chain: OperatorChain, rng: random.Random) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Sample a vector achieving the generic maximum of dim T_k . v at every level.

    Integer coordinates are drawn from [-M, M] with M = 16, doubling each
    round. A candidate from a batch of 8 is accepted when its dim-tuple is
    componentwise maximal in the batch and two further samples do not beat
    it. Genericity makes failure vanishingly unlikely; the certificate comes
    from verify_decomposition, not from this sampler.

    No tuple exceeds the ceiling c = `_rank_ceiling(chain)`. The batch is
    scored in order up to the first candidate that reaches c, which is then
    the batch maximum and its first witness; a winner at c skips scoring the
    extras, which are still drawn. The result and the random stream are
    those of scoring everything.
    """
    n = chain.space_dim
    ceiling = _rank_ceiling(chain)
    bound = 16
    for _ in range(64):
        batch = [tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(8)]
        tuples = []
        for v in batch:
            tuples.append(_image_dims(chain.levels, n, v))
            if tuples[-1] == ceiling:
                break
        best = tuple(max(t[k] for t in tuples) for k in range(chain.p))
        winner = next((v for v, t in zip(batch, tuples) if t == best), None)
        if winner is not None:
            extras = [tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(2)]
            if best == ceiling or all(
                all(d <= b for d, b in zip(_image_dims(chain.levels, n, e), best))
                for e in extras
            ):
                return winner, best
        bound *= 2
    raise SamplingBudgetExhausted("no rank-vector found within the sampling budget")


@dataclass(frozen=True)
class Decomposition:
    partition: tuple[int, ...]  # s_1 >= ... >= s_p > 0
    vectors: tuple[tuple[int, ...], ...]  # v_1 ... v_{s_1}
    grid: dict  # (k, j) 1-based -> Subspace of End(V)
    seed: int
    chain: OperatorChain

    @property
    def p(self) -> int:
        return len(self.partition)

    @property
    def space_dim(self) -> int:
        return self.chain.space_dim

    def rank_dims(self) -> tuple[int, ...]:
        """r_k = dim T_{k,1}."""
        return tuple(self.grid[(k, 1)].dim for k in range(1, self.p + 1))


def _annihilator(level: Subspace, n: int, v: tuple[int, ...]) -> Subspace:
    """{T in level : T(v) = 0} as a subspace of End(V)."""
    if level.dim == 0:
        return level
    coeff_kernel = _kernel(zip(*_images(level.rows, n, v)), level.dim)
    return span(_int_matmul(_sparse_rows(coeff_kernel.rows), _sparse_rows(level.rows), n * n), n * n)


def decompose(rep: Representation, seed: int = 0) -> Decomposition:
    """Split the image of the default filtration under a faithful nilrepresentation.

    The representation is checked first. An injective homomorphism pulls the
    matrix Jacobi identity back to the algebra, so that needs no check of its
    own; a non-nilpotent algebra raises NotNilpotentError.
    """
    if violations := validate_representation(rep):
        raise ValueError("invalid representation: " + "; ".join(violations))
    if not is_faithful(rep):
        raise FaithfulnessError("representation is not faithful")
    return decompose_chain(chain_from_representation(rep, default_filtration(rep.algebra)), seed=seed)


def decompose_chain(chain: OperatorChain, seed: int = 0) -> Decomposition:
    n = chain.space_dim
    amb = n * n
    rng = random.Random(seed)
    p = chain.p

    s = [0] * (p + 1)  # 1-based
    levels = list(chain.levels)  # current R_k, 1-based via levels[k-1]
    q = p
    vectors: list[tuple[int, ...]] = []
    grid: dict[tuple[int, int], Subspace] = {}
    i = 0
    while True:
        i += 1
        sub = OperatorChain(n, tuple(levels[:q]))
        v_i, _ = find_rank_vector(sub, rng=rng)
        vectors.append(v_i)
        annis = [_annihilator(levels[k - 1], n, v_i) for k in range(1, q + 1)]
        # nested complements, deepest level first so T_{k,i} >= T_{k+1,i}
        below = Subspace.zero(amb)
        for k in range(q, 0, -1):
            if annis[k - 1].dim != levels[k - 1].dim:
                s[k] += 1
                piece = complement_extending(levels[k - 1], annis[k - 1], below)
                grid[(k, i)] = piece
                below = piece
        if annis[0].dim == 0:
            break
        q = max(k for k in range(1, q + 1) if annis[k - 1].dim != 0)
        levels = [annis[k] for k in range(q)]
    partition = tuple(s[1:])
    assert partition[0] == i and all(x > 0 for x in partition)
    return Decomposition(partition, tuple(vectors), grid, seed, chain)


@dataclass
class VerificationReport:
    failures: list[str] = field(default_factory=list)
    moreover_checked: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_decomposition(dec: Decomposition) -> VerificationReport:
    """Certify every structural claim about the partition, vectors and grid exactly.

    Each T_(k,j).v_j is spanned once, for its dim check, every later column of row k and the moreover clause."""
    report = VerificationReport()
    chain = dec.chain
    n = chain.space_dim
    amb = n * n
    p = chain.p
    s = dec.partition

    if any(s[k] < s[k + 1] for k in range(p - 1)):
        report.failures.append("partition is not weakly decreasing")

    # linear independence of the chosen vectors
    if span(dec.vectors, n).dim != len(dec.vectors):
        report.failures.append("rank vectors are linearly dependent")

    for k in range(1, p + 1):
        pieces = [dec.grid[(k, j)] for j in range(1, s[k - 1] + 1)]
        level = chain.levels[k - 1]
        total = span([row for piece in pieces for row in piece.rows], amb)
        if total != level or sum(piece.dim for piece in pieces) != level.dim:
            report.failures.append(f"grid row {k} is not a direct-sum decomposition of T_{k}")
        if k < p:
            for j in range(1, s[k] + 1):
                if not contains(dec.grid[(k, j)], dec.grid[(k + 1, j)]):
                    report.failures.append(f"T_({k + 1},{j}) is not contained in T_({k},{j})")

    spans = {}  # (k, j) -> T_(k,j).v_j, spanned once
    for k in range(1, p + 1):
        for j in range(1, s[k - 1] + 1):
            ops = dec.grid[(k, j)].rows
            spans[(k, j)] = span(_images(ops, n, dec.vectors[j - 1]), n)
            if spans[(k, j)].dim != len(ops):
                report.failures.append(f"dim T_({k},{j}).v_{j} != dim T_({k},{j})")
            if j == 1:
                continue
            whole = _column_span(ops, n)  # T_(k,j).V
            for i in range(1, j):
                if any(map(any, _images(ops, n, dec.vectors[i - 1]))):
                    report.failures.append(f"T_({k},{j}).v_{i} != 0 for i = {i} < j = {j}")
                if not contains(spans[(k, i)], whole):
                    report.failures.append(f"T_({k},{j}).V is not inside T_({k},{i}).v_{i}")

    # moreover clause: needs nilpotent operators and [T_1, T_p] = 0
    t1_ops, tp_ops = ([_square_rows(op, n) for op in level.rows] for level in (chain.levels[0], chain.levels[-1]))
    if all(_nilpotent(op, n) for op in t1_ops) and not any(
        any(map(any, _commutator(a, b, n))) for a in t1_ops for b in tp_ops
    ):
        report.moreover_checked = True
        img, v0 = spans[(1, 1)], span(dec.vectors[: s[-1]], n)
        if span(img.rows + v0.rows, n).dim != img.dim + v0.dim:  # they meet in 0 exactly when their sum is direct
            report.failures.append("T_(1,1).v_1 meets span{v_1..v_{s_p}} nontrivially")
    return report


@dataclass(frozen=True)
class AdaptedBasis:
    r: tuple[int, ...]  # r_k = dim T_{k,1}
    q: int
    basis_vectors: tuple[tuple[int, ...], ...]  # ordered basis B of V


def build_adapted_basis(dec: Decomposition) -> AdaptedBasis:
    """Assemble B = (X_1 v_1, ..., X_{r_1} v_1, w_1, ..., w_q, v_1, ..., v_{s_p})."""
    n = dec.space_dim
    amb = n * n
    p = dec.p
    r = dec.rank_dims()

    # operator basis adapted to the first grid column, deepest level first
    flat_ops: list[tuple[int, ...]] = []
    current = Subspace.zero(amb)
    for k in range(p, 0, -1):
        for row in dec.grid[(k, 1)].rows:
            if not current.contains_vector(row):
                flat_ops.append(row)
                current = span(flat_ops, amb)
        if current.dim != r[k - 1]:
            raise ValueError(f"adapted operator basis fails at level {k}")

    images = [tuple(img) for img in _images(flat_ops, n, dec.vectors[0])]
    s_p = dec.partition[-1]
    tail = list(dec.vectors[:s_p])
    partial = span(images + tail, n)
    if partial.dim != r[0] + s_p:
        raise ValueError("degenerate complement: images and rank vectors are dependent")
    w_space = complement_extending(Subspace.full(n), partial, Subspace.zero(n))
    ws = list(w_space.rows)
    basis = tuple(images + ws + tail)
    if span(basis, n).dim != n:
        raise ValueError("adapted family is not a basis of V")
    return AdaptedBasis(r, len(ws), basis)


@dataclass
class BlockReport:
    failures: list[str] = field(default_factory=list)
    checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


def _conjugation(ab: AdaptedBasis, n: int):
    """The map from a flattened operator X to an integer matrix with the zero pattern of P^-1 X P, P with columns B."""
    ints = list(zip(*ab.basis_vectors))  # the RREF of [P | I] has positive row multiples of P^-1 as its right half
    change, change_inv = _sparse_rows(ints), _sparse_rows(row[n:] for row in _inverse_rows(ints, 1))
    return lambda op: _int_matmul(_sparse_rows(_int_matmul(change_inv, _square_rows(op, n), n)), change, n)


def verify_block_structure(ab: AdaptedBasis, dec: Decomposition) -> BlockReport:
    """Check the block patterns of every grid operator in the adapted basis.

    A_mn is the block of rows in band m and columns in band n, where the bands
    of B are the r_1 images X_h v_1, the q vectors w and the s_p vectors v.
    """
    report = BlockReport()
    n = dec.space_dim
    p = dec.p
    r = ab.r
    s = dec.partition
    top = range(r[0])
    bands = (top, range(r[0], r[0] + ab.q), range(r[0] + ab.q, r[0] + ab.q + s[-1]))
    conjugate = _conjugation(ab, n)

    def r_of(t: int) -> int:
        return r[t - 1] if t <= p else 0

    for k in range(1, p + 1):
        below = range(r_of(k), r[0])  # rows of the top band below r_k
        for j in range(1, s[k - 1] + 1):
            for idx, row in enumerate(dec.grid[(k, j)].rows):
                entries = conjugate(row)

                def nonzero(rows, cols) -> bool:
                    return any(entries[i][c] for i in rows for c in cols)

                tag = f"X[{idx + 1}] of T_({k},{j})"
                report.checked += 1
                if j == 1:
                    first = bands[2][:1]  # the first column of A_13
                    if nonzero(below, first):
                        report.failures.append(f"{tag}: first column of A_13 nonzero below r_k")
                    if not nonzero(top, first):
                        report.failures.append(f"{tag}: first column of A_13 vanishes for nonzero X")
                    continue
                for m_blk in (2, 3):
                    for n_blk in (1, 2, 3):
                        if nonzero(bands[m_blk - 1], bands[n_blk - 1]):
                            report.failures.append(f"{tag}: A_{m_blk}{n_blk} nonzero")
                # A_13 only has s_p columns; v_j for j > s_p has no column
                for col_i, c in enumerate(bands[2][: j - 1]):
                    if nonzero(top, (c,)):
                        report.failures.append(f"{tag}: column {col_i + 1} of A_13 nonzero")
                # rows below r_k of the whole top band vanish
                for n_blk in (1, 2, 3):
                    if nonzero(below, bands[n_blk - 1]):
                        report.failures.append(f"{tag}: A_1{n_blk} nonzero below row r_k")
                # staircase inside A_11: column i (1-based) with i <= r_h implies
                # zeros below row r_{k+h}
                for col_i in range(1, r[0] + 1):
                    h_max = max(h for h in range(1, p + 1) if r_of(h) >= col_i)
                    if nonzero(range(r_of(k + h_max), r[0]), (col_i - 1,)):
                        report.failures.append(f"{tag}: staircase fails in column {col_i} of A_11")
                if k == p and nonzero(top, top):
                    report.failures.append(f"{tag}: A_11 nonzero although the level is central")
    return report


def extract_profile(dec: Decomposition) -> tuple[int, ...]:
    """Profile (a_0, ..., a_p) from the first grid column; certified feasible."""
    dim_v = dec.space_dim
    r = dec.rank_dims()
    p = dec.p
    a = [dim_v - r[0]]
    for h in range(1, p):
        a.append(r[h - 1] - r[h])
    a.append(r[p - 1])
    profile = tuple(a)
    if profile[0] < 1 or profile[p] < 1 or sum(profile) != dim_v:
        raise AssertionError(f"profile {profile} violates shape constraints")
    dims = tuple(lvl.dim for lvl in dec.chain.levels)
    if not is_feasible(BoundProblem(p, p, dims), profile):
        raise AssertionError(f"profile {profile} infeasible for the induced bound problem")
    return profile


def decomposition_to_json(dec: Decomposition, report: VerificationReport | None = None) -> dict:
    out = {
        "space_dim": dec.space_dim,
        "partition": list(dec.partition),
        "vectors": [[str(x) for x in v] for v in dec.vectors],
        "grid_dims": {
            f"{k},{j}": dec.grid[(k, j)].dim
            for k in range(1, dec.p + 1)
            for j in range(1, dec.partition[k - 1] + 1)
        },
        "rank_dims": list(dec.rank_dims()),
        "seed": dec.seed,
    }
    if report is not None:
        out["verified"] = report.ok
        out["failures"] = list(report.failures)
        out["moreover_checked"] = report.moreover_checked
    return out
