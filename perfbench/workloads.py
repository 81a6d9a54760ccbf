"""Seeded input generators for the three benchmark workloads.

Every case is a pure function of (workload, seed, case index), so the same
seed always yields the same inputs and no input repeats within a run. The
program only ever sees the JSON files written here and the argv built here.

`bound` and `decompose` cases come in twins: an even index is a `plain`
input (the family's matrix-unit basis, in a seeded order) and the next odd
index is its `rebased` twin (the same algebra after a seeded change of basis
made of elementary operations, and for `decompose` also V conjugated by a
seeded elementary-operation matrix). Rebasing and conjugation are done here,
with exact rationals, and not with the program's own helpers.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# Family grids, visited in this fixed order once per pass. Mostly small
# members, so a run covers several passes and at least 100 cases at the
# baseline commit; nap(3,3) and nap(1,8) take 30-140 s each and would be most
# of a run. `bound` holds one member of dim 15, nabc(1,3,3), so that costs
# that grow faster than linearly with dim are measured too; it is one twin
# in 13 but about a quarter of a pass's time. Each grid puts its costliest members
# (listed first in the comments) at 15-20% of the cases once rebased, so
# that p90 falls inside that group and not at its edge, where it would jump
# between groups. For the same reason the `decompose` median falls among
# cases of similar cost.
BOUND_GRID = (  # costliest: nabc(1,3,3), nap(2,2), nabc(2,2,2), nabc(1,3,2), nabc(2,3,1), nap(1,4)
    ("nabc", {"a": 1, "b": 3, "c": 3}),
    ("heisenberg", {"m": 1}),
    ("nap", {"a": 2, "p": 2}),
    ("heisenberg", {"m": 4}),
    ("nabc", {"a": 2, "b": 2, "c": 2}),
    ("nabc", {"a": 1, "b": 2, "c": 2}),
    ("nabc", {"a": 1, "b": 3, "c": 2}),
    ("nap", {"a": 1, "p": 3}),
    ("nabc", {"a": 2, "b": 3, "c": 1}),
    ("nabc", {"a": 2, "b": 2, "c": 1}),
    ("nap", {"a": 1, "p": 4}),
    ("nabc", {"a": 2, "b": 1, "c": 1}),
    ("nabc", {"a": 2, "b": 1, "c": 2}),
)

DECOMPOSE_GRID = (  # costliest: nabc(1,2,2), nabc(2,1,2), nabc(2,2,1)
    ("heisenberg", {"m": 1}),
    ("nabc", {"a": 1, "b": 2, "c": 2}),
    ("heisenberg", {"m": 3}),
    ("nabc", {"a": 2, "b": 1, "c": 2}),
    ("nap", {"a": 1, "p": 3}),
    ("nabc", {"a": 2, "b": 2, "c": 1}),
    ("heisenberg", {"m": 2}),
    ("nap", {"a": 2, "p": 1}),
    ("nabc", {"a": 1, "b": 2, "c": 1}),
    ("nabc", {"a": 1, "b": 1, "c": 2}),
)

# Multipliers of the seeded elementary operations used for rebasing.
ADD_MULTIPLIERS = (-2, -1, 1, 2)
SCALE_FACTORS = (2, 3)

# `solve`: p <= 5, n1 <= 1000, weakly decreasing, in two classes split on n1.
# Light problems are CLI-bound at the baseline commit, heavy ones solver-bound.
SOLVE_LIGHT_MAX_N1 = 100
SOLVE_MAX_N1 = 1000
SOLVE_MAX_P = 5
# Largest n1 of a heavy problem, by p0. The solver's cost grows steeply with
# n1 once p0 >= 4: uncapped, one (5,5) problem can take seconds, a tenth of a
# run, and whether a run reaches it decides its throughput. With these caps
# the costliest heavy problem takes about 0.25 s at the baseline commit.
SOLVE_HEAVY_MAX_N1 = {4: 500, 5: 300}


@dataclass(frozen=True)
class Case:
    index: int
    cls: str  # input class: "plain"/"rebased", or "light"/"heavy" on solve
    argv: tuple[str, ...]
    meta: dict  # what the checker needs to know about the input


def _rng(seed: int, index: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{seed}:{index}")


def rat_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# Exact change of basis, done on plain dictionaries of Fractions

def _identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def elementary_basis_change(n: int, rng: random.Random):
    """A product of elementary operations with seeded multipliers, and its exact inverse.

    Row i of P gives the new basis vector y_i in old coordinates. The
    operations are one cyclic sweep y_i += m*y_{i+1}, then y_i *= c for every
    third i. The pattern is fixed, so how dense the result gets does not
    depend on the seed; only the multipliers m and c do.
    """
    p, p_inv = _identity(n), _identity(n)
    for i in range(n):
        j = (i + 1) % n
        if j == i:
            continue
        m = rng.choice(ADD_MULTIPLIERS)
        p[i] = [a + m * b for a, b in zip(p[i], p[j])]
        for row in p_inv:  # right-multiply by (I - m e_i e_j^T)
            row[j] -= m * row[i]
    for i in range(0, n, 3):
        c = rng.choice(SCALE_FACTORS)
        p[i] = [c * a for a in p[i]]
        for row in p_inv:
            row[i] /= c
    return p, p_inv


def _full_table(brackets: dict, n: int) -> dict:
    """Antisymmetric extension {(a, b): {k: c}} of an i<j bracket table."""
    full = {}
    for (i, j), terms in brackets.items():
        full[(i, j)] = dict(terms)
        full[(j, i)] = {k: -c for k, c in terms.items()}
    return full


def rebase_brackets(brackets: dict, n: int, p, p_inv) -> dict:
    """Structure constants in the basis y = P x; returns an i<j table."""
    full = _full_table(brackets, n)
    out = {}
    for i in range(n):
        pi = [(a, c) for a, c in enumerate(p[i]) if c]
        for j in range(i + 1, n):
            pj = [(b, c) for b, c in enumerate(p[j]) if c]
            acc: dict[int, Fraction] = {}
            for a, ca in pi:
                for b, cb in pj:
                    for k, ck in full.get((a, b), {}).items():
                        acc[k] = acc.get(k, 0) + ca * cb * ck
            terms = {}
            for k, v in acc.items():
                if v:
                    for l, q in enumerate(p_inv[k]):
                        if q:
                            terms[l] = terms.get(l, 0) + v * q
            terms = {k: v for k, v in terms.items() if v}
            if terms:
                out[(i, j)] = terms
    return out


def _matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(r, c)) for c in bt] for r in a]


# ---------------------------------------------------------------------------
# JSON in the program's file formats (1-based indices on the wire)

def algebra_json(name: str, n: int, brackets: dict) -> dict:
    return {
        "name": name,
        "dim": n,
        "basis": [f"y{i + 1}" for i in range(n)],
        "brackets": [
            {"i": i + 1, "j": j + 1, "terms": [[k + 1, rat_str(c)] for k, c in sorted(terms.items())]}
            for (i, j), terms in sorted(brackets.items())
        ],
    }


def representation_json(alg: dict, dim_v: int, matrices) -> dict:
    return {
        "algebra": alg,
        "dimV": dim_v,
        "matrices": [[[rat_str(x) for x in row] for row in m] for m in matrices],
    }


# ---------------------------------------------------------------------------
# Family twins

@dataclass(frozen=True)
class Twin:
    family: tuple[str, dict]
    plain: tuple[dict, dict]  # (algebra JSON, representation JSON)
    rebased: tuple[dict, dict]


def _family_tables(make_family, tag: str, params: dict):
    alg, rep = make_family(tag, **params)
    brackets = {ij: {k: Fraction(c) for k, c in terms} for ij, terms in alg.brackets}
    mats = [[[Fraction(x) for x in row] for row in m.entries] for m in rep.matrices]
    return alg.name, alg.dim, brackets, rep.dimV, mats


def _permute(mats, perm):
    return [mats[perm[i]] for i in range(len(perm))]


def make_twin(make_family, grid, seed: int, pair: int, with_rep: bool) -> Twin:
    """The family's basis in a seeded order, and its rebased twin.

    The twin is rebased in the family's own order and then put in the same
    seeded order, so its density does not depend on the seed either.
    """
    tag, params = grid[pair % len(grid)]
    name, n, brackets, dim_v, mats = _family_tables(make_family, tag, params)
    rng = _rng(seed, pair, "twin")
    perm = list(range(n))
    rng.shuffle(perm)  # y_i = x_perm[i]: still a matrix-unit basis
    to_perm = [[Fraction(int(perm[i] == j)) for j in range(n)] for i in range(n)]
    from_perm = [list(col) for col in zip(*to_perm)]

    q, q_inv = elementary_basis_change(n, rng)
    plain_alg = algebra_json(name, n, rebase_brackets(brackets, n, to_perm, from_perm))
    dense_br = rebase_brackets(rebase_brackets(brackets, n, q, q_inv), n, to_perm, from_perm)
    dense_alg = algebra_json(name, n, dense_br)
    if not with_rep:
        return Twin((tag, params), (plain_alg, {}), (dense_alg, {}))

    s, s_inv = elementary_basis_change(dim_v, rng)
    dense_mats = []
    for row in q:
        m = [[Fraction(0)] * dim_v for _ in range(dim_v)]
        for coeff, unit in zip(row, mats):
            if coeff:
                m = [[x + coeff * u for x, u in zip(mr, ur)] for mr, ur in zip(m, unit)]
        dense_mats.append(_matmul(_matmul(s, m), s_inv))
    return Twin(
        (tag, params),
        (plain_alg, representation_json(plain_alg, dim_v, _permute(mats, perm))),
        (dense_alg, representation_json(dense_alg, dim_v, _permute(dense_mats, perm))),
    )


def twin_cases(workload: str, make_family, seed: int, pair: int, workdir: Path) -> list[Case]:
    grid = BOUND_GRID if workload == "bound" else DECOMPOSE_GRID
    twin = make_twin(make_family, grid, seed, pair, with_rep=workload == "decompose")
    tag, params = twin.family
    cases = []
    for offset, (cls, (alg, rep)) in enumerate((("plain", twin.plain), ("rebased", twin.rebased))):
        index = 2 * pair + offset
        path = workdir / f"case{index:05d}.json"
        path.write_text(json.dumps(rep if workload == "decompose" else alg, indent=1))
        meta = {"family": tag, "params": params}
        if workload == "bound":
            argv = ("bound", str(path))
        else:
            case_seed = _rng(seed, pair, "dseed").randrange(1000)
            argv = ("decompose", str(path), "--seed", str(case_seed))
        cases.append(Case(index, cls, argv, meta))
    return cases


# ---------------------------------------------------------------------------
# Bare integer programs

SOLVE_SHAPES = tuple((p, p0) for p in range(1, SOLVE_MAX_P + 1) for p0 in range(1, p + 1))
# Heavy problems with p0 >= 3 carry most of the solver time, with costs that
# spread over two decades even with the caps above. Drawn per seed they would
# make a run's throughput depend on which costly problems the seed happens to
# hold, and they hold the p90 case. So their dims depend on the case index
# only: every run meets the same tail, and every other problem still comes
# from the seed.
SOLVE_TAIL_SHAPES = frozenset(shape for shape in SOLVE_SHAPES if shape[1] >= 3)


def solve_case(seed: int, index: int) -> Case:
    """Even indices are light (n1 <= 100), odd ones heavy (100 < n1 <= 1000, capped by p0).

    Each pair of cases takes the next (p, p0) shape in a fixed cycle, so
    every run holds the shapes in equal numbers.
    """
    p, p0 = SOLVE_SHAPES[(index // 2) % len(SOLVE_SHAPES)]
    heavy = index % 2 == 1
    if heavy and (p, p0) in SOLVE_TAIL_SHAPES:
        rng = random.Random(f"solve-tail:{index}")
    else:
        rng = _rng(seed, index, "solve")
    lo, hi = (SOLVE_LIGHT_MAX_N1 + 1, SOLVE_HEAVY_MAX_N1.get(p0, SOLVE_MAX_N1)) if heavy else (1, SOLVE_LIGHT_MAX_N1)
    dims = [rng.randint(lo, hi)]
    for _ in range(p - 1):
        dims.append(rng.randint(1, dims[-1]))
    argv = ("solve", "--p", str(p), "--p0", str(p0), "--dims", ",".join(map(str, dims)))
    return Case(index, "heavy" if heavy else "light", argv, {"p": p, "p0": p0, "dims": dims})


class CaseSource:
    """Lazily generated, indexable cases for one workload and seed."""

    def __init__(self, workload: str, seed: int, workdir: Path, make_family):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.make_family = make_family
        self.cases: dict[int, Case] = {}
        self.generated = 0

    def ensure(self, count: int) -> None:
        while self.generated < count:
            if self.workload == "solve":
                new = [solve_case(self.seed, self.generated)]
            else:
                new = twin_cases(self.workload, self.make_family, self.seed, self.generated // 2, self.workdir)
            for case in new:
                self.cases[case.index] = case
            self.generated += len(new)

    def __getitem__(self, i: int) -> Case:
        self.ensure(i + 1)
        return self.cases[i]

    def release(self, i: int) -> None:
        """Forget case i and delete its input file."""
        case = self.cases.pop(i)
        if self.workload != "solve":
            Path(case.argv[1]).unlink()
