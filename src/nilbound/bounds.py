"""Integer program for the representation lower bound, plus its closed-form relaxations.

Minimize r_0 = a_0 + ... + a_p over integer profiles subject to
  (a) a_0, a_p >= 1, a_k >= 0
  (b) sum_{i=0}^{p0-k} a_i * r_{k+i} >= n_k   for k = 1..p0
  (c) a_0 * r_k >= n_k                         for k = p0..p
with suffix sums r_k = a_k + ... + a_p.

The closed-form square-root bounds are evaluated in floating point for
display; their ceilings and comparisons are computed exactly from the
radicands. A ceiling is taken in integers: for sqrt(q) it is
`math.isqrt(ceil(q) - 1) + 1`, and for the two-term case2 form an exact
integer test is walked from a start the float value picks. Exact arithmetic
does not make a formula a lower bound, though: `first_bound` and
`second_bound` never exceed the real relaxation minimum and so certify
r0_min, and the search starts from `first_bound` only. The
paper's two-term formula (`paper_second_bound`, printed in the reports as
`closed_second`) can exceed r0_min when the n_{p0} constraint is slack.

`solve_exact` cuts a node only when no completion is feasible: on each
constraint (b) by `_b_upper` (fixed pairs exact, fixed-free pairs at their
largest coefficient, free-free pairs by Motzkin-Straus), and on each
constraint (c) once it is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from nilbound.linalg import Q
from nilbound.liealg import (
    Filtration,
    LieAlgebra,
    admissible_p0_set,
    center,
    default_filtration,
    validate_filtration,
)

@dataclass(frozen=True)
class BoundProblem:
    p: int
    p0: int
    n: tuple[int, ...]

    def __post_init__(self):
        if self.p < 1 or not (1 <= self.p0 <= self.p):
            raise ValueError(f"need 1 <= p0 <= p, got p={self.p}, p0={self.p0}")
        if len(self.n) != self.p:
            raise ValueError("need exactly p chain dimensions")
        if any(x < 1 for x in self.n):
            raise ValueError("chain dimensions must be positive")
        if any(self.n[k] < self.n[k + 1] for k in range(self.p - 1)):
            raise ValueError("chain dimensions must be weakly decreasing")


@dataclass(frozen=True)
class BoundSolution:
    r0_min: int
    witness: tuple[int, ...]
    nodes_explored: int


def is_feasible(prob: BoundProblem, a) -> bool:
    a = tuple(int(x) for x in a)
    if len(a) != prob.p + 1:
        raise ValueError(f"profile must have length p+1 = {prob.p + 1}")
    if a[0] < 1 or a[prob.p] < 1 or any(x < 0 for x in a):
        return False
    r = _suffix_sums(a)
    for k in range(1, prob.p0 + 1):
        lhs = sum(a[i] * r[k + i] for i in range(prob.p0 - k + 1))
        if lhs < prob.n[k - 1]:
            return False
    for k in range(prob.p0, prob.p + 1):
        if a[0] * r[k] < prob.n[k - 1]:
            return False
    return True


def _suffix_sums(a: tuple[int, ...]) -> list[int]:
    # r[k] = a_k + ... + a_p, with r[p+1] = 0
    r = [0] * (len(a) + 1)
    for k in range(len(a) - 1, -1, -1):
        r[k] = r[k + 1] + a[k]
    return r


# ---------------------------------------------------------------------------
# Closed-form relaxation bounds, represented exactly as sqrt(q) - d*sqrt(m)

@dataclass(frozen=True)
class RootBound:
    """The real number sqrt(q) - d*sqrt(m), with q, d, m nonnegative rationals."""

    q: Fraction
    d: Fraction = Q(0)
    m: Fraction = Q(1)
    case: str = ""

    @property
    def value(self) -> float:
        return math.sqrt(self.q) - float(self.d) * math.sqrt(self.m)

    def leq_int(self, s: int) -> bool:
        """Exact test value <= s (for s >= 0), in Fractions; `exact_ceil` runs it on integers."""
        if s < 0:
            return False
        # sqrt(q) <= s + d*sqrt(m)  <=>  t := q - s^2 - d^2 m <= 2 s d sqrt(m)
        t = self.q - s * s - self.d * self.d * self.m
        if t <= 0:
            return True
        return t * t <= 4 * s * s * self.d * self.d * self.m

    def exact_ceil(self) -> int:
        """The least integer s >= 0 with value <= s, in integer arithmetic."""
        if not self.d:
            # s >= sqrt(q) <=> s^2 >= ceil(q) =: N for integer s
            n = -(-self.q.numerator // self.q.denominator)
            return math.isqrt(n - 1) + 1 if n > 0 else 0
        # leq_int on integers: with a = den * q and b = den * d^2 m for a common denominator den,
        # value <= s <=> u := a - b - den * s^2 <= 0 or u^2 <= 4 den b s^2
        dm = self.d * self.d * self.m
        den = math.lcm(self.q.denominator, dm.denominator)
        a, b = self.q.numerator * (den // self.q.denominator), dm.numerator * (den // dm.denominator)

        def leq(s: int) -> bool:
            u = a - b - den * s * s
            return u <= 0 or u * u <= 4 * den * b * s * s

        # the float value only picks the start; the walk settles the ceiling exactly either way
        s = max(0, math.floor(self.value) - 2)
        while not leq(s):
            s += 1
        while s and leq(s - 1):
            s -= 1
        return s

    def geq_sqrt(self, q1: Fraction) -> bool:
        """Exact test value >= sqrt(q1)."""
        # sqrt(q) >= sqrt(q1) + d*sqrt(m)  <=>  u := q - q1 - d^2 m >= 0
        # and u^2 >= 4 d^2 q1 m
        u = self.q - q1 - self.d * self.d * self.m
        if u < 0:
            return False
        return u * u >= 4 * self.d * self.d * q1 * self.m


def first_bound(p0: int, n1: int) -> RootBound:
    if p0 < 1 or n1 < 1:
        raise ValueError("need p0 >= 1 and n1 >= 1")
    return RootBound(Q(2 * (p0 + 1), p0) * n1, case="first")


def paper_second_bound(p0: int, n1: int, np0: int) -> RootBound:
    """The paper's two-term formula in n_1 and n_{p0}, with its case tag.

    Its three cases minimise the two-constraint relaxation on the face where
    the n_{p0} constraint binds (a_0 * r_{p0} = n_{p0}). When that constraint
    is slack at the optimum the formula overshoots the relaxation minimum and
    can exceed r0_min: (p0, n) = (2, (16, 2)) gives ceiling 8 against
    r0_min 7. Use `second_bound` where a certified bound is needed.
    """
    if p0 < 2:
        raise ValueError("the two-term bound requires p0 >= 2")
    if not n1 >= np0 >= 1:
        raise ValueError("need n1 >= np0 >= 1")
    if n1 >= ((p0 - 1) ** 2 + p0 ** 2) * np0:
        return RootBound(Q(2 * p0, p0 - 1) * (n1 - np0), case="case1")
    if p0 == 2:
        # (n1 + 3*np0) / (2*sqrt(np0)) written as a single radical
        return RootBound(Q((n1 + 3 * np0) ** 2, 4 * np0), case="p0_equals_2")
    return RootBound(
        Q(2 * (p0 - 1), p0 - 2) * n1 + Q(2 * p0 * (p0 - 1), (p0 - 2) ** 2) * np0,
        d=Q(2, p0 - 2),
        m=Q(np0),
        case="case2",
    )


def second_bound(p0: int, n1: int, np0: int) -> RootBound:
    """Certified two-term bound: the minimum of the relaxation in n_1 and n_{p0}.

    The k=1 left side is the sum of pairwise products of the p0+1 slots
    a_0, ..., a_{p0-1}, r_{p0}, so the one-term minimum sqrt(2(p0+1)/p0 * n1)
    is reached only at the equal split, whose a_0 * r_{p0} is
    2*n1 / (p0*(p0+1)). When 2*n1 > p0*(p0+1)*np0 that split meets the n_{p0}
    constraint (the slack case, tag "slack") and the minimum is the one-term
    value. Otherwise the n_{p0} constraint binds and the minimum is the
    paper's formula; at equality the two values agree. The paper's "case1"
    threshold n1 >= (2*p0^2 - 2*p0 + 1)*np0 lies inside the slack case, so
    "case1" never comes out of this function.
    """
    paper = paper_second_bound(p0, n1, np0)  # also validates the arguments
    if 2 * n1 > p0 * (p0 + 1) * np0:
        return RootBound(first_bound(p0, n1).q, case="slack")
    return paper


def theorem_mainbound(p: int, dim_n: int, dim_z: int) -> float:
    """The paper's explicit bound from dim n and the center dimension dim z.

    Evaluates the paper's two-term formula (`paper_second_bound`) at
    p0 = p, n_1 = dim n, n_p = dim z. Like that formula it can exceed r0_min
    when the n_p constraint is slack; `second_bound` is the certified value.
    """
    if p < 2:
        raise ValueError("the explicit bound requires p >= 2")
    return paper_second_bound(p, dim_n, dim_z).value


# ---------------------------------------------------------------------------
# Exact solvers

def solve_bruteforce(prob: BoundProblem) -> BoundSolution:
    """Reference oracle: plain enumeration of profiles in (sum, lex) order.

    The profile (n_1, 0, ..., 0, 1) is always feasible, so sums are capped
    at n_1 + 1.
    """
    p = prob.p
    nodes = 0
    for s in range(2, prob.n[0] + 2):
        for a in _profiles_lex(s, p):
            nodes += 1
            if is_feasible(prob, a):
                return BoundSolution(s, a, nodes)
    raise AssertionError("the cap profile (n1, 0, ..., 0, 1) must be feasible")


def _profiles_lex(s: int, p: int):
    """All (a_0..a_p) with sum s, a_0 >= 1, a_p >= 1, in lexicographic order."""

    def rec(prefix: list[int], remaining: int):
        j = len(prefix)
        if j == p:
            if remaining >= 1:
                yield tuple(prefix) + (remaining,)
            return
        lo = 1 if j == 0 else 0
        for val in range(lo, remaining):  # leave >= 1 for a_p
            prefix.append(val)
            yield from rec(prefix, remaining - val)
            prefix.pop()

    yield from rec([], s)


def _b_upper(p0: int, a: list[int], pre: list[int], j: int, m: int, k: int) -> int:
    """Upper bound on the left side of constraint (b) for index k at a search node.

    The node fixes a_0..a_j, j < p0, with pre[t] = a_0 + ... + a_{t-1}; the
    free slots a_{j+1}, ..., a_{p0-1}, r_{p0} share the remaining sum m. In
    the slots sigma = (a_0, ..., a_{p0-1}, r_{p0}) the left side sums
    sigma_i * sigma_l over the pairs i < l <= p0 with i <= p0-k, l-i >= k:
      - fixed-fixed pairs are known exactly;
      - a free slot l gets the coefficient a_0 + ... + a_{min(j, l-k, p0-k)}
        from the fixed slots, largest at l = p0, so at most that times m;
      - a clique of free slots has them spaced k apart, so at most
        w = (p0-j-1) // k + 1 of them, and by Motzkin-Straus the free-free
        pairs sum to at most (1 - 1/w) * m^2 / 2, floored as the side is an
        integer.
    At j = p0 - 1 only r_{p0} = m is free and the bound is exact.
    """
    bound = pre[min(j, p0 - k) + 1] * m
    for i in range(j - k + 1):  # fixed-fixed pairs (i, l) with k+i <= l <= j
        bound += a[i] * (pre[j + 1] - pre[k + i])
    w = (p0 - j - 1) // k + 1
    return bound + (w - 1) * m * m // (2 * w)


def solve_exact(prob: BoundProblem) -> BoundSolution:
    """Branch-and-bound over target sums ascending from the `first_bound` ceiling.

    Not from `second_bound`: scripts/closed_bound_check.py certifies that
    bound against this solver. Within a sum the search is lexicographic DFS,
    so the witness is the lexicographically smallest optimal profile, as in
    the brute-force oracle. A node fixing a_0..a_j is cut, for j < p0, when
    `_b_upper` < n_k for some k; for j >= p0, when a_0 * r_{j+1} < n_{j+1},
    the constraint (c) just made exact (the later ones are weaker, as
    r_k <= r_{j+1}; the one for k = p0 is constraint (b) for k = p0).
    a_p takes the remainder and each leaf is certified by `is_feasible`.
    """
    p, p0, n = prob.p, prob.p0, prob.n
    start = max(2, first_bound(p0, n[0]).exact_ceil())
    a = [0] * (p + 1)
    pre = [0] * (p + 1)  # pre[t] = a_0 + ... + a_{t-1}
    nodes = 0

    def search(j: int, m: int) -> bool:
        nonlocal nodes
        nodes += 1
        if j < p0:
            for k in range(1, p0 + 1):
                if _b_upper(p0, a, pre, j, m, k) < n[k - 1]:
                    return False
        elif a[0] * m < n[j]:
            return False
        if j == p - 1:
            a[p] = m
            return is_feasible(prob, a)
        for val in range(m):
            a[j + 1] = val
            pre[j + 2] = pre[j + 1] + val
            if search(j + 1, m - val):
                return True
        return False

    for s in range(start, n[0] + 2):
        for a0 in range(1, s):
            a[0] = pre[1] = a0
            if search(0, s - a0):
                return BoundSolution(s, tuple(a), nodes)
    raise AssertionError("sweep passed the always-feasible cap sum n1 + 1")


# ---------------------------------------------------------------------------
# Report pipeline

def closed_form_fields(p0: int, dims: tuple[int, ...]) -> dict:
    """The closed-form report fields for admissible index p0 and chain dims n_1, n_2, ...

    The two-term fields use the paper's formula (`paper_second_bound`) and
    are None when p0 < 2.
    """
    fb = first_bound(p0, dims[0])
    fields = {
        "closed_first": f"{fb.value:.6f}",
        "closed_first_ceil": fb.exact_ceil(),
        "closed_second": None,
        "closed_second_ceil": None,
        "case": None,
    }
    if p0 >= 2:
        sb = paper_second_bound(p0, dims[0], dims[p0 - 1])
        fields.update(closed_second=f"{sb.value:.6f}", closed_second_ceil=sb.exact_ceil(), case=sb.case)
    return fields


def lower_bound_report(alg: LieAlgebra, filtration: Filtration | None = None) -> dict:
    """Full lower-bound report over every admissible p0 of the filtration."""
    if filtration is None:
        filtration = default_filtration(alg)
    elif violations := validate_filtration(filtration):
        raise ValueError("invalid filtration: " + "; ".join(violations))
    admissible = admissible_p0_set(filtration)
    dims = filtration.dims
    per_p0 = []
    best = 0
    for p0 in admissible:
        sol = solve_exact(BoundProblem(len(dims), p0, dims))
        per_p0.append(
            {"p0": p0, "r0_min": sol.r0_min, "witness": list(sol.witness), **closed_form_fields(p0, dims)}
        )
        best = max(best, sol.r0_min)

    p = filtration.p
    thm = None
    if p >= 2:
        thm = f"{theorem_mainbound(p, alg.dim, center(alg).dim):.6f}"
    return {
        "algebra": alg.name,
        "p": p,
        "filtration_dims": list(dims),
        "per_p0": per_p0,
        "mu_nil_lower_bound": best,
        "theorem_1_2_value": thm,
    }
