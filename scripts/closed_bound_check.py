#!/usr/bin/env python3
"""Compare the closed-form bounds against the exact solver.

The solver's total and largest `nodes_explored` are printed, with the
problem that took the most nodes. Three things are counted on problems
with p0 >= 2 (the one-term bound on every problem):
  - violations of the one-term bound `first_bound` (expected 0);
  - violations of the certified two-term bound `second_bound` (expected 0);
  - overshoots of the paper's two-term formula `paper_second_bound`, the
    value printed as `closed_second`. It minimises the relaxation only where
    the n_{p0} constraint binds, so it can exceed r0_min where that
    constraint is slack.
The smallest counterexamples to the paper's formula are listed, smallest
problem first.

By default the problems are random (p <= 5, n1 <= 60). With --worst-case
N1MAX the script checks, for every p <= 5, p0 >= 2 and n_{p0} <= n1 <= N1MAX,
the problem whose middle dimensions equal n_{p0} and whose tail is 1. Since
r0_min is nondecreasing in every n_k and the two-term bounds depend only on
(p0, n1, n_{p0}), these problems are the worst cases for the two-term bounds
over the whole range.

The exit status is 1 when a bound is violated or `second_bound` falls below
`first_bound`, and 0 otherwise; overshoots of the paper's formula are
reported but do not fail the run.

Usage: python scripts/closed_bound_check.py [count] [seed]
       python scripts/closed_bound_check.py --worst-case N1MAX
"""

import random
import sys

from nilbound.bounds import (
    BoundProblem,
    first_bound,
    paper_second_bound,
    second_bound,
    solve_exact,
)

LISTED = 10


def random_problems(count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        p = rng.randint(1, 5)
        p0 = rng.randint(1, p)
        n = []
        cur = rng.randint(1, 60)
        for _ in range(p):
            n.append(cur)
            cur = rng.randint(1, cur)
        yield BoundProblem(p, p0, tuple(n))


def worst_case_problems(n1_max: int):
    for p in range(2, 6):
        for p0 in range(2, p + 1):
            for n1 in range(1, n1_max + 1):
                for np0 in range(1, n1 + 1):
                    n = (n1,) + (np0,) * (p0 - 1) + (1,) * (p - p0)
                    yield BoundProblem(p, p0, n)


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "--worst-case":
        n1_max = int(sys.argv[2]) if len(sys.argv) > 2 else 60
        problems = worst_case_problems(n1_max)
        label = f"worst-case problems, n1 <= {n1_max}, p <= 5"
    else:
        count = int(sys.argv[1]) if len(sys.argv) > 1 else 1000
        seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
        problems = random_problems(count, seed)
        label = f"random problems, seed {seed}"
    total = two_term_total = first_bad = second_bad = dominance_bad = 0
    nodes = 0
    most_nodes = (0, None)
    paper_over = []
    for prob in problems:
        total += 1
        sol = solve_exact(prob)
        r0 = sol.r0_min
        nodes += sol.nodes_explored
        if sol.nodes_explored > most_nodes[0]:
            most_nodes = (sol.nodes_explored, prob)
        fb = first_bound(prob.p0, prob.n[0])
        if fb.exact_ceil() > r0:
            first_bad += 1
        if prob.p0 < 2:
            continue
        two_term_total += 1
        n1, np0 = prob.n[0], prob.n[prob.p0 - 1]
        sb = second_bound(prob.p0, n1, np0)
        if sb.exact_ceil() > r0:
            second_bad += 1
        if not sb.geq_sqrt(fb.q):
            dominance_bad += 1
        pb = paper_second_bound(prob.p0, n1, np0)
        if pb.exact_ceil() > r0:
            paper_over.append((prob, r0, pb.exact_ceil(), pb.case))
    print(f"{total} {label}, {two_term_total} with p0 >= 2")
    print(f"solver nodes: total {nodes}, max {most_nodes[0]} at {most_nodes[1]}")
    print(f"first_bound violations: {first_bad}")
    print(f"second_bound violations: {second_bad}")
    print(f"second_bound below first_bound: {dominance_bad}")
    print(f"paper formula overshoots: {len(paper_over)}")
    smallest = sorted(set(paper_over), key=lambda t: (t[0].n[0], t[0].p, t[0].p0, t[0].n))
    for prob, r0, ceil, case in smallest[:LISTED]:
        print(f"  p={prob.p} p0={prob.p0} n={prob.n} r0_min={r0} paper ceiling={ceil} case={case}")
    return 1 if first_bad or second_bad or dominance_bad else 0


if __name__ == "__main__":
    sys.exit(main())
