"""Acceptance suite: one pass/fail line per criterion.

Each test prints a `criterion N: PASS|FAIL` line before its assertions so a
transcript of the run doubles as the acceptance report.
"""

import random
import time

import pytest

from conftest import random_upper_triangular_subalgebra
from nilbound.bounds import (
    BoundProblem,
    first_bound,
    lower_bound_report,
    second_bound,
    solve_bruteforce,
    solve_exact,
    theorem_mainbound,
)
from nilbound.decomposition import (
    build_adapted_basis,
    decompose,
    extract_profile,
    verify_block_structure,
    verify_decomposition,
)
from nilbound.families import make_nabc, make_nap

NAP_CASES = [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)]
NABC_CASES = [(1, 2, 1), (1, 3, 2), (2, 3, 1), (1, 1, 1), (2, 3, 2), (2, 4, 2)]


def report_line(num: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num}: {status}{suffix}")


def ceil_sqrt_exact(radicand: int) -> int:
    """Smallest integer s >= 0 with s*s >= radicand, by integer comparison."""
    s = 0
    while s * s < radicand:
        s += 1
    return s


def test_criterion_1_nap_reproduction():
    failures = []
    for a, p in NAP_CASES:
        t0 = time.time()
        alg, _ = make_nap(a, p)
        got = lower_bound_report(alg)["mu_nil_lower_bound"]
        elapsed = time.time() - t0
        if got != (p + 1) * a or elapsed >= 10:
            failures.append((a, p, got, elapsed))
    report_line(1, not failures)
    assert not failures, failures


def test_criterion_2_nabc_reproduction():
    failures = []
    for a, b, c in NABC_CASES:
        t0 = time.time()
        alg, _ = make_nabc(a, b, c)
        got = lower_bound_report(alg)["mu_nil_lower_bound"]
        elapsed = time.time() - t0
        if got != a + b + c or elapsed >= 30:
            failures.append((a, b, c, got, elapsed))
    report_line(2, not failures)
    assert not failures, failures


def _weakly_decreasing(p: int, n1_max: int):
    def rec(prefix):
        if len(prefix) == p:
            yield tuple(prefix)
            return
        top = prefix[-1] if prefix else n1_max
        for v in range(1, top + 1):
            yield from rec(prefix + [v])

    yield from rec([])


def test_criterion_3_oracle_equivalence():
    t0 = time.time()
    mismatches = []
    count = 0
    for p in (1, 2, 3):
        for n in _weakly_decreasing(p, 12):
            for p0 in range(1, p + 1):
                prob = BoundProblem(p, p0, n)
                brute = solve_bruteforce(prob)
                exact = solve_exact(prob)
                count += 1
                if (exact.r0_min, exact.witness) != (brute.r0_min, brute.witness):
                    mismatches.append((p, p0, n))
    elapsed = time.time() - t0
    ok = not mismatches and elapsed < 300
    report_line(3, ok, f"{count} instances in {elapsed:.1f}s")
    assert ok, mismatches


def _random_bound_problem(rng: random.Random) -> BoundProblem:
    p = rng.randint(1, 5)
    p0 = rng.randint(1, p)
    n = []
    cur = rng.randint(1, 60)
    for _ in range(p):
        n.append(cur)
        cur = rng.randint(1, cur)
    return BoundProblem(p, p0, tuple(n))


def test_criterion_4_closed_form_soundness():
    rng = random.Random(20260823)
    first_violations = []
    second_violations = []
    dominance_violations = []
    for _ in range(1000):
        prob = _random_bound_problem(rng)
        r0 = solve_exact(prob).r0_min
        fb = first_bound(prob.p0, prob.n[0])
        if fb.exact_ceil() > r0:
            first_violations.append(prob)
        if prob.p0 >= 2:
            sb = second_bound(prob.p0, prob.n[0], prob.n[prob.p0 - 1])
            if sb.exact_ceil() > r0:
                second_violations.append((prob, r0, sb.exact_ceil()))
            if not sb.geq_sqrt(fb.q):
                dominance_violations.append(prob)
    ok = not (first_violations or second_violations or dominance_violations)
    report_line(
        4,
        ok,
        f"first {len(first_violations)}, second {len(second_violations)}, "
        f"dominance {len(dominance_violations)} violations",
    )
    assert not first_violations, first_violations[:5]
    assert not dominance_violations, dominance_violations[:5]
    assert not second_violations, second_violations[:5]


def test_criterion_5_mainbound_spot_values():
    cases = [
        ((2, 5, 1), 4.0, BoundProblem(2, 2, (5, 1))),
        ((2, 16, 4), 7.0, BoundProblem(2, 2, (16, 4))),
        ((3, 6, 1), 4.0, BoundProblem(3, 3, (6, 3, 1))),
    ]
    failures = []
    for args, expected, prob in cases:
        val = theorem_mainbound(*args)
        ceil = second_bound(*args).exact_ceil()
        r0 = solve_exact(prob).r0_min
        if abs(val - expected) > 1e-9 or ceil != r0:
            failures.append((args, val, ceil, r0))
    report_line(5, not failures)
    assert not failures, failures


def test_criterion_6_abelian_identity():
    t0 = time.time()
    failures = []
    for n1 in range(1, 51):
        r0 = solve_exact(BoundProblem(1, 1, (n1,))).r0_min
        # r0 = ceil(2*sqrt(n1)) iff r0^2 >= 4 n1 > (r0-1)^2
        if not (r0 * r0 >= 4 * n1 > (r0 - 1) * (r0 - 1)):
            failures.append((n1, r0))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 1
    report_line(6, ok, f"{elapsed:.2f}s")
    assert ok, failures


def test_criterion_7_n11c_sandwich():
    failures = []
    for c in range(1, 9):
        alg, _ = make_nabc(1, 1, c)
        bound = lower_bound_report(alg)["mu_nil_lower_bound"]
        upper = ceil_sqrt_exact(8 * c)  # ceil(2 sqrt(2c))
        lower = ceil_sqrt_exact(3 * alg.dim)  # ceil(sqrt(3 dim n))
        if not lower <= bound <= upper:
            failures.append((c, lower, bound, upper))
    report_line(7, not failures)
    assert not failures, failures


def _decomposition_inputs():
    inputs = []
    for a, p in NAP_CASES:
        inputs.append((f"nap({a},{p})",) + make_nap(a, p))
    for a, b, c in NABC_CASES:
        inputs.append((f"nabc({a},{b},{c})",) + make_nabc(a, b, c))
    for seed in range(200):
        alg, rep = random_upper_triangular_subalgebra(seed)
        inputs.append((f"rand_{seed}", alg, rep))
    return inputs


@pytest.fixture(scope="module")
def decomposition_grid():
    """Seed-0 pipeline results plus seed-1/2 shape summaries for every input."""
    grid = []
    for name, _, rep in _decomposition_inputs():
        dec = decompose(rep, seed=0)
        shapes = {0: (dec.partition, dec.rank_dims())}
        for seed in (1, 2):
            other = decompose(rep, seed=seed)
            shapes[seed] = (other.partition, other.rank_dims())
        grid.append((name, rep, dec, shapes))
    return grid


def test_criterion_8_decomposition_suite(decomposition_grid):
    t0 = time.time()
    failures = []
    for name, rep, dec, _ in decomposition_grid:
        ver = verify_decomposition(dec)
        if not ver.ok:
            failures.append((name, "decomposition", ver.failures[:2]))
            continue
        ab = build_adapted_basis(dec)
        blocks = verify_block_structure(ab, dec)
        if not blocks.ok:
            failures.append((name, "blocks", blocks.failures[:2]))
            continue
        profile = extract_profile(dec)
        if sum(profile) != rep.dimV:
            failures.append((name, "profile", profile))
    elapsed = time.time() - t0
    ok = not failures
    report_line(8, ok, f"{len(decomposition_grid)} inputs, verification {elapsed:.1f}s")
    assert ok, failures[:10]


def test_criterion_9_seed_stability(decomposition_grid):
    failures = []
    for name, _, _, shapes in decomposition_grid:
        if len(set(shapes.values())) != 1:
            failures.append((name, shapes))
    report_line(9, not failures)
    assert not failures, failures[:10]
