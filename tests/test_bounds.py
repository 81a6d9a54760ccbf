import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilbound.bounds import (
    BoundProblem,
    _b_upper,
    _suffix_sums,
    first_bound,
    is_feasible,
    lower_bound_report,
    paper_second_bound,
    second_bound,
    solve_bruteforce,
    solve_exact,
    theorem_mainbound,
)
from nilbound.families import make_heisenberg, make_nabc, make_nap


class TestBoundProblem:
    def test_valid(self):
        prob = BoundProblem(2, 2, (3, 1))
        assert prob.p == 2 and prob.p0 == 2

    @pytest.mark.parametrize(
        "p,p0,n",
        [
            (0, 0, ()),
            (2, 3, (3, 1)),
            (2, 2, (3,)),
            (2, 2, (1, 3)),
            (2, 2, (3, 0)),
        ],
    )
    def test_invalid(self, p, p0, n):
        with pytest.raises(ValueError):
            BoundProblem(p, p0, n)


class TestFeasibility:
    def test_heisenberg_profile(self):
        prob = BoundProblem(2, 2, (3, 1))
        assert is_feasible(prob, (1, 1, 1))

    def test_sparse_profile_fails_constraint_b(self):
        prob = BoundProblem(2, 2, (3, 1))
        assert not is_feasible(prob, (1, 0, 1))

    def test_zero_a0_fails(self):
        prob = BoundProblem(2, 2, (3, 1))
        assert not is_feasible(prob, (0, 3, 1))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            is_feasible(BoundProblem(2, 2, (3, 1)), (1, 1))


class TestBruteforce:
    def test_heisenberg(self):
        sol = solve_bruteforce(BoundProblem(2, 2, (3, 1)))
        assert (sol.r0_min, sol.witness) == (3, (1, 1, 1))

    def test_abelian_4(self):
        sol = solve_bruteforce(BoundProblem(1, 1, (4,)))
        assert (sol.r0_min, sol.witness) == (4, (2, 2))

    def test_9_4(self):
        sol = solve_bruteforce(BoundProblem(2, 2, (9, 4)))
        assert (sol.r0_min, sol.witness) == (6, (1, 1, 4))


class TestExactSolver:
    def test_6_3_1(self):
        sol = solve_exact(BoundProblem(3, 3, (6, 3, 1)))
        assert (sol.r0_min, sol.witness) == (4, (1, 1, 1, 1))

    def test_heisenberg(self):
        sol = solve_exact(BoundProblem(2, 2, (3, 1)))
        assert (sol.r0_min, sol.witness) == (3, (1, 1, 1))

    def test_abelian_7_lex_smallest_witness(self):
        sol = solve_exact(BoundProblem(1, 1, (7,)))
        assert (sol.r0_min, sol.witness) == (6, (2, 4))

    @pytest.mark.parametrize(
        "n,r0_min,witness",
        [
            ((1000, 300, 50, 10, 3), 49, (8, 8, 8, 8, 8, 9)),
            ((914, 885, 300, 118, 56), 52, (3, 10, 0, 18, 0, 21)),
        ],
    )
    def test_worst_cases_stay_small(self, n, r0_min, witness):
        # bounding each variable by the remaining sum alone needs about 10^6 nodes on these
        sol = solve_exact(BoundProblem(5, 5, n))
        assert (sol.r0_min, sol.witness) == (r0_min, witness)
        assert sol.nodes_explored < 10 ** 4


def _compositions(m: int, parts: int):
    if parts == 1:
        yield (m,)
        return
    for first in range(m + 1):
        for rest in _compositions(m - first, parts - 1):
            yield (first,) + rest


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_b_upper_is_admissible(data):
    p0 = data.draw(st.integers(1, 5))
    j = data.draw(st.integers(0, p0 - 1))
    fixed = data.draw(st.lists(st.integers(0, 12), min_size=j + 1, max_size=j + 1))
    m = data.draw(st.integers(0, 12))
    a = fixed + [0] * (p0 - j)
    pre = [0]
    for x in a:
        pre.append(pre[-1] + x)
    for k in range(1, p0 + 1):
        # every completion of a_{j+1}, ..., a_{p0-1}, r_{p0} with sum m, as a profile with p = p0
        most = 0
        for free in _compositions(m, p0 - j):
            profile = tuple(fixed) + free
            r = _suffix_sums(profile)
            most = max(most, sum(profile[i] * r[k + i] for i in range(p0 - k + 1)))
        bound = _b_upper(p0, a, pre, j, m, k)
        assert bound >= most
        if j == p0 - 1:
            assert bound == most


class TestClosedForms:
    def test_first_bound_values(self):
        assert first_bound(2, 3).value == pytest.approx(3.0)
        assert first_bound(1, 4).value == pytest.approx(4.0)
        assert first_bound(3, 6).value == pytest.approx(4.0)

    def test_first_bound_exact_ceil(self):
        assert first_bound(2, 3).exact_ceil() == 3
        assert first_bound(2, 4).exact_ceil() == 4  # sqrt(12) in (3, 4]
        assert first_bound(1, 1).exact_ceil() == 2

    def test_second_bound_cases(self):
        b = paper_second_bound(2, 9, 4)
        assert b.value == pytest.approx(5.25) and b.case == "p0_equals_2"
        b = paper_second_bound(2, 5, 1)
        assert b.value == pytest.approx(4.0) and b.case == "case1"
        b = paper_second_bound(3, 26, 1)
        assert b.value == pytest.approx(math.sqrt(75)) and b.case == "case1"

    def test_second_bound_case2(self):
        b = second_bound(3, 10, 2)
        assert b.case == "case2"
        expected = math.sqrt(2 * 2 / 1 * 10 + 2 * 3 * 2 / 1 * 2) - 2 * math.sqrt(2)
        assert b.value == pytest.approx(expected)

    @pytest.mark.parametrize(
        "p,p0,n",
        [(2, 2, (16, 2)), (2, 2, (48, 8)), (3, 2, (48, 14, 1)), (4, 3, (53, 7, 2, 2))],
    )
    def test_second_bound_sound_where_paper_formula_overshoots(self, p, p0, n):
        r0 = solve_exact(BoundProblem(p, p0, n)).r0_min
        b = second_bound(p0, n[0], n[p0 - 1])
        assert b.case == "slack"
        assert b.exact_ceil() <= r0
        assert paper_second_bound(p0, n[0], n[p0 - 1]).exact_ceil() == r0 + 1

    @pytest.mark.parametrize("args", [(3, 6, 1), (2, 3, 1)])
    def test_second_bound_slack_boundary_keeps_paper_formula(self, args):
        b = second_bound(*args)
        assert b == paper_second_bound(*args)
        assert b.value == pytest.approx(first_bound(args[0], args[1]).value)

    def test_second_bound_rejects_p0_1(self):
        with pytest.raises(ValueError):
            second_bound(1, 4, 1)

    def test_mainbound_spot_values(self):
        assert theorem_mainbound(2, 5, 1) == pytest.approx(4.0)
        assert theorem_mainbound(2, 16, 4) == pytest.approx(7.0)
        assert theorem_mainbound(3, 6, 1) == pytest.approx(4.0)

    def test_mainbound_rejects_p_1(self):
        with pytest.raises(ValueError):
            theorem_mainbound(1, 4, 4)

    def test_root_bound_exact_comparisons(self):
        b = second_bound(3, 6, 1)  # sqrt(36) - 2 = 4 exactly
        assert b.case == "case2"
        assert b.leq_int(4)
        assert not b.leq_int(3)
        assert b.exact_ceil() == 4
        assert b.geq_sqrt(Fraction(16))
        assert not b.geq_sqrt(Fraction(17))


class TestReport:
    def test_heisenberg_report(self):
        alg, _ = make_heisenberg(1)
        report = lower_bound_report(alg)
        assert report["mu_nil_lower_bound"] == 3
        assert report["filtration_dims"] == [3, 1]
        assert report["per_p0"][0]["witness"] == [1, 1, 1]

    def test_nap_13_report(self):
        alg, _ = make_nap(1, 3)
        assert lower_bound_report(alg)["mu_nil_lower_bound"] == 4

    def test_nabc_232_report(self):
        alg, _ = make_nabc(2, 3, 2)
        report = lower_bound_report(alg)
        assert report["mu_nil_lower_bound"] == 7
        assert report["theorem_1_2_value"] == "7.000000"


def random_problem(rng: random.Random, max_p: int = 3, max_n1: int = 12, min_p: int = 1) -> BoundProblem:
    p = rng.randint(min_p, max_p)
    p0 = rng.randint(1, p)
    n = []
    cur = rng.randint(1, max_n1)
    for _ in range(p):
        n.append(cur)
        cur = rng.randint(1, cur)
    return BoundProblem(p, p0, tuple(n))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_oracle_equivalence_random(seed):
    prob = random_problem(random.Random(seed))
    brute = solve_bruteforce(prob)
    exact = solve_exact(prob)
    assert (exact.r0_min, exact.witness) == (brute.r0_min, brute.witness)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_oracle_equivalence_random_p4_p5(seed):
    prob = random_problem(random.Random(seed), max_p=5, max_n1=30, min_p=4)
    brute = solve_bruteforce(prob)
    exact = solve_exact(prob)
    assert (exact.r0_min, exact.witness) == (brute.r0_min, brute.witness)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_monotonicity_in_n1(seed):
    rng = random.Random(seed)
    prob = random_problem(rng)
    bigger = BoundProblem(prob.p, prob.p0, (prob.n[0] + 1,) + prob.n[1:])
    assert solve_exact(bigger).r0_min >= solve_exact(prob).r0_min


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_cap_profile_feasible(seed):
    prob = random_problem(random.Random(seed))
    cap = (prob.n[0],) + (0,) * (prob.p - 1) + (1,)
    assert is_feasible(prob, cap)
    assert solve_exact(prob).r0_min <= prob.n[0] + 1


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_first_bound_sound_and_exactly_ceilinged(seed):
    prob = random_problem(random.Random(seed), max_p=4, max_n1=30)
    fb = first_bound(prob.p0, prob.n[0])
    c = fb.exact_ceil()
    assert c <= solve_exact(prob).r0_min
    # certify the ceiling: value <= c but value > c - 1
    assert fb.leq_int(c)
    assert not fb.leq_int(c - 1)


def assert_certified_ceiling(b) -> None:
    """exact_ceil is the least c >= 0 with value <= c, by the Fraction test leq_int."""
    c = b.exact_ceil()
    assert b.leq_int(c)
    assert c == 0 or not b.leq_int(c - 1)


@pytest.mark.parametrize(
    "bound, case, ceil",
    [
        (first_bound(2, 3), "first", 3),  # sqrt(9), exact
        (first_bound(3, 800), "first", 47),
        (first_bound(6, 10 ** 6), "first", 1528),
        (paper_second_bound(2, 5, 1), "case1", 4),  # sqrt(16), exact
        (paper_second_bound(6, 10 ** 6, 7), "case1", 1550),
        (paper_second_bound(2, 9, 4), "p0_equals_2", 6),
        (paper_second_bound(2, 10 ** 6, 250000), "p0_equals_2", 1750),  # 1.75 * 10^6 / (2 * 500), exact
        (paper_second_bound(3, 6, 1), "case2", 4),  # sqrt(36) - 2, exact
        (paper_second_bound(3, 10, 2), "case2", 6),
        (paper_second_bound(6, 10 ** 6, 10 ** 6), "case2", 2000),  # sqrt(6.25 * 10^6) - sqrt(10^6) / 2, exact
        (second_bound(2, 16, 2), "slack", 7),
        (second_bound(5, 10 ** 6, 100), "slack", 1550),
    ],
)
def test_closed_form_ceiling_at_each_case(bound, case, ceil):
    assert (bound.case, bound.exact_ceil()) == (case, ceil)
    assert_certified_ceiling(bound)


@given(st.integers(1, 6), st.integers(1, 10 ** 6), st.data())
@settings(max_examples=300, deadline=None)
def test_closed_form_ceilings_are_certified(p0, n1, data):
    """Every closed form's integer ceiling against the exact Fraction test, for n1 up to 10^6."""
    assert_certified_ceiling(first_bound(p0, n1))
    if p0 >= 2:
        np0 = data.draw(st.one_of(st.integers(1, n1), st.integers(1, max(1, n1 // (2 * p0 * p0)))))
        assert_certified_ceiling(paper_second_bound(p0, n1, np0))
        assert_certified_ceiling(second_bound(p0, n1, np0))
