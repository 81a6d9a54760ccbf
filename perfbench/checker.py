"""Output checks that do not rely on the program's own code.

The constraints of the integer program, the expected bounds of the families
and the certified one-term lower bound are re-implemented here from their
definitions. `check` returns a list of failure strings; empty means correct.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import isqrt


def suffix_sums(a: list[int]) -> list[int]:
    r = [0] * (len(a) + 1)
    for k in range(len(a) - 1, -1, -1):
        r[k] = r[k + 1] + a[k]
    return r


def feasible(p: int, p0: int, n: list[int], a: list[int]) -> bool:
    """Constraints (a)-(c) of the program for the profile a_0..a_p."""
    if len(a) != p + 1 or a[0] < 1 or a[p] < 1 or min(a) < 0:
        return False
    r = suffix_sums(a)
    for k in range(1, p0 + 1):  # (b)
        if sum(a[i] * r[k + i] for i in range(p0 - k + 1)) < n[k - 1]:
            return False
    return all(a[0] * r[k] >= n[k - 1] for k in range(p0, p + 1))  # (c)


def first_bound_ceil(p0: int, n1: int) -> int:
    """ceil(sqrt(2 (p0+1) n1 / p0)), exactly."""
    q = Fraction(2 * (p0 + 1) * n1, p0)
    s = isqrt(q.numerator // q.denominator)
    while s * s < q:
        s += 1
    return s


def has_profile_with_sum(p: int, p0: int, n: list[int], total: int) -> bool:
    """True if some feasible profile a_0..a_p sums to `total`.

    Depth-first over a_0, a_1, ...: once a_0..a_{j-1} are fixed, the suffix
    sums r_0..r_j are known (r_k = total - a_0 - ... - a_{k-1}). A branch is
    cut when an upper bound on the left side of (b) or (c) falls short. The
    bounds use r_m <= r_j for m > j, and, for the terms with unknown a_i
    (i >= j), sum a_i r_{k+i} <= r_j^2 (q-1) / (2q). That sum covers pairs
    a_i a_l with l - i >= k among the slots j..p, and q = 1 + (p-j)//k is the
    most of those slots that are pairwise k apart (Motzkin-Straus). Leaves
    are tested with `feasible` itself.
    """
    r = [total] + [0] * p
    a = [0] * (p + 1)

    def hopeless(j: int) -> bool:  # a_0..a_{j-1} fixed, r_0..r_j known
        rj = r[j]
        for k in range(p0, p + 1):  # (c)
            if a[0] * (r[k] if k <= j else rj) < n[k - 1]:
                return True
        for k in range(1, p0 + 1):  # (b)
            bound = 0
            for i in range(min(j, p0 - k + 1)):
                bound += a[i] * (r[k + i] if k + i <= j else rj)
            if p0 - k >= j:
                q = 1 + (p - j) // k
                bound += rj * rj * (q - 1) // (2 * q)
            if bound < n[k - 1]:
                return True
        return False

    def search(j: int) -> bool:
        if j == p:
            a[p] = r[p]
            return a[p] >= 1 and feasible(p, p0, n, a)
        for x in range(1 if j == 0 else 0, r[j]):  # leave r_{j+1} >= 1 for a_p
            a[j], r[j + 1] = x, r[j] - x
            if not hopeless(j + 1) and search(j + 1):
                return True
        return False

    return p >= 1 and search(0)


def has_smaller_profile(p: int, p0: int, n: list[int], r0: int) -> bool:
    """True if some feasible profile has a sum below r0.

    Raising a_0 keeps a profile feasible, so only the sum r0 - 1 is tried.
    """
    return has_profile_with_sum(p, p0, n, r0 - 1)


def strip_dims(p0: int, dims: list[int]) -> tuple[int, int, list[int]]:
    dims = list(dims)
    while dims and dims[-1] == 0:
        dims.pop()
    return len(dims), min(p0, len(dims)), dims


def family_dims(tag: str, params: dict) -> list[int]:
    """Dimensions of the centrally augmented lower central series."""
    if tag == "heisenberg":
        return [2 * params["m"] + 1, 1]
    if tag == "nabc":
        a, b, c = params["a"], params["b"], params["c"]
        return [a * b + a * c + b * c, a * c]
    a, p = params["a"], params["p"]  # nap: C^k holds the block pairs at distance >= k
    return [a * a * (p - k + 1) * (p - k + 2) // 2 for k in range(1, p + 1)]


def family_space_dim(tag: str, params: dict) -> int:
    if tag == "heisenberg":
        return params["m"] + 2
    if tag == "nabc":
        return params["a"] + params["b"] + params["c"]
    return (params["p"] + 1) * params["a"]


def expected_mu(tag: str, params: dict) -> int | None:
    if tag == "nap":
        return (params["p"] + 1) * params["a"]
    if tag == "nabc":
        return params["a"] + params["b"] + params["c"]
    return None  # Heisenberg: checked through minimality of each witness


# Each checker returns (failures, summary); the summary is what must agree
# between a plain case and its rebased twin.

def _check_bound(case, out: dict):
    fails = []
    tag, params = case.meta["family"], case.meta["params"]
    dims = family_dims(tag, params)
    if out.get("filtration_dims") != dims:
        fails.append(f"filtration_dims {out.get('filtration_dims')} != {dims}")
    best = 0
    for entry in out.get("per_p0", []):
        p, p0, n = strip_dims(entry["p0"], dims)
        w, r0 = entry["witness"], entry["r0_min"]
        if not feasible(p, p0, n, w) or sum(w) != r0:
            fails.append(f"p0={entry['p0']}: witness {w} infeasible or sum != {r0}")
        elif has_smaller_profile(p, p0, n, r0):
            fails.append(f"p0={entry['p0']}: r0_min {r0} is not minimal")
        best = max(best, r0)
    mu = out.get("mu_nil_lower_bound")
    if not out.get("per_p0") or mu != best:
        fails.append(f"mu_nil_lower_bound {mu} != max r0_min {best}")
    want = expected_mu(tag, params)
    if want is not None and mu != want:
        fails.append(f"mu_nil_lower_bound {mu} != {want}")
    return fails, {"mu_nil_lower_bound": mu}


def _check_decompose(case, out: dict):
    fails = []
    tag, params = case.meta["family"], case.meta["params"]
    if out.get("verified") is not True or out.get("failures"):
        fails.append(f"verified={out.get('verified')} failures={out.get('failures')}")
    if out.get("block_structure_ok") is not True or out.get("block_failures"):
        fails.append(f"block_structure_ok={out.get('block_structure_ok')}")
    dim_v = family_space_dim(tag, params)
    part, ranks = out.get("partition", []), out.get("rank_dims", [])
    if out.get("space_dim") != dim_v or len(out.get("vectors", [])) != (part[:1] or [None])[0]:
        fails.append("space_dim or vector count does not match the partition")
    # the grid rows are direct sums of the chain levels T_k = rho(n_k)
    grid = out.get("grid_dims", {})
    dims = [sum(d for key, d in grid.items() if key.split(",")[0] == str(k)) for k in range(1, len(part) + 1)]
    if dims != family_dims(tag, params)[: len(dims)]:
        fails.append(f"chain dims {dims} differ from the family's")
    profile = out.get("profile", [])
    p, p0, n = strip_dims(len(dims), dims)
    if sum(profile) != dim_v or not feasible(p, p0, n, profile[: p + 1]):
        fails.append(f"profile {profile} infeasible for dims {dims}")
    if ranks and profile != [dim_v - ranks[0]] + [a - b for a, b in zip(ranks, ranks[1:])] + [ranks[-1]]:
        fails.append(f"profile {profile} does not follow from rank_dims {ranks}")
    return fails, {"partition": part, "rank_dims": ranks}


def _check_solve(case, out: dict):
    p, p0, n = case.meta["p"], case.meta["p0"], case.meta["dims"]
    w, r0 = out.get("witness"), out.get("r0_min")
    fails = []
    if not isinstance(w, list) or not feasible(p, p0, n, w) or sum(w) != r0:
        fails.append(f"witness {w} infeasible or sum != r0_min {r0}")
    elif r0 < first_bound_ceil(p0, n[0]):
        fails.append(f"r0_min {r0} below the certified one-term bound")
    elif has_smaller_profile(p, p0, n, r0):
        fails.append(f"r0_min {r0} is not minimal")
    return fails, {}


CHECKS = {"bound": _check_bound, "decompose": _check_decompose, "solve": _check_solve}


def check(workload: str, case, rc, stdout: str, twin_summary: dict | None):
    """Failures of one case, and its summary for the twin comparison."""
    if rc != 0:
        return [f"exit code {rc}"], None
    try:
        out = json.loads(stdout)
        fails, summary = CHECKS[workload](case, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed output: {exc!r}"], None
    if twin_summary is not None and summary != twin_summary:
        fails.append(f"{summary} differs from the plain twin's {twin_summary}")
    return fails, summary


def corrupt(workload: str, stdout: str) -> str:
    """A wrong but well-formed output, for the checker's self-check."""
    out = json.loads(stdout)
    if workload == "bound":
        out["mu_nil_lower_bound"] += 1
    elif workload == "decompose":
        out["profile"][0] += 1
    else:
        out["witness"][0] += 1
    return json.dumps(out, indent=2) + "\n"
