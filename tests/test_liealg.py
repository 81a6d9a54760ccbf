import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    conjugated_dense_representation,
    frac_combination,
    frac_commutator,
    frac_matrix,
    frac_product,
    random_upper_triangular_subalgebra,
    representation_of,
)
from nilbound.families import make_abelian, make_heisenberg, make_nabc, make_nap
from nilbound.liealg import (
    LieAlgebra,
    NotNilpotentError,
    Representation,
    admissible_p0_set,
    algebra_from_matrix_basis,
    algebra_from_json,
    algebra_to_json,
    bracket,
    bracket_subspaces,
    center,
    default_filtration,
    is_faithful,
    is_nilpotent,
    lower_central_series,
    make_filtration,
    representation_from_json,
    representation_to_json,
    validate,
    validate_filtration,
    validate_representation,
)
from nilbound.linalg import Q, Subspace, kernel_basis, span, vec


@pytest.fixture(scope="module")
def heis():
    return make_heisenberg(1)


def broken_jacobi_algebra() -> LieAlgebra:
    # [x,y] = x and [y,z] = y break the Jacobi sum on the triple (1,2,3)
    return LieAlgebra.create("broken", 3, {(0, 1): ((0, 1),), (1, 2): ((1, 1),)})


def dense_rational_algebra(seed: int) -> tuple[LieAlgebra, Representation]:
    """A random matrix algebra in the basis y_i = x_i + sum_{j > i} t_ij x_j with rational t_ij.

    The unitriangular change of basis makes the structure constants dense and
    non-integral, unlike the matrix-unit bases of the families.
    """
    _, rep = random_upper_triangular_subalgebra(seed)
    mats = rep.matrices
    rebased = [
        frac_combination(
            [(1, m)] + [(Q(j - i, 2 * j + 3) * (-1) ** j, mats[j]) for j in range(i + 1, len(mats))],
            rep.dimV,
        )
        for i, m in enumerate(mats)
    ]
    return algebra_from_matrix_basis(f"dense_{seed}", [m.entries for m in rebased])


@pytest.fixture(scope="module")
def dense():
    return dense_rational_algebra(0)


class TestValidate:
    def test_heisenberg_constants_valid(self, heis):
        alg, _ = heis
        assert validate(alg) == []

    def test_broken_jacobi_reported_with_witness(self):
        violations = validate(broken_jacobi_algebra())
        assert violations
        assert any("(1, 2, 3)" in v for v in violations)

    def test_abelian_valid(self):
        alg, _ = make_abelian(3)
        assert validate(alg) == []

    def test_dense_rational_algebra_valid(self, dense):
        alg, rep = dense
        assert validate(alg) == []
        assert validate_representation(rep) == []
        ops, d = rep.ops
        swapped = ops[1:2] + ops[:1] + ops[2:]
        assert validate_representation(Representation(alg, rep.dimV, (swapped, d)))

    def test_violations_listed_in_triple_order(self):
        alg = LieAlgebra.create("broken5", 5, {
            (0, 1): ((2, 1),),
            (0, 2): ((0, Fraction(1, 2)), (3, 1)),
            (1, 2): ((1, 1), (4, -2)),
            (1, 3): ((4, 3),),
            (2, 3): ((0, 1),),
            (0, 4): ((3, Fraction(-2, 3)),),
        })
        assert validate(alg) == [
            "Jacobi fails at triple (1, 2, 3)",
            "Jacobi fails at triple (1, 2, 4)",
            "Jacobi fails at triple (1, 2, 5)",
            "Jacobi fails at triple (1, 3, 5)",
            "Jacobi fails at triple (2, 3, 4)",
            "Jacobi fails at triple (3, 4, 5)",
        ]


class TestBracket:
    def test_heisenberg_x_y_is_z(self, heis):
        alg, _ = heis
        x, y, z = Subspace.full(3).rows
        assert bracket(alg, x, y) == z

    def test_antisymmetry_on_diagonal(self, heis):
        alg, _ = heis
        v = vec([1, -2, 3])
        assert all(c == 0 for c in bracket(alg, v, v))

    def test_abelian_brackets_vanish(self):
        alg, _ = make_abelian(4)
        assert all(c == 0 for c in bracket(alg, vec([1, 2, 3, 4]), vec([4, 3, 2, 1])))

    def test_length_mismatch(self, heis):
        alg, _ = heis
        with pytest.raises(ValueError):
            bracket(alg, vec([1, 0]), vec([0, 1, 0]))

    def test_adjoint_table_is_antisymmetric(self, dense):
        alg, _ = dense
        d = alg.denominator
        assert d == math.lcm(*(c.denominator for _, terms in alg.brackets for _, c in terms)) > 1
        for (i, j), terms in alg.brackets:
            assert alg.ad[i][j] == tuple((k, int(d * c)) for k, c in terms)
            assert alg.ad[j][i] == tuple((k, int(-d * c)) for k, c in terms)
            assert all(type(c) is int for _, c in alg.ad[i][j] + alg.ad[j][i])
            assert all((d * c).denominator == 1 for _, c in terms)
        assert sum(len(row) for row in alg.ad) == 2 * len(alg.brackets)

    def test_adjoint_table_scales_by_the_lcm(self):
        alg = LieAlgebra.create("frac", 4, {(0, 1): ((2, Fraction(1, 4)), (3, Fraction(-5, 6))), (0, 2): ((3, 2),)})
        assert alg.denominator == 12
        assert alg.ad[0] == {1: ((2, 3), (3, -10)), 2: ((3, 24),)}
        assert alg.ad[1] == {0: ((2, -3), (3, 10))}
        assert alg.ad[2] == {0: ((3, -24),)}
        assert bracket(alg, vec([1, 0, 0, 0]), vec([0, 1, 0, 0])) == (0, 0, Fraction(1, 4), Fraction(-5, 6))

    def test_abelian_table_is_empty_with_denominator_one(self):
        alg, _ = make_abelian(3)
        assert alg.denominator == 1
        assert alg.ad == ({}, {}, {})
        assert bracket(alg, vec([1, 2, 3]), vec([3, 2, 1])) == (0, 0, 0)
        assert center(alg) == Subspace.full(3)
        assert validate(alg) == []


class TestSeriesAndCenter:
    def test_heisenberg_series(self, heis):
        alg, _ = heis
        assert [s.dim for s in lower_central_series(alg)] == [3, 1]

    def test_nabc_112_series(self):
        alg, _ = make_nabc(1, 1, 2)
        assert [s.dim for s in lower_central_series(alg)] == [5, 2]

    def test_abelian_series(self):
        alg, _ = make_abelian(4)
        assert [s.dim for s in lower_central_series(alg)] == [4]

    def test_heisenberg_center(self, heis):
        alg, _ = heis
        z = center(alg)
        assert z.dim == 1
        assert z == span([(0, 0, 1)])

    def test_nabc_232_center(self):
        alg, _ = make_nabc(2, 3, 2)
        assert center(alg).dim == 4

    def test_abelian_center_is_everything(self):
        alg, _ = make_abelian(5)
        assert center(alg) == Subspace.full(5)

    def test_center_is_kernel_of_stacked_adjoint(self, dense):
        alg, _ = dense
        n = alg.dim
        basis = Subspace.full(n).rows
        brackets = [[bracket(alg, basis[i], basis[j]) for j in range(n)] for i in range(n)]
        rows = [[brackets[i][j][k] for i in range(n)] for j in range(n) for k in range(n)]
        assert center(alg) == kernel_basis(frac_matrix(rows))

    def test_series_list_is_fresh(self, heis):
        alg, _ = heis
        first = lower_central_series(alg)
        expected = list(first)
        first.append(Subspace.zero(3))
        first[0] = Subspace.zero(3)
        assert lower_central_series(alg) == expected

    def test_nilpotency_detection(self, heis):
        alg, _ = heis
        assert is_nilpotent(alg)
        solvable = LieAlgebra.create("solvable", 2, {(0, 1): ((1, 1),)})
        assert not is_nilpotent(solvable)


class TestFiltrations:
    def test_heisenberg_default(self, heis):
        alg, _ = heis
        filt = default_filtration(alg)
        assert filt.dims == (3, 1)
        assert admissible_p0_set(filt)[-1] == filt.p == 2
        assert validate_filtration(filt) == []

    def test_nabc_114_default(self):
        alg, _ = make_nabc(1, 1, 4)
        filt = default_filtration(alg)
        assert filt.dims == (9, 4)
        assert admissible_p0_set(filt)[-1] == filt.p == 2

    def test_nap_13_default(self):
        alg, _ = make_nap(1, 3)
        filt = default_filtration(alg)
        assert filt.dims == (6, 3, 1)
        assert admissible_p0_set(filt)[-1] == filt.p == 3

    def test_non_nilpotent_rejected(self):
        solvable = LieAlgebra.create("solvable", 2, {(0, 1): ((1, 1),)})
        with pytest.raises(NotNilpotentError):
            default_filtration(solvable)

    def test_admissible_p0_heisenberg(self, heis):
        alg, _ = heis
        assert admissible_p0_set(default_filtration(alg)) == [2]

    def test_admissible_p0_abelian_single_level(self):
        alg, _ = make_abelian(4)
        filt = make_filtration(alg, [Subspace.full(4)])
        assert admissible_p0_set(filt) == [1]

    def test_admissible_p0_nap13(self):
        alg, _ = make_nap(1, 3)
        assert admissible_p0_set(default_filtration(alg)) == [3]

    def test_constant_chain_fails_multiplicativity(self, heis):
        alg, _ = heis
        filt = make_filtration(alg, [Subspace.full(3), Subspace.full(3)])
        violations = validate_filtration(filt)
        assert violations
        assert any("n_3" in v for v in violations)

    def test_violations_list_each_unordered_pair_once(self, heis):
        alg, _ = heis
        assert validate_filtration(make_filtration(alg, [Subspace.full(3)] * 3)) == [
            "[n_1, n_3] is nonzero but n_4 = 0",
            "[n_2, n_2] is nonzero but n_4 = 0",
            "[n_2, n_3] is nonzero but n_5 = 0",
            "[n_3, n_3] is nonzero but n_6 = 0",
        ]

    def test_trailing_zeros_stripped(self, heis):
        alg, _ = heis
        chain = list(default_filtration(alg).chain) + [Subspace.zero(3)]
        filt = make_filtration(alg, chain)
        assert filt.p == 2


class TestRepresentations:
    def test_defining_rep_validates(self, heis):
        _, rep = heis
        assert validate_representation(rep) == []
        assert is_faithful(rep)

    def test_homomorphism_failure_detected(self, heis):
        alg, rep = heis
        bad = representation_of(alg, rep.dimV, rep.matrices[:2] + ([[0] * 3] * 3,))
        assert validate_representation(bad)

    def test_non_nilpotent_matrix_detected(self, heis):
        alg, _ = heis
        violations = validate_representation(representation_of(alg, 3, [Subspace.full(3).rows] * 3))
        assert any("nilpotent" in v for v in violations)

    def test_zero_rep_not_faithful(self, heis):
        alg, _ = heis
        rep = representation_of(alg, 2, [[[0] * 2] * 2] * 3)
        assert not is_faithful(rep)

    def test_matrix_basis_rejects_dependent_or_open_spans(self):
        e12, e21 = [[0, 1], [0, 0]], [[0, 0], [1, 0]]
        with pytest.raises(ValueError, match="empty"):
            algebra_from_matrix_basis("none", [])
        with pytest.raises(ValueError, match="linearly dependent"):
            algebra_from_matrix_basis("twice", [e12, frac_combination([(3, frac_matrix(e12))], 2).entries])
        # [E_12, E_21] = E_11 - E_22 lies outside span{E_12, E_21}
        with pytest.raises(ValueError, match="not closed"):
            algebra_from_matrix_basis("sl2-part", [e12, e21])

    @pytest.mark.parametrize("seed", range(4))
    def test_matrix_basis_of_a_dense_conjugate_keeps_the_constants(self, seed):
        # conjugation keeps the structure constants; here d > 1 and the pivot block is not a unit block
        alg, _ = random_upper_triangular_subalgebra(seed)
        dense = conjugated_dense_representation(seed)
        again, rep = algebra_from_matrix_basis("again", [m.entries for m in dense.matrices])
        assert again.brackets == alg.brackets
        assert rep.ops == dense.ops and rep.ops[1] > 1


class TestJsonRoundTrip:
    def test_algebra_round_trip(self):
        alg, _ = make_nabc(1, 2, 1)
        assert algebra_from_json(algebra_to_json(alg)) == alg

    def test_representation_round_trip(self, heis):
        _, rep = heis
        again = representation_from_json(representation_to_json(rep))
        assert again == rep

    def test_integer_entries_read_as_fractions_would_be(self):
        # integer entries are kept as ints; as "k/1" strings they go through rat, and the representation is the same
        doc = representation_to_json(conjugated_dense_representation(0))
        spelled = {"+3": "3/1", "-0": "0/1", "007": "7/1"}
        as_ints = [[[int(x) if "/" not in x else x for x in row] for row in m] for m in doc["matrices"]]
        as_ints[0][0][:3] = list(spelled)
        as_fractions = [[[x if "/" in x else f"{x}/1" for x in row] for row in m] for m in doc["matrices"]]
        as_fractions[0][0][:3] = list(spelled.values())
        reads = [representation_from_json({**doc, "matrices": mats}) for mats in (as_ints, as_fractions)]
        assert reads[0] == reads[1]
        assert reads[0].ops[1] > 1

    def test_fractional_coefficients_survive(self):
        alg = LieAlgebra.create("frac", 3, {(0, 1): ((2, Fraction(1, 3)),)})
        assert algebra_from_json(algebra_to_json(alg)) == alg


coords = st.lists(st.integers(-4, 4), min_size=3, max_size=3)


@given(coords, coords, coords)
@settings(max_examples=50, deadline=None)
def test_bracket_bilinearity_and_jacobi(u, v, w):
    alg, _ = make_heisenberg(1)
    uv, vv, wv = vec(u), vec(v), vec(w)
    lhs = bracket(alg, tuple(a + b for a, b in zip(uv, vv)), wv)
    rhs = tuple(a + b for a, b in zip(bracket(alg, uv, wv), bracket(alg, vv, wv)))
    assert lhs == rhs
    jac = [
        bracket(alg, uv, bracket(alg, vv, wv)),
        bracket(alg, vv, bracket(alg, wv, uv)),
        bracket(alg, wv, bracket(alg, uv, vv)),
    ]
    assert all(sum(t[i] for t in jac) == 0 for i in range(3))


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_bracket_matches_structure_constant_definition(dense, data):
    alg, _ = dense
    u = data.draw(st.lists(rationals, min_size=alg.dim, max_size=alg.dim))
    v = data.draw(st.lists(rationals, min_size=alg.dim, max_size=alg.dim))
    # sum over i < j of (u_i v_j - u_j v_i) c_ij^k, straight from the table
    expected = [Q(0)] * alg.dim
    for (i, j), terms in alg.brackets:
        for k, c in terms:
            expected[k] += (u[i] * v[j] - u[j] * v[i]) * c
    assert bracket(alg, u, v) == tuple(expected)


def fraction_jacobi_violations(alg: LieAlgebra) -> list[str]:
    """The Jacobi check straight from the Fraction constants, over every basis triple."""
    c = {}
    for (i, j), terms in alg.brackets:
        for k, x in terms:
            c[i, j, k], c[j, i, k] = x, -x
    n = alg.dim
    violations = []
    for i, j, k in combinations(range(n), 3):
        total = [Fraction(0)] * n
        for a, b, e in ((i, j, k), (j, k, i), (k, i, j)):
            # [x_a, [x_b, x_e]] = sum_l c_be^l [x_a, x_l]
            for l in range(n):
                for m in range(n):
                    total[m] += c.get((b, e, l), 0) * c.get((a, l, m), 0)
        if any(total):
            violations.append(f"Jacobi fails at triple ({i + 1}, {j + 1}, {k + 1})")
    return violations


REFERENCE_FAMILIES = [make_heisenberg(2), make_nap(1, 3), make_nabc(1, 2, 1), random_upper_triangular_subalgebra(3, 5, 7)]
small_rationals = st.fractions(min_value=-2, max_value=2, max_denominator=5)
nonzero_rationals = small_rationals.filter(lambda x: x != 0)


def draw_rebased(data) -> Representation:
    """A family in a rebased basis with non-integral constants, its algebra sometimes broken."""
    _, rep = data.draw(st.sampled_from(REFERENCE_FAMILIES))
    mats = rep.matrices
    n = len(mats)
    # y_i = s_i x_i + sum_{j > i} t_ij x_j with s_i != 0: triangular, so an invertible change of basis
    rebased = [
        frac_combination(
            [(data.draw(nonzero_rationals), mats[i])]
            + [(data.draw(small_rationals), mats[j]) for j in range(i + 1, n)],
            rep.dimV,
        )
        for i in range(n)
    ]
    alg, rep = algebra_from_matrix_basis("rebased", [m.entries for m in rebased])
    if data.draw(st.booleans()):
        i, j = data.draw(st.sampled_from(list(combinations(range(n), 2))))
        k, delta = data.draw(st.integers(0, n - 1)), data.draw(nonzero_rationals)
        brackets = dict(alg.brackets)
        terms = dict(brackets.get((i, j), ()))
        terms[k] = terms.get(k, 0) + delta
        brackets[(i, j)] = tuple(terms.items())
        alg = LieAlgebra.create("broken", n, brackets)
    assume(alg.denominator > 1)
    return Representation(alg, rep.dimV, rep.ops)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_validate_matches_the_fraction_reference(data):
    """On rebased algebras with non-integral constants, some of them broken, the verdicts agree."""
    alg = draw_rebased(data).algebra
    assert validate(alg) == fraction_jacobi_violations(alg)


def fraction_representation_violations(rep: Representation) -> list[str]:
    """The representation check on the Fraction matrices, with the nested-loop oracles of conftest."""
    dim_v, mats = rep.dimV, rep.matrices
    constants = dict(rep.algebra.brackets)
    violations = []
    for i, j in combinations(range(len(mats)), 2):
        rhs = frac_combination([(c, mats[k]) for k, c in constants.get((i, j), ())], dim_v)
        if frac_commutator(mats[i], mats[j]) != rhs:
            violations.append(f"homomorphism fails on basis pair ({i + 1}, {j + 1})")
    for i, m in enumerate(mats):
        power = m
        for _ in range(dim_v - 1):
            power = frac_product(power, m)
        if any(map(any, power.entries)):
            violations.append(f"rho(x_{i + 1}) is not nilpotent")
    return violations


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_validate_representation_matches_the_fraction_reference(data):
    """On the same rebased matrices, with the algebra sometimes broken and one generator sometimes
    given a nonzero diagonal entry, the integer check lists what the Fraction one does."""
    rep = draw_rebased(data)
    mats = list(rep.matrices)
    if data.draw(st.booleans()):
        k, c = data.draw(st.integers(0, len(mats) - 1)), data.draw(nonzero_rationals)
        corner = frac_matrix([[int(i == j == 0) for j in range(rep.dimV)] for i in range(rep.dimV)])
        mats[k] = frac_combination([(1, mats[k]), (c, corner)], rep.dimV)
    rep = representation_of(rep.algebra, rep.dimV, mats)
    assume(rep.ops[1] > 1)
    assert validate_representation(rep) == fraction_representation_violations(rep)


# The Lie layer before it was restricted to W = D * [n, n]: every coordinate of
# each Jacobi sum, every center row, and C^2 formed from the dim^2 products.

def full_coordinate_violations(alg: LieAlgebra) -> list[str]:
    violations = []
    ad = alg.ad
    for i, j, k in combinations([i for i, row in enumerate(ad) if row], 3):
        total: dict[int, int] = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for l, inner in ad[b].get(c, ()):
                for m, outer in ad[a].get(l, ()):
                    total[m] = total.get(m, 0) + inner * outer
        if any(x != 0 for x in total.values()):
            violations.append(f"Jacobi fails at triple ({i + 1}, {j + 1}, {k + 1})")
    return violations


def full_coordinate_center(alg: LieAlgebra) -> Subspace:
    rows: dict[tuple[int, int], list] = {}
    for i, row in enumerate(alg.ad):
        for j, terms in row.items():
            for k, c in terms:
                rows.setdefault((j, k), [0] * alg.dim)[i] += c
    return kernel_basis(frac_matrix([rows[key] for key in sorted(rows)] or [[0] * alg.dim]))


def full_coordinate_series(alg: LieAlgebra) -> tuple[list[Subspace], bool]:
    full = Subspace.full(alg.dim)
    acting = span([e for e, row in zip(full.rows, alg.ad) if row], alg.dim)
    series = [full]
    while True:
        nxt = bracket_subspaces(alg, acting, series[-1])
        if nxt.dim == 0 or nxt == series[-1]:
            return series, nxt.dim == 0
        series.append(nxt)


def assert_matches_full_coordinates(alg: LieAlgebra) -> None:
    full = Subspace.full(alg.dim)
    w = bracket_subspaces(alg, full, full)
    assert alg._derived == w
    # the terms kept are exactly those at W's pivot columns
    keep = set(w.pivots)
    assert alg._ad_on_pivots == tuple(
        {j: tuple((k, c) for k, c in terms if k in keep) for j, terms in row.items()} for row in alg.ad
    )
    assert validate(alg) == full_coordinate_violations(alg)
    assert center(alg) == full_coordinate_center(alg)
    assert (lower_central_series(alg), is_nilpotent(alg)) == full_coordinate_series(alg)


DENSE = dense_rational_algebra(0)[0]  # W has rows that are not unit rows, so terms are dropped


def broken_dense_algebra() -> LieAlgebra:
    brackets = dict(DENSE.brackets)
    brackets[(0, 1)] = tuple((dict(brackets.get((0, 1), ())) | {0: Fraction(1, 3)}).items())
    alg = LieAlgebra.create("broken-dense", DENSE.dim, brackets)
    assert validate(alg)
    return alg


SL2 = algebra_from_matrix_basis("sl2", [[[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 1], [-1, -1]]])[0]


@pytest.mark.parametrize(
    "alg, w_dim",
    [
        (make_abelian(4)[0], 0),
        (LieAlgebra.create("line", 1, {}), 0),
        (SL2, 3),
        (make_nap(1, 3)[0], 3),
        (broken_jacobi_algebra(), 2),
        (DENSE, 8),
        (broken_dense_algebra(), 8),
    ],
    ids=["abelian", "dim-1", "sl2", "nap13", "broken", "dense", "broken-dense"],
)
def test_lie_layer_on_w_matches_full_coordinates_on_fixed_algebras(alg, w_dim):
    assert alg._derived.dim == w_dim
    assert_matches_full_coordinates(alg)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_lie_layer_on_w_matches_full_coordinates(data):
    """On the rebased tables of draw_rebased, some of them broken, W's pivot columns decide
    what the full coordinates do: violations in order, center and series."""
    assert_matches_full_coordinates(draw_rebased(data).algebra)
