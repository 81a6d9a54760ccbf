import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import frac_matrix, integer_rows
from nilbound.linalg import (
    DimensionMismatch,
    Matrix,
    Subspace,
    complement_extending,
    contains,
    intersect,
    invert,
    kernel_basis,
    rat,
    rat_str,
    rref,
    span,
)


def identity(n):
    return frac_matrix(Subspace.full(n).rows)


def fraction_basis(sub):
    """The RREF basis of a subspace as Fractions: each stored row over its pivot entry."""
    return tuple(tuple(Fraction(x, row[c]) for x in row) for row, c in zip(sub.rows, sub.pivots))


class TestRref:
    def test_proportional_rows(self):
        _, rank, pivots = rref(frac_matrix([[1, 2], [2, 4]]))
        assert rank == 1
        assert pivots == [1]

    def test_identity(self):
        r, rank, pivots = rref(identity(2))
        assert rank == 2
        assert pivots == [1, 2]
        assert r == identity(2)

    def test_single_nonzero_entry(self):
        _, rank, pivots = rref(frac_matrix([[0, 1], [0, 0]]))
        assert rank == 1
        assert pivots == [2]


class TestKernel:
    def test_e12_on_k2(self):
        ker = kernel_basis(frac_matrix([[0, 1], [0, 0]]))
        assert ker == span([[1, 0]])

    def test_identity_kernel_is_zero(self):
        assert kernel_basis(identity(3)).dim == 0

    def test_zero_matrix_kernel_is_full(self):
        assert kernel_basis(frac_matrix([[0] * 3] * 3)) == Subspace.full(3)


class TestSubspaceOps:
    def test_span_collapses_dependent_vectors(self):
        assert span([(1, 0), (2, 0)]).dim == 1

    def test_intersect_planes(self):
        a = span([(1, 0, 0), (0, 1, 0)])
        b = span([(0, 1, 0), (0, 0, 1)])
        assert intersect(a, b) == span([(0, 1, 0)])

    def test_full_space_contains_everything(self):
        assert contains(Subspace.full(3), span([(1, 2, 3)]))

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionMismatch):
            intersect(span([(1, 0)]), span([(1, 0, 0)]))


class TestComplementExtending:
    def test_pivot_greedy_in_k3(self):
        ambient = Subspace.full(3)
        inner = span([(1, 0, 0)])
        must = span([(0, 1, 0)])
        c = complement_extending(ambient, inner, must)
        assert c == span([(0, 1, 0), (0, 0, 1)])
        assert intersect(c, inner).dim == 0

    def test_diagonal_inner(self):
        c = complement_extending(Subspace.full(2), span([(1, 1)]), Subspace.zero(2))
        assert c == span([(1, 0)])

    def test_overlapping_must_contain_rejected(self):
        with pytest.raises(ValueError, match="meets inner"):
            complement_extending(Subspace.full(2), span([(1, 0)]), span([(1, 0)]))

    def test_inner_outside_ambient_rejected(self):
        with pytest.raises(ValueError, match="inner"):
            complement_extending(span([(1, 0, 0)]), span([(0, 1, 0)]), Subspace.zero(3))

    def test_outside_ambient_names_inner_before_must_contain(self):
        ambient = span([(1, 0, 0)])
        with pytest.raises(ValueError, match="^must_contain is not contained in ambient$"):
            complement_extending(ambient, Subspace.zero(3), span([(0, 0, 1)]))
        with pytest.raises(ValueError, match="^inner is not contained in ambient$"):
            complement_extending(ambient, span([(0, 1, 0)]), span([(0, 0, 1)]))


def test_rat_str_round_trip():
    assert rat_str(rat("-3/2")) == "-3/2"
    assert rat_str(rat(7)) == "7"
    assert rat("7") == Fraction(7)


def test_rat_parses_signed_integers_and_quotients():
    assert [rat(x) for x in ("+3", "-0", "007", "-6/4", "+1/3")] == [3, 0, 7, Fraction(-3, 2), Fraction(1, 3)]
    with pytest.raises(ValueError, match="zero denominator"):
        rat("1/00")


@pytest.mark.parametrize(
    "text", ["1e3", "1e999999999", "0.5", "1_0", " 1", "1\n", "1/-2", "1/", "/2", "+", "", "\u0661", "inf"]
)
def test_rat_refuses_other_strings(text):
    with pytest.raises(ValueError, match="not an integer"):
        rat(text)


def test_invert():
    m = frac_matrix([[2, 1], [1, 1]])
    assert invert(m) @ m == identity(2)


def test_invert_empty_matrix():
    assert invert(Matrix(())) == Matrix(())


small_rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)
nonzero_rationals = small_rationals.filter(bool)


@st.composite
def matrices(draw, max_dim=4):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    entries = draw(
        st.lists(st.lists(small_rationals, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    )
    return frac_matrix(entries)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(m):
    _, rank, _ = rref(m)
    assert rank + kernel_basis(m).dim == m.cols


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rref_idempotent(m):
    r, _, _ = rref(m)
    r2, _, _ = rref(r)
    assert r == r2


@given(matrices(max_dim=3), st.randoms(use_true_random=False), st.data())
@settings(max_examples=40, deadline=None)
def test_span_is_canonical_under_row_shuffling(m, rnd, data):
    rows = list(m.entries)
    scales = data.draw(st.lists(nonzero_rationals, min_size=len(rows), max_size=len(rows)))
    moved = [tuple(c * x for x in r) for c, r in zip(scales, rows)]
    rnd.shuffle(moved)
    negated = [tuple(-x for x in r) for r in rows]
    assert span(integer_rows(rows), m.cols) == span(integer_rows(moved), m.cols) == span(integer_rows(negated), m.cols)


@given(st.integers(2, 4), st.data())
@settings(max_examples=40, deadline=None)
def test_complement_properties(n, data):
    ambient = Subspace.full(n)
    k = data.draw(st.integers(0, n - 1))
    inner_rows = data.draw(
        st.lists(st.lists(small_rationals, min_size=n, max_size=n), min_size=k, max_size=k)
    )
    inner = span(integer_rows(inner_rows), n)
    c = complement_extending(ambient, inner, Subspace.zero(n))
    assert c.dim + inner.dim == n
    assert intersect(c, inner).dim == 0


# The integer kernel against a textbook Fraction Gauss-Jordan written here.

def ref_rref(rows):
    """(all rows reduced, 0-based pivot columns), eliminating on Fractions."""
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def ref_span(rows):
    """The RREF basis rows of the span."""
    reduced, pivots = ref_rref(rows)
    return tuple(tuple(r) for r in reduced[: len(pivots)])


def ref_kernel(rows, n):
    reduced, pivots = ref_rref(rows)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][f]
        basis.append(v)
    return ref_span(basis)


def ref_intersect(a, b):
    """x = sum alpha_i a_i = sum beta_j b_j: the alpha half of the kernel of [A^T | -B^T]."""
    n = a.ambient_dim
    cols = list(fraction_basis(a)) + [tuple(-x for x in v) for v in fraction_basis(b)]
    rows = [[c[i] for c in cols] for i in range(n)]
    coeffs = ref_kernel(rows, len(cols)) if cols else ()
    vecs = [[sum(c * v[i] for c, v in zip(k, fraction_basis(a))) for i in range(n)] for k in coeffs]
    return ref_span(vecs)


def ref_inside(outer, sub):
    """True iff adding sub's basis to outer's raises no rank."""
    return len(ref_rref(list(fraction_basis(outer)) + list(fraction_basis(sub)))[1]) == outer.dim


def ref_complement(ambient, inner, must):
    chosen = list(fraction_basis(must))
    current = list(fraction_basis(must)) + list(fraction_basis(inner))
    rank = len(ref_rref(current)[1])
    for cand in fraction_basis(ambient):
        if rank == ambient.dim:
            break
        if len(ref_rref(current + [cand])[1]) > rank:
            chosen.append(cand)
            current.append(cand)
            rank += 1
    return ref_span(chosen)


def ref_product(a, b):
    return [[sum(x * y for x, y in zip(r, c)) for c in zip(*b)] for r in a]


def all_fractions(rows):
    return all(type(x) is Fraction for r in rows for x in r)


def assert_stored_form(sub):
    """Each stored row is primitive, and its pivot entry is its first nonzero one and positive."""
    assert len(sub.rows) == len(sub.pivots) == sub.dim
    assert list(sub.pivots) == sorted(set(sub.pivots))
    for row, c in zip(sub.rows, sub.pivots):
        assert len(row) == sub.ambient_dim and all(type(x) is int for x in row)
        assert math.gcd(*row) == 1
        assert row[c] > 0 and not any(row[:c])


wide_entries = st.one_of(
    st.just(Fraction(0)),
    st.integers(-(10**6), 10**6).map(Fraction),
    st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 1000)),
)


@st.composite
def rational_rows(draw, rows, cols):
    """Random rows, zero rows, and combinations of two earlier rows (for low rank)."""
    out = []
    for _ in range(rows):
        kind = draw(st.sampled_from(["random", "random", "zero", "combination"]))
        if kind == "zero":
            out.append([Fraction(0)] * cols)
        elif kind == "combination" and out:
            u, v = draw(st.sampled_from(out)), draw(st.sampled_from(out))
            s, t = draw(wide_entries), draw(wide_entries)
            out.append([s * x + t * y for x, y in zip(u, v)])
        else:
            out.append(draw(st.lists(wide_entries, min_size=cols, max_size=cols)))
    return out


@st.composite
def shapes(draw):
    """Wide and tall shapes up to 6 x 9."""
    short, long = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    return (short, long) if draw(st.booleans()) else (long, short)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_rref_span_kernel_match_fraction_reference(data):
    rows, cols = data.draw(shapes())
    m = frac_matrix(data.draw(rational_rows(rows, cols)))
    reduced, pivots = ref_rref(m.entries)
    r, rank, pivots1 = rref(m)
    assert r == frac_matrix(reduced) and all_fractions(r.entries)
    assert (rank, pivots1) == (len(pivots), [c + 1 for c in pivots])
    sub = span(integer_rows(m.entries), cols)
    assert fraction_basis(sub) == ref_span(m.entries)
    ker = kernel_basis(m)
    assert fraction_basis(ker) == ref_kernel(m.entries, cols)
    assert_stored_form(sub)
    assert_stored_form(ker)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_intersect_and_complement_match_fraction_reference(data):
    n = data.draw(st.integers(1, 9))
    a = span(integer_rows(data.draw(rational_rows(data.draw(st.integers(0, 6)), n))), n)
    b = span(integer_rows(data.draw(rational_rows(data.draw(st.integers(0, 6)), n))), n)
    meet = intersect(a, b)
    assert fraction_basis(meet) == ref_intersect(a, b)
    # inner and must_contain inside a, from combinations of its basis, or from all of k^n
    def draw_sub(k):
        if data.draw(st.booleans()):
            return span(integer_rows(data.draw(rational_rows(k, n))), n)
        combos = [[sum(c * v[i] for c, v in zip(cs, fraction_basis(a))) for i in range(n)]
                  for cs in data.draw(rational_rows(k, a.dim))] if a.dim else []
        return span(integer_rows(combos), n)

    inner, must = draw_sub(data.draw(st.integers(0, 3))), draw_sub(data.draw(st.integers(0, 2)))
    # the first failing precondition names the error: inner, then must_contain, then the meet
    for failed, message in (
        (not ref_inside(a, inner), "inner is not contained in ambient"),
        (not ref_inside(a, must), "must_contain is not contained in ambient"),
        (bool(ref_intersect(must, inner)), "must_contain meets inner nontrivially"),
    ):
        if failed:
            with pytest.raises(ValueError) as err:
                complement_extending(a, inner, must)
            assert str(err.value) == message
            return
    comp = complement_extending(a, inner, must)
    assert fraction_basis(comp) == ref_complement(a, inner, must)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_products_and_inverse_match_fraction_reference(data):
    rows, inner = data.draw(shapes())
    cols = data.draw(st.integers(1, 9))
    a = frac_matrix(data.draw(rational_rows(rows, inner)))
    b = frac_matrix(data.draw(rational_rows(inner, cols)))
    prod = a @ b
    assert prod == frac_matrix(ref_product(a.entries, b.entries)) and all_fractions(prod.entries)
    v = data.draw(st.lists(wide_entries, min_size=inner, max_size=inner))
    image = a.apply(v)
    assert image == tuple(ref_product(a.entries, [[x] for x in v])[i][0] for i in range(rows))
    assert all_fractions([image])
    n = data.draw(st.integers(1, 6))
    sq = frac_matrix(data.draw(rational_rows(n, n)))
    aug, pivots = ref_rref([list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(sq.entries)])
    if all(c < n for c in pivots):
        inv = invert(sq)
        assert inv == frac_matrix([r[n:] for r in aug]) and all_fractions(inv.entries)
    else:
        with pytest.raises(ValueError, match="singular"):
            invert(sq)
    other = frac_matrix(data.draw(rational_rows(n, n)))
    comm = sq.commutator(other)
    xy, yx = ref_product(sq.entries, other.entries), ref_product(other.entries, sq.entries)
    assert comm == frac_matrix([[x - y for x, y in zip(r, t)] for r, t in zip(xy, yx)]) and all_fractions(comm.entries)
    # a random square matrix is rarely nilpotent, its strictly upper part always is
    upper = frac_matrix([[x if j > i else 0 for j, x in enumerate(r)] for i, r in enumerate(sq.entries)])
    for m in (sq, upper):
        power = m.entries
        for _ in range(n - 1):
            power = ref_product(power, m.entries)
        assert m.is_nilpotent() == (not any(map(any, power)))
