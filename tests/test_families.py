import pytest

from nilbound.families import (
    make_abelian,
    make_family,
    make_heisenberg,
    make_nabc,
    make_nap,
)
from nilbound.liealg import (
    center,
    is_faithful,
    lower_central_series,
    validate,
    validate_representation,
)


@pytest.mark.parametrize(
    "a,p,dim,dim_v",
    [(1, 2, 3, 3), (2, 2, 12, 6), (1, 3, 6, 4), (3, 2, 27, 9), (2, 3, 24, 8)],
)
def test_nap_dimensions(a, p, dim, dim_v):
    alg, rep = make_nap(a, p)
    assert alg.dim == p * (p + 1) // 2 * a * a == dim
    assert rep.dimV == (p + 1) * a == dim_v


@pytest.mark.parametrize(
    "a,b,c,dim,dim_v",
    [(1, 1, 1, 3, 3), (1, 2, 1, 5, 4), (2, 3, 2, 16, 7), (1, 1, 4, 9, 6)],
)
def test_nabc_dimensions(a, b, c, dim, dim_v):
    alg, rep = make_nabc(a, b, c)
    assert alg.dim == a * b + b * c + a * c == dim
    assert rep.dimV == a + b + c == dim_v


@pytest.mark.parametrize("a,b,c", [(1, 1, 1), (1, 2, 1), (2, 3, 2), (2, 4, 2)])
def test_nabc_center_is_the_corner_block(a, b, c):
    alg, _ = make_nabc(a, b, c)
    assert center(alg).dim == a * c


def test_heisenberg_matches_nap_1_2_up_to_basis_order():
    heis, _ = make_heisenberg(1)
    nap, _ = make_nap(1, 2)
    # nap basis (E12, E13, E23) maps to the Heisenberg basis (x, z, y)
    perm = [0, 2, 1]
    mapped = {}
    for (i, j), terms in nap.brackets:
        pi, pj, sign = perm[i], perm[j], 1
        if pi > pj:
            pi, pj, sign = pj, pi, -1
        mapped[(pi, pj)] = tuple(sorted((perm[k], sign * c) for k, c in terms))
    assert mapped == {k: tuple(sorted(v)) for k, v in heis.brackets}


def test_heisenberg_2_structure():
    alg, rep = make_heisenberg(2)
    assert alg.dim == 5
    assert rep.dimV == 4
    assert center(alg).dim == 1


def test_abelian_has_no_brackets():
    alg, rep = make_abelian(4)
    assert not alg.brackets
    assert rep.dimV == 5


@pytest.mark.parametrize("a,p", [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3)])
def test_nap_is_exactly_p_step(a, p):
    alg, _ = make_nap(a, p)
    assert len(lower_central_series(alg)) == p


@pytest.mark.parametrize("a,b,c", [(1, 1, 1), (1, 3, 2), (2, 3, 1)])
def test_nabc_is_two_step(a, b, c):
    alg, _ = make_nabc(a, b, c)
    assert len(lower_central_series(alg)) == 2


ALL_SMALL = [
    ("nap", {"a": 1, "p": 2}),
    ("nap", {"a": 2, "p": 2}),
    ("nap", {"a": 1, "p": 3}),
    ("nabc", {"a": 1, "b": 2, "c": 1}),
    ("nabc", {"a": 2, "b": 3, "c": 2}),
    ("heisenberg", {"m": 2}),
    ("abelian", {"n": 3}),
]


@pytest.mark.parametrize("tag,params", ALL_SMALL)
def test_generated_representations_validate(tag, params):
    alg, rep = make_family(tag, **params)
    assert validate(alg) == []
    assert validate_representation(rep) == []
    assert is_faithful(rep)


@pytest.mark.parametrize(
    "call",
    [
        lambda: make_nap(0, 2),
        lambda: make_nap(1, 0),
        lambda: make_nabc(1, -1, 1),
        lambda: make_heisenberg(0),
        lambda: make_abelian(0),
    ],
)
def test_parameters_below_one_rejected(call):
    with pytest.raises(ValueError):
        call()


def test_unknown_family_tag():
    with pytest.raises(ValueError, match="unknown family"):
        make_family("borel", n=3)


def test_basis_order_is_reproducible():
    from nilbound.liealg import algebra_to_json

    a1 = algebra_to_json(make_nap(2, 2)[0])
    a2 = algebra_to_json(make_nap(2, 2)[0])
    assert a1 == a2
    assert a1["basis"][0] == "E1_3"
