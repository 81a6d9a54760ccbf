import dataclasses
import random

import pytest

from conftest import conjugated_dense_representation, frac_matrix, frac_product, random_upper_triangular_subalgebra
from nilbound import decomposition
from nilbound.decomposition import (
    AdaptedBasis,
    FaithfulnessError,
    OperatorChain,
    SamplingBudgetExhausted,
    _conjugation,
    _image_dims,
    _rank_ceiling,
    build_adapted_basis,
    chain_from_representation,
    decompose,
    decompose_chain,
    decomposition_to_json,
    extract_profile,
    find_rank_vector,
    verify_block_structure,
    verify_decomposition,
)
from nilbound.families import make_abelian, make_heisenberg, make_nabc, make_nap
from nilbound.liealg import Representation, default_filtration
from nilbound.linalg import Subspace, invert, span


@pytest.fixture(scope="module")
def heis_rep():
    return make_heisenberg(1)[1]


@pytest.fixture(scope="module")
def n112_rep():
    return make_nabc(1, 1, 2)[1]


def e12_on_k2() -> Representation:
    alg, _ = make_abelian(1)
    return Representation(alg, 2, (((0, 1, 0, 0),), 1))


class TestRankVector:
    def test_heisenberg_chain_dims(self, heis_rep):
        chain = chain_from_representation(heis_rep, default_filtration(heis_rep.algebra))
        _, dims = find_rank_vector(chain, random.Random(0))
        assert dims == (2, 1)

    def test_single_level_e12(self):
        chain = OperatorChain(2, (span([(0, 1, 0, 0)]),))
        v, dims = find_rank_vector(chain, random.Random(0))
        assert dims == (1,)
        assert v[1] != 0

    def test_zero_level(self):
        chain = OperatorChain(2, (Subspace.zero(4),))
        _, dims = find_rank_vector(chain, random.Random(0))
        assert dims == (0,)


def full_batch_rank_vector(chain: OperatorChain, rng: random.Random):
    """The sampler without the ceiling: every candidate of a batch, and both extras, are scored."""
    n = chain.space_dim
    bound = 16
    for _ in range(64):
        batch = [tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(8)]
        tuples = [_image_dims(chain.levels, n, v) for v in batch]
        best = tuple(max(t[k] for t in tuples) for k in range(chain.p))
        winner = next((v for v, t in zip(batch, tuples) if t == best), None)
        if winner is not None:
            extras = [tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(2)]
            if all(all(d <= b for d, b in zip(_image_dims(chain.levels, n, e), best)) for e in extras):
                return winner, best
        bound *= 2
    raise SamplingBudgetExhausted("no rank-vector found within the sampling budget")


CEILING_REPS = {
    "heisenberg(1)": make_heisenberg(1)[1],
    "heisenberg(3)": make_heisenberg(3)[1],
    "nap(2,2)": make_nap(2, 2)[1],
    "nap(1,3)": make_nap(1, 3)[1],
    "nabc(1,2,2)": make_nabc(1, 2, 2)[1],
    **{f"dense_{seed}": conjugated_dense_representation(seed) for seed in range(4)},
    **{f"rand_{seed}": random_upper_triangular_subalgebra(seed)[1] for seed in (6, 10, 38)},
}
CEILING_MISSED = {"rand_6", "rand_10", "rand_38"}  # one round of each has its generic maximum below the ceiling


def sampler_rounds(rep, seed: int, monkeypatch) -> list:
    """(chain, random state) for every find_rank_vector call of decompose(rep, seed)."""
    rounds = []

    def record(chain, rng):
        rounds.append((chain, rng.getstate()))
        return find_rank_vector(chain, rng)

    with monkeypatch.context() as patch:
        patch.setattr(decomposition, "find_rank_vector", record)
        decompose(rep, seed=seed)
    return rounds


def at_state(state) -> random.Random:
    rng = random.Random()
    rng.setstate(state)
    return rng


class TestRankCeiling:
    @pytest.mark.parametrize("name", CEILING_REPS)
    @pytest.mark.parametrize("seed", [0, 1, 2, 7])
    def test_same_vector_and_random_stream_as_scoring_everything(self, name, seed, monkeypatch):
        missed = 0
        for chain, state in sampler_rounds(CEILING_REPS[name], seed, monkeypatch):
            fast, full = at_state(state), at_state(state)
            result = find_rank_vector(chain, fast)
            assert result == full_batch_rank_vector(chain, full)
            assert fast.getstate() == full.getstate()
            missed += result[1] != _rank_ceiling(chain)
        # the rounds below the ceiling run the full path; elsewhere the ceiling is reached
        assert bool(missed) == (name in CEILING_MISSED)

    @pytest.mark.parametrize("name", CEILING_REPS)
    def test_no_vector_exceeds_the_ceiling(self, name, monkeypatch):
        rng = random.Random(name)
        for chain, _ in sampler_rounds(CEILING_REPS[name], 0, monkeypatch):
            n, ceiling = chain.space_dim, _rank_ceiling(chain)
            units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
            drawn = [tuple(rng.randint(-m, m) for _ in range(n)) for m in (1, 3, 1000) for _ in range(10)]
            for v in units + drawn:
                assert all(d <= c for d, c in zip(_image_dims(chain.levels, n, v), ceiling))


class TestDecompose:
    def test_heisenberg(self, heis_rep):
        dec = decompose(heis_rep, seed=0)
        assert dec.partition == (2, 1)
        assert dec.rank_dims() == (2, 1)

    def test_n112(self, n112_rep):
        dec = decompose(n112_rep, seed=0)
        assert dec.partition == (3, 2)
        assert dec.rank_dims() == (2, 1)

    def test_abelian_on_k2(self):
        rep = e12_on_k2()
        dec = decompose(rep, seed=0)
        assert dec.partition == (1,)
        assert dec.rank_dims() == (1,)

    def test_unfaithful_rejected(self):
        alg, _ = make_abelian(2)
        rep = Representation(alg, 2, (((0, 1, 0, 0),) * 2, 1))
        with pytest.raises(FaithfulnessError):
            decompose(rep, seed=0)

    def test_determinism_bit_for_bit(self, n112_rep):
        a = decompose(n112_rep, seed=5)
        b = decompose(n112_rep, seed=5)
        assert a == b
        assert decomposition_to_json(a) == decomposition_to_json(b)

    def test_partition_stable_across_seeds(self, n112_rep):
        runs = [decompose(n112_rep, seed=s) for s in (0, 1, 2)]
        assert len({d.partition for d in runs}) == 1
        assert len({d.rank_dims() for d in runs}) == 1


class TestVerifyDecomposition:
    def test_heisenberg_all_checks_pass(self, heis_rep):
        dec = decompose(heis_rep, seed=0)
        report = verify_decomposition(dec)
        assert report.ok
        assert report.moreover_checked

    def test_n112_with_moreover(self, n112_rep):
        dec = decompose(n112_rep, seed=0)
        report = verify_decomposition(dec)
        assert report.ok
        assert report.moreover_checked

    def test_swapped_vectors_break_zero_action(self, n112_rep):
        dec = decompose(n112_rep, seed=0)
        swapped = dec.vectors[1], dec.vectors[0], *dec.vectors[2:]
        bad = dataclasses.replace(dec, vectors=swapped)
        report = verify_decomposition(bad)
        assert not report.ok
        assert any("v_1" in f and "!= 0" in f for f in report.failures)


class TestAdaptedBasis:
    def test_heisenberg_sizes(self, heis_rep):
        dec = decompose(heis_rep, seed=0)
        ab = build_adapted_basis(dec)
        assert ab.r == (2, 1)
        assert ab.q == 0
        assert len(ab.basis_vectors) == 3

    def test_n112_sizes(self, n112_rep):
        dec = decompose(n112_rep, seed=0)
        ab = build_adapted_basis(dec)
        assert ab.q == 0
        assert len(ab.basis_vectors) == 4

    def test_abelian_sizes(self):
        rep = e12_on_k2()
        dec = decompose(rep, seed=0)
        ab = build_adapted_basis(dec)
        assert (ab.r, ab.q, len(ab.basis_vectors)) == ((1,), 0, 2)


class TestBlockStructure:
    @pytest.mark.parametrize("family", ["heis", "n112"])
    def test_patterns_hold(self, family, heis_rep, n112_rep):
        rep = heis_rep if family == "heis" else n112_rep
        dec = decompose(rep, seed=0)
        ab = build_adapted_basis(dec)
        report = verify_block_structure(ab, dec)
        assert report.ok
        assert report.checked > 0

    def test_reordered_basis_fails(self, n112_rep):
        dec = decompose(n112_rep, seed=0)
        ab = build_adapted_basis(dec)
        shuffled = AdaptedBasis(ab.r, ab.q, tuple(reversed(ab.basis_vectors)))
        report = verify_block_structure(shuffled, dec)
        assert not report.ok

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_integer_conjugation_keeps_the_zero_patterns(self, seed):
        # the certificate conjugates with integer multiples of P^-1 and P, P with the columns B
        dec = decompose(conjugated_dense_representation(seed), seed=0)
        ab = build_adapted_basis(dec)
        n = dec.space_dim
        change = frac_matrix(list(zip(*ab.basis_vectors)))
        change_inv = invert(change)
        conjugate = _conjugation(ab, n)
        for piece in dec.grid.values():
            for op in piece.rows:
                square = frac_matrix([op[i * n:(i + 1) * n] for i in range(n)])
                exact = frac_product(frac_product(change_inv, square), change)
                assert [[x != 0 for x in r] for r in conjugate(op)] == [[x != 0 for x in r] for r in exact.entries]


class TestProfile:
    def test_heisenberg(self, heis_rep):
        dec = decompose(heis_rep, seed=0)
        assert extract_profile(dec) == (1, 1, 1)

    def test_n112(self, n112_rep):
        dec = decompose(n112_rep, seed=0)
        assert extract_profile(dec) == (2, 1, 1)

    def test_abelian_on_k2(self):
        rep = e12_on_k2()
        dec = decompose(rep, seed=0)
        assert extract_profile(dec) == (1, 1)

    def test_nap_22_profile_sums_to_dimv(self):
        _, rep = make_nap(2, 2)
        dec = decompose(rep, seed=0)
        profile = extract_profile(dec)
        assert sum(profile) == rep.dimV
        report = verify_decomposition(dec)
        assert report.ok


def test_chain_rejects_non_nested_levels():
    top = span([(0, 1, 0, 0)])  # E_12 flattened row-major
    other = span([(0, 0, 1, 0)])  # E_21
    with pytest.raises(ValueError, match="not contained"):
        OperatorChain(2, (top, other))


def test_decompose_chain_grid_partitions_levels(n112_rep):
    chain = chain_from_representation(n112_rep, default_filtration(n112_rep.algebra))
    dec = decompose_chain(chain, seed=3)
    for k in range(1, dec.p + 1):
        total = sum(dec.grid[(k, j)].dim for j in range(1, dec.partition[k - 1] + 1))
        assert total == chain.levels[k - 1].dim
