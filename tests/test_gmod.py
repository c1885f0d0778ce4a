import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmod_helpers import conjugate, jordan_blocks
from knorm.errors import InputError
from knorm.fplin import Subspace, intersect_and_sum, rref
from knorm.gmod import (
    GModule,
    SummandProfile,
    decompose,
    fixed_filtration,
    fixed_points,
    length_of,
    multiplicity_oracle,
    norm_operator,
    omega_image,
    verify_exclusion,
)


def random_invertible(rng, p, n):
    lower = np.eye(n, dtype=np.int64)
    upper = np.eye(n, dtype=np.int64)
    for i in range(n):
        upper[i, i] = rng.randrange(1, p)
        for j in range(i):
            lower[i, j] = rng.randrange(p)
            upper[j, i] = rng.randrange(p)
    perm = np.eye(n, dtype=np.int64)[rng.sample(range(n), n)]
    return (lower @ upper @ perm) % p


def test_construction_rejects_non_unipotent():
    with pytest.raises(InputError):
        GModule(3, [[2]])  # 2^3 = 8 = 2 mod 3, not the identity
    with pytest.raises(InputError):
        GModule(2, [[0, 1], [0, 0]])


@pytest.mark.parametrize("p, sigma", [
    (4, np.eye(2, dtype=np.int64)),  # p not prime
    (1 << 17, [[1]]),  # p above the supported bound
    (3, [1, 0, 0]),  # 1-d
    (3, [[1, 1, 0], [0, 1, 1]]),  # not square
    (5, [[2, 0], [0, 1]]),  # (sigma-1)^5 != 0
])
def test_construction_rejects_malformed_input(p, sigma):
    with pytest.raises(InputError):
        GModule(p, sigma)


def test_fixed_points_trivial_action():
    assert fixed_points(GModule.trivial(5, 4)) == Subspace.full(5, 4)


def test_fixed_points_single_full_block():
    m = jordan_blocks(3, [3])
    assert fixed_points(m).dim == 1


def test_fixed_points_mixed_blocks():
    m = jordan_blocks(3, [1, 2, 3])
    fp = fixed_points(m)
    assert fp.dim == 3
    # One fixed line per block, verified against the explicit kernel.
    shift = m.shift_power(1)
    for v in fp.vectors():
        assert not (shift @ v % 3).any()


def test_omega_image_endpoints():
    m = jordan_blocks(3, [3, 2])
    assert omega_image(m, 0) == Subspace.full(3, 5)
    assert omega_image(m, 3) == Subspace.zero(3, 5)


def test_omega_image_single_block():
    m = jordan_blocks(3, [3])
    img = omega_image(m, 2)
    assert img.dim == 1
    assert img == fixed_points(m)


def test_length_of():
    m = jordan_blocks(3, [1, 2])
    assert length_of(m, [1, 0, 0]) == 1
    assert length_of(m, [0, 0, 1]) == 2
    # Sum of a J1 generator and a J2 generator still has length 2.
    assert length_of(m, [1, 0, 1]) == 2
    full = jordan_blocks(5, [5])
    assert length_of(full, [0, 0, 0, 0, 1]) == 5
    with pytest.raises(InputError):
        length_of(m, [0, 0, 0])


def test_norm_operator_trivial_module():
    n = norm_operator(GModule.trivial(3, 2))
    assert n.shape == (2, 2) and not n.any()


def test_norm_operator_j2_block_p2():
    m = jordan_blocks(2, [2])
    n = norm_operator(m)
    assert len(rref(n, 2)[1]) == 1
    img = omega_image(m, 1)
    assert img == fixed_points(m)


def test_norm_operator_free_modules():
    m = jordan_blocks(3, [3, 3])
    assert len(rref(norm_operator(m), 3)[1]) == 2


def test_multiplicity_oracle_examples():
    free2 = jordan_blocks(2, [2, 2])
    assert multiplicity_oracle(free2) == SummandProfile(2, [0, 2])
    assert multiplicity_oracle(GModule.trivial(3, 3)) == SummandProfile(3, [3, 0, 0])
    assert multiplicity_oracle(jordan_blocks(3, [2, 2])) == SummandProfile(3, [0, 2, 0])


def test_decompose_trivial_module():
    dec = decompose(GModule.trivial(5, 4))
    assert dec.profile == SummandProfile(5, [4, 0, 0, 0, 0])


def test_decompose_block_diagonal():
    m = jordan_blocks(3, [1, 2, 3])
    dec = decompose(m)
    assert dec.profile == SummandProfile(3, [1, 1, 1])


def test_decompose_conjugated_blocks():
    import random

    rng = random.Random(7)
    m = jordan_blocks(3, [1, 2, 3])
    g = random_invertible(rng, 3, 6)
    conj = conjugate(m, g)
    dec = decompose(conj)
    assert dec.profile == multiplicity_oracle(conj)
    assert dec.profile == SummandProfile(3, [1, 1, 1])


def test_decompose_invariants_hold():
    import random

    rng = random.Random(11)
    for p in (2, 3, 5):
        sizes = [rng.randrange(1, p + 1) for _ in range(4)]
        m = conjugate(jordan_blocks(p, sizes), random_invertible(rng, p, sum(sizes)))
        dec = decompose(m)
        # Direct sum: total dimension and pairwise trivial intersections.
        total = None
        for i in range(1, p + 1):
            basis = dec.summand_bases[i]
            if total is None:
                total = basis
            else:
                inter, total = intersect_and_sum(total, basis)
                assert inter.dim == 0
        assert total is not None and total.dim == m.dim
        for i in range(1, p + 1):
            power = m.shift_power(i)
            for row in dec.summand_bases[i].basis:
                assert not (power @ row % p).any()
            for g in dec.generators[i]:
                assert (m.shift_power(i - 1) @ g % p).any() or i == 0


def test_summand_count_equals_fixed_dim():
    import random

    rng = random.Random(3)
    for p in (2, 3, 5):
        sizes = [rng.randrange(1, p + 1) for _ in range(3)]
        m = conjugate(jordan_blocks(p, sizes), random_invertible(rng, p, sum(sizes)))
        dec = decompose(m)
        assert sum(dec.profile.multiplicities) == fixed_points(m).dim
        cokernel_dim = m.dim - omega_image(m, 1).dim
        assert sum(dec.profile.multiplicities) == cokernel_dim


def test_verify_exclusion_distinct_lines():
    m = GModule.trivial(3, 2)
    parts = [Subspace(3, 2, [[1, 0]]), Subspace(3, 2, [[0, 1]])]
    assert verify_exclusion(parts, m)


def test_verify_exclusion_vacuous_case():
    m = jordan_blocks(2, [2])
    block = Subspace.full(2, 2)
    fixed_line = fixed_points(m)
    assert verify_exclusion([block, fixed_line], m)


def test_verify_exclusion_after_decompose():
    import random

    rng = random.Random(23)
    for p in (2, 3):
        sizes = [rng.randrange(1, p + 1) for _ in range(3)]
        m = conjugate(jordan_blocks(p, sizes), random_invertible(rng, p, sum(sizes)))
        dec = decompose(m)
        parts = [dec.summand_bases[i] for i in range(1, p + 1) if dec.summand_bases[i].dim]
        assert verify_exclusion(parts, m)


def test_verify_exclusion_rejects_unstable_part():
    m = jordan_blocks(2, [2])
    with pytest.raises(InputError):
        verify_exclusion([Subspace(2, 2, [[0, 1]])], m)


@st.composite
def conjugated_modules(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    sizes = draw(st.lists(st.integers(1, p), min_size=1, max_size=4))
    n = sum(sizes)
    seed = draw(st.integers(0, 2**30))
    import random

    rng = random.Random(seed)
    return conjugate(jordan_blocks(p, sizes), random_invertible(rng, p, n))


@settings(max_examples=40, deadline=None)
@given(conjugated_modules())
def test_oracle_equivalence_property(m):
    assert decompose(m).profile == multiplicity_oracle(m)


@settings(max_examples=25, deadline=None)
@given(conjugated_modules())
def test_reassembly_property(m):
    profile = decompose(m).profile
    sizes = [i for i in range(1, m.p + 1) for _ in range(profile.m(i))]
    model = jordan_blocks(m.p, sizes)
    assert model.dim == m.dim
    for i in range(m.p + 1):
        assert len(rref(model.shift_power(i), m.p)[1]) == len(rref(m.shift_power(i), m.p)[1])


@settings(max_examples=40, deadline=None)
@given(conjugated_modules())
def test_chained_filtration_is_the_intersection_with_the_fixed_points(m):
    """K_i = image((sigma-1)^i) ∩ K_{i-1} gives the list image((sigma-1)^i) ∩ M^G,
    and decompose reads the same summands off either list."""
    mg = fixed_points(m)
    direct = [mg] + [intersect_and_sum(omega_image(m, i), mg)[0] for i in range(1, m.p + 1)]
    assert fixed_filtration(m) == direct
    twin = GModule(m.p, m.sigma)
    twin.subspaces["filtration"] = direct
    chained, reference = decompose(m), decompose(twin)
    for i in range(1, m.p + 1):
        assert chained.summand_bases[i] == reference.summand_bases[i]
        assert [g.tolist() for g in chained.generators[i]] == [
            g.tolist() for g in reference.generators[i]]
