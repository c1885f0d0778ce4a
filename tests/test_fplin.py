import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import fplin_oracle as oracle
from knorm.errors import InputError
from knorm.fplin import (
    Subspace,
    complement,
    image,
    intersect_and_sum,
    kernel,
    kernel_image,
    power,
    rref,
    solve,
)


def span(p, n, *vecs):
    return Subspace(p, n, np.array(vecs, dtype=np.int64))


def test_kernel_image_zero_matrix():
    kern, img = kernel_image(np.zeros((2, 2), dtype=np.int64), 3)
    assert kern == Subspace.full(3, 2)
    assert img == Subspace.zero(3, 2)


def test_kernel_image_identity():
    kern, img = kernel_image(np.eye(3, dtype=np.int64), 2)
    assert kern == Subspace.zero(2, 3)
    assert img == Subspace.full(2, 3)


def test_kernel_image_rank_one_over_f2():
    # Expected values recomputed by enumerating all 4 vectors of F_2^2.
    m = np.array([[1, 1], [1, 1]])
    kern, img = kernel_image(m, 2)
    kernel_vectors = {tuple(v) for v in np.array([[0, 0], [1, 1]])}
    assert {tuple(m @ v % 2) for v in kern.vectors()} == {(0, 0)}
    enumerated = {
        tuple(v)
        for v in [np.array([a, b]) for a in range(2) for b in range(2)]
        if tuple(m @ v % 2) == (0, 0)
    }
    assert enumerated == kernel_vectors
    assert kern == span(2, 2, [1, 1])
    assert img == span(2, 2, [1, 1])


def test_intersect_and_sum_idempotent():
    a = span(5, 3, [1, 2, 0], [0, 0, 1])
    inter, total = intersect_and_sum(a, a)
    assert inter == a and total == a


def test_intersect_and_sum_complementary_lines():
    a = span(5, 2, [1, 0])
    b = span(5, 2, [0, 1])
    inter, total = intersect_and_sum(a, b)
    assert inter == Subspace.zero(5, 2)
    assert total == Subspace.full(5, 2)


def test_intersect_and_sum_planes_in_f2_cubed():
    a = span(2, 3, [1, 0, 0], [0, 1, 0])
    b = span(2, 3, [0, 1, 0], [0, 0, 1])
    inter, total = intersect_and_sum(a, b)
    # Exhaustive membership check over the 8 vectors of F_2^3.
    members = {
        tuple(v)
        for v in (np.array([x, y, z]) for x in range(2) for y in range(2) for z in range(2))
        if a.contains(v) and b.contains(v)
    }
    assert members == {tuple(v) for v in inter.vectors()}
    assert inter == span(2, 3, [0, 1, 0])
    assert total == Subspace.full(2, 3)


def test_intersect_ambient_mismatch():
    with pytest.raises(InputError):
        intersect_and_sum(span(2, 2, [1, 0]), span(2, 3, [1, 0, 0]))


def test_complement_trivial_cases():
    outer = span(3, 4, [1, 0, 0, 0], [0, 1, 2, 0])
    assert complement(outer, outer) == Subspace.zero(3, 4)
    assert complement(Subspace.zero(3, 4), outer) == outer


def test_complement_line_in_f2_cubed():
    inner = span(2, 3, [1, 1, 0])
    comp = complement(inner, Subspace.full(2, 3))
    assert comp.dim == 2
    stacked = np.vstack([comp.basis, inner.basis])
    assert rref(stacked, 2)[0].shape[0] == 3
    inter, total = intersect_and_sum(comp, inner)
    assert inter.dim == 0 and total == Subspace.full(2, 3)


def test_complement_requires_inclusion():
    with pytest.raises(InputError):
        complement(span(2, 3, [1, 0, 0]), span(2, 3, [0, 1, 0]))


def test_solve_consistent_and_inconsistent():
    m = np.array([[1, 2], [2, 4]])
    assert solve(m, [3, 2], 5) is None
    x = solve(m, [3, 1], 5)
    assert x is not None
    assert tuple(m @ x % 5) == (3, 1)


def test_power_by_squaring_matches_repeated_products():
    m = np.array([[1, 2, 0], [0, 3, 1], [4, 0, 1]])
    p = 5
    step = np.eye(3, dtype=np.int64)
    for k in range(10):
        assert np.array_equal(power(m, k, p), step)
        step = step @ m % p
    # exponents of the size of q - 2 for q = 2^64: m^a m^b = m^(a+b)
    a, b = 2**64 - 2, 2**63 + 5
    assert np.array_equal(power(m, a, p) @ power(m, b, p) % p, power(m, a + b, p))


matrices = st.integers(2, 7).filter(lambda p: p in (2, 3, 5, 7)).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.integers(1, 5),
        st.integers(1, 5),
    ).flatmap(
        lambda t: st.lists(
            st.lists(st.integers(0, t[0] - 1), min_size=t[2], max_size=t[2]),
            min_size=t[1],
            max_size=t[1],
        ).map(lambda rows: (t[0], np.array(rows, dtype=np.int64)))
    )
)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rank_nullity_property(pm):
    """kernel and image each echelonise once; rank-nullity ties them."""
    p, m = pm
    kern, img = kernel(m, p), image(m, p)
    assert kern.dim + img.dim == m.shape[1]
    assert all(not (m @ v % p).any() for v in kern.basis)
    assert img == Subspace(p, m.shape[0], m.T)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_kernel_image_pair_matches_kernel_and_image(pm):
    """The pair read off one echelon form (the image from m's pivot
    columns) equals the kernel and the image computed apart."""
    p, m = pm
    assert kernel_image(m, p) == (kernel(m, p), image(m, p))


@settings(max_examples=60, deadline=None)
@given(matrices, st.randoms(use_true_random=False))
def test_echelon_canonical_under_row_scramble(pm, rng):
    p, m = pm
    sub = Subspace(p, m.shape[1], m)
    rows = [row.copy() for row in m]
    rng.shuffle(rows)
    scrambled = []
    for row in rows:
        c = rng.randrange(1, p)
        scrambled.append((row * c) % p)
        if len(scrambled) >= 2 and rng.random() < 0.5:
            scrambled[-1] = (scrambled[-1] + scrambled[-2]) % p
    assert Subspace(p, m.shape[1], np.array(scrambled)) == sub


@settings(max_examples=40, deadline=None)
@given(matrices)
def test_complement_properties(pm):
    p, m = pm
    outer = Subspace(p, m.shape[1], m)
    inner = Subspace(p, m.shape[1], m[: m.shape[0] // 2])
    comp = complement(inner, outer)
    inter, total = intersect_and_sum(comp, inner)
    assert inter.dim == 0
    assert total == outer
    assert comp.dim == outer.dim - inner.dim


@settings(max_examples=40, deadline=None)
@given(matrices)
def test_complement_is_the_rank_raising_rows(pm):
    """The complement spans the rows of outer's basis, stacked under inner's,
    that raise the rank of the rows before them."""
    p, m = pm
    cols = m.shape[1]
    outer = Subspace(p, cols, m)
    inner = Subspace(p, cols, m[: m.shape[0] // 2])
    stacked = np.vstack([inner.basis, outer.basis])
    raising = [
        stacked[i]
        for i in range(inner.dim, len(stacked))
        if len(rref(stacked[: i + 1], p)[1]) > len(rref(stacked[:i], p)[1])
    ]
    assert complement(inner, outer) == Subspace(p, cols, np.array(raising).reshape(-1, cols))


# The routes that read stored pivots or cut one echelon split, against the
# earlier routes that eliminated afresh (tests/fplin_oracle.py).  Ambient
# dimension 0, matrices with no rows or no columns, and the zero and full
# subspaces are all in the draw.

primes = st.sampled_from([2, 3, 5])


@st.composite
def fp_matrices(draw, p, cols, max_rows=6):
    rows = draw(st.integers(0, max_rows))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=rows * cols, max_size=rows * cols))
    return np.array(entries, dtype=np.int64).reshape(rows, cols)


@st.composite
def subspaces(draw, p, n):
    kind = draw(st.sampled_from(["zero", "full", "span", "low rank"]))
    if kind == "zero":
        return Subspace.zero(p, n)
    if kind == "full":
        return Subspace.full(p, n)
    rows = draw(fp_matrices(p, n))
    if kind == "low rank":  # combinations of at most two rows: proper intersections
        rows = draw(fp_matrices(p, min(len(rows), 2))) @ rows[:2]
    return Subspace(p, n, rows)


@st.composite
def subspace_pairs(draw):
    p, n = draw(primes), draw(st.integers(0, 6))
    return draw(subspaces(p, n)), draw(subspaces(p, n))


def assert_echelon(sub):
    """The stored basis is its own echelon form, and the stored pivots are
    the pivots rref finds in it."""
    red, pivots = rref(sub.basis, sub.p)
    assert list(sub.pivots) == pivots
    assert np.array_equal(red, sub.basis)
    assert sub.basis.shape == (len(pivots), sub.ambient_dim)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_membership_reads_the_pivots_like_the_stack_elimination(data):
    p, n = data.draw(primes), data.draw(st.integers(0, 6))
    sub = data.draw(subspaces(p, n))
    assert_echelon(sub)
    vec = st.lists(st.integers(0, p - 1), min_size=n, max_size=n).map(np.array)
    inside = (data.draw(vec.map(lambda v: v[: sub.dim])) @ sub.basis) % p
    noise = data.draw(vec)
    assert sub.contains(inside)
    for v in (noise, (inside + noise) % p):
        assert sub.contains(v) == oracle.contains(sub, v)


@settings(max_examples=120, deadline=None)
@given(subspace_pairs())
def test_split_intersection_and_sum_match_the_four_eliminations(pair):
    a, b = pair
    inter, total = intersect_and_sum(a, b)
    assert (inter, total) == oracle.intersect_and_sum(a, b)
    for sub in (inter, total):
        assert_echelon(sub)
    for x, y in ((a, b), (b, a), (a, total), (inter, a), (total, a)):
        assert x.is_subspace_of(y) == oracle.is_subspace_of(x, y)
    assert a.is_subspace_of(total) and inter.is_subspace_of(b)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_split_kernel_matches_the_free_columns(data):
    p = data.draw(primes)
    m = data.draw(fp_matrices(p, data.draw(st.integers(0, 6))))
    kern, img = kernel_image(m, p)
    assert kern == oracle.kernel(m, p) == kernel(m, p)
    assert img == image(m, p)
    for sub in (kern, img, kernel(m, p), image(m, p)):
        assert_echelon(sub)


@settings(max_examples=60, deadline=None)
@given(subspace_pairs())
def test_complement_keeps_echelon_form(pair):
    inner, _ = pair
    outer = intersect_and_sum(*pair)[1]
    comp = complement(inner, outer)
    assert_echelon(comp)
    assert comp.dim == outer.dim - inner.dim


# The lazily reduced kernel against the earlier loop that reduced the whole
# matrix after every pivot (tests/fplin_oracle.py).  The draw runs from 0x0
# to 12x24, moduli up to the largest supported prime, with low rank, zero
# rows and columns, negative and unreduced entries, and strided,
# transposed and reversed views.

rref_primes = st.sampled_from([2, 3, 5, 7, 65521])


@st.composite
def int_matrices(draw):
    """(p, matrix): an int64 array or a non-contiguous view of one."""
    p = draw(rref_primes)
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 24))
    rank = draw(st.integers(0, min(rows, cols)))
    left = draw(arrays(np.int64, (rows, rank), elements=st.integers(0, p - 1)))
    right = draw(arrays(np.int64, (rank, cols), elements=st.integers(0, p - 1)))
    lift = draw(arrays(np.int64, (rows, cols), elements=st.integers(-4, 4)))
    a = left @ right + p * lift  # unreduced, and negative where lift is
    if rows and draw(st.booleans()):
        a[draw(st.lists(st.integers(0, rows - 1), max_size=3))] = 0
    if cols and draw(st.booleans()):
        a[:, draw(st.lists(st.integers(0, cols - 1), max_size=3))] = 0
    view = draw(st.sampled_from(["plain", "strided", "transposed", "reversed"]))
    if view == "strided":
        big = np.zeros((2 * rows, 3 * cols), dtype=np.int64)
        big[::2, 1::3] = a
        return p, big[::2, 1::3]
    if view == "transposed":
        return p, np.ascontiguousarray(a.T).T
    if view == "reversed":
        return p, a[::-1, ::-1].copy()[::-1, ::-1]
    return p, a


@settings(max_examples=300, deadline=None)
@given(int_matrices())
def test_lazy_rref_matches_the_reduce_every_pivot_loop(pm):
    p, mat = pm
    before = mat.copy()
    red, pivots = rref(mat, p)
    want, want_pivots = oracle.rref(mat, p)
    assert pivots == want_pivots
    assert red.dtype == np.int64 and red.shape == (len(pivots), mat.shape[1])
    assert np.array_equal(red, want)
    assert np.array_equal(mat, before)


def test_lazy_rref_on_a_tall_matrix_at_the_largest_prime():
    """Rank 80 at p = 65521: working entries can reach 80 (p-1)^2, about
    2^38, between pivots, and the result must agree with the oracle."""
    p = 65521
    rng = np.random.default_rng(20)
    left = rng.integers(0, p, size=(200, 80))
    right = rng.integers(0, p, size=(80, 96))
    mat = left @ right - p * rng.integers(0, 3, size=(200, 96))
    red, pivots = rref(mat, p)
    want, want_pivots = oracle.rref(mat, p)
    assert len(pivots) >= 64
    assert pivots == want_pivots
    assert np.array_equal(red, want)
