import numpy as np
import pytest

from knorm import milnor as M
from knorm.errors import InputError, MathCheckError
from knorm.fplin import Subspace, rref
from knorm.gmod import norm_operator
from knorm.padic import LocalField
from knorm.presets import FIELD_PRESETS


@pytest.fixture(scope="module")
def q2():
    return LocalField(2)


@pytest.fixture(scope="module")
def q3z():
    return LocalField(3, [{"kind": "eisenstein", "coeffs": [3, 3]}])


@pytest.fixture(scope="module")
def sqrt2(q2):
    return M.get_extension(q2, q2.element(2))


@pytest.fixture(scope="module")
def sqrt5(q2):
    return M.get_extension(q2, q2.element(5))


def cls(field, n):
    return M.class_of(field, field.element(n))


def classes(field):
    """All p^dim coordinate vectors of k_1 (small groups only)."""
    return list(Subspace.full(field.p, M.k_group(field, 1).dim).vectors())


def class_of_bruteforce(field, x):
    """Independent oracle for class_of: search all p^dim coordinate vectors
    for the one whose basis product differs from x by a p-th power."""
    for cand in classes(field):
        rep = field.k1_element([int(c) for c in cand])
        if field.is_pth_power(x * rep.inverse()):
            return cand
    raise MathCheckError("no coordinate vector matches; basis corruption?")


def test_k1_dimensions(q2, q3z, sqrt2):
    assert M.k1_group(q2).dim == 3
    assert M.k1_group(q2).labels == ["2", "-1", "5"]
    assert M.k1_group(sqrt2.top).dim == 4
    assert M.k1_group(q3z).dim == 4


def test_k_group_shape(q2):
    assert M.k_group(q2, 0).dim == 1
    assert M.k_group(q2, 2).dim == 1
    assert M.k_group(q2, 3).dim == 0
    assert M.k_group(q2, 4).dim == 0


def test_class_of_examples(q2):
    assert not cls(q2, 17).any()
    assert KMAP_EQ(M.class_of(q2, q2.element(5)), [0, 0, 1])
    assert KMAP_EQ(cls(q2, -20), (cls(q2, -1) + cls(q2, 5)) % 2)


def test_class_of_matches_bruteforce(q2, q3z):
    for n in (3, 5, 7, 10, -6):
        assert KMAP_EQ(M.class_of(q2, q2.element(n)), class_of_bruteforce(q2, q2.element(n)))
    lam = q3z.gen()
    for x in (lam, q3z.element(1) + lam, q3z.element(2) * lam * lam):
        assert KMAP_EQ(M.class_of(q3z, x), class_of_bruteforce(q3z, x))


def test_norm_map_images(q2, sqrt2, sqrt5):
    img2 = M.norm_map(sqrt2, 1).image()
    expect2 = Subspace(2, 3, np.array([[1, 0, 0], [0, 1, 0]]))  # classes of 2 and -1
    assert img2 == expect2
    img5 = M.norm_map(sqrt5, 1).image()
    expect5 = Subspace(2, 3, np.array([[0, 1, 0], [0, 0, 1]]))  # classes of -1 and 5
    assert img5 == expect5


def test_norm_map_degree_edges(sqrt2):
    assert KMAP_EQ(M.norm_map(sqrt2, 0).matrix, [[0]])
    assert KMAP_EQ(M.norm_map(sqrt2, 2).matrix, [[1]])
    assert M.norm_map(sqrt2, 3).matrix.shape[0] == 0


def test_restriction_examples(q2, sqrt2):
    rmap = M.restriction_map(sqrt2, 1)
    assert not rmap.apply(cls(q2, 2)).any()  # 2 becomes a square
    assert rmap.apply(cls(q2, 5)).any()
    assert KMAP_EQ(M.restriction_map(sqrt2, 0).matrix, [[1]])
    assert KMAP_EQ(M.restriction_map(sqrt2, 2).matrix, [[0]])


def test_sigma_map_examples(q2, sqrt2):
    mod = M.sigma_map(sqrt2, 1)
    top = sqrt2.top
    a_cls = M.class_of(top, sqrt2.A)
    moved = M.class_of(top, sqrt2.sigma(sqrt2.A))
    minus_one = M.class_of(top, top.element(-1))
    assert KMAP_EQ(moved, (a_cls + minus_one) % 2)
    assert M.sigma_map(sqrt2, 0).dim == 1
    assert M.sigma_map(sqrt2, 2).dim == 1
    assert M.sigma_map(sqrt2, 3).dim == 0


def KMAP_EQ(a, b):
    return bool(np.array_equal(a, b))


def test_sigma_map_unipotent_on_cubic(q3z):
    ext = M.get_extension(q3z, q3z.gen())
    mod = M.sigma_map(ext, 1)
    assert mod.dim == 8
    assert KMAP_EQ(mod.sigma @ mod.sigma @ mod.sigma % 3, np.eye(8))


def test_symbol_examples(q2):
    a2, a5, am1 = cls(q2, 2), cls(q2, 5), cls(q2, -1)
    assert M.symbol(q2, a2, am1) == 0
    assert M.symbol(q2, a2, a5) == 1
    # Steinberg over every class pair (a, -a)
    for a in classes(q2):
        if not a.any():
            continue
        minus_a = am1 + a
        assert M.symbol(q2, a, minus_a) == 0


def test_symbol_degenerate_and_bilinear(q2):
    assert M.symbol(q2, [0, 0, 0], cls(q2, 5)) == 0
    for a in classes(q2):
        for b in classes(q2):
            for c in classes(q2):
                s = M.symbol(q2, a + b, c)
                assert s == (M.symbol(q2, a, c) + M.symbol(q2, b, c)) % 2


def test_symbol_antisymmetric_p2(q2):
    for a in classes(q2):
        for b in classes(q2):
            assert M.symbol(q2, a, b) == M.symbol(q2, b, a)


def test_symbol_is_serres_hilbert_symbol_on_q2(q2):
    """On Q2 the symbol is the exponent of -1 in the Hilbert symbol of
    Serre, *A Course in Arithmetic*, III, Thm 1: for a = 2^al u and
    b = 2^be v with u, v units, (a, b) = (-1)^(eps(u) eps(v) + al om(v)
    + be om(u)), eps(u) = (u - 1)/2 and om(u) = (u^2 - 1)/8 mod 2."""
    def eps(u):
        return (u - 1) // 2 % 2

    def om(u):
        return (u * u - 1) // 8 % 2

    pairs = [(al, s * u) for al in (0, 1) for s in (1, -1) for u in (1, 3, 5, 7)]
    for al, u in pairs:
        for be, v in pairs:
            want = (eps(u) * eps(v) + al * om(v) + be * om(u)) % 2
            a, b = q2.element(2**al * u), q2.element(2**be * v)
            assert M.symbol(q2, a, b) == want, (2**al * u, 2**be * v)


@pytest.mark.parametrize("call", [
    lambda q2, ext: M.restriction_map(ext, 1).apply([1, 0]),
    lambda q2, ext: M.restriction_map(ext, 1).apply([[1, 0, 0]]),
    lambda q2, ext: M._as_k1_coords(q2, [1, 0]),
    lambda q2, ext: M._as_k1_coords(q2, (1, 0, 0, 1)),
    lambda q2, ext: M.symbol(q2, [1, 0, 0], [1, 1]),
], ids=["apply-short", "apply-2d", "coords-short", "key-long", "symbol-short"])
def test_a_coordinate_vector_of_the_wrong_length_is_rejected(q2, sqrt2, call):
    with pytest.raises(InputError):
        call(q2, sqrt2)


def test_cup_with_examples(q2):
    a2, a5 = cls(q2, 2), cls(q2, 5)
    cup = M.cup_with(q2, a2, 2)
    assert len(rref(cup.matrix, 2)[1]) == 1
    assert list(cup.matrix[0]) == [0, 0, 1]  # only (2,5) nonzero on the basis
    ann5 = M.cup_with(q2, a5, 2).kernel()
    assert ann5.dim == 2
    assert ann5 == M.norm_subgroup(M.get_extension(q2, q2.element(5)))
    cup3 = M.cup_with(q2, a2, 3)
    assert cup3.matrix.shape[0] == 0
    cup1 = M.cup_with(q2, a2, 1)
    assert KMAP_EQ(cup1.apply([1]), a2)


def test_cup_kernel_is_the_norm_hyperplane():
    """For every nonzero a, the degree-2 cup map has kernel N_a, and it
    vanishes on each b exactly where the norm criterion kills (a, b)."""
    for name in ("Q2", "Q2sqrt2", "Q3zeta3"):
        field = LocalField.from_spec(FIELD_PRESETS[name])
        for a in classes(field):
            if not a.any():
                continue
            cup = M.cup_with(field, a, 2)
            assert cup.kernel() == M.norm_subgroup(M.get_extension(field, a))
            for b in classes(field):
                assert (not cup.apply(b).any()) == (M.symbol(field, a, b) == 0)
        M.release_caches(field)


def test_ann_pair(q2, q3z):
    a2 = cls(q2, 2)
    # (2, -1) = 0, so the pair annihilator in degree 1 is all of k_0
    assert M.ann_pair(q2, a2, 1) == Subspace.full(2, 1)
    a5 = cls(q2, 5)
    # (5, -1) != 0: -1 is not a norm from Q2(sqrt 5)? It is: N(2+sqrt5) = -1.
    assert M.symbol(q2, a5, M.xi_class(q2)) == 0
    assert M.ann_pair(q2, a5, 2) == Subspace.full(2, 3)


def test_hilbert90_reports(q2, sqrt2, sqrt5):
    for ext in (sqrt2, sqrt5):
        for n in (0, 1, 2, 3):
            passed, entry = M.verify_hilbert90(ext, n)
            assert passed, entry
    _, entry = M.verify_hilbert90(sqrt2, 1)
    assert entry["dim_image_sigma_minus_1"] == 1
    assert entry["dim_ker_norm"] == 2


def test_res_after_cor_identity_entrywise(q2, sqrt5):
    composite = (M.restriction_map(sqrt5, 1) @ M.norm_map(sqrt5, 1)).matrix
    assert KMAP_EQ(composite, norm_operator(M.sigma_map(sqrt5, 1)))


def test_cor_after_res_is_zero(q2, sqrt2, sqrt5):
    for ext in (sqrt2, sqrt5):
        for n in (0, 1, 2):
            comp = (M.norm_map(ext, n) @ M.restriction_map(ext, n)).matrix
            assert not comp.any()


def test_voevodsky_reports_q2(sqrt2, sqrt5):
    for ext in (sqrt2, sqrt5):
        for m in (1, 2, 3):
            passed, entry = M.verify_voevodsky_seq(ext, m)
            assert passed, (m, entry)
    _, entry = M.verify_voevodsky_seq(sqrt2, 2)
    assert entry["dims"]["cup_annihilator"] == 2


def test_projection_formula(q2, sqrt2, sqrt5):
    for ext in (sqrt2, sqrt5):
        passed, results = M.projection_formula_check(ext)
        assert passed and all(results.values()), results


def test_norm_subgroup_codimension_one(q2, q3z):
    for a in (2, 5, -1, 10, -2):
        sub = M.norm_subgroup(M.get_extension(q2, q2.element(a)))
        assert sub.dim == 2
    lam = q3z.gen()
    sub = M.norm_subgroup(M.get_extension(q3z, lam))
    assert sub.dim == 3


def test_k1_requires_mu_p():
    q3 = LocalField(3)
    with pytest.raises(InputError):
        M.k1_group(q3)


def test_extension_cache_by_class(q2):
    e1 = M.get_extension(q2, q2.element(2))
    e2 = M.get_extension(q2, q2.element(18))  # 18 = 2 * 9, same class
    assert e1 is e2
