import numpy as np
import pytest

from knorm import milnor as M
from knorm.errors import InputError, MathCheckError
from knorm.fplin import FpMatrix, Subspace
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


def class_of_bruteforce(field, x):
    """Independent oracle for class_of: search all p^dim coordinate vectors
    for the one whose basis product differs from x by a p-th power."""
    grp = M.k_group(field, 1)
    for cand in grp.classes():
        rep = field.k1_element([int(c) for c in cand.coords])
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
    assert cls(q2, 17).is_zero()
    assert M.class_of(q2, q2.element(5)) == M.k1_group(q2).basis_class(2)
    assert cls(q2, -20) == cls(q2, -1) + cls(q2, 5)


def test_class_of_matches_bruteforce(q2, q3z):
    for n in (3, 5, 7, 10, -6):
        assert M.class_of(q2, q2.element(n)) == class_of_bruteforce(q2, q2.element(n))
    lam = q3z.gen()
    for x in (lam, q3z.element(1) + lam, q3z.element(2) * lam * lam):
        assert M.class_of(q3z, x) == class_of_bruteforce(q3z, x)


def test_norm_map_images(q2, sqrt2, sqrt5):
    img2 = M.norm_map(sqrt2, 1).image()
    expect2 = Subspace(2, 3, np.array([[1, 0, 0], [0, 1, 0]]))  # classes of 2 and -1
    assert img2 == expect2
    img5 = M.norm_map(sqrt5, 1).image()
    expect5 = Subspace(2, 3, np.array([[0, 1, 0], [0, 0, 1]]))  # classes of -1 and 5
    assert img5 == expect5


def test_norm_map_degree_edges(sqrt2):
    assert M.norm_map(sqrt2, 0).matrix == FpMatrix.zero(2, 1, 1)
    assert M.norm_map(sqrt2, 2).matrix == FpMatrix.identity(2, 1)
    assert M.norm_map(sqrt2, 3).matrix.rows == 0


def test_restriction_examples(q2, sqrt2):
    rmap = M.restriction_map(sqrt2, 1)
    assert rmap.apply(cls(q2, 2)).is_zero()  # 2 becomes a square
    assert not rmap.apply(cls(q2, 5)).is_zero()
    assert M.restriction_map(sqrt2, 0).matrix == FpMatrix.identity(2, 1)
    assert M.restriction_map(sqrt2, 2).matrix == FpMatrix.zero(2, 1, 1)


def test_sigma_map_examples(q2, sqrt2):
    mod = M.sigma_map(sqrt2, 1)
    top = sqrt2.top
    a_cls = M.class_of(top, sqrt2.A)
    moved = M.class_of(top, sqrt2.sigma(sqrt2.A))
    minus_one = M.class_of(top, top.element(-1))
    assert KMAP_EQ(moved.coords, (a_cls + minus_one).coords)
    assert M.sigma_map(sqrt2, 0).dim == 1
    assert M.sigma_map(sqrt2, 2).dim == 1
    assert M.sigma_map(sqrt2, 3).dim == 0


def KMAP_EQ(a, b):
    return bool(np.array_equal(a, b))


def test_sigma_map_unipotent_on_cubic(q3z):
    ext = M.get_extension(q3z, q3z.gen())
    mod = M.sigma_map(ext, 1)
    assert mod.dim == 8
    assert mod.sigma**3 == FpMatrix.identity(3, 8)


def test_symbol_examples(q2):
    a2, a5, am1 = cls(q2, 2), cls(q2, 5), cls(q2, -1)
    assert M.symbol(q2, a2, am1).is_zero()
    assert not M.symbol(q2, a2, a5).is_zero()
    # Steinberg over every class pair (a, -a)
    for a in M.k1_group(q2).classes():
        if a.is_zero():
            continue
        minus_a = am1 + a
        assert M.symbol(q2, a, minus_a).is_zero()


def test_symbol_degenerate_and_bilinear(q2):
    zero = M.k1_group(q2).zero()
    assert M.symbol(q2, zero, cls(q2, 5)).is_zero()
    grp = M.k1_group(q2)
    for a in grp.classes():
        for b in grp.classes():
            for c in grp.classes():
                s = M.symbol(q2, a + b, c)
                parts = (M.symbol(q2, a, c).coords + M.symbol(q2, b, c).coords) % 2
                assert KMAP_EQ(s.coords, parts)


def test_symbol_antisymmetric_p2(q2):
    grp = M.k1_group(q2)
    for a in grp.classes():
        for b in grp.classes():
            assert M.symbol(q2, a, b) == M.symbol(q2, b, a)


def test_cup_with_examples(q2):
    a2, a5 = cls(q2, 2), cls(q2, 5)
    cup = M.cup_with(q2, a2, 2)
    assert cup.matrix.rank() == 1
    assert list(cup.matrix.entries[0]) == [0, 0, 1]  # only (2,5) nonzero on the basis
    ann5 = M.cup_with(q2, a5, 2).kernel()
    assert ann5.dim == 2
    assert ann5 == M.norm_subgroup(M.get_extension(q2, q2.element(5)))
    cup3 = M.cup_with(q2, a2, 3)
    assert cup3.matrix.rows == 0
    cup1 = M.cup_with(q2, a2, 1)
    assert KMAP_EQ(cup1.apply(M.k_group(q2, 0).basis_class(0)).coords, a2.coords)


def test_cup_kernel_is_the_norm_hyperplane():
    """For every nonzero a, the degree-2 cup map has kernel N_a, and it
    vanishes on each b exactly where the norm criterion kills (a, b)."""
    for name in ("Q2", "Q2sqrt2", "Q3zeta3"):
        field = LocalField.from_spec(FIELD_PRESETS[name])
        grp = M.k_group(field, 1)
        for a in grp.classes():
            if a.is_zero():
                continue
            cup = M.cup_with(field, a, 2)
            assert cup.kernel() == M.norm_subgroup(M.get_extension(field, a))
            for b in grp.classes():
                assert cup.apply(b).is_zero() == M.symbol(field, a, b).is_zero()
        M.release_caches(field)


def test_ann_pair(q2, q3z):
    a2 = cls(q2, 2)
    # (2, -1) = 0, so the pair annihilator in degree 1 is all of k_0
    assert M.ann_pair(q2, a2, 1) == Subspace.full(2, 1)
    a5 = cls(q2, 5)
    # (5, -1) != 0: -1 is not a norm from Q2(sqrt 5)? It is: N(2+sqrt5) = -1.
    assert M.symbol(q2, a5, M.xi_class(q2)).is_zero()
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
    assert composite == norm_operator(M.sigma_map(sqrt5, 1))


def test_cor_after_res_is_zero(q2, sqrt2, sqrt5):
    for ext in (sqrt2, sqrt5):
        for n in (0, 1, 2):
            comp = (M.norm_map(ext, n) @ M.restriction_map(ext, n)).matrix
            assert comp == FpMatrix.zero(2, comp.rows, comp.cols)


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
