import pytest

from knorm import euler as E
from knorm import milnor as M
from knorm.errors import InputError, UnsupportedOperationError
from knorm.padic import LocalField


@pytest.fixture(scope="module")
def q2():
    return LocalField(2)


@pytest.fixture(scope="module")
def sqrt2(q2):
    return M.get_extension(q2, q2.element(2))


@pytest.fixture(scope="module")
def q3z():
    return LocalField(3, [{"kind": "eisenstein", "coeffs": [3, 3]}])


def test_profile_from_field_examples(q2, sqrt2):
    prof = E.profile_from_field(sqrt2, 2)
    assert prof.h == [1, 3, 1]
    assert prof.a == [2, 1]
    assert prof.d == [1, 1, 0]
    assert prof.minus_one_norm is True
    prof5 = E.profile_from_field(M.get_extension(q2, q2.element(5)), 2)
    assert prof5.h == [1, 3, 1] and prof5.a == [2, 1] and prof5.d == [1, 1, 0]


def test_profile_degree_zero(sqrt2):
    prof = E.profile_from_field(sqrt2, 0)
    assert prof.h == [1] and prof.a == [] and prof.d == [1]
    assert E.chi(prof, "T") == 1
    assert E.chi(prof, "N") == 1


def test_profile_invariant_h_is_a_plus_d(q2):
    for a in (2, 5, -1, -10):
        prof = E.profile_from_field(M.get_extension(q2, q2.element(a)), 2)
        for i in range(1, 3):
            assert prof.h[i] == prof.a_at(i) + prof.d_at(i)


def test_chi_examples(sqrt2):
    prof = E.profile_from_field(sqrt2, 2)
    assert E.chi(prof, "T") == -1
    assert E.chi(prof, "N") == -2
    with pytest.raises(InputError):
        E.chi(prof, "Q")


def test_dim_formula_variants_agree(q2, sqrt2):
    prof = E.profile_from_field(sqrt2, 2)
    assert [E.dim_HN_formula(prof, i, "c") for i in range(3)] == [1, 4, 1]
    for i in (1, 2):
        assert E.dim_HN_formula(prof, i, "a") == E.dim_HN_formula(prof, i, "c")
        assert E.dim_HN_formula(prof, i, "b") == E.dim_HN_formula(prof, i, "c")
        assert E.dim_HN_formula(prof, i, "c") == M.k_group(sqrt2.top, i).dim


def test_dim_formula_variant_b_license(q2):
    # a = -1: -1 is not a norm from Q2(i), so variant b is not licensed
    ext = M.get_extension(q2, q2.element(-1))
    prof = E.profile_from_field(ext, 2)
    assert prof.minus_one_norm is False
    with pytest.raises(InputError):
        E.dim_HN_formula(prof, 1, "b")
    # but variants a and c still agree with the direct dimensions
    for i in (1, 2):
        assert E.dim_HN_formula(prof, i, "a") == E.dim_HN_formula(prof, i, "c")
        assert E.dim_HN_formula(prof, i, "c") == M.k_group(ext.top, i).dim


def test_manual_profile_roundtrip():
    prof = E.profile_from_manual(
        {"p": 2, "n": 2, "h": [1, 3, 1], "a": [2, 1], "minus_one_norm": True}
    )
    assert E.chi(prof, "T") == -1
    assert E.chi(prof, "N") == -2
    passed, entry = E.theorem3_check(prof)
    assert passed
    assert entry["chi_free_N"] == -2


def test_manual_profile_flag_required_for_b():
    prof = E.profile_from_manual({"p": 2, "n": 2, "h": [1, 3, 1], "a": [2, 1]})
    with pytest.raises(InputError):
        E.dim_HN_formula(prof, 1, "b")
    _, entry = E.theorem3_check(prof)  # identity (a) still checked
    assert entry["identity_a"]["ok"]
    assert entry["identity_b"]["ok"] is None


def test_manual_profile_validation():
    with pytest.raises(InputError):
        E.profile_from_manual({"p": 2, "n": 2, "h": [2, 3, 1], "a": [2, 1]})
    with pytest.raises(InputError):
        E.profile_from_manual({"p": 2, "n": 2, "h": [1, 3, 1], "a": [2]})
    with pytest.raises(InputError):
        E.profile_from_manual({"p": 2, "n": 1, "h": [1, 3], "a": [5]})
    with pytest.raises(InputError):
        E.profile_from_manual({"p": 2, "h": [1], "a": []})


def test_theorem3_on_q2_extensions(q2):
    for a in (2, 5, -1, -2, 10, -5, -10):
        ext = M.get_extension(q2, q2.element(a))
        for n in (1, 2):
            _, entry = E.theorem3_check(E.profile_from_field(ext, n))
            assert entry["identity_a"]["ok"], (a, n, entry)
            assert entry["variants_agree"], (a, n)
            if entry["identity_b"]["ok"] is not None:
                assert entry["identity_b"]["ok"], (a, n)


def test_theorem3_q3(q3z):
    lam = q3z.gen()
    for a in (lam, q3z.element(1) + lam):
        ext = M.get_extension(q3z, a)
        for n in (1, 2):
            passed, entry = E.theorem3_check(E.profile_from_field(ext, n))
            assert passed, (n, entry)


def test_corollary_full_q2(q2):
    exts = [M.get_extension(q2, key) for key in E.enumerate_extension_classes(q2)]
    assert len(exts) == 7
    profs2 = [E.profile_from_field(e, 2) for e in exts]
    passed2, rep2 = E.corollary_checks(profs2)
    assert passed2 and rep2["all_doubling"]  # consistent with cd = 2
    profs1 = [E.profile_from_field(e, 1) for e in exts]
    passed1, rep1 = E.corollary_checks(profs1)
    assert passed1
    assert not rep1["all_doubling"]  # cd != 1: some subgroup must refuse to double
    for row in rep2["per_subgroup"]:
        assert row["chi_N"] == -2 and row["chi_T"] == -1


def test_corollary_manual_trivial_branch():
    prof = E.profile_from_manual(
        {"p": 2, "n": 2, "h": [1, 2, 1], "a": [2, 1], "minus_one_norm": True, "label": "m"}
    )
    # d_n = 0 by construction: the equivalence branch must report doubling
    _, rep = E.corollary_checks([prof])
    assert rep["per_subgroup"][0]["cor_surjective"]
    assert rep["per_subgroup"][0]["equivalence_ok"]


def test_chi_stable_past_cohomological_dimension():
    # adding zero h-entries above the dimension changes nothing (variant c)
    base = E.profile_from_manual(
        {"p": 2, "n": 2, "h": [1, 3, 1], "a": [2, 1], "minus_one_norm": True}
    )
    extended = E.profile_from_manual(
        {"p": 2, "n": 4, "h": [1, 3, 1, 0, 0], "a": [2, 1, 0, 0], "minus_one_norm": True}
    )
    assert E.chi(base, "N") == E.chi(extended, "N")
    assert E.chi(base, "T") == E.chi(extended, "T")


def test_enumeration_size_guard():
    # three stacked quadratic Eisenstein steps: degree 8, dim k_1 = 10
    big = LocalField(2, [
        {"kind": "eisenstein", "coeffs": [2, 0]},
        {"kind": "eisenstein", "coeffs": [[0, 1], 0]},
        {"kind": "eisenstein", "coeffs": [[0, 1], 0]},
    ])
    assert M.k_group(big, 1).dim == 10
    with pytest.raises(UnsupportedOperationError):
        E.enumerate_extension_classes(big)
