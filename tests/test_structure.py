import pytest

from knorm import milnor as M
from knorm import structure as S
from knorm.errors import MathCheckError
from knorm.fplin import Subspace, intersect_and_sum
from knorm.gmod import decompose, fixed_points
from knorm.padic import LocalField


@pytest.fixture(scope="module")
def q2():
    return LocalField(2)


@pytest.fixture(scope="module")
def q3z():
    return LocalField(3, [{"kind": "eisenstein", "coeffs": [3, 3]}])


@pytest.fixture(scope="module")
def sqrt2(q2):
    return M.get_extension(q2, q2.element(2))


def test_golden_invariants_sqrt2(sqrt2):
    assert S.compute_invariants(sqrt2, 1).as_tuple() == (1, 2, 1, 0, 1, 1)
    assert S.compute_invariants(sqrt2, 2).as_tuple() == (0, 1, 1, 0, 0, 0)
    assert S.compute_invariants(sqrt2, 3).as_tuple() == (0, 0, 0, 0, 0, 0)


def test_golden_decomposition_sqrt2(sqrt2):
    rep = S.decompose_knE(sqrt2, 1)
    assert rep.summand_dims() == {"X1": 1, "X2_summands": 0, "Y_rank": 1, "Z": 1}
    assert sum(i * m for i, m in enumerate(rep.profile.multiplicities, start=1)) == 4
    rep2 = S.decompose_knE(sqrt2, 2)
    assert rep2.summand_dims() == {"X1": 1, "X2_summands": 0, "Y_rank": 0, "Z": 0}
    rep3 = S.decompose_knE(sqrt2, 3)
    assert rep3.profile.total_dim == 0


def test_degree_zero_conventions(sqrt2):
    inv = S.compute_invariants(sqrt2, 0)
    assert inv.as_tuple() == (1, 0, 0, 0, 0, 1)
    rep = S.decompose_knE(sqrt2, 0)
    assert rep.summand_dims() == {"X1": 0, "X2_summands": 0, "Y_rank": 0, "Z": 1}


def test_theorem_items_pass_on_q2_matrix(q2):
    for a in (2, -1, 5, -2, 10, -5, -10):
        ext = M.get_extension(q2, q2.element(a))
        for n in (1, 2, 3):
            rep = S.decompose_knE(ext, n)
            passed, checklist = S.check_theorem_items(rep)
            assert passed, (a, n, [c for c in checklist if not c["passed"]])


def test_canonical_checks_q2_matrix(q2):
    for a in (2, -1, 5, -2, 10, -5, -10):
        ext = M.get_extension(q2, q2.element(a))
        for n in (1, 2, 3):
            passed, checklist = S.check_canonical(ext, n)
            assert passed, (a, n, [c for c in checklist if not c["passed"]])


def test_six_term_dims_sqrt2_n1(sqrt2):
    _, checklist = S.check_canonical(sqrt2, 1)
    by_name = {c["name"]: c for c in checklist}
    assert by_name["six_term_alternating_sum"]["passed"]
    # fixed part of k_1(E) has dimension 3 = number of summands (1 + 1 + 1? here 2 + 1)
    mg = fixed_points(M.sigma_map(sqrt2, 1))
    assert mg.dim == 3


def test_wild_unit_extension_shape(q2):
    # E = Q2(i): k_1(E) is free of rank 2 over the group ring
    ext = M.get_extension(q2, q2.element(-1))
    inv = S.compute_invariants(ext, 1)
    assert inv.as_tuple() == (1, 2, 0, 1, 2, 0)
    rep = S.decompose_knE(ext, 1)
    assert rep.profile.multiplicities == (0, 2)


def test_q3_cubic_extensions(q3z):
    lam = q3z.gen()
    unram = q3z.element(1) + lam**3  # top-level unit: the unramified direction
    cases = [lam, q3z.element(1) + lam, q3z.zeta, unram]
    expected_unram = [True, True, True, False]
    for a, ram in zip(cases, expected_unram):
        ext = M.get_extension(q3z, a)
        assert ext.ramified == ram, ext.label
        for n in (1, 2):
            rep = S.decompose_knE(ext, n)
            assert S.check_theorem_items(rep)[0], (ext.label, n)
            assert S.check_canonical(ext, n)[0], (ext.label, n)
            assert S.check_lemma_VW(ext, n)[0], (ext.label, n)
        inv1 = S.compute_invariants(ext, 1)
        assert inv1.total_dim == 8


def test_no_intermediate_lengths(q3z):
    lam = q3z.gen()
    for a in (lam, q3z.element(1) + lam):
        ext = M.get_extension(q3z, a)
        rep = S.decompose_knE(ext, 1)
        assert all(rep.profile.m(j) == 0 for j in range(3, 3))  # vacuous for p = 3
        mods = M.sigma_map(ext, 1)
        plain = decompose(mods).profile
        inv = rep.invariants
        assert plain.m(1) == inv.upsilon1 + inv.z
        assert plain.m(2) == inv.upsilon2
        assert plain.m(3) == inv.y


def test_lemma_vw_q2(q2):
    for a in (2, 5, -1):
        ext = M.get_extension(q2, q2.element(a))
        for n in (1, 2, 3):
            assert S.check_lemma_VW(ext, n)[0], (a, n)


def test_structure_report_serialization(sqrt2):
    rep = S.decompose_knE(sqrt2, 1)
    passed, checks = S.check_theorem_items(rep)
    d = rep.as_dict()
    assert d["invariants"]["d"] == 1
    assert d["profile"] == [2, 1]
    assert passed and all(item["passed"] for item in checks)
    assert isinstance(d["bases"]["X1"], list)


def test_x1_z_positioning(sqrt2):
    rep = S.decompose_knE(sqrt2, 1)
    i_f = M.restriction_map(sqrt2, 1).image()
    inter, _ = intersect_and_sum(rep.x1, i_f)
    assert inter.dim == 0
    assert rep.z.is_subspace_of(i_f)


def test_context_is_cached_until_released():
    field = LocalField(2)
    ext = M.get_extension(field, field.element(5))
    ctx = S.structure_context(ext, 1)
    assert S.structure_context(ext, 1) is ctx
    assert ctx.invariants == S.compute_invariants(ext, 1)
    gal = ctx.galois()
    assert ctx.galois() is gal
    assert gal.i_n.is_subspace_of(gal.i_f)
    M.release_caches(field)
    assert S.structure_context(ext, 1) is not ctx


def test_invariants_relations_name_each_violation():
    """The relations are reported, not raised: upsilon2 drops out of the
    e relation for p = 2 only.  Negative values are still rejected."""
    inv = S.Invariants(2, 1, d=1, e=2, upsilon1=1, upsilon2=0, y=0, z=1)
    assert inv.relations() == [("relation_e", False), ("relation_d", True)]
    inv = S.Invariants(3, 1, d=2, e=2, upsilon1=1, upsilon2=0, y=1, z=0)
    assert inv.relations() == [("relation_e", True), ("relation_d", False)]
    inv = S.Invariants(2, 1, d=1, e=1, upsilon1=0, upsilon2=1, y=1, z=0)
    assert inv.relations() == [("relation_e", True), ("relation_d", True)]
    with pytest.raises(MathCheckError):
        S.Invariants(3, 1, d=1, e=1, upsilon1=1, upsilon2=0, y=0, z=-1)
