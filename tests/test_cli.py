import contextlib
import gc
import io
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from knorm import cli, fplin
from knorm import euler as E
from knorm import milnor as M
from knorm.errors import MathCheckError, PrecisionError
from knorm.padic import KummerExtension, LocalField
from knorm.presets import FIELD_PRESETS

TWO_STEP_SPEC = (
    '{"p": 2, "steps": [{"kind": "eisenstein", "coeffs": [-2, 0]}, '
    '{"kind": "unramified", "degree": 2}]}'
)

def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_field_q2(capsys):
    code, out, _ = run(capsys, "field", "--preset", "Q2")
    assert code == 0
    assert "dim k1 = 3" in out
    assert "[2, -1, 5]" in out


def test_field_requires_mu_p(capsys):
    code, _, err = run(capsys, "field", "--spec", '{"p": 3, "steps": []}')
    assert code == 2
    assert "root of unity" in err


def test_malformed_spec(capsys):
    code, _, err = run(capsys, "field", "--spec", "{broken")
    assert code == 2


def test_missing_field(capsys):
    code, _, err = run(capsys, "invariants", "--a", "2")
    assert code == 2


def test_spec_from_file(tmp_path, capsys):
    path = tmp_path / "q2.json"
    path.write_text(json.dumps({"p": 2, "steps": []}))
    code, out, _ = run(capsys, "field", "--spec", str(path))
    assert code == 0


def test_field_json_schema(capsys):
    code, report, _ = run_json(capsys, "field", "--preset", "Q2")
    assert code == 0
    assert report["version"]
    assert report["complement_rule"]
    assert report["field"]["dim_k1"] == 3
    assert report["status"] == "pass"


def test_kgroup(capsys):
    code, out, _ = run(capsys, "kgroup", "--preset", "Q3zeta3")
    assert code == 0
    assert "k1: dim 4" in out
    assert "k3: dim 0" in out


def test_invariants_golden(capsys):
    code, report, _ = run_json(
        capsys, "invariants", "--preset", "Q2", "--a", "2", "--n", "1", "2"
    )
    assert code == 0
    inv1, inv2 = report["results"]
    assert (inv1["d"], inv1["e"], inv1["upsilon1"], inv1["upsilon2"], inv1["y"], inv1["z"]) == (
        1, 2, 1, 0, 1, 1,
    )
    assert (inv2["d"], inv2["e"], inv2["upsilon1"], inv2["upsilon2"], inv2["y"], inv2["z"]) == (
        0, 1, 1, 0, 0, 0,
    )


def test_decompose_command(capsys):
    code, report, _ = run_json(capsys, "decompose", "--preset", "Q2", "--a", "2", "--n", "1")
    assert code == 0
    entry = report["results"][0]
    assert entry["summands"] == {"X1": 1, "X2_summands": 0, "Y_rank": 1, "Z": 1}
    assert report["status"] == "pass"


def test_decompose_degenerate_a(capsys):
    code, _, err = run(capsys, "decompose", "--preset", "Q2", "--a", "17", "--n", "1")
    assert code == 2
    assert "p-th power" in err


def test_decompose_n3_trivial(capsys):
    code, report, _ = run_json(capsys, "decompose", "--preset", "Q2", "--a", "2", "--n", "3")
    assert code == 0
    assert report["results"][0]["profile"] == [0, 0]


def test_euler_manual_roundtrip(capsys):
    manual = '{"p":2,"n":2,"h":[1,3,1],"a":[2,1],"minus_one_norm":true}'
    code, report, _ = run_json(capsys, "euler", "--manual", manual)
    assert code == 0
    entry = report["results"][0]
    assert entry["chi_T"] == -1 and entry["chi_N"] == -2
    # re-feed the reported profile and reproduce the same chi values
    prof = entry["profile"]
    again = json.dumps(
        {"p": prof["p"], "n": prof["n"], "h": prof["h"], "a": prof["a"],
         "minus_one_norm": prof["minus_one_norm"]}
    )
    code2, report2, _ = run_json(capsys, "euler", "--manual", again)
    assert code2 == 0
    assert report2["results"][0]["chi_N"] == entry["chi_N"]
    assert report2["results"][0]["chi_T"] == entry["chi_T"]


def test_euler_field_suite(capsys):
    code, out, _ = run(capsys, "euler", "--preset", "Q2", "--n", "2")
    assert code == 0
    assert "7/7 subgroups" in out


def test_verify_suite_all_q2(capsys):
    code, report, _ = run_json(capsys, "verify", "--preset", "Q2", "--suite", "all")
    assert code == 0
    assert report["status"] == "pass"
    assert len(report["results"]) > 20


def test_verify_single_extension(capsys):
    code, out, _ = run(capsys, "verify", "--preset", "Q2", "--a", "2", "--suite", "sequences")
    assert code == 0
    assert "status: pass" in out


def test_verify_euler_suite_probe(capsys):
    code, out, _ = run(capsys, "verify", "--preset", "Q2", "--suite", "euler", "--n", "2")
    assert code == 0
    assert "chi doubles for 7/7 subgroups" in out
    code, out, _ = run(capsys, "verify", "--preset", "Q2", "--suite", "euler", "--n", "1")
    assert code == 0
    assert "chi doubles for 0/7 subgroups" in out


def test_verify_fault_injection_flips_exit_code(capsys, monkeypatch):
    """Corrupting one stored sigma-matrix entry must turn exit 0 into 1."""
    real_sigma = M.sigma_map

    def corrupted(ext, n):
        module = real_sigma(ext, n)
        if n == 1 and not getattr(corrupted, "fired", False):
            corrupted.fired = True
            entries = module.sigma.copy()
            entries[0, -1] = (entries[0, -1] + 1) % module.p
            try:
                return type(module)(module.p, entries)
            except Exception:
                # the corruption broke unipotence outright; surface it the
                # way the pipeline would
                from knorm.errors import MathCheckError

                raise MathCheckError("corrupted sigma matrix")
        return module

    monkeypatch.setattr("knorm.structure.sigma_map", corrupted)
    code = cli.main(["verify", "--preset", "Q2", "--suite", "canonical", "--n", "1"])
    capsys.readouterr()
    assert code == 1


def test_verify_norm_fault_injection_flips_exit_code(capsys, monkeypatch):
    """Corrupting one entry of the degree-1 norm matrix must turn exit 0
    into 1: the checks that read the shared context can still fail."""
    real_build = M._build_norm_map

    def corrupted(ext, n):
        kmap = real_build(ext, n)
        if n != 1:
            return kmap
        entries = kmap.matrix.copy()
        entries[1, 0] = (entries[1, 0] + 1) % ext.p
        return M.KMap(kmap.source, kmap.target, entries)

    monkeypatch.setattr(M, "_build_norm_map", corrupted)
    code, out, _ = run(capsys, "verify", "--preset", "Q2", "--a", "2")
    assert code == 1
    # the norm image keeps codimension 1; the decomposition and six-term
    # checks catch the corruption
    assert "FAILED: cor_iso_from_x1_onto_cup_annpair" in out
    assert "FAILED: six_term_exact_at_end" in out


def test_verify_sequences_fault_injection_flips_exit_code(capsys, monkeypatch):
    """Making the degree-2 restriction map the identity instead of zero must
    fail the twisted-norm check at n = 2 and turn exit 0 into 1."""
    real_build = M._build_restriction_map

    def corrupted(ext, n):
        kmap = real_build(ext, n)
        return M.KMap(kmap.source, kmap.target, np.eye(1, dtype=np.int64)) if n == 2 else kmap

    monkeypatch.setattr(M, "_build_restriction_map", corrupted)
    code, out, _ = run(capsys, "verify", "--preset", "Q2", "--a", "2", "--suite", "sequences")
    assert code == 1
    assert "twisted-norm a=2 n=2: FAIL" in out
    assert "twisted-norm a=2 n=1: pass" in out
    assert "status: fail" in out


def test_a_skewed_profile_fails_its_theorem_item(capsys, monkeypatch):
    """A decomposition whose profile trades one free summand for p trivial
    ones keeps the total dimension but not the free rank: the report names
    the failed item, y_free_rank, and the run exits 1."""
    from knorm import structure
    from knorm.gmod import SummandProfile

    real = structure.decompose

    def skewed(module, seeds=None):
        dec = real(module, seeds=seeds)
        mult = list(dec.profile.multiplicities)
        mult[0], mult[-1] = mult[0] + module.p, mult[-1] - 1
        dec.profile = SummandProfile(module.p, mult)
        return dec

    monkeypatch.setattr(structure, "decompose", skewed)
    code, out, err = run(capsys, "decompose", "--preset", "Q2", "--a", "2", "--n", "1")
    assert (code, err) == (1, "")
    assert "FAILED: y_free_rank" in out and "status: fail" in out


def test_a_skewed_z_fails_relation_d(capsys, monkeypatch):
    """Invariants whose z is one too large break upsilon2 + z = d: decompose
    names relation_d among its failed items, and invariants names it too,
    in text and in JSON; each exits 1."""
    from knorm import structure

    class Skewed(structure.Invariants):
        __slots__ = ()

        def __init__(self, p, n, d, e, upsilon1, upsilon2, y, z):
            super().__init__(p, n, d, e, upsilon1, upsilon2, y, z + 1)

    monkeypatch.setattr(structure, "Invariants", Skewed)
    code, out, err = run(capsys, "decompose", "--preset", "Q2", "--a", "2", "--n", "1")
    assert (code, err) == (1, "")
    assert "FAILED: relation_d" in out and "status: fail" in out
    code, out, err = run(capsys, "invariants", "--preset", "Q2", "--a", "2", "--n", "1")
    assert (code, err) == (1, "")
    assert "FAILED: relation_d" in out and "relation_e" not in out
    code, out, err = run(capsys, "invariants", "--preset", "Q2", "--a", "2", "--n", "1", "--json")
    report = json.loads(out)
    assert (code, err, report["status"]) == (1, "", "fail")
    assert report["results"][0]["failed"] == ["relation_d"]


def test_norm_membership_fault_exits_1(capsys, monkeypatch):
    """Every conjugate moved off the base field by pi^(prec - 2) * A leaves
    norms with a nonzero off-base block, far above half the precision: a
    failed math check, exit 1, where the earlier check let it pass."""
    from knorm.padic import KummerExtension

    real_sigma = KummerExtension.sigma

    def perturbed(self, x, *k):
        return real_sigma(self, x, *k) + self.embed(self.base.pi_pow(self.base.prec - 2)) * self.A

    monkeypatch.setattr(KummerExtension, "sigma", perturbed)
    code, _, err = run(capsys, "verify", "--preset", "Q2", "--a", "2", "--suite", "canonical")
    assert code == 1
    assert "off the base field" in err


def test_bad_degree_rejected(capsys):
    code, _, err = run(capsys, "verify", "--preset", "Q2", "--n", "7")
    assert code == 2


def test_precision_override_too_small(capsys):
    code, _, err = run(capsys, "field", "--preset", "Q2", "--precision", "3")
    assert code == 2


def test_precision_override_up_to_the_maximum(capsys):
    # twice the default (18 for Q2) and the policy maximum of eight times it
    for precision in ("36", "144"):
        code, out, _ = run(capsys, "field", "--preset", "Q2", "--precision", precision)
        assert code == 0
        assert f"precision: {precision} uniformizer digits" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--preset", "Q2", "--a", "0"],
        ["field", "--spec", '{"p": 2, "steps": [{"kind": "unramified", "degree": "x"}]}'],
        ["field", "--spec", '{"p": 2, "steps": [{"kind": "unramified", "degree": 2.5}]}'],
        ["field", "--spec", '{"p": 2, "steps": [], "precision": "x"}'],
        ["field", "--spec", '{"p": 2, "steps": {}}'],
        ["field", "--preset", "Q2", "--precision", "0"],
        ["field", "--preset", "Q2", "--precision", "145"],
        ["field", "--spec", '{"p": 2, "precision": 64000}'],
        ["field", "--spec", '{"p": 2, "steps": [{"kind": "unramified", "degree": 65}]}'],
        ["field", "--spec", '{"p": 2, "steps": [{"kind": "unramified", "degree": 200}]}'],
        ["field", "--spec", '{"p": 3, "steps": [{"kind": "unramified", "degree": 41}]}'],
        ["field", "--spec", '{"p": 2, "steps": [{"kind": "unramified", "degree": 9}, '
                            '{"kind": "unramified", "degree": 3}]}'],
        ["invariants", "--spec", TWO_STEP_SPEC, "--a", "[[[1]]]"],
        ["invariants", "--spec", TWO_STEP_SPEC, "--a", "[[1, 1, 1]]"],
    ],
)
def test_bad_input_exits_2_with_one_line(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")


def _manual(**changes):
    profile = {"p": 2, "n": 1, "h": [1, 3], "a": [2], "minus_one_norm": True, **changes}
    return json.dumps(profile)


@pytest.mark.parametrize(
    "argv",
    [
        ["field", "--spec", "null", "--precision", "40"],
        ["field", "--spec", '"x"', "--precision", "40"],
        ["field", "--spec", "[1]", "--precision", "40"],
        ["field", "--spec", "null"],
        ["field", "--spec", '{"p": 2, "steps": [' + ", ".join(
            ['{"kind": "unramified", "degree": 2}'] * 8) + "]}"],
        ["field", "--spec", '{"p": 2305843009213693951}'],
        ["field", "--spec", '{"p": 2, "steps": [{"kind": "eisenstein", "coeffs": [-2, false]}]}'],
        ["invariants", "--preset", "Q2sqrt2", "--a", "[true, 1]"],
        ["euler", "--manual", _manual(h=[1, "a"])],
        ["euler", "--manual", _manual(p="x")],
        ["euler", "--manual", _manual(h=None)],
        ["euler", "--manual", _manual(h={"x": 1})],
        ["euler", "--manual", _manual(h=3)],
        ["euler", "--manual", _manual(n=1.5)],
        ["euler", "--manual", _manual(h=[1, 3.7])],
        ["euler", "--manual", _manual(p=0)],
        ["euler", "--manual", _manual(p=True)],
        ["euler", "--manual", _manual(p=2305843009213693951)],
        ["euler", "--manual", _manual(minus_one_norm="yes")],
        ["verify", "--manual", _manual(label=5)],
    ],
)
def test_malformed_input_exits_2_not_4(capsys, argv):
    """A spec that parses to a non-object, one too long to name a file,
    a prime beyond the supported bound, a bool read as a digit, and
    manual profiles with entries that are not integers (or are
    truncated, or a bool, or not prime) are bad input: exit 2, nothing
    on stdout, one line on stderr."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_a_spec_file_that_is_not_text_exits_2(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_bytes(b"\xd0\x00\xff")
    code, out, err = run(capsys, "field", "--spec", str(path))
    assert (code, out) == (2, "") and len(err.splitlines()) == 1


def test_unramified_degree_40_is_found_quickly(capsys):
    spec = '{"p": 2, "steps": [{"kind": "unramified", "degree": 40}]}'
    code, out, _ = run(capsys, "field", "--spec", spec)
    assert code == 0
    assert "dim k1 = 42" in out


def test_enumeration_above_the_class_bound_exits_2_before_any_top(monkeypatch, capsys):
    """Q7(zeta_7) has dim k_1 = 8, within the dimension bound, but
    (7^8 - 1)/6 = 960800 classes: refused before a single top is built."""
    built = []
    monkeypatch.setattr(M, "KummerExtension", lambda *args, **kw: built.append(args))
    spec = '{"p": 7, "steps": [{"kind": "eisenstein", "coeffs": [7, 21, 35, 35, 21, 7]}]}'
    code, out, err = run(capsys, "verify", "--spec", spec)
    assert code == 2 and out == ""
    assert "960800" in err and len(err.splitlines()) == 1
    assert built == []


def test_q2_verify_stays_within_its_rref_budget(monkeypatch, capsys):
    """Each subspace is eliminated once: a Q2 verify made 2363 rref calls
    when membership, kernels and intersections eliminated afresh, 942 with
    stored pivots and one echelon split each, 899 once the unit levels of
    k1_structure were filled without a Subspace, 885 once the annihilator
    of a was the kernel of its cup map, read off the split that gives the
    cup image too, and makes 815 now that every map splits once for its
    kernel and image and the fixed filtration skips the steps known zero."""
    calls = []
    rref = fplin.rref

    def counted(mat, p):
        calls.append(np.shape(mat))
        return rref(mat, p)

    monkeypatch.setattr(fplin, "rref", counted)
    assert cli.main(["verify", "--preset", "Q2", "--json"]) == 0
    capsys.readouterr()
    assert len(calls) <= 815


def test_one_integer_elimination_per_field(monkeypatch, capsys):
    """Inverses take Newton steps, so the only integer elimination is the
    one that gives each field's integral-basis coordinates T."""
    from knorm.padic import LocalField

    solved, solve = [], LocalField._solve

    def counted(self, *args):
        solved.append(self)
        return solve(self, *args)

    monkeypatch.setattr(LocalField, "_solve", counted)
    assert cli.main(["verify", "--preset", "Q2", "--json"]) == 0
    capsys.readouterr()
    assert solved and len(solved) == len({id(f) for f in solved})


Q7_ZETA7_SPEC = '{"p": 7, "steps": [{"kind": "eisenstein", "coeffs": [7, 21, 35, 35, 21, 7]}]}'
P3_SPEC = '{"p": 3, "steps": [{"kind": "eisenstein", "coeffs": [3, 0, 0, 0, 3, 0]}]}'


@pytest.mark.parametrize(
    "argv",
    [
        ["--preset", "Q5zeta5", "--a", "[1,0,1]", "--suite", "sequences"],
        ["--spec", Q7_ZETA7_SPEC, "--a", "[1,0,1]", "--suite", "euler", "--n", "1"],
        ["--spec", P3_SPEC, "--a", "[-2,0,1,0,-2,0]", "--suite", "sequences"],
    ],
    ids=["Q5zeta5 a=1+pi^2", "Q7zeta7 a=1+pi^2", "p=3 e=6 a=-2+pi^2-2pi^4"],
)
def test_every_kummer_top_builds(capsys, argv):
    """Tops whose integral basis B lost digits to powers of pi, when its
    columns were products at the working precision: each of these exited
    3 with "elimination failed: matrix lost precision"."""
    code, out, err = run(capsys, "verify", *argv)
    assert (code, err) == (0, "")
    assert out.endswith("status: pass\n")


@pytest.mark.parametrize(
    "argv, suite, target",
    [
        (["verify", "--suite", "canonical"], "canonical", "check_canonical"),
        (["verify", "--suite", "sequences"], "sequences", "projection_formula_check"),
        (["verify", "--suite", "euler"], "euler", "profile_from_field"),
        (["euler"], "euler", "profile_from_field"),
    ],
)
def test_an_error_mid_enumeration_names_the_extension_and_the_suite(
    monkeypatch, capsys, argv, suite, target
):
    """The exit code, the message and the empty stdout stay; stderr's one
    line adds the extension and the suite."""
    real = getattr(cli, target)

    def failing(ext, *args):
        if ext.label == "2*5":
            raise PrecisionError("injected")
        return real(ext, *args)

    monkeypatch.setattr(cli, target, failing)
    code, out, err = run(capsys, *argv, "--preset", "Q2")
    assert (code, out) == (3, "")
    assert err == f"precision error: injected [a=2*5, suite {suite}]\n"


@pytest.mark.parametrize(
    "suite, target",
    [("canonical", "check_canonical"), ("sequences", "projection_formula_check")],
)
def test_an_internal_error_exits_4_with_one_line(monkeypatch, capsys, suite, target):
    """An exception that is not a knorm error, such as running out of
    memory, exits 4 (not 1, a failed check) with one line on stderr that
    names the extension and the suite, no traceback and an empty stdout."""
    real = getattr(cli, target)

    def exhausted(ext, *args):
        if ext.label == "2*5":
            raise MemoryError("injected")
        return real(ext, *args)

    monkeypatch.setattr(cli, target, exhausted)
    code, out, err = run(capsys, "verify", "--suite", suite, "--preset", "Q2", "--json")
    assert (code, out) == (cli.EXIT_INTERNAL, "") and cli.EXIT_INTERNAL == 4
    assert err == f"internal error: MemoryError: injected [a=2*5, suite {suite}]\n"


def test_main_frees_the_loaded_field(monkeypatch, capsys):
    """With automatic collection off, the field dies when main returns."""
    loaded = []
    real_load = cli._load_field

    def load(args):
        field = real_load(args)
        loaded.append(weakref.ref(field))
        return field

    monkeypatch.setattr(cli, "_load_field", load)
    gc.disable()
    try:
        assert cli.main(["verify", "--preset", "Q2", "--a", "2", "--n", "1"]) == 0
        assert len(loaded) == 1 and loaded[0]() is None
    finally:
        gc.enable()
    capsys.readouterr()


def test_verify_q5zeta5_uniformizer_canonical(capsys):
    code, report, _ = run_json(
        capsys, "verify", "--preset", "Q5zeta5", "--a", "uniformizer", "--suite", "canonical"
    )
    assert code == 0 and report["status"] == "pass"
    details = [
        {item["name"]: item["detail"] for item in entry["decomposition"] if "detail" in item}
        for entry in report["results"]
    ]
    # (dim X1, dim Z, rank Y, dim k_n(E)) for n = 1, 2, 3
    expected = [(1, 1, 4, 22), (1, 0, 0, 1), (0, 0, 0, 0)]
    for d, (x1, z, y, total) in zip(details, expected, strict=True):
        assert d["x1_trivial"] == f"dim X1 = {x1}"
        assert d["z_trivial"] == f"dim Z = {z}"
        assert d["y_free_rank"] == f"rank Y = {y}"
        assert d["total_dimension"] == f"dim = {total}"


def test_report_json_matches_the_standard_encoder():
    report = {
        "ints": [1, -2, np.int64(3)],
        "literals": [True, False, None, np.bool_(True)],
        "text": "\u00e9\"\n",
        "empty": [[], {}, ()],
        "tuples": (1, (2, "x")),
        "floats": [1.5, float("nan"), np.float64(2.5)],
        "array": np.array([[1, 2], [3, 4]]),
        "nested": {"a": {"b": [{"c": np.arange(2)}, []]}},
    }
    assert cli._to_json(report) == json.dumps(report, indent=2, default=cli._json_default)


@pytest.mark.parametrize(
    "argv, default",
    [
        (["verify", "--preset", "Q2"], 18),
        (["verify", "--preset", "Q3zeta3", "--a", "uniformizer", "--n", "0", "1", "2", "3", "4"],
         22),
        (["invariants", "--spec", TWO_STEP_SPEC, "--a", "[[1, 1], [0, 1]]"], 26),
        # the degree-20 and degree-100 tops, whose cap counts p-digits
        (["verify", "--preset", "Q5zeta5", "--a", "uniformizer"], 30),
    ],
)
def test_doubling_the_precision_changes_no_result(capsys, argv, default):
    """The report at twice the default precision, which reaches every top
    field too, differs from the default one only in its precision line."""
    code, plain, _ = run(capsys, *argv, "--json")
    assert code == 0 and f'"precision": {default},' in plain
    code, doubled, _ = run(capsys, *argv, "--precision", str(2 * default), "--json")
    assert code == 0
    assert doubled == plain.replace(f'"precision": {default},', f'"precision": {2 * default},', 1)


def test_presentation_changes_no_euler_row(capsys):
    """Q2(sqrt 2) as x^2 - 2 and as x^2 - 8x + 14, whose roots are 4 +- sqrt 2,
    gives the same Euler results; the second has a middle coefficient."""
    results = []
    for coeffs in ([-2, 0], [14, -8]):
        spec = json.dumps({"p": 2, "steps": [{"kind": "eisenstein", "coeffs": coeffs}]})
        code, report, _ = run_json(capsys, "euler", "--spec", spec, "--n", "1", "2")
        assert code == 0
        results.append(report["results"])
    assert len(results[0]) == 32
    assert results[0] == results[1]


# JSON leaves as reports hold them, NumPy scalars included
_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-10**20, 10**20), st.text(max_size=6),
    st.floats(allow_nan=False), st.integers(-99, 99).map(np.int64), st.booleans().map(np.bool_),
)
_values = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
_reports = st.fixed_dictionaries({
    "version": st.text(max_size=5),
    "complement_rule": st.text(max_size=5),
    "field": st.none() | st.dictionaries(st.text(max_size=4), _values, max_size=3),
    "results": st.lists(_values, max_size=5),
    "status": st.sampled_from(["pass", "fail"]),
})


@settings(max_examples=200, deadline=None)
@given(report=_reports)
def test_streamed_json_is_the_printed_document(report):
    """--json writes print(_to_json(report))'s bytes, one top-level value or
    one result at a time, never the document as one string."""
    printed, streamed, pieces = io.StringIO(), io.StringIO(), []
    with contextlib.redirect_stdout(printed):
        print(cli._to_json(report))
    real_write = streamed.write

    def write(text):
        pieces.append(text)
        return real_write(text)

    streamed.write = write
    with contextlib.redirect_stdout(streamed):
        cli._emit(report, True, [])
    assert streamed.getvalue() == printed.getvalue()
    assert len(pieces) > len(report) + len(report["results"])


def test_each_top_lives_only_until_its_turn_ends(monkeypatch, capsys):
    """Q3(zeta_3): at every class boundary the base keeps no top but xi's,
    which the xi-cup of earlier classes reads, and only until xi's turn;
    every top is built once."""
    built, turns = [], []
    real_init, real_drop = KummerExtension.__init__, cli.drop_extension

    def init(self, base, *args, **kw):
        real_init(self, base, *args, **kw)
        if base.degree == 2:  # a top over Q3(zeta_3), not over one of its tops
            built.append(self.label)

    def drop(ext):
        real_drop(ext)
        alive = sorted(kept.label for kept in ext.base._caches["kummer_exts"].values())
        turns.append((ext.base, ext.label, alive))

    monkeypatch.setattr(KummerExtension, "__init__", init)
    monkeypatch.setattr(cli, "drop_extension", drop)
    assert cli.main(["verify", "--preset", "Q3zeta3", "--json"]) == 0
    capsys.readouterr()
    field = turns[0][0]
    xi = M._key_label(field, M._class_key(field, M.xi_class(field)))
    labels = [label for _, label, _ in turns]
    assert len(labels) == len(set(built)) == len(built) == 40 and sorted(built) == sorted(labels)
    xi_turn = labels.index(xi)
    assert all(alive in ([], [xi]) for _, _, alive in turns[:xi_turn])
    assert any(alive for _, _, alive in turns[:xi_turn])
    assert all(alive == [] for _, _, alive in turns[xi_turn:])


@pytest.mark.parametrize("argv", [["verify"], ["verify", "--suite", "euler"], ["euler"]])
def test_no_profile_kept_for_the_corollary_holds_an_extension(monkeypatch, capsys, argv):
    seen = []
    real = cli.corollary_checks

    def corollary(profs):
        seen.extend(profs)
        return real(profs)

    monkeypatch.setattr(cli, "corollary_checks", corollary)
    code, _, _ = run(capsys, *argv, "--preset", "Q2", "--n", "1", "2")
    assert code == 0 and len(seen) == 14
    assert all(prof.ext is None and prof.source == "local_field" for prof in seen)


def test_enumerating_q5zeta5_builds_no_top(monkeypatch):
    """The 3906 classes of Q5(zeta_5) come as keys; no KummerExtension is
    constructed until get_extension is asked for one."""
    field = LocalField.from_spec(dict(FIELD_PRESETS["Q5zeta5"]))
    built = []
    monkeypatch.setattr(KummerExtension, "__init__", lambda self, *args, **kw: built.append(args))
    keys = E.enumerate_extension_classes(field)
    assert len(keys) == len(set(keys)) == 3906 and built == []
    assert "kummer_exts" not in field._caches


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_a_failed_check_in_one_class_writes_nothing_to_stdout(monkeypatch, capsys, json_flag):
    """A MathCheckError raised in one class's sequences suite, after the
    earlier classes ran every suite, exits 1 with an empty stdout and one
    stderr line naming that class and suite."""
    real = cli.verify_voevodsky_seq

    def failing(ext, m):
        if ext.label == "2*5":
            raise MathCheckError("injected")
        return real(ext, m)

    monkeypatch.setattr(cli, "verify_voevodsky_seq", failing)
    code, out, err = run(capsys, "verify", "--preset", "Q2", *json_flag)
    assert (code, out) == (1, "")
    assert err == "mathematical check failed: injected [a=2*5, suite sequences]\n"
