"""Valuations and residues from integral-basis coordinates, against oracles.

The oracles are the routes the library used before: the valuation as
v_p(det) / f of the multiplication matrix, read off the pivots of a
full-pivoting elimination, and the residue found by scanning all p^f
residue representatives.  The coordinate route must agree whenever an
oracle answers, and may raise only where the oracle raises too.
"""

import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from knorm.errors import PrecisionError
from knorm.padic import CZERO, ZERO_EXP, KummerExtension, LocalField
from knorm.presets import FIELD_PRESETS

_INF = float("inf")


def matrix_valuation(field, x):
    """Exact valuation, _INF, or a float bound, from the multiplication matrix."""
    ctx = field.ctx
    if all(c[1] == 0 for c in x):
        min_exp = min(c[0] for c in x)
        return _INF if min_exp >= ZERO_EXP else float(field.e * min_exp)
    if field.degree == 1:
        return x[0][0]
    mat = field._mult_matrix(x)
    rows = list(range(field.degree))
    cols = list(range(field.degree))
    pivot_sum = 0
    while rows:
        best = None
        for i in rows:
            for j in cols:
                c = mat[i][j]
                if c[1] != 0 and (best is None or c[0] < best[2]):
                    best = (i, j, c[0])
        if best is None:
            raise PrecisionError("matrix lost precision")
        bi, bj, bexp = best
        pivot_sum += bexp
        inv = ctx.c_inv(mat[bi][bj])
        for i in rows:
            factor = ctx.c_mul(mat[i][bj], inv)
            if i == bi or factor == CZERO:
                continue
            nf = ctx.c_neg(factor)
            for j in cols:
                if j != bj:
                    mat[i][j] = ctx.c_add(mat[i][j], ctx.c_mul(nf, mat[bi][j]))
            mat[i][bj] = CZERO
        rows.remove(bi)
        cols.remove(bj)
    assert pivot_sum % field.f == 0, "norm valuation not divisible by f"
    return pivot_sum // field.f


def scanned_residue(field, x):
    """The residue coordinates whose representative lies within pi of x."""
    for coords in itertools.product(range(field.p), repeat=field.f):
        diff = field._add(x, field._neg(field._rep_raw(coords)))
        v = matrix_valuation(field, diff)
        if v == _INF or v >= 1:
            return coords
    raise PrecisionError("no residue representative matches")


def _top(preset, a):
    base = LocalField.from_spec(FIELD_PRESETS[preset])
    a = base.pi if a == "pi" else base.element(a)
    return KummerExtension(base, a).top


FIELDS = {
    "Q2sqrt2": lambda: LocalField.from_spec(FIELD_PRESETS["Q2sqrt2"]),
    "Q2unram2": lambda: LocalField.from_spec(FIELD_PRESETS["Q2unram2"]),
    "Q3zeta3": lambda: LocalField.from_spec(FIELD_PRESETS["Q3zeta3"]),
    "Q2sqrt2(sqrt pi)": lambda: _top("Q2sqrt2", "pi"),
    "Q2sqrt2(sqrt 5), f = 2": lambda: _top("Q2sqrt2", 5),
    "Q2unram2(sqrt 2)": lambda: _top("Q2unram2", 2),
    "Q3zeta3(cbrt pi)": lambda: _top("Q3zeta3", "pi"),
    "Q3zeta3(cbrt 4), f = 3": lambda: _top("Q3zeta3", 4),
}
# examples per field: the degree-20 top has a slow oracle
EXAMPLES = {name: 60 for name in FIELDS}
FIELDS["Q5zeta5(pi^(1/5)), degree 20"] = lambda: _top("Q5zeta5", "pi")
EXAMPLES["Q5zeta5(pi^(1/5)), degree 20"] = 12


@functools.lru_cache(maxsize=None)
def field(name):
    return FIELDS[name]()


def plain(f, ints):
    return [f.ctx.c_int(n) for n in ints]


@st.composite
def elements(draw, f):
    """A monomial-lattice element, optionally with cancellation and a pi-shift."""
    ints = st.lists(st.integers(-40, 40), min_size=f.degree, max_size=f.degree)
    x = plain(f, draw(ints))
    if draw(st.booleans()):
        # (a + pi^k * b) - a loses the digits that a carried; a k near the
        # absolute precision e * M of a makes lost digits compete with b
        a = plain(f, draw(ints))
        edge = f.e * f.ctx.M
        k = draw(st.one_of(st.integers(0, 3 * f.e), st.integers(edge - 3 * f.e, edge + f.e)))
        pik = f.pi_pow(k).data
        x = f._add(f._add(a, f._mul(f.level, pik, x)), f._neg(a))
    if draw(st.booleans()):
        x = f._mul(f.level, x, f.pi_pow(draw(st.integers(-2, 2))).data)
    return x


def _answer(fn, *args):
    try:
        return fn(*args)
    except PrecisionError:
        return PrecisionError


def _check(f, x):
    expected = _answer(matrix_valuation, f, x)
    got = _answer(f._val_or_bound, x)
    if expected is not PrecisionError:
        assert got == expected
    expected = _answer(scanned_residue, f, x)
    got = _answer(f.residue_of, x)
    if expected is not PrecisionError:
        assert got == expected


@pytest.mark.parametrize("name", list(FIELDS))
def test_coordinates_agree_with_oracles(name):
    f = field(name)

    @settings(max_examples=EXAMPLES[name], deadline=None, database=None)
    @given(elements(f))
    def run(x):
        _check(f, x)

    run()


def test_basis_is_integral_and_ordered():
    f = field("Q2sqrt2(sqrt 5), f = 2")
    assert (f.e, f.f) == (2, 2)
    for i in range(f.e):
        for j, r in enumerate(f._residue_basis):
            x = f._mul(f.level, f.pi_pow(i).data, r)
            assert f._val_or_bound(x) == i
            if i == 0:
                assert f.residue_of(x) == tuple(int(k == j) for k in range(f.f))


def test_residue_rejects_non_integral():
    f = field("Q3zeta3")
    with pytest.raises(PrecisionError):
        f.residue_of(f.pi_pow(-1))


def test_deep_unit_multiple():
    """2^28 * (1 + i) in Q2(i) has v = 2 * 28 + 1 = 57."""
    f = LocalField(2, [{"kind": "eisenstein", "coeffs": [2, 2]}])  # x^2 + 2x + 2, root i - 1
    x = f._mul(f.level, f.element(2**28).data, f.element([2, 1]).data)
    assert f._val_or_bound(x) == matrix_valuation(f, x) == 57


def test_lost_digits_below_the_answer_raise():
    f = field("Q2sqrt2")  # pi = sqrt 2 and r_0 = 1: coordinates are the digits
    with pytest.raises(PrecisionError):
        f._val_or_bound([(29, 0, 0), (30, 1, 1)])  # O(2^29) + 2^30 pi: v in {58, 60, 61}
    assert f._val_or_bound([(31, 0, 0), (30, 1, 1)]) == 61
    with pytest.raises(PrecisionError):
        f.residue_of([(0, 0, 0), (0, 1, 5)])  # the unit digit is unknown mod 2
    assert f.residue_of([(1, 0, 0), (0, 1, 5)]) == (0,)
    assert f.residue_of([(0, 3, 4), (1, 0, 0)]) == (1,)
