"""Valuations and residues from integral-basis coordinates, against oracles.

The oracles are the routes the library used before: the valuation as
v_p(det) / f of the multiplication matrix, read off the pivots of a
full-pivoting elimination on its integer rows, and the residue found by
scanning all p^f residue representatives.  The coordinate route must
agree whenever an oracle answers, and may raise only where the oracle
raises too.
"""

import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from knorm.errors import PrecisionError
from knorm.padic import KummerExtension, LocalField, PadicElement
from knorm.presets import FIELD_PRESETS
from padic_fields import cbrt4_top, unramified_cubic
from padic_oracle import EliminationInverse

_INF = float("inf")


def _vp(n, p):
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def matrix_valuation(field, x):
    """Exact valuation, _INF, or a float bound, from the multiplication
    matrix: its integer rows are p^(v - c) times the matrix, and they are
    known modulo p^(N - v), the monomial digits that p^N O leaves."""
    v, N, _ = x
    p, n = field.p, field.degree
    if v >= N:
        return _INF if N == _INF else float(field.e * N)
    prec = N - v
    mat = EliminationInverse(field)._mult_matrix(x, prec)
    rows, cols = list(range(n)), list(range(n))
    pivot_sum = 0
    while rows:
        best = None
        for i in rows:
            for j in cols:
                a = mat[i][j] % p**prec
                if a and (best is None or _vp(a, p) < best[2]):
                    best = (i, j, _vp(a, p))
        if best is None:
            raise PrecisionError("matrix lost precision")
        bi, bj, k = best
        pivot_sum += k
        prec -= k
        inv = pow(mat[bi][bj] // p**k, -1, p**prec)
        for i in rows:
            if i != bi:
                m = mat[i][bj] // p**k * inv
                mat[i] = [(a - m * b) % p**prec for a, b in zip(mat[i], mat[bi])]
        rows.remove(bi)
        cols.remove(bj)
    det = pivot_sum + n * (v - field.index)
    assert det % field.f == 0, "norm valuation not divisible by f"
    return det // field.f


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
    "Q3zeta3(cbrt 4), e = 6": cbrt4_top,
    "Q3zeta3(cbrt(1 + pi^3)), unramified, f = 3": unramified_cubic,
}
# examples per field: the degree-20 top has a slow oracle
EXAMPLES = {name: 60 for name in FIELDS}
FIELDS["Q5zeta5(pi^(1/5)), degree 20"] = lambda: _top("Q5zeta5", "pi")
EXAMPLES["Q5zeta5(pi^(1/5)), degree 20"] = 12


@functools.lru_cache(maxsize=None)
def field(name):
    return FIELDS[name]()


def plain(f, ints):
    return f._from_ints(ints)


@st.composite
def elements(draw, f):
    """A monomial-lattice element, optionally with cancellation and a pi-shift."""
    ints = st.lists(st.integers(-40, 40), min_size=f.degree, max_size=f.degree)
    x = plain(f, draw(ints))
    if draw(st.booleans()):
        # (a + pi^k * b) - a loses the digits that a carried; a k near the
        # absolute precision e * M of a makes lost digits compete with b
        a = plain(f, draw(ints))
        edge = f.e * f.cap
        k = draw(st.one_of(st.integers(0, 3 * f.e), st.integers(edge - 3 * f.e, edge + f.e)))
        pik = f.pi_pow(k).data
        x = f._add(f._add(a, f._mul(pik, x)), f._neg(a))
    if draw(st.booleans()):
        x = f._mul(x, f.pi_pow(draw(st.integers(-2, 2))).data)
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
            x = f._mul(f.pi_pow(i).data, r)
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
    x = f._mul(f.element(2**28).data, f.element([2, 1]).data)
    assert f._val_or_bound(x) == matrix_valuation(f, x) == 57


def test_digits_past_the_precision_of_t_are_cut_evenly():
    """An element known beyond T's own precision: its coordinates, whose
    rows of T differ in shift, are all cut at one p^n, and the valuation
    and residue still agree with the oracles."""
    f = field("Q2sqrt2(sqrt 5), f = 2")
    shifts, R, _, _ = f._basis_inverse()
    assert len(set(shifts)) > 1
    for i in range(f.e):
        for r in f._residue_basis:
            v, _, ints = f._mul(f.pi_pow(i).data, r)
            x = f._data(v + 3, v + 3 + R + 20, ints)
            n, _ = f._basis_coords(x)
            assert n == x[0] - f.index + R < x[1]
            assert f._val_or_bound(x) == matrix_valuation(f, x) == f.e * 3 + i
            assert f.residue_of(x) == scanned_residue(f, x)


def test_lost_digits_below_the_answer_raise():
    """An element whose digits are all lost answers no zero-ness question,
    and a residue needs the unit digit of every i = 0 coordinate."""
    f = field("Q2sqrt2")  # pi = sqrt 2 and r_0 = 1: coordinates are the digits
    lost = (29, 29, [0, 0])  # 0 modulo 2^29: v >= 58, nothing more
    assert f._val_or_bound(lost) == 58.0
    for question in (PadicElement(f, lost).valuation, PadicElement(f, lost).is_zero):
        with pytest.raises(PrecisionError):
            question()
    assert f._val_or_bound((30, 31, [0, 1])) == 61  # 2^30 pi, known modulo 2^31
    with pytest.raises(PrecisionError):
        f.residue_of((0, 0, [0, 0]))  # the unit digit is unknown mod 2
    assert f.residue_of((1, 1, [0, 0])) == (0,)
    assert f.residue_of((0, 4, [3, 0])) == (1,)
    with pytest.raises(PrecisionError):
        f.residue_of((-1, 3, [1, 0]))  # 1/2 is not integral
