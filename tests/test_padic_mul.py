"""Tower multiplication against the per-coefficient kernel it replaced.

The oracle is the earlier dense recursive product on nested data, with
the earlier interval coefficients of ``tuple_kernel`` run at twice the
field's digits: it allocates a zero block for every convolution slot,
skips only the exact-zero blocks of the left operand and of the
reduction's leading slots, and subtracts the product of each leading
slot with every step coefficient.  The integer kernel's product of x and
y must agree with the oracle's product of any x' and y' that x and y
allow, modulo the p^N the kernel states: the operands are moved within
their own precision before the oracle sees them, so this checks both the
value and the honesty of the stated precision.
"""

import functools
import math

import pytest
from hypothesis import given, settings, strategies as st

from knorm.errors import PrecisionError
from knorm.padic import KummerExtension, LocalField
from knorm.presets import FIELD_PRESETS
from padic_fields import cbrt4_top, unramified_cubic
from tuple_kernel import CZERO, ZERO_EXP, Ctx


class OracleKernel:
    """The dense recursive product on nested interval data, with its own
    recursive zero, add and neg and nested views of the step
    polynomials."""

    def __init__(self, field):
        self.steps, self.level = field.steps, field.level
        self.ctx = Ctx(field.p, 2 * (field.cap + field.index))
        self.polys = [
            [self.nest([self.ctx.c_int(a) for a in c], level)
             for c in _blocks(step.poly, step.degree)]
            for level, step in enumerate(field.steps)
        ]

    def nest(self, flat, level=None):
        """The nested view of flat data at a level."""
        level = self.level if level is None else level
        if level == 0:
            return flat[0]
        return [self.nest(b, level - 1) for b in _blocks(flat, self.steps[level - 1].degree)]

    def flatten(self, x, level=None):
        level = self.level if level is None else level
        if level == 0:
            return [x]
        return [c for a in x for c in self.flatten(a, level - 1)]

    def product(self, x, y):
        """The oracle product of flat interval data, as flat data."""
        return self.flatten(self._mul(self.level, self.nest(x), self.nest(y)))

    def _zero_raw(self, level):
        if level == 0:
            return CZERO
        return [self._zero_raw(level - 1) for _ in range(self.steps[level - 1].degree)]

    def _add(self, level, x, y):
        if level == 0:
            return self.ctx.c_add(x, y)
        return [self._add(level - 1, a, b) for a, b in zip(x, y)]

    def _neg(self, level, x):
        if level == 0:
            return self.ctx.c_neg(x)
        return [self._neg(level - 1, a) for a in x]

    def _is_exact_zero(self, level: int, x) -> bool:
        if level == 0:
            return x[1] == 0 and x[0] >= ZERO_EXP
        return all(self._is_exact_zero(level - 1, a) for a in x)

    def _mul(self, level: int, x, y):
        if level == 0:
            return self.ctx.c_mul(x, y)
        d = self.steps[level - 1].degree
        conv = [self._zero_raw(level - 1) for _ in range(2 * d - 1)]
        for i, xi in enumerate(x):
            if self._is_exact_zero(level - 1, xi):
                continue
            for j, yj in enumerate(y):
                conv[i + j] = self._add(level - 1, conv[i + j], self._mul(level - 1, xi, yj))
        return self._reduce(level, conv)

    def _reduce(self, level: int, conv):
        d = self.steps[level - 1].degree
        poly = self.polys[level - 1]
        for i in range(len(conv) - 1, d - 1, -1):
            lead = conv[i]
            if self._is_exact_zero(level - 1, lead):
                continue
            for j in range(d):
                term = self._mul(level - 1, lead, poly[j])
                conv[i - d + j] = self._add(level - 1, conv[i - d + j], self._neg(level - 1, term))
        return conv[:d]


def _blocks(flat, d):
    size = len(flat) // d
    return [flat[i * size : (i + 1) * size] for i in range(d)]


def monomial_coords(f, x):
    """(e, ints): the monomial coordinates of x are p^e * ints."""
    v, _, ints = x
    return v - f.index, ints


def as_intervals(f, oracle, e, ints):
    """Exact monomial coordinates p^e * ints as interval coefficients."""
    out = []
    for a in ints:
        c = oracle.ctx.c_int(a)
        out.append(c if c == CZERO else (c[0] + e, c[1], c[2]))
    return out


def moved(f, x, r):
    """(e, ints) of x + p^N_x * r, r monomial ints: a value x allows."""
    e, ints = monomial_coords(f, x)
    if x[1] == float("inf"):
        return e, ints
    N = x[1]
    if N >= e:
        return e, [a + b * f.p ** (N - e) for a, b in zip(ints, r)]
    return N, [a * f.p ** (e - N) + b for a, b in zip(ints, r)]


def assert_agrees(f, got, oracle_out):
    """got, known modulo p^N O by its own account, against the oracle's
    intervals, which must know the value to at least those digits: the
    difference, read in integral-basis coordinates through T, lies in
    p^N times the integers."""
    v, N, ints = got
    if N == float("inf"):
        assert all(c == CZERO for c in oracle_out)
        return
    known = min(c[0] + c[2] if c[1] else c[0] for c in oracle_out)
    assert known >= N, "the oracle knows fewer digits than the kernel states"
    e = v - f.index
    low = min([e] + [c[0] for c in oracle_out if c[1]])
    diff = [
        a * f.p ** (e - low) - (c[1] * f.p ** (c[0] - low) if c[1] else 0)
        for a, c in zip(ints, oracle_out)
    ]
    if f.degree == 1:
        assert diff[0] % f.p ** max(N - low, 0) == 0
        return
    shifts, R, rows, _ = f._basis_inverse()
    for t, row in zip(shifts, rows):
        need = N - t - low
        assert need <= R - min(shifts), "T is not precise enough to check the stated digits"
        if need > 0:
            assert sum(a * b for a, b in zip(row, diff)) % f.p**need == 0


def _preset(name):
    return LocalField.from_spec(FIELD_PRESETS[name])


def _top(base, a):
    a = base.pi if a == "pi" else base.element(a)
    return KummerExtension(base, a).top


FIELDS = {
    "Q2sqrt2": lambda: _preset("Q2sqrt2"),
    "Q2unram2": lambda: _preset("Q2unram2"),
    "Q3zeta3": lambda: _preset("Q3zeta3"),
    "Q5zeta5": lambda: _preset("Q5zeta5"),
    "Q2sqrt2(sqrt pi)": lambda: _top(_preset("Q2sqrt2"), "pi"),
    "Q2sqrt2(sqrt 5), f = 2": lambda: _top(_preset("Q2sqrt2"), 5),
    "Q2unram2(sqrt 2), f = 2": lambda: _top(_preset("Q2unram2"), 2),
    "Q3zeta3(cbrt pi)": lambda: _top(_preset("Q3zeta3"), "pi"),
    "Q3zeta3(cbrt 4), e = 6": cbrt4_top,
    "Q3zeta3(cbrt(1 + pi^3)), unramified, f = 3": unramified_cubic,
    "Q5zeta5(pi^(1/5)), degree 20": lambda: _top(_preset("Q5zeta5"), "pi"),
    "Q2sqrt2(sqrt pi)(sqrt pi), level 3": lambda: _top(_top(_preset("Q2sqrt2"), "pi"), "pi"),
}
EXAMPLES = {name: 100 for name in FIELDS}
EXAMPLES["Q5zeta5(pi^(1/5)), degree 20"] = 30


@functools.lru_cache(maxsize=None)
def field(name):
    return FIELDS[name]()


@functools.lru_cache(maxsize=None)
def integral_basis(name):
    """p^index times the monomial ints of each r_j * pi^i: exact integers."""
    f = field(name)
    out, pik = [], f._one_raw()
    for _ in range(f.e):
        for r in f._residue_basis:
            v, _, ints = f._mul(pik, r)
            out.append([a * f.p**v for a in ints])
        pik = f._mul(pik, f._pi)
    return out


@st.composite
def lattice_ints(draw, f, level, bound):
    """Monomial ints with zero blocks possible at every level."""
    if level == 0:
        return [draw(st.integers(0, bound - 1))]
    if level < f.level and draw(st.integers(0, 3)) == 0:
        return [0] * math.prod(step.degree for step in f.steps[:level])
    d = f.steps[level - 1].degree
    return [a for _ in range(d) for a in draw(lattice_ints(f, level - 1, bound))]


@st.composite
def elements(draw, name):
    """Kernel data: an exact zero, a vanished element, a sparse element of
    p^v L, or a dense element of p^v O drawn over the integral basis, at
    full or reduced relative precision, shifts below zero included."""
    f = field(name)
    kind = draw(st.sampled_from(["exact", "vanished", "lattice", "lattice", "integral"]))
    if kind == "exact":
        return f._zero_raw()
    v = draw(st.integers(-3, 12))
    if kind == "vanished":
        return (v, v, [0] * f.degree)
    rel = draw(st.one_of(st.just(f.cap), st.integers(1, f.cap)))
    if kind == "lattice":
        ints = [a * f.p**f.index for a in draw(lattice_ints(f, f.level, f.p**rel))]
    else:
        coeffs = draw(st.lists(st.integers(0, f.p**rel - 1), min_size=f.degree, max_size=f.degree))
        basis = integral_basis(name)
        ints = [sum(a * col[l] for a, col in zip(coeffs, basis)) for l in range(f.degree)]
    return f._data(v, v + rel, ints)


def moves(f):
    return st.lists(st.integers(0, f.p**3), min_size=f.degree, max_size=f.degree)


def check_product(name, x, y, rx, ry):
    f = field(name)
    oracle = OracleKernel(f)
    got = f._mul(x, y)
    ex, xs = moved(f, x, rx)
    ey, ys = moved(f, y, ry)
    want = oracle.product(as_intervals(f, oracle, ex, xs), as_intervals(f, oracle, ey, ys))
    assert_agrees(f, got, want)


@pytest.mark.parametrize("name", list(FIELDS))
def test_products_match_the_dense_kernel(name):
    f = field(name)

    @settings(max_examples=EXAMPLES[name], deadline=None, database=None)
    @given(elements(name), elements(name), moves(f), moves(f))
    def run(x, y, rx, ry):
        check_product(name, x, y, rx, ry)

    run()


@pytest.mark.parametrize("name", ["Q3zeta3(cbrt 4), e = 6", "Q5zeta5(pi^(1/5)), degree 20"])
def test_products_of_basis_elements_match(name):
    """Products that the k_1 maps actually form, including sparse lifts."""
    f = field(name)
    elts = [e.data for e in f.k1_structure()] + [f._pi, f._gen_raw(), f._one_raw()]
    still = [0] * f.degree
    for x in elts:
        for y in elts[::3]:
            check_product(name, x, y, still, still)


@pytest.mark.parametrize("name", ["Q3zeta3(cbrt 4), e = 6",
                                  "Q3zeta3(cbrt(1 + pi^3)), unramified, f = 3",
                                  "Q2sqrt2(sqrt pi)(sqrt pi), level 3"])
def test_inverses_are_honest(name):
    """y = 1/x, known modulo p^N_y, satisfies x' * y = 1 modulo p^(v_x + N_y)
    for every x' that x allows."""
    f = field(name)

    @settings(max_examples=40, deadline=None, database=None)
    @given(elements(name), moves(f))
    def run(x, rx):
        try:
            y = f._inv(x)
        except PrecisionError:
            return
        oracle = OracleKernel(f)
        ex, xs = moved(f, x, rx)
        ey, ys = monomial_coords(f, y)
        prod = oracle.product(as_intervals(f, oracle, ex, xs), as_intervals(f, oracle, ey, ys))
        v, N, ints = f._one_raw()
        assert_agrees(f, (v, min(N, x[0] + y[1]), ints), prod)

    run()


def test_zero_operands():
    f = field("Q5zeta5(pi^(1/5)), degree 20")
    zero, x = f._zero_raw(), f.pi_pow(3).data
    assert f._mul(zero, x) == f._mul(x, zero) == zero
