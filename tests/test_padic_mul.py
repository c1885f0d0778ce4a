"""Tower multiplication against the recursive kernel it replaced.

The oracle is the earlier dense kernel, kept verbatim on the earlier
nested data, where an element of a degree-d step is a list of d elements
of the level below: it allocates a zero block for every convolution
slot, skips only the exact-zero blocks of the left operand and of the
reduction's leading slots, and subtracts the product of each leading
slot with every step coefficient.  The sparse kernel on flat data must
return the same (exp, mant, rel) tuples, coefficient for coefficient,
not merely equal values.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from knorm.padic import CZERO, ZERO_EXP, KummerExtension, LocalField
from knorm.presets import FIELD_PRESETS


class OracleKernel:
    """The dense recursive product on nested data, methods copied verbatim,
    with its own recursive zero, add and neg and nested views of the step
    polynomials."""

    def __init__(self, field):
        self.steps, self.ctx, self.level = field.steps, field.ctx, field.level
        self.polys = [
            [self.nest(c, level) for c in _blocks(step.poly, step.degree)]
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
        """The oracle product of flat data, as flat data."""
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
    "Q3zeta3(cbrt 4), f = 3": lambda: _top(_preset("Q3zeta3"), 4),
    "Q5zeta5(pi^(1/5)), degree 20": lambda: _top(_preset("Q5zeta5"), "pi"),
    "Q2sqrt2(sqrt pi)(sqrt pi), level 3": lambda: _top(_top(_preset("Q2sqrt2"), "pi"), "pi"),
}
EXAMPLES = {name: 100 for name in FIELDS}
EXAMPLES["Q5zeta5(pi^(1/5)), degree 20"] = 30


@functools.lru_cache(maxsize=None)
def field(name):
    return FIELDS[name]()


@st.composite
def coefficients(draw, f):
    """A canonical coefficient: exact zero, inexact zero (e, 0, 0), or a unit
    mantissa at full or reduced relative precision, exponents below zero
    included."""
    kind = draw(st.sampled_from(["exact", "inexact", "unit", "unit"]))
    if kind == "exact":
        return CZERO
    if kind == "inexact":
        return (draw(st.integers(-3, f.ctx.M + 4)), 0, 0)
    rel = draw(st.one_of(st.just(f.ctx.M), st.integers(1, f.ctx.M)))
    mant = draw(st.integers(1, f.p**rel - 1).filter(lambda m: m % f.p))
    return (draw(st.integers(-3, 12)), mant, rel)


@st.composite
def nested_elements(draw, f, oracle, level):
    """Nested tower data with exact-zero blocks possible at every level."""
    if level == 0:
        return draw(coefficients(f))
    if level < f.level and draw(st.integers(0, 3)) == 0:
        return oracle._zero_raw(level)
    d = f.steps[level - 1].degree
    return [draw(nested_elements(f, oracle, level - 1)) for _ in range(d)]


def raw_elements(f, oracle):
    """Flat tower data, drawn as nested data and flattened."""
    return nested_elements(f, oracle, f.level).map(oracle.flatten)


@pytest.mark.parametrize("name", list(FIELDS))
def test_products_match_the_dense_kernel(name):
    f = field(name)
    oracle = OracleKernel(f)

    @settings(max_examples=EXAMPLES[name], deadline=None, database=None)
    @given(raw_elements(f, oracle), raw_elements(f, oracle))
    def run(x, y):
        assert f._mul(f.level, x, y) == oracle.product(x, y)

    run()


@pytest.mark.parametrize("name", ["Q3zeta3(cbrt 4), f = 3", "Q5zeta5(pi^(1/5)), degree 20"])
def test_products_of_basis_elements_match(name):
    """Products that the k_1 maps actually form, including sparse lifts."""
    f = field(name)
    oracle = OracleKernel(f)
    elts = [e.data for e in f.k1_structure()] + [f._pi, f._gen_raw(), f._one_raw()]
    for x in elts:
        for y in elts[::3]:
            assert f._mul(f.level, x, y) == oracle.product(x, y)


def test_zero_operands():
    f = field("Q5zeta5(pi^(1/5)), degree 20")
    zero, x = f._zero_raw(), f.pi_pow(3).data
    assert f._mul(f.level, zero, x) == f._mul(f.level, x, zero) == zero
