"""The reduction table of each field against the level-by-level reduction
it replaced (``reduce_oracle``), on random unreduced products, and the
one-pass product path: one table per field, built once from its
parent's, and one table pass per product."""

import contextlib
import functools
import io

import pytest
from hypothesis import given, settings, strategies as st

from knorm import cli, padic
from knorm.milnor import get_extension, release_caches
from knorm.padic import LocalField
from knorm.presets import FIELD_PRESETS
from reduce_oracle import LevelReduction
from test_padic_mul import FIELDS, _top, field


@functools.lru_cache(maxsize=None)
def degree_100_top():
    """The degree-p^2 top over Q5(zeta5)(pi^(1/5)), as the projection
    formula builds them."""
    return _top(field("Q5zeta5(pi^(1/5)), degree 20"), "pi")


TABLE_FIELDS = {name: functools.partial(field, name) for name in FIELDS}
TABLE_FIELDS["Q5zeta5(pi^(1/5))(pi^(1/5)), degree 100"] = degree_100_top


@st.composite
def unreduced(draw, f):
    """(wide, mod): the slots of an unreduced product modulo mod, dense,
    sparse, or dense with whole top-step blocks zero, each slot below
    degree * mod^2 as a sum of products of residues is."""
    size = f._table()[1]
    mod = f.p ** draw(st.integers(1, 2 * f.cap))
    rng = draw(st.randoms(use_true_random=False))
    bound = f.degree * mod * mod
    kind = draw(st.sampled_from(["dense", "sparse", "blocks"]))
    if kind == "sparse":
        wide = [0] * size
        for _ in range(draw(st.integers(0, 4))):
            wide[rng.randrange(size)] = rng.randrange(bound)
        return wide, mod
    wide = [rng.randrange(bound) for _ in range(size)]
    if kind == "blocks":
        blocks = 2 * f.steps[-1].degree - 1
        width = size // blocks
        for i in range(blocks):
            if rng.random() < 0.5:
                wide[i * width : (i + 1) * width] = [0] * width
    return wide, mod


@pytest.mark.parametrize("name", list(TABLE_FIELDS))
def test_the_table_reduces_as_the_levels_did(name):
    f = TABLE_FIELDS[name]()
    oracle = LevelReduction(f)
    slots, size, over = f._table()
    assert size == oracle.size() and slots == oracle._ring(f.level)[3]
    assert sorted(slots + [t for t, _ in over]) == list(range(size))

    @settings(max_examples=30, deadline=None, database=None)
    @given(unreduced(f))
    def run(case):
        wide, mod = case
        got = [wide[t] for t in slots]
        for t, pairs in over:
            for m, c in pairs:
                got[m] += c * wide[t]
        assert [a % mod for a in got] == oracle.reduce(wide, mod)

    run()


@pytest.mark.parametrize("name", list(TABLE_FIELDS))
def test_products_of_ints_match_the_level_products(name):
    f = TABLE_FIELDS[name]()
    oracle = LevelReduction(f)

    @settings(max_examples=20, deadline=None, database=None)
    @given(st.integers(1, 2 * f.cap), st.randoms(use_true_random=False), st.floats(0, 1))
    def run(digits, rng, density):
        mod = f.p**digits
        X, Y = ([rng.randrange(mod) if rng.random() < density else 0 for _ in range(f.degree)]
                for _ in range(2))
        assert f._ints_mul(X, Y, mod) == oracle._ints_mul(f.level, X, Y, mod)

    run()


def test_each_field_builds_its_table_once_from_its_parents(monkeypatch):
    grown = []
    real = padic._grow_table

    def spy(table, poly, d):
        grown.append(table)
        return real(table, poly, d)

    monkeypatch.setattr(padic, "_grow_table", spy)
    base = LocalField.from_spec(FIELD_PRESETS["Q5zeta5"])
    top = get_extension(base, base.pi).top
    for f in (base, top):
        for _ in range(3):
            f._mul(f._pi, f._pi)
    chain = [base._parent, base, top]
    assert len(grown) == 2
    assert all(t is f._caches["table"] for t, f in zip(grown, chain))
    release_caches(base)
    assert "table" not in base._caches and "table" not in top._caches


def test_a_q2_verify_reduces_each_product_in_one_pass(monkeypatch):
    """Every product that forms ints calls _ints_mul once, and nothing
    else calls it: no lower-level product is left in the reduction."""
    calls, wrong = [0, 0], []
    real_mul, real_ints_mul = LocalField._mul, LocalField._ints_mul

    def ints_mul(self, *args):
        calls[1] += 1
        return real_ints_mul(self, *args)

    def mul(self, x, y):
        before = calls[1]
        z = real_mul(self, x, y)
        formed = int(min(x[1] + y[0], y[1] + x[0]) > x[0] + y[0])
        calls[0] += formed
        if calls[1] - before != formed:
            wrong.append((x, y))
        return z

    monkeypatch.setattr(LocalField, "_mul", mul)
    monkeypatch.setattr(LocalField, "_ints_mul", ints_mul)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--preset", "Q2", "--json"]) == 0
    assert not wrong and calls[0] == calls[1] > 0
