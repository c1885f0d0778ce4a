"""The two paths of a tower product and of the T-read, each against an
oracle: ``_ints_mul`` holds only the slots that the nonzero pairs reach
when they are few against the slot count, and every slot otherwise;
``_basis_coords`` dots each row of T with the nonzero ints of a sparse
element alone.  Both paths must give the same ints, and each test fails
if one of its paths never runs."""

import random

import pytest

from knorm import padic
from knorm.padic import LocalField
from reduce_oracle import LevelReduction
from test_padic_table import TABLE_FIELDS

FIELDS = ["Q5zeta5(pi^(1/5)), degree 20", "Q5zeta5(pi^(1/5))(pi^(1/5)), degree 100"]


def _ints(rng, n: int, live: int, mod: int) -> list[int]:
    """n ints below mod, exactly live of them nonzero."""
    out = [0] * n
    for i in rng.sample(range(n), live):
        out[i] = rng.randrange(1, mod)
    return out


def _shapes(n: int):
    """Nonzero counts of the two operands, from one int each to all of them."""
    return [(1, 1), (1, 3), (2, 5), (3, 3), (1, n), (4, n // 4), (n // 2, n // 2), (n, 1), (n, n)]


@pytest.fixture
def sparse_entries(monkeypatch):
    """The number of products that took the sparse path: it alone reads
    the table as a dict."""
    entries, real = [0], LocalField._spread

    def spread(self):
        entries[0] += 1
        return real(self)

    monkeypatch.setattr(LocalField, "_spread", spread)
    return entries


@pytest.mark.parametrize("name", FIELDS)
def test_each_product_path_matches_the_level_products(name, sparse_entries):
    f = TABLE_FIELDS[name]()
    oracle, size, rng = LevelReduction(f), f._table()[1], random.Random(name)
    taken = {True: 0, False: 0}
    for live_x, live_y in _shapes(f.degree):
        for digits in (1, f.cap, 2 * f.cap):
            mod = f.p**digits
            X, Y = _ints(rng, f.degree, live_x, mod), _ints(rng, f.degree, live_y, mod)
            before = sparse_entries[0]
            got = f._ints_mul(X, Y, mod)
            sparse = sparse_entries[0] > before
            assert sparse == (live_x * live_y * padic._SPARSE_SHARE < size)
            taken[sparse] += 1
            assert got == oracle._ints_mul(f.level, X, Y, mod)
    assert taken[True] and taken[False]


@pytest.mark.parametrize("name", FIELDS)
@pytest.mark.parametrize("share, sparse", [(0, True), (10**9, False)])
def test_either_product_path_alone_matches_the_level_products(
        name, share, sparse, sparse_entries, monkeypatch):
    """The share moved to 0 sends every product to the sparse path, and a
    share past any pair count sends every product with a pair to the
    dense one: each path gives the oracle's ints on operands of any
    density, not only on those it is chosen for."""
    monkeypatch.setattr(padic, "_SPARSE_SHARE", share)
    f = TABLE_FIELDS[name]()
    oracle, rng = LevelReduction(f), random.Random(name)
    shapes = _shapes(f.degree)
    for live_x, live_y in shapes:
        mod = f.p ** f.cap
        X, Y = _ints(rng, f.degree, live_x, mod), _ints(rng, f.degree, live_y, mod)
        assert f._ints_mul(X, Y, mod) == oracle._ints_mul(f.level, X, Y, mod)
    assert sparse_entries[0] == (len(shapes) if sparse else 0)


def full_dot(f, x):
    """T * x as _basis_coords gives it, each row dotted with every int."""
    shifts, R, rows, _ = f._basis_inverse()
    v, N, X = x
    n = min(N, v - f.index + R)
    out = []
    for t, row in zip(shifts, rows):
        s = t + v - f.index
        out.append((s, sum(a * b for a, b in zip(row, X)) % f.p ** (n - s) if n > s else 0))
    return n, out


@pytest.mark.parametrize("name", FIELDS)
def test_the_sparse_t_read_matches_the_full_dot(name):
    f = TABLE_FIELDS[name]()
    rng, taken = random.Random(name), {True: 0, False: 0}
    for live in (1, 2, f.degree // 12, f.degree // 2, f.degree):
        for v, rel in ((0, f.cap), (3, 2 * f.cap), (-1, 5)):
            x = f._data(v, v + rel, _ints(rng, f.degree, live, f.p ** (rel + f.index)))
            zeros = x[2].count(0)
            taken[zeros > padic._SPARSE_SHARE * (f.degree - zeros)] += 1
            assert f._basis_coords(x) == full_dot(f, x)
    assert taken[True] and taken[False]
