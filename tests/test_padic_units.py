"""Inversion-free unit arithmetic against the routes it replaced.

The oracles are the earlier routes, kept here: pi^k as a binary power of
pi (of 1/pi for k < 0, one inverse per call) with its shift raised to
k // e, the norm as the sequential product of the p conjugates sigma(x),
sigma^2(x), ..., the leading residue as the residue of x * pi^-v, a
product and a second pass of T, and the inverse by integer elimination
(``padic_oracle``), against which Newton's inverse is checked on units.
The discrete log is checked by its defining property instead:
coordinates over F^x / (F^x)^p do not move when x is multiplied by a
p-th power.
"""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from knorm import milnor
from knorm.errors import MathCheckError, PrecisionError
from knorm.padic import KummerExtension, LocalField, PadicElement
from knorm.presets import FIELD_PRESETS
from padic_fields import cbrt4_top, unramified_cubic
from padic_oracle import EliminationInverse


def _base(preset):
    return LocalField.from_spec(FIELD_PRESETS[preset])


def _ext(preset, a):
    base = _base(preset)
    return KummerExtension(base, base.pi if a == "pi" else base.element(a))


FIELDS = {
    "Q2sqrt2": lambda: _base("Q2sqrt2"),
    "Q2unram2, f = 2": lambda: _base("Q2unram2"),
    "Q3zeta3": lambda: _base("Q3zeta3"),
    "Q5zeta5": lambda: _base("Q5zeta5"),
    "Q5zeta5(pi^(1/5)), degree 20": lambda: _ext("Q5zeta5", "pi").top,
    "Q2sqrt2(sqrt 5), unramified, f = 2": lambda: _ext("Q2sqrt2", 5).top,
    "Q2unram2(sqrt 2), f = 2": lambda: _ext("Q2unram2", 2).top,
    "Q3zeta3(cbrt 4), e = 6": cbrt4_top,
    "Q3zeta3(cbrt(1 + pi^3)), unramified, f = 3": unramified_cubic,
    "Q3zeta3(cbrt pi)": lambda: _ext("Q3zeta3", "pi").top,
}


@functools.lru_cache(maxsize=None)
def field(name):
    return FIELDS[name]()


def _f27_top():
    """A degree-p^2 top whose residue field is F_27: the cube root of the
    uniformizer over the unramified cubic extension of Q3zeta3."""
    middle = field("Q3zeta3(cbrt(1 + pi^3)), unramified, f = 3")
    top = KummerExtension(middle, middle.pi).top
    assert (top.degree, top.f) == (18, 3)
    return top


# fields the leading-residue oracle also reads: the F_27 top, and a field
# whose ubar, the residue of 5 / pi^4 = 1/2, has order 4, so that ubar^m
# and ubar^-m differ
READ_FIELDS = {
    "Q3zeta3(cbrt(1 + pi^3))(cbrt pi), f = 3": _f27_top,
    "Q5(10^(1/4))": lambda: LocalField(5, [{"kind": "eisenstein", "coeffs": [-10, 0, 0, 0]}]),
}


def old_lead(f, x):
    """The earlier route to the leading residue: the valuation, then the
    residue of x * pi^-v, read off a second pass of T."""
    v = f._val_or_bound(x)
    return v, f.residue_of(f._mul(x, f.pi_pow(-v).data))


@pytest.mark.parametrize("name", list(FIELDS) + list(READ_FIELDS))
def test_one_read_gives_the_valuation_and_the_leading_residue(name):
    f = field(name) if name in FIELDS else READ_FIELDS[name]()
    rng, twisted = random.Random(name), 0
    for shift in range(-f.e, 3 * f.e + 1, max(1, f.e // 4)):
        ints = [rng.randrange(-40, 41) for _ in range(f.degree)]
        x = f._mul(f._from_ints(ints) if any(ints) else f._one_raw(), f.pi_pow(shift).data)
        v, residue = f._lead(x)
        assert (v, residue) == old_lead(f, x), shift
        assert any(residue)  # so v is the valuation: x * pi^-v is a unit
        twisted += tuple(f._read(x)[1]) != residue
    # shifts reach 3e, past e, where ubar^m twists the digits unless ubar = 1
    one = [1] + [0] * (f.f - 1)
    assert twisted or f._twist(1, one) == one


def binary_pi_pow(f, k):
    """The earlier pi^k: a binary power of pi, or of 1/pi for k < 0."""
    base = f._pi if k >= 0 else EliminationInverse(f)._inv(f._pi)
    return f._tighten(f._pow_raw(base, abs(k)), k // f.e)


def agree(f, x, y):
    """x and y are equal modulo the lesser of their stated precisions."""
    return not isinstance(f._val_or_bound(f._add(x, f._neg(y))), int)


@pytest.mark.parametrize("name", list(FIELDS))
def test_pi_pow_ladders_match_binary_powers(name):
    f = field(name)
    bound = f.wild + f.e
    for k in range(-bound, bound + 1):
        new, old = f.pi_pow(k).data, binary_pi_pow(f, k)
        assert agree(f, new, old), k
        assert new[1] >= old[1], k  # never less precision
        assert new[0] == k // f.e and f._val_or_bound(new) == k


def test_pi_pow_gains_digits_on_negative_powers():
    f = field("Q5zeta5")
    assert (f.pi_pow(-7).data[1], binary_pi_pow(f, -7)[1]) == (21, 19)


@st.composite
def nonzero_ints(draw, f):
    ints = draw(st.lists(st.integers(-40, 40), min_size=f.degree, max_size=f.degree))
    return f._from_ints(ints) if any(ints) else f._one_raw()


def _inverse_or_error(inv, x):
    try:
        return inv(x)
    except PrecisionError:
        return PrecisionError


@pytest.mark.parametrize("name", list(FIELDS))
def test_newton_inverse_matches_the_elimination_inverse_on_units(name):
    """On units, at full and at reduced precision, the inverse by Newton's
    iteration equals the earlier elimination inverse in value and in
    stated precision, and each raises where the other does."""
    f = field(name)
    old = EliminationInverse(f)

    @settings(max_examples=20, deadline=None, database=None)
    @given(nonzero_ints(f), st.integers(0, f.cap))
    def run(x, cut):
        v = f._val_or_bound(x)
        u = f._mul(x, f.pi_pow(-v).data)
        u = f._data(u[0], u[1] - min(cut, u[1] - u[0] - 1), u[2])
        new_inv, old_inv = _inverse_or_error(f._inv, u), _inverse_or_error(old._inv, u)
        if PrecisionError in (new_inv, old_inv):
            assert new_inv is old_inv
        else:
            assert new_inv[1] == old_inv[1] == u[1]
            assert agree(f, new_inv, old_inv)

    run()


# odd p with f > 1 or with p-divisible levels below the wild one, where
# the clearing factors of those levels are not their own inverses mod p
K1_FIELDS = ["Q2unram2, f = 2", "Q3zeta3", "Q2sqrt2(sqrt 5), unramified, f = 2",
             "Q2unram2(sqrt 2), f = 2", "Q3zeta3(cbrt 4), e = 6", "Q3zeta3(cbrt pi)",
             "Q3zeta3(cbrt(1 + pi^3)), unramified, f = 3"]


@pytest.mark.parametrize("name", K1_FIELDS)
def test_k1_coords_ignore_pth_powers(name):
    f = field(name)

    @settings(max_examples=25, deadline=None, database=None)
    @given(nonzero_ints(f), nonzero_ints(f), st.integers(-3, 3))
    def run(x, y, shift):
        x = f._mul(x, f.pi_pow(shift).data)
        moved = f._mul(x, f._pow_raw(y, f.p))
        assert f.k1_coords(PadicElement(f, moved)) == f.k1_coords(PadicElement(f, x))

    run()


def test_k1_coords_peel_the_unit_at_shift_0(monkeypatch):
    """x * pi^-v comes out of _mul at shift -1 on this x, one p-digit
    short of what it knows; the unit u that k1_coords peels, read through
    u - 1 at each level, has shift 0, and the coordinates are unchanged."""
    f = field("Q2sqrt2(sqrt 5), unramified, f = 2")
    x = (0, 29, [2, 0, 2, 2])
    assert f._mul(x, f.pi_pow(-1).data)[0] == -1
    minus_one, add, peeled = f._neg(f._one_raw()), f._add, []

    def spy(a, b):
        if b == minus_one:
            peeled.append(a)
        return add(a, b)

    monkeypatch.setattr(f, "_add", spy)
    assert f.k1_coords(PadicElement(f, x)) == [1, 1, 1, 0, 0, 0]
    assert peeled and all(u[0] == 0 for u in peeled)


def sequential_norm(ext, x):
    """The earlier norm: x * sigma(x) * ... * sigma^(p-1)(x), one product
    per conjugate."""
    prod = conj = x
    for _ in range(ext.p - 1):
        conj = ext.sigma(conj)
        prod = prod * conj
    return prod


EXTENSIONS = {2: ("Q2sqrt2", "pi"), 3: ("Q3zeta3", "pi"), 5: ("Q5zeta5", "pi")}


@functools.lru_cache(maxsize=None)
def extension(p):
    return _ext(*EXTENSIONS[p])


@pytest.mark.parametrize("preset, a", [("Q3zeta3", 4), ("Q5zeta5", "pi")])
def test_projection_formula_check_inverts_nothing_on_degree_p2_tops(preset, a, monkeypatch):
    """The degree-p^2 tops read ubar as eta-bar^(q-2) and their leading
    residues off one pass of T, so they need no negative power of pi."""
    base = _base(preset)
    ext = milnor.get_extension(base, base.pi if a == "pi" else base.element(a))
    inv, inverted = LocalField._inv, []

    def counting(self, x):
        inverted.append(self)
        return inv(self, x)

    monkeypatch.setattr(LocalField, "_inv", counting)
    passed, _ = milnor.projection_formula_check(ext)
    tops = [sub.top for sub in ext.top._caches["kummer_exts"].values()]
    assert passed and tops and all(t.degree == base.degree * base.p**2 for t in tops)
    assert not [f for f in inverted if any(f is t for t in tops)]


@pytest.mark.parametrize("precision", [None, 60])
def test_cap_counts_p_digits_on_the_degree_100_top(precision):
    """cap is ceil(prec / e) + 16 p-digits; the wild bound, 125 uniformizer
    digits here, no longer enters it (it made cap 141 at both precisions)."""
    base = LocalField(5, FIELD_PRESETS["Q5zeta5"]["steps"], precision)
    middle = KummerExtension(base, base.pi).top
    top = KummerExtension(middle, middle.pi).top
    assert (top.degree, top.e, top.wild) == (100, 100, 125)
    assert top.cap == -(-top.prec // top.e) + 16 == 22


@pytest.mark.parametrize("p", list(EXTENSIONS))
def test_norm_by_doubling_matches_the_sequential_product(p):
    ext, rng = extension(p), random.Random(p)
    top, base = ext.top, ext.base
    for _ in range(4):
        x = PadicElement(top, top._from_ints([rng.randrange(-9, 10) for _ in range(top.degree)]))
        old = sequential_norm(ext, x)
        for i in range(1, p):
            assert not isinstance(base._val_or_bound(top._block(old.data, i)), int)
        assert agree(base, ext.norm_down(x).data, top._block(old.data, 0))


@pytest.mark.parametrize("p", list(EXTENSIONS))
def test_sigma_power_is_the_iterated_generator(p):
    ext = extension(p)
    x = ext.A + ext.top.one()
    conj = x
    for k in range(p + 1):
        assert agree(ext.top, ext.sigma(x, k).data, conj.data)
        conj = ext.sigma(conj)


@pytest.mark.parametrize("p", list(EXTENSIONS))
def test_norm_rejects_a_perturbed_conjugate(p, monkeypatch):
    """One conjugate moved off by pi^(prec - 2) * A leaves a nonzero block
    off the base field, far above half the base precision."""
    ext = extension(p)
    base, top = ext.base, ext.top
    delta = ext.embed(base.pi_pow(base.prec - 2)) * ext.A
    x = ext.A + top.one()
    sigma, calls = KummerExtension.sigma, []

    def perturbed(y, *k):
        calls.append(k)
        out = sigma(ext, y, *k)
        return out + delta if len(calls) == 1 else out

    monkeypatch.setattr(ext, "sigma", perturbed)
    with pytest.raises(MathCheckError):
        ext.norm_down(x)
    assert calls
