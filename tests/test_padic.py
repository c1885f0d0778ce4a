import itertools
import random

import pytest

from knorm.errors import InputError, PrecisionError
from knorm.padic import KummerExtension, LocalField, PadicElement, _fp_irreducible, default_precision


@pytest.fixture(scope="module")
def q2():
    return LocalField(2)


@pytest.fixture(scope="module")
def q3z():
    return LocalField(3, [{"kind": "eisenstein", "coeffs": [3, 3]}])


def test_q2_basic_valuations(q2):
    assert (q2.element(2) + q2.element(2)).valuation() == 2
    assert q2.element(12).valuation() == 2
    assert q2.element(1).valuation() == 0


def test_mul_inverse_roundtrip(q2):
    for n in (1, 3, 5, 7, 17, -9, 2, 6, 40):
        x = q2.element(n)
        assert (x * x.inverse()) == q2.one()


def test_valuation_additivity(q2):
    rng = random.Random(0)
    for _ in range(20):
        a = rng.randrange(-50, 50) or 1
        b = rng.randrange(-50, 50) or 1
        x, y = q2.element(a), q2.element(b)
        assert (x * y).valuation() == x.valuation() + y.valuation()
        s = x + y
        try:
            vs = s.valuation()
            assert vs >= min(x.valuation(), y.valuation())
        except PrecisionError:
            pass  # exact or undetermined zero: a + (-a)


def test_zero_handling(q2):
    z = q2.zero()
    assert z.is_zero()
    with pytest.raises(PrecisionError):
        z.valuation()
    with pytest.raises(PrecisionError):
        z.inverse()


def test_ramified_eisenstein_field():
    f = LocalField(3, [{"kind": "eisenstein", "coeffs": [3, 3]}])
    lam = f.gen()
    assert (lam * lam).valuation() == 2
    assert f.element(3).valuation() == 2
    # lam^2 associates to 3
    assert ((lam * lam) / f.element(3)).valuation() == 0


def test_nested_digit_lists_on_a_two_step_tower():
    """[[a, b], [c, d]] is a + b*s + (c + d*s)*u for s = sqrt 2 and the
    unramified generator u; malformed digit lists are refused."""
    f = LocalField(
        2, [{"kind": "eisenstein", "coeffs": [-2, 0]}, {"kind": "unramified", "degree": 2}]
    )
    s, u = f.element([[0, 1]]), f.gen()
    rng = random.Random(6)
    for _ in range(20):
        a, b, c, d = (rng.randrange(-50, 50) for _ in range(4))
        x = f.element([[a, b], [c, d]])
        assert len(x.data[2]) == f.degree == 4
        assert x == a + b * s + (c + d * s) * u
    with pytest.raises(InputError):
        f.element([[[1]]])
    with pytest.raises(InputError):
        f.element([[1, 1, 1]])


def test_eisenstein_validation(q2):
    with pytest.raises(InputError):
        LocalField(2, [{"kind": "eisenstein", "coeffs": [4, 0]}])  # v(c0) = 2
    with pytest.raises(InputError):
        LocalField(2, [{"kind": "eisenstein", "coeffs": [2, 1]}])  # middle unit


def test_is_pth_power_q2(q2):
    assert q2.is_pth_power(q2.element(17))
    assert not q2.is_pth_power(q2.element(5))
    assert q2.is_pth_power(q2.element(4))
    assert not q2.is_pth_power(q2.element(2))
    assert not q2.is_pth_power(q2.element(-1))


def test_is_pth_power_properties(q2):
    rng = random.Random(1)
    for _ in range(10):
        n = rng.randrange(1, 60)
        x = q2.element(n)
        assert q2.is_pth_power(x * x)
        u = q2.element(2 * rng.randrange(1, 20) + 1)
        assert q2.is_pth_power(u * x * x) == q2.is_pth_power(u)


def test_pth_power_q3(q3z):
    lam = q3z.gen()
    x = q3z.element(1) + lam
    assert q3z.is_pth_power(x**3)
    assert not q3z.is_pth_power(x)
    assert not q3z.is_pth_power(lam)


def test_teichmueller_q5():
    q5 = LocalField(5)
    w = q5.teichmueller(q5.element(2))
    assert w**4 == q5.one()
    assert (w - q5.element(2)).valuation() >= 1
    assert q5.teichmueller(q5.one()) == q5.one()


def test_teichmueller_q2(q2):
    assert q2.teichmueller(q2.element(7)) == q2.one()
    with pytest.raises(InputError):
        q2.teichmueller(q2.element(2))


def test_has_mu_p_detection():
    assert LocalField(2).has_mu_p
    assert not LocalField(3).has_mu_p
    assert not LocalField(5).has_mu_p
    f = LocalField(3, [{"kind": "eisenstein", "coeffs": [3, 3]}])
    assert f.has_mu_p
    z = f.zeta
    assert z**3 == f.one()
    assert not (z - f.one()).vanishes()


def test_has_mu_p_monotone_up_tower(q3z):
    lam = q3z.gen()
    for a in (lam, q3z.element(1) + lam):
        ext = KummerExtension(q3z, a)
        assert ext.top.has_mu_p
        assert ext.top.zeta**3 == ext.top.one()


def test_kummer_classifications(q2):
    ram = KummerExtension(q2, q2.element(2))
    assert ram.ramified and ram.top.e == 2 and ram.top.f == 1
    unram = KummerExtension(q2, q2.element(5))
    assert not unram.ramified and unram.top.e == 1 and unram.top.f == 2
    wild = KummerExtension(q2, q2.element(-1))
    assert wild.ramified and wild.top.e == 2
    with pytest.raises(InputError):
        KummerExtension(q2, q2.element(17))


def test_norm_examples_sqrt2(q2):
    ext = KummerExtension(q2, q2.element(2))
    A = ext.A
    assert ext.norm_down(A) == q2.element(-2)  # p = 2: N(A) = -a
    assert ext.norm_down(ext.top.element(1) + A) == q2.element(-1)
    assert ext.norm_down(ext.top.element(2) + A) == q2.element(2)


def test_norm_multiplicativity(q2):
    ext = KummerExtension(q2, q2.element(2))
    rng = random.Random(2)
    elts = []
    for _ in range(4):
        c0 = rng.randrange(-9, 10) or 1
        c1 = rng.randrange(-9, 10)
        elts.append(ext.top.element(1) * c0 + ext.A * c1)
    for x in elts:
        for y in elts:
            lhs = ext.norm_down(x * y)
            rhs = ext.norm_down(x) * ext.norm_down(y)
            assert (lhs - rhs).vanishes()


def test_norm_of_base_element_is_pth_power(q2):
    ext = KummerExtension(q2, q2.element(2))
    for n in (3, 5, 7):
        c = q2.element(n)
        assert (ext.norm_down(ext.embed(c)) - c * c).vanishes()


def test_sigma_order_and_action(q3z):
    ext = KummerExtension(q3z, q3z.gen())
    x = ext.A + ext.top.element(7)
    y = ext.sigma(ext.sigma(ext.sigma(x)))
    assert (y - x).vanishes()
    assert (ext.sigma(ext.A) - ext.embed(q3z.zeta) * ext.A).vanishes()


def test_k1_structure_q2(q2):
    labels = [e.label for e in q2.k1_structure()]
    assert labels == ["2", "-1", "5"]
    assert q2.k1_coords(q2.element(17)) == [0, 0, 0]
    assert q2.k1_coords(q2.element(5)) == [0, 0, 1]
    assert q2.k1_coords(q2.element(-1)) == [0, 1, 0]
    assert q2.k1_coords(q2.element(2)) == [1, 0, 0]
    # -20 = (-1) * 5 * 2^2
    assert q2.k1_coords(q2.element(-20)) == [0, 1, 1]


def test_k1_dimension_matches_degree(q2, q3z):
    assert len(q2.k1_structure()) == 3
    assert len(q3z.k1_structure()) == 4
    e = KummerExtension(q2, q2.element(2)).top
    assert len(e.k1_structure()) == 4
    e5 = KummerExtension(q2, q2.element(5)).top
    assert len(e5.k1_structure()) == 4


def test_k1_coords_roundtrip(q3z):
    rng = random.Random(3)
    entries = q3z.k1_structure()
    for _ in range(6):
        coords = [rng.randrange(3) for _ in entries]
        x = q3z.k1_element(coords)
        assert q3z.k1_coords(x) == coords


def test_k1_coords_multiplicative(q2):
    a, b = q2.element(3), q2.element(7)
    ca, cb = q2.k1_coords(a), q2.k1_coords(b)
    cab = q2.k1_coords(a * b)
    assert cab == [(x + y) % 2 for x, y in zip(ca, cb)]


def test_is_pth_power_agrees_with_coords(q3z):
    rng = random.Random(4)
    lam = q3z.gen()
    for _ in range(8):
        x = q3z.element(rng.randrange(1, 20)) + lam * rng.randrange(0, 3)
        if x.vanishes():
            continue
        assert q3z.is_pth_power(x) == (not any(q3z.k1_coords(x)))


def test_precision_policy():
    assert default_precision(2, 1) == 18
    with pytest.raises(InputError):
        LocalField(2, precision=3)
    assert LocalField(2, precision=8 * 18).prec == 144
    with pytest.raises(InputError):
        LocalField(2, precision=8 * 18 + 1)


def test_field_spec_parsing():
    f = LocalField.from_spec('{"p": 2, "steps": []}')
    assert f.p == 2 and f.degree == 1
    with pytest.raises(InputError):
        LocalField.from_spec('{"steps": []}')
    with pytest.raises(InputError):
        LocalField.from_spec('{"p": 2, "bogus": 1}')
    with pytest.raises(InputError):
        LocalField.from_spec("not json")
    with pytest.raises(InputError):
        LocalField.from_spec({"p": 4})


def test_cross_field_operations_rejected(q2, q3z):
    with pytest.raises(InputError):
        q2.element(3) + q3z.element(3)  # type: ignore[operator]


def bruteforce_irreducible(p, deg):
    """The first monic irreducible in lexicographic order (constant term
    slowest), by trial division with every monic divisor of degree up to
    deg / 2."""

    def poly_mod(a, b):
        a = a[:]
        while len(a) >= len(b):
            if a[-1] == 0:
                a.pop()
                continue
            factor = a[-1] * pow(b[-1], -1, p) % p
            off = len(a) - len(b)
            for i in range(len(b)):
                a[off + i] = (a[off + i] - factor * b[i]) % p
            a.pop()
        while a and a[-1] == 0:
            a.pop()
        return a

    def irreducible(low):
        full = low + [1]
        for d in range(1, deg // 2 + 1):
            for combo in itertools.product(range(p), repeat=d):
                divisor = list(combo) + [1]
                if not poly_mod(full, divisor):
                    return False
        return True

    for combo in itertools.product(range(p), repeat=deg):
        low = list(combo)
        if low[0] == 0:
            continue
        if irreducible(low):
            return low
    return None


@pytest.mark.parametrize(
    "p, deg",
    [(2, d) for d in range(1, 9)] + [(3, d) for d in range(1, 7)]
    + [(5, d) for d in range(1, 5)] + [(7, d) for d in range(1, 4)],
)
def test_irreducible_search_matches_trial_division(p, deg):
    assert _fp_irreducible(p, deg) == bruteforce_irreducible(p, deg)


def test_precision_margin_reaches_the_top():
    """A precision of default + 6 on the base gives every Kummer top its
    own default + 6."""
    steps = [{"kind": "eisenstein", "coeffs": [3, 3]}]
    base = LocalField(3, steps, precision=default_precision(3, 2) + 6)
    top = KummerExtension(base, base.pi).top
    assert top.prec == default_precision(3, top.e) + 6
    assert KummerExtension(top, top.pi).top.prec == default_precision(3, 3 * top.e) + 6


def test_every_level_of_a_spec_keeps_the_margin_of_the_top():
    """At precision 60 on an Eisenstein step and an unramified step over Q2,
    every level takes the top's margin of 34 over its own default, so the pi
    lifted from below is known to the top's cap.  The top's policy minimum
    and maximum, 9 and 208, leave a margin that no lower level can take, and
    no level refuses them."""
    steps = [{"kind": "eisenstein", "coeffs": [-2, 0]}, {"kind": "unramified", "degree": 2}]
    top = LocalField(2, steps, precision=60)
    level, margins = top, []
    while level is not None:
        margins.append(level.prec - default_precision(2, level.e))
        level = level._parent
    assert margins == [34, 34, 34]
    assert top._pi[1] >= top.cap
    for precision in (9, 208):
        assert LocalField(2, steps, precision=precision).prec == precision


@pytest.mark.parametrize("extra", [0, 22])
def test_teichmueller_lifts_where_the_monomials_miss_integers(extra):
    """In the unramified cube-root top of Q3(zeta_3), whose monomial lattice
    is smaller than its ring of integers (index 1), every Teichmueller lift
    is found, has its residue and is fixed by x -> x^q, at the default
    precision and at twice it."""
    base = LocalField(3, [{"kind": "eisenstein", "coeffs": [3, 3]}], precision=22 + extra)
    top = KummerExtension(base, base.k1_element([0, 0, 0, 1])).top
    assert (top.e, top.f, top.index) == (2, 3, 1)
    for coords, rep in top.residue_reps():
        if any(coords):
            w = top.teichmueller(PadicElement(top, rep))
            assert top.residue_of(w) == coords
            assert (w**top.q - w).vanishes()
