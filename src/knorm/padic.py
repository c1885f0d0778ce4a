"""Finite-precision arithmetic in finite towers over the p-adic rationals.

Representation
--------------
An element of a tower field of degree n over Q_p is a triple (v, N, c):
a shift v, an absolute precision N and one flat list c of n non-negative
Python ints, its coordinates over the monomials b_i of the tower.  If
the top step has degree d over a field of degree s, block i of c, the
slice [i*s, (i+1)*s), holds the coefficient of the i-th power of the
adjoined generator, laid out the same way one level down.  Both v and N
count against the ring of integers O: the element lies in p^v O and is
known modulo p^N O.  With k the field's ``index``, the least k with p^k O
inside the lattice L of the b_i (0 for fields built from a spec), the
value is p^(v-k) * sum c_i * b_i and the ints are reduced modulo
p^(N-v+k).  Ints that all vanish give v == N; v == N == inf is an exact
zero.  Inputs carry ``cap`` = ceil(prec / e) + 16 p-digits of relative
precision (``prec`` and the wild bound count uniformizer digits).

Every step polynomial is monic with exact ints of the lattice below, so L
is a ring.  Precision follows the capped-absolute model of Caruso, Roe
and Vaccon ("Tracking p-adic precision", LMS J. Comput. Math. 17A, 2014):
a sum is known to min(N_x, N_y) and a product to min(N_x + v_y, N_y +
v_x).  Shifts rise whenever the ints prove more, and inverses, powers of
pi and the integral basis carry the shift their valuation proves, so a
unit keeps shift 0 even where L is smaller than O.  A product adds
the product of every pair of nonzero ints into its slot of the unreduced
product, where each step's degree may reach 2d - 2, then adds to each
monomial's own slot the exact terms that the other nonzero slots reduce
to under the step polynomials, from the field's reduction table (built
once from its parent's), modulo p^(N-v+2k), and divides by p^k.  With
few nonzero pairs against the slot count, it holds and reduces only the
slots they reach; an operand is reduced first only where it is known past
the product's precision.
An inverse is pi^-v times the inverse of the unit x * pi^-v, which
Newton's iteration y <- y + y * (1 - x * y) reaches from the lift of the
residue inverse; the one integer elimination of a field gives T below.

Powers of pi need no inverse: pi^k = p^m * pi^r * eta^m for k = e*m + r,
0 <= r < e, and the unit eta = pi^e / p, from ladders of pi^r and
eta^(+-m), with 1/eta only in fields that need a negative power of pi.
k1_coords peels the unit filtration keeping x = (recorded basis product)
* (p-th powers) * u, clearing each level of u by a positive power that is
the inverse times a p-th power above the level; coordinates are unique
modulo p-th powers (Fesenko-Vostokov, *Local Fields and Their Extensions*,
I.5-6).  Each level is read once; its solves and factors are cached.

Decision procedures raise PrecisionError instead of guessing.
Valuations and residues are read off coordinates over the integral basis
{r_j * pi^i : i < e, j < f} built from the stored uniformizer pi and
residue-basis lifts r_j (Serre, *Local Fields*, Ch. I, Sec. 6, Prop. 18),
through a cached T = B^-1, B the matrix of that basis; this works for
every tower shape, including p-th-root steps whose rings of integers
exceed L.  With t = T * x, every t_ij known modulo p^N like x (or to
T's own precision, if that ends first), v(x) = min(e * v_p(t_ij) + i):
weights of distinct i differ mod e, so only one i-block can tie, and a
nonzero t_ij weighs less than e * N, below any coordinate whose digits
were lost.  x is zero to its precision when every t_ij vanishes modulo
p^N (its ints need not, when k > 0).  The same pass gives the residue of
x / pi^v, v = e*m + i: it is (t_ij / p^m mod p) times ubar^m, ubar the
residue of p / pi^e, which is eta-bar^(q-2) and needs no inverse.  T * x
dots each row of T with the nonzero ints of x alone when they are few.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import NamedTuple

import numpy as np

from .errors import InputError, MathCheckError, PrecisionError
from .fplin import image, is_prime, kernel, power, solve as fp_solve

__all__ = ["LocalField", "PadicElement", "KummerExtension", "default_precision"]

_INF = float("inf")


# Work bounds, checked before the work: precision up to 8 times the
# default; residue fields up to 2^64 elements (the irreducible search stays
# under about 1.5 s for every p); and up to 2^21 candidates q^deg for the
# residue-root scan, each testing q roots (about 2 s at the bound).
_PRECISION_FACTOR_MAX, _RESIDUE_FIELD_MAX, _SCAN_MAX = 8, 2**64, 2**21

# _ints_mul goes sparse when its nonzero pairs times this share stay under
# the slot count, _basis_coords when zero ints outnumber nonzero ones this
# many times.  Replayed on the products and T-reads of verify on Q3zeta3 and
# Q5zeta5, the sparse product wins below about one pair per 8 slots, and the
# sparse T-read on one or two nonzero ints of 18 or 20, not on one of 6.
_SPARSE_SHARE = 8


def default_precision(p: int, e: int) -> int:
    """Working precision in uniformizer digits for ramification index e."""
    w = -(-(p * e) // (p - 1))  # ceil
    return 4 * w + 10


def _valuation_error(bound) -> PrecisionError:
    """The error of a valuation read as a bound: zero, or undetermined."""
    return PrecisionError("valuation of zero is undefined" if bound == _INF
                          else "valuation undetermined at working precision")


def _memo(cache: dict, key, build):
    """cache[key], from build() on a miss."""
    if key not in cache:
        cache[key] = build()
    return cache[key]


def _bezout(a: int, b: int) -> tuple[int, int]:
    """(s, t) with s*a + t*b = 1 and 0 < s < b, for coprime a, b."""
    s = pow(a, -1, b)
    t = (1 - s * a) // b
    return s, t


def _vp(n: int, p: int) -> int:
    """v_p of a nonzero int."""
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


class _Step:
    """One quotient-ring step of a tower.

    ``poly`` holds the low coefficients c_0..c_{d-1} of the monic step
    polynomial as exact ints of the monomial lattice of the level below,
    in one flat list of d*s entries, c_j at [j*s, (j+1)*s).
    """

    __slots__ = ("kind", "degree", "poly")

    def __init__(self, kind: str, degree: int, poly: list[int]) -> None:
        self.kind = kind
        self.degree = degree
        self.poly = poly


class PadicElement:
    """An element of a LocalField; treated as immutable."""

    __slots__ = ("field", "data")

    def __init__(self, field: "LocalField", data) -> None:
        self.field = field
        self.data = data

    def _coerce(self, other):
        if isinstance(other, PadicElement):
            if other.field is not self.field:
                raise InputError("elements belong to different fields")
            return other
        if isinstance(other, int):
            return self.field.element(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        f = self.field
        return PadicElement(f, f._add(self.data, o.data))

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        return PadicElement(f, f._neg(self.data))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        f = self.field
        return PadicElement(f, f._mul(self.data, o.data))

    __rmul__ = __mul__

    def inverse(self) -> "PadicElement":
        f = self.field
        return PadicElement(f, f._inv(self.data))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int) -> "PadicElement":
        f = self.field
        if k < 0:
            return self.inverse() ** (-k)
        return PadicElement(f, f._pow_raw(self.data, k))

    def valuation(self) -> int:
        """Valuation in uniformizer digits; raises on (undetermined) zero."""
        v = self.field._val_or_bound(self.data)
        if isinstance(v, int):
            return v
        raise _valuation_error(v)

    def is_zero(self) -> bool:
        """Strict zero test; undetermined zeros raise instead of guessing."""
        v = self.field._val_or_bound(self.data)
        if isinstance(v, int):
            return False
        if v == _INF:
            return True
        raise PrecisionError("zero-ness undetermined at working precision")

    def vanishes(self) -> bool:
        """True when the element is zero to the field precision, in
        uniformizer digits; never raises."""
        v = self.field._val_or_bound(self.data)
        return v == _INF or v >= self.field.prec

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).vanishes()

    def __repr__(self) -> str:
        return f"PadicElement({self.field.short_name()}, {self.field._render(self.data)})"


class _K1Entry(NamedTuple):
    """One generator of the unit/uniformizer basis of F^x / (F^x)^p."""

    kind: str  # 'pi' | 'unit' | 'top'
    level: int | None
    data: tuple
    label: str
    residue: tuple | None = None


class LocalField:
    """A finite tower over Q_p with fixed working precision.

    Steps are unramified, Eisenstein, or adjoined p-th roots; the latter
    are produced by :class:`KummerExtension` and classified during
    construction.  Instances are immutable after construction apart from
    memoization of derived data.
    """

    def __init__(self, p: int, steps=None, precision: int | None = None) -> None:
        if not isinstance(p, int) or p >= 1 << 16 or not is_prime(p):
            raise InputError(f"p must be a prime below 2^16, got {p!r}")
        if not isinstance(precision, (int, type(None))):
            raise InputError(f"precision must be an integer, got {precision!r}")
        specs = [] if steps is None else steps
        if not isinstance(specs, list):
            raise InputError(f"steps must be a list of step objects, not {type(specs).__name__}")
        # the levels below the top keep the top's margin over its default
        e = math.prod(len(step["coeffs"]) for step in specs if isinstance(step, dict)
                      and step.get("kind") == "eisenstein" and isinstance(step.get("coeffs"), list))
        margin = 0 if precision is None else precision - default_precision(p, e)
        field = LocalField._qp(p, None if specs else precision, margin)
        for i, spec in enumerate(specs):
            last = i == len(specs) - 1
            field = field._with_spec_step(spec, precision if last else None, margin)
        self._copy_from(field)

    # -- construction ------------------------------------------------------

    @classmethod
    def _qp(cls, p: int, precision: int | None, margin: int = 0) -> "LocalField":
        obj = object.__new__(cls)
        obj.p = p
        obj.steps = []
        obj.degree = 1
        obj.e = 1
        obj.f = 1
        obj._parent = None
        obj._setup(precision, margin)
        obj._pi = obj._int_raw(p)
        obj._residue_basis = [obj._one_raw()]
        return obj

    def _setup(self, precision: int | None, margin: int = 0) -> None:
        """A level built without a precision, below the top of a spec, takes
        the top's margin over its own default where that margin is positive,
        up to its own policy maximum, so that it never refuses a precision
        the top accepts."""
        p = self.p
        self.q = p**self.f
        self.wild = (p * self.e) // (p - 1)
        default = default_precision(p, self.e)
        policy_min, policy_max = self.wild + 5, _PRECISION_FACTOR_MAX * default
        self.prec = min(default + max(margin, 0), policy_max) if precision is None else precision
        if self.prec < policy_min:
            raise InputError(f"precision {self.prec} below the policy minimum {policy_min}")
        if self.prec > policy_max:
            raise InputError(f"precision {self.prec} above the policy maximum {policy_max}")
        self.cap = -(-self.prec // self.e) + 16  # p-digits; prec counts pi-digits
        self.index = 0
        self.level = len(self.steps)
        self._caches: dict = {}

    def _copy_from(self, other: "LocalField") -> None:
        for name in (
            "p", "steps", "degree", "e", "f", "_parent", "q", "wild", "prec",
            "cap", "index", "level", "_caches", "_pi", "_residue_basis",
        ):
            setattr(self, name, getattr(other, name))

    def _extended(self, step: _Step, e: int, f: int, precision: int | None,
                  margin: int = 0) -> "LocalField":
        child = object.__new__(LocalField)
        child.p = self.p
        child.steps = self.steps + [step]
        child.degree = self.degree * step.degree
        child.e = e
        child.f = f
        child._parent = self
        child._setup(precision, margin)
        return child

    def _with_spec_step(self, spec, precision: int | None, margin: int) -> "LocalField":
        if not isinstance(spec, dict) or "kind" not in spec:
            raise InputError("each step must be an object with a 'kind'")
        kind = spec["kind"]
        if kind == "unramified":
            extra = set(spec) - {"kind", "degree"}
            if extra:
                raise InputError(f"unknown unramified-step keys: {sorted(extra)}")
            deg = spec.get("degree", 0)
            if not isinstance(deg, int) or deg < 2:
                raise InputError(f"unramified step needs an integer degree >= 2, got {deg!r}")
            if deg > 64 or self.q**deg > _RESIDUE_FIELD_MAX:
                raise InputError(f"unramified degree {deg} gives a residue field above 2^64")
            return self._with_unramified(deg, precision, margin)
        if kind == "eisenstein":
            extra = set(spec) - {"kind", "coeffs"}
            if extra:
                raise InputError(f"unknown eisenstein-step keys: {sorted(extra)}")
            coeffs = spec.get("coeffs")
            if not isinstance(coeffs, list) or len(coeffs) < 2:
                raise InputError("eisenstein step needs a 'coeffs' list of length >= 2")
            return self._with_eisenstein([self.element(c).data for c in coeffs], precision, margin)
        raise InputError(f"unknown step kind {kind!r}")

    def _with_unramified(self, deg: int, precision: int | None, margin: int) -> "LocalField":
        step = _Step("unramified", deg, self._step_ints(self._unramified_poly(deg)))
        child = self._extended(step, self.e, self.f * deg, precision, margin)
        gen = child._gen_raw()
        basis = []
        for j in range(deg):
            gj = child._pow_raw(gen, j)
            for b in self._residue_basis:
                basis.append(child._mul(child._lift_raw(b), gj))
        child._residue_basis = basis
        child._pi = child._lift_raw(self._pi)
        return child

    def _with_eisenstein(self, coeffs: list, precision: int | None, margin: int) -> "LocalField":
        deg = len(coeffs)
        v0 = self._val_or_bound(coeffs[0])
        if v0 != 1:
            raise InputError("constant term of an Eisenstein polynomial must have valuation 1")
        for c in coeffs[1:]:
            v = self._val_or_bound(c)
            if isinstance(v, int) and v < 1:
                raise InputError("middle Eisenstein coefficients must have positive valuation")
        step = _Step("eisenstein", deg, self._step_ints(coeffs))
        child = self._extended(step, self.e * deg, self.f, precision, margin)
        child._residue_basis = [child._lift_raw(b) for b in self._residue_basis]
        child._pi = child._gen_raw()
        return child

    @classmethod
    def from_spec(cls, spec) -> "LocalField":
        """Build a field from the JSON field-spec structure."""
        import json

        if isinstance(spec, (str, bytes)):
            try:
                spec = json.loads(spec)
            except json.JSONDecodeError as exc:
                raise InputError(f"unparseable field spec: {exc}") from exc
        if not isinstance(spec, dict) or "p" not in spec:
            raise InputError("field spec must be an object with a 'p' entry")
        extra = set(spec) - {"p", "steps", "precision"}
        if extra:
            raise InputError(f"unknown field-spec keys: {sorted(extra)}")
        return cls(spec["p"], spec.get("steps", []), spec.get("precision"))

    def _unramified_poly(self, deg: int):
        """Low coefficients of a monic polynomial of the given degree that is
        irreducible over the residue field."""
        if math.gcd(deg, self.f) == 1:
            low = _fp_irreducible(self.p, deg)
            if low is None:  # pragma: no cover
                raise MathCheckError("no irreducible polynomial found")
            return [self._int_raw(c) for c in low]
        if deg > 3:
            raise InputError(
                "unramified steps of degree > 3 over a nontrivial residue field "
                "are not supported"
            )
        if self.q**deg > _SCAN_MAX:
            raise InputError(f"unramified degree {deg} over {self.q} residues: scan above 2^21")
        reps = [rep for _, rep in self.residue_reps()]
        for combo in itertools.product(reps, repeat=deg):
            cand = list(combo)
            if not self._poly_has_residue_root(cand):
                return cand
        raise InputError("could not find an irreducible unramified polynomial")

    def _poly_has_residue_root(self, coeffs) -> bool:
        for _, rep in self.residue_reps():
            acc = self._zero_raw()
            power = self._one_raw()
            for c in coeffs:
                acc = self._add(acc, self._mul(c, power))
                power = self._mul(power, rep)
            acc = self._add(acc, power)  # monic leading term
            v = self._val_or_bound(acc)
            if v == _INF or v >= 1:
                return True
        return False

    # -- raw data helpers ----------------------------------------------------

    def _data(self, v, N, ints):
        """(v, N, ints) with the ints reduced modulo p^(N-v+k) and v raised
        as _settled raises it."""
        if N <= v:
            return (N, N, [0] * len(ints))
        mod = self.p ** (N - v + self.index)
        return self._settled(v, N, [a % mod for a in ints])

    def _settled(self, v, N, ints):
        """(v, N, ints) for v < N and ints already below p^(N-v+k), such as
        a product's: v raised by their common p-power beyond the index k;
        ints that all vanish give v == N."""
        p, k = self.p, self.index
        g = math.gcd(*ints)
        if g == 0:
            return (N, N, ints)
        if g % p ** (k + 1) == 0:
            rise = _vp(g, p) - k
            ints, v = [a // p**rise for a in ints], v + rise
        return (v, N, ints)

    def _tighten(self, x, w: int):
        """x with its shift raised to w, a valuation it is proven to have."""
        v, N, ints = x
        if w <= v:
            return x
        pk = self.p ** (min(w, N) - v)
        if any(a % pk for a in ints):
            raise MathCheckError("element below its proven valuation")
        return self._data(w, N, [a // pk for a in ints])

    def _zero_raw(self):
        return (_INF, _INF, [0] * self.degree)

    def _from_ints(self, ints):
        """Data of exact monomial ints, with cap digits of relative precision;
        ints that are all zero give an exact zero."""
        g = math.gcd(*ints)
        if g == 0:
            return self._zero_raw()
        v = _vp(g, self.p)
        up, down = self.p**self.index, self.p**v
        return self._data(v, v + self.cap, [a * up // down for a in ints])

    def _int_raw(self, n: int):
        return self._from_ints([n] + [0] * (self.degree - 1))

    def _one_raw(self):
        return self._int_raw(1)

    def _lift_raw(self, parent_data):
        """View a parent-field element in this field (one level up).  While
        a Kummer top is under construction its index is 0 and its precision
        is over the monomials, so a parent's index is paid then."""
        v, N, ints = parent_data
        d, pad = self.index - self._parent.index, [0] * (self.degree - len(ints))
        if d >= 0:
            return (v, N, [a * self.p**d for a in ints] + pad)
        return (v + d, N + d, ints + pad)

    def _gen_raw(self):
        """The generator adjoined by the top step."""
        ints = [0] * self.degree
        ints[self.degree // self.steps[-1].degree] = 1
        return self._from_ints(ints)

    def _join(self, blocks):
        """Data of a settled top from the parent data of its blocks."""
        live = [b for b in blocks if b[1] != _INF]
        if not live:
            return self._zero_raw()
        v, N, d = min(b[0] for b in live), min(b[1] for b in live), self.index - self._parent.index
        ints = []
        for bv, _, b in blocks:
            scale = self.p ** (bv - v + d) if bv < N else 0
            ints += [a * scale for a in b]
        return self._data(v, N, ints)

    def _block(self, x, i: int):
        """Block i of x as parent data: its monomial ints carry the shift
        v - k, and its precision drops by the index k."""
        base, k, (v, N, ints) = self._parent, self.index, x
        s, scale = base.degree, self.p**base.index
        return base._data(v - k, N - k, [a * scale for a in ints[i * s : (i + 1) * s]])

    def _step_ints(self, coeffs) -> list[int]:
        """Step-polynomial coefficients (data of this field) as exact
        monomial ints: the balanced representatives of their data."""
        p, pk, out = self.p, self.p**self.index, []
        for v, N, ints in coeffs:
            if v >= N:
                out += [0] * len(ints)
                continue
            mod = p ** (N - v + self.index)
            lattice = [(a - mod if 2 * a > mod else a) * p ** max(v, 0) for a in ints]
            if v < 0 or any(a % pk for a in lattice):
                raise MathCheckError("step coefficient outside the monomial lattice")
            out += [a // pk for a in lattice]
        return out

    def _lattice_shift(self, x) -> int:
        """The least valuation of the monomial coordinates of x."""
        v, _, ints = x
        return v - self.index + _vp(math.gcd(*ints), self.p)

    # -- tower arithmetic ------------------------------------------------------

    def _add(self, x, y):
        if x[0] > y[0]:
            x, y = y, x
        (vx, Nx, X), (vy, Ny, Y) = x, y
        N = min(Nx, Ny)
        if vx >= N:  # both vanish below N
            return x if N == _INF else (N, N, [0] * self.degree)
        scale = self.p ** (vy - vx) if vy < N else 0
        return self._data(vx, N, [a + b * scale for a, b in zip(X, Y)])

    def _neg(self, x):
        v, N, X = x
        if v >= N:
            return x
        mod = self.p ** (N - v + self.index)
        return (v, N, [-a % mod for a in X])

    def _table(self):
        """(slots, size, over), the reduction table: the slot of each
        monomial in the unreduced product, where every step's degree may
        reach 2d - 2, the number of slots, and (slot, pairs) for each other
        slot, pairs the exact (monomial, int) terms it reduces to under the
        step polynomials; built once, from the parent's and the top step."""
        table = self._caches.get("table")
        if table is None:
            if self._parent is None:
                table = ([0], 1, ())
            else:
                step = self.steps[-1]
                table = _grow_table(self._parent._table(), step.poly, step.degree)
            self._caches["table"] = table
        return table

    def _spread(self):
        """The reduction table as one dict: slot -> the exact (monomial,
        int) terms it reduces to, (m, 1) for monomial m's own slot."""
        return _memo(self._caches, "spread", lambda: _spread_of(self._table()))

    def _mul(self, x, y):
        """Product, known to min(N_x + v_y, N_y + v_x): one integer product
        of the monomial ints, divided by p^k for the index k, which divides
        it exactly since x * y lies in p^(v_x + v_y) O (one gcd checks it).
        An operand's ints lie below its own modulus p^(N - v + k), so only
        an operand whose modulus exceeds the product's p^(N - v + 2k) is
        reduced first (the product modulo mod does not depend on it).  The
        quotients lie below p^(N - v + k), so they are not reduced again."""
        vx, Nx, X = x
        vy, Ny, Y = y
        if Nx == _INF or Ny == _INF:
            return self._zero_raw()
        v, N, k = vx + vy, min(Nx + vy, Ny + vx), self.index
        if N <= v:
            return (N, N, [0] * self.degree)
        mod = self.p ** (N - v + 2 * k)
        if Nx - vx > N - v + k:
            X = [a % mod for a in X]
        if Ny - vy > N - v + k:
            Y = [a % mod for a in Y]
        Z = self._ints_mul(X, Y, mod)
        if k:
            pk = self.p**k
            if math.gcd(*Z) % pk:
                raise MathCheckError("a product left the lattice of its ring of integers")
            Z = [a // pk for a in Z]
        return self._settled(v, N, Z)

    def _ints_mul(self, X, Y, mod: int) -> list[int]:
        """Monomial ints of X * Y modulo mod: every product of two nonzero
        ints lands in its slot of the unreduced product, and the table
        carries each other slot to the monomials' own.  When the nonzero
        pairs number under 1/_SPARSE_SHARE of the slot count, a dict holds
        only the slots they reach and those slots alone are reduced, the
        sparse accumulator of Gustavson ("Two fast algorithms for sparse
        matrices", ACM TOMS 4, 1978); otherwise a list holds every slot and
        one pass over the other nonzero slots adds their terms."""
        slots, size, over = self._table()
        ys = [(t, b) for t, b in zip(slots, Y) if b]
        if (len(X) - X.count(0)) * len(ys) * _SPARSE_SHARE < size:
            wide = {}
            for t, a in zip(slots, X):
                if a:
                    for u, b in ys:
                        wide[t + u] = wide.get(t + u, 0) + a * b
            spread, acc = self._spread(), {}
            for t, w in wide.items():
                for m, c in spread[t]:
                    acc[m] = acc.get(m, 0) + w * c
            out = [0] * len(slots)
            for m, a in acc.items():
                out[m] = a % mod
            return out
        wide = [0] * size
        for t, a in zip(slots, X):
            if a:
                for u, b in ys:
                    wide[t + u] += a * b
        out = [wide[t] for t in slots]
        for t, pairs in over:
            w = wide[t]
            if w:
                for m, c in pairs:
                    out[m] += w * c
        return [a % mod for a in out]

    def _pow_raw(self, x, k: int):
        """x^k for k >= 0, by binary powering."""
        out = self._one_raw()
        base = x
        while k:
            if k & 1:
                out = self._mul(out, base)
            base = self._mul(base, base)
            k >>= 1
        return out

    # -- inverses and the integral basis {r_j * pi^i} ---------------------------------

    def _inv(self, x):
        """1/x = pi^-v * 1/u for the unit u = x * pi^-v, v = v(x)."""
        val = self._val_or_bound(x)
        if not isinstance(val, int):
            raise PrecisionError("inverting an element indistinguishable from zero")
        if not val:
            return self._unit_inv(x)
        pim = self.pi_pow(-val).data
        return self._mul(pim, self._unit_inv(self._mul(x, pim)))

    def _unit_inv(self, x):
        """1/x for a unit x known modulo p^N O, by Newton's iteration y <- y
        + y * (1 - x * y) from the lift of the residue inverse r^(q-2), taken
        as exact at N: each round squares 1 - x * y, so it vanishes within
        log2(e * N) rounds, and then y = 1/x' modulo p^N for every x' that
        x allows, since 1/x is a unit.  x and y keep shift 0, so that no
        product loses digits."""
        x = self._tighten(x, 0)
        N, k = x[1], self.index
        v, _, ints = self._rep_raw(self._res_pow(self.residue_of(x), self.q - 2))
        y, one = self._data(v, N, ints), self._data(0, N, [self.p**k] + [0] * (self.degree - 1))
        for _ in range((self.e * N).bit_length() + 4):
            d = self._add(one, self._neg(self._mul(x, y)))
            if not isinstance(self._val_or_bound(d), int):
                return y
            y = self._add(y, self._mul(y, d))
        raise PrecisionError("inverse did not settle at working precision")

    def _solve(self, mat, prec: int):
        """Invert an n x n integer matrix known modulo p^prec over Z_p, by
        elimination with full pivoting on the least valuation.  Returns
        (D, P, X): the inverse is p^-D * X with the ints of X known modulo
        p^P.  Each pivot of valuation k costs k digits, and the back
        substitution D more, D the sum of them."""
        p, n = self.p, len(mat)
        rows = [m + [int(i == j) for j in range(n)] for i, m in enumerate(mat)]
        free_rows, free_cols, pivots = list(range(n)), list(range(n)), []
        for _ in range(n):
            pivot = next(((0, i, j) for i in free_rows for j in free_cols if rows[i][j] % p), None)
            if pivot is None:  # no unit left: the least valuation, if any entry survives
                cells = ((_vp(a, p), i, j)
                         for i in free_rows for j in free_cols if (a := rows[i][j]))
                pivot = min(cells, default=(prec, 0, 0))
            k, bi, bj = pivot
            if k >= prec:
                raise PrecisionError("elimination failed: matrix lost precision")
            prec -= k
            mod, pk = p**prec, p**k
            uinv = pow(rows[bi][bj] // pk, -1, mod)
            prow = rows[bi] = [c * uinv % mod for c in rows[bi]]
            free_rows.remove(bi)
            free_cols.remove(bj)
            for i in free_rows:
                m = rows[i][bj] // pk
                if m:
                    rows[i] = [(c - m * b) % mod for c, b in zip(rows[i], prow)]
            pivots.append((bi, bj, k))
        D = sum(k for _, _, k in pivots)
        if prec <= D:
            raise PrecisionError("elimination failed: matrix lost precision")
        sol = [None] * n
        for t in range(n - 1, -1, -1):
            bi, bj, k = pivots[t]
            acc = [c * p**D for c in rows[bi][n:]]
            for _, j, _ in pivots[t + 1 :]:
                if rows[bi][j]:
                    acc = [c - rows[bi][j] * a for c, a in zip(acc, sol[j])]
            sol[bj] = [c % p**prec // p**k for c in acc]
        return D, prec - D, sol

    def _basis_inverse(self):
        """T = B^-1 as (shifts, R, rows, index): row j is p^shifts[j] *
        rows[j], the rows' ints are known modulo p^(R - min(shifts)), and
        index is the least k with p^k O inside the monomial lattice.  B is
        the matrix of the stored ints of the basis, taken as exact: its
        columns are products of copies of the stored pi and residue lifts
        whose stated precision is raised past the elimination's digits, so
        no power of pi loses digits.  The stored ints lift the same residues
        and uniformizer powers, to far below the digits any decision reads."""
        T = self._caches.get("basis_inverse")
        if T is None:
            def exact(x):
                return (x[0], x[0] + 4 * self.cap + self.e + 2, x[2])

            n, cols, pi, pik = self.degree, [], exact(self._pi), exact(self._one_raw())
            basis = [exact(r) for r in self._residue_basis]
            for _ in range(self.e):
                cols += [self._mul(pik, r) for r in basis]
                pik = self._mul(pik, pi)
            mat = [[col[2][j] for col in cols] for j in range(n)]
            D, R, rows = self._solve(mat, 4 * self.cap)
            R = min(R, 2 * self.cap)
            shifts = [self.index - D - col[0] for col in cols]
            mod = self.p**R
            T = self._caches["basis_inverse"] = (
                shifts,
                min(shifts) + R,
                [[a % mod for a in row] for row in rows],
                max(0, -min(self._lattice_shift(col) for col in cols)),
            )
        return T

    def _basis_coords(self, x):
        """T * x as (n, [(s, a), ...]): the coordinate of r_j * pi^i, at
        position i*f + j, is p^s * a, and every coordinate is known modulo
        the same p^n, which is p^N_x unless T's own precision ends first.
        When the zero ints of x outnumber its nonzero ones _SPARSE_SHARE
        times over, each row is dotted with the nonzero ints alone."""
        shifts, R, rows, _ = self._basis_inverse()
        v, N, X = x
        n, low, p = min(N, v - self.index + R), v - self.index, self.p
        zeros = X.count(0)
        if zeros > _SPARSE_SHARE * (len(X) - zeros):
            live = [i for i, a in enumerate(X) if a]
            X = [X[i] for i in live]
            rows = (map(row.__getitem__, live) for row in rows)
        return n, [(t + low, sum(map(operator.mul, row, X)) % p ** (n - low - t)
                    if n > t + low else 0) for t, row in zip(shifts, rows)]

    def _read(self, x):
        """One pass of T over x: (v, digits), v as in _val_or_bound and, for
        an int v = e*m + i, digits the f coordinates of block i over p^m,
        modulo p (otherwise None)."""
        v, N, ints = x
        if v >= N:
            return (_INF if N == _INF else float(self.e * N)), None
        e, f, p = self.e, self.f, self.p
        if self.degree == 1:
            return v, [ints[0] % p]
        n, coords = self._basis_coords(x)
        weights = [e * (s + _vp(a, p)) + k // f for k, (s, a) in enumerate(coords) if a]
        if not weights:
            return float(e * n), None
        m, i = divmod(min(weights), e)
        block = coords[i * f : (i + 1) * f]
        return e * m + i, [a // p ** (m - s) % p if s <= m else 0 for s, a in block]

    def _val_or_bound(self, x):
        """Exact valuation (int), _INF for an exact zero, or the float lower
        bound e * n for an element zero modulo p^n O.  A nonzero coordinate
        known modulo p^n weighs less than e * n, so no vanished coordinate
        can undercut the least nonzero weight."""
        return self._read(x)[0]

    def _lead(self, x):
        """(v, r): v as in _val_or_bound and, for an int v = e*m + i, r the
        residue of x / pi^v, the leading digits times ubar^m (else None)."""
        v, digits = self._read(x)
        if digits is None:
            return v, None
        return v, tuple(self._twist(v // self.e, digits) if v // self.e else digits)

    def _twist(self, m: int, s) -> list[int]:
        """ubar^m * s on the residue field, ubar the residue of p / pi^e =
        1/eta: the matrix of eta-bar, whose columns are the residues of the
        units eta * r_j, to the power k = -m modulo q - 1, applied to s."""
        def build():
            eta = self._ladder("eta", 1)
            cols = [self.residue_of(self._mul(eta, r)) for r in self._residue_basis]
            return np.array(cols, dtype=np.int64).T

        eta_bar, k = _memo(self._caches, "eta_bar", build), -m % (self.q - 1)
        rows = _memo(self._caches, ("twist", k), lambda: power(eta_bar, k, self.p).tolist())
        return [sum(map(operator.mul, row, s)) % self.p for row in rows]

    def _settle(self):
        """Finish a Kummer top once its uniformizer and residue basis are
        set: its precision moves from the monomial lattice L to the ring of
        integers O, and its index becomes the least k with p^k O in L.
        Returns the map that carries data built so far to the new form."""
        self.index = max(self._parent.index, self._basis_inverse()[3])
        scale = self.p**self.index

        def carry(x):
            return (x[0], x[1], [a * scale for a in x[2]])

        self._pi = self._tighten(carry(self._pi), 1 // self.e)
        self._residue_basis = [self._tighten(carry(b), 0) for b in self._residue_basis]
        return carry

    # -- public element API -----------------------------------------------------

    def element(self, value) -> PadicElement:
        """Build an element from an int, nested digit lists, or an element."""
        if isinstance(value, PadicElement):
            if value.field is not self:
                raise InputError("element belongs to a different field")
            return value
        return PadicElement(self, self._from_ints(self._coerce_raw(value, self.level)))

    def _coerce_raw(self, value, level: int) -> list[int]:
        """Monomial ints of an int or a nested digit list at a level: the one
        reader of nested digit lists."""
        if isinstance(value, int) and not isinstance(value, bool):  # JSON true is no digit
            if level == 0:
                return [value]
            value = [value]
        if isinstance(value, (list, tuple)):
            if level == 0:
                raise InputError("digit list nests deeper than the tower")
            d = self.steps[level - 1].degree
            if len(value) > d:
                raise InputError(f"digit list longer than the step degree {d}")
            padded = list(value) + [0] * (d - len(value))
            return [c for v in padded for c in self._coerce_raw(v, level - 1)]
        raise InputError(f"cannot build a field element from {type(value).__name__}")

    def zero(self) -> PadicElement:
        return PadicElement(self, self._zero_raw())

    def one(self) -> PadicElement:
        return PadicElement(self, self._one_raw())

    @property
    def pi(self) -> PadicElement:
        return PadicElement(self, self._pi)

    def pi_pow(self, k: int) -> PadicElement:
        """pi^k = p^m * pi^r * eta^m for k = e*m + r, 0 <= r < e, and the
        unit eta = pi^e / p: one product of two ladder entries, shifted by
        m, never less precise than a power of 1/pi (pi^-7 on Q5(zeta5) is
        known to p^21, a binary power of 1/pi to p^19)."""
        def build():
            m, r = divmod(k, self.e)
            x = self._ladder("pi", r)
            if not m:
                return x
            eta = self._ladder("eta" if m > 0 else "1/eta", abs(m))
            v, N, ints = self._mul(x, eta) if r else eta
            return (v + m, N + m, ints)

        return PadicElement(self, _memo(self._caches.setdefault("pi_pows", {}), k, build))

    def _ladder(self, name: str, i: int):
        """base^i, i >= 0, from a per-field list of the powers of one base,
        grown one product at a time: pi, eta = pi^e / p or 1/eta."""
        ladder = self._caches.get(name)
        if ladder is None:
            if name == "pi":
                base = self._pi
            elif name == "eta":
                v, N, ints = self._tighten(self._ladder("pi", self.e), 1)
                base = (v - 1, N - 1, ints)
            else:
                base = self._inv(self._ladder("eta", 1))
            ladder = self._caches[name] = [self._one_raw(), base]
        while len(ladder) <= i:
            ladder.append(self._mul(ladder[-1], ladder[1]))
        return ladder[i]

    def gen(self) -> PadicElement:
        """Generator adjoined by the top step."""
        if not self.steps:
            raise InputError("the rational p-adic field has no adjoined generator")
        return PadicElement(self, self._gen_raw())

    def short_name(self) -> str:
        if not self.steps:
            return f"Q{self.p}"
        kinds = ",".join(s.kind[0] + str(s.degree) for s in self.steps)
        return f"Q{self.p}[{kinds}]"

    def describe(self) -> dict:
        return {
            "p": self.p,
            "degree": self.degree,
            "e": self.e,
            "f": self.f,
            "precision": self.prec,
            "has_mu_p": self.has_mu_p,
        }

    def _render(self, data) -> str:
        v, N, ints = data
        if N == _INF:
            return "0"
        return f"p^{v - self.index}*{ints} + O(p^{N})"

    # -- residue field machinery --------------------------------------------------

    def residue_reps(self):
        """All p^f lifts of residue-field elements as (coords, raw) pairs."""
        return [
            (combo, self._rep_raw(combo))
            for combo in itertools.product(range(self.p), repeat=self.f)
        ]

    def residue_of(self, x) -> tuple:
        """Coordinates of x mod the maximal ideal over the residue basis."""
        v, digits = self._read(x.data if isinstance(x, PadicElement) else x)
        # a negative valuation, or zero known modulo less than p^1
        if (v < 0) if isinstance(v, int) else (v < self.e):
            raise PrecisionError("residue undetermined (non-integral input?)")
        return tuple(digits) if v == 0 else (0,) * self.f

    def _rep_raw(self, coords):
        """The lift sum c_j * r_j of residue coordinates, cached per tuple."""
        def build():
            pairs = zip(coords, self._residue_basis)
            terms = [self._mul(self._int_raw(c), b) for c, b in pairs if c]
            return functools.reduce(self._add, terms, self._zero_raw())

        return _memo(self._caches.setdefault("reps", {}), tuple(coords), build)

    def teichmueller(self, x: PadicElement) -> PadicElement:
        """The (q-1)-th root of unity congruent to the unit x."""
        if x.field is not self:
            raise InputError("element belongs to a different field")
        v, coords = self._lead(x.data)
        if not isinstance(v, int):
            raise _valuation_error(v)
        if v != 0:
            raise InputError("Teichmueller lift requires a unit")
        cache = self._caches.setdefault("teich", {})
        if coords not in cache:
            y = self._rep_raw(coords)
            for _ in range(2 * self.cap * self.e + 20):
                y_next = self._pow_raw(y, self.q)
                diff = self._add(y_next, self._neg(y))
                y = y_next
                if not isinstance(self._val_or_bound(diff), int):
                    break
            else:
                raise PrecisionError("Teichmueller iteration failed to stabilize")
            cache[coords] = y
        return PadicElement(self, cache[coords])

    def _one_plus(self, coords: tuple, k: int):
        """The principal unit 1 + rep(coords) * pi^k."""
        term = self._mul(self._rep_raw(coords), self.pi_pow(k).data)
        return self._add(self._one_raw(), term)

    def _res_pow(self, a: tuple, k: int) -> tuple:
        return self.residue_of(self._pow_raw(self._rep_raw(a), k))

    def _as_matrix(self) -> np.ndarray:
        """The F_p-linear map s -> s^p + ubar * s on the residue field, ubar
        the residue of p / pi^e, the unit at the wild level."""
        mat = self._caches.get("as_matrix")
        if mat is None:
            f = self.f
            units = [tuple(int(j == i) for j in range(f)) for i in range(f)]
            cols = [np.add(self._res_pow(s, self.p), self._twist(1, s)) for s in units]
            mat = self._caches["as_matrix"] = np.array(cols, dtype=np.int64).T % self.p
        return mat

    # -- p-th power testing --------------------------------------------------------

    def _unit_defect(self, u_data):
        """Hensel-style p-th root approximation of a unit.

        Returns ('power', t) when u is a p-th power, ('ramified', t, mu)
        when the defect stabilizes at a level mu coprime to p below the
        wild bound, and ('unramified', t, m) when the top-level equation
        has no root (m = wild/p).  t approximates the p-th root:
        u = t^p * (1 + O(pi^level)).
        """
        p, w = self.p, self.wild
        k_inv = pow(p, -1, self.q - 1) if self.q > 2 else 1
        t = self._pow_raw(self.teichmueller(PadicElement(self, u_data)).data, k_inv)
        for _ in range(w + 3):
            ratio = self._mul(u_data, self._inv(self._pow_raw(t, p)))
            mu, c = self._lead(self._add(ratio, self._neg(self._one_raw())))
            if mu == _INF or mu > w:
                return ("power", t)
            if not isinstance(mu, int):
                raise PrecisionError("p-th power test undetermined at working precision")
            if mu % p and mu < w:
                return ("ramified", t, mu)
            if mu == w:
                s = fp_solve(self._as_matrix(), np.array(c, dtype=np.int64), self.p)
                if s is None:
                    return ("unramified", t, w // p)
            else:
                s = self._res_pow(c, self.q // p)
            t = self._mul(t, self._one_plus(tuple(int(a) for a in s), mu // p))
        raise MathCheckError("p-th root defect loop failed to terminate")  # pragma: no cover

    def is_pth_power(self, x: PadicElement) -> bool:
        """Membership in (F^x)^p, by Hensel lifting past the wild bound."""
        if x.field is not self:
            raise InputError("element belongs to a different field")
        if not (self.has_mu_p or self.p == 2):
            raise InputError("p-th power testing requires a primitive p-th root of unity")
        v = x.valuation()
        if v % self.p:
            return False
        u = self._tighten(self._mul(x.data, self.pi_pow(-v).data), 0)
        return self._unit_defect(u)[0] == "power"

    # -- mu_p detection and the p-th root of unity -----------------------------------

    @property
    def has_mu_p(self) -> bool:
        return _memo(self._caches, "has_mu_p", self._detect_mu_p)

    @property
    def zeta(self) -> PadicElement | None:
        """A primitive p-th root of unity, when the field contains one."""
        if not self.has_mu_p:
            return None
        return PadicElement(self, self._caches["zeta"])

    def _detect_mu_p(self) -> bool:
        p = self.p
        if p == 2:
            self._caches["zeta"] = self._int_raw(-1)
            return True
        if self.e % (p - 1):
            return False
        mu0 = self.e // (p - 1)
        vecs = kernel(self._as_matrix(), self.p).vectors()
        root = next((tuple(int(c) for c in v) for v in vecs if v.any()), None)
        if root is None:
            return False
        x = self._one_plus(root, mu0)
        zeta = self._refine_zeta(x, mu0)
        if zeta is None:
            return False
        self._caches["zeta"] = zeta
        return True

    def _refine_zeta(self, x, mu0: int):
        """Drive x^p - 1 to zero by graded corrections: with s the leading
        residue of x^p - 1 at level dv > wild, x * (1 + t * pi^(dv - e)), t =
        -s / ubar, cancels it, so each round raises dv and at most e * cap
        rounds reach the working precision."""
        one = self._one_raw()
        for _ in range(self.e * self.cap + 30):
            dv, s = self._lead(self._add(self._pow_raw(x, self.p), self._neg(one)))
            if not isinstance(dv, int):
                return x if self._val_or_bound(self._add(x, self._neg(one))) == mu0 else None
            t = tuple(self._twist(-1, [-c for c in s]))  # -s / ubar
            x = self._mul(x, self._one_plus(t, dv - self.e))
        raise PrecisionError("p-th root of unity did not settle at working precision")

    # -- the unit-filtration basis of F^x/(F^x)^p and its discrete log ---------------

    def k1_structure(self) -> list[_K1Entry]:
        """Filtration-adapted basis of F^x/(F^x)^p.

        One uniformizer entry, the f principal units 1 + r_j * pi^mu per
        level mu coprime to p below the wild bound, and one top-level entry
        whose residue avoids the image of the level-w power map.  Where the
        p-th root of unity (or -1 for p = 2) lives on such a level, it comes
        first there and replaces the unit at the last nonzero digit of its
        residue; with the other units it still spans the residue field.
        """
        entries = self._caches.get("k1_structure")
        if entries is not None:
            return entries
        if not self.has_mu_p:
            raise InputError("the unit basis requires a primitive p-th root of unity")
        p, w, f = self.p, self.wild, self.f
        is_qp = self.degree == 1
        pi_label = str(p) if is_qp else "pi"
        entries = [_K1Entry("pi", None, self._pi, pi_label)]
        zeta = self.zeta.data
        zd = self._add(zeta, self._neg(self._one_raw()))
        zlevel, zres = self._lead(zd)
        for mu in range(1, w + 1):
            if mu % p == 0 and mu < w:
                continue
            if mu == w:
                tmat = self._as_matrix()
                timg = image(tmat, p)
                coords = next(
                    (c for c in itertools.product(range(p), repeat=f)
                     if any(c) and not timg.contains(np.array(c, dtype=np.int64))),
                    None,
                )
                if coords is None:  # pragma: no cover
                    raise MathCheckError("no top-level unit found outside the power image")
                data = self._one_plus(coords, w)
                label = self._unit_label(mu, coords, is_qp)
                entries.append(_K1Entry("top", mu, data, label, coords))
                continue
            # the root of unity first when it lives here, in place of the unit
            # at the last nonzero digit of its residue; the others in order
            skip = None
            if zlevel == mu:
                skip = max(j for j, c in enumerate(zres) if c)
                entries.append(_K1Entry("unit", mu, zeta, "-1" if p == 2 else "zeta", zres))
            for i in range(f):
                if i != skip:
                    coords = tuple(1 if j == i else 0 for j in range(f))
                    label = self._unit_label(mu, coords, is_qp)
                    entries.append(_K1Entry("unit", mu, self._one_plus(coords, mu), label, coords))
        if len(entries) != self.degree + 2:
            raise MathCheckError(
                f"unit basis has dimension {len(entries)}, expected {self.degree + 2}"
            )
        self._caches["k1_structure"] = entries
        return entries

    def _unit_label(self, mu: int, coords: tuple, is_qp: bool) -> str:
        if is_qp:
            return str(1 + self.p**mu * coords[0])
        if coords == tuple(1 if j == 0 else 0 for j in range(self.f)):
            return f"1+pi^{mu}"
        idx = "".join(str(c) for c in coords)
        return f"1+pi^{mu}*u{idx}"

    def _level_matrix(self, mu: int) -> np.ndarray:
        """Residues of the level-mu basis entries, as columns, followed at
        the wild level by the columns of s -> s^p + ubar * s."""
        def build():
            cols = np.array([e.residue for e in self.k1_structure() if e.level == mu]).T
            return np.hstack([cols, self._as_matrix()]) if mu == self.wild else cols

        return _memo(self._caches.setdefault("level_matrices", {}), mu, build)

    def k1_coords(self, x: PadicElement) -> list[int]:
        """Discrete log in F^x/(F^x)^p over the k1_structure basis, by
        peeling the unit filtration with no inverse: x = (recorded basis
        product) * (p-th powers) * u throughout, and u is cleared by its
        Teichmueller lift to the q - 2, basis entries to the p - c, and
        (1 + t * pi^l)^p, t the negated residue solution, where p divides the
        level.  One _lead reads each level; the lift comes from teichmueller's
        cache, and the other factors and the solves are cached here."""
        if x.field is not self:
            raise InputError("element belongs to a different field")
        entries = self.k1_structure()
        p, w, caches = self.p, self.wild, self._caches
        coords = [0] * len(entries)
        index = {}  # positions by level; the uniformizer entry comes first
        for pos, e in enumerate(entries):
            index.setdefault(e.level, []).append(pos)
        v, r = self._lead(x.data)
        if not isinstance(v, int):
            raise _valuation_error(v)
        coords[0] = v % p
        u = self._tighten(self._mul(x.data, self.pi_pow(-v).data) if v else x.data, 0)
        # clearing factors, in dicts of their own: by (position, c), by
        # (t, l); level solves by (level, residue)
        powers, pth = caches.setdefault("k1_powers", {}), caches.setdefault("k1_pth", {})
        solves = caches.setdefault("k1_solves", {})
        if r != (1,) + (0,) * (self.f - 1):  # the residue of r_0 = 1 lifts to 1
            teich = self.teichmueller(PadicElement(self, self._rep_raw(r))).data
            u = self._mul(u, self._pow_raw(teich, self.q - 2))
        one, dv = self._one_raw(), None
        for mu in range(1, w + 1):
            if dv is None:  # u changed: read its level again
                dv, c = self._lead(self._add(u, self._neg(one)))
            if dv == _INF or dv > w:
                break
            if not isinstance(dv, int):
                raise PrecisionError("unit filtration peel undetermined")
            if dv > mu:
                continue
            if dv < mu:
                raise MathCheckError("unit filtration peel missed a level")
            slots = index.get(mu, [])
            cs, t = _memo(solves, (mu, c), lambda: self._k1_solve(mu, c, len(slots)))
            for pos, ck in zip(slots, cs):
                coords[pos] = ck
                if ck:
                    data = entries[pos].data
                    clear = _memo(powers, (pos, ck), lambda: self._pow_raw(data, p - ck))
                    u, dv = self._mul(u, clear), None
            if t:
                l = mu // p
                clear = _memo(pth, (t, l), lambda: self._pow_raw(self._one_plus(t, l), p))
                u, dv = self._mul(u, clear), None
        dv = self._val_or_bound(self._add(u, self._neg(one)))
        if isinstance(dv, int) and dv <= w:
            raise MathCheckError("unit filtration peel left a sub-wild residual")
        return coords

    def _k1_solve(self, mu: int, c: tuple, k: int):
        """The peel at level mu, which carries k basis entries, for the
        leading residue c of u - 1: the entries' coordinates, and the negated
        residue t of the factor (1 + t * pi^(mu/p))^p, None if u needs none."""
        p, w = self.p, self.wild
        if mu % p == 0 and mu < w:
            cs, s = [], self._res_pow(c, self.q // p)
        else:
            sol = fp_solve(self._level_matrix(mu), np.array(c, dtype=np.int64), self.p)
            if sol is None:  # pragma: no cover
                raise MathCheckError(f"level-{mu} slots do not cover the graded piece")
            cs, s = [int(a) for a in sol[:k]], sol[k:]  # s is empty below the wild level
        t = tuple(int(-a % p) for a in s)
        return cs, t if any(t) else None

    def k1_element(self, coords) -> PadicElement:
        """Product of basis powers with the given exponents."""
        entries = self.k1_structure()
        if len(coords) != len(entries):
            raise InputError("coordinate length does not match the basis")
        acc = self._one_raw()
        for c, e in zip(coords, entries):
            c = int(c) % self.p
            if c:
                acc = self._mul(acc, self._pow_raw(e.data, c))
        return PadicElement(self, acc)


def _spread_of(table) -> dict:
    """slot -> ((monomial, int), ...) of a reduction table, its own slots
    included."""
    slots, _, over = table
    spread = dict(over)
    spread.update((t, ((m, 1),)) for m, t in enumerate(slots))
    return spread


def _grow_table(table, poly: list[int], d: int):
    """The reduction table of a step of degree d, with low coefficients
    poly, over a level with the given table.  Slot i * W + t, W the slot
    count below, holds gen^i times what slot t holds below: the level's
    table reduces t, and gen^i, for i >= d, comes down by gen^d = -sum
    c_j * gen^j, one power of gen at a time."""
    slots, size, _ = table
    s, below = len(slots), _spread_of(table)
    # powers[k][m] = gen^(d + k) * b_m as {monomial: int}, b_m below
    first = [{} for _ in range(s)]
    for j in range(d):
        for k, c in enumerate(poly[j * s : (j + 1) * s]):
            if c:
                for m, acc in enumerate(first):
                    for r, a in below[slots[k] + slots[m]]:
                        acc[j * s + r] = acc.get(j * s + r, 0) - c * a
    powers, high = [first], (d - 1) * s
    for _ in range(d - 2):
        times_gen = []
        for prev in powers[-1]:
            acc = {}
            for r, c in prev.items():
                for u, a in first[r - high].items() if r >= high else ((r + s, 1),):
                    acc[u] = acc.get(u, 0) + c * a
            times_gen.append(acc)
        powers.append(times_gen)
    grown = [i * size + j for i in range(d) for j in slots]
    own, over = set(grown), []
    for i in range(2 * d - 1):
        for t, pairs in below.items():
            if i * size + t not in own:
                row = {}
                for m, c in pairs:
                    for r, a in powers[i - d][m].items() if i >= d else ((i * s + m, 1),):
                        row[r] = row.get(r, 0) + c * a
                over.append((i * size + t, tuple((r, a) for r, a in row.items() if a)))
    return grown, size * (2 * d - 1), tuple(over)


def _fp_irreducible(p: int, deg: int):
    """Low coefficients of the first monic irreducible of the given degree
    over F_p, in lexicographic order with the constant term slowest.

    Candidates start at constant term 1, and each is decided by Rabin's
    test: f of degree n is irreducible iff x^(p^n) = x mod f and
    gcd(x^(p^(n/q)) - x, f) = 1 for every prime q dividing n.
    """

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

    def mul_mod(a, b, f):
        out = [0] * max(len(a) + len(b) - 1, 0)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return poly_mod([c % p for c in out], f)

    def frobenius(h, f):
        """h^p mod f."""
        out, k = [1], p
        while k:
            if k & 1:
                out = mul_mod(out, h, f)
            h = mul_mod(h, h, f)
            k >>= 1
        return out

    def minus_x(h, f):
        """h - x mod f."""
        h = h + [0] * (2 - len(h))
        h[1] = (h[1] - 1) % p
        return poly_mod(h, f)

    def coprime(a, b):
        while b:
            a, b = b, poly_mod(a, b)
        return len(a) == 1

    primes = [q for q in range(2, deg + 1) if deg % q == 0 and is_prime(q)]

    def irreducible(low):
        full = low + [1]
        powers = [[0, 1]]  # x^(p^k) mod f for k = 0..deg
        for _ in range(deg):
            powers.append(frobenius(powers[-1], full))
        if minus_x(powers[deg], full):
            return False
        return all(coprime(full, minus_x(powers[deg // q], full)) for q in primes)

    for combo in itertools.product(range(1, p), *[range(p)] * (deg - 1)):
        low = list(combo)
        if irreducible(low):
            return low
    return None


class KummerExtension:
    """E = F(a^{1/p}) for a not a p-th power, with its Galois generator.

    Internally the Kummer element is scaled by p-th powers of the base
    uniformizer so its valuation lies in 0..p-1; that changes neither the
    extension nor the class of a, and the adjoined root transforms
    compatibly.  When that element has denominators over the monomials of
    the base, the step adjoins the root of p^(p*m) times it instead, for
    the least m that clears them, and A is that root over p^m, so the
    monomials of the top stay a ring.  sigma sends the root A to
    zeta_p * A.
    """

    def __init__(self, base: LocalField, a: PadicElement, label: str | None = None) -> None:
        if not isinstance(a, PadicElement) or a.field is not base:
            raise InputError("the Kummer element must live in the base field")
        if not base.has_mu_p:
            raise InputError("Kummer extensions need a primitive p-th root of unity in the base")
        p = base.p
        v = a.valuation()
        shift = -(v // p)
        a_norm = (a * base.pi_pow(p * shift)).data
        v_norm = v % p
        kind_data = None
        if v_norm == 0:
            kind_data = base._unit_defect(a_norm)
            if kind_data[0] == "power":
                raise InputError("the element is a p-th power; the extension degenerates")
        self.base = base
        self.p = p
        self.a = a
        self.label = label
        lattice_shift = base._lattice_shift(a_norm)
        clear = -(lattice_shift // p) if lattice_shift < 0 else 0
        scaled = (a_norm[0] + p * clear, a_norm[1] + p * clear, a_norm[2])
        poly = base._step_ints([base._neg(scaled)] + [base._zero_raw()] * (p - 1))
        if v_norm != 0:
            e, f, kind = base.e * p, base.f, "ramified"
            info = {"mu": v_norm}
        elif kind_data[0] == "ramified":
            e, f, kind = base.e * p, base.f, "ramified"
            info = {"mu": kind_data[2], "t": kind_data[1]}
        else:
            e, f, kind = base.e, base.f * p, "unramified"
            info = {"m": kind_data[2], "t": kind_data[1]}
        step = _Step("kummer", p, poly)
        # the base's margin over its default precision carries over to the top
        margin = base.prec - default_precision(p, base.e)
        top = base._extended(step, e, f, default_precision(p, e) + margin)
        self.top = top
        self.ramified = kind == "ramified"
        gv, gN, gen = top._gen_raw()
        A = (gv - clear, gN - clear, gen)
        if kind == "ramified":
            mu = info["mu"]
            if "t" in info:
                t_lift = top._lift_raw(info["t"])
                elt = top._add(A, top._neg(t_lift))
            else:
                elt = A
            s, tt = _bezout(mu, p)
            pw = top._pow_raw(elt, s)
            top._pi = top._mul(pw, top._lift_raw(base.pi_pow(tt).data))
            top._residue_basis = [top._lift_raw(b) for b in base._residue_basis]
        else:
            m = info["m"]
            ratio = top._mul(A, top._lift_raw(base._inv(info["t"])))
            delta = top._mul(
                top._add(ratio, top._neg(top._one_raw())),
                top._lift_raw(base.pi_pow(-m).data),
            )
            top._pi = top._lift_raw(base._pi)
            basis = []
            for j in range(p):
                dj = top._pow_raw(delta, j)
                for b in base._residue_basis:
                    basis.append(top._mul(top._lift_raw(b), dj))
            top._residue_basis = basis
        carry = top._settle()
        self._A = top._tighten(carry(A), 0)
        vpi = top._val_or_bound(top._pi)
        if vpi != 1:
            raise MathCheckError(f"constructed uniformizer has valuation {vpi}")
        top._caches["zeta"] = top._lift_raw(base.zeta.data)
        top._caches["has_mu_p"] = True
        self._zeta_pows = list(itertools.accumulate(
            [base.zeta.data] * (p - 1), base._mul, initial=base._one_raw()))
        self.cache: dict = {}

    @property
    def A(self) -> PadicElement:
        """The adjoined p-th root of the normalized Kummer element."""
        return PadicElement(self.top, self._A)

    def embed(self, x: PadicElement) -> PadicElement:
        if x.field is not self.base:
            raise InputError("embed expects a base-field element")
        return PadicElement(self.top, self.top._lift_raw(x.data))

    def sigma(self, x: PadicElement, k: int = 1) -> PadicElement:
        """sigma^k, sigma the Galois generator: block i, the coefficient of
        the i-th power of the adjoined root, is scaled by zeta_p^(i*k)."""
        if x.field is not self.top:
            raise InputError("sigma acts on top-field elements")
        top, base, p = self.top, self.base, self.p
        blocks = [base._mul(top._block(x.data, i), self._zeta_pows[i * k % p]) if i
                  else top._block(x.data, 0) for i in range(p)]
        return PadicElement(top, top._join(blocks))

    def norm_down(self, x: PadicElement) -> PadicElement:
        """Product of the p Galois conjugates, in the base field: P_n, the
        product of sigma^i(x) over i < n, doubles to P_n * sigma^n(P_n) along
        the bits of p, and P_n * sigma^n(x) adds one.  A block off the base
        whose valuation is determined fails the check."""
        if x.field is not self.top:
            raise InputError("norm_down expects a top-field element")
        prod, n = x, 1
        for bit in bin(self.p)[3:]:
            prod, n = prod * self.sigma(prod, n), 2 * n
            if bit == "1":
                prod, n = prod * self.sigma(x, n), n + 1
        for i in range(1, self.p):
            if isinstance(self.base._val_or_bound(self.top._block(prod.data, i)), int):
                raise MathCheckError("a norm has a nonzero block off the base field")
        return PadicElement(self.base, self.top._block(prod.data, 0))
