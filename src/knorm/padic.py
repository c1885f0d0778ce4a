"""Finite-precision arithmetic in finite towers over the p-adic rationals.

Representation
--------------
An element of a tower field of degree n over Q_p is one flat list of n
coefficients.  If the top step has degree d over a field of degree s,
block i of the list, the slice [i*s, (i+1)*s), holds the coefficient of
the i-th power of the adjoined generator, laid out the same way one
level down; over Q_p the list has a single entry.  Nested digit lists
are accepted as input only.  A coefficient is an interval-style p-adic
float ``(exp, mant, rel)``:

* ``mant != 0``: the value is mant * p^exp, trusted modulo p^(exp+rel),
  with mant a unit in [1, p^rel);
* ``mant == 0``: the value is congruent to 0 modulo p^exp, and
  ``exp == ZERO_EXP`` marks an exact zero.

Relative precision survives multiplication and inversion unchanged;
additive cancellation shrinks it honestly.  Decision procedures check
the wild bound they need and raise PrecisionError instead of guessing,
and an element whose retained digits are all zero without being an
exact zero refuses to answer zero-ness questions.

Valuations and residues are read off coordinates over the integral basis
{r_j * pi^i : i < e, j < f} built from the stored uniformizer pi and
residue-basis lifts r_j (Serre, *Local Fields*, Ch. I, Sec. 6, Prop. 18).
Each field caches T = B^-1, B the matrix of that basis, so this works
uniformly for every tower shape, including adjoined p-th-root steps
whose rings of integers exceed the monomial lattice.  With c = T * x,
v(x) = min(e * v_p(c_ij) + i): weights of distinct i differ mod e, so
only the minimum of one i-block can tie.  The valuation is returned only
when no coordinate whose digits were lost could weigh less than it, and
the residue of an integral x is (c_0j mod p).

A product is the convolution of the operands' top-step blocks followed
by the reduction of its top slots, from the highest down, by the step
polynomial.  Exact zeros are never touched: an exact-zero block of
either operand, an exact-zero step coefficient and an empty convolution
slot are all skipped.  That is exact, tuple for tuple: c_mul(x, 0) is an
exact zero, c_add(x, 0) == x, and c_add is canonical in (value mod
p^absprec, absprec), so the order of the remaining sums is free.  The
reduction multiplies by the negated step coefficients, cached per field
and level, since c_mul(a, -b) == -c_mul(a, b).  Products are never
reassociated (no Karatsuba, no distributed reduction): interval
precision is not distributive, and after cancellation (a + b) * c keeps
more digits than a * c + b * c, so a regrouped product would move the
precisions that PrecisionError decisions read (Caruso, Roe and Vaccon,
"Tracking p-adic precision", LMS J. Comput. Math. 17A, 2014).
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import InputError, MathCheckError, PrecisionError
from .fplin import FpMatrix, Subspace, is_prime, kernel_image, solve as fp_solve

__all__ = ["LocalField", "PadicElement", "KummerExtension", "default_precision"]

ZERO_EXP = 10**9
_INF = float("inf")

CZERO = (ZERO_EXP, 0, 0)


# Work bounds, checked before the work: precision up to 8 times the
# default; residue fields up to 2^64 elements (the irreducible search stays
# under about 1.5 s for every p); and up to 2^21 candidates q^deg for the
# residue-root scan, each testing q roots (about 2 s at the bound).
_PRECISION_FACTOR_MAX, _RESIDUE_FIELD_MAX, _SCAN_MAX = 8, 2**64, 2**21


def default_precision(p: int, e: int) -> int:
    """Working precision in uniformizer digits for ramification index e."""
    w = -(-(p * e) // (p - 1))  # ceil
    return 4 * w + 10


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def _bezout(a: int, b: int) -> tuple[int, int]:
    """(s, t) with s*a + t*b = 1 and 0 < s < b, for coprime a, b."""
    s = pow(a, -1, b)
    t = (1 - s * a) // b
    return s, t


class _Ctx:
    """Coefficient context: the prime, mantissa width cap, power table."""

    __slots__ = ("p", "M", "_pows")

    def __init__(self, p: int, M: int) -> None:
        self.p = p
        self.M = M
        self._pows = [p**i for i in range(M + 2)]

    def ppow(self, k: int) -> int:
        if 0 <= k < len(self._pows):
            return self._pows[k]
        return self.p**k

    def c_int(self, n: int):
        if n == 0:
            return CZERO
        v = 0
        while n % self.p == 0:
            n //= self.p
            v += 1
        return (v, n % self.ppow(self.M), self.M)

    def c_neg(self, a):
        e, m, r = a
        if m == 0:
            return a
        return (e, self.ppow(r) - m, r)

    def c_add(self, a, b):
        ea, ma, ra = a
        eb, mb, rb = b
        if ma == 0 and mb == 0:
            return (min(ea, eb), 0, 0)
        if mb == 0:
            a, b = b, a
            ea, ma, ra, eb, mb, rb = eb, mb, rb, ea, ma, ra
        if ma == 0:
            # zero known mod p^ea plus a definite value mant_b * p^eb
            if eb >= ea:
                return (ea, 0, 0)
            rel = min(rb, ea - eb)
            return (eb, mb % self.ppow(rel), rel)
        e = min(ea, eb)
        absp = min(ea + ra, eb + rb)
        width = absp - e
        if width <= 0:
            return (absp, 0, 0)
        s = (ma * self.ppow(ea - e) + mb * self.ppow(eb - e)) % self.ppow(width)
        if s == 0:
            return (absp, 0, 0)
        v = 0
        while s % self.p == 0:
            s //= self.p
            v += 1
        return (e + v, s, width - v)

    def c_mul(self, a, b):
        ea, ma, ra = a
        eb, mb, rb = b
        if ma == 0 or mb == 0:
            if (ma == 0 and ea >= ZERO_EXP) or (mb == 0 and eb >= ZERO_EXP):
                return CZERO
            return (min(ea + eb, ZERO_EXP), 0, 0)
        rel = min(ra, rb)
        return (ea + eb, (ma * mb) % self.ppow(rel), rel)

    def c_inv(self, a):
        e, m, r = a
        if m == 0:
            raise PrecisionError("inverting a value indistinguishable from zero")
        return (-e, pow(m, -1, self.ppow(r)), r)


class _Step:
    """One quotient-ring step of a tower.

    ``coeffs`` are the low coefficients c_0..c_{d-1} of the monic step
    polynomial, as data of the level below, of s entries each.  ``poly``
    holds them in one flat list of d*s entries, c_j at [j*s, (j+1)*s).
    """

    __slots__ = ("kind", "degree", "poly", "info")

    def __init__(self, kind: str, degree: int, coeffs, info=None) -> None:
        self.kind = kind
        self.degree = degree
        self.poly = [c for coeff in coeffs for c in coeff]
        self.info = info or {}


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
        return PadicElement(f, f._mul(f.level, self.data, o.data))

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
        if v == _INF:
            raise PrecisionError("valuation of zero is undefined")
        raise PrecisionError("valuation undetermined at working precision")

    def is_zero(self) -> bool:
        """Strict zero test; undetermined zeros raise instead of guessing."""
        v = self.field._val_or_bound(self.data)
        if isinstance(v, int):
            return False
        if v == _INF:
            return True
        raise PrecisionError("zero-ness undetermined at working precision")

    def vanishes(self, min_digits: int | None = None) -> bool:
        """True when the element is zero to at least min_digits uniformizer
        digits (the field precision by default); never raises."""
        v = self.field._val_or_bound(self.data)
        floor = self.field.prec if min_digits is None else min_digits
        if isinstance(v, int):
            return v >= floor
        return v == _INF or v >= floor

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).vanishes()

    def __repr__(self) -> str:
        return f"PadicElement({self.field.short_name()}, {self.field._render(self.data)})"


class _K1Entry:
    """One generator of the unit/uniformizer basis of F^x / (F^x)^p."""

    __slots__ = ("kind", "level", "data", "label", "residue")

    def __init__(self, kind, level, data, label, residue=None) -> None:
        self.kind = kind  # 'pi' | 'unit' | 'top'
        self.level = level
        self.data = data
        self.label = label
        self.residue = residue


class LocalField:
    """A finite tower over Q_p with fixed working precision.

    Steps are unramified, Eisenstein, or adjoined p-th roots; the latter
    are produced by :class:`KummerExtension` and classified during
    construction.  Instances are immutable after construction apart from
    memoization of derived data.
    """

    def __init__(self, p: int, steps=None, precision: int | None = None) -> None:
        if not isinstance(p, int) or not is_prime(p) or p >= 1 << 16:
            raise InputError(f"p must be a prime below 2^16, got {p!r}")
        if not isinstance(precision, (int, type(None))):
            raise InputError(f"precision must be an integer, got {precision!r}")
        specs = [] if steps is None else steps
        if not isinstance(specs, list):
            raise InputError(f"steps must be a list of step objects, not {type(specs).__name__}")
        field = LocalField._qp(p, precision)
        for i, spec in enumerate(specs):
            last = i == len(specs) - 1
            field = field._with_spec_step(spec, precision if last else None)
        self._copy_from(field)

    # -- construction ------------------------------------------------------

    @classmethod
    def _qp(cls, p: int, precision: int | None) -> "LocalField":
        obj = object.__new__(cls)
        obj.p = p
        obj.steps = []
        obj.degree = 1
        obj.e = 1
        obj.f = 1
        obj._parent = None
        obj._setup(precision)
        obj._pi = [obj.ctx.c_int(p)]
        obj._residue_basis = [obj._one_raw()]
        return obj

    def _setup(self, precision: int | None) -> None:
        p = self.p
        self.q = p**self.f
        self.wild = (p * self.e) // (p - 1)
        default = default_precision(p, self.e)
        self.prec = default if precision is None else precision
        policy_min, policy_max = self.wild + 5, _PRECISION_FACTOR_MAX * default
        if self.prec < policy_min:
            raise InputError(f"precision {self.prec} below the policy minimum {policy_min}")
        if self.prec > policy_max:
            raise InputError(f"precision {self.prec} above the policy maximum {policy_max}")
        M = max(-(-self.prec // self.e), self.wild) + 16
        self.ctx = _Ctx(p, M)
        self.level = len(self.steps)
        self._caches: dict = {}

    def _copy_from(self, other: "LocalField") -> None:
        for name in (
            "p", "steps", "degree", "e", "f", "_parent", "q", "wild", "prec",
            "ctx", "level", "_caches", "_pi", "_residue_basis",
        ):
            setattr(self, name, getattr(other, name))

    def _extended(self, step: _Step, e: int, f: int, precision: int | None) -> "LocalField":
        child = object.__new__(LocalField)
        child.p = self.p
        child.steps = self.steps + [step]
        child.degree = self.degree * step.degree
        child.e = e
        child.f = f
        child._parent = self
        child._setup(precision)
        return child

    def _with_spec_step(self, spec, precision: int | None) -> "LocalField":
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
            return self._with_unramified(deg, precision)
        if kind == "eisenstein":
            extra = set(spec) - {"kind", "coeffs"}
            if extra:
                raise InputError(f"unknown eisenstein-step keys: {sorted(extra)}")
            coeffs = spec.get("coeffs")
            if not isinstance(coeffs, list) or len(coeffs) < 2:
                raise InputError("eisenstein step needs a 'coeffs' list of length >= 2")
            return self._with_eisenstein([self.element(c).data for c in coeffs], precision)
        raise InputError(f"unknown step kind {kind!r}")

    def _with_unramified(self, deg: int, precision: int | None = None) -> "LocalField":
        poly = self._unramified_poly(deg)
        step = _Step("unramified", deg, poly)
        child = self._extended(step, self.e, self.f * deg, precision)
        gen = child._gen_raw()
        basis = []
        for j in range(deg):
            gj = child._pow_raw(gen, j)
            for b in self._residue_basis:
                basis.append(child._mul(child.level, child._lift_raw(b), gj))
        child._residue_basis = basis
        child._pi = child._lift_raw(self._pi)
        return child

    def _with_eisenstein(self, coeffs: list, precision: int | None = None) -> "LocalField":
        deg = len(coeffs)
        v0 = self._val_or_bound(coeffs[0])
        if v0 != 1:
            raise InputError("constant term of an Eisenstein polynomial must have valuation 1")
        for c in coeffs[1:]:
            v = self._val_or_bound(c)
            if isinstance(v, int) and v < 1:
                raise InputError("middle Eisenstein coefficients must have positive valuation")
        step = _Step("eisenstein", deg, coeffs)
        child = self._extended(step, self.e * deg, self.f, precision)
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
        if _gcd(deg, self.f) == 1:
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
                acc = self._add(acc, self._mul(self.level, c, power))
                power = self._mul(self.level, power, rep)
            acc = self._add(acc, power)  # monic leading term
            v = self._val_or_bound(acc)
            if v == _INF or v >= 1:
                return True
        return False

    # -- raw data helpers ----------------------------------------------------

    def _zero_raw(self):
        return [CZERO] * self.degree

    def _int_raw(self, n: int):
        return [self.ctx.c_int(n)] + [CZERO] * (self.degree - 1)

    def _one_raw(self):
        return self._int_raw(1)

    def _lift_raw(self, parent_data):
        """View a parent-field element in this field (one level up)."""
        return parent_data + [CZERO] * (self.degree - len(parent_data))

    def _gen_raw(self):
        """The generator adjoined by the top step."""
        out = self._zero_raw()
        out[self.degree // self.steps[-1].degree] = self.ctx.c_int(1)
        return out

    # -- tower arithmetic ------------------------------------------------------

    def _add(self, x, y):
        return list(map(self.ctx.c_add, x, y))

    def _neg(self, x):
        return list(map(self.ctx.c_neg, x))

    @staticmethod
    def _all_mant_zero(x) -> bool:
        return all(c[1] == 0 for c in x)

    def _ring(self, level: int):
        """(degree d, block size s, zero block, live negated step coefficients)
        of a level; at level 1 (s = 1) the blocks are single coefficients."""
        ring = self._caches.get(("ring", level))
        if ring is None:
            step = self.steps[level - 1]
            d, poly = step.degree, step.poly
            s = len(poly) // d
            if s == 1:
                blocks, zero, neg = poly, CZERO, self.ctx.c_neg
            else:
                blocks = [poly[j * s : (j + 1) * s] for j in range(d)]
                zero, neg = [CZERO] * s, self._neg
            live = [(j, neg(c)) for j, c in enumerate(blocks) if c != zero]
            ring = self._caches[("ring", level)] = (d, s, zero, live)
        return ring

    def _mul(self, level: int, x, y):
        """Product at a level: convolution of the top-step blocks, then
        reduction by the step polynomial from the top slot down; exact zeros
        are never touched."""
        if level == 0:
            return [self.ctx.c_mul(x[0], y[0])]
        d, s, zero, neg_poly = self._ring(level)
        if s == 1:
            mul, add = self.ctx.c_mul, self.ctx.c_add
        else:  # bound per call: a cached partial would tie the field into a cycle
            mul, add = functools.partial(self._mul, level - 1), self._add
            x = [x[i : i + s] for i in range(0, d * s, s)]
            y = [y[i : i + s] for i in range(0, d * s, s)]
        live_y = [(j, b) for j, b in enumerate(y) if b != zero]
        conv = [None] * (2 * d - 1)  # None: an exact zero not yet allocated
        for i, a in enumerate(x):
            if a != zero:
                for j, b in live_y:
                    t, u = mul(a, b), conv[i + j]
                    conv[i + j] = t if u is None else add(u, t)
        for i in range(2 * d - 2, d - 1, -1):
            if conv[i] is not None:
                for j, c in neg_poly:
                    t, u = mul(conv[i], c), conv[i - d + j]
                    conv[i - d + j] = t if u is None else add(u, t)
        if s == 1:
            return [zero if u is None else u for u in conv[:d]]
        return [c for u in conv[:d] for c in (zero if u is None else u)]

    def _pow_raw(self, x, k: int):
        if k < 0:
            return self._pow_raw(self._inv(x), -k)
        out = self._one_raw()
        base = x
        while k:
            if k & 1:
                out = self._mul(self.level, out, base)
            base = self._mul(self.level, base, base)
            k >>= 1
        return out

    # -- linear algebra on coefficient vectors ---------------------------------------

    def _mult_matrix(self, x):
        """The matrix of y -> x * y; column j is x times the j-th unit vector."""
        n, cols = self.degree, []
        for j in range(n):
            unit = self._zero_raw()
            unit[j] = self.ctx.c_int(1)
            cols.append(self._mul(self.level, x, unit))
        return [[cols[j][i] for j in range(n)] for i in range(n)]

    def _eliminate(self, mat, rhs):
        """Solve mat * X = rhs by Gauss-Jordan elimination, pivoting on the
        entry of least exponent; mat is n x n and rhs n x k, both consumed.
        Returns the n rows of X."""
        c_add, c_mul, c_neg = self.ctx.c_add, self.ctx.c_mul, self.ctx.c_neg
        n = len(mat)
        rows_left = list(range(n))
        cols_left = list(range(n))
        sol = [None] * n
        for _ in range(n):
            best = None
            for i in rows_left:
                for j in cols_left:
                    c = mat[i][j]
                    if c[1] != 0 and (best is None or c[0] < best[2]):
                        best = (i, j, c[0])
            if best is None:
                raise PrecisionError("elimination failed: matrix lost precision")
            bi, bj, _ = best
            inv = self.ctx.c_inv(mat[bi][bj])
            prow = mat[bi] = [c_mul(c, inv) for c in mat[bi]]
            prhs = rhs[bi] = [c_mul(c, inv) for c in rhs[bi]]
            for i in range(n):
                if i == bi:
                    continue
                factor = mat[i][bj]
                if factor[1] == 0 and factor[0] >= ZERO_EXP:
                    continue
                nf = c_neg(factor)
                mat[i] = [c_add(a, c_mul(nf, b)) for a, b in zip(mat[i], prow)]
                rhs[i] = [c_add(a, c_mul(nf, b)) for a, b in zip(rhs[i], prhs)]
                mat[i][bj] = CZERO
            sol[bj] = bi
            rows_left.remove(bi)
            cols_left.remove(bj)
        return [rhs[bi] for bi in sol]

    def _inv(self, x):
        if self._all_mant_zero(x):
            raise PrecisionError("inverting an element indistinguishable from zero")
        if self.degree == 1:
            return [self.ctx.c_inv(x[0])]
        rhs = [[CZERO] for _ in range(self.degree)]
        rhs[0] = [(0, 1, self.ctx.M)]
        sol = self._eliminate(self._mult_matrix(x), rhs)
        return [row[0] for row in sol]

    # -- coordinates over the integral basis {r_j * pi^i} ----------------------------

    def _basis_coords(self, x):
        """T * x: the coordinate of r_j * pi^i sits at i*f + j."""
        T = self._caches.get("basis_inverse")
        if T is None:
            cols = []
            pik = self._one_raw()
            for _ in range(self.e):
                cols += [self._mul(self.level, pik, r) for r in self._residue_basis]
                pik = self._mul(self.level, pik, self._pi)
            n = self.degree
            ident = [[(0, 1, self.ctx.M) if k == l else CZERO for k in range(n)] for l in range(n)]
            T = self._eliminate([[col[l] for col in cols] for l in range(n)], ident)
            self._caches["basis_inverse"] = T
        c_add, c_mul = self.ctx.c_add, self.ctx.c_mul
        live = [(l, c) for l, c in enumerate(x) if c[1] != 0 or c[0] < ZERO_EXP]
        out = []
        for row in T:
            acc = CZERO
            for l, c in live:
                acc = c_add(acc, c_mul(row[l], c))
            out.append(acc)
        return out

    def _val_or_bound(self, x):
        """Exact valuation (int), _INF for an exact zero, or a float lower
        bound for an element whose retained digits all vanish."""
        if self._all_mant_zero(x):
            min_exp = min(c[0] for c in x)
            return _INF if min_exp >= ZERO_EXP else float(self.e * min_exp)
        if self.degree == 1:
            return x[0][0]
        v = lost = _INF
        for k, (exp, mant, _) in enumerate(self._basis_coords(x)):
            if mant:
                v = min(v, self.e * exp + k // self.f)
            elif exp < ZERO_EXP:
                lost = min(lost, self.e * exp + k // self.f)
        if v <= lost and v != _INF:
            return v
        raise PrecisionError("valuation undetermined at working precision")

    # -- public element API -----------------------------------------------------

    def element(self, value) -> PadicElement:
        """Build an element from an int, nested digit lists, or an element."""
        if isinstance(value, PadicElement):
            if value.field is not self:
                raise InputError("element belongs to a different field")
            return value
        return PadicElement(self, self._coerce_raw(value, self.level))

    def _coerce_raw(self, value, level: int):
        """Data of an int or a nested digit list at a level: the one reader
        of nested digit lists."""
        if isinstance(value, int):
            if level == 0:
                return [self.ctx.c_int(value)]
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
        cache = self._caches.setdefault("pi_pows", {})
        if k not in cache:
            cache[k] = self._pow_raw(self._pi, k)
        return PadicElement(self, cache[k])

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
        parts = []
        for c in data:
            if c[1] == 0:
                parts.append("0" if c[0] >= ZERO_EXP else f"O(p^{c[0]})")
            else:
                parts.append(f"{c[1] % self.ctx.ppow(min(4, c[2]))}*p^{c[0]}+..")
        return "[" + ", ".join(parts) + "]"

    # -- residue field machinery --------------------------------------------------

    def residue_reps(self):
        """All p^f lifts of residue-field elements as (coords, raw) pairs."""
        return [
            (combo, self._rep_raw(combo))
            for combo in itertools.product(range(self.p), repeat=self.f)
        ]

    def residue_of(self, x) -> tuple:
        """Coordinates of x mod the maximal ideal over the residue basis."""
        data = x.data if isinstance(x, PadicElement) else x
        coords = self._basis_coords(data)
        for k, (exp, mant, _) in enumerate(coords):
            # integral needs every v_p(c_ij) >= 0; the i = 0 block also needs its digit mod p
            if exp < 0 or (k < self.f and exp == 0 and mant == 0):
                raise PrecisionError("residue undetermined (non-integral input?)")
        return tuple(mant % self.p if exp == 0 else 0 for exp, mant, _ in coords[: self.f])

    def _rep_raw(self, coords):
        """The lift sum c_j * r_j of residue coordinates, cached per tuple."""
        coords = tuple(coords)
        cache = self._caches.setdefault("reps", {})
        rep = cache.get(coords)
        if rep is None:
            rep = self._zero_raw()
            for c, b in zip(coords, self._residue_basis):
                if c:
                    rep = self._add(rep, self._mul(self.level, self._int_raw(c), b))
            cache[coords] = rep
        return rep

    def teichmueller(self, x: PadicElement) -> PadicElement:
        """The (q-1)-th root of unity congruent to the unit x."""
        if x.field is not self:
            raise InputError("element belongs to a different field")
        if x.valuation() != 0:
            raise InputError("Teichmueller lift requires a unit")
        coords = self.residue_of(x)
        cache = self._caches.setdefault("teich", {})
        if coords not in cache:
            y = self._rep_raw(coords)
            for _ in range(2 * self.ctx.M * self.e + 20):
                y_next = self._pow_raw(y, self.q)
                diff = self._add(y_next, self._neg(y))
                y = y_next
                if self._all_mant_zero(diff):
                    break
            else:
                raise PrecisionError("Teichmueller iteration failed to stabilize")
            cache[coords] = y
        return PadicElement(self, cache[coords])

    def _ubar(self) -> tuple:
        """Residue coordinates of p * pi^{-e}, the unit at the wild level."""
        u = self._caches.get("ubar")
        if u is None:
            elt = self._mul(self.level, self._int_raw(self.p), self.pi_pow(-self.e).data)
            u = self.residue_of(elt)
            self._caches["ubar"] = u
        return u

    def _one_plus(self, coords: tuple, k: int):
        """The principal unit 1 + rep(coords) * pi^k."""
        term = self._mul(self.level, self._rep_raw(coords), self.pi_pow(k).data)
        return self._add(self._one_raw(), term)

    def _res_add(self, a: tuple, b: tuple) -> tuple:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def _res_neg(self, a: tuple) -> tuple:
        return tuple((-x) % self.p for x in a)

    def _res_mul(self, a: tuple, b: tuple) -> tuple:
        return self.residue_of(self._mul(self.level, self._rep_raw(a), self._rep_raw(b)))

    def _res_pow(self, a: tuple, k: int) -> tuple:
        return self.residue_of(self._pow_raw(self._rep_raw(a), k))

    def _res_solve_mul(self, a: tuple, b: tuple) -> tuple:
        """Solve a * t = b in the residue field, a a unit."""
        if self.q == 2:
            return b
        inv = self._res_pow(a, self.q - 2)
        return self._res_mul(inv, b)

    def _frobenius_root(self, c: tuple) -> tuple:
        """Residue p-th root c^(q/p)."""
        return self._res_pow(c, self.q // self.p)

    def _as_matrix(self) -> FpMatrix:
        """The F_p-linear map s -> s^p + ubar * s on the residue field."""
        mat = self._caches.get("as_matrix")
        if mat is None:
            ubar = self._ubar()
            cols = []
            for i in range(self.f):
                coords = tuple(1 if j == i else 0 for j in range(self.f))
                img = self._res_add(self._res_pow(coords, self.p), self._res_mul(ubar, coords))
                cols.append(img)
            mat = FpMatrix(self.p, np.array(cols, dtype=np.int64).T)
            self._caches["as_matrix"] = mat
        return mat

    # -- p-th power testing --------------------------------------------------------

    def _require_wild_headroom(self) -> None:
        if self.prec < self.wild + 5:
            raise PrecisionError(
                f"precision {self.prec} is too small for the wild bound {self.wild}"
            )

    def _unit_defect(self, u_data):
        """Hensel-style p-th root approximation of a unit.

        Returns ('power', t) when u is a p-th power, ('ramified', t, mu)
        when the defect stabilizes at a level mu coprime to p below the
        wild bound, and ('unramified', t, m) when the top-level equation
        has no root (m = wild/p).  t approximates the p-th root:
        u = t^p * (1 + O(pi^level)).
        """
        p, w = self.p, self.wild
        self._require_wild_headroom()
        coords = self.residue_of(u_data)
        k_inv = pow(p, -1, self.q - 1) if self.q > 2 else 1
        t = self._pow_raw(self.teichmueller(PadicElement(self, self._rep_raw(coords))).data, k_inv)
        for _ in range(w + 3):
            ratio = self._mul(self.level, u_data, self._inv(self._pow_raw(t, p)))
            d = self._add(ratio, self._neg(self._one_raw()))
            v = self._val_or_bound(d)
            if v == _INF:
                return ("power", t)
            if not isinstance(v, int):
                if v > w:
                    return ("power", t)
                raise PrecisionError("p-th power test undetermined at working precision")
            mu = v
            if mu > w:
                return ("power", t)
            c = self.residue_of(self._mul(self.level, d, self.pi_pow(-mu).data))
            if mu == w:
                sol = fp_solve(self._as_matrix(), np.array(c, dtype=np.int64))
                if sol is None:
                    return ("unramified", t, w // p)
                s = tuple(int(x) for x in sol)
                level = w // p
            elif mu % p == 0:
                s = self._frobenius_root(c)
                level = mu // p
            else:
                return ("ramified", t, mu)
            t = self._mul(self.level, t, self._one_plus(s, level))
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
        u = self._mul(self.level, x.data, self.pi_pow(-v).data)
        return self._unit_defect(u)[0] == "power"

    # -- mu_p detection and the p-th root of unity -----------------------------------

    @property
    def has_mu_p(self) -> bool:
        val = self._caches.get("has_mu_p")
        if val is None:
            val = self._detect_mu_p()
            self._caches["has_mu_p"] = val
        return val

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
        kern, _ = kernel_image(self._as_matrix())
        root = None
        for vec in kern.vectors():
            if vec.any():
                root = tuple(int(c) for c in vec)
                break
        if root is None:
            return False
        x = self._one_plus(root, mu0)
        zeta = self._refine_zeta(x, mu0)
        if zeta is None:
            return False
        self._caches["zeta"] = zeta
        return True

    def _refine_zeta(self, x, mu0: int):
        """Drive x^p - 1 to zero: graded corrections below the Newton basin
        of the cyclotomic factor, Newton steps afterwards."""
        p = self.p
        newton_floor = 2 * self.e * (p - 2) // (p - 1) + mu0
        for _ in range(3 * self.wild + 30):
            d = self._add(self._pow_raw(x, p), self._neg(self._one_raw()))
            dv = self._val_or_bound(d)
            if dv == _INF or not isinstance(dv, int):
                return x
            if dv > newton_floor:
                break
            s = self.residue_of(self._mul(self.level, d, self.pi_pow(-dv).data))
            t = self._res_solve_mul(self._ubar(), self._res_neg(s))
            x = self._mul(self.level, x, self._one_plus(t, dv - self.e))
        for _ in range(60):
            h, hp = self._cyclotomic_and_derivative(x)
            hv = self._val_or_bound(h)
            if hv == _INF or not isinstance(hv, int):
                break
            x = self._add(x, self._neg(self._mul(self.level, h, self._inv(hp))))
        d = self._add(self._pow_raw(x, p), self._neg(self._one_raw()))
        if not self._all_mant_zero(d):
            return None
        one_diff = self._add(x, self._neg(self._one_raw()))
        v = self._val_or_bound(one_diff)
        if v != mu0:
            return None
        return x

    def _cyclotomic_and_derivative(self, x):
        """h(x) = 1 + x + ... + x^{p-1} and its derivative at x."""
        h = self._one_raw()
        hp = self._zero_raw()
        power = self._one_raw()
        for i in range(1, self.p):
            hp = self._add(hp, self._mul(self.level, self._int_raw(i), power))
            power = self._mul(self.level, power, x)
            h = self._add(h, power)
        return h, hp

    # -- the unit-filtration basis of F^x/(F^x)^p and its discrete log ---------------

    def k1_structure(self) -> list[_K1Entry]:
        """Filtration-adapted basis of F^x/(F^x)^p.

        One uniformizer entry, f principal-unit entries per level coprime
        to p below the wild bound, and one top-level entry whose residue
        avoids the image of the level-w power map.  The p-th root of
        unity (or -1 for p = 2) occupies its natural level when that
        level carries basis slots.
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
        zlevel = self._val_or_bound(zd)
        for mu in range(1, w + 1):
            if mu % p == 0 and mu < w:
                continue
            if mu == w:
                tmat = self._as_matrix()
                _, timg = kernel_image(tmat)
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
            # candidate pool for this level: the root of unity first when it
            # lives here, then principal units over the residue basis
            cands: list[tuple] = []
            if zlevel == mu:
                zres = self.residue_of(self._mul(self.level, zd, self.pi_pow(-mu).data))
                zlab = "-1" if p == 2 else "zeta"
                cands.append((zeta, zres, zlab))
            for i in range(f):
                coords = tuple(1 if j == i else 0 for j in range(f))
                data = self._one_plus(coords, mu)
                cands.append((data, coords, self._unit_label(mu, coords, is_qp)))
            taken: list[np.ndarray] = []
            rank = 0
            for data, res, label in cands:
                trial = taken + [np.array(res, dtype=np.int64)]
                if Subspace(p, f, np.array(trial)).dim > rank:
                    entries.append(_K1Entry("unit", mu, data, label, tuple(int(c) for c in res)))
                    taken = trial
                    rank += 1
                if rank == f:
                    break
            if rank != f:  # pragma: no cover
                raise MathCheckError(f"could not fill the level-{mu} unit slots")
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

    def _level_matrix(self, mu: int) -> FpMatrix:
        """Residues of the level-mu basis entries, as columns."""
        cache = self._caches.setdefault("level_matrices", {})
        if mu not in cache:
            cols = [
                e.residue for e in self.k1_structure() if e.kind == "unit" and e.level == mu
            ]
            cache[mu] = FpMatrix(self.p, np.array(cols, dtype=np.int64).T)
        return cache[mu]

    def k1_coords(self, x: PadicElement) -> list[int]:
        """Discrete log in F^x/(F^x)^p over the k1_structure basis, by
        peeling the unit filtration level by level."""
        if x.field is not self:
            raise InputError("element belongs to a different field")
        entries = self.k1_structure()
        p, w = self.p, self.wild
        coords = [0] * len(entries)
        index = {}
        for pos, e in enumerate(entries):
            if e.kind == "pi":
                index["pi"] = pos
            elif e.kind == "top":
                index["top"] = pos
            else:
                index.setdefault(e.level, []).append(pos)
        v = x.valuation()
        coords[index["pi"]] = v % p
        u = self._mul(self.level, x.data, self.pi_pow(-v).data)
        r = self.residue_of(u)
        # inverses of the fixed factors: Teichmueller lifts (keyed by residue) and basis entries
        inverses = self._caches.setdefault("k1_inverses", {})
        if r not in inverses:
            inverses[r] = self._inv(self.teichmueller(PadicElement(self, self._rep_raw(r))).data)
        u = self._mul(self.level, u, inverses[r])
        for mu in range(1, w + 1):
            d = self._add(u, self._neg(self._one_raw()))
            dv = self._val_or_bound(d)
            if dv == _INF or dv > w:
                break
            if not isinstance(dv, int):
                raise PrecisionError("unit filtration peel undetermined")
            if dv > mu:
                continue
            if dv < mu:
                raise MathCheckError("unit filtration peel missed a level")
            c = self.residue_of(self._mul(self.level, d, self.pi_pow(-mu).data))
            if mu == w:
                pos = index["top"]
                top = entries[pos]
                rstar = np.array(top.residue, dtype=np.int64).reshape(-1, 1)
                aug = FpMatrix(p, np.hstack([rstar, self._as_matrix().entries]))
                sol = fp_solve(aug, np.array(c, dtype=np.int64))
                if sol is None:  # pragma: no cover
                    raise MathCheckError("top filtration level is not covered")
                xstar = int(sol[0])
                coords[pos] = xstar
                if pos not in inverses:
                    inverses[pos] = self._inv(top.data)
                u = self._mul(self.level, u, self._pow_raw(inverses[pos], xstar))
                s, level = tuple(int(t) for t in sol[1:]), w // p
            elif mu % p == 0:
                s, level = self._frobenius_root(c), mu // p
            else:
                sol = fp_solve(self._level_matrix(mu), np.array(c, dtype=np.int64))
                if sol is None:  # pragma: no cover
                    raise MathCheckError(f"level-{mu} slots do not cover the graded piece")
                for k, pos in enumerate(index[mu]):
                    ck = int(sol[k])
                    coords[pos] = ck
                    if ck:
                        if pos not in inverses:
                            inverses[pos] = self._inv(entries[pos].data)
                        u = self._mul(self.level, u, self._pow_raw(inverses[pos], ck))
                continue
            u = self._mul(self.level, u, self._inv(self._pow_raw(self._one_plus(s, level), p)))
        d = self._add(u, self._neg(self._one_raw()))
        dv = self._val_or_bound(d)
        if isinstance(dv, int) and dv <= w:
            raise MathCheckError("unit filtration peel left a sub-wild residual")
        return coords

    def k1_element(self, coords) -> PadicElement:
        """Product of basis powers with the given exponents."""
        entries = self.k1_structure()
        if len(coords) != len(entries):
            raise InputError("coordinate length does not match the basis")
        acc = self._one_raw()
        for c, e in zip(coords, entries):
            c = int(c) % self.p
            if c:
                acc = self._mul(self.level, acc, self._pow_raw(e.data, c))
        return PadicElement(self, acc)


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
    compatibly.  sigma sends the root A to zeta_p * A.
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
        self._a_norm = a_norm
        poly = [base._neg(a_norm)] + [base._zero_raw()] * (p - 1)
        if v_norm != 0:
            e, f, kind = base.e * p, base.f, "ramified"
            info = {"mu": v_norm}
        elif kind_data[0] == "ramified":
            e, f, kind = base.e * p, base.f, "ramified"
            info = {"mu": kind_data[2], "t": kind_data[1]}
        else:
            e, f, kind = base.e, base.f * p, "unramified"
            info = {"m": kind_data[2], "t": kind_data[1]}
        step = _Step("kummer", p, poly, {"classification": kind, **info})
        top = base._extended(step, e, f, None)
        self.top = top
        self.ramified = kind == "ramified"
        A = top._gen_raw()
        self._A = A
        if kind == "ramified":
            mu = info["mu"]
            if "t" in info:
                t_lift = top._lift_raw(info["t"])
                elt = top._add(A, top._neg(t_lift))
            else:
                elt = A
            s, tt = _bezout(mu, p)
            pw = top._pow_raw(elt, s)
            top._pi = top._mul(top.level, pw, top._lift_raw(base.pi_pow(tt).data))
            top._residue_basis = [top._lift_raw(b) for b in base._residue_basis]
        else:
            m = info["m"]
            ratio = top._mul(top.level, A, top._inv(top._lift_raw(info["t"])))
            delta = top._mul(
                top.level,
                top._add(ratio, top._neg(top._one_raw())),
                top._lift_raw(base.pi_pow(-m).data),
            )
            top._pi = top._lift_raw(base._pi)
            basis = []
            for j in range(p):
                dj = top._pow_raw(delta, j)
                for b in base._residue_basis:
                    basis.append(top._mul(top.level, top._lift_raw(b), dj))
            top._residue_basis = basis
        vpi = top._val_or_bound(top._pi)
        if vpi != 1:
            raise MathCheckError(f"constructed uniformizer has valuation {vpi}")
        top._caches["zeta"] = top._lift_raw(base.zeta.data)
        top._caches["has_mu_p"] = True
        zb = base.zeta.data
        self._zeta_pows = [base._one_raw()]
        for _ in range(p - 1):
            self._zeta_pows.append(top._mul(top.level - 1, self._zeta_pows[-1], zb))
        self.cache: dict = {}

    @property
    def A(self) -> PadicElement:
        """The adjoined p-th root of the normalized Kummer element."""
        return PadicElement(self.top, self._A)

    def embed(self, x: PadicElement) -> PadicElement:
        if x.field is not self.base:
            raise InputError("embed expects a base-field element")
        return PadicElement(self.top, self.top._lift_raw(x.data))

    def sigma(self, x: PadicElement) -> PadicElement:
        """The Galois generator: the adjoined root is scaled by zeta_p."""
        if x.field is not self.top:
            raise InputError("sigma acts on top-field elements")
        top, s = self.top, self.base.degree
        data = []
        for i, zi in enumerate(self._zeta_pows):
            data += top._mul(top.level - 1, x.data[i * s : (i + 1) * s], zi)
        return PadicElement(top, data)

    def norm_down(self, x: PadicElement) -> PadicElement:
        """Product of the p Galois conjugates, landing in the base field."""
        if x.field is not self.top:
            raise InputError("norm_down expects a top-field element")
        base, s = self.base, self.base.degree
        prod = x
        conj = x
        for _ in range(self.p - 1):
            conj = self.sigma(conj)
            prod = prod * conj
        for i in range(s, len(prod.data), s):
            c = prod.data[i : i + s]
            if not base._all_mant_zero(c):
                v = base._val_or_bound(c)
                if isinstance(v, int) and v < base.prec // 2:
                    raise PrecisionError(
                        "conjugate product failed the base-field membership check"
                    )
        return PadicElement(base, prod.data[:s])
