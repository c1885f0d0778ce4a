"""The earlier per-coefficient p-adic layer, kept as a test oracle.

Every coefficient is an interval-style p-adic float ``(exp, mant, rel)``:

* ``mant != 0``: the value is mant * p^exp, trusted modulo p^(exp+rel),
  with mant a unit in [1, p^rel);
* ``mant == 0``: the value is congruent to 0 modulo p^exp, and
  ``exp == ZERO_EXP`` marks an exact zero.

Relative precision survives multiplication unchanged; additive
cancellation shrinks it honestly.  It is independent of the
integer kernel in ``knorm.padic``: it tracks precision per coefficient
rather than once per element, and it never reduces integers modulo a
common power of p.
"""

ZERO_EXP = 10**9

CZERO = (ZERO_EXP, 0, 0)


class Ctx:
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
