"""The level-by-level reduction of ``knorm.padic``, kept as a test oracle.

Before the reduction table, a product's unreduced slots were reduced by
the step polynomials one level at a time: each top-step block through
the levels below, then the top step from the highest block down, with
a recursive lower-level product for every leading block and step
coefficient.  The methods below are that route as it was, reading only
the field's steps, so ``LevelReduction(field).reduce(wide, mod)`` is
the earlier reduction of the unreduced product ``wide``.
"""


class LevelReduction:
    """A field's earlier product: recursive reduction, level by level."""

    def __init__(self, field):
        self.field = field
        self.rings = {}

    def _ring(self, level: int):
        """(d, s, live, slots, size) of a level: its step degree d and block
        size s, the live negated step coefficients (ints at level 1, int
        lists above), and the slot of each monomial in the unreduced
        product of the level, where every step's degree may reach 2d - 2,
        with the number of slots."""
        ring = self.rings.get(("ring", level))
        if ring is None:
            step = self.field.steps[level - 1]
            d = step.degree
            s = len(step.poly) // d
            blocks = [[-c for c in step.poly[j * s : (j + 1) * s]] for j in range(d)]
            live = [(j, b[0] if s == 1 else b) for j, b in enumerate(blocks) if any(b)]
            slots, size = ([0], 1) if level == 1 else self._ring(level - 1)[3:]
            slots = [i * size + j for i in range(d) for j in slots]
            ring = self.rings[("ring", level)] = (d, s, live, slots, size * (2 * d - 1))
        return ring

    def size(self) -> int:
        """The number of slots of the top level's unreduced product."""
        return self._ring(self.field.level)[4] if self.field.level else 1

    def reduce(self, wide: list[int], mod: int) -> list[int]:
        """The unreduced top-level product wide, reduced modulo mod."""
        if self.field.level == 0:
            return [wide[0] % mod]
        return self._reduce(self.field.level, list(wide), mod)

    def _ints_mul(self, level: int, X, Y, mod: int) -> list[int]:
        """Monomial ints of X * Y at a level, modulo mod: every product of
        two nonzero ints lands in its slot of the unreduced product, which
        is then reduced once."""
        if level == 0:
            return [X[0] * Y[0] % mod]
        slots, size = self._ring(level)[3:]
        wide = [0] * size
        ys = [(t, b) for t, b in zip(slots, Y) if b]
        for t, a in zip(slots, X):
            if a:
                for u, b in ys:
                    wide[t + u] += a * b
        return self._reduce(level, wide, mod)

    def _reduce(self, level: int, wide: list[int], mod: int) -> list[int]:
        """Reduce the slots of an unreduced level product: each top-step
        block at the levels below, then the top step."""
        if level == 1:
            return self._reduce_top(1, wide, mod)
        d, sub = self._ring(level)[0], self._ring(level - 1)[4]
        blocks = [wide[i * sub : (i + 1) * sub] for i in range(2 * d - 1)]
        blocks = [self._reduce(level - 1, b, mod) if any(b) else None for b in blocks]
        return self._reduce_top(level, blocks, mod)

    def _reduce_top(self, level: int, conv: list, mod: int) -> list[int]:
        """Reduce the 2d - 1 top-step blocks of a product (ints at level 1,
        int lists above, None for zero) by the step polynomial, from the
        highest block down, skipping zeros; the result modulo mod."""
        d, s, live = self._ring(level)[:3]
        if level == 1:
            for i in range(2 * d - 2, d - 1, -1):
                h = conv[i]
                if h:
                    for j, c in live:
                        conv[i - d + j] += h * c
            return [c % mod for c in conv[:d]]
        live = self.rings.get(("ring", level, mod))
        if live is None:
            live = [(j, [a % mod for a in c]) for j, c in self._ring(level)[2]]
            self.rings[("ring", level, mod)] = live
        for i in range(2 * d - 2, d - 1, -1):
            h = conv[i]
            if h is not None and any(h):
                h = [c % mod for c in h]
                for j, c in live:
                    t, u = self._ints_mul(level - 1, h, c, mod), conv[i - d + j]
                    conv[i - d + j] = t if u is None else [a + b for a, b in zip(u, t)]
        return [c % mod for u in conv[:d] for c in ([0] * s if u is None else u)]
