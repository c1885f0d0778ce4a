"""The elimination inverse of ``knorm.padic``, kept as a test oracle.

Before Newton's iteration, 1/x solved x * y = 1 on the ints: the n x n
matrix of y -> x * y over the monomials, eliminated with full pivoting
on the least valuation at enough digits for the stated precision.  The
methods below are that route as it was; every other attribute is read
from the field, so ``EliminationInverse(field)._inv(x)`` is the earlier
``field._inv(x)``.
"""

from knorm.errors import PrecisionError
from knorm.padic import _vp


class EliminationInverse:
    """A field's arithmetic with the earlier inverse and its matrices."""

    def __init__(self, field):
        self.field = field

    def __getattr__(self, name):
        return getattr(self.field, name)

    def _mult_matrix(self, x, prec: int):
        """Integer rows of y -> x * y over the monomials, scaled by
        p^(k - v_x) for the index k, modulo p^prec."""
        n, mod = self.degree, self.p**prec
        X = [a % mod for a in x[2]]
        units = [[int(i == j) for i in range(n)] for j in range(n)]
        cols = [self._ints_mul(X, unit, mod) for unit in units]
        return [list(row) for row in zip(*cols)]

    def _solve(self, mat, rhs, prec: int):
        """Solve mat * X = rhs over Z_p, for n x n integer rows known modulo
        p^prec and n x k rhs rows, by elimination with full pivoting on the
        least valuation.  Returns (D, P, X): the solution is p^-D * X with
        the ints of X known modulo p^P.  Each pivot of valuation k costs k
        digits, and the back substitution D more, D the sum of them."""
        p, n = self.p, len(mat)
        rows = [m + r for m, r in zip(mat, rhs)]
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

    def _inv(self, x):
        """1/x: the inverse of x's stored ints, solved as exact at enough
        digits.  With w = -ceil(v(x) / e), 1/x lies in p^w O, and for
        x' = x + O(p^N_x), 1/x' - 1/x = -(x' - x) / (x x') lies in
        p^(N_x + 2w) O once N_x + w >= 1."""
        v, N, _ = x
        val = self._val_or_bound(x)
        if not isinstance(val, int):
            raise PrecisionError("inverting an element indistinguishable from zero")
        p, n, k, w = self.p, self.degree, self.index, -val // self.e
        if N + w < 1:
            raise PrecisionError("inverse undetermined at working precision")
        # the matrix of the ints has determinant valuation D, so solving it
        # at `work` digits gives the monomial ints of 1/x as p^(k - v - D)
        # * sol, sol known modulo p^(work - 2D)
        D = self.f * val - n * (v - k)
        work = max(N + 2 * w + v - k + 3 * D, 2 * D + 1)
        rhs = [[int(i == 0)] for i in range(n)]
        D, _, sol = self._solve(self._mult_matrix(x, work), rhs, work)
        e = 2 * k - v - D - w  # from sol to the ints of 1/x at shift w
        ints = [row[0] * p ** max(e, 0) // p ** max(-e, 0) for row in sol]
        return self._data(w, N + 2 * w, ints)
