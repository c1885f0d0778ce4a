"""Exact linear algebra over the prime field F_p.

F_p vectors and matrices are plain int64 arrays reduced mod p; each
function takes the array and p, which the array's owner carries (its
group, module or field).  Subspaces are stored in reduced row-echelon
form, which is unique, so two subspaces are equal iff their stored bases
are identical arrays.  That canonicality is what makes every "choose a
complement" step elsewhere in the package reproducible.  Each subspace
also keeps its pivot columns, so membership needs no elimination, and
kernel and intersect_and_sum (Zassenhaus) are one echelon split each.
Every elimination is one call of ``rref``, a Gauss-Jordan kernel that
leaves its working matrix unreduced between pivots and touches only the
rows and columns a pivot can change.
"""

from __future__ import annotations

import bisect
import itertools
import math

import numpy as np

from .errors import InputError

__all__ = [
    "Subspace",
    "rref",
    "kernel",
    "image",
    "kernel_image",
    "intersect_and_sum",
    "complement",
    "solve",
    "solve_many",
    "power",
]


class MathInternal(AssertionError):
    """Impossible-by-mathematics branch; reaching it means a bug."""


def is_prime(n: int) -> bool:
    """Trial-division primality test; moduli here are always small."""
    if n <= 1:
        return False
    for i in range(2, int(math.isqrt(n)) + 1):
        if n % i == 0:
            return False
    return True


def _check_prime(p: int) -> int:
    p = int(p)
    if p >= 1 << 16:  # first, as trial division above it is unbounded work
        raise InputError(f"modulus {p} exceeds the supported bound 2^16")
    if not is_prime(p):
        raise InputError(f"modulus {p} is not prime")
    return p


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over F_p.

    Returns (R, pivot_cols).  R contains only the nonzero rows; pivots are
    normalized to 1 and their columns cleared above and below.  The input
    may hold any int64 entries and is left unchanged.

    Gauss-Jordan on a working copy that stays unreduced between pivots:
    each step reduces only the pivot column, which finds the pivot and the
    rows to clear, and the pivot row before it is scaled, and the rank-1
    update touches only those rows, from the pivot column on (the pivot
    row and every row below it are zero mod p to its left).  The kept rows
    are reduced once, at the end.  A working entry starts in [0, p) and
    each update moves it by at most (p-1)^2, while a pivot row is reset to
    [0, p); so every entry stays below p + rank*(p-1)^2 in absolute value,
    which int64 holds for every p < 2^16 up to rank 2^31.
    """
    a = np.array(mat, dtype=np.int64) % p
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        col = a[:, c] % p
        nz = col[r:].nonzero()[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        row = a[pr, c:] % p
        row *= pow(int(col[pr]), -1, p)
        row %= p
        if pr != r:  # rows r and pr swap; left of c both are zero mod p
            a[pr, c:] = a[r, c:]
            col[pr] = col[r]
        a[r, c:] = row
        col[r] = 0
        # One rank-1 update clears the pivot column in the other live rows.
        live = col.nonzero()[0]
        if live.size:
            a[live, c:] -= np.multiply.outer(col[live], row)
        pivots.append(c)
        r += 1
    return a[:r] % p, pivots


class Subspace:
    """A subspace of F_p^n, stored by its reduced row-echelon basis and the
    pivot columns: x lies in the span iff x = x[pivots] @ basis."""

    __slots__ = ("p", "ambient_dim", "basis", "pivots")

    def __init__(self, p: int, ambient_dim: int, vectors=None) -> None:
        self.p = _check_prime(p)
        self.ambient_dim = int(ambient_dim)
        if vectors is None or self.ambient_dim == 0:
            vecs = np.zeros((0, self.ambient_dim), dtype=np.int64)
        else:
            vecs = np.asarray(vectors, dtype=np.int64).reshape(-1, self.ambient_dim)
        self.basis, self.pivots = rref(vecs, self.p)

    @classmethod
    def _echelon(cls, p: int, basis: np.ndarray, pivots: list[int]) -> "Subspace":
        """The span of rows already in reduced row-echelon form, unchecked."""
        sub = cls.__new__(cls)
        sub.p, sub.ambient_dim, sub.basis, sub.pivots = p, basis.shape[1], basis, pivots
        return sub

    @classmethod
    def zero(cls, p: int, n: int) -> "Subspace":
        return cls._echelon(_check_prime(p), np.zeros((0, n), dtype=np.int64), [])

    @classmethod
    def full(cls, p: int, n: int) -> "Subspace":
        return cls._echelon(_check_prime(p), np.eye(n, dtype=np.int64), list(range(n)))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subspace)
            and self.p == other.p
            and self.ambient_dim == other.ambient_dim
            and self.basis.shape == other.basis.shape
            and bool(np.array_equal(self.basis, other.basis))
        )

    def contains(self, vec) -> bool:
        v = np.asarray(vec, dtype=np.int64) % self.p
        if v.shape != (self.ambient_dim,):
            raise InputError("vector has wrong length")
        return not ((v - v[self.pivots] @ self.basis) % self.p).any()

    def is_subspace_of(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        rows = self.basis
        return not ((rows - rows[:, other.pivots] @ other.basis) % self.p).any()

    def vectors(self):
        """Iterate over all p^dim vectors of the subspace (small spaces
        only), the first coefficient running fastest."""
        for coeffs in itertools.product(range(self.p), repeat=self.dim):
            yield (np.array(coeffs[::-1], dtype=np.int64) @ self.basis) % self.p

    def _check_compatible(self, other: "Subspace") -> None:
        if self.p != other.p or self.ambient_dim != other.ambient_dim:
            raise InputError("subspaces live in different ambient spaces")

    def __repr__(self) -> str:
        return f"Subspace(p={self.p}, dim={self.dim}, ambient={self.ambient_dim})"


def _split(wide: np.ndarray, p: int, cut: int) -> tuple[Subspace, Subspace]:
    """One elimination of [L | R], R from column ``cut``: the echelon rows
    with a pivot in L span the rows of L, and those with a pivot in R,
    zero on L, span the rest on R.  Both halves are in echelon form, and
    copied so that a kept subspace does not hold the wide matrix."""
    red, pivots = rref(wide, p)
    r = bisect.bisect_left(pivots, cut)
    return (Subspace._echelon(p, red[:r, :cut].copy(), pivots[:r]),
            Subspace._echelon(p, red[r:, cut:].copy(), [c - cut for c in pivots[r:]]))


def kernel(mat: np.ndarray, p: int) -> Subspace:
    """Null space of a matrix."""
    return kernel_image(mat, p)[0]


def image(mat: np.ndarray, p: int) -> Subspace:
    """Column space of a matrix."""
    return Subspace(p, mat.shape[0], mat.T)


def kernel_image(mat: np.ndarray, p: int) -> tuple[Subspace, Subspace]:
    """(kernel(mat), image(mat)) from one split of [mat^T | I], whose rows
    combine to (mat x, x): the kernel on the right, the image on the left."""
    rows, cols = mat.shape
    img, kern = _split(np.hstack([mat.T, np.eye(cols, dtype=np.int64)]), p, rows)
    return kern, img


def intersect_and_sum(a: Subspace, b: Subspace) -> tuple[Subspace, Subspace]:
    """(a ∩ b, a + b) by Zassenhaus: one split of [[A, A], [B, 0]], whose
    rows combine to (x + y, x) for x in a and y in b, with the dimension
    formula enforced."""
    a._check_compatible(b)
    wide = np.block([[a.basis, a.basis], [b.basis, np.zeros_like(b.basis)]])
    total, inter = _split(wide, a.p, a.ambient_dim)
    if inter.dim + total.dim != a.dim + b.dim:
        raise MathInternal("dimension formula for sum/intersection violated")
    return inter, total


def complement(inner: Subspace, outer: Subspace) -> Subspace:
    """Deterministic complement of ``inner`` inside ``outer``.

    The echelon basis of ``inner`` is extended by the rows of ``outer``'s
    echelon basis that raise the rank of the rows before them: the pivot
    columns of the transposed stack.  The selection is canonical for given
    inputs.
    """
    if not inner.is_subspace_of(outer):
        raise InputError("complement requires inner to be contained in outer")
    stacked = np.vstack([inner.basis, outer.basis])
    # rows picked from outer's echelon basis are in echelon form themselves
    picked = [i - inner.dim for i in rref(stacked.T, inner.p)[1] if i >= inner.dim]
    comp = Subspace._echelon(inner.p, outer.basis[picked], [outer.pivots[i] for i in picked])
    inter, total = intersect_and_sum(comp, inner)
    if inter.dim != 0 or total != outer:
        raise MathInternal("complement construction failed")  # pragma: no cover
    return comp


def solve(mat: np.ndarray, b, p: int) -> np.ndarray | None:
    """A particular solution of mat x = b over F_p, or None when the system
    is inconsistent."""
    sols = solve_many(mat, np.asarray(b, dtype=np.int64).reshape(-1, 1), p)
    return None if sols is None else sols[:, 0]


def solve_many(mat: np.ndarray, rhs, p: int) -> np.ndarray | None:
    """Particular solutions of mat x = b for every column b of rhs, as the
    columns of the returned matrix; None when any system is inconsistent."""
    rows, cols = mat.shape
    b = np.asarray(rhs, dtype=np.int64).reshape(rows, -1)
    red, pivots = rref(np.hstack([mat, b]), p)
    if any(pc >= cols for pc in pivots):
        return None
    xs = np.zeros((cols, b.shape[1]), dtype=np.int64)
    for row_idx, pc in enumerate(pivots):
        xs[pc] = red[row_idx, cols:]
    return xs


def power(mat: np.ndarray, k: int, p: int) -> np.ndarray:
    """mat^k over F_p for a square mat, by binary powering: k may be as
    large as the order of a residue field's unit group."""
    out = np.eye(mat.shape[0], dtype=np.int64)
    base = mat % p
    while k:
        if k & 1:
            out = out @ base % p
        base = base @ base % p
        k >>= 1
    return out
