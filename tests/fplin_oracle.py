"""The earlier routes of ``knorm.fplin``, kept as a test oracle.

Each one eliminates afresh where the current code reads the stored pivots
or cuts one echelon split: membership by stacking the vector (or the
other basis) under the basis and comparing ranks, the intersection from
the kernel of [A; -B]^T after eliminating the stack for the sum, and the
kernel from the free columns of the echelon form.  Every result is
returned as a ``Subspace``, so it is compared in the canonical echelon
form.  ``rref`` is the earlier Gauss-Jordan loop, which reduces the whole
matrix mod p after every pivot, kept here as the reference for the lazily
reduced kernel.
"""

import numpy as np

from knorm.fplin import MathInternal, Subspace


def rref(mat, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over F_p: (nonzero rows, pivot columns)."""
    a = np.array(mat, dtype=np.int64) % p
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r] = (a[r] * pow(int(a[r, c]), -1, p)) % p
        col = a[:, c].copy()
        col[r] = 0
        # One rank-1 update clears the pivot column in all other rows.
        a -= np.outer(col, a[r])
        a %= p
        pivots.append(c)
        r += 1
    return a[: len(pivots)], pivots


def contains(sub: Subspace, vec) -> bool:
    v = np.asarray(vec, dtype=np.int64) % sub.p
    stacked, _ = rref(np.vstack([sub.basis, v.reshape(1, -1)]), sub.p)
    return stacked.shape[0] == sub.dim


def is_subspace_of(sub: Subspace, other: Subspace) -> bool:
    stacked, _ = rref(np.vstack([other.basis, sub.basis]), other.p)
    return stacked.shape[0] == other.dim


def kernel(m: np.ndarray, p: int) -> Subspace:
    """Null space of a matrix."""
    cols = m.shape[1]
    red, pivots = rref(m, p)
    free = sorted(set(range(cols)) - set(pivots))
    kvecs = np.zeros((len(free), cols), dtype=np.int64)
    for k, f in enumerate(free):
        kvecs[k, f] = 1
        kvecs[k, pivots] = (-red[:, f]) % p
    return Subspace(p, cols, kvecs)


def intersect_and_sum(a: Subspace, b: Subspace) -> tuple[Subspace, Subspace]:
    """(a ∩ b, a + b), with the dimension formula enforced."""
    p, n = a.p, a.ambient_dim
    total = Subspace(p, n, np.vstack([a.basis, b.basis]))
    if a.dim == 0 or b.dim == 0:
        inter = Subspace.zero(p, n)
    else:
        # Solutions (u, v) of u*A = v*B give intersection vectors u*A.
        stacked = np.vstack([a.basis, (-b.basis) % p]).T  # n x (da+db)
        kern = kernel(stacked, p)
        inter_vecs = (kern.basis[:, : a.dim] @ a.basis) % p
        inter = Subspace(p, n, inter_vecs)
    if inter.dim + total.dim != a.dim + b.dim:
        raise MathInternal("dimension formula for sum/intersection violated")
    return inter, total
