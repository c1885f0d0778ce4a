"""Seeded F_p[C_p]-modules with known Jordan type.

Each module is a random Jordan type (block sizes in 1..p) conjugated by
a random invertible matrix over F_p.  The known answer is the block
multiplicities; the program under test receives only the matrix.

A batch holds one module for every (p, dimension) pair in the grid
below, so every batch carries the same shapes and batch times can be
compared.  Generation uses only NumPy and Python's ``random``, never the
package under test.
"""

from __future__ import annotations

import random

import numpy as np

PRIMES = (2, 3, 5)
DIMS = (20, 30, 40, 50, 60)


def inverse_mod(g: np.ndarray, p: int) -> np.ndarray | None:
    """Gauss-Jordan inverse over F_p, or None when g is singular."""
    n = g.shape[0]
    a = np.hstack([g % p, np.eye(n, dtype=np.int64)])
    for c in range(n):
        nz = np.nonzero(a[c:, c])[0]
        if nz.size == 0:
            return None
        r = c + int(nz[0])
        a[[c, r]] = a[[r, c]]
        a[c] = a[c] * pow(int(a[c, c]), -1, p) % p
        col = a[:, c].copy()
        col[c] = 0
        a = (a - np.outer(col, a[c])) % p
    return a[:, n:]


def _jordan(p: int, sizes: list[int]) -> np.ndarray:
    n = sum(sizes)
    mat = np.eye(n, dtype=np.int64)
    off = 0
    for s in sizes:
        for i in range(s - 1):
            mat[off + i, off + i + 1] = 1
        off += s
    return mat


def make_module(rng: random.Random, p: int, dim: int) -> tuple[np.ndarray, list[int]]:
    """(sigma, multiplicities): sigma is g J g^-1 with J of the returned type."""
    sizes: list[int] = []
    while sum(sizes) < dim:
        sizes.append(rng.randint(1, min(p, dim - sum(sizes))))
    while True:
        g = np.array([[rng.randrange(p) for _ in range(dim)] for _ in range(dim)], dtype=np.int64)
        g_inv = inverse_mod(g, p)
        if g_inv is not None:
            break
    sigma = g @ _jordan(p, sizes) % p @ g_inv % p
    return sigma, [sizes.count(i) for i in range(1, p + 1)]


def make_batch(seed: int, index: int) -> list[tuple[int, np.ndarray, list[int]]]:
    """Batch ``index`` of ``seed``: (p, sigma, multiplicities) per grid point."""
    rng = random.Random(f"modules/{seed}/{index}")
    return [(p, *make_module(rng, p, dim)) for p in PRIMES for dim in DIMS]
