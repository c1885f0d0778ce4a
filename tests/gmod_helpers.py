"""Jordan-block modules and their base changes, used only to build test inputs."""

import numpy as np

from knorm.errors import InputError
from knorm.fplin import rref
from knorm.gmod import GModule


def invert(m: np.ndarray, p: int) -> np.ndarray:
    n = m.shape[0]
    red, pivots = rref(np.hstack([m, np.eye(n, dtype=np.int64)]), p)
    if pivots != list(range(n)):
        raise InputError("matrix is singular")
    return red[:, n:]


def conjugate(module: GModule, g) -> GModule:
    """Base change: the module with action g sigma g^{-1}."""
    p, g = module.p, np.asarray(g, dtype=np.int64) % module.p
    return GModule(p, g @ module.sigma % p @ invert(g, p) % p)


def jordan_blocks(p: int, sizes: list[int]) -> GModule:
    """Block-diagonal module with one unipotent Jordan block per size."""
    if any(s < 1 or s > p for s in sizes):
        raise InputError(f"block sizes must lie in 1..{p}")
    n = sum(sizes)
    mat = np.zeros((n, n), dtype=np.int64)
    off = 0
    for s in sizes:
        mat[off : off + s, off : off + s] = np.eye(s, dtype=np.int64)
        for i in range(s - 1):
            mat[off + i, off + i + 1] = 1
        off += s
    return GModule(p, mat)
