"""Base change of F_p[G]-modules, used only to build test inputs."""

import numpy as np

from knorm.errors import InputError
from knorm.fplin import FpMatrix, rref
from knorm.gmod import GModule


def invert(m: FpMatrix) -> FpMatrix:
    n = m.rows
    red, pivots = rref(np.hstack([m.entries, np.eye(n, dtype=np.int64)]), m.p)
    if pivots != list(range(n)):
        raise InputError("matrix is singular")
    return FpMatrix(m.p, red[:, n:])


def conjugate(module: GModule, g) -> GModule:
    """Base change: the module with action g sigma g^{-1}."""
    g = g if isinstance(g, FpMatrix) else FpMatrix(module.p, g)
    return GModule(module.p, (g @ module.sigma @ invert(g)).entries)
