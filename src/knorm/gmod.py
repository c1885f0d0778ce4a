"""Modules over F_p[G] for G cyclic of prime order p.

A module is a finite-dimensional F_p vector space with the action of a
fixed generator sigma satisfying sigma^p = 1.  The central operation
splits such a module into cyclic summands of lengths 1..p by reverse
induction on the filtration (sigma-1)^i M ∩ M^G, optionally seeded with
externally chosen complements so callers can pin particular summands.
A GModule holds sigma and the powers of sigma - 1 as int64 arrays reduced
mod p, and keeps in ``subspaces`` its fixed part, the images of the
powers of sigma - 1 and that filtration, each computed once, on first use.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, MathCheckError
from .fplin import (
    Subspace,
    _check_prime,
    complement,
    image,
    intersect_and_sum,
    kernel,
    rref,
    solve_many,
)

__all__ = [
    "GModule",
    "SummandProfile",
    "Decomposition",
    "fixed_points",
    "omega_image",
    "fixed_filtration",
    "length_of",
    "norm_operator",
    "decompose",
    "multiplicity_oracle",
    "verify_exclusion",
]


class GModule:
    """F_p vector space of dimension ``dim`` with a sigma of order dividing p.

    p must be prime and sigma square with (sigma-1)^p = 0, which over F_p
    is sigma^p = 1; construction rejects input failing any of these.
    """

    __slots__ = ("p", "dim", "sigma", "_shift_powers", "subspaces")

    def __init__(self, p: int, sigma) -> None:
        p = self.p = _check_prime(p)
        mat = np.asarray(sigma, dtype=np.int64) % p
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InputError(f"sigma must be a square matrix, got shape {mat.shape}")
        self.dim = mat.shape[0]
        self.sigma = mat
        powers = [np.eye(self.dim, dtype=np.int64)]
        shift = (mat - powers[0]) % p
        for _ in range(p):
            powers.append(powers[-1] @ shift % p)
        if powers[p].any():
            raise InputError("(sigma - 1)^p is not zero")
        self._shift_powers = powers
        self.subspaces: dict = {}

    @classmethod
    def trivial(cls, p: int, dim: int) -> "GModule":
        return cls(p, np.eye(dim, dtype=np.int64))

    def shift_power(self, i: int) -> np.ndarray:
        """(sigma - 1)^i as a matrix, 0 <= i <= p."""
        if not 0 <= i <= self.p:
            raise InputError(f"power {i} out of range 0..{self.p}")
        return self._shift_powers[i]

    def __repr__(self) -> str:
        return f"GModule(p={self.p}, dim={self.dim})"


class SummandProfile:
    """Multiplicities m_i of cyclic summands of dimension i, i = 1..p."""

    __slots__ = ("p", "multiplicities")

    def __init__(self, p: int, multiplicities) -> None:
        mult = tuple(int(m) for m in multiplicities)
        if len(mult) != p:
            raise InputError(f"expected {p} multiplicities, got {len(mult)}")
        if any(m < 0 for m in mult):
            raise InputError("multiplicities must be nonnegative")
        self.p = p
        self.multiplicities = mult

    def m(self, i: int) -> int:
        """Multiplicity of the length-i summand, 1 <= i <= p."""
        return self.multiplicities[i - 1]

    @property
    def total_dim(self) -> int:
        return sum(i * m for i, m in enumerate(self.multiplicities, start=1))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SummandProfile)
            and self.p == other.p
            and self.multiplicities == other.multiplicities
        )

    def __repr__(self) -> str:
        return f"SummandProfile(p={self.p}, m={self.multiplicities})"


class Decomposition:
    """Result of splitting a module into cyclic summands.

    ``generators[i]`` lists, for length i, one generating vector per
    summand; ``summand_bases[i]`` is the subspace those summands span.
    """

    __slots__ = ("module", "profile", "generators", "summand_bases")

    def __init__(self, module, profile, generators, summand_bases) -> None:
        self.module = module
        self.profile = profile
        self.generators = generators
        self.summand_bases = summand_bases


def fixed_points(m: GModule) -> Subspace:
    """M^G, the kernel of sigma - 1."""
    if "fixed" not in m.subspaces:
        m.subspaces["fixed"] = kernel(m.shift_power(1), m.p)
    return m.subspaces["fixed"]


def omega_image(m: GModule, i: int) -> Subspace:
    """Image of (sigma - 1)^i; the whole space for i = 0, zero for i = p."""
    key = ("image", i)
    if key not in m.subspaces:
        m.subspaces[key] = image(m.shift_power(i), m.p)
    return m.subspaces[key]


def fixed_filtration(m: GModule) -> list[Subspace]:
    """K_i = image((sigma-1)^i) ∩ M^G for i = 0..p (K_0 = M^G, K_p = 0).

    Each K_i is taken as image((sigma-1)^i) ∩ K_{i-1}, the same subspace
    since the images decrease, from a smaller Zassenhaus matrix, unless
    K_{i-1} = 0; K_p = 0 since GModule checked (sigma-1)^p = 0."""
    if "filtration" not in m.subspaces:
        zero = Subspace.zero(m.p, m.dim)
        filt = [fixed_points(m)]
        for i in range(1, m.p):
            filt.append(intersect_and_sum(omega_image(m, i), filt[-1])[0] if filt[-1].dim else zero)
        m.subspaces["filtration"] = filt + [zero]
    return m.subspaces["filtration"]


def length_of(m: GModule, v) -> int:
    """Dimension of the cyclic submodule generated by v (v nonzero)."""
    vec = np.asarray(v, dtype=np.int64) % m.p
    if not vec.any():
        raise InputError("length of the zero vector is undefined")
    for l in range(1, m.p + 1):
        if not (m.shift_power(l) @ vec % m.p).any():
            return l
    raise MathCheckError("no annihilating power found; sigma is not unipotent")


def norm_operator(m: GModule) -> np.ndarray:
    """(sigma-1)^{p-1}, checked to equal 1 + sigma + ... + sigma^{p-1}."""
    n = m.shift_power(m.p - 1)
    total = np.zeros_like(n)
    power = np.eye(m.dim, dtype=np.int64)
    for _ in range(m.p):
        total += power
        power = power @ m.sigma % m.p
    if not np.array_equal(n, total % m.p):
        raise MathCheckError("(sigma-1)^(p-1) differs from the sum of powers of sigma")
    return n


def multiplicity_oracle(m: GModule) -> SummandProfile:
    """Block multiplicities from ranks alone: m_i = r_{i-1} - 2 r_i + r_{i+1},
    with the ranks taken afresh, not from the kept images, so that the
    profile has a route independent of the filtration decompose reads."""
    ranks = [m.dim]
    for i in range(1, m.p + 1):
        ranks.append(len(rref(m.shift_power(i), m.p)[1]))
    ranks.append(0)
    mult = [ranks[i - 1] - 2 * ranks[i] + ranks[i + 1] for i in range(1, m.p + 1)]
    return SummandProfile(m.p, mult)


def decompose(m: GModule, seeds: dict[int, Subspace] | None = None) -> Decomposition:
    """Split m into cyclic summands by reverse induction on the filtration.

    For each length i, a complement L_i of K_i inside K_{i-1} is chosen
    (K_i as in ``fixed_filtration``), each basis vector of L_i is lifted
    through (sigma-1)^{i-1}, and the summand is the sigma-orbit span of
    the lift.  ``seeds`` may pin L_i for selected lengths; seeds are
    validated against the filtration before use.

    Every claimed property of the output is re-checked; a failure raises
    MathCheckError since it can only indicate a bug or a bad seed.
    """
    p, n = m.p, m.dim
    filt = fixed_filtration(m)
    levels: dict[int, Subspace] = {}
    for i in range(p, 0, -1):
        if seeds is not None and i in seeds:
            cand = seeds[i]
            inter, total = intersect_and_sum(cand, filt[i])
            if inter.dim != 0 or total != filt[i - 1]:
                raise MathCheckError(
                    f"seed for length {i} is not a complement of the filtration step"
                )
            levels[i] = cand
        else:
            levels[i] = complement(filt[i], filt[i - 1])

    generators: dict[int, list[np.ndarray]] = {}
    summand_bases: dict[int, Subspace] = {}
    all_rows: list[np.ndarray] = []
    for i in range(p, 0, -1):
        gens: list[np.ndarray] = []
        rows: list[np.ndarray] = []
        if levels[i].dim:
            lifts = solve_many(m.shift_power(i - 1), levels[i].basis.T, p)
            if lifts is None:
                raise MathCheckError(f"level-{i} vectors have no (sigma-1)^{i-1} preimage")
            # Lifts of fixed vectors are annihilated by (sigma-1)^i for free.
            if (m.shift_power(i) @ lifts % p).any():
                raise MathCheckError(f"lift at length {i} is not annihilated")
            for y in lifts.T:
                gens.append(y)
                orbit = y
                for _ in range(i):
                    rows.append(orbit)
                    orbit = m.shift_power(1) @ orbit % p
        generators[i] = gens
        basis = Subspace(p, n, rows)
        if basis.dim != i * len(gens):
            raise MathCheckError(f"length-{i} summands are not independent")
        summand_bases[i] = basis
        all_rows.extend(rows)

    stacked = Subspace(p, n, all_rows)
    if stacked.dim != n:
        raise MathCheckError("summands do not span the module")
    profile = SummandProfile(p, [levels[i].dim for i in range(1, p + 1)])
    if profile.total_dim != n:
        raise MathCheckError("profile dimensions do not add up")
    for i in range(1, p + 1):
        for g in generators[i]:
            if length_of(m, g) != i:
                raise MathCheckError(f"generator of claimed length {i} has wrong length")
    return Decomposition(m, profile, generators, summand_bases)


def verify_exclusion(parts: list[Subspace], ambient: GModule) -> bool:
    """Check the exclusion principle on sigma-stable submodules.

    If the fixed subspaces of the parts form a direct sum then so do the
    parts themselves.  Both sides are computed independently; the return
    value is the implication, which can only be False if the principle
    (or this implementation) is broken.
    """
    shift = ambient.shift_power(1)
    mg = fixed_points(ambient)
    for part in parts:
        for row in part.basis:
            if not part.contains(shift @ row):
                raise InputError("part is not sigma-stable")

    def direct(subs: list[Subspace]) -> bool:
        total = Subspace.zero(ambient.p, ambient.dim)
        for s in subs:
            _, total = intersect_and_sum(total, s)
        return total.dim == sum(s.dim for s in subs)

    return not direct([intersect_and_sum(part, mg)[0] for part in parts]) or direct(parts)
