"""Mod-p Milnor K-groups of local fields and the maps of a Kummer step.

For a local field F containing a p-th root of unity the groups k_n =
K_n/p are finite: k_0 = F_p, k_1 = F^x/(F^x)^p on the [F:Q_p]+2 units
of padic's k1_structure, k_2 a line (Moore), and k_n = 0 above the
cohomological dimension CD = 2.  CD and _LINES state that grading once,
with what corestriction and restriction do on the lines.  This module
builds those groups with explicit bases, the norm (corestriction),
restriction, Galois and cup-product maps for a degree-p Kummer extension
E/F, and the numerical verifications of the exactness statements tying
them together.  A class is its coordinates on the group's basis and a
map its matrix, int64 arrays reduced mod p; a KGroup carries the field,
and so p.  The first three maps take their degree-1 matrices from one
builder, _k1_matrix, given the element map each one is induced by.  Each
verification (verify_hilbert90, verify_voevodsky_seq,
projection_formula_check) returns (passed, entry): its own verdict and the
JSON-ready report entry, which the CLI prints as it is.

Symbols are decided by the norm criterion: (a, b) vanishes iff b's class
is a norm from F(a^{1/p}).  By local duality the kernel of b -> (a, b)
on k_1 is exactly that norm hyperplane N_a, and k_2 is a line, so N_a
fixes the degree-2 cup map with a up to one scalar: 1 for p = 2, and
for odd p the identification of k_2 with F_p, which no kernel, image or
vanishing statement can observe.  symbol returns the F_p coordinate of
(a, b) on the generator of k_2: 0 or 1, since how that scalar varies
from one class a to another is not pinned, so for odd p a nonzero
symbol is 1 by convention only.  _norm_hyperplane is the one place N_a
is read, by symbol and by cup_with; the field keeps it per class, so it
outlives the top it came from.  The annihilator of a in k_{n-1} is the
kernel of cup_with(field, a, n).
"""

from __future__ import annotations

import random

import numpy as np

from .errors import InputError, MathCheckError
from .fplin import Subspace, kernel, kernel_image
from .gmod import GModule, norm_operator, omega_image
from .padic import KummerExtension, LocalField, PadicElement

__all__ = [
    "KGroup",
    "KMap",
    "k_group",
    "k1_group",
    "class_of",
    "get_extension",
    "drop_extension",
    "release_caches",
    "norm_subgroup",
    "symbol",
    "defining_class",
    "xi_class",
    "norm_map",
    "restriction_map",
    "sigma_map",
    "cup_with",
    "ann_pair",
    "verify_hilbert90",
    "verify_voevodsky_seq",
]


CD = 2  # the cohomological dimension of a local field: k_n = 0 for n > CD

# The lines of k_*: label, and the scalars of corestriction (times p on k_0,
# onto between the k_2, whose generators it identifies) and restriction (the
# identity on k_0; on k_2 times the degree p).  Other degrees but 1 are zero.
_LINES = {0: {"label": "1", "cor": 0, "res": 1}, CD: {"label": "s", "cor": 1, "res": 0}}


class KGroup:
    """k_n of a field, as an F_p space with a labeled basis."""

    __slots__ = ("field", "n", "dim", "labels")

    def __init__(self, field: LocalField, n: int, labels: list[str]) -> None:
        self.field = field
        self.n = n
        self.labels = labels
        self.dim = len(labels)

    def __repr__(self) -> str:
        return f"KGroup(k{self.n} {self.field.short_name()}, dim={self.dim})"


class KMap:
    """A linear map between K-groups.

    ``matrix`` is an int64 array reduced mod p, target.dim x source.dim.
    Every entry is exact, except that a degree-2 cup map at odd p is
    exact only up to one global scalar, the identification of k_2 with
    F_p (see cup_with); no kernel or image sees it.  The map keeps its
    kernel and image from one split, made on the first use of either.
    """

    __slots__ = ("source", "target", "matrix", "_split")

    def __init__(self, source: KGroup, target: KGroup, matrix) -> None:
        mat = np.asarray(matrix, dtype=np.int64) % source.field.p
        if mat.shape != (target.dim, source.dim):
            raise InputError(
                f"matrix shape {mat.shape} does not match ({target.dim}, {source.dim})"
            )
        self.source = source
        self.target = target
        self.matrix = mat
        self._split = None

    def apply(self, vec) -> np.ndarray:
        """The image of a coordinate vector of the source group."""
        v = np.asarray(vec, dtype=np.int64)
        if v.shape != (self.source.dim,):
            raise InputError("vector length does not match the source group")
        return self.matrix @ (v % self.source.field.p) % self.source.field.p

    def kernel(self) -> Subspace:
        return self._kernel_image()[0]

    def image(self) -> Subspace:
        return self._kernel_image()[1]

    def _kernel_image(self) -> tuple[Subspace, Subspace]:
        if self._split is None:
            self._split = kernel_image(self.matrix, self.source.field.p)
        return self._split

    def image_of(self, sub: Subspace) -> Subspace:
        if sub.ambient_dim != self.source.dim:
            raise InputError("subspace does not live in the source group")
        return Subspace(self.target.field.p, self.target.dim, sub.basis @ self.matrix.T)

    def __matmul__(self, other: "KMap") -> "KMap":
        if other.target is not self.source:
            raise InputError("maps do not compose")
        return KMap(other.source, self.target, self.matrix @ other.matrix)

    def __repr__(self) -> str:
        return f"KMap(k{self.source.n}->k{self.target.n}, {self.target.dim}x{self.source.dim})"


def k_group(field: LocalField, n: int) -> KGroup:
    """k_n with its standard basis; cached per field and degree."""
    cache = field._caches.setdefault("kgroups", {})
    if n not in cache:
        if n == 1:
            labels = [e.label for e in field.k1_structure()]
        else:
            labels = [_LINES[n]["label"]] if n in _LINES else []
        cache[n] = KGroup(field, n, labels)
    return cache[n]


_CERT_EXHAUSTIVE_LIMIT = 128
_CERT_SAMPLES = 48


def k1_group(field: LocalField) -> KGroup:
    """k_1 with the unit-filtration basis.

    Independence is certified through p-th power tests: exhaustively over
    all coordinate combinations when p^dim is small, by seeded random
    sampling otherwise.
    """
    grp = k_group(field, 1)
    if not field._caches.get("k1_certified"):
        p, dim = field.p, grp.dim
        if p**dim <= _CERT_EXHAUSTIVE_LIMIT:
            combos = Subspace.full(p, dim).vectors()
        else:
            rng = random.Random(0)
            combos = (
                np.array([rng.randrange(p) for _ in range(dim)], dtype=np.int64)
                for _ in range(_CERT_SAMPLES)
            )
        for coords in combos:
            if not coords.any():
                continue
            x = field.k1_element([int(c) for c in coords])
            if field.is_pth_power(x):
                raise MathCheckError(
                    f"unit basis of {field.short_name()} is dependent at {list(coords)}"
                )
        field._caches["k1_certified"] = True
    return grp


def class_of(field: LocalField, x: PadicElement) -> np.ndarray:
    """Coordinates of a nonzero element in k_1, by filtration peeling."""
    return np.array(field.k1_coords(x), dtype=np.int64)


def _class_key(field: LocalField, coords) -> tuple:
    """Normalize a k_1 coordinate vector to the canonical generator of its
    line (same Kummer extension for every nonzero multiple)."""
    coords = [int(c) % field.p for c in coords]
    lead = next((c for c in coords if c), None)
    if lead is None:
        raise InputError("the element is a p-th power; the extension degenerates")
    inv = pow(lead, -1, field.p)
    return tuple((c * inv) % field.p for c in coords)


def _as_k1_coords(field: LocalField, a) -> list[int]:
    """The k_1 coordinates of a field element, or of a coordinate sequence
    (a class key is one), reduced mod p and checked against dim k_1."""
    if isinstance(a, PadicElement):
        if a.field is not field:
            raise InputError("element belongs to a different field")
        return field.k1_coords(a)
    coords = [int(c) % field.p for c in a]
    if len(coords) != k_group(field, 1).dim:
        raise InputError("coordinate length does not match dim k_1")
    return coords


def get_extension(field: LocalField, a) -> KummerExtension:
    """The Kummer extension attached to the class of a, cached per class
    until drop_extension or release_caches."""
    key = _class_key(field, _as_k1_coords(field, a))
    cache = field._caches.setdefault("kummer_exts", {})
    if key not in cache:
        rep = field.k1_element(list(key))
        cache[key] = KummerExtension(field, rep, label=_key_label(field, key))
    return cache[key]


def release_caches(field: LocalField) -> None:
    """Empty the caches of a field and of the Kummer tops built over it.

    Cached groups and extensions point back at their fields, so the
    fields sit in reference cycles; breaking them frees the memory at
    once, without a full garbage collection.
    """
    for ext in field._caches.get("kummer_exts", {}).values():
        _release(ext)
    field._caches.clear()


def drop_extension(ext: KummerExtension) -> None:
    """Release one extension and forget it in its base's cache, so that
    its top is freed; a later get_extension of its class builds it anew.
    The base keeps the norm hyperplane of the class (_norm_hyperplane)."""
    cache = ext.base._caches.get("kummer_exts", {})
    for key in [key for key, kept in cache.items() if kept is ext]:
        del cache[key]
    _release(ext)


def _release(ext: KummerExtension) -> None:
    ext.cache.clear()
    release_caches(ext.top)


def _key_label(field: LocalField, key: tuple) -> str:
    labels = [e.label for e in field.k1_structure()]
    parts = []
    for c, lab in zip(key, labels):
        if c == 0:
            continue
        parts.append(lab if c == 1 else f"{lab}^{c}")
    return "*".join(parts) if parts else "1"


def norm_subgroup(ext: KummerExtension) -> Subspace:
    """Classes of norms from E inside k_1 of the base: the image of the
    degree-1 norm map, whose columns are the norms of a k_1(E) basis.
    The map keeps it; its codimension 1 is checked when the map is built."""
    return norm_map(ext, 1).image()


def xi_class(field: LocalField) -> np.ndarray:
    """The k_1 class of the fixed p-th root of unity (of -1 when p = 2),
    computed once per field."""
    if "xi_class" not in field._caches:
        field._caches["xi_class"] = class_of(field, field.zeta)
    return field._caches["xi_class"]


def defining_class(ext: KummerExtension) -> np.ndarray:
    """The k_1 class of the Kummer element a, computed once per extension."""
    if "a_class" not in ext.cache:
        ext.cache["a_class"] = class_of(ext.base, ext.a)
    return ext.cache["a_class"]


def _norm_hyperplane(field: LocalField, a_coords: list[int]) -> Subspace:
    """N_a, the classes b with (a, b) = 0: the norms from F(a^{1/p}),
    all of k_1 for a trivial a.  It is kept per class in the field's
    cache, so it outlives the top it was read from (drop_extension)."""
    if not any(a_coords):
        return Subspace.full(field.p, k_group(field, 1).dim)
    key = _class_key(field, a_coords)
    cache = field._caches.setdefault("norm_hyperplanes", {})
    if key not in cache:
        cache[key] = norm_subgroup(get_extension(field, key))
    return cache[key]


def symbol(field: LocalField, a, b) -> int:
    """The degree-2 symbol of two k_1 classes, via the norm criterion, as
    its F_p coordinate on the generator of the line k_2.

    Zero iff b is a norm from F(a^{1/p}); a trivial a gives zero by
    convention.  The nonzero value is 1, the chosen generator of k_2,
    which for odd p pins the symbol only up to a scalar that depends on a.
    """
    b_coords = np.array(_as_k1_coords(field, b), dtype=np.int64)
    return 0 if _norm_hyperplane(field, _as_k1_coords(field, a)).contains(b_coords) else 1


def norm_map(ext: KummerExtension, n: int) -> KMap:
    """Corestriction k_n(E) -> k_n(F)."""
    return _cached_map(ext, ("norm", n), _build_norm_map)


def restriction_map(ext: KummerExtension, n: int) -> KMap:
    """The map induced by the field inclusion, k_n(F) -> k_n(E)."""
    return _cached_map(ext, ("res", n), _build_restriction_map)


def sigma_map(ext: KummerExtension, n: int) -> GModule:
    """k_n(E) as a module over the cyclic Galois group."""
    return _cached_map(ext, ("sigma", n), _build_sigma_map)


def _cached_map(ext: KummerExtension, key: tuple, builder):
    if key not in ext.cache:
        ext.cache[key] = builder(ext, key[1])
    return ext.cache[key]


def _k1_matrix(src: LocalField, dst: LocalField, move) -> np.ndarray:
    """The k_1 matrix of an element map src -> dst: column j holds the
    coordinates in k_1(dst) of move applied to the j-th basis unit of src."""
    cols = [dst.k1_coords(move(PadicElement(src, e.data))) for e in src.k1_structure()]
    return np.array(cols, dtype=np.int64).T


def _line_map(src: KGroup, dst: KGroup, which: str) -> KMap:
    """Corestriction or restriction (``which``) outside degree 1, by _LINES."""
    scalar = _LINES[src.n][which] if src.n in _LINES else 0
    return KMap(src, dst, np.eye(dst.dim, src.dim, dtype=np.int64) * scalar)


def _build_norm_map(ext: KummerExtension, n: int) -> KMap:
    src, dst = k_group(ext.top, n), k_group(ext.base, n)
    if n != 1:
        return _line_map(src, dst, "cor")
    kmap = KMap(src, dst, _k1_matrix(ext.top, ext.base, ext.norm_down))
    if dst.dim - kmap.image().dim != 1:
        raise MathCheckError("norm image does not have codimension 1")
    return kmap


def _build_restriction_map(ext: KummerExtension, n: int) -> KMap:
    src, dst = k_group(ext.base, n), k_group(ext.top, n)
    if n != 1:
        return _line_map(src, dst, "res")
    return KMap(src, dst, _k1_matrix(ext.base, ext.top, ext.embed))


def _build_sigma_map(ext: KummerExtension, n: int) -> GModule:
    # the Galois group acts trivially on the lines
    top = ext.top
    mat = _k1_matrix(top, top, ext.sigma) if n == 1 else np.eye(k_group(top, n).dim, dtype=np.int64)
    try:
        return GModule(ext.p, mat)
    except InputError as exc:
        # a computed action failing unipotence is a math failure, not bad input
        raise MathCheckError(f"Galois action on k_{n} is not unipotent: {exc}") from exc


def cup_with(field: LocalField, a, n: int) -> KMap:
    """Cup product with a k_1 class, as a map k_{n-1} -> k_n, n >= 0.

    Degree 1 is the column a.  Degree 2 is the normal vector of the norm
    hyperplane N_a, the zero row for a trivial a: exact up to one global
    scalar (see the module docstring), so its kernel is N_a.  Every other
    degree is the zero map.  The kernel is the annihilator of a in
    k_{n-1}.
    """
    if n < 0:
        raise InputError("cup maps start in degree 0")
    a_coords = _as_k1_coords(field, a)
    src, dst, p = k_group(field, n - 1), k_group(field, n), field.p
    if n == 1:
        return KMap(src, dst, np.array(a_coords, dtype=np.int64).reshape(-1, 1))
    if n == 2:
        normal = kernel(_norm_hyperplane(field, a_coords).basis, p).basis
        return KMap(src, dst, normal if len(normal) else np.zeros((1, src.dim), dtype=np.int64))
    return KMap(src, dst, np.zeros((dst.dim, src.dim), dtype=np.int64))


def ann_pair(field: LocalField, a, n: int) -> Subspace:
    """The annihilator of the degree-2 symbol (a, xi_p) inside k_{n-1}, the
    kernel of z -> z.(a, xi_p) into k_{n+1}: for n + 1 = CD a map between
    the lines k_0 and k_2, injective iff the symbol is nonzero, and
    otherwise from or into a zero group."""
    p, dim = field.p, k_group(field, n - 1).dim
    if n + 1 == CD and symbol(field, a, xi_class(field)):
        return Subspace.zero(p, dim)
    return Subspace.full(p, dim)


def projection_formula_check(ext: KummerExtension) -> tuple[bool, dict[str, bool]]:
    """Norms of symbols built from the adjoined root against base symbols.

    For each basis class b of k_1(F) (and the k_0 generator) the norm of
    the degree-2 symbol (A, res b) must agree with (a, b) for odd p and
    with (-a, b) for p = 2.  With the degree-2 groups one-dimensional the
    comparison is vanishing-ness, which is scalar-free.  Returns (passed,
    entry): every instance agrees, and the agreement per basis label.
    """
    field, top, p = ext.base, ext.top, ext.p
    # for p = 2, the class of -a, with xi = -1
    rhs_cls = defining_class(ext) if p > 2 else (defining_class(ext) + xi_class(field)) % p
    res1 = restriction_map(ext, 1)
    a_top = class_of(top, ext.A)
    results: dict[str, bool] = {}
    k1f = k_group(field, 1)
    for lab, b in zip(k1f.labels, np.eye(k1f.dim, dtype=np.int64)):
        lhs_zero = symbol(top, a_top, res1.apply(b)) == 0
        rhs_zero = symbol(field, rhs_cls, b) == 0
        results[lab] = lhs_zero == rhs_zero
    # degree-0 instance: the norm of the root itself
    results["1"] = np.array_equal(class_of(field, ext.norm_down(ext.A)), rhs_cls)
    return all(results.values()), results


def verify_hilbert90(ext: KummerExtension, n: int) -> tuple[bool, dict]:
    """Check image(sigma - 1) inside ker(norm) on k_n(E), and that
    restriction-after-corestriction equals 1 + sigma + ... + sigma^{p-1}.
    Returns (passed, entry): both hold, and the report entry."""
    module, nmap, rmap = sigma_map(ext, n), norm_map(ext, n), restriction_map(ext, n)
    shift_image = omega_image(module, 1)
    norm_kernel = nmap.kernel()
    inclusion = shift_image.is_subspace_of(norm_kernel)
    composite = np.array_equal((rmap @ nmap).matrix, norm_operator(module))
    return inclusion and composite, {
        "n": n,
        "dim_image_sigma_minus_1": shift_image.dim,
        "dim_ker_norm": norm_kernel.dim,
        "image_inside_kernel": inclusion,
        "res_after_cor_is_sigma_sum": composite,
    }


def verify_voevodsky_seq(ext: KummerExtension, m: int) -> tuple[bool, dict]:
    """Exactness of k_{m-1}(E) -> k_{m-1}(F) -> k_m(F) -> k_m(E), with the
    middle maps the norm, cup with a, and restriction.  Returns (passed,
    entry): exact at both inner terms, and the report entry."""
    if m < 1 or m > CD + 1:
        raise InputError(f"four-term checks cover degrees 1..{CD + 1}")
    cup = cup_with(ext.base, defining_class(ext), m)
    norm_image, cup_ann, cup_image = norm_map(ext, m - 1).image(), cup.kernel(), cup.image()
    res_kernel = restriction_map(ext, m).kernel()
    at_base, at_cup = norm_image == cup_ann, cup_image == res_kernel
    return at_base and at_cup, {
        "m": m,
        "dims": {
            "norm_image": norm_image.dim,
            "cup_annihilator": cup_ann.dim,
            "cup_image": cup_image.dim,
            "restriction_kernel": res_kernel.dim,
        },
        "norm_image_is_cup_annihilator": at_base,
        "cup_image_is_restriction_kernel": at_cup,
    }
