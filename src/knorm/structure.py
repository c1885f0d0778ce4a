"""Galois-module decomposition of k_n of a degree-p Kummer extension.

Six arithmetic invariants (d, e, upsilon1, upsilon2, y, z) of the pair
(extension, degree) control the shape of k_n(E) over F_p[G]: a trivial
part split as X1 + Z against the image of restriction, a length-2 part
X2 (odd p only), and a free part Y.  This module computes the
invariants, executes the explicit construction of those summands by
seeding the generic cyclic-module decomposition with pinned complements,
and re-verifies every structural claim and the canonical (choice-free)
statements on concrete instances.  Each checker (check_theorem_items,
check_canonical, check_lemma_VW) returns (passed, entry): its own verdict
and its checklist, a list of {"name", "passed"[, "detail"]} dicts that the
CLI prints as it is.  Each theorem item is checked in one place, its
checklist: decompose_knE does not raise on a summand that disagrees with
the invariants, so the report names the failing item.

Everything these steps and the Euler formulas read about one pair is
built once, by structure_context, into a StructureContext kept in the
extension's cache, which milnor.drop_extension empties when the CLI is
done with the class, and milnor.release_caches when it is done with the
field.  Its base side, built at once, holds the cup maps with a and
(odd p) with xi, ann(a) in k_{n-1}(F), which is the kernel of the first,
ann(a, xi), the pinned complement W, the cup image of ann(a, xi), and
the norm map.  Its Galois side, a GaloisSide that galois() builds on the
first call since the invariants and the Euler formulas never read it,
holds the sigma-module, the restriction map, the restriction kernel,
i_f = im res, i_n = im(res . norm), the restricted xi-cup map (odd p)
and their sum.  The inclusion checks run once, as each side is built,
and the invariants are compute_invariants of the pair, taken once.
Each subspace is eliminated once, and kept by what determines it:
the kernel and image of a map by its KMap, from one split, the fixed
filtration by the GModule, the rest by the context.
"""

from __future__ import annotations

from .errors import InputError, MathCheckError
from .fplin import Subspace, complement, intersect_and_sum
from .gmod import decompose, fixed_filtration, fixed_points, multiplicity_oracle, omega_image
from .milnor import (
    ann_pair,
    cup_with,
    defining_class,
    k_group,
    norm_map,
    restriction_map,
    sigma_map,
    xi_class,
)
from .padic import KummerExtension

__all__ = [
    "Invariants",
    "StructureReport",
    "StructureContext",
    "GaloisSide",
    "structure_context",
    "compute_invariants",
    "decompose_knE",
    "check_theorem_items",
    "check_canonical",
    "check_lemma_VW",
]


class Invariants:
    """The sextuple (d, e, upsilon1, upsilon2, y, z) for one degree.

    Negative values are rejected at construction.  The two linear
    relations are checked in one place, ``relations``, which the theorem
    checklist and the invariants command read.
    """

    __slots__ = ("p", "n", "d", "e", "upsilon1", "upsilon2", "y", "z")

    def __init__(self, p, n, d, e, upsilon1, upsilon2, y, z) -> None:
        vals = dict(d=d, e=e, upsilon1=upsilon1, upsilon2=upsilon2, y=y, z=z)
        for name, v in vals.items():
            if v < 0:
                raise MathCheckError(f"invariant {name} is negative: {v}")
        self.p, self.n = p, n
        self.d, self.e = d, e
        self.upsilon1, self.upsilon2 = upsilon1, upsilon2
        self.y, self.z = y, z

    def relations(self) -> list[tuple[str, bool]]:
        """(name, holds) of upsilon1 + upsilon2 + y = e (upsilon2 dropping
        out when p = 2, where it reads upsilon1 + y = e) and of
        upsilon2 + z = d."""
        two = self.upsilon2 if self.p > 2 else 0
        return [("relation_e", self.upsilon1 + two + self.y == self.e),
                ("relation_d", self.upsilon2 + self.z == self.d)]

    def as_tuple(self) -> tuple[int, int, int, int, int, int]:
        return (self.d, self.e, self.upsilon1, self.upsilon2, self.y, self.z)

    @property
    def total_dim(self) -> int:
        """Predicted dimension of k_n(E): the length-2 part exists only
        for odd p (it coincides with the free part when p = 2)."""
        two_part = 2 * self.upsilon2 if self.p > 2 else 0
        return self.upsilon1 + two_part + self.p * self.y + self.z

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "e": self.e,
            "upsilon1": self.upsilon1,
            "upsilon2": self.upsilon2,
            "y": self.y,
            "z": self.z,
        }

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Invariants)
            and (self.p, self.n) == (other.p, other.n)
            and self.as_tuple() == other.as_tuple()
        )

    def __repr__(self) -> str:
        return f"Invariants(n={self.n}, (d,e,u1,u2,y,z)={self.as_tuple()})"


class StructureReport:
    """Decomposition data for one (extension, degree) pair."""

    __slots__ = ("ext", "n", "invariants", "profile", "x1", "x2", "y_space", "z")

    def __init__(self, ext, n, invariants, profile, x1, x2, y_space, z):
        self.ext = ext
        self.n = n
        self.invariants = invariants
        self.profile = profile
        self.x1 = x1
        self.x2 = x2
        self.y_space = y_space
        self.z = z

    def summand_dims(self) -> dict:
        return {
            "X1": self.x1.dim,
            "X2_summands": self.invariants.upsilon2 if self.ext.p > 2 else 0,
            "Y_rank": self.invariants.y,
            "Z": self.z.dim,
        }

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "invariants": self.invariants.as_dict(),
            "profile": list(self.profile.multiplicities),
            "summands": self.summand_dims(),
            "bases": {
                "X1": self.x1.basis.tolist(),
                "X2": self.x2.basis.tolist(),
                "Y": self.y_space.basis.tolist(),
                "Z": self.z.basis.tolist(),
            },
        }


class StructureContext:
    """The cached data of one (extension, degree) pair (see the module
    docstring).  ``xi_map`` is None for p = 2.  ``w`` is the pinned
    complement of ann(a, xi) and ``cup_ann_ax`` the cup image of
    ann(a, xi).  The norm and cup images are those the maps keep."""

    __slots__ = (
        "ext", "n", "ann_a", "ann_ax", "w", "cup", "cup_ann_ax",
        "xi_map", "norm", "_invariants", "_galois",
    )

    def __init__(self, ext: KummerExtension, n: int) -> None:
        field, p = ext.base, ext.p
        self.ext, self.n, self._invariants, self._galois = ext, n, None, None
        a_cls = defining_class(ext)
        self.cup = cup_with(field, a_cls, n)
        self.ann_a = self.cup.kernel()
        self.ann_ax = ann_pair(field, a_cls, n)
        if not self.ann_a.is_subspace_of(self.ann_ax):
            raise MathCheckError("ann(a) is not inside ann(a, xi)")
        self.w = complement(self.ann_ax, Subspace.full(p, k_group(field, n - 1).dim))
        self.norm = norm_map(ext, n)
        self.cup_ann_ax = self.cup.image_of(self.ann_ax)
        self.xi_map = None
        if p > 2:
            # the kernel of restriction consists of norms for odd p
            if not self.cup.image().is_subspace_of(self.norm.image()):
                raise MathCheckError("(a)-multiples are not norms")
            self.xi_map = cup_with(field, xi_class(field), n)
        elif not self.cup_ann_ax.is_subspace_of(self.norm.image()):
            raise MathCheckError("(a)-multiples of ann(a,-1) are not norms")

    def galois(self) -> "GaloisSide":
        """The Galois side, built and checked on the first call; a failed
        check stores nothing, so it fails again on the next call."""
        if self._galois is None:
            self._galois = GaloisSide(self)
        return self._galois

    @property
    def invariants(self) -> Invariants:
        if self._invariants is None:
            self._invariants = compute_invariants(self.ext, self.n)
        return self._invariants


class GaloisSide:
    """The sigma-module of a pair, its fixed part ``mg`` (kept by the
    module), the restriction map ``res`` with its kernel ``res_kernel``,
    i_f = im res, i_n = im(res . norm), for odd p the restricted xi-cup
    map ``xi_cup``, and ``inner`` = i_xi + i_n (i_n when p = 2)."""

    __slots__ = ("module", "mg", "res", "res_kernel", "i_f", "i_n", "xi_cup", "inner")

    def __init__(self, ctx: StructureContext) -> None:
        ext, n = ctx.ext, ctx.n
        self.module = sigma_map(ext, n)
        self.res = restriction_map(ext, n)
        self.mg = fixed_points(self.module)
        self.res_kernel, self.i_f = self.res.kernel(), self.res.image()
        self.i_n = self.inner = (self.res @ ctx.norm).image()
        if not self.i_f.is_subspace_of(self.mg):
            raise MathCheckError("restriction image is not fixed by the Galois action")
        if not self.i_n.is_subspace_of(self.i_f):
            raise MathCheckError("restricted norms do not factor through the restriction image")
        self.xi_cup = None
        if ext.p > 2:
            self.xi_cup = self.res @ ctx.xi_map
            _, self.inner = intersect_and_sum(self.xi_cup.image(), self.i_n)


def structure_context(ext: KummerExtension, n: int) -> StructureContext:
    """The context of (ext, n), built on first use and kept in ext.cache,
    which milnor.drop_extension and milnor.release_caches empty."""
    if n < 0:
        raise InputError("degree must be nonnegative")
    key = ("structure", n)
    if key not in ext.cache:
        ext.cache[key] = StructureContext(ext, n)
    return ext.cache[key]


def compute_invariants(ext: KummerExtension, n: int) -> Invariants:
    """The six invariants of (E/F, n), each a quotient dimension.

    d and e come from the norm image in k_n(F); upsilon1 and upsilon2
    from the annihilators of (a) and (a, xi_p) in k_{n-1}(F); y and z
    from the cup-product images against the norm image.  The context
    keeps the result as its ``invariants``.
    """
    ctx = structure_context(ext, n)
    norm_image = ctx.norm.image()
    p, kn, kn1 = ext.p, norm_image.ambient_dim, ctx.ann_ax.ambient_dim
    e_val = norm_image.dim
    u1 = ctx.ann_ax.dim - ctx.ann_a.dim
    u2 = kn1 - ctx.ann_ax.dim
    if p > 2:
        y_val = e_val - ctx.cup.image().dim
        _, span = intersect_and_sum(ctx.xi_map.image(), norm_image)
    else:
        y_val = e_val - ctx.cup_ann_ax.dim
        _, span = intersect_and_sum(ctx.cup.image(), norm_image)
    return Invariants(p, n, kn - e_val, e_val, u1, u2, y_val, kn - span.dim)


def decompose_knE(ext: KummerExtension, n: int) -> StructureReport:
    """Split k_n(E) into X1, X2 (odd p), Y, Z with pinned complements.

    The level-1 seed is X1 + Z, with X1 a complement of the restriction
    image inside the fixed part and Z a complement of the restricted
    norm-and-xi-cup images inside the restriction image; the level-2 seed
    is the image of xi-cup on a complement W (odd p) or the restricted
    norm image (p = 2); the level-p seed is the restricted norm image.
    The generic cyclic decomposition then runs on those seeds.  The
    dimensions of X1 and Z and the profile are checked against the
    invariants once, by check_theorem_items, whose checklist names a
    mismatch.
    """
    p = ext.p
    ctx = structure_context(ext, n)
    inv, gal = ctx.invariants, ctx.galois()
    module, mg, i_f, i_n = gal.module, gal.mg, gal.i_f, gal.i_n
    dim_e = module.dim
    x1 = complement(i_f, mg)
    z = complement(gal.inner, i_f)  # i_n ⊂ i_f is checked; i_xi ⊂ i_f as xi_cup = res . xi
    _, l1 = intersect_and_sum(x1, z)
    seeds: dict[int, Subspace] = {1: l1}
    if p > 2:
        seeds[2] = gal.xi_cup.image_of(ctx.w)
        for i in range(3, p):
            seeds[i] = Subspace.zero(p, dim_e)
        seeds[p] = i_n
    else:
        seeds[2] = i_n
    dec = decompose(module, seeds=seeds)
    x2 = dec.summand_bases[2] if p > 2 else Subspace.zero(p, dim_e)
    return StructureReport(ext, n, inv, dec.profile, x1, x2, dec.summand_bases[p], z)


def _checklist(checks) -> tuple[bool, list[dict]]:
    """(passed, entry) of (name, passed[, detail]) checks: whether every
    check passed, and one {"name", "passed"[, "detail"]} dict per check."""
    entry = []
    for name, passed, *detail in checks:
        item = {"name": name, "passed": bool(passed)}
        if detail:
            item["detail"] = detail[0]
        entry.append(item)
    return all(item["passed"] for item in entry), entry


def check_theorem_items(report: StructureReport) -> tuple[bool, list[dict]]:
    """Re-verify every claim of the decomposition statement on the report:
    triviality and positioning of X1 and Z, freeness data of Y, the
    corestriction behavior of X1 (+ X2), and the two dimension relations.
    Returns (passed, entry), with entry the checklist."""
    p = report.ext.p
    inv = report.invariants
    ctx = structure_context(report.ext, report.n)
    gal = ctx.galois()
    module, mg, i_f, i_n = gal.module, gal.mg, gal.i_f, gal.i_n
    inter, _ = intersect_and_sum(report.x1, i_f)
    out = [
        ("x1_trivial", report.x1.is_subspace_of(mg), f"dim X1 = {report.x1.dim}"),
        ("x1_meets_restriction_trivially", inter.dim == 0),
        ("x1_dimension", report.x1.dim == inv.upsilon1),
        ("z_trivial", report.z.is_subspace_of(mg), f"dim Z = {report.z.dim}"),
        ("z_inside_restriction_image", report.z.is_subspace_of(i_f)),
        ("z_dimension", report.z.dim == inv.z),
        ("y_free_rank", report.profile.m(p) == inv.y, f"rank Y = {inv.y}"),
    ]
    if p > 2:
        out.append(("x2_length_two_count", report.profile.m(2) == inv.upsilon2))
    yg, _ = intersect_and_sum(report.y_space, mg)
    out.append(("fixed_part_of_y_is_res_cor_image", yg == i_n,
                f"dim Y^G = {yg.dim}, dim res(cor) = {i_n.dim}"))
    if p > 2:
        _, x1x2 = intersect_and_sum(report.x1, report.x2)
        cor_image, cup_image = ctx.norm.image_of(x1x2), ctx.cup.image()
        out.append(("cor_surjects_onto_cup_image", cup_image.is_subspace_of(cor_image),
                    f"dim cor(X1+X2) = {cor_image.dim}, dim (a)-image = {cup_image.dim}"))
    else:
        cor_x1 = ctx.norm.image_of(report.x1)
        target = ctx.cup_ann_ax
        iso = cor_x1 == target and cor_x1.dim == report.x1.dim
        out.append(("cor_iso_from_x1_onto_cup_annpair", iso,
                    f"dim cor(X1) = {cor_x1.dim}, target = {target.dim}"))
    out += inv.relations()
    out.append(("total_dimension", module.dim == inv.total_dim, f"dim = {module.dim}"))
    return _checklist(out)


def check_canonical(ext: KummerExtension, n: int) -> tuple[bool, list[dict]]:
    """The choice-free statements: the intersections of the fixed part
    with images of powers of (sigma - 1), the six-term exact sequence, and
    the unseeded module profile against the invariants.  Returns (passed,
    entry), with entry the checklist."""
    field, p = ext.base, ext.p
    ctx = structure_context(ext, n)
    inv, gal = ctx.invariants, ctx.galois()
    module, mg, i_f, i_n = gal.module, gal.mg, gal.i_f, gal.i_n
    filt = fixed_filtration(module)  # kept on the module by decompose_knE
    out = [("norm_power_identity", i_n == omega_image(module, p - 1),
            "res(cor) image equals the image of the top power of (sigma-1)")]
    out.append(("first_power_intersection", filt[1] == gal.inner, f"dim = {filt[1].dim}"))
    out.append(("higher_power_intersections", all(k == i_n for k in filt[2:p])))

    # six-term sequence through k_{n-1}(F), k_n(F), the fixed part, and
    # the (a)-multiples of ann(a, xi)
    ann_a, cup_img = ctx.ann_a, ctx.cup.image()
    kn1, kn = k_group(field, n - 1).dim, k_group(field, n).dim
    ker_cup = ctx.cup.kernel()
    out.append(("six_term_exact_at_kn1", ker_cup == ann_a,
                f"ker dim {ker_cup.dim}, ann dim {ann_a.dim}"))

    ker_res = gal.res_kernel
    out.append(("six_term_exact_at_kn", cup_img == ker_res,
                f"cup image dim {cup_img.dim}, ker res dim {ker_res.dim}"))

    ker_in_fixed, _ = intersect_and_sum(ctx.norm.kernel(), mg)
    out.append(("six_term_exact_at_fixed", i_f == ker_in_fixed,
                f"res image dim {i_f.dim}, ker cap fixed dim {ker_in_fixed.dim}"))

    norm_of_fixed = ctx.norm.image_of(mg)
    last = ctx.cup_ann_ax
    out.append(("six_term_exact_at_end", norm_of_fixed == last,
                f"cor(fixed) dim {norm_of_fixed.dim}, (a)ann(a,xi) dim {last.dim}"))

    alt = ann_a.dim - kn1 + kn - mg.dim + last.dim
    out.append(("six_term_alternating_sum", alt == 0, f"sum = {alt}"))

    plain_profile = multiplicity_oracle(module)
    shape_ok = (
        plain_profile.m(1) == inv.upsilon1 + inv.z
        and plain_profile.m(p) == inv.y
        and (p == 2 or plain_profile.m(2) == inv.upsilon2)
        and all(plain_profile.m(j) == 0 for j in range(3, p))
    )
    out.append(("unseeded_profile_matches_invariants", shape_ok,
                f"profile {plain_profile.multiplicities}"))
    return _checklist(out)


def check_lemma_VW(ext: KummerExtension, n: int) -> tuple[bool, list[dict]]:
    """Injectivity of cup product with a on the complement V + W of
    ann(a) in k_{n-1}, and (odd p) of the xi-cup composed with
    restriction on W.  Returns (passed, entry), with entry the checklist."""
    ctx = structure_context(ext, n)
    v = complement(ctx.ann_a, ctx.ann_ax)
    _, vw = intersect_and_sum(v, ctx.w)
    restricted = ctx.cup.image_of(vw)
    out = [
        ("cup_injective_on_vw", restricted.dim == vw.dim,
         f"dim V+W = {vw.dim}, image dim = {restricted.dim}"),
        ("cup_image_from_vw", restricted == ctx.cup.image()),
    ]
    if ext.p > 2:
        img_w = ctx.galois().xi_cup.image_of(ctx.w)
        out.append(("xi_cup_injective_on_w", img_w.dim == ctx.w.dim,
                    f"dim W = {ctx.w.dim}, image dim = {img_w.dim}"))
    return _checklist(out)
