"""Partial Euler-Poincare characteristics of open index-p subgroups.

The pro-p groups themselves never appear: a subgroup is represented by
the cohomology profile (h_i, a_i, d_i) of its field data, where h_i is
the dimension of the degree-i cohomology of the ambient group, a_i the
dimension of the annihilator of the defining class, and d_i the
codimension.  Three formulas give the subgroup's cohomology dimensions;
on local-field instances they are cross-checked against each other and
against the extension's K-groups computed directly, and the two
characteristic identities are verified exactly.  The two checkers,
theorem3_check and corollary_checks, return (passed, entry): their own
verdict and the JSON-ready report entry, which the CLI prints as it is.
theorem3_check reads a field profile's extension; corollary_checks reads
only the numbers (p, n, h, a, d, label, minus_one_norm), so the CLI keeps
for it profiles whose ``ext`` is None, and frees each class's top after
its turn.
"""

from __future__ import annotations

from .errors import InputError, MathCheckError, UnsupportedOperationError
from .fplin import Subspace, _check_prime
from .milnor import _class_key, defining_class, k_group, symbol, xi_class
from .padic import KummerExtension, LocalField
from .structure import structure_context

__all__ = [
    "CohomologyProfile",
    "profile_from_field",
    "profile_from_manual",
    "chi",
    "dim_HN_formula",
    "theorem3_check",
    "corollary_checks",
    "enumerate_extension_classes",
]


class CohomologyProfile:
    """The sequences h_0..h_n, a_1..a_n, d_0..d_n for one subgroup.

    h_0 = 1 always, and a_0 = 0 because the defining class is nonzero,
    so d_0 = 1.  Constructed either from a Kummer extension of a local
    field or from manual data; manual profiles must state explicitly
    whether -1 is a norm when p = 2 (it is never inferred).
    """

    __slots__ = ("p", "n", "h", "a", "d", "source", "ext", "minus_one_norm", "label")

    def __init__(self, p, n, h, a, source, ext=None, minus_one_norm=None, label=""):
        if n < 0:
            raise InputError("top degree must be nonnegative")
        h, a = list(h), list(a)
        if len(h) != n + 1:
            raise InputError(f"h must list degrees 0..{n}")
        if len(a) != n:
            raise InputError(f"a must list degrees 1..{n}")
        if h[0] != 1:
            raise InputError("h_0 must be 1")
        if any(v < 0 for v in h + a):
            raise InputError("profile entries must be nonnegative")
        d = [1] + [h[i] - a[i - 1] for i in range(1, n + 1)]
        if any(v < 0 for v in d):
            raise InputError("a_i may not exceed h_i")
        self.p, self.n = p, n
        self.h, self.a, self.d = h, a, d
        self.source = source
        self.ext = ext
        self.minus_one_norm = minus_one_norm
        self.label = label

    def a_at(self, i: int) -> int:
        if i == 0:
            return 0
        return self.a[i - 1]

    def d_at(self, i: int) -> int:
        if i < 0:
            return 0
        return self.d[i]

    def licensed_for_free_formula(self) -> bool:
        """Whether the free-submodule formulas apply: odd p, or p = 2 with
        -1 a norm from the defining extension."""
        if self.p > 2:
            return True
        if self.minus_one_norm is None:
            raise InputError(
                "manual p = 2 profiles must declare minus_one_norm for this formula"
            )
        return bool(self.minus_one_norm)

    def as_dict(self) -> dict:
        out = {
            "p": self.p,
            "n": self.n,
            "h": list(self.h),
            "a": list(self.a),
            "d": list(self.d),
            "source": self.source,
        }
        if self.minus_one_norm is not None:
            out["minus_one_norm"] = self.minus_one_norm
        if self.label:
            out["label"] = self.label
        return out

    def __repr__(self) -> str:
        return f"CohomologyProfile(p={self.p}, n={self.n}, h={self.h}, a={self.a})"


def profile_from_field(ext: KummerExtension, n: int) -> CohomologyProfile:
    """Profile of the subgroup fixing E, with h_i the K-group dimensions
    and a_i the annihilator dimensions of the defining class, read from
    the (extension, i + 1) contexts."""
    field = ext.base
    h = [k_group(field, i).dim for i in range(n + 1)]
    a = [structure_context(ext, i + 1).ann_a.dim for i in range(1, n + 1)]
    minus_one = None
    if field.p == 2:  # -1 = xi is a norm from E iff (a, xi) = 0
        minus_one = symbol(field, defining_class(ext), xi_class(field)) == 0
    return CohomologyProfile(
        field.p, n, h, a, "local_field", ext=ext, minus_one_norm=minus_one,
        label=ext.label or "",
    )


def profile_from_manual(spec: dict) -> CohomologyProfile:
    """Manual profile from the JSON structure {"p": prime, "n": int,
    "h": [int..], "a": [int..], "minus_one_norm": bool?, "label": str?}."""
    if not isinstance(spec, dict):
        raise InputError("manual profile must be an object")
    extra = set(spec) - {"p", "n", "h", "a", "minus_one_norm", "label"}
    if extra:
        raise InputError(f"unknown manual-profile keys: {sorted(extra)}")
    for key in ("p", "n", "h", "a"):
        if key not in spec:
            raise InputError(f"manual profile is missing {key!r}")
    p, n, h, a = (spec[key] for key in ("p", "n", "h", "a"))
    entries = [p, n] + (h if type(h) is list else [None]) + (a if type(a) is list else [None])
    if any(type(v) is not int for v in entries):  # no bool, nor a float int() truncates
        raise InputError("manual profile needs integers p and n and integer lists h and a")
    _check_prime(p)
    if not isinstance(spec.get("minus_one_norm", False), bool):
        raise InputError("minus_one_norm must be true or false")
    if not isinstance(spec.get("label", ""), str):
        raise InputError("the manual-profile label must be a string")
    return CohomologyProfile(
        p, n, h, a, "manual",
        minus_one_norm=spec.get("minus_one_norm"), label=spec.get("label", ""),
    )


def dim_HN_formula(profile: CohomologyProfile, i: int, variant: str = "c") -> int:
    """Dimension of the subgroup's degree-i cohomology.

    Variant 'c' uses d_{i-1} + d_i + p(a_i - d_{i-1}) from the profile
    alone; 'b' uses p times the free rank (the y invariant), licensed by
    odd p or -1 being a norm; 'a' uses the codimension of the cup-product
    image inside the corestriction image, and needs field data.
    """
    if i < 0 or i > profile.n:
        raise InputError(f"degree {i} outside the profile range 0..{profile.n}")
    if i == 0:
        return 1
    p = profile.p
    base = profile.d_at(i - 1) + profile.d_at(i)
    if variant == "c":
        return base + p * (profile.a_at(i) - profile.d_at(i - 1))
    if variant == "b":
        if not profile.licensed_for_free_formula():
            raise InputError("variant 'b' needs odd p, or p = 2 with -1 a norm")
        if profile.source == "local_field":
            y = structure_context(profile.ext, i).invariants.y
        else:
            y = profile.a_at(i) - profile.d_at(i - 1)
        return base + p * y
    if variant == "a":
        if profile.source != "local_field":
            raise InputError("variant 'a' needs local-field data")
        ctx = structure_context(profile.ext, i)
        # the quotient of the corestriction image by the cup image is read
        # as a dimension difference: for p = 2 the cup image need not be
        # contained in the corestriction image
        return base + p * (ctx.norm.image().dim - ctx.cup.image().dim)
    raise InputError(f"unknown variant {variant!r}")


def chi(profile: CohomologyProfile, which: str) -> int:
    """Partial Euler-Poincare characteristic up to the profile degree:
    'T' for the ambient group, 'N' for the subgroup (via variant 'c')."""
    if which == "T":
        return sum((-1) ** i * profile.h[i] for i in range(profile.n + 1))
    if which == "N":
        return sum((-1) ** i * dim_HN_formula(profile, i, "c") for i in range(profile.n + 1))
    raise InputError("which must be 'T' or 'N'")


def theorem3_check(profile: CohomologyProfile) -> tuple[bool, dict]:
    """Verify p*chi(T) - chi(N) = (-1)^n (p-1) d_n, and, when licensed,
    chi(N) = chi_free(N) + (-1)^n d_n, all as exact integer identities.

    On local-field profiles the three dimension variants are also
    required to agree with each other and with the K-groups of the
    extension computed directly.  Returns (passed, entry): every identity
    that applies holds, and the report entry, whose "ok" of an identity
    and "variants_agree" are None where they do not apply.
    """
    p, n = profile.p, profile.n
    chi_T = chi(profile, "T")
    dims = [dim_HN_formula(profile, i, "c") for i in range(n + 1)]
    chi_N = sum((-1) ** i * v for i, v in enumerate(dims))
    d_n = profile.d_at(n)
    a_lhs = p * chi_T - chi_N
    a_rhs = (-1) ** n * (p - 1) * d_n
    variants_agree = None
    if profile.source == "local_field":
        variants_agree = True
        top = profile.ext.top
        for i in range(1, n + 1):
            direct = k_group(top, i).dim
            va = dim_HN_formula(profile, i, "a")
            agree = dims[i] == direct and va == dims[i]
            try:
                vb = dim_HN_formula(profile, i, "b")
                agree = agree and vb == dims[i]
            except InputError:
                pass  # unlicensed p = 2 instance
            variants_agree = variants_agree and agree
    b_lhs = b_rhs = b_ok = None
    chi_free = _chi_free(profile)
    if chi_free is not None:
        b_lhs, b_rhs = chi_N, chi_free + (-1) ** n * d_n
        b_ok = b_lhs == b_rhs
    passed = a_lhs == a_rhs and b_ok is not False and variants_agree is not False
    return passed, {
        "profile": profile.as_dict(),
        "chi_T": chi_T,
        "chi_N": chi_N,
        "chi_free_N": chi_free,
        "dim_HN": dims,
        "identity_a": {"lhs": a_lhs, "rhs": a_rhs, "ok": a_lhs == a_rhs},
        "identity_b": {"lhs": b_lhs, "rhs": b_rhs, "ok": b_ok},
        "variants_agree": variants_agree,
        "status": "pass" if passed else "fail",
    }


def _chi_free(profile: CohomologyProfile) -> int | None:
    """chi_free(N) = p * sum (-1)^i (a_i - d_{i-1}) over i = 1..n, or None
    where the free formula is not licensed."""
    try:
        if not profile.licensed_for_free_formula():
            return None
    except InputError:
        return None
    return profile.p * sum(
        (-1) ** i * (profile.a_at(i) - profile.d_at(i - 1)) for i in range(1, profile.n + 1)
    )


MAX_CLASSES = 3906  # the class count of the largest preset, Q5(zeta_5)


def enumerate_extension_classes(field: LocalField) -> list[tuple]:
    """The key of every Kummer extension class of the field, one per line
    of k_1, in the order of its classes; milnor.get_extension builds the
    top of a class from its key, so none is built here.

    The count is (p^dim - 1)/(p - 1); above dimension 8 or MAX_CLASSES
    classes it is refused.
    """
    grp = k_group(field, 1)
    expected = (field.p**grp.dim - 1) // (field.p - 1)
    if grp.dim > 8 or expected > MAX_CLASSES:
        raise UnsupportedOperationError(
            f"enumerating {expected} extensions is above the supported size"
        )
    keys = list(dict.fromkeys(
        _class_key(field, v) for v in Subspace.full(field.p, grp.dim).vectors() if v.any()
    ))
    if len(keys) != expected:
        raise MathCheckError(f"enumerated {len(keys)} extensions, expected {expected}")
    return keys


def corollary_checks(profiles: list[CohomologyProfile]) -> tuple[bool, dict]:
    """Per profile, the equivalence of chi_n(N) = p chi_n(T) with the
    surjectivity of corestriction (d_n = 0), plus the aggregate probe:
    doubling for every subgroup detects cohomological dimension <= n.
    Returns (passed, entry): every equivalence holds, and the report entry
    with one row per profile; the probe is reported, not checked."""
    if not profiles:
        raise InputError("corollary checks need at least one profile")
    n = profiles[0].n
    rows = []
    for prof in profiles:
        if prof.n != n:
            raise InputError("profiles must share the top degree")
        p = prof.p
        chi_T = chi(prof, "T")
        chi_N = chi(prof, "N")
        doubles = chi_N == p * chi_T
        cor_onto = prof.d_at(n) == 0
        row = {
            "label": prof.label,
            "chi_T": chi_T,
            "chi_N": chi_N,
            "d_n": prof.d_at(n),
            "chi_doubles": doubles,
            "cor_surjective": cor_onto,
            "equivalence_ok": doubles == cor_onto,
        }
        chi_free = _chi_free(prof)
        if chi_free is not None:
            row["chi_free"] = chi_free
            row["free_equivalence_ok"] = (chi_N == chi_free) == doubles
        rows.append(row)
    equivalences_ok = all(r["equivalence_ok"] for r in rows)
    return equivalences_ok, {
        "n": n,
        "count": len(rows),
        "per_subgroup": rows,
        "equivalences_ok": equivalences_ok,
        "all_doubling": all(r["chi_doubles"] for r in rows),
    }
