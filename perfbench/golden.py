"""Golden answers for the preset workloads, cut into units.

A unit is one (extension class, degree) pair of a ``verify --json``
report.  For each unit the golden file holds its Euler profile
(h, a, d), chi_T and chi_N, and the pass flag of every check item that
belongs to it:

- decomposition, canonical and complement items of (class, n);
- the twisted-norm report of degree n and the four-term report of m = n;
- the Euler identities and the corollary row of (class, n);
- checks without a degree (twisted norm at n = 0, projection formula)
  belong to every unit of their class.

Entries of a kind this file does not know are left to the report's
overall status, so a report may grow new checks and still match.

Write a golden file from a saved report:

    python3 perfbench/golden.py REPORT.json perfbench/golden/NAME.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

DEGREES = (1, 2, 3)


def _flags(prefix: str, entry: dict, keys) -> dict:
    return {f"{prefix}/{k}": entry[k] for k in keys if k in entry}


def extract_units(report: dict) -> dict[str, dict]:
    """Map "label|n" to the unit's profile, characteristics and check flags."""
    units: dict[str, dict] = {}
    classwide: dict[str, dict] = {}

    def unit(label: str, n: int) -> dict:
        return units.setdefault(f"{label}|{n}", {"checks": {}})

    for entry in report["results"]:
        if "decomposition" in entry:
            checks = unit(entry["a"], entry["n"])["checks"]
            for section in ("decomposition", "canonical", "complements"):
                for item in entry[section]:
                    checks[f"{section}/{item['name']}"] = item["passed"]
        elif "hilbert90" in entry:
            h90 = entry["hilbert90"]
            flags = _flags("hilbert90", h90, ("image_inside_kernel", "res_after_cor_is_sigma_sum"))
            if h90["n"] in DEGREES:
                unit(entry["a"], h90["n"])["checks"].update(flags)
            else:
                classwide.setdefault(entry["a"], {}).update(
                    {f"{k}@n{h90['n']}": v for k, v in flags.items()}
                )
        elif "four_term" in entry:
            ft = entry["four_term"]
            unit(entry["a"], ft["m"])["checks"].update(
                _flags("four_term", ft, ("norm_image_is_cup_annihilator",
                                         "cup_image_is_restriction_kernel"))
            )
        elif "projection_formula" in entry:
            classwide.setdefault(entry["a"], {}).update(
                {f"projection_formula/{k}": v for k, v in entry["projection_formula"].items()}
            )
        elif "euler" in entry:
            eu = entry["euler"]
            prof = eu["profile"]
            u = unit(prof["label"], prof["n"])
            u.update(h=prof["h"], a=prof["a"], d=prof["d"], chi_T=eu["chi_T"], chi_N=eu["chi_N"])
            u["checks"].update({
                "euler/status": eu["status"] == "pass",
                "euler/identity_a": eu["identity_a"]["ok"],
                "euler/identity_b": eu["identity_b"]["ok"],
                "euler/variants_agree": eu["variants_agree"],
            })
        elif "corollary" in entry:
            cor = entry["corollary"]
            for row in cor["per_subgroup"]:
                u = unit(row["label"], cor["n"])
                u["checks"].update(_flags("corollary", row, ("equivalence_ok", "free_equivalence_ok")))
                u["checks"]["corollary/chi_agrees"] = (row["chi_T"], row["chi_N"]) == (
                    u.get("chi_T"), u.get("chi_N"))
    for key, u in units.items():
        u["checks"].update(classwide.get(key.split("|")[0], {}))
    return units


def expected_class_count(report: dict) -> int:
    """(p^(deg+2) - 1)/(p - 1): the number of lines in k_1 of the base."""
    p, deg = report["field"]["p"], report["field"]["degree"]
    return (p ** (deg + 2) - 1) // (p - 1)


def failed_units(report: dict, golden: dict) -> list[str]:
    """Golden units that the report misses, changes, or fails.

    A unit fails when its profile or characteristics differ from the
    golden file, when a golden check item is missing or reads otherwise,
    or when any check item of the unit in the report is false.
    """
    got = extract_units(report)
    failed = []
    for key, want in golden["units"].items():
        have = got.get(key)
        if have is None:
            failed.append(key)
            continue
        same = all(have.get(k) == want[k] for k in ("h", "a", "d", "chi_T", "chi_N"))
        want_checks = golden["check_sets"][want["checks"]]
        same = same and all(have["checks"].get(k, "missing") == v for k, v in want_checks.items())
        same = same and all(v is not False for v in have["checks"].values())
        if not same:
            failed.append(key)
    return failed


def make_golden(report: dict) -> dict:
    """Golden file contents from a passing report; check sets are shared."""
    if report["status"] != "pass":
        raise ValueError("golden answers come from a passing report only")
    sets: list[dict] = []
    units = {}
    for key, u in sorted(extract_units(report).items()):
        checks = dict(sorted(u["checks"].items()))
        if checks not in sets:
            sets.append(checks)
        units[key] = {k: u[k] for k in ("h", "a", "d", "chi_T", "chi_N")}
        units[key]["checks"] = sets.index(checks)
    return {
        "field": report["field"],
        "classes": len({k.split("|")[0] for k in units}),
        "units": units,
        "check_sets": sets,
    }


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    report = json.loads(Path(argv[0]).read_text())
    Path(argv[1]).write_text(json.dumps(make_golden(report), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
