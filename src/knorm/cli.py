"""Command-line front end.

Subcommands: field, kgroup, invariants, decompose, euler, verify.
Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 bad
input, 3 precision exhausted, 4 internal error: any other exception,
such as a MemoryError, which prints one line on stderr, naming the
extension and suite it was raised in, and no traceback.  Reports go to
stdout, human-readable by default and as a JSON document with --json,
written piece by piece once the run has ended; a run that raises writes
nothing to stdout.

verify and euler run class by class: each class's top is built on its
turn (milnor.get_extension), every selected suite and degree runs on
it, and then it is dropped (milnor.drop_extension) before the next
class comes up.  The report still lists its results suite by suite, in
the order of the classes.  So when two classes would fail, the error
named is that of the first class to fail, whichever its suite, not the
first failure of the earliest suite.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InputError, KnormError, MathCheckError, PrecisionError
from .euler import (
    corollary_checks,
    enumerate_extension_classes,
    profile_from_field,
    profile_from_manual,
    theorem3_check,
)
from .milnor import (
    CD,
    drop_extension,
    get_extension,
    k_group,
    projection_formula_check,
    release_caches,
    verify_hilbert90,
    verify_voevodsky_seq,
)
from .padic import LocalField, PadicElement
from .presets import FIELD_PRESETS
from .structure import (
    check_canonical,
    check_lemma_VW,
    check_theorem_items,
    compute_invariants,
    decompose_knE,
)

EXIT_PASS = 0
EXIT_MATH_FAIL = 1
EXIT_INPUT = 2
EXIT_PRECISION = 3
EXIT_INTERNAL = 4

COMPLEMENT_RULE = "echelon-pivot-v1"

DEGREES = tuple(range(1, CD + 2))  # by default, up to the first where k_* vanishes


def _json_default(obj):
    """The JSON form of the NumPy scalars and arrays a report may hold."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


# the renderer of a scalar leaf, by its exact type, as json.dumps renders it
_scalar = {
    str: _quote,
    int: repr,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}.get


def _to_json(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, indent=2, default=_json_default)`` at the depth
    that ``pad`` indents, for dicts with string keys, as every report has.
    Nonempty dicts and lists are rendered here, and their scalar leaves by
    one lookup in _scalar, with no call of _to_json per leaf: about twice
    as fast as json's pure-Python indenting encoder.  json renders the
    rest."""
    kind, inner = type(obj), pad + "  "
    if kind is dict and obj:
        items = [f"{_quote(k)}: {(r(v) if (r := _scalar(type(v))) else _to_json(v, inner))}"
                 for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if (kind is list or kind is tuple) and obj:
        items = [r(v) if (r := _scalar(type(v))) else _to_json(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if r := _scalar(kind):
        return r(obj)
    return json.dumps(obj, indent=2, default=_json_default).replace("\n", pad)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knorm",
        description="Galois module structure of mod-p Milnor K-groups of local fields",
    )
    parser.add_argument("--version", action="version", version=f"knorm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, a_flag=True, n_flag=True):
        p.add_argument("--spec", help="field spec: a JSON file path or inline JSON")
        p.add_argument("--preset", choices=sorted(FIELD_PRESETS), help="named field")
        p.add_argument(
            "--precision",
            type=int,
            help="working precision in uniformizer digits; its margin over the "
            "default applies to every derived field",
        )
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        if a_flag:
            p.add_argument(
                "--a",
                help="extension element: an integer, 'uniformizer', 'zeta', "
                "or a JSON digit list",
            )
        if n_flag:
            p.add_argument("--n", type=int, nargs="+", help="degrees to process")

    common(sub.add_parser("field", help="field summary"), a_flag=False, n_flag=False)
    common(sub.add_parser("kgroup", help="K-group dimensions and bases"), a_flag=False)
    common(sub.add_parser("invariants", help="the six invariants per degree"))
    common(sub.add_parser("decompose", help="module decomposition report"))
    euler_p = sub.add_parser("euler", help="Euler-characteristic identities")
    common(euler_p)
    euler_p.add_argument("--manual", help="manual cohomology profile (inline JSON)")
    verify_p = sub.add_parser("verify", help="run a verification suite")
    common(verify_p)
    verify_p.add_argument(
        "--suite",
        choices=["canonical", "sequences", "euler", "all"],
        default="all",
    )
    verify_p.add_argument("--manual", help="manual cohomology profile (inline JSON)")
    return parser


def _load_field(args) -> LocalField:
    if getattr(args, "preset", None) and getattr(args, "spec", None):
        raise InputError("give either --preset or --spec, not both")
    if getattr(args, "preset", None):
        spec = dict(FIELD_PRESETS[args.preset])
    elif getattr(args, "spec", None):
        text = args.spec
        try:
            if Path(text).is_file():
                text = Path(text).read_text()
        except OSError:
            pass  # too long to name a file, or unreadable: parsed as inline JSON
        except UnicodeDecodeError as exc:
            raise InputError(f"field spec file is not UTF-8 text: {exc.reason}") from exc
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"unparseable field spec: {exc}") from exc
        if not isinstance(spec, dict):  # before --precision is merged in
            raise InputError("field spec must be an object with a 'p' entry")
    else:
        raise InputError("a field is required: --preset NAME or --spec JSON")
    if getattr(args, "precision", None) is not None:
        spec = dict(spec)
        spec["precision"] = args.precision
    args.loaded_field = LocalField.from_spec(spec)
    return args.loaded_field


def _resolve_a(field: LocalField, text: str) -> PadicElement:
    if text is None:
        raise InputError("this command needs an extension element: --a VALUE")
    if text == "uniformizer":
        return field.pi
    if text == "zeta":  # every command checked that the field has one
        return field.zeta
    try:
        a = field.element(int(text))
    except ValueError:
        try:
            digits = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"cannot parse the extension element {text!r}: {exc}") from exc
        if not isinstance(digits, list):
            raise InputError("a JSON extension element must be a digit list")
        a = field.element(digits)
    if a.is_zero():
        raise InputError("the extension element must be nonzero")
    return a


def _degrees(args, default=DEGREES) -> list[int]:
    degrees = getattr(args, "n", None) or list(default)
    for n in degrees:
        if not 0 <= n <= 4:
            raise InputError(f"degree {n} outside the supported range 0..4")
    return list(degrees)


def _field_summary(field: LocalField) -> dict:
    info = field.describe()
    if not field.has_mu_p:
        raise InputError("primitive p-th root of unity required")
    grp = k_group(field, 1)
    info["dim_k1"] = grp.dim
    info["k1_basis"] = grp.labels
    info["ramified"] = field.e > 1
    return info


def _report_skeleton(field_info: dict | None) -> dict:
    return {
        "version": __version__,
        "complement_rule": COMPLEMENT_RULE,
        "field": field_info,
        "results": [],
        "status": "pass",
    }


def _emit(report: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        _write_json(report, sys.stdout.write)
    else:
        for line in lines:
            print(line)


def _write_json(report: dict, write) -> None:
    """Write the bytes of ``print(_to_json(report))`` through ``write``, for
    a nonempty report, one top-level value, or one item of a top-level
    list, at a time: the document is never held as one string."""
    sep = "{\n  "
    for key, value in report.items():
        write(f"{sep}{_quote(key)}: ")
        sep = ",\n  "
        if type(value) in (list, tuple) and value:
            lead = "[\n    "
            for item in value:
                write(lead)
                write(_to_json(item, "\n    "))
                lead = ",\n    "
            write("\n  ]")
        else:
            write(_to_json(value, "\n  "))
    write("\n}\n")


def _field_report(args) -> tuple[LocalField, dict]:
    """The loaded field and a report skeleton carrying its summary."""
    field = _load_field(args)
    return field, _report_skeleton(_field_summary(field))


def cmd_field(args) -> int:
    _, report = _field_report(args)
    info = report["field"]
    lines = [
        f"p = {info['p']}, degree {info['degree']} over Q{info['p']} "
        f"(e = {info['e']}, f = {info['f']})",
        f"precision: {info['precision']} uniformizer digits",
        f"contains mu_p: {info['has_mu_p']}",
        f"dim k1 = {info['dim_k1']}, basis [{', '.join(info['k1_basis'])}]",
    ]
    _emit(report, args.json, lines)
    return EXIT_PASS


def cmd_kgroup(args) -> int:
    field, report = _field_report(args)
    lines = []
    for n in _degrees(args, default=(0, *DEGREES)):
        grp = k_group(field, n)
        entry = {"n": n, "dim": grp.dim, "basis": grp.labels}
        report["results"].append(entry)
        lines.append(f"k{n}: dim {grp.dim}" + (f", basis [{', '.join(grp.labels)}]" if grp.labels else ""))
    _emit(report, args.json, lines)
    return EXIT_PASS


def cmd_invariants(args) -> int:
    field, report = _field_report(args)
    ext = get_extension(field, _resolve_a(field, args.a))
    lines = [f"extension by {ext.label}"]
    ok = True
    for n in _degrees(args):
        inv = compute_invariants(ext, n)
        entry = {"a": ext.label, **inv.as_dict()}
        failed = [name for name, holds in inv.relations() if not holds]
        if failed:  # a passing entry names no relation
            entry["failed"] = failed
        report["results"].append(entry)
        d, e, u1, u2, y, z = inv.as_tuple()
        lines.append(f"n={n}: (d, e, u1, u2, y, z) = ({d}, {e}, {u1}, {u2}, {y}, {z})")
        lines += [f"   FAILED: {name}" for name in failed]
        ok = ok and not failed
    report["status"] = "pass" if ok else "fail"
    _emit(report, args.json, lines)
    return EXIT_PASS if ok else EXIT_MATH_FAIL


def cmd_decompose(args) -> int:
    field, report = _field_report(args)
    ext = get_extension(field, _resolve_a(field, args.a))
    lines = [f"extension by {ext.label}"]
    ok = True
    for n in _degrees(args):
        rep = decompose_knE(ext, n)
        passed, checks = check_theorem_items(rep)
        report["results"].append({"a": ext.label, **rep.as_dict(), "checks": checks})
        ok = ok and passed
        dims = rep.summand_dims()
        lines.append(
            f"n={n}: X1 dim {dims['X1']}, X2 summands {dims['X2_summands']}, "
            f"Y rank {dims['Y_rank']}, Z dim {dims['Z']}"
            f" | checks {'pass' if passed else 'FAIL'}"
        )
        lines += _failures(checks)
    return _finish(args, report, lines, ok)


def _failures(checks: list[dict]) -> list[str]:
    """The text lines of the failed items of a checklist entry."""
    return [f"   FAILED: {c['name']} {c.get('detail', '')}" for c in checks if not c["passed"]]


@contextmanager
def _naming(ext, suite: str):
    """An error raised inside names the extension and the suite on stderr."""
    try:
        yield
    except Exception as exc:
        exc.where = f"a={ext.label}, suite {suite}"
        raise


def _where(exc: Exception) -> str:
    """The extension and suite an error names, if any, as a suffix."""
    return f" [{exc.where}]" if hasattr(exc, "where") else ""


def _classes(field: LocalField, args) -> list:
    """The element named by --a, or the key of every extension class of
    the field: what get_extension takes, with no top built yet."""
    if args.a:
        return [_resolve_a(field, args.a)]
    return enumerate_extension_classes(field)


def _each_extension(field: LocalField, classes):
    """The extension of each class, built on its turn and dropped when the
    caller asks for the next one."""
    for cls in classes:
        ext = get_extension(field, cls)
        yield ext
        drop_extension(ext)


def _finish(args, report: dict, lines: list[str] | None, ok: bool) -> int:
    """Set the status and print the report; ``lines`` is read only without --json."""
    report["status"] = "pass" if ok else "fail"
    if not args.json:
        lines.append(f"status: {report['status']}")
    _emit(report, args.json, lines)
    return EXIT_PASS if ok else EXIT_MATH_FAIL


def _run_manual(args) -> int:
    try:
        spec = json.loads(args.manual)
    except json.JSONDecodeError as exc:
        raise InputError(f"unparseable manual profile: {exc}") from exc
    passed, entry = theorem3_check(profile_from_manual(spec))
    report = _report_skeleton(None)
    report["results"].append(entry)
    report["status"] = "pass" if passed else "fail"
    _emit(report, args.json, [
        f"manual profile: chi_T = {entry['chi_T']}, chi_N = {entry['chi_N']}, "
        f"status {'pass' if passed else 'FAIL'}"
    ])
    return EXIT_PASS if passed else EXIT_MATH_FAIL


def _euler_class(ext, degrees, rows) -> None:
    """Append to rows[i] the profile of ext in degrees[i] and its identity
    check, as (profile, passed, entry).  The kept profile holds no
    extension, since the corollary reads only its numbers."""
    with _naming(ext, "euler"):
        for row, n in zip(rows, degrees):
            prof = profile_from_field(ext, n)
            row.append((prof, *theorem3_check(prof)))
            prof.ext = None


def _corollary(profs):
    """The verdict and entry of the corollary checks over the profiles, and
    the line that sums up the doubling probe."""
    passed, entry = corollary_checks(profs)
    doubling = (
        f"chi doubles for {sum(r['chi_doubles'] for r in entry['per_subgroup'])}"
        f"/{entry['count']} subgroups"
        + ("  (consistent with cd <= n)" if entry["all_doubling"] else "")
    )
    return passed, entry, doubling


def cmd_euler(args) -> int:
    if args.manual:
        return _run_manual(args)
    field, report = _field_report(args)
    degrees = _degrees(args, default=(2,))
    rows = [[] for _ in degrees]
    for ext in _each_extension(field, _classes(field, args)):
        _euler_class(ext, degrees, rows)
    lines: list[str] = []
    ok = True
    for n, row in zip(degrees, rows):
        for prof, passed, entry in row:
            report["results"].append(entry)
            lines.append(
                f"n={n} a={prof.label}: chi_T = {entry['chi_T']}, chi_N = {entry['chi_N']}, "
                f"{'pass' if passed else 'FAIL'}"
            )
            ok = ok and passed
        if len(row) > 1:
            passed, entry, doubling = _corollary([prof for prof, _, _ in row])
            report["results"].append({"corollary": entry})
            lines.append(f"n={n}: {doubling}")
            ok = ok and passed
    return _finish(args, report, lines, ok)


def _verify_canonical(ext, degrees, results, lines) -> bool:
    """The canonical suite on ext; ``lines`` is None under --json."""
    ok = True
    for n in degrees:
        checks = {
            "decomposition": check_theorem_items(decompose_knE(ext, n)),
            "canonical": check_canonical(ext, n),
            "complements": check_lemma_VW(ext, n),
        }
        results.append({"a": ext.label, "n": n, **{k: entry for k, (_, entry) in checks.items()}})
        good = all(passed for passed, _ in checks.values())
        ok = ok and good
        if lines is not None:
            lines.append(f"canonical a={ext.label} n={n}: {'pass' if good else 'FAIL'}")
            for _, entry in checks.values():
                lines += _failures(entry)
    return ok


def _verify_sequences(ext, degrees, results, lines) -> bool:
    """The sequences suite on ext; ``lines`` is None under --json."""
    label = ext.label
    twisted = sorted(set(min(n, CD + 1) for n in degrees) | {0})
    runs = [("hilbert90", verify_hilbert90(ext, n)) for n in twisted]
    runs += [("four_term", verify_voevodsky_seq(ext, m)) for m in DEGREES]
    runs.append(("projection_formula", projection_formula_check(ext)))
    results += [{"a": label, key: entry} for key, (_, entry) in runs]
    if lines is not None:
        names = ([f"twisted-norm a={label} n={n}" for n in twisted]
                 + [f"four-term a={label} m={m}" for m in DEGREES]
                 + [f"projection formula a={label}"])
        lines += [f"{name}: {'pass' if passed else 'FAIL'}"
                  for name, (_, (passed, _)) in zip(names, runs)]
    return all(passed for _, (passed, _) in runs)


def cmd_verify(args) -> int:
    if args.manual:
        return _run_manual(args)
    field, report = _field_report(args)
    degrees = _degrees(args)
    classes = _classes(field, args)
    lines = None if args.json else [
        f"verifying {len(classes)} extension(s), degrees {degrees}, suite {args.suite}"]
    # per suite, the results and text lines of every class so far
    suites = [(suite, run, [], None if lines is None else [])
              for suite, run in (("canonical", _verify_canonical), ("sequences", _verify_sequences))
              if args.suite in (suite, "all")]
    rows = [[] for _ in degrees] if args.suite in ("euler", "all") else []
    ok = True
    for ext in _each_extension(field, classes):
        for suite, run, results, text in suites:
            with _naming(ext, suite):
                ok = run(ext, degrees, results, text) and ok
        _euler_class(ext, degrees, rows)
    for _, _, results, text in suites:
        report["results"] += results
        if lines is not None:
            lines += text
    for n, row in zip(degrees, rows):
        passed, entry, doubling = _corollary([prof for prof, _, _ in row])
        report["results"] += [{"euler": e} for _, _, e in row]
        report["results"].append({"corollary": entry})
        good = all(p for _, p, _ in row) and passed
        if lines is not None:
            lines.append(f"euler n={n}: identities {'pass' if good else 'FAIL'}; {doubling}")
        ok = ok and good
    return _finish(args, report, lines, ok)


_COMMANDS = {
    "field": cmd_field,
    "kgroup": cmd_kgroup,
    "invariants": cmd_invariants,
    "decompose": cmd_decompose,
    "euler": cmd_euler,
    "verify": cmd_verify,
}


# built on import rather than in main, so that main's own time (which the
# span recorder cannot attribute to a layer) stays a small share of a run
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching the input-error code
        return int(exc.code) if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}{_where(exc)}", file=sys.stderr)
        return EXIT_INPUT
    except PrecisionError as exc:
        print(f"precision error: {exc}{_where(exc)}", file=sys.stderr)
        return EXIT_PRECISION
    except MathCheckError as exc:
        print(f"mathematical check failed: {exc}{_where(exc)}", file=sys.stderr)
        return EXIT_MATH_FAIL
    except KnormError as exc:  # pragma: no cover
        print(f"error: {exc}{_where(exc)}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}{_where(exc)}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if getattr(args, "loaded_field", None) is not None:
            release_caches(args.loaded_field)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
