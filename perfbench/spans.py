"""Outside-in span recorder for knorm.

The recorder wraps the public functions of each knorm module from the
outside: nothing in ``src/knorm`` changes.  A module-level function is
rebound in every knorm module that holds it, so names brought in with
``from ... import`` are wrapped too; a method is rebound on its class
under every attribute that names it (``__mul__`` and ``__rmul__``).

Each call records one span: name, start, end and the index of the
enclosing span.  Spans stay in memory in flat arrays and are written out
once, when the run ends.  A span's self time is its duration minus the
durations of its direct children; a function's total time counts only
its outermost spans, so recursion is not counted twice.

``trace.coverage`` is the share of the traced verdict that the wrapped
functions below the benchmark's entry point account for: the time of the
timed top-level spans, less the self time of ``cli.main``.  Work that
``cli.main`` does outside every wrapped call, such as a layer function
called through a name the recorder missed, lowers it.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("padic", "milnor", "fplin", "gmod", "structure", "euler", "cli")

# (metric name, module, attribute path, record total time)
TARGETS = [
    ("padic.k1_coords", "padic", "LocalField.k1_coords", True),
    ("padic.k1_structure", "padic", "LocalField.k1_structure", True),
    ("padic.residue_of", "padic", "LocalField.residue_of", False),
    ("padic.teichmueller", "padic", "LocalField.teichmueller", False),
    ("padic.k1_element", "padic", "LocalField.k1_element", False),
    ("padic.is_pth_power", "padic", "LocalField.is_pth_power", False),
    ("padic.valuation", "padic", "PadicElement.valuation", False),
    ("padic.mul", "padic", "PadicElement.__mul__", False),
    ("padic.KummerExtension", "padic", "KummerExtension.__init__", True),
    ("padic.norm_down", "padic", "KummerExtension.norm_down", False),
    ("padic.sigma", "padic", "KummerExtension.sigma", False),
    ("padic.from_spec", "padic", "LocalField.from_spec", True),
    ("milnor.class_of", "milnor", "class_of", True),
    ("milnor.get_extension", "milnor", "get_extension", False),
    ("milnor.norm_subgroup", "milnor", "norm_subgroup", True),
    ("milnor.symbol", "milnor", "symbol", True),
    ("milnor.cup_with", "milnor", "cup_with", False),
    ("milnor.sigma_map", "milnor", "sigma_map", True),
    ("milnor.norm_map", "milnor", "norm_map", True),
    ("milnor.restriction_map", "milnor", "restriction_map", True),
    ("milnor.k1_group", "milnor", "k1_group", False),
    ("milnor.verify_hilbert90", "milnor", "verify_hilbert90", True),
    ("milnor.verify_voevodsky_seq", "milnor", "verify_voevodsky_seq", True),
    ("milnor.projection_formula_check", "milnor", "projection_formula_check", True),
    ("fplin.rref", "fplin", "rref", False),
    ("fplin.Subspace", "fplin", "Subspace.__init__", False),
    ("fplin.kernel_image", "fplin", "kernel_image", False),
    ("fplin.intersect_and_sum", "fplin", "intersect_and_sum", False),
    ("fplin.complement", "fplin", "complement", False),
    ("gmod.GModule", "gmod", "GModule.__init__", False),
    ("gmod.decompose", "gmod", "decompose", True),
    ("gmod.multiplicity_oracle", "gmod", "multiplicity_oracle", False),
    ("gmod.verify_exclusion", "gmod", "verify_exclusion", False),
    ("structure.compute_invariants", "structure", "compute_invariants", True),
    ("structure.decompose_knE", "structure", "decompose_knE", True),
    ("structure.check_theorem_items", "structure", "check_theorem_items", True),
    ("structure.check_canonical", "structure", "check_canonical", True),
    ("structure.check_lemma_VW", "structure", "check_lemma_VW", True),
    ("euler.enumerate_extension_classes", "euler", "enumerate_extension_classes", True),
    ("euler.profile_from_field", "euler", "profile_from_field", True),
    ("euler.theorem3_check", "euler", "theorem3_check", False),
    ("euler.corollary_checks", "euler", "corollary_checks", False),
    ("cli.main", "cli", "main", True),
]


def _rref_cells(args, kwargs) -> int:
    shape = np.shape(args[0] if args else kwargs["mat"])
    return int(shape[0] * shape[1]) if len(shape) == 2 else 0


# computed work counts, taken from a wrapped function's arguments
WORK = {"fplin.rref": ("fplin.rref.cells", _rref_cells)}


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = [t[0] for t in TARGETS]
        self.name_id = array("i")
        self.parent = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.work = {counter: 0 for counter, _ in WORK.values()}
        self._stack: list[int] = []
        self._depth = [0] * len(self.names)

    def _wrap(self, nid: int, fn):
        name = self.names[nid]
        work = WORK.get(name)
        name_id, parent, outer = self.name_id, self.parent, self.outer
        start, end, stack, depth = self.start, self.end, self._stack, self._depth
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if work is not None:
                tracer.work[work[0]] += work[1](args, kwargs)
            idx = len(start)
            d = depth[nid]
            depth[nid] = d + 1
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            outer.append(d == 0)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[nid] = d
                start[idx] = t0
                end[idx] = t1

        return wrapper

    def install(self) -> None:
        """Wrap every target.  Call once per process."""
        import knorm.cli  # noqa: F401  (loads every layer)

        modules = [m for n, m in sorted(sys.modules.items()) if n == "knorm" or n.startswith("knorm.")]
        for nid, (_, modname, path, _) in enumerate(TARGETS):
            home = sys.modules[f"knorm.{modname}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self._wrap(nid, raw.__func__)))
                    continue
                wrapped = self._wrap(nid, raw)
                for key, val in list(vars(cls).items()):
                    if val is raw:
                        setattr(cls, key, wrapped)
            else:
                raw = getattr(home, path)
                wrapped = self._wrap(nid, raw)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is raw:
                            setattr(mod, key, wrapped)

    def reset(self) -> None:
        """Drop recorded spans, keeping the arrays the wrappers append to."""
        for arr in (self.name_id, self.parent, self.outer, self.start, self.end):
            del arr[:]
        for key in self.work:
            self.work[key] = 0
        self._stack.clear()
        self._depth[:] = [0] * len(self.names)

    def aggregate(self) -> dict:
        """Per-name calls, self time, outermost total time and the time of
        top-level spans (those with no wrapped caller)."""
        ids = np.array(self.name_id, dtype=np.int32)
        par = np.array(self.parent, dtype=np.int32)
        out = np.array(self.outer, dtype=np.int8)
        dur = np.array(self.end) - np.array(self.start)
        child = np.zeros_like(dur)
        has_parent = par >= 0
        np.add.at(child, par[has_parent], dur[has_parent])
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        self_s = np.bincount(ids, weights=dur - child, minlength=n)
        total_s = np.bincount(ids, weights=dur * out, minlength=n)
        top_s = np.bincount(ids, weights=dur * ~has_parent, minlength=n)
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                   "total_s": float(total_s[i]), "top_s": float(top_s[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.asarray(self.name_id, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int32),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for name, _, _, total in TARGETS:
        spec += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
        if total:
            spec.append((f"{name}.total_s", "s", "lower"))
    spec += [
        ("milnor.get_extension.hit_ratio", "ratio", "higher"),
        ("fplin.rref.cells", "count", "lower"),
        ("structure.compute_invariants.per_ctx", "count", "lower"),
    ]
    spec += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    spec += [
        ("trace.verdict_s", "s", "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.overhead", "ratio", "lower"),
    ]
    return spec


def coverage(agg: dict, timed: tuple[str, ...], traced_s: float) -> float:
    """``trace.coverage``: the top-level spans of the ``timed`` names, less
    the self time of ``cli.main``, as a share of ``traced_s``."""
    covered = sum(agg[name]["top_s"] for name in timed) - agg["cli.main"]["self_s"]
    return covered / traced_s


def per_layer_metrics(tracer: Tracer, timed: tuple[str, ...], traced_s: float,
                      untraced_s: float, contexts: int) -> dict:
    """Every per-layer metric of one traced pass.

    ``timed`` names the wrapped functions the benchmark's timer encloses;
    ``contexts`` is the number of (extension class, degree) pairs the
    pass verified.  Ratios with a zero base read 0.
    """
    agg = tracer.aggregate()
    values = {}
    for name, _, _, total in TARGETS:
        values[f"{name}.calls"] = agg[name]["calls"]
        values[f"{name}.self_s"] = agg[name]["self_s"]
        if total:
            values[f"{name}.total_s"] = agg[name]["total_s"]
    lookups = agg["milnor.get_extension"]["calls"]
    built = agg["padic.KummerExtension"]["calls"]
    values["milnor.get_extension.hit_ratio"] = 1 - built / lookups if lookups else 0.0
    values["fplin.rref.cells"] = tracer.work["fplin.rref.cells"]
    inv_calls = agg["structure.compute_invariants"]["calls"]
    values["structure.compute_invariants.per_ctx"] = inv_calls / contexts if contexts else 0.0
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            agg[name]["self_s"] for name in agg if name.split(".")[0] == layer
        )
    values["trace.verdict_s"] = traced_s
    values["trace.coverage"] = coverage(agg, timed, traced_s)
    values["trace.overhead"] = traced_s / untraced_s - 1
    units = {name: unit for name, unit, _ in per_layer_spec()}
    return {name: {"value": values[name], "unit": units[name]} for name in units}
