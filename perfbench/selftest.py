"""Self-test of the span recorder on the tiny Q2 preset.

Every wrapped function that ``verify --preset Q2`` reaches must record
at least one call; a name rebound by ``from ... import`` and missed by
the recorder would read zero here.  The wrapped calls below ``cli.main``
must also cover the traced verdict (``trace.coverage`` close to 1), and
the per-layer metric list in BENCHMARK.json must match the recorder's.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent

# wrapped functions that verify does not reach at the seed
IDLE_ON_Q2 = {
    "milnor.k1_group": "the basis certificate runs only in the tests",
    "padic.is_pth_power": "only the basis certificate and the brute-force class oracle call it",
    "gmod.verify_exclusion": "verify does not run the exclusion check",
}
MIN_COVERAGE = 0.95


def check(tracer: spans.Tracer) -> list[str]:
    """Problems found on one traced Q2 verify; empty when the recorder is sound."""
    from knorm import cli

    tracer.reset()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["verify", "--preset", "Q2", "--json"])
    verdict = time.perf_counter() - t0
    agg = tracer.aggregate()
    problems = [] if rc == 0 else [f"verify --preset Q2 exited {rc}"]
    problems += [
        f"{name} recorded no call" for name, a in agg.items()
        if a["calls"] == 0 and name not in IDLE_ON_Q2
    ]
    coverage = spans.coverage(agg, ("cli.main",), verdict)
    if not MIN_COVERAGE <= coverage <= 1:
        problems.append(f"trace.coverage {coverage:.4f} outside [{MIN_COVERAGE}, 1]")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    if listed != spans.per_layer_spec():
        problems.append("BENCHMARK.json per_layer differs from spans.per_layer_spec()")
    return problems


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    tracer = spans.Tracer()
    tracer.install()
    problems = check(tracer)
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
