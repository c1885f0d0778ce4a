"""The span recorder's contract with the code it wraps.

``perfbench/spans.py`` wraps the functions named in its TARGETS from the
outside, and its self-test requires every target outside IDLE_ON_Q2 to
record a call on a cold ``verify --preset Q2``.  A target that loses its
last Q2 caller, or a path that no longer resolves, fails every traced
benchmark run; this test catches both without reading any clock.  The
recorder patches the knorm modules it finds, so it runs in a subprocess.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1] + "/perfbench", sys.argv[1] + "/src"]
import importlib, spans
from selftest import IDLE_ON_Q2
from knorm import cli

unresolved = []
for _, modname, path, _ in spans.TARGETS:
    obj = importlib.import_module("knorm." + modname)
    for attr in path.split("."):
        obj = getattr(obj, attr, None)
    if obj is None:
        unresolved.append(modname + "." + path)
rc, idle = None, None
if not unresolved:
    tracer = spans.Tracer()
    tracer.install()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["verify", "--preset", "Q2", "--json"])
    idle = [name for name, a in tracer.aggregate().items()
            if a["calls"] == 0 and name not in IDLE_ON_Q2]
print(json.dumps({"rc": rc, "unresolved": unresolved, "idle": idle,
                  "targets": len(spans.TARGETS)}))
"""


def test_every_span_target_resolves_and_records_a_call_on_q2():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["targets"] > 0
    assert result["unresolved"] == []
    assert result["rc"] == 0
    assert result["idle"] == []
