"""Benchmark for knorm: time to a verified verdict, per workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload q5-one --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Workloads (see perfbench/README.md for why each was chosen):

- ``q5-one``: ``verify --preset Q5zeta5 --a uniformizer`` (one class, a
  degree-20 ramified top);
- ``q3-all``: ``verify --preset Q3zeta3`` over all 40 classes;
- ``modules``: seeded F_p[C_p]-modules decomposed by ``gmod``.

With ``--trace 0`` the run reports setup_s, verdict_s and peak_rss_mb;
verdict_s is given at a reference host speed measured alongside the
program (see hostclock.py).  With ``--trace 1`` a fresh process reports
the per-layer span metrics.
Every result is checked against a known answer: the golden files under
perfbench/golden for the presets, the generated Jordan type for modules.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# One thread per run: pin native thread pools before NumPy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostclock import HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

PRESETS = {
    "q5-one": ["verify", "--preset", "Q5zeta5", "--a", "uniformizer", "--json"],
    "q3-all": ["verify", "--preset", "Q3zeta3", "--json"],
}
# the run checks the class count against (p^(deg+2) - 1)/(p - 1) here
FULL_ENUMERATION = {"q3-all"}
WORKLOADS = (*PRESETS, "modules")
# the host-speed probe of each workload: the presets spend over 90% of
# their time in padic, modules all of it in gmod and fplin
PROBE = {"q5-one": "padic", "q3-all": "padic", "modules": "fplin"}
# set-up samples taken before and again after the timed passes, so that a
# short burst of load on the machine moves only some of them
SETUP_SAMPLES = 10
# modules batches per seed; every pass decomposes all of them once
MODULE_BATCHES = 4
# the wrapped functions the timer of a pass encloses, for trace.coverage
TIMED = {"preset": ("cli.main",), "modules": ("gmod.GModule", "gmod.decompose")}


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def _import_knorm():
    if not (SRC / "knorm" / "__init__.py").is_file():
        raise BenchError(f"no knorm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import knorm

    if Path(knorm.__file__).resolve().parent != SRC / "knorm":
        raise BenchError(f"imported knorm from {knorm.__file__}, not from {SRC}")
    return knorm


def setup_samples(module: str, count: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until ``module`` is imported,
    once per child, for ``count`` children run one after another."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import {module}; print('ready', flush=True)"
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            rc = proc.wait()
        if rc != 0 or line.strip() != b"ready":
            raise BenchError(f"importing {module} in a fresh interpreter failed (exit {rc})")
        samples.append(t1 - t0)
    return samples


# -- preset workloads -------------------------------------------------------------


def _classes(report: dict) -> int:
    return len({e["euler"]["profile"]["label"] for e in report["results"] if "euler" in e})


def preset_pass(workload: str, golden_data: dict, clock: HostClock) -> tuple[float, int, int]:
    """One ``cli.main`` call: (seconds less probe time, units attempted, units failed)."""
    import golden
    from knorm import cli

    out = io.StringIO()
    probe0, t0 = clock.probe_s, time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(PRESETS[workload])
    except Exception:
        traceback.print_exc()
        rc = None
    verdict = time.perf_counter() - t0 - (clock.probe_s - probe0)
    units = len(golden_data["units"])
    try:
        report = json.loads(out.getvalue())
    except ValueError:
        return verdict, units, units
    run_ok = (
        rc == 0
        and report.get("status") == "pass"
        and _classes(report) == golden_data["classes"]
        and (workload not in FULL_ENUMERATION
             or golden_data["classes"] == golden.expected_class_count(report))
    )
    if not run_ok:
        print(f"{workload}: exit {rc}, status {report.get('status')}, "
              f"{_classes(report)} classes", file=sys.stderr)
        return verdict, units, units
    failed = golden.failed_units(report, golden_data)
    if failed:
        print(f"{workload}: failed units {failed}", file=sys.stderr)
    return verdict, units, len(failed)


def _load_golden(workload: str) -> dict:
    return json.loads((HERE / "golden" / f"{workload}.json").read_text())


# -- modules workload -------------------------------------------------------------


def _module_inputs(seed: int) -> list:
    import modgen

    return [m for index in range(MODULE_BATCHES) for m in modgen.make_batch(seed, index)]


def modules_pass(modules, check_summands: bool, clock: HostClock) -> tuple[float, int, int]:
    """Decompose and check every module once.

    Only building the module and ``decompose`` are timed, less the probe
    time that falls inside; the checks run after the timer stops.
    ``verify_exclusion``, which costs more than the decomposition, runs
    only when ``check_summands`` is set.  Returns (seconds, modules
    attempted, modules failed).
    """
    from knorm import gmod

    failed = 0
    seconds = 0.0
    for p, sigma, mult in modules:
        probe0, t0 = clock.probe_s, time.perf_counter()
        try:
            m = gmod.GModule(p, sigma)
            dec = gmod.decompose(m)
        except Exception:
            m = dec = None
            traceback.print_exc()
        seconds += time.perf_counter() - t0 - (clock.probe_s - probe0)
        try:
            ok = dec is not None and (
                list(dec.profile.multiplicities) == mult
                and list(gmod.multiplicity_oracle(m).multiplicities) == mult
                and (not check_summands
                     or gmod.verify_exclusion(list(dec.summand_bases.values()), m))
            )
        except Exception:
            traceback.print_exc()
            ok = False
        failed += not ok
    return seconds, len(modules), failed


# -- runs -------------------------------------------------------------------------


def _passes(workload: str, seed: int, seconds: float, clock: HostClock):
    """Yield the result of successive passes until time is up.

    A pass starts only if the median pass so far still fits in the time
    left, so a run never overshoots by a whole extra pass; at least one
    pass always runs.
    """
    golden_data = _load_golden(workload) if workload in PRESETS else None
    modules = None if golden_data else _module_inputs(seed)
    start = time.perf_counter()
    walls: list[float] = []
    while not walls or time.perf_counter() - start + statistics.median(walls) <= seconds:
        t0 = time.perf_counter()
        if golden_data is not None:
            result = preset_pass(workload, golden_data, clock)
        else:
            result = modules_pass(modules, not walls, clock)
        walls.append(time.perf_counter() - t0)
        yield result


def program_s(workload: str, results) -> float:
    """Mean time of one pass, or for ``modules`` of one batch, less probes."""
    batches = 1 if workload in PRESETS else MODULE_BATCHES
    return sum(r[0] for r in results) / len(results) / batches


def _contexts(workload: str) -> int:
    return len(_load_golden(workload)["units"]) if workload in PRESETS else 0


def run_plain(workload: str, seed: int, seconds: float) -> dict:
    _import_knorm()
    module = "knorm.cli" if workload in PRESETS else "knorm.gmod"
    setup_samples(module, 1)  # writes the byte-code caches; not counted
    setups = setup_samples(module, SETUP_SAMPLES)
    cpu0, wall0 = time.process_time(), time.perf_counter()
    with HostClock(PROBE[workload]) as clock:
        results = list(_passes(workload, seed, seconds, clock))
    cpu_share = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
    wall = program_s(workload, results)
    setups += setup_samples(module, SETUP_SAMPLES)
    attempted = sum(r[1] for r in results)
    failed = sum(r[2] for r in results)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "verdict_s": {"value": clock.scaled(wall), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }
    print(f"{workload} seed {seed}: {len(results)} pass(es), fail_frac {failed / attempted:.4g} "
          f"({failed}/{attempted} {'units' if workload in PRESETS else 'modules'}), "
          f"cpu/wall {cpu_share:.3f}, wall verdict {wall:.4g} s, "
          f"{clock.probes} probes of {clock.probe_s / clock.probes * 1e3:.3f} ms")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    """Untraced pass(es), then the same inputs traced, in this one process.

    No probe runs here: its time would sit outside every wrapped call."""
    import selftest
    import spans

    _import_knorm()
    idle = HostClock(PROBE[workload])  # never started: traced runs make no probes
    if workload in PRESETS:
        golden_data = _load_golden(workload)

        def rerun():
            return [preset_pass(workload, golden_data, idle)]

        plain = rerun()
    else:
        plain = list(_passes(workload, seed, seconds / 2, idle))

        modules = _module_inputs(seed)

        def rerun():
            return [modules_pass(modules, i == 0, idle) for i in range(len(plain))]

    tracer = spans.Tracer()
    tracer.install()
    problems = selftest.check(tracer)
    for problem in problems:
        print(f"self-test: {problem}", file=sys.stderr)
    tracer.reset()
    traced = rerun()
    tracer.write(ROOT / ".bench_build" / "perfbench" / f"trace-{workload}-seed{seed}.npz")
    traced_s = sum(r[0] for r in traced)
    metrics = spans.per_layer_metrics(
        tracer, TIMED["preset" if workload in PRESETS else workload], traced_s,
        sum(r[0] for r in plain), _contexts(workload) * len(traced),
    )
    results = plain + traced
    attempted = sum(r[1] for r in results)
    failed = sum(r[2] for r in results)
    print(f"{workload} seed {seed}: traced {traced_s:.3f} s, overhead "
          f"{metrics['trace.overhead']['value']:.3f}, coverage {metrics['trace.coverage']['value']:.4f}, "
          f"padic self share {metrics['padic.self_s']['value'] / traced_s:.3f}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def spawn(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    """One run in a fresh process of this script: its result and the lines
    it printed before the result."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload {workload} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1]), lines[:-1]


def run_all(seed: int, seconds: int, trace: int) -> dict:
    """Every workload, one fresh process each, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result, lines = spawn(workload, seed, seconds, trace)
        print("\n".join(lines))
        for name, metric in result["metrics"].items():
            print(f"  {workload:8s} {name:44s} {metric['value']:>14.6g} {metric['unit']}")
            summary["metrics"][f"{workload}.{name}"] = metric
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, args.trace)
        elif args.trace:
            result = run_traced(args.workload, args.seed, args.seconds)
        else:
            result = run_plain(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
