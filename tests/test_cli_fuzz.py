"""A seeded grammar fuzz of the command line.

Each case is one argv drawn from a grammar over the six subcommands and
their flags: well-formed and malformed field specs, precisions, degrees,
extension elements and manual profiles.  Whatever the input, the run
must exit 0, 1, 2 or 3 (never 4, an internal error), print no traceback,
and end within a few seconds.  Fields that enumerate every class are
Q2-sized; larger fields are reached through a single class, by --a.
The budget is fixed, CASES draws from SEED, so every run tries the same
inputs.
"""

import json
import random
import time

import pytest

from knorm import cli

SEED = 23
CASES = 300
SECONDS = 5.0

# fields small enough to enumerate every class of
SMALL = ['{"p": 2, "steps": []}', '{"p": 2, "steps": [{"kind": "eisenstein", "coeffs": [-2, 0]}]}',
         '{"p": 2, "steps": [{"kind": "unramified", "degree": 2}]}']
# fields run on one class only
LARGER = ['{"p": 3, "steps": [{"kind": "eisenstein", "coeffs": [3, 3]}]}',
          '{"p": 2, "steps": [{"kind": "eisenstein", "coeffs": [-2, 0, 0, 0]}]}']
BAD_JSON = ["{broken", "", "null", '"x"', "[1]", "1", "true", "[]", "{}", '{"p": 2,}', "NaN"]
BAD_P = [0, 1, 4, -3, 2.0, "2", True, None, [2], 65537, 2305843009213693951]
BAD_STEPS = (
    [{}, "x", [1], [None], [{}], [{"kind": "cyclotomic"}], [{"kind": "unramified"}],
     [{"kind": "unramified", "degree": 2, "extra": 1}],
     [{"kind": "eisenstein", "coeffs": [-2, 0], "x": 0}]]
    + [[{"kind": "unramified", "degree": d}] for d in (0, 1, 2.5, "x", None, 65, 200)]
    + [[{"kind": "eisenstein", "coeffs": c}] for c in
       ([], [2], [4, 0], [-2, 1], ["x", 0], [[1], 0], [[[1]], 0], [2, None], "x", [1.5, 0])]
)
PRECISIONS = [18, 30, 36, 0, 3, 145, -1, 10**6]
SPEC_PRECISIONS = [18, 1.5, "x", True, None, -5, 10**30]
DEGREES = ["0", "1", "2", "3", "4", "-1", "5", "x"]
ELEMENTS = ["2", "-1", "3", "5", "6", "10", "uniformizer", "zeta", "[1, 1]", "[0, 1]"]
BAD_ELEMENTS = ["0", "-0", "[1]", "[[1]]", "null", "1.5", "[true]", "[NaN]", "[1e400]", '"x"',
                "{}", "99999999999999999999", "[]", "[[[1]]]", "[1, 1, 1, 1, 1]", ""]
MANUAL_VALUES = [0, 1, 2, 3, -1, 1.5, "a", None, True, [], {}, [1, 2], [1, "a"], 10**20]
MALFORMED = 0.25  # the chance that one ingredient of a case is malformed


def _spec(rng: random.Random) -> str:
    """A malformed field spec."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice(BAD_JSON)
    spec = {"p": rng.choice([2, 3] + BAD_P)}
    if kind == 1:
        spec["steps"] = rng.choice(BAD_STEPS)
    elif kind == 2:
        spec.update(json.loads(rng.choice(SMALL)), precision=rng.choice(SPEC_PRECISIONS))
    else:
        spec = dict(json.loads(rng.choice(SMALL)), steps=[{"kind": "unramified", "degree": 2}] * 8)
    return json.dumps(spec)


def _manual(rng: random.Random) -> str:
    if rng.random() < 0.2:
        return rng.choice(BAD_JSON)
    profile = {"p": 2, "n": 1, "h": [1, 3], "a": [2], "minus_one_norm": True, "label": "m"}
    for _ in range(rng.choice([1, 1, 2])):
        key = rng.choice(["p", "n", "h", "a", "minus_one_norm", "label", "extra"])
        if key in ("h", "a") and rng.random() < 0.5:  # one entry of the list
            profile[key] = profile[key][:-1] + [rng.choice(MANUAL_VALUES)]
        elif rng.random() < 0.1 and key in profile:
            del profile[key]
        else:
            profile[key] = rng.choice(MANUAL_VALUES)
    return json.dumps(profile)


def _case(rng: random.Random) -> list[str]:
    """One argv.  A field that enumerates is Q2-sized; a larger one gets --a."""
    command = rng.choice(["field", "kgroup", "invariants", "decompose", "euler", "verify"])
    argv = [command]
    if command in ("euler", "verify") and rng.random() < 0.4:
        return argv + ["--manual", _manual(rng)] + (["--json"] if rng.random() < 0.5 else [])
    roll, small = rng.random(), True
    if roll < 0.4:
        argv += ["--preset", rng.choice(["Q2", "Q2sqrt2", "Q2unram2"])]
    elif roll < 0.6:
        argv += ["--preset", rng.choice(["Q3zeta3", "Q5zeta5"])]
        small = False
    elif roll < 0.95:
        small = rng.random() < 0.5
        argv += ["--spec", rng.choice(SMALL if small else LARGER)]
    if len(argv) > 1 and rng.random() < MALFORMED:
        argv[-2:] = ["--spec", _spec(rng)]
    if rng.random() < 0.2:
        precisions = PRECISIONS[:3] if rng.random() > MALFORMED else PRECISIONS
        argv += ["--precision", rng.choice(precisions)]
    if command != "field" and rng.random() < 0.4:
        argv += ["--n"] + rng.sample(DEGREES[:5] if rng.random() > MALFORMED else DEGREES,
                                     rng.randrange(1, 4))
    if command in ("invariants", "decompose") or (
            command in ("euler", "verify") and (not small or rng.random() < 0.5)):
        argv += ["--a", rng.choice(ELEMENTS if rng.random() > MALFORMED else BAD_ELEMENTS)]
    if command == "verify" and rng.random() < 0.5:
        argv += ["--suite", rng.choice(["canonical", "sequences", "euler", "all", "other"])]
    if rng.random() < 0.5:
        argv.append("--json")
    return [str(arg) for arg in argv]


_rng = random.Random(SEED)
ARGVS = [_case(_rng) for _ in range(CASES)]


@pytest.mark.parametrize("argv", ARGVS, ids=[f"case{i}" for i in range(CASES)])
def test_every_input_exits_0_to_3_without_a_traceback(capsys, argv):
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's --help and --version
        code = exc.code or 0
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err and "internal error" not in err
    assert elapsed < SECONDS


def test_the_grammar_reaches_every_subcommand_and_the_malformed_inputs():
    """The fixed budget draws every subcommand, manual profiles, specs that
    parse to a non-object and non-integer manual entries."""
    assert {argv[0] for argv in ARGVS} == set(cli._COMMANDS)
    non_objects = {"null", '"x"', "[1]", "1", "true", "[]", "NaN"}
    assert any(argv[argv.index("--spec") + 1] in non_objects and "--precision" in argv
               for argv in ARGVS if "--spec" in argv)
    manual = [json.loads(argv[2]) for argv in ARGVS
              if "--manual" in argv and argv[2] not in BAD_JSON]
    assert any(type(v) is not int for m in manual for v in m.get("h", []))
