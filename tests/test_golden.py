"""Byte-for-byte reports of the command line on small presets.

Each file under ``golden/`` is the standard output of one command, with
``--json`` for the ``.json`` file and without it for the ``.txt`` file,
for example ``knorm verify --preset Q2 --json > golden/verify_Q2.json``.
The cases cover p = 2 on three presets and on the degrees 0..4, the
Euler runs, the manual profile, and the odd primes on one class each:
Q3(zeta_3) over the uniformizer on the degrees 0..4, and Q5(zeta_5) over
the uniformizer.  Q2(2^(1/4)) over 1 + pi^7 on the sequences suite builds
Kummer tops whose integral basis once lost digits; its files are the
reports of the flat-list kernel (b76be36), before that loss.  The full Q3(zeta_3) report, 587 KB that print every
X1, X2, Y and Z basis of its 40 classes, is pinned by its SHA-256, and
so is the Q5(zeta_5) report over a = 1 + pi^2 (``--a '[1,0,1]'``), whose
degree-100 tops multiply dense elements, where the uniformizer's
multiply sparse ones.  A change to any file or to a hash is a change of
the program's output and must be deliberate.
"""

import hashlib
from pathlib import Path

import pytest

from knorm import cli

GOLDEN = Path(__file__).parent / "golden"
MANUAL = '{"p":2,"n":2,"h":[1,3,1],"a":[2,1],"minus_one_norm":true}'
CASES = {
    "verify_Q2": ["verify", "--preset", "Q2"],
    "verify_Q2_n01234": ["verify", "--preset", "Q2", "--n", "0", "1", "2", "3", "4"],
    "verify_Q2sqrt2": ["verify", "--preset", "Q2sqrt2"],
    "verify_Q2unram2": ["verify", "--preset", "Q2unram2"],
    "verify_Q3zeta3_uniformizer_n01234": [
        "verify", "--preset", "Q3zeta3", "--a", "uniformizer", "--n", "0", "1", "2", "3", "4",
    ],
    "verify_Q5zeta5_uniformizer": ["verify", "--preset", "Q5zeta5", "--a", "uniformizer"],
    "verify_Q2root4_a1002_sequences": [
        "verify", "--spec", '{"p": 2, "steps": [{"kind": "eisenstein", "coeffs": [-2, 0, 0, 0]}]}',
        "--a", "[1,0,0,2]", "--suite", "sequences",
    ],
    "euler_Q2_n12": ["euler", "--preset", "Q2", "--n", "1", "2"],
    "euler_manual": ["euler", "--manual", MANUAL],
    "verify_manual": ["verify", "--manual", MANUAL],
}


@pytest.mark.parametrize("suffix", ["json", "txt"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(capsys, name, suffix):
    argv = CASES[name] + (["--json"] if suffix == "json" else [])
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.{suffix}").read_text()


def test_full_q3zeta3_report_matches_its_hash(capsys):
    assert cli.main(["verify", "--preset", "Q3zeta3", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c0b6339978140a0f2edce1ac1f022ee3f2372017cb9743c77eb278cdf4a34af3"
    )


def test_q5zeta5_dense_class_report_matches_its_hash(capsys):
    assert cli.main(["verify", "--preset", "Q5zeta5", "--a", "[1,0,1]", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7aeb6cd9802e35dbc36045fec2aae15e8a17d7edde56f7d79011a1c19218640c"
    )
