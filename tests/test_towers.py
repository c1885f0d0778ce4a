"""Random towers, drawn by Hypothesis with a fixed budget.

A tower is a list of Eisenstein and unramified steps: of total degree at
most 4 over Q2, or one step of degree 2 over Q3(zeta_3).  On each tower
k_1 has dimension [F:Q_p] + 2, and one drawn class, its top built by
get_extension, passes every checker of the canonical, sequences and
euler suites in the degrees a verify runs by default, and degree 0.  A
precision error at the default precision must vanish at the policy
maximum, where the same checkers run again.
"""

import pytest
from hypothesis import given, settings, strategies as st

from knorm import milnor as M
from knorm.cli import DEGREES
from knorm.errors import PrecisionError
from knorm.euler import profile_from_field, theorem3_check
from knorm.padic import _PRECISION_FACTOR_MAX, LocalField, default_precision
from knorm.structure import check_canonical, check_lemma_VW, check_theorem_items, decompose_knE

Q3ZETA3 = [{"kind": "eisenstein", "coeffs": [3, 3]}]


def _scaled(digits, c):
    """c times an element given by its (nested) digit list."""
    return [_scaled(d, c) for d in digits] if isinstance(digits, list) else c * digits


def _uniformizer(p, kinds):
    """The digits of the uniformizer of a tower with these step kinds: the
    generator of an Eisenstein step, and the one below it otherwise."""
    pi = p
    for kind in kinds:
        pi = [0, 1] if kind == "eisenstein" else [pi]
    return pi


@st.composite
def steps(draw, p, base, max_degree):
    """Steps over ``base`` whose degrees multiply to at most max_degree."""
    kinds = [step["kind"] for step in base]
    out, degree = [], 1
    while degree * 2 <= max_degree and (not out or draw(st.booleans())):
        d = draw(st.integers(2, max_degree // degree))
        if draw(st.booleans()):
            pi = _uniformizer(p, kinds)
            middle = [draw(st.sampled_from([0, p, pi])) for _ in range(d - 1)]
            out.append({"kind": "eisenstein",
                        "coeffs": [_scaled(pi, draw(st.sampled_from([1, -1, 1 + p])))] + middle})
            kinds.append("eisenstein")
        else:
            out.append({"kind": "unramified", "degree": d})
            kinds.append("unramified")
        degree *= d
    return out


def _failures(field, key):
    """The names of the checkers that fail on the class ``key``."""
    ext = M.get_extension(field, key)
    failed = []
    for n in (0, *DEGREES):
        failed += [f"{name} n={n}" for name, (passed, _) in (
            ("theorem items", check_theorem_items(decompose_knE(ext, n))),
            ("canonical", check_canonical(ext, n)),
            ("complements", check_lemma_VW(ext, n)),
            ("hilbert90", M.verify_hilbert90(ext, n)),
            ("euler", theorem3_check(profile_from_field(ext, n))),
        ) if not passed]
    failed += [f"four-term m={m}" for m in DEGREES if not M.verify_voevodsky_seq(ext, m)[0]]
    if not M.projection_formula_check(ext)[0]:
        failed.append("projection formula")
    M.drop_extension(ext)
    return failed


def _check_tower(p, tower, draw_key):
    field = LocalField.from_spec({"p": p, "steps": tower})
    dim = M.k_group(field, 1).dim
    assert dim == field.degree + 2
    key = draw_key(dim)
    try:
        failed = _failures(field, key)
    except PrecisionError:
        M.release_caches(field)
        highest = _PRECISION_FACTOR_MAX * default_precision(p, field.e)
        field = LocalField.from_spec({"p": p, "steps": tower, "precision": highest})
        failed = _failures(field, key)
    M.release_caches(field)
    assert failed == []


def _key(data, p):
    """A drawer of one nonzero k_1 coordinate vector, a class key."""
    def draw(dim):
        index = data.draw(st.integers(1, p**dim - 1), label="class")
        return tuple(index // p**i % p for i in range(dim))
    return draw


@settings(max_examples=30, database=None, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_random_tower_over_q2_passes_every_suite_on_a_drawn_class(data):
    tower = data.draw(steps(2, [], 4), label="tower")
    _check_tower(2, tower, _key(data, 2))


@settings(max_examples=10, database=None, deadline=None, derandomize=True)
@given(data=st.data())
def test_one_more_step_over_q3zeta3_passes_every_suite_on_a_drawn_class(data):
    step = data.draw(steps(3, Q3ZETA3, 2), label="step")
    _check_tower(3, Q3ZETA3 + step, _key(data, 3))


@pytest.mark.parametrize("kinds", [[], ["eisenstein"], ["unramified"],
                                   ["eisenstein", "unramified"], ["unramified", "eisenstein"]])
def test_the_drawn_uniformizer_has_valuation_one(kinds):
    tower = [{"kind": "eisenstein", "coeffs": [-2, 0]} if kind == "eisenstein"
             else {"kind": "unramified", "degree": 2} for kind in kinds]
    field = LocalField.from_spec({"p": 2, "steps": tower})
    assert field.element(_uniformizer(2, kinds)).valuation() == 1


def test_a_precision_error_is_retried_at_the_policy_maximum(monkeypatch):
    """The retry builds the tower at the policy maximum, which the field
    accepts, and every checker passes there."""
    real, precisions = _failures, []

    def failing_first(field, key):
        precisions.append(field.prec)
        if len(precisions) == 1:
            raise PrecisionError("injected")
        return real(field, key)

    monkeypatch.setattr(f"{__name__}._failures", failing_first)
    sqrt2 = [{"kind": "eisenstein", "coeffs": [-2, 0]}]
    _check_tower(2, sqrt2, lambda dim: (0, 1) + (0,) * (dim - 2))
    assert precisions == [default_precision(2, 2), _PRECISION_FACTOR_MAX * default_precision(2, 2)]
