"""Two Kummer tops over Q3(zeta_3) that the p-adic tests share, each
checked for its ramification index e and residue degree f."""

from knorm.padic import KummerExtension, LocalField, PadicElement
from knorm.presets import FIELD_PRESETS


def cbrt4_top():
    """Q3zeta3(cbrt 4): 4 = 1 + 3 sits at level 2, below the wild level 3,
    so the top is ramified."""
    base = LocalField.from_spec(FIELD_PRESETS["Q3zeta3"])
    top = KummerExtension(base, base.element(4)).top
    assert (top.e, top.f) == (6, 1)
    return top


def unramified_cubic():
    """The unramified cubic extension of Q3zeta3, adjoining a cube root of
    its wild basis entry 1 + pi^3."""
    base = LocalField.from_spec(FIELD_PRESETS["Q3zeta3"])
    wild = next(entry for entry in base.k1_structure() if entry.kind == "top")
    top = KummerExtension(base, PadicElement(base, wild.data)).top
    assert (top.e, top.f) == (2, 3)
    return top
