"""Bundled 30-bit demonstration pair and its full step-by-step printout.

The pair is constructed so that every occurrence of the trigger pattern 1101
in x raises a one at the matching position of y (zero delay), which makes
every intermediate structure small enough to check by hand.
"""

from __future__ import annotations

from .core import (
    LABEL_XY,
    LABEL_YX,
    build_flip_dictionary,
    build_pattern_set,
    infer_causal_direction,
    report_text,
)
from .seqcore import SymbolSequence
from .synth import delayed_flip_indicator

DEMO_X = "011101111010011001110101101001"

_x = SymbolSequence.from_text(DEMO_X, 2)
DEMO_Y = "".join(str(s) for s in delayed_flip_indicator(_x.symbols, 0))


def demo_pair() -> tuple[SymbolSequence, SymbolSequence]:
    return SymbolSequence.from_text(DEMO_X, 2), SymbolSequence.from_text(DEMO_Y, 2)


def demo_text() -> str:
    """Dictionaries, pattern sets, per-pattern tables, and the verdict."""
    x, y = demo_pair()
    gxy = build_flip_dictionary(x, y, LABEL_XY)
    gyx = build_flip_dictionary(y, x, LABEL_YX)
    pxy = build_pattern_set(gxy)
    pyx = build_pattern_set(gyx)
    report = infer_causal_direction(x, y)
    lines = [
        f"x = {DEMO_X}",
        f"y = {DEMO_Y}",
        "",
        "flip dictionary X->Y: {" + ", ".join(s.text() for s in gxy.segments) + "}",
        "flip dictionary Y->X: {" + ", ".join(s.text() for s in gyx.segments) + "}",
        "pattern set X->Y ({} patterns): {{{}}}".format(
            len(pxy.patterns), ", ".join(p.text() for p in pxy.patterns)
        ),
        "pattern set Y->X ({} patterns): {{{}}}".format(
            len(pyx.patterns), ", ".join(p.text() for p in pyx.patterns)
        ),
        "",
    ]
    return "\n".join(lines) + report_text(report)
