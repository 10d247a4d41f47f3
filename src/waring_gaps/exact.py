"""Canonical rational rendering and parsing.

Everything that feeds a verdict is kept as a reduced ``Fraction`` or a
Python integer; decimal output exists for human eyes only and is produced
with integer arithmetic, never ``float``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any


def fraction_str(x: Fraction | int) -> str:
    """Render a rational canonically, as ``p`` or ``p/q`` in lowest terms."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_fraction(text: str | int | Fraction) -> Fraction:
    """Parse ``p``, ``p/q`` or an already-rational value into a Fraction."""
    if isinstance(text, (int, Fraction)):
        return Fraction(text)
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num.strip()), int(den.strip()))
    return Fraction(int(text))


def parse_exact(raw: Any, kind: str, name: str) -> int | Fraction:
    """Parse an integer (kind ``"int"``) or a rational (``"fraction"``) that
    arrives from outside the program: a certificate, a config, a flag.

    A string, an int or, for a rational, a Fraction is accepted.  bool,
    float, list, object and null raise a ValueError naming the field:
    ``int()`` would truncate a float or a bool and fail on the others with a
    TypeError.  A malformed string (``"x"``, ``"2.5"`` for an int,
    ``"1/0"``) is a ValueError naming the field as well.
    """
    accepted = (str, int) if kind == "int" else (str, int, Fraction)
    if isinstance(raw, bool) or not isinstance(raw, accepted):
        raise ValueError(f"{name}: expected {kind}, got {type(raw).__name__}")
    try:
        return int(raw) if kind == "int" else parse_fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{name}: expected {kind}, got {raw!r}") from None


def decimal_str(x: Fraction | int, digits: int = 12) -> str:
    """Display-only decimal rendering, truncated toward zero.

    Computed with exact integer division so the same rational always
    renders to the same string; not to be used in any comparison.
    """
    x = Fraction(x)
    sign = "-" if x < 0 else ""
    ax = abs(x)
    whole, rem = divmod(ax.numerator, ax.denominator)
    frac_digits = (rem * 10**digits) // ax.denominator
    return f"{sign}{whole}.{str(frac_digits).zfill(digits)}"
