"""Canonical rational rendering, the one parser of values from outside,
and the one rule by which a report spells and bounds every value.

Everything that feeds a verdict is kept as a reduced ``Fraction`` or a
Python integer; decimal output exists for human eyes only and is produced
with integer arithmetic, never ``float``.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any


def fraction_str(x: Fraction | int) -> str:
    """Render a rational canonically, as ``p`` or ``p/q`` in lowest terms."""
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


# The JSON types (and, for a flag, the Python types) each kind accepts.
_ACCEPTED = {
    "int": (str, int),
    "fraction": (str, int, Fraction),
    "path": (str, os.PathLike),
    "object": dict,
    "list": (list, tuple),
    "string": str,
}


def parse_exact(raw: Any, kind: str, name: str) -> Any:
    """Parse a value that arrives from outside the program (a flag, a
    config entry, a replayed config or a certificate field) as kind.

    ``"int"`` and ``"fraction"`` take a string, an int or, for a rational,
    a Fraction; ``"intlist"`` takes a comma-separated string, a list of
    ints or a single int, as a tuple; ``"path"`` takes a string as a Path;
    ``"object"``, ``"list"`` and ``"string"`` are only checked.  A value of
    another type is a ValueError naming the field: ``int()`` would truncate
    a float or a bool and fail on the others with a TypeError.  A malformed
    string (``"x"``, ``"2.5"`` for an int, ``"1/0"``) is a ValueError
    naming the field as well, and so is int or fraction text of more than
    digit_limit() digits, which int() would refuse: as unprintable(name),
    without echoing the digits.
    """
    if kind == "intlist":
        if isinstance(raw, str):
            raw = [part for part in raw.split(",") if part.strip()]
        elif not isinstance(raw, (list, tuple)):
            raw = [raw]
        return tuple(parse_exact(v, "int", name) for v in raw)
    if isinstance(raw, bool) or not isinstance(raw, _ACCEPTED[kind]):
        raise ValueError(f"{name}: expected {kind}, got {type(raw).__name__}")
    if kind == "path":
        return Path(raw)
    if kind not in ("int", "fraction"):
        return raw
    if isinstance(raw, str) and 0 < (limit := digit_limit()) < len(raw):
        if any(sum(map(str.isdigit, part)) > limit for part in raw.split("/")):
            raise unprintable(name)
    try:
        return int(raw) if kind == "int" else parse_fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{name}: expected {kind}, got {raw!r}") from None


def digit_limit() -> int:
    """The most digits str() prints of an int (sys.get_int_max_str_digits());
    0 when there is no limit."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def unprintable(name: str) -> ValueError:
    """The error for a value under name that str() would refuse to print."""
    return ValueError(f"{name} has more than {digit_limit()} digits to print")


def printable_power(base: int, exponent: int, name: str) -> int:
    """base^exponent, base >= 1, for the report value name that prints it.
    When str() would refuse to print it, a ValueError names it instead:
    decided from bit lengths before an astronomically large power is
    formed, and otherwise by render_exact's digit test."""
    limit = digit_limit()
    # base^exponent >= 2^m with m = exponent * (bit_length(base) - 1), so it
    # has at least floor(m * log10(2)) + 1 > m * 3 // 10 digits
    if limit and exponent * (base.bit_length() - 1) * 3 // 10 >= limit:
        raise unprintable(name)
    return render_exact(base**exponent, name)


def render_exact(value: Any, name: str = "value") -> Any:
    """A value as a report prints it: a Fraction as fraction_str spells it,
    a Path as its string, a tuple or a list as the list of its rendered
    entries, a dict entry by entry under each key, anything else (a numpy
    array included) as is.  An int or a Fraction that str() would refuse,
    having more digits than digit_limit(), is a ValueError naming the
    innermost key it is under, or name outside every dict."""
    if value is None or isinstance(value, str):  # the most common leaves, first
        return value
    if isinstance(value, dict):
        return {key: render_exact(item, key) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return [render_exact(item, name) for item in value]
    if isinstance(value, int):
        # 2^(3 * limit) < 10^limit, so an int of at most 3 * limit bits
        # prints; and every limit Python accepts but 0 (none) is at least 640
        bits = value.bit_length()
        if bits > 3 * 640 and (limit := digit_limit()) and bits > 3 * limit:
            if abs(value) >= 10**limit:
                raise unprintable(name)
        return value
    if isinstance(value, Fraction):
        try:
            return fraction_str(value)
        except ValueError:
            raise unprintable(name) from None
    if isinstance(value, Path):
        return str(value)
    return value


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
