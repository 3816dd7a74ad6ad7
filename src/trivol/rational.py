"""Exact scalar type plus its on-the-wire string form.

``fractions.Fraction`` already is an arbitrary-precision rational kept in
lowest terms with a positive denominator, so the package uses it directly
as its scalar type. This module adds the "p/q" string round-trip used by
the CLI and by the JSON/CSV file formats.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal
from fractions import Fraction

# the exponent of a decimal string, as the Fraction constructor reads it
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)
# a digit run, with the underscores int() skips
_DIGITS = re.compile(r"\d(?:_?\d)*")


def parse_rational(value: object) -> Fraction:
    """Parse an int, a "p/q" or decimal string, or a float into a Fraction.

    Floats are interpreted through their shortest decimal representation,
    so 0.1 parses as 1/10 rather than as the underlying binary value. A
    decimal exponent larger in magnitude than ``sys.get_int_max_str_digits()``
    raises ValueError naming the limit, as a digit run longer than that does.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a rational value: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        # 10**exponent has about |exponent| digits; beyond the interpreter's
        # limit on int digit strings, building it would only hang
        exponent = _EXPONENT.search(value)
        limit = sys.get_int_max_str_digits()
        if exponent and limit and abs(int(exponent.group(1))) > limit:
            raise ValueError(f"decimal exponent beyond {limit} in {value!r}")
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
        except ValueError:
            if limit and any(len(r.replace("_", "")) > limit for r in _DIGITS.findall(value)):
                raise ValueError(f"a number has more than {limit} digits") from None
            raise
    if isinstance(value, float):
        return Fraction(str(value))
    raise ValueError(f"not a rational value: {value!r}")


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "p/q", or as a bare integer when q == 1."""
    return format_ratio(value.numerator, value.denominator)


def format_ratio(p: int, q: int) -> str:
    """:func:`format_rational` on a numerator and a positive denominator
    already in lowest terms, with no Fraction built.

    Every digit is written: past the interpreter's limit on int digit
    strings ``str`` refuses an int, but ``Decimal`` converts it exactly.
    """
    try:
        return str(p) if q == 1 else f"{p}/{q}"
    except ValueError:
        return str(Decimal(p)) if q == 1 else f"{Decimal(p)}/{Decimal(q)}"
