"""Exact scalar type, the one reader of outside numbers, and the wire form.

``fractions.Fraction`` already is an arbitrary-precision rational kept in
lowest terms with a positive denominator, so the package uses it directly
as its scalar type. :func:`parse_rational` is the package's one reader of
outside numbers, for the CLI, the JSON/CSV files and the library alike;
:func:`format_rational` writes the "p/q" string form it reads.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal
from fractions import Fraction
from numbers import Rational

# the exponent of a decimal string, as the Fraction constructor reads it
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)
# a digit run, with the underscores int() skips
_DIGITS = re.compile(r"\d(?:_?\d)*")


def parse_rational(value: object) -> Fraction:
    """The package's one reader of outside numbers, as an exact Fraction.

    A Fraction is returned as is, any other rational (an int, a numpy
    integer) is read exactly, a "p/q" or decimal string is parsed, and a
    float or a Decimal is read through its decimal text: 0.1 is 1/10. Other
    values raise ValueError (a bool, NaN, an infinity), as do a decimal
    exponent beyond ``sys.get_int_max_str_digits()`` and a longer digit run.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, Rational) and not isinstance(value, bool):
        return Fraction(int(value.numerator), int(value.denominator))
    if isinstance(value, (str, float, Decimal)):
        value = str(value)
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
