"""Exact non-negative rationals kept as integer pairs.

Values are compared by integer cross-multiplication, so no reduction or
floating point is ever involved in a comparison. The pair itself is stored
exactly as constructed: Ratio(15, 24) keeps num=15, den=24 (call
``normalized()`` for the lowest-terms form). This matters because the
parametric solver carries lambda as the raw counts pair of a concrete
solution, e.g. 15/24 rather than 5/8.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction


_RATIO = re.compile(r"(\d+)/(\d+)|(\d*)\.(\d+)|(\d+)", re.ASCII)


@functools.total_ordering
@dataclass(frozen=True)
class Ratio:
    num: int
    den: int = 1

    def __post_init__(self):
        if self.den < 1:
            raise ValueError(f"denominator must be >= 1, got {self.den}")
        if self.num < 0:
            raise ValueError(f"numerator must be >= 0, got {self.num}")

    # Equality and ordering are value-based: Ratio(15, 24) == Ratio(5, 8).

    def _coerce(self, other):
        """(num, den) of the other operand, or None if incomparable."""
        if isinstance(other, Ratio):
            return other.num, other.den
        if isinstance(other, (int, Fraction)):
            return other.numerator, other.denominator
        return None

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num * o[1] == o[0] * self.den

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num * o[1] < o[0] * self.den

    def __hash__(self):
        # match the numeric tower so equal values hash alike across types
        return hash(Fraction(self.num, self.den))

    def normalized(self) -> "Ratio":
        """Lowest-terms form (0 normalizes to 0/1)."""
        if self.num == 0:
            return Ratio(0, 1)
        g = math.gcd(self.num, self.den)
        return Ratio(self.num // g, self.den // g)

    def __float__(self):
        return self.num / self.den

    def __str__(self):
        return f"{self.num}/{self.den}"

    def to_4dp(self) -> str:
        """Decimal string rounded half-up to four places, e.g. '0.6250'."""
        scaled, rem = divmod(self.num * 10000, self.den)
        if 2 * rem >= self.den:
            scaled += 1
        return f"{scaled // 10000}.{scaled % 10000:04d}"


def parse_ratio(text: str) -> Ratio:
    """Parse 'a/b', a decimal like '0.6957' or '.5', or a bare integer, all
    digits; anything else raises "cannot parse rational from ...".

    The written form is preserved: '15/24' stays 15/24 and '0.6957' becomes
    6957/10000.
    """
    match = _RATIO.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"cannot parse rational from {text!r}")
    num, den, whole, frac, bare = match.groups()
    if den is not None:
        return Ratio(int(num), int(den))
    if frac is not None:
        scale = 10 ** len(frac)
        return Ratio(int(whole or 0) * scale + int(frac), scale)
    return Ratio(int(bare), 1)
