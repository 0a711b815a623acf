"""Exact integer arithmetic shared by every counting module.

Counts are plain Python ints (arbitrary precision), and no intermediate is
ever a rational: a closed form whose integrality rests on the formula
divides through exact_div, which raises instead of flooring when the
division leaves a remainder. Divisions that are exact by structure (geometric
sums) keep a plain //. to_decimal converts values of any length without
touching the interpreter's int/str digit limit, halving a value at 10^k by
a shift, a mask and a division by 5^k.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable

__all__ = [
    "binomial",
    "double_factorial",
    "exact_div",
    "factorial",
    "multinomial",
    "to_decimal",
]


def factorial(n: int) -> int:
    """n! for n >= 0; math.factorial raises ValueError below. Kept as the
    one factorial the counting modules import, so that perfbench's
    per-layer trace counts their factorials as bigmath calls."""
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    """C(n, k), defined as 0 whenever k < 0 or k > n.

    The zero convention makes boundary sums total; callers that must reject
    out-of-range arguments use multinomial instead.
    """
    if k < 0 or n < 0:  # math.comb gives 0 for k > n
        return 0
    return math.comb(n, k)


def multinomial(parts: Iterable[int]) -> int:
    """Multinomial coefficient (sum(parts))! / prod(part!).

    Unlike binomial there is no zero convention: a negative part raises,
    because the closed-form evaluators that call this must never silently
    zero out a malformed term.
    """
    total = 0
    out = 1
    for part in parts:
        if part < 0:
            raise ValueError(f"negative multinomial part: {part}")
        total += part
        out *= math.comb(total, part)
    return out


def double_factorial(n: int) -> int:
    """n!! = n (n-2) (n-4) ... down to 1 or 2, with (-1)!! = 0!! = 1."""
    if n < -1:
        raise ValueError("double factorial of argument below -1")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def exact_div(numerator: int, denominator: int, what: str) -> int:
    """numerator / denominator for a quotient a formula says is an integer,
    refusing a remainder loudly with the reduced fraction."""
    value, remainder = divmod(numerator, denominator)
    if remainder:
        g = math.gcd(numerator, denominator)
        raise ValueError(f"formula integrality violated: {what} = "
                         f"{to_decimal(numerator // g)}/{to_decimal(denominator // g)}")
    return value


# Every int/str digit limit the interpreter accepts, other than 0 (no
# limit), is at least this many digits, so conversions of pieces this short
# never trip it. Python < 3.11 has no limit at all.
_SAFE_DIGITS = getattr(sys.int_info, "str_digits_check_threshold", 640)
_SAFE_BITS = int(_SAFE_DIGITS / math.log10(2)) - 1  # at most _SAFE_DIGITS digits


def _digits(n: int, width: int = 0) -> str:
    """Decimal digits of n >= 0, zero-padded to width: split at a power of
    ten into halves, down to pieces short enough for str().

    The split n = high 10^k + low divides by 5^k, not 10^k: with
    (high, r) = divmod(n >> k, 5^k), n = (high 5^k + r) 2^k + (n mod 2^k),
    so low = r 2^k + (n mod 2^k) < 5^k 2^k. The quadratic division then
    takes a divisor of 2.32k bits instead of 3.32k."""
    if n.bit_length() <= _SAFE_BITS:
        return str(n).zfill(width)
    k = int(n.bit_length() * math.log10(2)) // 2
    high, r = divmod(n >> k, 5**k)
    low = (r << k) | (n & ((1 << k) - 1))
    return _digits(high, width - k) + _digits(low, k)


def to_decimal(n: int) -> str:
    """Serialize a count as a decimal string.

    Counts here routinely exceed the interpreter's 4300-digit int-to-str
    limit, so long values are converted piecewise, leaving the limit alone.
    """
    return "-" + _digits(-n) if n < 0 else _digits(n)
