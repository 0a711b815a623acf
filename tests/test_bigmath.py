import decimal
import math
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import walklabel
from walklabel import bigmath


def test_factorial_matches_math():
    for n in range(0, 40):
        assert bigmath.factorial(n) == math.factorial(n)


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        bigmath.factorial(-1)


def test_binomial_matches_math():
    for n in range(0, 15):
        for k in range(0, n + 1):
            assert bigmath.binomial(n, k) == math.comb(n, k)


def test_binomial_zero_convention():
    assert bigmath.binomial(5, -1) == 0
    assert bigmath.binomial(5, 6) == 0
    assert bigmath.binomial(0, 0) == 1


def test_multinomial_basic():
    assert bigmath.multinomial([]) == 1
    assert bigmath.multinomial([4]) == 1
    assert bigmath.multinomial([2, 1]) == 3
    assert bigmath.multinomial([3, 2, 1]) == 60
    assert bigmath.multinomial([1, 1, 1, 1]) == 24


def test_multinomial_agrees_with_factorial_definition():
    for a in range(4):
        for b in range(4):
            for c in range(4):
                expected = math.factorial(a + b + c) // (
                    math.factorial(a) * math.factorial(b) * math.factorial(c)
                )
                assert bigmath.multinomial([a, b, c]) == expected


def test_multinomial_rejects_negative_parts():
    with pytest.raises(ValueError, match="negative multinomial part"):
        bigmath.multinomial([3, -1])
    with pytest.raises(ValueError, match="negative multinomial part"):
        bigmath.multinomial([-2])


def test_exact_div_passes_integers_through():
    assert bigmath.exact_div(6, 3, "q") == 2
    assert bigmath.exact_div(0, 5, "q") == 0
    assert bigmath.exact_div(7, 1, "q") == 7
    assert bigmath.exact_div(-12, 4, "q") == -3


def test_exact_div_raises_on_non_integer():
    with pytest.raises(ValueError, match="formula integrality violated: q = 7/3$"):
        bigmath.exact_div(7, 3, "q")
    # the fraction in the message is reduced
    with pytest.raises(ValueError, match="formula integrality violated: q = 7/3$"):
        bigmath.exact_div(14, 6, "q")


def test_cli_import_loads_no_rational_or_decimal_module():
    # dataclasses and inspect cost about 15 ms per interpreter and no record
    # needs them; argparse, with the gettext and locale it loads, costs 5-7 ms
    # per invocation, and only a line the plain reader declines needs it
    unwanted = "{'fractions', 'decimal', 'dataclasses', 'inspect', 'argparse', 'gettext', 'locale'}"
    code = f"import sys, walklabel.cli; print(sorted({unwanted} & set(sys.modules)))"
    src = str(Path(walklabel.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def _decimal_text(value: int) -> str:
    """value in decimal by the decimal module, which converts exactly
    whatever the context precision and the int/str digit limit."""
    return str(decimal.Decimal(value))


def test_decimal_round_trip_on_huge_integers():
    value = 7**12000  # far beyond the default int/str conversion cap
    text = bigmath.to_decimal(value)
    assert text.isdigit() and len(text) > 10000
    assert text == _decimal_text(value)
    assert bigmath.to_decimal(-value) == "-" + text == _decimal_text(-value)
    assert int(decimal.Decimal(text)) == value


@pytest.fixture
def digit_limit_4300():
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


def test_decimal_round_trip_leaves_digit_limit_alone(digit_limit_4300):
    value = 10**99_999 + 12345  # 10^5 digits
    text = bigmath.to_decimal(value)
    assert len(text) == 100_000 and text.endswith("12345")
    assert text == _decimal_text(value)
    assert bigmath.to_decimal(-value) == "-" + text
    assert int(decimal.Decimal(text)) == value
    assert sys.get_int_max_str_digits() == 4300


def test_decimal_conversions_in_two_threads(digit_limit_4300):
    values = (7**6_000 + 1, 3**40_000 - 1)  # about 5,000 and 19,000 digits
    expected = [_decimal_text(v) for v in values]
    failures = []

    def convert(value, text):
        for _ in range(20):
            if bigmath.to_decimal(value) != text:
                failures.append(value.bit_length())

    threads = [threading.Thread(target=convert, args=pair) for pair in zip(values, expected)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert failures == []
    assert sys.get_int_max_str_digits() == 4300


def _first_split(n: int) -> int:
    """The exponent k at which to_decimal first splits n = high 10^k + low."""
    return int(n.bit_length() * math.log10(2)) // 2


def _split_shapes():
    safe = bigmath._SAFE_BITS
    for j in (bigmath._SAFE_DIGITS, bigmath._SAFE_DIGITS + 1, 9_000, 12_345):
        yield from (10**j - 1, 10**j, 10**j + 1)
    for b in (safe, safe + 1, 2 * safe + 3, 40_000):
        yield 2**b - 1
    for j, i in ((3_000, 10), (6_000, 3), (1_000, 20_000), (9_000, 9_000)):
        yield 5**j << i
    rng = random.Random(34)
    for bits in (3 * safe, 40_000):
        n = rng.getrandbits(bits) | 1 << (bits - 1)
        k = _first_split(n)
        high = n // 10**k
        # low halves with leading zeros: small, and r 2^k with r small
        yield from (high * 10**k, high * 10**k + 7, high * 10**k + (3 << k))
        yield from (high * 10**k + 10**k - 1, high * 10**k + 10**(k - 5) + 1)
        # the low k bits all zero or all one
        yield from ((n >> k) << k, n | ((1 << k) - 1))
    lengths = [*range(safe - 2, safe + 3), *range(2 * safe - 2, 2 * safe + 3),
               *range(4 * safe - 2, 4 * safe + 3), *range(safe + 1, 4 * safe, 1_999)]
    for bits in lengths + [39_998, 40_000, 40_003]:
        yield rng.getrandbits(bits) | 1 << (bits - 1)


def test_to_decimal_splits_every_shape_exactly():
    # to_decimal splits at 10^k by dividing n >> k by 5^k and putting the
    # low k bits back under the remainder; each shape that could lose or
    # misplace those bits is compared with the decimal module's digits
    for n in _split_shapes():
        assert bigmath.to_decimal(n) == _decimal_text(n), n.bit_length()
