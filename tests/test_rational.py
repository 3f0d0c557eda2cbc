import random
import re
from fractions import Fraction

import pytest

from cellform.rational import Ratio, parse_ratio


def test_keeps_raw_form():
    r = Ratio(15, 24)
    assert r.num == 15 and r.den == 24
    assert str(r) == "15/24"
    assert r.normalized() == Ratio(5, 8)
    assert str(r.normalized()) == "5/8"
    # normalizing does not mutate the original
    assert str(r) == "15/24"


def test_value_comparisons_match_fraction():
    rng = random.Random(7)
    for _ in range(500):
        a = Ratio(rng.randrange(0, 40), rng.randrange(1, 40))
        b = Ratio(rng.randrange(0, 40), rng.randrange(1, 40))
        fa, fb = Fraction(a.num, a.den), Fraction(b.num, b.den)
        assert (a == b) == (fa == fb)
        assert (a < b) == (fa < fb)
        assert (a <= b) == (fa <= fb)
        assert (a > b) == (fa > fb)
        assert (a >= b) == (fa >= fb)


def test_equal_values_hash_alike():
    assert Ratio(15, 24) == Ratio(5, 8)
    assert hash(Ratio(15, 24)) == hash(Ratio(5, 8))
    assert len({Ratio(15, 24), Ratio(5, 8), Ratio(10, 16)}) == 1
    # and across numeric types
    assert Ratio(15, 24) == Fraction(5, 8)
    assert Fraction(5, 8) == Ratio(15, 24)
    assert hash(Ratio(15, 24)) == hash(Fraction(5, 8))
    assert Ratio(3, 1) == 3 and hash(Ratio(3, 1)) == hash(3)
    assert Ratio(1, 3) < Fraction(1, 2) <= Ratio(2, 4)


def test_comparison_against_ints():
    assert Ratio(7, 7) == 1
    assert Ratio(6, 7) < 1
    assert Ratio(0, 5) == 0
    assert Ratio(9, 4) > 2


def test_rejects_bad_forms():
    with pytest.raises(ValueError):
        Ratio(1, 0)
    with pytest.raises(ValueError):
        Ratio(-1, 3)
    with pytest.raises(ValueError):
        Ratio(1, -3)


def test_to_4dp_rounds_half_up():
    assert Ratio(15, 24).to_4dp() == "0.6250"
    assert Ratio(16, 23).to_4dp() == "0.6957"
    assert Ratio(1, 3).to_4dp() == "0.3333"
    assert Ratio(2, 3).to_4dp() == "0.6667"
    # ties round away from zero, not to even
    assert Ratio(1, 16000).to_4dp() == "0.0001"
    assert Ratio(5, 80000).to_4dp() == "0.0001"
    assert Ratio(1, 1).to_4dp() == "1.0000"
    assert Ratio(0, 1).to_4dp() == "0.0000"


def test_to_4dp_agrees_with_exact_decimal():
    from decimal import Decimal, ROUND_HALF_UP

    rng = random.Random(11)
    for _ in range(300):
        num = rng.randrange(0, 100)
        den = rng.randrange(1, 100)
        want = str((Decimal(num) / Decimal(den)).quantize(
            Decimal("0.0001"), rounding=ROUND_HALF_UP))
        assert Ratio(num, den).to_4dp() == want


def test_parse_ratio_forms():
    assert parse_ratio("15/24") == Ratio(15, 24)
    assert parse_ratio("15/24").den == 24  # form preserved
    assert parse_ratio("0.6957") == Ratio(6957, 10000)
    assert parse_ratio("0") == Ratio(0, 1)
    assert parse_ratio("1") == Ratio(1, 1)
    assert parse_ratio(" 3/8 ") == Ratio(3, 8)
    assert parse_ratio(".5") == Ratio(5, 10)


def test_parse_ratio_rejects_junk():
    with pytest.raises(ValueError, match="denominator"):
        parse_ratio("1/0")
    # every malformed form is named as such, whatever part of it is bad
    for bad in ("", "a/b", "-1/2", "1/2/3", "0.12.3", "abc", "1/x", "x/2",
                "1.x", "1.", "/", "+1", "1e3", "1_0", "1 / 2", "½", "١"):
        want = f"cannot parse rational from {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            parse_ratio(bad)
