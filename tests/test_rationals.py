import fractions
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symplie.errors import SymplieError
from symplie.rationals import (ONE, ZERO, Q, RationalSyntaxError, UnwritableNumberError,
                               as_q, integral, parse_literal, parse_rational, qstr,
                               rational)


class TestParse:
    @pytest.mark.parametrize("text,num,den", [
        ("0", 0, 1),
        ("7", 7, 1),
        ("-3", -3, 1),
        ("+4", 4, 1),
        ("2/3", 2, 3),
        ("-2/3", -2, 3),
        ("4/6", 2, 3),       # normalized
        ("0/5", 0, 1),
        ("10/5", 2, 1),
    ])
    def test_accepts_and_normalizes(self, text, num, den):
        q = parse_rational(text)
        assert q == Q(num, den)
        assert int(q.numerator) == num and int(q.denominator) == den

    @pytest.mark.parametrize("text", [
        "", " ", "1.5", "1 /2", " 1/2", "1/2 ", "1/-2", "a", "1/2/3",
        "0x1", "1e3", "--1", "1/", "/2", "1//2", "nan", "inf",
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(RationalSyntaxError):
            parse_rational(text)

    def test_rejects_zero_denominator(self):
        with pytest.raises(RationalSyntaxError):
            parse_rational("1/0")

    def test_rejects_non_string(self):
        with pytest.raises(RationalSyntaxError):
            parse_rational(7)

    @pytest.mark.parametrize("text", ["1" * 5000, "-" + "1" * 5000, "1/" + "1" * 5000])
    def test_literal_over_the_int_string_limit(self, text):
        with pytest.raises(RationalSyntaxError, match=r"^literal of 5000 digits exceeds "
                                                      r"the limit of 4300 digits$"):
            parse_literal(text)


class TestAsQ:
    def test_int_and_string(self):
        assert as_q(5) == Q(5)
        assert as_q("-7/14") == Q(-1, 2)

    def test_q_passthrough_identity(self):
        q = Q(3, 4)
        assert as_q(q) is q

    def test_fraction_interop(self):
        assert as_q(fractions.Fraction(3, 9)) == Q(1, 3)

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            as_q(True)

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            as_q(0.5)

    def test_rejects_other(self):
        with pytest.raises(TypeError):
            as_q(object())


class TestQstr:
    @pytest.mark.parametrize("value,expected", [
        (Q(0), "0"),
        (Q(2, 1), "2"),
        (Q(-4, 6), "-2/3"),
        (Q(1, 3), "1/3"),
    ])
    def test_canonical(self, value, expected):
        assert qstr(value) == expected

    def test_round_trip(self):
        for text in ("0", "17", "-5/9", "1000000000000/7"):
            assert qstr(parse_rational(text)) == text

    def test_over_the_int_string_limit(self):
        # an internal error, not a ValueError, which the CLI reads as bad input
        with pytest.raises(UnwritableNumberError) as info:
            qstr(Q(10 ** 5000))
        assert isinstance(info.value, SymplieError)
        assert not isinstance(info.value, ValueError)
        assert str(info.value) == ("cannot write a rational of about 5000 digits; the "
                                   "limit for int-string conversion is 4300 digits")


def test_constants():
    assert ZERO == Q(0) and ONE == Q(1)
    assert ZERO + ONE == ONE
    assert Q(1, 3) * 3 == ONE


class TestIntegral:
    def test_round_trip_with_negative_and_zero_entries(self):
        values = [Q(-3, 4), ZERO, Q(5, 6), Q(-2), ONE, Q(0, 7)]
        den, nums = integral(values)
        assert den == 12
        assert nums == [-9, 0, 10, -24, 12, 0]
        assert [rational(x, den) for x in nums] == values

    def test_den_is_the_lcm_not_the_product(self):
        # max would give 6 and the product 24
        den, nums = integral([Q(1, 4), Q(-1, 6)])
        assert den == 12
        assert nums == [3, -2]

    def test_no_denominators_give_one(self):
        assert integral([]) == (1, [])
        assert integral(iter([ZERO, ZERO])) == (1, [0, 0])
        assert integral([Q(4), Q(-7)]) == (1, [4, -7])

    def test_plain_ints(self):
        den, nums = integral([Q(2, 3), Q(-1, 3)])
        assert type(den) is int and all(type(x) is int for x in nums)

    def test_rational_is_in_lowest_terms(self):
        q = rational(-4, 6)
        assert q == Q(-2, 3) and int(q.denominator) == 3
        assert rational(0, 9) == ZERO

    @given(st.lists(st.builds(Q, st.integers(-50, 50), st.integers(1, 60)),
                    max_size=12))
    def test_round_trip_property(self, values):
        den, nums = integral(values)
        assert den > 0 and len(nums) == len(values)
        assert [rational(x, den) for x in nums] == values
        assert den == math.lcm(1, *(int(v.denominator) for v in values))
