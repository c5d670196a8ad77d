import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclochern.scalars import I, ONE, Scalar, ZERO, format_scalar, parse_scalar


def rand_scalar(rng):
    return Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                  Fraction(rng.randint(-9, 9), rng.randint(1, 9)))


def test_field_axioms_random():
    rng = random.Random(1)
    for _ in range(200):
        a, b, c = (rand_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a and a * ONE == a
        if a:
            assert a * a.inverse() == ONE


def test_conjugation_involution_and_norm():
    rng = random.Random(2)
    for _ in range(100):
        a, b = rand_scalar(rng), rand_scalar(rng)
        assert a.conjugate().conjugate() == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a.norm_sq() == 0) == (not a)


def test_i_squared():
    assert I * I == Scalar(-1)


def test_parse_and_format_roundtrip():
    cases = ["3", "-2/7", "1/2+1/3i", "0-1i", "5+2i"]
    for text in cases:
        z = parse_scalar(text)
        assert parse_scalar(format_scalar(z)) == z


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_scalar("2 + bananas")


# A part as callers pass it: an int, an integral Fraction, or a proper Fraction.
_parts = st.one_of(st.integers(-30, 30), st.integers(-30, 30).map(Fraction),
                   st.fractions(min_value=-30, max_value=30, max_denominator=12))


def _exact_canonical(z: Scalar):
    """Both parts are int when integral, Fraction otherwise, never float."""
    for part in (z.re, z.im):
        assert not isinstance(part, float)
        assert type(part) is (int if Fraction(part).denominator == 1 else Fraction)


def _value(z: Scalar) -> tuple:
    return Fraction(z.re), Fraction(z.im)


def _fraction_format(re: Fraction, im: Fraction) -> str:
    """format_scalar as it reads on pure-Fraction parts."""
    if not im:
        return str(re)
    return f"{re}{'+' if im >= 0 else '-'}{abs(im)}i"


@settings(max_examples=300, deadline=None)
@given(a=st.tuples(_parts, _parts), b=st.tuples(_parts, _parts), k=_parts)
def test_mixed_parts_match_fraction_oracle(a, b, k):
    x, y = Scalar(*a), Scalar(*b)
    (xr, xi), (yr, yi) = (tuple(map(Fraction, a)), tuple(map(Fraction, b)))
    kf = Fraction(k)
    expected = [
        (x + y, (xr + yr, xi + yi)),
        (x - y, (xr - yr, xi - yi)),
        (x * y, (xr * yr - xi * yi, xr * yi + xi * yr)),
        (-x, (-xr, -xi)),
        (x + k, (xr + kf, xi)),
        (k - x, (kf - xr, -xi)),
        (k * x, (kf * xr, kf * xi)),
    ]
    n = yr * yr + yi * yi
    if n:
        inv = (yr / n, -yi / n)
        expected += [(y.inverse(), inv),
                     (x / y, (xr * inv[0] - xi * inv[1], xr * inv[1] + xi * inv[0]))]
    if kf:
        expected.append((x / k, (xr / kf, xi / kf)))
    for z, value in expected:
        _exact_canonical(z)
        assert _value(z) == value
    _exact_canonical(x)
    same = Scalar(xr, xi)
    assert x == same and hash(x) == hash(same)
    assert (x == kf) == (xi == 0 and xr == kf)
    assert str(x) == format_scalar(x) == _fraction_format(xr, xi)


def test_float_parts_are_rejected():
    for re, im in ((0.5, 0), (1, 2.0), (0.0, 0.0)):
        with pytest.raises(TypeError):
            Scalar(re, im)


def test_integral_division_stays_exact():
    z = Scalar(1) / Scalar(3)
    assert z.re == Fraction(1, 3) and type(z.re) is Fraction
    assert type((Scalar(6) / 3).re) is int
