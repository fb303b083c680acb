"""Exact scalar arithmetic over the three supported fields."""

import random
from fractions import Fraction

import pytest

from queerhom.algebras import build_base_field, tensor
from queerhom.lie import VerifiedHomomorphism, build_q, lie_tensor
from queerhom.scalars import (
    QQ,
    QI,
    GaussianRational,
    ScalarError,
    as_int_if_integral,
    field_from_spec,
    inverse,
    is_prime,
    parse_field_flag,
)


def test_rational_parse_and_format_round_trip():
    for text in ["0", "1", "-3", "2/3", "-7/5"]:
        x = QQ.parse(text)
        assert QQ.parse(QQ.format(x)) == x
    assert QQ.parse("4/6") == Fraction(2, 3)


def test_rational_rejects_garbage():
    with pytest.raises(ScalarError):
        QQ.parse("1.5x")
    with pytest.raises(ScalarError):
        QQ.parse("")


def test_gaussian_square_of_two_plus_three_i():
    x = QI.parse("2+3i")
    assert x * x == GaussianRational(-5, 12)


def test_gaussian_i_squared_is_minus_one():
    i = QI.sqrt_minus_one()
    assert i is not None
    assert i * i == QI.from_int(-1)


def test_gaussian_division_round_trip():
    rng = random.Random(11)
    for _ in range(50):
        a = GaussianRational(Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)))
        b = GaussianRational(Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)))
        if not b:
            continue
        assert (a / b) * b == a


def test_prime_field_inverse_of_two_mod_five():
    f5 = parse_field_flag("Fp:5")
    assert f5.invert(f5.from_int(2)) == f5.from_int(3)


def test_prime_field_rejects_characteristic_two_and_composites():
    with pytest.raises(ScalarError):
        parse_field_flag("Fp:2")
    with pytest.raises(ScalarError):
        parse_field_flag("Fp:9")
    with pytest.raises(ScalarError):
        parse_field_flag("Fp:1")


def test_sqrt_minus_one_presence_depends_on_the_field():
    assert QQ.sqrt_minus_one() is None
    f5 = parse_field_flag("Fp:5")
    r = f5.sqrt_minus_one()
    assert r is not None and f5.from_int(r * r) == f5.from_int(-1)
    # -1 is not a square mod 7
    assert parse_field_flag("Fp:7").sqrt_minus_one() is None


def test_field_from_spec_matches_flag_parser():
    assert field_from_spec("rationals") == QQ
    assert field_from_spec("gaussian-rationals") == QI
    assert field_from_spec("prime-field", 13) == parse_field_flag("Fp:13")
    with pytest.raises(ScalarError):
        field_from_spec("octonions")


def test_parse_field_flag_rejects_unknown_text():
    with pytest.raises(ScalarError):
        parse_field_flag("R")
    with pytest.raises(ScalarError):
        parse_field_flag("Fp:")


def _reducer(field):
    """The field's reduction of an operator result: from_int over F_p, whose
    values are ints combined in Z; nothing in characteristic 0."""
    return field.from_int if field.characteristic else (lambda x: x)


@pytest.mark.parametrize("flag", ["Q", "Qi", "Fp:5", "Fp:10007"])
def test_field_axioms_on_random_elements(flag):
    field = parse_field_flag(flag)
    red = _reducer(field)
    rng = random.Random(7)
    elems = [field.from_int(rng.randint(-20, 20)) for _ in range(12)]
    for a in elems:
        for b in elems:
            for c in elems[:4]:
                assert red((a + b) * c) == red(a * c + b * c)
            assert red(a * b) == red(b * a)
        assert red(a + field.zero) == a
        assert red(a * field.one) == a
        if a:
            assert red(a * field.invert(a)) == field.one


def test_format_parse_round_trip_across_fields():
    for flag in ["Q", "Qi", "Fp:13"]:
        field = parse_field_flag(flag)
        rng = random.Random(3)
        for _ in range(20):
            x = field.from_int(rng.randint(-40, 40))
            assert field.parse(field.format(x)) == x


# ------------------------------------------------- integer-first rationals


def test_rational_field_values_are_ints_until_a_division():
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.from_int(-7)) is int
    for text, want in [("0", 0), ("-3", -3), ("4/2", 2), ("-6/3", -2)]:
        x = QQ.parse(text)
        assert type(x) is int and x == want
    assert type(QQ.parse("2/3")) is Fraction


def test_integral_fraction_and_int_are_interchangeable():
    # why an integral Fraction left by arithmetic changes no result
    x, y = Fraction(3, 1), 3
    assert x == y and hash(x) == hash(y) and str(x) == str(y)
    assert QQ.format(x) == QQ.format(y)
    assert GaussianRational(x, 0) == GaussianRational(y, 0)
    assert hash(GaussianRational(x, 0)) == hash(GaussianRational(y, 0))


def test_as_int_if_integral_only_turns_integral_fractions_into_ints():
    for x, want in [(Fraction(6, 2), 3), (Fraction(-4, 1), -4), (Fraction(0), 0)]:
        got = as_int_if_integral(x)
        assert type(got) is int and got == want
    half = Fraction(1, 2)
    assert as_int_if_integral(half) is half
    f5 = parse_field_flag("Fp:5")
    # an F_p value is an int already, reduced by its field
    assert type(f5.from_int(8)) is int and f5.from_int(8) == 3
    for x in (7, f5.from_int(3)):
        assert as_int_if_integral(x) is x
    z = as_int_if_integral(GaussianRational(Fraction(2, 1), Fraction(-3, 2)))
    assert z == GaussianRational(2, Fraction(-3, 2))
    assert type(z.re) is int and type(z.im) is Fraction


def test_inverse_keeps_units_as_ints_and_is_exact_elsewhere():
    for u in (1, -1):
        assert type(inverse(u)) is int and inverse(u) == u
    assert type(inverse(2)) is Fraction and inverse(2) == Fraction(1, 2)
    assert inverse(-3) == Fraction(-1, 3)
    assert inverse(Fraction(2, 3)) == Fraction(3, 2)
    assert inverse(Fraction(1, 1)) == 1
    # F_p values are ints, inverted by their field
    f7 = parse_field_flag("Fp:7")
    assert f7.invert(f7.from_int(3)) == f7.from_int(5)
    z = inverse(GaussianRational(0, 2))
    assert z == GaussianRational(0, Fraction(-1, 2))
    for zero in (0, Fraction(0), QI.zero):
        with pytest.raises(ZeroDivisionError):
            inverse(zero)
    for zero in (f7.zero, 7):
        with pytest.raises(ZeroDivisionError):
            f7.invert(zero)


def test_rational_invert_of_an_int_is_a_fraction():
    x = QQ.invert(2)
    assert type(x) is Fraction and x == Fraction(1, 2)
    assert QQ.invert(QQ.from_int(-1)) == -1


def test_gaussian_parts_keep_their_type():
    x = GaussianRational(2, Fraction(1, 3))
    assert type(x.re) is int and type(x.im) is Fraction
    assert type(QI.one.re) is int and type(QI.parse("3-4i").im) is int
    assert QI.parse("1/2+3/4i") == GaussianRational(Fraction(1, 2), Fraction(3, 4))


def test_gaussian_parts_must_be_exact():
    for bad in (0.5, "1/2"):
        with pytest.raises(TypeError):
            GaussianRational(bad, 0)
        with pytest.raises(TypeError):
            GaussianRational(0, bad)


def test_gaussian_division_with_int_parts_is_exact():
    half = GaussianRational(1, 0) / GaussianRational(2, 0)
    assert half == GaussianRational(Fraction(1, 2), 0)
    assert type(half.re) is Fraction
    third = GaussianRational(1, 2) / GaussianRational(3, 0)
    assert third == GaussianRational(Fraction(1, 3), Fraction(2, 3))
    q = GaussianRational(1, 1) / GaussianRational(1, -1)
    assert q == GaussianRational(0, 1)
    q = GaussianRational(3, 4) / GaussianRational(0, 2)
    assert q == GaussianRational(2, Fraction(-3, 2))
    for part in (q.re, q.im):
        assert type(part) in (int, Fraction)
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1, 2) / QI.zero


def test_mod_p_still_rejects_mixed_primes():
    # F_p values are plain ints, so mixed primes are refused per structure
    f5, f7 = parse_field_flag("Fp:5"), parse_field_flag("Fp:7")
    k5, k7 = build_base_field(f5), build_base_field(f7)
    q5, q7 = build_q(1, k5), build_q(1, k7)
    with pytest.raises(ValueError):
        VerifiedHomomorphism(q5, q7, [{t: 1} for t in range(q5.dim)])
    with pytest.raises(ValueError):
        tensor(k5, k7)
    with pytest.raises(ValueError):
        lie_tensor(q5, k7)


# ------------------------------------------------------------- primality


def _trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division_on_small_numbers():
    assert [n for n in range(5000) if is_prime(n)] == [
        n for n in range(5000) if _trial_division(n)
    ]


def test_is_prime_rejects_carmichael_numbers():
    # 561 = 3 * 11 * 17 passes Fermat's test to every base coprime to it
    for n in (561, 1105, 1729, 3215031751):
        assert not is_prime(n)
    with pytest.raises(ScalarError):
        parse_field_flag("Fp:561")


def test_mersenne_prime_modulus_is_accepted():
    p = 2**61 - 1
    assert is_prime(p)
    f = parse_field_flag("Fp:%d" % p)
    assert f.characteristic == p
    assert f.from_int(f.invert(f.from_int(2)) * f.from_int(2)) == f.one


def test_modulus_beyond_the_exact_range_is_rejected():
    big = 2**89 - 1  # prime, but above the range the test decides exactly
    with pytest.raises(ScalarError):
        is_prime(big)
    with pytest.raises(ScalarError):
        parse_field_flag("Fp:%d" % big)
