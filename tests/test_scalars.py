"""Exact scalar arithmetic over the three supported fields."""

import random
from fractions import Fraction
from itertools import permutations

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

from oracles import qi_pair, qi_pair_op


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
        a = Fraction(rng.randint(-9, 9)) + Fraction(rng.randint(-9, 9)) * QI.i
        b = Fraction(rng.randint(-9, 9)) + Fraction(rng.randint(-9, 9)) * QI.i
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
    # non-ASCII digits, which str.isdigit accepts, and a prime past the
    # digit limit of int() are refused as ScalarError, as a file's
    # characteristic is
    for flag in ("R", "Fp:", "Fp:\u00b2", "Fp:\u0663", "Fp:" + "9" * 5000):
        with pytest.raises(ScalarError):
            parse_field_flag(flag)
    for text in ("\u00b2", "\u0663", "9" * 5000):
        with pytest.raises(ScalarError, match="string of digits"):
            field_from_spec("prime-field", text)


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
    assert GaussianRational(x, 1) == GaussianRational(y, 1)
    assert hash(GaussianRational(x, 1)) == hash(GaussianRational(y, 1))
    assert GaussianRational(1, x) == GaussianRational(1, y)
    assert hash(GaussianRational(1, x)) == hash(GaussianRational(1, y))


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


def _is_qi_value(v):
    """A real value exactly an int or a Fraction, any other a GaussianRational
    with a nonzero imaginary part."""
    if type(v) is GaussianRational:
        return v.im != 0
    return type(v) in (int, Fraction)


def test_gaussian_parts_keep_their_type():
    # a real value of Q(i) is a plain rational, as over Q
    for v, want in [(QI.zero, 0), (QI.one, 1), (QI.from_int(-7), -7), (QI.parse("3"), 3),
                    (QI.parse("4/2"), 2), (QI.parse("3+0i"), 3), (QI.i * QI.i, -1)]:
        assert type(v) is int and v == want
    assert type(QI.parse("1/2")) is Fraction and QI.parse("1/2") == Fraction(1, 2)
    x = GaussianRational(2, Fraction(1, 3))
    assert type(x.re) is int and type(x.im) is Fraction
    assert type(QI.i.im) is int and type(QI.parse("3-4i").im) is int
    assert QI.parse("1/2+3/4i") == GaussianRational(Fraction(1, 2), Fraction(3, 4))
    # arithmetic drops a zero imaginary part, on either side of a rational
    z = QI.parse("1/2+i")
    for v in (z - QI.i, z + (-QI.i), -QI.i + z, z * GaussianRational(1, -2), 2 * QI.i - QI.i * 2):
        assert _is_qi_value(v) and type(v) is not GaussianRational
    assert z - QI.i == Fraction(1, 2)
    assert QI.parse("1+i") * QI.parse("1-i") == 2
    for im in (0, Fraction(0)):
        with pytest.raises(ValueError):
            GaussianRational(3, im)


def test_gaussian_parts_must_be_exact():
    for bad in (0.5, "1/2"):
        with pytest.raises(TypeError):
            GaussianRational(bad, 0)
        with pytest.raises(TypeError):
            GaussianRational(0, bad)


def test_gaussian_division_with_int_parts_is_exact():
    third = GaussianRational(1, 2) / 3
    assert third == GaussianRational(Fraction(1, 3), Fraction(2, 3))
    half = GaussianRational(1, 2) / GaussianRational(2, 4)
    assert half == Fraction(1, 2) and type(half) is Fraction
    one = GaussianRational(1, 1) / GaussianRational(1, 1)
    assert one == 1 and type(one) in (int, Fraction)
    q = GaussianRational(1, 1) / GaussianRational(1, -1)
    assert q == GaussianRational(0, 1)
    q = GaussianRational(3, 4) / GaussianRational(0, 2)
    assert q == GaussianRational(2, Fraction(-3, 2))
    # a rational divided by a GaussianRational
    assert 2 / GaussianRational(0, 2) == GaussianRational(0, -1)
    assert Fraction(1, 2) / GaussianRational(1, 1) == GaussianRational(Fraction(1, 4), Fraction(-1, 4))
    assert 0 / GaussianRational(1, 1) == 0
    for v in (third, q, 2 / GaussianRational(0, 2)):
        assert type(v.re) in (int, Fraction) and type(v.im) in (int, Fraction)
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1, 2) / QI.zero
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1, 2) / Fraction(0)


def _random_qi_pair(rng):
    """A pair (re, im) of Fractions, im zero in a third of the draws."""
    def rat():
        return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
    return rat(), (rat() if rng.random() < 2 / 3 else Fraction(0))


def _qi_value(pair):
    """The Q(i) value of a pair, in the field's canonical form."""
    re, im = (as_int_if_integral(t) for t in pair)
    return re + im * QI.i


def test_qi_arithmetic_matches_pair_arithmetic():
    # mixed operands (rational with GaussianRational) and the reflected
    # operators are all met; division is compared where one side is not a
    # rational, as int / int is a float, and through inverse everywhere
    rng = random.Random(20261019)
    values = []
    for _ in range(400):
        x, y = _random_qi_pair(rng), _random_qi_pair(rng)
        a, b = _qi_value(x), _qi_value(y)
        assert qi_pair(a) == x and qi_pair(b) == y
        got = {"+": a + b, "-": a - b, "*": a * b, "neg": -a}
        if y != (0, 0):
            got["/"] = a * inverse(b)
            if type(a) is GaussianRational or type(b) is GaussianRational:
                assert a / b == got["/"]
        for op, v in got.items():
            assert _is_qi_value(v), (op, a, b, v)
            want = qi_pair_op(op, x, y) if op != "neg" else (-x[0], -x[1])
            assert qi_pair(v) == want, (op, a, b, v)
            if GaussianRational in (type(a), type(b)) and want[0].denominator == 1:
                # a cancelled imaginary part leaves an integral real part an int
                assert type(v) is not Fraction, (op, a, b, v)
        assert (a == b) == (x == y)
        values.extend(got.values())
        values.extend((a, b))
    for v in values:
        for w in values[:60]:
            if v == w:
                assert hash(v) == hash(w)
    assert any(type(v) is GaussianRational for v in values)
    assert any(type(v) is not GaussianRational for v in values)
    # the order case: the same terms summed in every order, a partial sum
    # that is zero dropped as every sparse accumulation drops it, give one
    # value of one type, whichever pair of terms cancels first
    h = GaussianRational(Fraction(1, 2), 1)
    for terms in ([h, -h, -1], [h, GaussianRational(Fraction(1, 2), -1), -2]):
        sums = set()
        for order in permutations(terms):
            acc = 0
            for t in order:
                acc = acc + t if acc else t
            sums.add((acc, type(acc)))
        assert sums == {(-1, int)}, terms


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
