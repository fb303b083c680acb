"""Exact scalar arithmetic over the three admissible coefficient fields.

Values are lightweight and integer-first.  A rational is a plain ``int``
whenever it is integral and becomes a ``fractions.Fraction`` only when a
division gives a non-integer.  Arithmetic may still leave an integral
``Fraction``, which is harmless for results because ``Fraction(3, 1) == 3``,
their hashes agree and ``str`` prints both as ``3``.  Only the rows an
echelon stores are normalized, with :func:`as_int_if_integral` (over Q(i)
part by part), because every later reduction reads them and ``int``
arithmetic is the fast path.

A value of Q(i) is a rational exactly when it is real: its zero, its one,
``from_int`` and ``parse`` of a real number are plain rationals, and the
rationals of Q and of Q(i) are the same objects.  :class:`GaussianRational`
holds only the values with a nonzero imaginary part; its arithmetic takes a
rational on either side and gives a rational back, an integral one as an
``int``, whenever the imaginary part cancels.  So most Q(i) work is Q work,
with no object per value.

An element of F_p is a plain ``int`` in [0, p), owned by its
:class:`PrimeField`: nothing in the value records p.  Sums and products of
such ints are computed in Z, and every layer that combines scalars reduces
them with the field's ``characteristic``, which is p for F_p and 0 for Q
and Q(i), where nothing is reduced.  A :class:`Field` object interprets,
parses, formats and inverts values, so the code that combines scalars takes
the field along with them.

Division is exact: every division between scalars goes through
:meth:`Field.invert` (over Q and Q(i), :func:`inverse`), never through
``a / b``, because ``int / int`` is a float.

Characteristic 2 is rejected everywhere: 2 must be invertible (nu^2 = 1
forces [nu, nu] = 2).  Floating point never appears.
"""
from __future__ import annotations

import operator
import re
from fractions import Fraction


class ScalarError(ValueError):
    """Malformed scalar text or an operation outside the field."""


_RATIONAL_TYPES = (int, Fraction)


def inverse(x):
    """Exact 1/x for a nonzero scalar of Q or Q(i); ZeroDivisionError for 0.

    Plus and minus 1 stay ints and any other int n becomes Fraction(1, n).
    A Fraction or GaussianRational divides 1 itself.  An F_p value is an
    int, so it is inverted by its field.
    """
    if type(x) is int:
        if x == 1 or x == -1:
            return x
        return Fraction(1, x)
    return 1 / x


def as_int_if_integral(x):
    """An integral Fraction as its int, and a Q(i) value with each integral
    Fraction part as an int; every other value unchanged."""
    t = type(x)
    if t is Fraction:
        return x.numerator if x.denominator == 1 else x
    if t is GaussianRational:
        return GaussianRational(as_int_if_integral(x.re), as_int_if_integral(x.im))
    return x


def _gaussian(re, im):
    """re + im*i: the rational re when im is zero, an integral one as its
    int, else a GaussianRational."""
    return GaussianRational(re, im) if im else as_int_if_integral(re)


class GaussianRational:
    """a + b*i with exact rational a, b (each an int or a Fraction) and b != 0.

    A real value of Q(i) is a plain rational, so the other operand of every
    operator is a GaussianRational or a rational, and a result whose
    imaginary part cancels is returned as its real part, an integral one
    as an int.
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        if type(re) not in _RATIONAL_TYPES or type(im) not in _RATIONAL_TYPES:
            raise TypeError("Q(i) parts must be int or Fraction, got %r and %r" % (re, im))
        if not im:
            raise ValueError("a real value of Q(i) is a plain rational, not %r" % (re,))
        self.re = re
        self.im = im

    def __add__(self, other):
        t = type(other)
        if t is GaussianRational:
            return _gaussian(self.re + other.re, self.im + other.im)
        if t is int or t is Fraction:
            return GaussianRational(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        t = type(other)
        if t is GaussianRational:
            return _gaussian(self.re - other.re, self.im - other.im)
        if t is int or t is Fraction:
            return GaussianRational(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        t = type(other)
        if t is int or t is Fraction:
            return GaussianRational(other - self.re, -self.im)
        return NotImplemented

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        t = type(other)
        if t is GaussianRational:
            return _gaussian(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if t is int or t is Fraction:
            return _gaussian(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        t = type(other)
        if t is GaussianRational:
            s = inverse(other.re * other.re + other.im * other.im)
            return _gaussian(
                (self.re * other.re + self.im * other.im) * s,
                (self.im * other.re - self.re * other.im) * s,
            )
        if t is int or t is Fraction:
            s = inverse(other)
            return GaussianRational(self.re * s, self.im * s)
        return NotImplemented

    def __rtruediv__(self, other):
        # other / self = other * conj(self) / |self|^2, which is 0 for other 0
        t = type(other)
        if t is int or t is Fraction:
            s = other * inverse(self.re * self.re + self.im * self.im)
            return _gaussian(self.re * s, -self.im * s)
        return NotImplemented

    def __eq__(self, other):
        # a rational is real and self is not, so they are never equal
        return (
            type(other) is GaussianRational
            and self.re == other.re
            and self.im == other.im
        )

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return "GaussianRational(%s, %s)" % (self.re, self.im)


_RAT = r"[+-]?\d+(?:/\d+)?"
_RAT_RE = re.compile(r"^(%s)$" % _RAT)
# imaginary tail: an explicitly signed rational (or bare sign) followed by i
_GAUSS_RE = re.compile(r"^(?P<re>%s)?(?P<im>[+-](?:\d+(?:/\d+)?)?|(?:\d+(?:/\d+)?))?i$" % _RAT)


def _parse_rational(text: str):
    """An int for integral text such as "4/2", else a Fraction."""
    m = _RAT_RE.match(text)
    if not m:
        raise ScalarError("not a rational: %r" % text)
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ScalarError("zero denominator: %r" % text)
        q = Fraction(int(num), int(den))
        return q.numerator if q.denominator == 1 else q
    return int(text)


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below this bound (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality test; ScalarError for n it cannot decide exactly."""
    if n >= _MR_BOUND:
        raise ScalarError(
            "modulus %d is too large: primality is decided only below %d" % (n, _MR_BOUND)
        )
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Shared interface: parse/format, unit elements, characteristic."""

    kind = ""
    characteristic = 0

    def parse(self, text: str):
        raise NotImplementedError

    def format(self, x) -> str:
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def invert(self, x):
        return inverse(x)

    def sqrt_minus_one(self):
        """A value i with i*i = -1, or None if the field has none."""
        return None

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.kind == other.kind
            and self.characteristic == other.characteristic
        )

    def __hash__(self):
        return hash((self.kind, self.characteristic))

    def __repr__(self):
        return "<field %s>" % self.name

    @property
    def name(self):
        if self.kind == "prime-field":
            return "F_%d" % self.characteristic
        return {"rationals": "Q", "gaussian-rationals": "Q(i)"}[self.kind]


class RationalField(Field):
    kind = "rationals"

    def __init__(self):
        # set on the instance, as in every field: the kernels read it on
        # every call, and an instance attribute is the fast lookup
        self.characteristic = 0
        self.zero = 0
        self.one = 1

    def parse(self, text):
        return _parse_rational(text.strip())

    def format(self, x):
        return str(x)

    def from_int(self, n):
        return operator.index(n)


class GaussianRationalField(Field):
    """Q(i): its real values are the rationals of Q, the others are
    GaussianRationals (module docstring)."""

    kind = "gaussian-rationals"

    def __init__(self):
        self.characteristic = 0
        self.zero = 0
        self.one = 1
        self.i = GaussianRational(0, 1)

    def parse(self, text):
        text = text.strip()
        if "i" not in text:
            return _parse_rational(text)
        m = _GAUSS_RE.match(text)
        if not m:
            raise ScalarError("not a gaussian rational: %r" % text)
        re_part = m.group("re")
        im_part = m.group("im")
        if re_part is not None and im_part is None:
            # e.g. "3/2i": the regex can eat the whole coefficient as re
            re_part, im_part = None, re_part
        re_val = _parse_rational(re_part) if re_part is not None else 0
        if im_part is None or im_part == "+":
            im_val = 1
        elif im_part == "-":
            im_val = -1
        else:
            im_val = _parse_rational(im_part)
        return _gaussian(re_val, im_val)

    def format(self, x):
        if type(x) is not GaussianRational:
            return str(x)
        if abs(x.im) == 1:
            tail = "i" if x.im > 0 else "-i"
        else:
            tail = "%si" % x.im
        if not x.re:
            return tail
        if x.im > 0:
            return "%s+%s" % (x.re, tail)
        return "%s%s" % (x.re, tail)

    def from_int(self, n):
        return operator.index(n)

    def sqrt_minus_one(self):
        return self.i


class PrimeField(Field):
    """F_p for an odd prime p; its values are the ints 0, 1, ..., p - 1."""

    kind = "prime-field"

    def __init__(self, p: int):
        if not is_prime(p):
            raise ScalarError("modulus %d is not prime" % p)
        if p == 2:
            raise ScalarError("characteristic 2 is not admissible (2 must be invertible)")
        self.characteristic = p
        self.zero = 0
        self.one = 1

    def parse(self, text):
        text = text.strip()
        p = self.characteristic
        q = _parse_rational(text)
        if q.denominator % p == 0:
            raise ScalarError("denominator of %r vanishes in F_%d" % (text, p))
        return q.numerator * pow(q.denominator, -1, p) % p

    def format(self, x):
        return str(x)

    def from_int(self, n):
        return operator.index(n) % self.characteristic

    def invert(self, x):
        p = self.characteristic
        if x % p == 0:
            raise ZeroDivisionError("division by zero in F_%d" % p)
        return pow(x, -1, p)

    def sqrt_minus_one(self):
        p = self.characteristic
        if p % 4 != 1:
            return None
        a = 2
        while pow(a, (p - 1) // 2, p) != p - 1:
            a += 1
        return pow(a, (p - 1) // 4, p)


QQ = RationalField()
QI = GaussianRationalField()


def _digits(text: str):
    """text as an int if it is ASCII digits that int() reads (it caps their
    number), else None: the digit rule of field_from_spec and parse_field_flag."""
    try:
        return int(text) if text.isascii() and text.isdigit() else None
    except ValueError:  # past Python's limit on int digits
        return None


def field_from_spec(kind: str, characteristic=None) -> Field:
    """Build a field from the (kind, characteristic) pair used in JSON files;
    a characteristic is a JSON integer or a string of digits, nothing else."""
    if kind == "rationals":
        return QQ
    if kind == "gaussian-rationals":
        return QI
    if kind == "prime-field":
        if characteristic is None:
            raise ScalarError("prime-field needs a characteristic")
        p = _digits(characteristic) if isinstance(characteristic, str) else characteristic
        if type(p) is not int:  # a JSON true is a bool, not a number
            raise ScalarError(
                "characteristic must be an integer or a string of digits, got %r"
                % (characteristic,)
            )
        return PrimeField(p)
    raise ScalarError("unknown scalar kind: %r" % kind)


def parse_field_flag(flag: str) -> Field:
    """CLI field syntax: Q | Qi | Fp:P."""
    flag = flag.strip()
    if flag == "Q":
        return QQ
    if flag == "Qi":
        return QI
    if flag.startswith("Fp:"):
        p = _digits(flag[3:])
        if p is None:
            raise ScalarError("bad prime in field flag: %r" % flag)
        return PrimeField(p)
    raise ScalarError("unknown field flag: %r (expected Q, Qi or Fp:P)" % flag)
