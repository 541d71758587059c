"""Exact scalar arithmetic: arbitrary-precision rationals and prime fields.

Every matrix in the engine carries one of these field objects; all entry
arithmetic goes through it, so no rounding can ever occur.  A rational entry
is an `int` when it is whole and a `fractions.Fraction` with denominator
greater than 1 otherwise, so that each value has one representation and
whole numbers (most entries) cost int arithmetic; prime-field entries are
ints in `0..p-1`.  Coercion is exact as well: both fields refuse a float,
and a prime field maps a Fraction n/d to n * d^-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class FieldMismatchError(ValueError):
    """Operands from two different fields were mixed in one computation."""


# Miller-Rabin with the first 13 primes as bases is deterministic below
# this bound (Sorenson and Webster, Math. Comp. 86 (2017), 985-1003).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError for n >= MR_BOUND, where the
    bases no longer prove primality."""
    if n >= MR_BOUND:
        raise ValueError(
            f"{n} is too large: primality is only decided below {MR_BOUND}"
        )
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _reject_float(x, field):
    """TypeError for a float: the engine takes only exact values."""
    if isinstance(x, float):
        raise TypeError(
            f"{field!r} takes exact values, not the float {x!r}; "
            "give an int, a Fraction or a string")


def _whole(x):
    """The canonical form of a rational: an int when it is whole, else the
    Fraction (whose denominator is then greater than 1)."""
    return x.numerator if x.denominator == 1 else x


@dataclass(frozen=True)
class RationalField:
    """The field of rational numbers with arbitrary-precision integers.

    Every element it returns is in canonical form: an ``int`` when it is
    whole, a ``Fraction`` with denominator greater than 1 otherwise.
    """

    name = "Q"

    def zero(self):
        return 0

    def one(self):
        return 1

    def coerce(self, x):
        if type(x) is int:
            return x
        if type(x) is str and x.isdecimal():
            # the digits Fraction's pattern reads as a whole numerator,
            # parsed without running that pattern
            return int(x)
        _reject_float(x, self)
        return _whole(Fraction(x))

    def add(self, a, b):
        return _whole(a + b)

    def sub(self, a, b):
        return _whole(a - b)

    def mul(self, a, b):
        return _whole(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return _whole(1 / Fraction(a))

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by 0")
        return _whole(Fraction(a) / b)

    def fmt(self, a) -> str:
        return str(a)

    def descriptor(self) -> dict:
        return {"type": "Q"}

    def __repr__(self):
        return "Q"


@dataclass(frozen=True)
class PrimeField:
    """The prime field with p elements, entries stored as ints in 0..p-1."""

    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def name(self) -> str:
        return f"F{self.p}"

    def zero(self):
        return 0

    def one(self):
        return 1

    def coerce(self, x):
        """The image of an int, a numeral string or a Fraction n/d, which
        maps to n * d^-1 (ValueError when p divides d); TypeError for a
        float."""
        if type(x) is int:
            return x % self.p
        if isinstance(x, Fraction):
            n, d = x.numerator, x.denominator
            if d % self.p == 0:
                raise ValueError(
                    f"{x} has no image in {self!r}: {self.p} divides its "
                    "denominator")
            return n * pow(d, -1, self.p) % self.p
        _reject_float(x, self)
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def fmt(self, a) -> str:
        return str(a)

    def descriptor(self) -> dict:
        return {"type": "Fp", "p": self.p}

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    """The prime field with p elements (cached, so GF(p) is GF(p))."""
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


def field_from_descriptor(d: dict):
    """Inverse of Field.descriptor(); used by the JSON loaders."""
    if not isinstance(d, dict) or "type" not in d:
        raise ValueError(f"bad field descriptor: {d!r}")
    if d["type"] == "Q":
        return QQ
    if d["type"] == "Fp":
        p = d.get("p")
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValueError(f"field 'p' must be an integer, got {p!r}")
        return GF(p)
    raise ValueError(f"unknown field type {d['type']!r}")


def same_field(*fields):
    """Check that all arguments are the same field and return it."""
    first = fields[0]
    for f in fields[1:]:
        if f != first:
            raise FieldMismatchError(f"mixed fields {first!r} and {f!r}")
    return first
