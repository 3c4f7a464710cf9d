"""Exact scalar arithmetic over prime fields F_p and the rationals.

Elements are plain Python values: canonical residues (``int`` in ``[0, p)``)
for a prime field, ``fractions.Fraction`` in lowest terms for the rationals.
A :class:`FieldCtx` carries the arithmetic; no floating point is used
anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt
from numbers import Integral
from typing import Union

Element = Union[int, Fraction]

_PRIME_CAP = 1 << 31


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division (adequate below 2^31)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    return all(n % d for d in range(3, isqrt(n) + 1, 2))


@lru_cache(maxsize=None)
def prime_below(n: int) -> int:
    """The largest prime less than n (n > 2)."""
    c = n - 1
    while not is_prime(c):
        c -= 1
    return c


class FieldCtx:
    """Arithmetic context for F_p (``kind == "prime"``) or Q (``kind == "rational"``).

    Prime moduli are capped below 2^31 so products of canonical residues fit
    comfortably in 64-bit intermediates used by the enumeration engine.
    """

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind == "prime":
            if p is None or not 2 <= p < _PRIME_CAP:
                raise ValueError(f"prime modulus must satisfy 2 <= p < 2^31, got {p}")
            if not is_prime(p):
                raise ValueError(f"modulus {p} is not prime")
        elif kind == "rational":
            if p is not None:
                raise ValueError("rational context takes no modulus")
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        self.kind = kind
        self.p = p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def prime(p: int) -> "FieldCtx":
        return FieldCtx("prime", p)

    @staticmethod
    def rational() -> "FieldCtx":
        return FieldCtx("rational")

    @staticmethod
    def parse(text: str) -> "FieldCtx":
        """Parse ``"Fp:<p>"`` or ``"Q"``."""
        if not isinstance(text, str):
            raise ValueError(f"field spec must be a string, got {text!r}")
        if text == "Q":
            return FieldCtx.rational()
        if text.startswith("Fp:") and text[3:].isdecimal():
            return FieldCtx.prime(int(text[3:]))
        raise ValueError(f"unrecognized field spec {text!r}")

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FieldCtx) and self.kind == other.kind and self.p == other.p

    def __hash__(self) -> int:
        return hash((self.kind, self.p))

    def __repr__(self) -> str:
        return f"FieldCtx({self.to_str()!r})"

    def to_str(self) -> str:
        return "Q" if self.kind == "rational" else f"Fp:{self.p}"

    def cardinality_at_least(self, m: int) -> bool:
        """True iff the field has at least ``m`` elements."""
        return True if self.kind == "rational" else self.p >= m

    # -- element arithmetic -------------------------------------------------

    def normalize(self, x: Element | str) -> Element:
        """Coerce ``x`` to canonical form (residue in [0, p) or reduced Fraction).

        A plain ``int`` over F_p is tested first: it is by far the most common
        input, and ``isinstance(x, Fraction)`` goes through the ABC machinery.
        A Fraction whose denominator is divisible by p raises ZeroDivisionError.
        Over Q an integral input such as ``numpy.int64`` becomes a Python
        ``int`` first, so the Fraction's numerator never wraps at 64 bits.
        Anything but an integral value, a Fraction or a string (a float, say,
        which is not exact) raises ValueError.
        """
        if isinstance(x, int) and self.kind == "prime":
            return x % self.p
        if isinstance(x, str):
            return self.parse_element(x)
        if isinstance(x, Fraction):
            return self.div(x.numerator % self.p, x.denominator % self.p) if self.kind == "prime" else x
        if not isinstance(x, Integral):
            raise ValueError(f"not an exact field element: {x!r}")
        return int(x) % self.p if self.kind == "prime" else Fraction(int(x))

    def zero(self) -> Element:
        return 0 if self.kind == "prime" else Fraction(0)

    def one(self) -> Element:
        return 1 if self.kind == "prime" else Fraction(1)

    def add(self, a: Element, b: Element) -> Element:
        return (a + b) % self.p if self.kind == "prime" else a + b

    def sub(self, a: Element, b: Element) -> Element:
        return (a - b) % self.p if self.kind == "prime" else a - b

    def neg(self, a: Element) -> Element:
        return (-a) % self.p if self.kind == "prime" else -a

    def mul(self, a: Element, b: Element) -> Element:
        return (a * b) % self.p if self.kind == "prime" else a * b

    def inv(self, a: Element) -> Element:
        """Multiplicative inverse; raises ZeroDivisionError on zero input."""
        if self.kind == "prime":
            a = a % self.p
            if a == 0:
                raise ZeroDivisionError("inverse of zero in prime field")
            return pow(a, -1, self.p)
        if a == 0:
            raise ZeroDivisionError("inverse of zero rational")
        return 1 / Fraction(a)

    def div(self, a: Element, b: Element) -> Element:
        return self.mul(a, self.inv(b))

    # -- text encoding -------------------------------------------------------

    def element_to_str(self, a: Element) -> str:
        """Canonical text form: decimal residue, or ``num`` / ``num/den``."""
        if self.kind == "prime":
            return str(a)
        f = Fraction(a)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

    def parse_element(self, text: str) -> Element:
        """Parse the canonical text form; malformed text raises ValueError."""
        if not isinstance(text, str):
            raise ValueError(f"field element must be a string, got {text!r}")
        text = text.strip()
        try:
            if self.kind == "prime":
                return int(text) % self.p
            num, den = text.split("/") if "/" in text else (text, 1)
            return Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"malformed element {text!r} for {self.to_str()}") from None
