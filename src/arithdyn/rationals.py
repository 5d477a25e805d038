"""Exact rational, prime and valuation arithmetic.

Everything downstream (heights, local profiles, strata, capacities) is built
on two primitives defined here: places of Q with the normalization |p|_v = 1/p,
and exact log-values, i.e. linear combinations sum_p q_p * log(p) with rational
coefficients q_p.  Quantities that are exact in the underlying theory (heights,
non-archimedean Green values, capacities) are carried as LogValue and only
converted to float at the final evaluation step.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Dict, Optional, Tuple

# The coefficient / point scalar: arbitrary-precision rational in lowest terms
# (fractions.Fraction guarantees gcd(num, den) = 1 and den >= 1).
Rat = Fraction

__all__ = [
    "Rat",
    "PlaceQ",
    "LogValue",
    "factorize",
    "is_prime",
    "ord_p",
    "weil_height",
    "count_rationals_upto",
]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_TRIAL_BOUND = 10**6


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for the integer sizes handled here."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # Witness set valid for n < 3.3 * 10^24; larger inputs get a strong
    # probabilistic answer, which is fine for desk-scale denominators.
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int, rng: random.Random) -> int:
    """One non-trivial factor of composite odd n (Brent's cycle variant)."""
    while True:
        c = rng.randrange(1, n - 1)
        y, m, g, r, q = rng.randrange(2, n - 1), 128, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> Tuple[Tuple[int, int], ...]:
    """Factor n >= 1 as its (prime, exponent) pairs, primes increasing and
    exponents >= 1; factorize(1) = ().  Trial division up to 10^6, then
    Pollard rho."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    pairs: Dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            pairs[p] = pairs.get(p, 0) + 1
            n //= p
    f = 7
    incr = (4, 2, 4, 2, 4, 6, 2, 6)  # wheel mod 30
    i = 0
    while f * f <= n and f <= _TRIAL_BOUND:
        while n % f == 0:
            pairs[f] = pairs.get(f, 0) + 1
            n //= f
        f += incr[i]
        i = (i + 1) % 8
    if 1 < n < f * f:
        # Trial division has passed sqrt(n), so n is prime.
        pairs[n] = 1
    elif n > 1:
        rng = random.Random(0xC0FFEE ^ n)
        stack = [n]
        while stack:
            m = stack.pop()
            if m == 1:
                continue
            if is_prime(m):
                pairs[m] = pairs.get(m, 0) + 1
                continue
            r = isqrt(m)
            if r * r == m:
                stack.extend((r, r))
                continue
            d = _pollard_rho(m, rng)
            stack.extend((d, m // d))
    return tuple(sorted(pairs.items()))


@dataclass(frozen=True)
class PlaceQ:
    """A place of Q: archimedean, or the finite place attached to a prime p."""

    p: Optional[int] = None

    def __post_init__(self):
        if self.p is not None and not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @classmethod
    def arch(cls) -> "PlaceQ":
        return cls(None)

    @classmethod
    def finite(cls, p: int) -> "PlaceQ":
        return cls(p)

    @property
    def is_arch(self) -> bool:
        return self.p is None

    def __str__(self) -> str:
        return "inf" if self.p is None else str(self.p)


def ord_p(x: Rat, p: int) -> int:
    """p-adic valuation of a nonzero rational (|x|_p = p^-ord_p(x))."""
    if x == 0:
        raise ValueError("ord_p(0) is +infinity")
    n, d, v = x.numerator, x.denominator, 0
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


class LogValue:
    """Exact linear combination sum_p q_p * log(p), q_p rational, p prime.

    log of any positive rational is representable (factor numerator and
    denominator), as are the fractional prime powers appearing in local radii
    like |a_j|_v^{1/(d-j)}.  Values add, scale and compare for equality
    exactly; their order is read from float(), where it is needed.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Optional[Dict[int, Fraction]] = None):
        c = {}
        if coeffs:
            for p, q in coeffs.items():
                if type(q) is not Fraction:
                    q = Fraction(q)
                if q:
                    c[p if type(p) is int else int(p)] = q
        self._c = c

    @classmethod
    def zero(cls) -> "LogValue":
        return cls()

    @classmethod
    def of_prime(cls, p: int, q=1) -> "LogValue":
        """q * log(p)."""
        return cls({p: Fraction(q)})

    @classmethod
    def from_rational(cls, r) -> "LogValue":
        """log(r) for a positive rational r."""
        r = Fraction(r)
        if r <= 0:
            raise ValueError("log of a non-positive rational")
        c: Dict[int, Fraction] = {}
        for p, e in factorize(r.numerator):
            c[p] = c.get(p, Fraction(0)) + e
        for p, e in factorize(r.denominator):
            c[p] = c.get(p, Fraction(0)) - e
        return cls(c)

    @property
    def coeffs(self) -> Dict[int, Fraction]:
        return dict(self._c)

    def coeff(self, p: int) -> Fraction:
        return self._c.get(p, Fraction(0))

    def is_zero(self) -> bool:
        return not self._c

    def __float__(self) -> float:
        return float(sum(float(q) * math.log(p) for p, q in self._c.items()))

    def __add__(self, other: "LogValue") -> "LogValue":
        # Both operands hold nonzero Fractions only: drop cancelled entries
        # and skip the normalising pass of __init__.
        c = dict(self._c)
        for p, q in other._c.items():
            if p in c:
                q = c[p] + q
                if not q:
                    del c[p]
                    continue
            c[p] = q
        out = LogValue.__new__(LogValue)
        out._c = c
        return out

    def __sub__(self, other: "LogValue") -> "LogValue":
        return self + (-other)

    def __neg__(self) -> "LogValue":
        return LogValue({p: -q for p, q in self._c.items()})

    def __mul__(self, k) -> "LogValue":
        k = Fraction(k)
        return LogValue({p: q * k for p, q in self._c.items()})

    __rmul__ = __mul__

    def __truediv__(self, k) -> "LogValue":
        return self * (Fraction(1) / Fraction(k))

    def __eq__(self, other) -> bool:
        return isinstance(other, LogValue) and self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __repr__(self) -> str:
        if not self._c:
            return "LogValue(0)"
        parts = [f"{q}*log{p}" for p, q in sorted(self._c.items())]
        return "LogValue(" + " + ".join(parts) + ")"

    def to_json(self) -> dict:
        return {
            "coeffs": {str(p): f"{q.numerator}/{q.denominator}" for p, q in sorted(self._c.items())},
            "float": float(self),
        }


def weil_height(x: Rat) -> LogValue:
    """h(x) = log max(|num|, den); h(0) = 0."""
    x = Fraction(x)
    if x == 0:
        return LogValue.zero()
    return LogValue.from_rational(max(abs(x.numerator), x.denominator))


def count_rationals_upto(X: int) -> int:
    """Exact |{x in Q : H(x) <= X}| by gcd-filtered enumeration."""
    if X < 1:
        raise ValueError("X must be >= 1")
    import numpy as np

    a = np.arange(1, X + 1, dtype=np.int64)
    total = 2 * X + 1  # denominator 1: 0 and +-1..+-X
    for b in range(2, X + 1):
        total += 2 * int(np.count_nonzero(np.gcd(a, b) == 1))
    return total
