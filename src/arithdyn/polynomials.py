"""Monic polynomial families over Q, local profiles, sampling and the
denominator-genericity (epsilon-ordinary) machinery.

A polynomial z^d + a_{d-1} z^{d-1} + ... + a_0 is stored by its coefficient
tuple (a_0, ..., a_{d-1}); the leading coefficient is implicitly 1.  The
centered family fixes a_{d-1} = 0.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .rationals import LogValue, PlaceQ, factorize

__all__ = [
    "MonicPoly",
    "LocalProfile",
    "PairProfile",
    "SliceSpec",
    "local_profile",
    "height",
    "is_ordinary",
    "classify_places",
    "sample_rational",
    "sample",
]


@dataclass(frozen=True)
class MonicPoly:
    """z^d + a_{d-1} z^{d-1} + ... + a_0 with rational a_i; coeffs = (a_0..a_{d-1})."""

    coeffs: Tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) < 2:
            raise ValueError("degree must be >= 2")
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    @property
    def d(self) -> int:
        return len(self.coeffs)

    @property
    def centered(self) -> bool:
        return self.coeffs[-1] == 0

    @classmethod
    def make(cls, d: int, coeff_map: Optional[Dict[int, Union[int, Fraction]]] = None) -> "MonicPoly":
        cs = [Fraction(0)] * d
        for i, c in (coeff_map or {}).items():
            cs[i] = Fraction(c)
        return cls(tuple(cs))

    @classmethod
    def from_text(cls, text: str) -> "MonicPoly":
        powers = _parse_poly_text(text)
        # The degree is that of the highest power whose terms do not cancel.
        d = max((e for e, c in powers.items() if c), default=0)
        if d < 2:
            raise ValueError("degree must be >= 2")
        if powers[d] != 1:
            raise ValueError(f"polynomial is not monic: leading coefficient {powers[d]}")
        cs = [powers.get(i, Fraction(0)) for i in range(d)]
        return cls(tuple(cs))

    def to_text(self) -> str:
        parts = [f"z^{self.d}"]
        for i in range(self.d - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = " - " if c < 0 else " + "
            c = abs(c)
            cs = str(c) if c.denominator == 1 else f"({c})"
            if i == 0:
                parts.append(sign + cs)
            else:
                z = "z" if i == 1 else f"z^{i}"
                head = "" if c == 1 else cs
                parts.append(sign + head + z)
        return "".join(parts)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "MonicPoly":
        cs = [Fraction(int(n), int(dn)) for n, dn in obj["coeffs"]]
        if len(cs) != obj["d"]:
            raise ValueError("coefficient count does not match degree")
        return cls(tuple(cs))

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "coeffs": [[str(c.numerator), str(c.denominator)] for c in self.coeffs],
        }

    def __call__(self, z):
        """Evaluate; exact on Fractions/ints, vectorized on numpy arrays."""
        if isinstance(z, (Fraction, int)):
            return self.eval_exact(Fraction(z))
        arr = np.asarray(z, dtype=complex)
        return np.polyval(self.float_coeffs(), arr)

    def eval_exact(self, z: Fraction) -> Fraction:
        out = Fraction(1)
        for i in range(self.d - 1, -1, -1):
            out = out * z + self.coeffs[i]
        return out

    def float_coeffs(self) -> np.ndarray:
        """Descending coefficient array [1, a_{d-1}, ..., a_0] for numpy."""
        return np.array([1.0] + [float(c) for c in reversed(self.coeffs)], dtype=complex)

    @cached_property
    def _places(self) -> Dict[int, Tuple[Tuple[int, int], ...]]:
        """The place table, the one factorization of the coefficient
        denominators: for each prime p dividing one, in increasing order, the
        pairs (i, m), i increasing, with |a_i|_p = p^m > 1."""
        table: Dict[int, List[Tuple[int, int]]] = {}
        for i, c in enumerate(self.coeffs):
            for p, m in factorize(c.denominator):
                table.setdefault(p, []).append((i, m))
        return {p: tuple(table[p]) for p in sorted(table)}

    def _large(self, p: int) -> Tuple[Tuple[int, int], ...]:
        """The large coefficients at p: the pairs (i, m) with |a_i|_p = p^m > 1."""
        return self._places.get(p, ())

    def _m_exp(self, p: int) -> int:
        """log_p M_{f,p} = max(0, m over the large a_i)."""
        return max((m for _, m in self._large(p)), default=0)

    def _r_exp(self, p: int) -> Fraction:
        """log_p R_{f,p} = max(0, m / (d - i) over the large a_i)."""
        return max([Fraction(0)] + [Fraction(m, self.d - i) for i, m in self._large(p)])

    def _denominator_factors(self, i: int) -> Dict[int, int]:
        """p -> m for the prime powers p^m exactly dividing denom(a_i), p increasing."""
        return {p: m for p, large in self._places.items() for j, m in large if j == i}

    @cached_property
    def _arch(self) -> "LocalProfile":
        return _arch_profile(self)

    def denominator_primes(self) -> Tuple[int, ...]:
        return tuple(self._places)

    def explicit_good_at(self, p: int) -> bool:
        """All |a_i|_p <= 1: p has no row in the place table."""
        return not self._large(p)

    def __str__(self) -> str:
        return self.to_text()


_TERM_RE = re.compile(
    r"^(?:\((?P<pc>-?\d+(?:/\d+)?)\)|(?P<c>-?\d+(?:/\d+)?))?\s*\*?\s*(?P<z>z(?:\^(?P<e>\d+))?)?$"
)


def _parse_poly_text(text: str) -> Dict[int, Fraction]:
    s = text.replace(" ", "").replace("**", "^")
    if not s:
        raise ValueError("empty polynomial")
    terms: List[str] = []
    cur = ""
    depth = 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0 and cur and cur[-1] not in "(^*/+-":
            terms.append(cur)
            cur = ""
        cur += ch
    terms.append(cur)
    powers: Dict[int, Fraction] = {}
    for term in terms:
        sign = 1
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        m = _TERM_RE.match(term)
        if not m or (m.group("pc") is None and m.group("c") is None and m.group("z") is None):
            raise ValueError(f"cannot parse term {term!r} in {text!r}")
        cstr = m.group("pc") or m.group("c")
        coeff = Fraction(cstr) if cstr else Fraction(1)
        if m.group("z"):
            e = int(m.group("e") or 1)
        else:
            e = 0
        powers[e] = powers.get(e, Fraction(0)) + sign * coeff
    return powers


@dataclass(frozen=True)
class LocalProfile:
    """Local data of f at a place: exact log M_{f,v} and log R_{f,v}."""

    place: PlaceQ
    M: LogValue
    R: LogValue


def local_profile(f: MonicPoly, v: PlaceQ) -> LocalProfile:
    """M_{f,v} = max(1, |a_i|_v); R bound on the filled Julia set.

    Archimedean: R = 3 max(1, |a_{d-1}|, |a_{d-2}|^{1/2}, ..., |a_0|^{1/d});
    finite places drop the factor 3.
    """
    if v.is_arch:
        return f._arch
    p = v.p
    return LocalProfile(v, LogValue.of_prime(p, f._m_exp(p)), LogValue.of_prime(p, f._r_exp(p)))


def _arch_profile(f: MonicPoly) -> LocalProfile:
    """The archimedean local_profile, built once per polynomial: M from the
    largest |a_i| > 1 and R from the largest |a_i|^(1/(d-i)), picked by exact
    comparisons of rationals; ties have equal logs, so the first is taken."""
    d = f.d
    big = [(i, abs(c)) for i, c in enumerate(f.coeffs) if abs(c) > 1]
    if not big:
        return LocalProfile(PlaceQ.arch(), LogValue.zero(), LogValue.of_prime(3))
    m = max(big, key=lambda t: t[1])
    r = big[0]
    for t in big[1:]:
        # |a_i|^(1/(d-i)) > |a_k|^(1/(d-k))  <=>  |a_i|^(d-k) > |a_k|^(d-i)
        if t[1] ** (d - r[0]) > r[1] ** (d - t[0]):
            r = t
    logs = {
        i: LogValue(dict(factorize(abs(f.coeffs[i].numerator)))
                    | {p: -e for p, e in f._denominator_factors(i).items()})
        for i in {m[0], r[0]}
    }
    R = logs[r[0]] * Fraction(1, d - r[0]) + LogValue.of_prime(3)
    return LocalProfile(PlaceQ.arch(), logs[m[0]], R)


def height(f: MonicPoly) -> LogValue:
    """h(f) = sum_v log max(1, |a_{d-1}|_v, ..., |a_0|_v), exact."""
    return LogValue({p: f._m_exp(p) for p in f._places}) + f._arch.M


def _eps_fraction(eps) -> Fraction:
    """The tolerance exponent eps as an exact fraction in (0, 1/4), a float
    read from its decimal text.  is_ordinary raises integers to the power of
    its denominator, so one above 10^4 (2 * 10^16 for the float 1/7) is refused."""
    e = Fraction(str(eps)) if isinstance(eps, float) else Fraction(eps)
    if not 0 < e < Fraction(1, 4):
        raise ValueError("eps must lie in (0, 1/4)")
    if e.denominator > 10**4:
        raise ValueError(f"eps = {eps}: denominator > 10^4; pass a Fraction such as Fraction(1, 7)")
    return e


def _pair_coefficients(f: MonicPoly, g: MonicPoly) -> List[Tuple[str, Fraction, int]]:
    """(label, coefficient, radical of its denominator) over both maps."""
    return [
        (f"{tag}{i}", c, math.prod(h._denominator_factors(i)))
        for tag, h in (("a", f), ("b", g))
        for i, c in enumerate(h.coeffs)
    ]


def is_ordinary(f: MonicPoly, g: MonicPoly, X: int, eps) -> Tuple[bool, Optional[str]]:
    """Denominator-genericity test for a pair (f, g) in P_c(X) x P(X).

    Both conditions range jointly over the nonzero coefficients of f and g:
    rad(denom(c)) >= X^(1-2*eps) for each, and gcd(denom(c), denom(c')) <=
    X^(2*eps) for each pair at distinct positions.  Exact-zero coefficients
    (including the centered a_{d-1} = 0) are exempt.  Returns (ok, witness)
    where witness names the first violated condition.
    """
    if not f.centered:
        raise ValueError("first polynomial must be centered (a_{d-1} = 0)")
    coeffs = _pair_coefficients(f, g)
    for label, c, _ in coeffs:
        if max(abs(c.numerator), c.denominator) > X:
            raise ValueError(f"coefficient {label}={c} has height > X={X}")
    e = _eps_fraction(eps)
    q_rad = 1 - 2 * e
    q_gcd = 2 * e
    nonzero = [(lab, c, r) for lab, c, r in coeffs if c != 0]
    for lab, c, r in nonzero:
        # r >= X^(1-2e)  <=>  r^den >= X^num, all integer
        if r ** q_rad.denominator < X ** q_rad.numerator:
            return False, f"rad(denom({lab}))={r} < X^(1-2eps)"
    for i in range(len(nonzero)):
        for j in range(i + 1, len(nonzero)):
            (l1, c1, _), (l2, c2, _) = nonzero[i], nonzero[j]
            g12 = gcd(c1.denominator, c2.denominator)
            if g12 ** q_gcd.denominator > X ** q_gcd.numerator:
                return False, f"gcd(denom({l1}),denom({l2}))={g12} > X^(2eps)"
    return True, None


@dataclass(frozen=True)
class PairProfile:
    """Finite-place classification of a pair: associated vs bad places."""

    f: MonicPoly
    g: MonicPoly
    assoc: Dict[int, Tuple[str, int]]  # prime -> ("f"|"g", coefficient index)
    bad: Tuple[int, ...]


def classify_places(f: MonicPoly, g: MonicPoly) -> PairProfile:
    """Mark every finite place dividing a coefficient denominator.

    A place is associated to coefficient a_j (resp. b_j) when that is the only
    coefficient of the pair with |.|_v > 1; any place where two or more
    coefficients are v-adically large is bad.  Places dividing nothing are
    trivial and omitted.
    """
    primes = sorted(set(f.denominator_primes()) | set(g.denominator_primes()))
    assoc: Dict[int, Tuple[str, int]] = {}
    bad: List[int] = []
    for p in primes:
        large = [("f", i) for i, _ in f._large(p)] + [("g", i) for i, _ in g._large(p)]
        if len(large) == 1:
            assoc[p] = large[0]
        else:
            bad.append(p)
    return PairProfile(f, g, assoc, tuple(bad))


@dataclass(frozen=True)
class SliceSpec:
    """Coordinate slice: fixed coefficient indices; everything else is free.

    a_0 must stay free (the slice families require the constant coefficient to
    vary over the full height box).
    """

    fixed: Dict[int, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "fixed", {int(i): Fraction(c) for i, c in self.fixed.items()})
        if 0 in self.fixed:
            raise ValueError("slices may not fix a_0")


def sample_rational(X: int, rng) -> Fraction:
    """Uniform over {x in Q : H(x) <= X} by gcd-filtered rejection."""
    while True:
        a = int(rng.integers(-X, X + 1))
        b = int(rng.integers(1, X + 1))
        if gcd(abs(a), b) == 1:
            return Fraction(a, b)


def sample(
    d: int,
    X: int,
    rng,
    centered: bool = False,
    slice: Optional[SliceSpec] = None,
) -> MonicPoly:
    """Uniform sample from P(X), P_c(X), or a coordinate slice thereof."""
    if X < 1:
        raise ValueError("X must be >= 1")
    cs: List[Fraction] = []
    for i in range(d):
        if slice is not None and i in slice.fixed:
            if centered and i == d - 1 and slice.fixed[i] != 0:
                raise ValueError("slice fixes a_{d-1} != 0 but the family is centered")
            cs.append(slice.fixed[i])
        elif centered and i == d - 1:
            cs.append(Fraction(0))
        else:
            cs.append(sample_rational(X, rng))
    return MonicPoly(tuple(cs))
