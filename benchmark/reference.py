"""Reference computations for the benchmark, made apart from arithdyn.

run.py calls these in a separate process.  Nothing here imports arithdyn: polynomials arrive as coefficient lists of
Fractions (a_0, ..., a_{d-1}, implicit monic leading term), parsed from the
program's text output by `parse_poly`.

* `shared_count` counts the common preperiodic points of f and g at caps
  (m_cap, n_cap): the number of distinct complex roots of
  gcd(prod (f^m - f^n), prod (g^m' - g^n')), i.e. the degree of the
  squarefree part of that gcd.  A one-prime GF(p) screen settles the common
  case (a trivial gcd mod p forces a trivial gcd over Q); only when the
  screen finds a common factor is the gcd recomputed over Q with sympy.
* `chebyshev_pairing` is the archimedean pairing of z^2 and z^2 - 2 by
  direct quadrature of the Green function of z^2 - 2 over the unit circle.
* `orbit_repeats` decides exact rational preperiodicity by walking the orbit.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

# Screening primes: large, so a spurious common factor mod p has
# probability about deg^2 / p; the first one dividing no denominator is used.
_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563)

_TERM = re.compile(r"^(?:\((-?\d+)(?:/(\d+))?\)|(\d+))?(z(?:\^(\d+))?)?$")


def parse_poly(text: str) -> List[Fraction]:
    """Coefficients (a_0, ..., a_{d-1}) of a monic polynomial written as
    'z^3 - (5/9)z + (8/5)' (the program's text form)."""
    s = text.replace(" ", "")
    terms = re.findall(r"[+-]?[^+-]+", s)
    powers = {}
    for term in terms:
        sign = -1 if term[0] == "-" else 1
        body = term.lstrip("+-")
        m = _TERM.match(body)
        if not m or not body:
            raise ValueError(f"cannot parse term {term!r} of {text!r}")
        if m.group(1) is not None:
            c = Fraction(int(m.group(1)), int(m.group(2) or 1))
        elif m.group(3) is not None:
            c = Fraction(int(m.group(3)))
        else:
            c = Fraction(1)
        e = 0 if m.group(4) is None else int(m.group(5) or 1)
        powers[e] = powers.get(e, Fraction(0)) + sign * c
    d = max(powers)
    if powers[d] != 1:
        raise ValueError(f"{text!r} is not monic")
    return [powers.get(i, Fraction(0)) for i in range(d)]


# --- polynomials over GF(p), ascending coefficient lists -------------------


def _trim(a: List[int]) -> List[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _mul(a: Sequence[int], b: Sequence[int], p: int) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim([c % p for c in out])


def _sub(a: Sequence[int], b: Sequence[int], p: int) -> List[int]:
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return _trim([(x - y) % p for x, y in zip(a, b)])


def _rem(a: List[int], b: List[int], p: int) -> List[int]:
    a = list(a)
    inv = pow(b[-1], p - 2, p)
    db = len(b) - 1
    while len(a) - 1 >= db and a:
        fac = a[-1] * inv % p
        shift = len(a) - 1 - db
        for k in range(db + 1):
            a[shift + k] = (a[shift + k] - fac * b[k]) % p
        _trim(a)
    return a


def _gcd_degree(a: List[int], b: List[int], p: int) -> int:
    while b:
        a, b = b, _rem(a, b, p)
    return len(a) - 1


def _prep_product_mod(coeffs: Sequence[Fraction], m_cap: int, n_cap: int, p: int) -> List[int]:
    """prod over n < m <= m_cap, n <= n_cap of (f^m - f^n), reduced mod p."""
    fc = [c.numerator * pow(c.denominator, p - 2, p) % p for c in coeffs]
    iterates = [[0, 1]]
    for _ in range(m_cap):
        acc = [1]
        for c in reversed(fc):
            acc = _mul(acc, iterates[-1], p)
            acc[0] = (acc[0] + c) % p
        iterates.append(acc)
    prod = [1]
    for m in range(1, m_cap + 1):
        for n in range(min(n_cap, m - 1) + 1):
            prod = _mul(prod, _sub(iterates[m], iterates[n], p), p)
    return prod


# --- the same product over Q (sympy) ----------------------------------------


def _differences_q(coeffs: Sequence[Fraction], m_cap: int, n_cap: int):
    """The sympy Polys f^m - f^n over Q for n < m <= m_cap, n <= n_cap."""
    import sympy

    z = sympy.Symbol("z")
    f = sympy.Poly(
        [1] + [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)],
        z,
        domain="QQ",
    )
    iterates = [sympy.Poly(z, z, domain="QQ")]
    for _ in range(m_cap):
        iterates.append(f.compose(iterates[-1]))
    return [
        iterates[m] - iterates[n] for m in range(1, m_cap + 1) for n in range(min(n_cap, m - 1) + 1)
    ]


def _prep_product_q(coeffs: Sequence[Fraction], m_cap: int, n_cap: int):
    prod, *rest = _differences_q(coeffs, m_cap, n_cap)
    for diff in rest:
        prod = prod * diff
    return prod


def common_part(f: Sequence[Fraction], g: Sequence[Fraction], m_cap: int, n_cap: int):
    """Squarefree part over Q of the gcd of the two preperiodic products,
    as a sympy Poly, or None when the GF(p) screen proves it trivial."""
    dens = [c.denominator for c in list(f) + list(g)]
    p = next(q for q in _PRIMES if all(dn % q for dn in dens))
    if _gcd_degree(_prep_product_mod(f, m_cap, n_cap, p), _prep_product_mod(g, m_cap, n_cap, p), p) == 0:
        return None
    common = _prep_product_q(f, m_cap, n_cap).gcd(_prep_product_q(g, m_cap, n_cap))
    return common.sqf_part() if common.degree() > 0 else None


def shared_count(f: Sequence[Fraction], g: Sequence[Fraction], m_cap: int, n_cap: int) -> int:
    """Number of common preperiodic points of f and g at caps (m_cap, n_cap)."""
    common = common_part(f, g, m_cap, n_cap)
    return 0 if common is None else common.degree()


def divides(min_poly: Sequence[int], common) -> bool:
    """Whether the integer polynomial (ascending coefficients) divides the
    squarefree common part returned by `common_part`."""
    if common is None:
        return False
    import sympy

    z = common.gen
    q = sympy.Poly(list(reversed([int(c) for c in min_poly])), z, domain="QQ")
    return common.rem(q).is_zero


def orbit_repeats(coeffs: Sequence[Fraction], x: Fraction, steps: int = 64, max_bits: int = 4096) -> bool:
    """Exact test that the orbit of the rational x under f repeats within
    `steps` iterations (so x is preperiodic and its canonical height is 0).
    An orbit whose numerators or denominators outgrow `max_bits` is not
    followed further: heights grow like d^n along an escaping orbit."""
    seen = set()
    z = Fraction(x)
    for _ in range(steps):
        if z in seen:
            return True
        if max(z.numerator.bit_length(), z.denominator.bit_length()) > max_bits:
            return False
        seen.add(z)
        acc = Fraction(1)
        for c in reversed(coeffs):
            acc = acc * z + c
        z = acc
    return False


def chebyshev_pairing() -> Tuple[float, float]:
    """(value, quadrature error) of (1/2pi) int G(e^{it}) dt for G the Green
    function of z^2 - 2, G(z) = log|w| with z = w + 1/w and |w| >= 1.

    The unit circle meets the Julia set [-2, 2] at t = 0 and t = pi, where G
    has square-root kinks, so the integral is split there."""
    import cmath

    from scipy.integrate import quad

    def green(t: float) -> float:
        z = cmath.exp(1j * t)
        r = cmath.sqrt(z * z / 4 - 1)
        return math.log(max(abs(z / 2 + r), abs(z / 2 - r)))

    val, err = quad(green, 0.0, math.pi, epsabs=1e-13, epsrel=1e-12, limit=200)
    return val / math.pi, err / math.pi


def fault_class(f: Sequence[Fraction], g: Sequence[Fraction], m_cap: int, n_cap: int) -> Optional[str]:
    """Which known certification fault a pair would meet, if any.

    "real-irrational": a shared point is real but not rational; the
    program's rational snapping rounds it to a nearby rational.
    "multiple-root": a shared point is a multiple root of some f^m - f^n or
    g^m - g^n, so its numeric roots split into clusters that do not match.
    """
    common = common_part(f, g, m_cap, n_cap)
    if common is None:
        return None
    for factor, _ in common.factor_list()[1]:
        if factor.degree() > 1 and factor.count_roots() > 0:
            return "real-irrational"
    for coeffs in (f, g):
        for diff in _differences_q(coeffs, m_cap, n_cap):
            if common.gcd(diff.gcd(diff.diff())).degree() > 0:
                return "multiple-root"
    return None


# --- checks of the program's outputs -----------------------------------------


def survey_errors(rows, m_cap: int, n_cap: int) -> List[str]:
    """Check survey rows given as (f text, g text, case, shared_count)."""
    errors = []
    for f_text, g_text, case, shared in rows:
        expect = shared_count(parse_poly(f_text), parse_poly(g_text), m_cap, n_cap)
        if shared != expect:
            errors.append(
                f"survey row {f_text} | {g_text} (case {case}): shared_count {shared}, reference {expect}"
            )
    return errors


def certificate_errors(f, g, m_cap: int, n_cap: int, min_polys, failed: bool) -> List[str]:
    """Check one certificate's minimal polynomials (ascending integer
    coefficients) against the reference; a failed op is not held to the
    reference count, but what it did certify must still be right."""
    common = common_part(f, g, m_cap, n_cap)
    errors = []
    for mp in min_polys:
        if not divides(mp, common):
            errors.append(f"certified {mp} is not a common preperiodic factor")
        if len(mp) == 2:
            x = Fraction(-mp[0], mp[1])
            if not (orbit_repeats(f, x) and orbit_repeats(g, x)):
                errors.append(f"certified rational {x} is not preperiodic")
    count = 0 if common is None else common.degree()
    points = sum(len(mp) - 1 for mp in min_polys)
    if not failed and points != count:
        errors.append(f"{points} points certified, reference {count}")
    return errors
