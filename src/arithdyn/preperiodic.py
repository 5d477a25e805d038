"""Desk-scale preperiodic points: the disjointness certificate (the shells
test of `nonarchimedean` at a finite place, the survey's Case 1), complex
preperiodic clusters, exact shared preperiodic points, and exact enumeration
of rational preperiodic points.

The points that f and g share at caps (m, n) are exactly the roots of
gcd(prod (f^m - f^n), prod (g^m' - g^n')) over Q.  `prep_intersect` screens
that gcd modulo one 31-bit prime dividing no leading coefficient, where a
trivial gcd mod p proves a trivial gcd over Q (Brown, JACM 1971).  A common
factor found by the screen is lifted and checked exactly when it is one
rational point, and otherwise computed over Z and factored with sympy,
imported only then.  Every root of f^m - f^n is preperiodic, so no tolerance
and no height check is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Tuple

import numpy as np

from .nonarchimedean import julia_shells, shells_certify_disjoint
from .polynomials import MonicPoly, local_profile
from .rationals import PlaceQ, factorize, is_prime

__all__ = [
    "PrepCertificate",
    "CertifiedPoint",
    "CapExceeded",
    "disjoint_certificate",
    "preperiodic_complex",
    "prep_intersect",
    "rational_prep",
    "is_rational_preperiodic",
]


class CapExceeded(RuntimeError):
    """A configured degree / size budget was hit; never silently truncated."""


@dataclass(frozen=True)
class CertifiedPoint:
    """The Galois orbit of common preperiodic points cut out by an irreducible
    integer minimal polynomial (ascending coefficients), with the canonical
    heights hf, hg of its points."""

    min_poly: Tuple[int, ...]
    hf: float
    hg: float

    def to_json(self) -> dict:
        return {"minpoly": list(self.min_poly), "hf": self.hf, "hg": self.hg}


@dataclass(frozen=True)
class PrepCertificate:
    verdict: str  # "disjoint" | "intersection" | "inconclusive"
    witness_place: Optional[int]
    points: Tuple[CertifiedPoint, ...]
    m_cap: int
    n_cap: int
    matched_clusters: int = 0  # shared points found: the sum of the min_poly degrees
    suspected_equal: bool = False

    def to_json(self) -> dict:
        return {
            "schema": 2,
            "verdict": self.verdict,
            "witness_place": self.witness_place,
            "points": [p.to_json() for p in self.points],
            "caps": {"m": self.m_cap, "n": self.n_cap},
            "matched_clusters": self.matched_clusters,
            "suspected_equal": self.suspected_equal,
        }


def disjoint_certificate(f: MonicPoly, g: MonicPoly) -> Optional[PlaceQ]:
    """First finite place where the shells test proves that the filled Julia
    sets of f and g, and so their preperiodic points, do not meet.

    At each prime dividing a coefficient denominator, `julia_shells` gives the
    radii |zeta|_v each filled Julia set can take and `shells_certify_disjoint`
    compares them; at any other prime both are the unit ball.  Returns None if
    no place qualifies.
    """
    for p in sorted(set(f.denominator_primes()) | set(g.denominator_primes())):
        v = PlaceQ.finite(p)
        if shells_certify_disjoint(julia_shells(f, v), julia_shells(g, v)):
            return v
    return None


_DEGREE_BUDGET = 4096


def _mul(a: List[int], b: List[int]) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    nz = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in nz:
                out[i + j] += x * y
    return out


def _iterates(f: MonicPoly, m_cap: int) -> List[Tuple[List[int], int]]:
    """The iterates f^0, ..., f^m_cap exactly: f^k = P / E as (P, E) with P
    ascending integer coefficients and E a positive integer."""
    if f.d**m_cap > _DEGREE_BUDGET:
        raise CapExceeded(f"degree {f.d ** m_cap} exceeds budget {_DEGREE_BUDGET}")
    den = math.lcm(*(c.denominator for c in f.coeffs))
    F = [int(c * den) for c in f.coeffs] + [den]  # f = F / den
    out = [([0, 1], 1)]
    for _ in range(m_cap):
        P, E = out[-1]
        # Horner in P / E, cleared of denominators: sum F_i P^i E^(d-i).
        acc, e_pow = [F[-1]], 1
        for c in reversed(F[:-1]):
            e_pow *= E
            acc = _mul(acc, P)
            acc[0] += c * e_pow
        k = gcd(den * e_pow, *acc)
        out.append(([c // k for c in acc], den * e_pow // k))
    return out


def _difference(hi: Tuple[List[int], int], lo: Tuple[List[int], int]) -> List[int]:
    """The primitive integer polynomial of f^m - f^n from two iterates, m > n;
    its leading coefficient is positive."""
    (P, E), (Q, G) = hi, lo
    L = math.lcm(E, G)
    out = [c * (L // E) for c in P]
    for i, c in enumerate(Q):
        out[i] -= c * (L // G)
    k = gcd(*out)
    return [c // k for c in out]


def preperiodic_complex(
    f: MonicPoly, m_cap: int, n_cap: int, tol: float = 1e-8
) -> List[Tuple[complex, List[Tuple[int, int]]]]:
    """Numeric roots of f^m - f^n for all n < m <= m_cap, n <= n_cap,
    deduplicated at tolerance tol and tagged with every (m, n) they solve."""
    iterates = _iterates(f, m_cap)
    clusters: List[Tuple[complex, List[Tuple[int, int]]]] = []
    for m in range(1, m_cap + 1):
        for n in range(0, min(n_cap, m - 1) + 1):
            diff = _difference(iterates[m], iterates[n])
            try:
                roots = np.roots([c / diff[-1] for c in reversed(diff)])
            except OverflowError:
                raise CapExceeded("iterate coefficients overflow float range") from None
            for r in roots:
                for k, (rep, tags) in enumerate(clusters):
                    if abs(r - rep) <= tol:
                        if (m, n) not in tags:
                            tags.append((m, n))
                        break
                else:
                    clusters.append((complex(r), [(m, n)]))
    return clusters


def _denominator_bound(f: MonicPoly) -> int:
    """Integer D such that every rational preperiodic point has denominator
    dividing D (from |x|_p <= R_{f,p} at the bad places)."""
    D = 1
    for p in f.denominator_primes():
        D *= p ** math.floor(f._r_exp(p))
    return D


def is_rational_preperiodic(f: MonicPoly, x: Fraction, _cache: Optional[dict] = None) -> bool:
    """Exact orbit test with provable escape cutoffs.

    Escape happens when |z| exceeds the archimedean R bound or the
    denominator stops dividing the bad-place bound D (both are necessary
    conditions for preperiodicity of every orbit element), so the reachable
    state space is finite and the walk must cycle or escape.
    """
    x = Fraction(x)
    D = _denominator_bound(f)
    R = math.exp(float(local_profile(f, PlaceQ.arch()).R)) + 1e-9
    seen: Dict[Fraction, None] = {}
    z = x
    trail = []
    cache = _cache if _cache is not None else {}
    while True:
        if z in cache:
            verdict = cache[z]
            break
        if abs(z) > R or D % z.denominator != 0:
            verdict = False
            break
        if z in seen:
            verdict = True
            break
        seen[z] = None
        trail.append(z)
        z = f.eval_exact(z)
        if len(trail) > 10**6:
            raise CapExceeded("orbit walk exceeded safety budget")
    # Preperiodicity is forward- and backward-invariant along the walked
    # trail, so the verdict applies to every element of it.
    for w in trail:
        cache[w] = verdict
    return verdict


def rational_prep(f: MonicPoly, height_cap: Optional[int] = None) -> List[Fraction]:
    """Exact list of rational preperiodic points of f.

    Candidates have denominator dividing the bad-place bound and absolute
    value at most R_{f,inf}; each is settled by an exact orbit walk.
    """
    D = _denominator_bound(f)
    if height_cap is None and D > 10**6:
        raise CapExceeded("denominator bound too large; pass height_cap")
    R = math.exp(float(local_profile(f, PlaceQ.arch()).R))
    out: List[Fraction] = []
    cache: dict = {}
    divisors = [b for b in _divisors(D) if height_cap is None or b <= height_cap]
    for b in divisors:
        a_max = int(math.floor(b * R + 1e-9)) + 1
        if height_cap is not None:
            a_max = min(a_max, height_cap)
        for a in range(-a_max, a_max + 1):
            if gcd(abs(a), b) != 1:
                continue
            x = Fraction(a, b)
            if abs(x) > R + 1e-9:
                continue
            if is_rational_preperiodic(f, x, cache):
                out.append(x)
    return sorted(set(out))


def _divisors(n: int) -> List[int]:
    fac = factorize(n).pairs
    divs = [1]
    for p, e in fac:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def _trim(a: List[int]) -> List[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _rem(a: List[int], b: List[int], p: int) -> List[int]:
    """Remainder of a by b over GF(p); b is reduced with b[-1] != 0."""
    a = list(a)
    inv = pow(b[-1], -1, p)
    db = len(b) - 1
    while len(a) > db:
        q = a[-1] * inv % p
        if q:
            shift = len(a) - 1 - db
            for k in range(db):
                a[shift + k] = (a[shift + k] - q * b[k]) % p
        a.pop()
    return _trim(a)


def _gcd_mod(a: List[int], b: List[int], p: int) -> List[int]:
    """Monic gcd over GF(p) of two integer polynomials (ascending)."""
    a, b = _trim([c % p for c in a]), _trim([c % p for c in b])
    while b:
        a, b = b, _rem(a, b, p)
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _is_root(a: List[int], x: Fraction) -> bool:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc == 0


def _differences(f: MonicPoly, m_cap: int, n_cap: int) -> List[List[int]]:
    """Primitive integer forms of f^(n+k) - f^n, n = min(n_cap, m_cap - k), for
    k = 1..m_cap.  Since f^m(x) = f^n(x) implies f^(m+j)(x) = f^(n+j)(x), their
    roots are those of f^m - f^n over the whole box n < m <= m_cap, n <= n_cap."""
    iterates = _iterates(f, m_cap)
    out = []
    for k in range(1, m_cap + 1):
        n = min(n_cap, m_cap - k)
        out.append(_difference(iterates[n + k], iterates[n]))
    return out


def _shared_min_polys(f: MonicPoly, g: MonicPoly, m_cap: int, n_cap: int) -> List[Tuple[int, ...]]:
    """Integer minimal polynomials (ascending, primitive, positive leading
    coefficient) of the points preperiodic for both f and g at the caps.

    They are the irreducible factors of gcd(prod A, prod B) over Q, where A
    and B are the two maps' differences, i.e. of the pairwise gcd(a, b).  A
    pair coprime modulo a prime p dividing neither leading coefficient is
    coprime over Q, so most pairs are settled without sympy.
    """
    A, B = _differences(f, m_cap, n_cap), _differences(g, m_cap, n_cap)
    lead = math.prod(a[-1] for a in A + B)
    p = 2**31 - 1
    while lead % p == 0:
        p = next(q for q in range(p - 2, 2, -2) if is_prime(q))
    factors, rest = set(), []
    for a in A:
        for b in B:
            c = _gcd_mod(a, b, p)
            if len(c) == 1:
                continue
            if len(c) == 2:
                # At most one common root u/v over Q, with v | l, so that
                # l (z + c[0]) = (l/v) (v z - u) mod p: lift it and check it
                # exactly.  Shared rational points thus never import sympy,
                # which keeps it out of the surveys.
                l = gcd(a[-1], b[-1])
                s = l * c[0] % p
                x = Fraction(p - s if s > p // 2 else -s, l)
                if _is_root(a, x) and _is_root(b, x):
                    factors.add((-x.numerator, x.denominator))
                    continue
            rest.append((a, b))
    if rest:
        import sympy

        z = sympy.Symbol("z")
        for a, b in rest:
            common = sympy.Poly(a[::-1], z, domain="ZZ").gcd(sympy.Poly(b[::-1], z, domain="ZZ"))
            for factor, _ in common.factor_list()[1]:
                factors.add(tuple(int(c) for c in reversed(factor.all_coeffs())))
    return sorted(factors)


def prep_intersect(
    f: MonicPoly,
    g: MonicPoly,
    m_cap: int = 3,
    n_cap: int = 2,
    use_certificate: bool = True,
    check_suspected_equal: bool = True,
) -> PrepCertificate:
    """Exact common preperiodic points of f and g at caps (m_cap, n_cap): the
    roots of f^m - f^n and g^m' - g^n' for n < m <= m_cap, n <= n_cap.

    Fires the disjointness certificate first when allowed.  Otherwise each
    point comes from an irreducible factor of the gcd over Q of the two maps'
    iterate differences, screened modulo one prime, so the heights of the
    certified points are exactly 0 and no tolerance is involved.  An iterate
    beyond the degree budget reports "inconclusive" rather than silently
    truncating.
    """
    if f == g:
        raise ValueError("prep_intersect requires f != g")
    if m_cap < 1 or n_cap < 0:
        raise ValueError("caps must satisfy m_cap >= 1 and n_cap >= 0")
    if use_certificate:
        w = disjoint_certificate(f, g)
        if w is not None:
            return PrepCertificate("disjoint", w.p, (), m_cap, n_cap)
    try:
        min_polys = _shared_min_polys(f, g, m_cap, n_cap)
    except CapExceeded:
        return PrepCertificate("inconclusive", None, (), m_cap, n_cap)
    count = sum(len(mp) - 1 for mp in min_polys)
    suspected = (
        check_suspected_equal
        and count > 4 * min(f.d, g.d)
        and _suspect_equal(f, g, m_cap, n_cap, count)
    )
    return PrepCertificate(
        "intersection",
        None,
        tuple(CertifiedPoint(mp, 0.0, 0.0) for mp in min_polys),
        m_cap,
        n_cap,
        matched_clusters=count,
        suspected_equal=suspected,
    )


def _suspect_equal(f, g, m_cap, n_cap, base_count) -> bool:
    """Heuristic: shared-point counts keep exceeding 4d as caps increase."""
    threshold = 4 * min(f.d, g.d)
    counts = [base_count]
    for bump in (1, 2):
        try:
            mps = _shared_min_polys(f, g, m_cap + bump, n_cap + bump)
        except CapExceeded:
            break
        counts.append(sum(len(mp) - 1 for mp in mps))
    return len(counts) >= 3 and all(c > threshold for c in counts)
