"""Desk-scale preperiodic points: the disjointness certificate (the shells
test of `nonarchimedean` at a finite place, the survey's Case 1), exact
shared preperiodic points, and exact enumeration of rational preperiodic
points.

The points that f and g share at caps (m, n) are exactly the roots of
gcd(prod (f^m - f^n), prod (g^m' - g^n')) over Q.  `prep_intersect` and the
survey screen that gcd modulo one 31-bit prime dividing no coefficient
denominator, where a trivial gcd mod p proves a trivial gcd over Q (Brown,
JACM 1971).  The iterates are composed modulo p in numpy, for all maps of
one degree at once, and the screen is one gcd over GF(p) that advances every
pair of differences in lock-step (the divsteps of Bernstein and Yang, TCHES
2019); a survey screens its pairs outside Case 1 in blocks, one prime and
one such gcd per block.  Only a pair with a common factor mod p has its
exact integer iterates built.  The rational points of a common factor are
found from its roots in GF(p), lifted and checked exactly; a quadratic
orbit is lifted from a gcd mod p of degree 2 by rational reconstruction and
proved by exact division; sympy is imported only to factor what is left
after that.  Every root of f^m - f^n is preperiodic, so no tolerance and no
height check is involved.
`suspected_equal` is true exactly when f o g = g o f, i.e. the maps have the
same preperiodic points; it is independent of the caps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .archimedean import _arch_params
from .nonarchimedean import julia_shells, shells_certify_disjoint
from .polynomials import MonicPoly
from .rationals import PlaceQ, factorize, is_prime

__all__ = [
    "PrepCertificate",
    "CertifiedPoint",
    "CapExceeded",
    "disjoint_certificate",
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
    suspected_equal: bool = False  # f o g = g o f: the same preperiodic points, at any caps

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


def _form(f: MonicPoly) -> Tuple[List[int], int]:
    """f = F / den in lowest terms, F ascending integer coefficients."""
    den = math.lcm(*(c.denominator for c in f.coeffs))
    return [int(c * den) for c in f.coeffs] + [den], den


def _compose(a: Tuple[List[int], int], b: Tuple[List[int], int]) -> Tuple[List[int], int]:
    """a o b in the form (P, E) = P / E, P ascending integer coefficients and
    E > 0, in lowest terms so that equal polynomials have equal forms."""
    (A, D), (P, E) = a, b
    # Horner in P / E, cleared of denominators: sum A_i P^i E^(deg A - i).
    acc, e_pow = [A[-1]], 1
    for c in reversed(A[:-1]):
        e_pow *= E
        acc = _mul(acc, P)
        acc[0] += c * e_pow
    k = gcd(D * e_pow, *acc)
    return [c // k for c in acc], D * e_pow // k


def _check_budget(f: MonicPoly, m_cap: int) -> None:
    if f.d**m_cap > _DEGREE_BUDGET:
        raise CapExceeded(f"degree {f.d ** m_cap} exceeds budget {_DEGREE_BUDGET}")


def _iterates(f: MonicPoly, m_cap: int) -> List[Tuple[List[int], int]]:
    """The iterates f^0, ..., f^m_cap exactly, each in the form of `_compose`."""
    _check_budget(f, m_cap)
    F, out = _form(f), [([0, 1], 1)]
    for _ in range(m_cap):
        out.append(_compose(F, out[-1]))
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
    R = _arch_params(f) + 1e-9
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


def rational_prep(f: MonicPoly) -> List[Fraction]:
    """Exact list of rational preperiodic points of f.

    Candidates have denominator dividing the bad-place bound D and absolute
    value at most R_{f,inf}; each is settled by an exact orbit walk.  Raises
    CapExceeded when D > 10^6.
    """
    D = _denominator_bound(f)
    if D > 10**6:
        raise CapExceeded(f"denominator bound {D} > 10^6")
    R = _arch_params(f)
    out: List[Fraction] = []
    cache: dict = {}
    for b in _divisors(D):
        a_max = int(math.floor(b * R + 1e-9)) + 1
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
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def _trim(a: List[int]) -> List[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _gcd_lanes(lanes: List[Tuple[List[int], List[int]]], p: int) -> List[List[int]]:
    """Monic gcd over GF(p), as ascending residues, of each lane (a, b) of
    integer polynomials (ascending), not both zero mod p.

    The divsteps of Bernstein and Yang ("Fast constant-time gcd computation
    and modular inversion", TCHES 2019, Theorem 6.2): let R0 be the operand of
    larger degree D and R1 the other one, or R1 = lc(a) b - lc(b) a when the
    degrees are equal, and put f = x^D R0(1/x), g = x^(D-1) R1(1/x), delta = 1.
    After 2D - 1 steps of

        swap = delta > 0 and g(0) != 0;  g <- (f(0) g - g(0) f) / x;
        f <- old g and delta <- 1 - delta if swap, else delta <- 1 + delta,

    the gcd has degree delta / 2 and is the reversal of the first delta/2 + 1
    coefficients of f, divided by f(0).  The lanes of one D advance in
    lock-step, one numpy operation per step for all of them.
    """
    assert 2 < p < 2**31  # every product of two residues is below 2^62
    out: List[List[int]] = [[1]] * len(lanes)
    groups: Dict[int, List[Tuple[int, List[int], List[int]]]] = {}
    for k, (a, b) in enumerate(lanes):
        a, b = _trim([c % p for c in a]), _trim([c % p for c in b])
        if len(a) < len(b):
            a, b = b, a
        if not a:
            raise ValueError("the gcd of two zero polynomials is undefined")
        if len(a) > 1:  # a constant R0 has gcd 1
            groups.setdefault(len(a) - 1, []).append((k, a, b))
    for D, group in groups.items():
        # Row i holds the coefficient of x^i of every lane: f = x^D R0(1/x)
        # and G = x^D b(1/x).  The first step's update of g gives
        # x^(D-1) R1(1/x), up to the unit lc(a) when deg b < D.
        f = np.array([a[::-1] for _, a, _ in group], dtype=np.int64).T.copy()
        G = np.array([[0] * (D + 1 - len(b)) + b[::-1] for _, _, b in group], dtype=np.int64).T
        g = np.zeros_like(f)
        g[:-1] = (f[0] * G[1:] - G[0] * f[1:]) % p
        delta = np.ones(len(group), dtype=np.int64)
        for n in range(2 * D - 1):
            # After n steps every lane has deg f <= A and deg g <= A - delta
            # with 2 A - delta = 2 D - 1 - n, so rows from w on are zero.
            w = (2 * D + 1 - n + int(np.abs(delta).max())) // 2
            f, g = f[:w], g[:w]
            swap = (delta > 0) & (g[0] != 0)
            # f(0) g - g(0) f has no constant term, so dropping row 0 divides by x.
            h = (f[0] * g[1:] - g[0] * f[1:]) % p
            f = np.where(swap, g, f)
            g[:-1], g[-1] = h, 0
            delta = np.where(swap, 1 - delta, 1 + delta)
        for j, (k, _, _) in enumerate(group):
            if delta[j] > 1:
                head = f[: delta[j] // 2 + 1, j].tolist()
                inv = pow(head[0], -1, p)
                out[k] = [c * inv % p for c in reversed(head)]
    return out


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


def _reduce(f: MonicPoly, p: int) -> List[int]:
    """f modulo a prime p dividing no coefficient denominator: ascending
    residues, the leading 1 included."""
    return [c.numerator * pow(c.denominator, -1, p) % p for c in f.coeffs] + [1]


def _iterates_mod(R: np.ndarray, m_cap: int, p: int) -> List[np.ndarray]:
    """The iterates f^0, ..., f^m_cap modulo p of maps of one degree d, one map
    per column: row i of R (d + 1 rows, from `_reduce`) and of every output
    holds the coefficients of z^i.

    f^k = (...(f^(k-1) + a_(d-1)) f^(k-1) + ...) f^(k-1) + a_0 is built one
    product row of f^(k-1) at a time; each product of two residues is below
    2^62 and is reduced at once, so int64 never overflows.
    """
    assert 2 < p < 2**31
    ident = np.zeros((2, R.shape[1]), dtype=np.int64)
    ident[1] = 1
    out = [ident, R]
    for _ in range(m_cap - 1):
        P = out[-1]
        acc = P.copy()
        acc[0] = (acc[0] + R[-2]) % p
        for c in R[-3::-1]:
            prod = np.zeros((len(acc) + len(P) - 1, R.shape[1]), dtype=np.int64)
            for i, row in enumerate(P):
                window = prod[i : i + len(acc)]
                window += row * acc
                window %= p
            prod[0] = (prod[0] + c) % p
            acc = prod
        out.append(acc)
    return out


def _differences_mod(R: np.ndarray, m_cap: int, n_cap: int, p: int) -> List[np.ndarray]:
    """The `_differences` modulo p of the maps of `_iterates_mod`, each monic."""
    iterates = _iterates_mod(R, m_cap, p)
    out = []
    for k in range(1, m_cap + 1):
        n = min(n_cap, m_cap - k)
        hi, lo = iterates[n + k].copy(), iterates[n]
        hi[: len(lo)] = (hi[: len(lo)] - lo) % p
        out.append(hi)
    return out


def _prime_avoiding(n: int) -> int:
    """The first prime p <= 2^31 - 1 that does not divide n != 0."""
    p = 2**31 - 1
    while n % p == 0:
        p = next(q for q in range(p - 2, 2, -2) if is_prime(q))
    return p


def _divmod_mod(a: List[int], b: List[int], p: int) -> Tuple[List[int], List[int]]:
    """Quotient and remainder of a by a monic b over GF(p), ascending."""
    r = [c % p for c in a]
    q = [0] * max(len(r) - len(b) + 1, 0)
    for s in range(len(q) - 1, -1, -1):
        t = q[s] = r[s + len(b) - 1]
        if t:
            for i, c in enumerate(b):
                r[s + i] = (r[s + i] - t * c) % p
    return q, _trim(r[: len(b) - 1])


def _powmod(a: List[int], e: int, c: List[int], p: int) -> List[int]:
    """a^e modulo the monic c over GF(p), by squaring, for a of degree below
    deg c >= 2; residues ascending, padded to deg c coefficients."""
    k = len(c) - 1
    low = [-x for x in c[:-1]]

    # Inline, not _mul then _divmod_mod: those gave the same residues but made
    # the 551 calls of 10 `certify` rounds take 0.136 s instead of 0.098 s.
    def mulmod(x: List[int], y: List[int]) -> List[int]:
        prod = [0] * (2 * k - 1)
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    prod[i + j] += xi * yj
        for s in range(2 * k - 2, k - 1, -1):  # z^k = sum low_i z^i modulo c
            t = prod[s] % p
            if t:
                for i, ci in enumerate(low):
                    prod[s - k + i] += t * ci
        return [v % p for v in prod[:k]]

    base = a + [0] * (k - len(a))
    out = [1] + [0] * (k - 1)
    while e:
        if e & 1:
            out = mulmod(out, base)
        e >>= 1
        if e:
            base = mulmod(base, base)
    return out


def _roots_mod(c: List[int], p: int) -> List[int]:
    """The distinct roots in GF(p) of a monic c of degree >= 1: the linear
    factors of gcd(c, z^p - z), split apart by gcds with (z + t)^((p-1)/2) - 1
    for t = 0, 1, ... (equal-degree splitting, Cantor and Zassenhaus 1981)."""
    if len(c) > 2:
        w = _powmod([0, 1], p, c, p)
        w[1] -= 1
        (c,) = _gcd_lanes([(c, w)], p)
    roots, todo, t = [], [c], 0
    while todo:
        h = todo.pop()
        if len(h) == 2:
            roots.append(-h[0] % p)
        elif len(h) > 2:
            w = _powmod([t, 1], (p - 1) // 2, h, p)
            w[0] -= 1
            (s,) = _gcd_lanes([(h, w)], p)
            todo += [s, _divmod_mod(h, s, p)[0]] if 1 < len(s) < len(h) else [h]
            t += 1
    return roots


def _quotient(a: List[int], g: Tuple[int, ...]) -> Optional[List[int]]:
    """a / g for an integer polynomial a and a primitive one g, or None if g
    does not divide a; by Gauss's lemma every quotient coefficient is then an
    integer, so the first one that is not ends the division."""
    if (g[0] and a[0] % g[0]) or a[-1] % g[-1]:
        return None
    r, n = list(a), len(g) - 1
    q = [0] * (len(a) - n)
    for s in range(len(q) - 1, -1, -1):
        t, m = divmod(r[s + n], g[-1])
        if m:
            return None
        q[s] = t
        for i, c in enumerate(g):
            r[s + i] -= t * c
    return None if any(r[:n]) else q


def _rational(r: int, p: int) -> Optional[Fraction]:
    """The n/d with |n|, d <= B = floor(sqrt(p/2)) and n = d r mod p, or None
    if there is none; it is unique, since 2 B^2 < p (Wang, Guy and Davenport,
    SIGSAM Bull. 1982).  The extended Euclidean algorithm on (p, r) stops at
    the first remainder r1 <= B, and r1 = t1 r mod p."""
    bound = math.isqrt(p // 2)
    r0, r1, t0, t1 = p, r % p, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return Fraction(r1, t1) if abs(t1) <= bound else None


def _lift_quadratic(a: List[int], b: List[int], c: List[int], p: int) -> Optional[Tuple[int, ...]]:
    """gcd(a, b) over Q, when it is the irreducible quadratic lifted from their
    monic gcd c mod p of degree 2, or None.

    The two low coefficients of c are lifted by `_rational`; their common
    denominator makes the lift G primitive.  If G divides a and b exactly, it
    divides their gcd over Q, which has degree at most deg c = deg G because
    the leading coefficients of a and b are units mod p (Brown, JACM 1971);
    so G is that gcd, and it is irreducible when its discriminant is not a
    square.
    """
    lows = [_rational(k, p) for k in c[:2]]
    if None in lows:
        return None
    L = math.lcm(*(x.denominator for x in lows))
    G = tuple(int(x * L) for x in lows) + (L,)
    disc = G[1] ** 2 - 4 * G[0] * G[2]
    if disc >= 0 and math.isqrt(disc) ** 2 == disc:
        return None
    return G if _quotient(a, G) is not None and _quotient(b, G) is not None else None


def _pair_factors(lanes: List[Tuple[List[int], List[int], List[int]]], p: int) -> set:
    """The irreducible factors over Q (ascending, primitive, positive leading
    coefficient) of every gcd(a, b), for the lanes (a, b, c) of one pair of
    maps: integer a, b whose leading coefficients are units mod p, and c their
    monic gcd mod p.

    The lanes are taken by increasing deg c, so that a factor found in a small
    gcd is a candidate in the larger ones.  The candidate factors of a lane
    are the factors already found for the pair and the rational points that
    the roots of the gcds in GF(p) allow: a common rational root u/v has
    v | l = gcd(lc a, lc b), so l r = (l/v) u mod p for the root r it reduces
    to, and r is lifted to the symmetric residue of l r over l.  A candidate
    that divides both a and b exactly is a factor: it is divided out of a and
    b, and its reduction out of c, which leaves the gcd mod p of the
    quotients.  The roots of a lane's c are searched for only when no
    candidate divides.  If that search adds none and c is quadratic, the
    quadratic orbit is lifted from c by `_lift_quadratic`; sympy is imported
    only to factor what is left after that.
    """
    known: List[int] = []  # roots in GF(p) of the gcds searched so far
    factors: set = set()
    for a, b, c in sorted(lanes, key=lambda lane: len(lane[2])):
        searched = False
        while len(c) > 1:
            l = gcd(a[-1], b[-1])
            candidates = {g for g in factors if len(g) > 2}
            for r in known:
                s = l * r % p
                x = Fraction(s - p if s > p // 2 else s, l)
                candidates.add((-x.numerator, x.denominator))
            found = False
            for g in sorted(candidates):
                inv = pow(g[-1], -1, p)
                c_g, rem = _divmod_mod(c, [k * inv for k in g], p)
                qa = None if rem else _quotient(a, g)
                qb = None if qa is None else _quotient(b, g)
                if qb is not None:
                    factors.add(g)
                    a, b, c, found = qa, qb, c_g, True
                    if len(c) == 1:
                        break
            if found:
                continue
            new = [] if searched else [r for r in _roots_mod(c, p) if r not in known]
            searched = True
            if new:
                known += new
                continue
            lifted = _lift_quadratic(a, b, c, p) if len(c) == 3 else None
            if lifted is not None:
                factors.add(lifted)
                break
            import sympy

            z = sympy.Symbol("z")
            common = sympy.Poly(a[::-1], z, domain="ZZ").gcd(sympy.Poly(b[::-1], z, domain="ZZ"))
            for factor, _ in common.factor_list()[1]:
                factors.add(tuple(int(k) for k in reversed(factor.all_coeffs())))
            break
    return factors


def _shared_points(
    pairs: List[Tuple[MonicPoly, MonicPoly]], m_cap: int, n_cap: int
) -> List[Union[List[Tuple[int, ...]], CapExceeded, ArithmeticError]]:
    """For each pair (f, g), the integer minimal polynomials (ascending,
    primitive, positive leading coefficient) of the points preperiodic for
    both maps at the caps: the irreducible factors of gcd(prod A, prod B) over
    Q for the maps' `_differences` A and B, as `_shared_min_polys` in
    tests/test_preperiodic.py gives them from the exact differences; or the
    CapExceeded (an iterate beyond the degree budget, checked before any
    work) or ArithmeticError that the pair raised, which touches no other
    pair.

    All pairs are screened in one `_gcd_lanes` call modulo the first prime
    p <= 2^31 - 1 dividing no coefficient denominator of any map, with the
    differences built modulo p by `_differences_mod`.  The leading coefficient
    of a primitive `_difference` divides a power of those denominators, so it
    is a unit mod p and the monic difference mod p is the primitive one up to
    a unit: the screen is Brown's.  Only a pair with a gcd mod p other than 1
    has its exact differences built, and each such gcd is reused to lift its
    common factors.
    """
    out: List = [None] * len(pairs)
    for k, (f, g) in enumerate(pairs):
        try:
            _check_budget(f, m_cap)
            _check_budget(g, m_cap)
        except CapExceeded as exc:
            out[k] = exc
    live = [pair for pair, o in zip(pairs, out) if o is None]
    p = _prime_avoiding(math.lcm(*(c.denominator for pair in live for h in pair for c in h.coeffs)))
    residues: Dict[int, Tuple[List[int], List[int]]] = {}
    for k, (f, g) in enumerate(pairs):
        if out[k] is None:
            try:
                residues[k] = (_reduce(f, p), _reduce(g, p))
            except ArithmeticError as exc:
                out[k] = exc
    # The differences of every map mod p, composed per degree in one block.
    reduced = [R for pair in residues.values() for R in pair]
    by_size: Dict[int, List[int]] = {}
    for j, R in enumerate(reduced):
        by_size.setdefault(len(R), []).append(j)
    diffs: List[List[List[int]]] = [[] for _ in reduced]
    for js in by_size.values():
        R = np.array([reduced[j] for j in js], dtype=np.int64).T
        D = [a.T.tolist() for a in _differences_mod(R, m_cap, n_cap, p)]
        for col, j in enumerate(js):
            diffs[j] = [a[col] for a in D]
    lanes_of = {
        k: [(a, b) for a in diffs[2 * i] for b in diffs[2 * i + 1]] for i, k in enumerate(residues)
    }
    gcds = iter(_gcd_lanes([lane for lanes in lanes_of.values() for lane in lanes], p))
    for k, lanes in lanes_of.items():
        cs = [next(gcds) for _ in lanes]
        if all(len(c) == 1 for c in cs):
            out[k] = []
            continue
        f, g = pairs[k]
        try:
            A, B = _differences(f, m_cap, n_cap), _differences(g, m_cap, n_cap)
            exact = [(a, b, c) for (a, b), c in zip(itertools.product(A, B), cs)]
            out[k] = sorted(_pair_factors(exact, p))
        except ArithmeticError as exc:
            out[k] = exc
    return out


def prep_intersect(
    f: MonicPoly,
    g: MonicPoly,
    m_cap: int = 3,
    n_cap: int = 2,
    use_certificate: bool = True,
) -> PrepCertificate:
    """Exact common preperiodic points of f and g at caps (m_cap, n_cap): the
    roots of f^m - f^n and g^m' - g^n' for n < m <= m_cap, n <= n_cap.

    Fires the disjointness certificate first when allowed.  Otherwise each
    point comes from an irreducible factor of the gcd over Q of the two maps'
    iterate differences, screened modulo one prime by the same path as a
    survey's block of pairs, so the heights of the certified points are
    exactly 0 and no tolerance is involved.  An iterate beyond the degree
    budget reports "inconclusive" rather than silently truncating.

    `suspected_equal` (False on "disjoint") is true exactly when f o g = g o f,
    i.e. the maps have the same preperiodic points; it is independent of the
    caps.  Commuting maps have one Julia set (Julia, Fatou); equal
    preperiodic points give equal Julia sets (Baker-DeMarco, Duke 2011), so
    f o g = s o g o f with s a symmetry of J (Beardon 1992), a translation
    for monic maps and so the identity.
    """
    if f == g:
        raise ValueError("prep_intersect requires f != g")
    if m_cap < 1 or n_cap < 0:
        raise ValueError("caps must satisfy m_cap >= 1 and n_cap >= 0")
    if use_certificate:
        w = disjoint_certificate(f, g)
        if w is not None:
            return PrepCertificate("disjoint", w.p, (), m_cap, n_cap)
    F, G = _form(f), _form(g)
    suspected = _compose(F, G) == _compose(G, F)
    (min_polys,) = _shared_points([(f, g)], m_cap, n_cap)
    if isinstance(min_polys, CapExceeded):
        return PrepCertificate("inconclusive", None, (), m_cap, n_cap, suspected_equal=suspected)
    if isinstance(min_polys, ArithmeticError):
        raise min_polys
    return PrepCertificate(
        "intersection",
        None,
        tuple(CertifiedPoint(mp, 0.0, 0.0) for mp in min_polys),
        m_cap,
        n_cap,
        matched_clusters=sum(len(mp) - 1 for mp in min_polys),
        suspected_equal=suspected,
    )
