"""Canonical heights of rational and algebraic points, global energy pairings
with per-place exactness tags, their sampling-free enclosure, and the height
sandwich check.

Per-place pairing contributions are exact at places where one polynomial has
a single large coefficient and everything else is small (the value is then
read off the Gauss point), honest intervals at the remaining bad places, and
a deterministic preimage-tree quadrature with a convergence error estimate
at the archimedean place.  Nothing here draws random numbers: global_pairing
takes an rng only to keep an old positional call working, and ignores it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, List, Optional, Tuple

from .archimedean import arch_pairing, green_arch
from .polynomials import MonicPoly, height, local_profile
from .rationals import LogValue, PlaceQ, Rat, factorize, ord_p

__all__ = [
    "CanonicalHeight",
    "canonical_height",
    "AlgebraicPoint",
    "AlgHeight",
    "canonical_height_alg",
    "PlaceEntry",
    "PairingReport",
    "BoundReport",
    "global_pairing",
    "pairing_bounds",
    "sandwich_check",
    "DegreeCapExceeded",
]


class DegreeCapExceeded(ValueError):
    """Resultant degree d^n * deg(x) above 5000 (_DEGREE_CAP)."""


# ---------------------------------------------------------------------------
# canonical height of rational points
# ---------------------------------------------------------------------------


_DEPTH_CAP = 64
_DEGREE_CAP = 5000  # of canonical_height_alg


def _green_finite(f: MonicPoly, p: int, x: Fraction, cap: int = _DEPTH_CAP) -> Fraction:
    """G_{f,p}(x) as an exact multiple of log p.

    With r = log_p R_{f,p} and k = floor(r), an orbit point with
    ord_p(z) < -r escapes exactly, and G = d^-n (-ord_p z_n); at a good
    place r = 0 and this is log^+ |x|_p.  Below the bound z = u p^-k with u
    a p-adic integer, and f(z) = W(u) p^-(kd+M) for the integer polynomial
    W with coefficients a_i p^(k(d-i)+M) and leading p^M, M >= 0 the least
    exponent clearing their denominators.  A step that does not escape has
    ord_p W(u) >= s = k(d-1)+M and divides W(u) by p^s, so u modulo
    p^(cap s) decides every step up to the depth cap exactly.  Orbits still
    inside the bound at the cap contribute less than d^-cap times a bounded
    factor and are reported as 0.
    """
    r = f._r_exp(p)
    if x != 0 and ord_p(x, p) < -r:
        return Fraction(-ord_p(x, p))
    if f.explicit_good_at(p):
        return Fraction(0)
    d, k = f.d, math.floor(r)
    M = max([0] + [m - k * (d - i) for i, m in f._large(p)])
    ps = p ** (k * (d - 1) + M)
    mod = ps**cap
    W = [c * p ** (k * (d - i) + M) for i, c in enumerate(f.coeffs)]
    W = [c.numerator * pow(c.denominator, -1, mod) % mod for c in W] + [p**M]
    u = x * p**k
    u = u.numerator * pow(u.denominator, -1, mod) % mod
    for n in range(1, cap + 1):
        w = 0
        for c in reversed(W):
            w = (w * u + c) % mod
        if w % ps:
            return Fraction(k * d + M - ord_p(w, p), d**n)
        mod //= ps
        u = w // ps
    return Fraction(0)


@dataclass(frozen=True)
class CanonicalHeight:
    """Canonical height split into exact finite part and numeric arch part."""

    value: float
    finite: LogValue
    arch: float
    tol: float


def canonical_height(f: MonicPoly, x: Rat, tol: float = 1e-12) -> CanonicalHeight:
    """h-hat_f(x) = sum_v G_{f,v}(x): exact at finite places, numeric at infinity."""
    x = Fraction(x)
    finite = LogValue.zero()
    bad = f.denominator_primes()
    for p in bad + tuple(p for p, _ in factorize(x.denominator) if p not in bad):
        q = _green_finite(f, p, x)
        if q:
            finite = finite + LogValue.of_prime(p, q)
    arch = green_arch(f, complex(x), tol)
    return CanonicalHeight(value=float(finite) + arch, finite=finite, arch=arch, tol=tol)


# ---------------------------------------------------------------------------
# algebraic points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlgebraicPoint:
    """A Galois orbit given by a primitive integer minimal polynomial.

    min_poly lists coefficients c_0..c_D ascending; irreducibility is checked
    by exact factorization for small degrees, which is cheap at desk scale.
    """

    min_poly: Tuple[int, ...]

    def __post_init__(self):
        cs = tuple(int(c) for c in self.min_poly)
        if len(cs) < 2 or cs[-1] == 0:
            raise ValueError("need a nonconstant polynomial with nonzero leading coefficient")
        g = 0
        for c in cs:
            g = gcd(g, abs(c))
        if g != 1:
            raise ValueError("minimal polynomial must be primitive")
        object.__setattr__(self, "min_poly", cs)
        if self.degree <= 24:
            import sympy

            z = sympy.symbols("z")
            poly = sum(c * z**i for i, c in enumerate(cs))
            if not sympy.Poly(poly, z).is_irreducible:
                raise ValueError("minimal polynomial is reducible over Q")

    @property
    def degree(self) -> int:
        return len(self.min_poly) - 1

    @classmethod
    def from_rational(cls, x: Rat) -> "AlgebraicPoint":
        x = Fraction(x)
        return cls((-x.numerator, x.denominator))


@dataclass(frozen=True)
class AlgHeight:
    value: float
    err: float
    depth: int
    exact_zero: bool = False


def canonical_height_alg(f: MonicPoly, x: AlgebraicPoint, n: int) -> AlgHeight:
    """d^-n h(f^n(x)) with an explicit error bound.

    t = f^n(y) is iterated in Q[y]/(m) as a sympy Poly over QQ; orbits whose
    reduced iterates repeat are preperiodic and return exactly 0.  The
    characteristic polynomial of multiplication by t is the minimal
    polynomial of f^n(x) to the power D/deg f^n(x), so its primitive integer
    form has leading coefficient `lead` and roots f^n at the embeddings of x,
    and h(f^n(x)) = (1/D) log M of it.  The error bound uses the standard
    |h(f(y)) - d h(y)| <= C(f) estimate with C(f) computed from the
    coefficients.  Raises DegreeCapExceeded when d^n * deg(x) > _DEGREE_CAP.
    """
    from sympy import QQ, Poly, symbols
    from sympy.polys.matrices import DomainMatrix

    if n < 1:
        raise ValueError("depth must be >= 1")
    D = x.degree
    if f.d**n * D > _DEGREE_CAP:
        raise DegreeCapExceeded(f"d^n * deg(x) = {f.d ** n * D} > {_DEGREE_CAP}")
    m = x.min_poly
    y = Poly(symbols("y"), domain=QQ)
    mp = Poly(m[::-1], *y.gens, domain=QQ)
    F = Poly((1,) + f.coeffs[::-1], *y.gens, domain=QQ)
    t = y.rem(mp)
    seen = {t}
    hf = float(height(f))
    C0 = f.d * (hf + math.log(4.0)) + math.log(2.0 * (f.d + 1))
    err_at = lambda k: C0 * f.d ** (-k) / (f.d - 1)
    for step in range(1, n + 1):
        t = F.compose(t).rem(mp)
        if t in seen:
            return AlgHeight(value=0.0, err=0.0, depth=step, exact_zero=True)
        seen.add(t)
    # multiplication by t on Q[y]/(m): column i is t y^i mod m
    cols, cur = [], t
    for _ in range(D):
        c = cur.all_coeffs()[::-1]
        cols.append(c + [QQ(0)] * (D - len(c)))
        cur = (cur * y).rem(mp)
    cp = DomainMatrix([list(row) for row in zip(*cols)], (D, D), QQ).charpoly()
    den = math.lcm(*(int(c.denominator) for c in cp))
    lead = den // math.gcd(*(int(c.numerator) * (den // int(c.denominator)) for c in cp))
    # Root moduli: the characteristic polynomial's roots are exactly f^n at the
    # embeddings of x, so iterate f at high precision instead of root-finding
    # on the huge-coefficient polynomial.
    import mpmath

    maxc = max([2.0] + [abs(float(c)) for c in f.coeffs])
    dps = 60 + n * (20 + int(4 * math.log10(2.0 + maxc)))
    with mpmath.workdps(dps):
        alphas = mpmath.polyroots(
            [mpmath.mpf(c) for c in m[::-1]], maxsteps=1000, extraprec=200
        )
        fc = [mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator) for c in f.coeffs]
        logm = mpmath.log(lead)
        for a in alphas:
            z = mpmath.mpc(a)
            for _ in range(n):
                w = mpmath.mpc(1)
                for i in range(f.d - 1, -1, -1):
                    w = w * z + fc[i]
                z = w
            az = abs(z)
            if az > 1:
                logm += mpmath.log(az)
        h = float(logm) / D
    return AlgHeight(value=h * f.d ** (-n), err=err_at(n), depth=n)


# ---------------------------------------------------------------------------
# pairings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlaceEntry:
    """One place's contribution to -(mu_f, mu_g)_v, tagged by exactness."""

    place: str
    tag: str  # "exact" | "interval" | "numeric"
    provenance: str  # "good-assoc" | "bad" | "archimedean" | "trivial"
    lo: float
    hi: float
    exact: Optional[LogValue] = None
    err: Optional[float] = None

    def to_json(self) -> dict:
        out = {
            "place": self.place,
            "tag": self.tag,
            "provenance": self.provenance,
            "lo": self.lo,
            "hi": self.hi,
        }
        if self.exact is not None:
            out["exact"] = self.exact.to_json()
        if self.err is not None:
            out["err"] = self.err
        return out


@dataclass(frozen=True)
class PairingReport:
    """Per-place pairing contributions with global [lo, hi] enclosure."""

    f: MonicPoly
    g: MonicPoly
    entries: Tuple[PlaceEntry, ...]
    total_lo: float
    total_hi: float
    finite_exact: LogValue

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "f": self.f.to_text(),
            "g": self.g.to_text(),
            "entries": [e.to_json() for e in self.entries],
            "total": {"lo": self.total_lo, "hi": self.total_hi},
            "finite_exact": self.finite_exact.to_json(),
        }


@dataclass(frozen=True)
class BoundReport:
    """A fully-specified inequality: name, both sides, satisfaction flag."""

    name: str
    lhs: float
    rhs: float
    satisfied: bool


def _place_entry(f: MonicPoly, g: MonicPoly, p: int) -> PlaceEntry:
    """-(mu_f, mu_g)_p at a prime p of either place table (so at least one
    coefficient of the pair is large at p), read off the two tables.

    Good place (exactly one large coefficient across the pair): exact value
    (1/d)(log M_{f,p} + log M_{g,p}).  Bad place: the interval
    [0, (1/d)(log M_{f,p} + log M_{g,p})] -- an honest enclosure, never a
    point estimate (no exact local formula exists there).
    """
    large = len(f._large(p)) + len(g._large(p))
    q = Fraction(f._m_exp(p) + g._m_exp(p), f.d)
    x = float(q) * math.log(p)
    if large == 1:
        return PlaceEntry(str(p), "exact", "good-assoc", x, x, LogValue({p: q}))
    return PlaceEntry(str(p), "interval", "bad", 0.0, x, None)


def _finite_entries(f: MonicPoly, g: MonicPoly) -> Tuple[List[PlaceEntry], LogValue]:
    """The entries of the primes in either place table, increasing, and the
    sum of their exact (good-assoc) values."""
    entries, exact = [], {}
    for p in sorted(f._places.keys() | g._places.keys()):
        e = _place_entry(f, g, p)
        entries.append(e)
        if e.exact is not None:
            exact[p] = e.exact.coeff(p)
    return entries, LogValue(exact)


def _pairing_report(
    f: MonicPoly, g: MonicPoly, arch_entry: Callable[[], PlaceEntry]
) -> PairingReport:
    """The report of f == g (0 at every place), or the finite entries and the
    archimedean entry arch_entry() with their summed endpoints."""
    if f == g:
        entry = PlaceEntry("inf", "exact", "trivial", 0.0, 0.0, LogValue.zero())
        return PairingReport(f, g, (entry,), 0.0, 0.0, LogValue.zero())
    if f.d != g.d:
        raise ValueError("pairing formulas require equal degrees")
    entries, exact_sum = _finite_entries(f, g)
    entries.append(arch_entry())
    lo = sum(e.lo for e in entries)
    hi = sum(e.hi for e in entries)
    return PairingReport(f, g, tuple(entries), lo, hi, exact_sum)


def global_pairing(f: MonicPoly, g: MonicPoly, N: int = 4000, rng=None) -> PairingReport:
    """Global energy pairing <mu_f, mu_g>: exact good places, bad-place
    intervals, and the archimedean term v from preimage-tree quadrature on
    at least N nodes per side (arch_pairing), entered as [max(v - 2 err, 0),
    v + 2 err] with its convergence estimate err.

    Deterministic.  rng is ignored; it stays only because the benchmark's
    pairing workload (benchmark/workloads.py) passes a generator to it
    positionally."""

    def arch_entry() -> PlaceEntry:
        ap = arch_pairing(f, g, N)
        lo, hi = max(ap.value - 2 * ap.err, 0.0), ap.value + 2 * ap.err
        return PlaceEntry("inf", "numeric", "archimedean", lo, hi, None, ap.err)

    report = _pairing_report(f, g, arch_entry)
    mean_height = (float(height(f)) + float(height(g))) / f.d
    if report.total_lo - 2.0 > mean_height + 1e-9:
        raise AssertionError("pairing sandwich violated: lo - 2 > (h(f)+h(g))/d")
    return report


def pairing_bounds(f: MonicPoly, g: MonicPoly) -> PairingReport:
    """Sampling-free enclosure: the archimedean term enters as the interval
    [0, (1/d)(log M_{f,inf} + log M_{g,inf}) + 2]."""

    def arch_entry() -> PlaceEntry:
        m_inf = float(local_profile(f, PlaceQ.arch()).M) + float(local_profile(g, PlaceQ.arch()).M)
        return PlaceEntry("inf", "interval", "archimedean", 0.0, m_inf / f.d + 2.0, None)

    return _pairing_report(f, g, arch_entry)


def sandwich_check(f: MonicPoly, g: MonicPoly, X: int, N: int = 1000) -> List[BoundReport]:
    """The two fully-specified height inequalities for (f, g) in P_c(X) x P(X):
    pairing - 2 <= (h(f) + h(g))/d <= 2 log X, using the pairing's upper endpoint."""
    if not f.centered:
        raise ValueError("first polynomial must be centered")
    rep = global_pairing(f, g, N)
    mean_height = (float(height(f)) + float(height(g))) / f.d
    two_log_x = 2.0 * math.log(X)
    return [
        BoundReport(
            "pairing_minus_2_le_mean_height",
            rep.total_hi - 2.0,
            mean_height,
            rep.total_hi - 2.0 <= mean_height + 1e-9,
        ),
        BoundReport(
            "mean_height_le_2_log_X",
            mean_height,
            two_log_x,
            mean_height <= two_log_x + 1e-9,
        ),
    ]
