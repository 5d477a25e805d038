"""Canonical heights of rational and algebraic points, per-place and global
energy pairings with exactness tags, and the bound/sandwich evaluators.

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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .archimedean import arch_pairing, green_arch, holder_constants
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
    "local_pairing",
    "global_pairing",
    "pairing_bounds",
    "sandwich_check",
    "fudge_min",
    "equidistribution_bounds",
    "DegreeCapExceeded",
]


class DegreeCapExceeded(ValueError):
    """Resultant degree d^n * deg(x) above the configured cap."""


# ---------------------------------------------------------------------------
# canonical height of rational points
# ---------------------------------------------------------------------------


class _PrecisionExhausted(Exception):
    pass


class _Padic:
    """p^ord * (unit + O(p^prec)) with p not dividing unit; None means exact 0."""

    __slots__ = ("ord", "unit", "prec")

    def __init__(self, ordv: int, unit: int, prec: int):
        self.ord = ordv
        self.unit = unit
        self.prec = prec


def _padic_from_fraction(x: Fraction, p: int, K: int) -> Optional[_Padic]:
    if x == 0:
        return None
    e = ord_p(x, p)
    num, den = x.numerator, x.denominator
    if e >= 0:
        num //= p**e
    else:
        den //= p ** (-e)
    mod = p**K
    u = num % mod * pow(den % mod, -1, mod) % mod
    return _Padic(e, u, K)


def _padic_mul(a: Optional[_Padic], b: Optional[_Padic], p: int) -> Optional[_Padic]:
    if a is None or b is None:
        return None
    prec = min(a.prec, b.prec)
    if prec <= 0:
        raise _PrecisionExhausted
    return _Padic(a.ord + b.ord, a.unit * b.unit % p**prec, prec)


def _padic_pow(a: Optional[_Padic], k: int, p: int) -> Optional[_Padic]:
    if a is None:
        return None
    return _Padic(a.ord * k, pow(a.unit, k, p**a.prec), a.prec)


def _padic_sum(terms: List[_Padic], p: int) -> Optional[_Padic]:
    terms = [t for t in terms if t is not None]
    if not terms:
        return None
    m = min(t.ord for t in terms)
    q = min(t.ord - m + t.prec for t in terms)
    if q <= 0:
        raise _PrecisionExhausted
    mod = p**q
    s = 0
    for t in terms:
        s = (s + t.unit * pow(p, t.ord - m, mod)) % mod
    if s == 0:
        # Either an exact zero or a cancellation beyond working precision;
        # the caller restarts at higher precision (exact zeros are caught by
        # the exact-rational shadow while it is alive).
        raise _PrecisionExhausted
    c = 0
    while s % p == 0:
        s //= p
        c += 1
    if q - c <= 0:
        raise _PrecisionExhausted
    return _Padic(m + c, s % p ** (q - c), q - c)


_EXACT_BIT_BUDGET = 1 << 15
_DEPTH_CAP = 64


def _green_finite(f: MonicPoly, p: int, x: Fraction, cap: int = _DEPTH_CAP) -> Fraction:
    """G_{f,p}(x) as an exact multiple of log p.

    Explicit good reduction gives log^+ |x|_p directly.  Otherwise iterate
    v-adically: once |z|_p exceeds the R bound the escape is exact and
    G = d^-n log|z_n|_p; orbits still inside the bound at the depth cap
    contribute less than d^-cap times a bounded factor and are reported as 0.
    """
    if f.explicit_good_at(p):
        return Fraction(max(0, -ord_p(x, p))) if x != 0 else Fraction(0)
    K = 96
    while True:
        try:
            return _green_finite_attempt(f, p, x, f._r_exp(p), cap, K)
        except _PrecisionExhausted:
            K *= 2
            if K > 1 << 16:
                raise ArithmeticError(
                    f"p-adic precision exhausted at p={p} for x={x}; "
                    "orbit cancels beyond 2^16 digits"
                )


def _green_finite_attempt(f, p, x, r_exp: Fraction, cap: int, K: int) -> Fraction:
    d = f.d
    exact: Optional[Fraction] = Fraction(x)
    z: Optional[_Padic] = _padic_from_fraction(exact, p, K)
    nonzero = [(i, c) for i, c in enumerate(f.coeffs) if c != 0]
    coeff_p = {i: _padic_from_fraction(c, p, K) for i, c in nonzero}
    for n in range(1, cap + 1):
        if exact is not None:
            # Exact rational shadow: no precision management needed, and exact
            # orbit zeros are handled for free.
            exact = f.eval_exact(exact)
            z = _padic_from_fraction(exact, p, K)
            if exact.numerator.bit_length() + exact.denominator.bit_length() > _EXACT_BIT_BUDGET:
                exact = None
        else:
            if z is None:
                raise ArithmeticError("lost track of exact zero orbit")
            terms = [_padic_pow(z, d, p)]
            for i, _ in nonzero:
                terms.append(_padic_mul(coeff_p[i], _padic_pow(z, i, p), p))
            z = _padic_sum(terms, p)
        if z is not None and Fraction(-z.ord) > r_exp:
            return Fraction(-z.ord, d**n)
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
    bad = set(f.denominator_primes())
    for p in sorted(bad):
        q = _green_finite(f, p, x)
        if q:
            finite = finite + LogValue.of_prime(p, q)
    if x != 0:
        for p in factorize(x.denominator).primes:
            if p not in bad:
                finite = finite + LogValue.of_prime(p, -ord_p(x, p))
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


def _poly_mul_mod(a: List[Fraction], b: List[Fraction], m: Sequence[int]) -> List[Fraction]:
    D = len(m) - 1
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    lc = Fraction(m[-1])
    while len(out) > D:
        top = out.pop()
        if top == 0:
            continue
        fac = top / lc
        for k in range(D):
            out[len(out) - D + k] -= fac * m[k]
    while len(out) < D:
        out.append(Fraction(0))
    return out


def _poly_f_of(f: MonicPoly, t: List[Fraction], m: Sequence[int]) -> List[Fraction]:
    acc = [Fraction(1)] + [Fraction(0)] * (len(m) - 2)
    acc = acc[: len(m) - 1]
    res = _poly_mul_mod(acc, t, m)
    for i in range(f.d - 1, -1, -1):
        res[0] += f.coeffs[i]
        if i > 0:
            res = _poly_mul_mod(res, t, m)
    return res


def _charpoly(mat: List[List[Fraction]]) -> List[Fraction]:
    """Faddeev-LeVerrier: monic characteristic polynomial, ascending coeffs."""
    D = len(mat)
    M = [[Fraction(0)] * D for _ in range(D)]
    cs = [Fraction(0)] * (D + 1)
    cs[D] = Fraction(1)
    c = Fraction(1)
    for k in range(1, D + 1):
        # M <- A M + c I ; then c <- -tr(A M)/k
        AM = [[sum(mat[i][l] * M[l][j] for l in range(D)) for j in range(D)] for i in range(D)]
        for i in range(D):
            AM[i][i] += c
        M = AM
        tr = sum(sum(mat[i][l] * M[l][i] for l in range(D)) for i in range(D))
        c = -tr / k
        cs[D - k] = c
    return cs


@dataclass(frozen=True)
class AlgHeight:
    value: float
    err: float
    depth: int
    exact_zero: bool = False


def canonical_height_alg(
    f: MonicPoly, x: AlgebraicPoint, n: int, degree_cap: int = 5000
) -> AlgHeight:
    """d^-n h(f^n(x)) with an explicit error bound, by elimination in Q[y]/(m).

    Orbits whose reduced iterates repeat are preperiodic and return exactly 0.
    The error bound uses the standard |h(f(y)) - d h(y)| <= C(f) estimate with
    C(f) computed from the coefficients.
    """
    if n < 1:
        raise ValueError("depth must be >= 1")
    D = x.degree
    if f.d**n * D > degree_cap:
        raise DegreeCapExceeded(f"d^n * deg(x) = {f.d ** n * D} > {degree_cap}")
    m = x.min_poly
    t: List[Fraction] = [Fraction(0)] * D
    if D == 1:
        t = [Fraction(-m[0], m[1])]
    else:
        t[1] = Fraction(1)
    seen = {tuple(t): 0}
    hf = float(height(f))
    C0 = f.d * (hf + math.log(4.0)) + math.log(2.0 * (f.d + 1))
    err_at = lambda k: C0 * f.d ** (-k) / (f.d - 1)
    for step in range(1, n + 1):
        t = _poly_f_of(f, t, m)
        key = tuple(t)
        if key in seen:
            return AlgHeight(value=0.0, err=0.0, depth=step, exact_zero=True)
        seen[key] = step
    # characteristic polynomial of multiplication by t on Q[y]/(m)
    if D == 1:
        val = t[0]
        h = math.log(max(abs(val.numerator), val.denominator)) if val != 0 else 0.0
        return AlgHeight(value=h * f.d ** (-n), err=err_at(n), depth=n)
    basis = [Fraction(0)] * D
    basis[0] = Fraction(1)
    cols = []
    cur = basis
    for i in range(D):
        cols.append(_poly_mul_mod(t, cur, m))
        cur = _poly_mul_mod(cur, [Fraction(0), Fraction(1)], m)
    mat = [[cols[j][i] for j in range(D)] for i in range(D)]
    cp = _charpoly(mat)
    lcm_den = 1
    for c in cp:
        lcm_den = lcm_den * c.denominator // gcd(lcm_den, c.denominator)
    ints = [int(c * lcm_den) for c in cp]
    content = 0
    for v in ints:
        content = gcd(content, abs(v))
    lead = lcm_den // content  # leading coefficient of the primitive integer poly
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
    shape_only: bool = False

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "satisfied": self.satisfied,
            "shape_only": self.shape_only,
        }


def local_pairing(f: MonicPoly, g: MonicPoly, v: PlaceQ) -> PlaceEntry:
    """-(mu_f, mu_g)_v at a finite place.

    Good place (exactly one large coefficient across the pair): exact value
    (1/d)(log M_{f,v} + log M_{g,v}).  Bad place: the interval
    [0, (1/d)(log M_{f,v} + log M_{g,v})] -- an honest enclosure, never a
    point estimate (no exact local formula exists there).
    """
    if v.is_arch:
        raise ValueError("local_pairing is for finite places; use arch_pairing")
    if f.d != g.d:
        raise ValueError("pairing formulas require equal degrees")
    p = v.p
    large = len(f._large(p)) + len(g._large(p))
    bound = LogValue.of_prime(p, Fraction(f._m_exp(p) + g._m_exp(p), f.d))
    if large == 0:
        return PlaceEntry(str(v), "exact", "trivial", 0.0, 0.0, LogValue.zero())
    if large == 1:
        x = float(bound)
        return PlaceEntry(str(v), "exact", "good-assoc", x, x, bound)
    return PlaceEntry(str(v), "interval", "bad", 0.0, float(bound), None)


def _finite_entries(f: MonicPoly, g: MonicPoly) -> Tuple[List[PlaceEntry], LogValue]:
    entries = []
    exact_sum = LogValue.zero()
    primes = sorted(set(f.denominator_primes()) | set(g.denominator_primes()))
    for p in primes:
        e = local_pairing(f, g, PlaceQ.finite(p))
        entries.append(e)
        if e.tag == "exact" and e.exact is not None:
            exact_sum = exact_sum + e.exact
    return entries, exact_sum


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


def fudge_min(d: int, j: int, log_aj: Rat) -> Fraction:
    """inf over the Berkovich line of G_f + G_g - (1/2) log|.| at a place
    associated to a_j: (1/(2(d-j))) log|a_j| when j <= (d-1)/2, else
    ((d-j-1)/(2j(d-j))) log|a_j|.  Units of log p."""
    if not (1 <= j <= d - 1):
        raise ValueError("need 1 <= j <= d-1")
    la = Fraction(log_aj)
    if la <= 0:
        raise ValueError("log|a_j|_v must be positive")
    if 2 * j <= d - 1:
        return la / (2 * (d - j))
    return la * Fraction(d - j - 1, 2 * j * (d - j))


def _radius_family(f: MonicPoly, N: int) -> Dict[str, float]:
    """Adelic radius eps_v = (dN)^(-1/alpha_v) at arch/bad places, 1 at good."""
    d = f.d
    # alpha = log d / log A, so eps = (dN)^(-1/alpha) = (dN)^(-log A / log d)
    out: Dict[str, float] = {"inf": (d * N) ** (-1.0 / holder_constants(f).alpha)}
    for p in f.denominator_primes():
        lp = local_profile(f, PlaceQ.finite(p))
        if lp.reduction == "explicit-good":
            out[str(p)] = 1.0
        else:
            A_v = math.exp(float(lp.R)) ** (d - 1)
            out[str(p)] = (d * N) ** (-math.log(A_v) / math.log(d))
    return out


def equidistribution_bounds(f: MonicPoly, g: MonicPoly, N: int) -> dict:
    """Adelic radius family and the (constant-free) equidistribution RHS shape
    d (log N / N)(max(h(f), h(g)) + 1).  Shape-only: the absolute constant in
    the underlying bound is unspecified, so this is for monotonicity
    experiments, not certified inequalities."""
    if N < 2:
        raise ValueError("N must be >= 2")
    rhs = f.d * (math.log(N) / N) * (max(float(height(f)), float(height(g))) + 1.0)
    return {
        "schema": 1,
        "shape_only": True,
        "radii_f": _radius_family(f, N),
        "radii_g": _radius_family(g, N),
        "rhs_shape": rhs,
        "report": BoundReport("pairing_upper_shape", 0.0, rhs, True, shape_only=True).to_json(),
    }
