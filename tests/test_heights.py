import inspect
import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from arithdyn import archimedean, heights
from arithdyn import (
    AlgebraicPoint,
    LogValue,
    MonicPoly,
    PlaceQ,
    canonical_height,
    canonical_height_alg,
    classify_places,
    global_pairing,
    height,
    is_ordinary,
    local_profile,
    pairing_bounds,
    sample,
    sample_rational,
    sandwich_check,
    weil_height,
)
from arithdyn.heights import DegreeCapExceeded
from arithdyn.preperiodic import rational_prep
from arithdyn.rationals import ord_p

CHEB = MonicPoly.from_text("z^2-2")


def test_canonical_height_power_map(rng):
    for d in (2, 3):
        f = MonicPoly.make(d)
        for _ in range(25):
            x = sample_rational(50, rng)
            ch = canonical_height(f, x)
            assert abs(ch.value - float(weil_height(x))) <= 1e-12
            # finite part is exactly log(denominator)
            assert ch.finite == LogValue.from_rational(x.denominator) if x != 0 else ch.finite.is_zero()


def test_canonical_height_chebyshev():
    assert canonical_height(CHEB, F(2)).value == 0.0
    assert canonical_height(CHEB, F(0)).value == 0.0
    val = canonical_height(CHEB, F(3)).value
    assert val == pytest.approx(math.log((3 + math.sqrt(5)) / 2), abs=1e-9)


def test_canonical_height_bad_place_exact_part():
    f = MonicPoly.from_text("z^2+1/2")
    ch = canonical_height(f, F(1, 3))
    # at p=2 the orbit escapes with G = (1/2) log 2; p=3 is a good place
    assert ch.finite == LogValue.of_prime(2, F(1, 2)) + LogValue.of_prime(3)
    # functional equation
    ch2 = canonical_height(f, f.eval_exact(F(1, 3)))
    assert abs(ch2.value - 2 * ch.value) <= 1e-9


def test_canonical_height_functional_equation(rng):
    for _ in range(100):
        d = int(rng.integers(2, 4))
        f = sample(d, 8, rng)
        x = sample_rational(10, rng)
        a = canonical_height(f, f.eval_exact(x)).value
        b = canonical_height(f, x).value
        assert abs(a - d * b) <= 1e-8


def test_canonical_height_matches_defining_limit(rng):
    # Independent oracle: h-hat(x) = lim d^-n h(f^n(x)); the exact global
    # iterate height must agree within the standard telescoping bound.
    for _ in range(30):
        d = int(rng.integers(2, 4))
        f = sample(d, 5, rng)
        x = sample_rational(5, rng)
        n = 7 if d == 2 else 5
        z = x
        for _ in range(n):
            z = f.eval_exact(z)
        hn = math.log(max(abs(z.numerator), z.denominator)) if z != 0 else 0.0
        hf = float(height(f))
        c0 = d * (hf + math.log(4.0)) + math.log(2.0 * (d + 1))
        bound = c0 * d ** (-n) / (d - 1)
        got = canonical_height(f, x).value
        assert abs(got - hn * d ** (-n)) <= bound + 1e-9, (f.to_text(), x)


def _green_finite_walk(f, p, x, cap):
    # Exact Fraction orbit: -ord_p(z_n)/d^n at the first n <= cap with
    # -ord_p(z_n) > r, else 0.
    r = f._r_exp(p)
    z = x
    for n in range(cap + 1):
        if z != 0 and -ord_p(z, p) > r:
            return F(-ord_p(z, p), f.d**n)
        z = f.eval_exact(z)
    return F(0)


def test_green_finite_matches_exact_orbit_walk(rng):
    cases = []
    for _ in range(40):
        d = int(rng.integers(2, 4))
        cases.append((sample(d, 6, rng), sample_rational(6, rng)))
    # Fractional r, a deep denominator at each index (M > 0 when r is not an
    # integer), escapes at step 0 and the point 0.
    for d in (2, 3, 6):
        for i in range(d):
            cs = [F(0)] * d
            cs[i] = F(1, 2**11)
            for x in (F(0), F(1, 2), F(3, 32), F(1, 1024)):
                cases.append((MonicPoly(tuple(cs)), x))
    for f, x in cases:
        for p in f.denominator_primes():
            for cap in (1, 2, 6):
                got = heights._green_finite(f, p, x, cap=cap)
                assert got == _green_finite_walk(f, p, x, cap), (f.to_text(), x, p, cap)


# Rationals of height <= 12 whose denominators are powers of 2, 3 or 5.
_P_POWER = st.builds(F, st.integers(-12, 12), st.sampled_from([1, 2, 4, 8, 3, 9, 5]))


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(2, 5),
    coeffs=st.lists(_P_POWER, min_size=5, max_size=5),
    x=_P_POWER,
    p=st.sampled_from([2, 3, 5]),
)
def test_green_finite_properties(d, coeffs, x, p):
    f = MonicPoly(tuple(coeffs[:d]))
    g = heights._green_finite(f, p, x)
    assert g >= 0
    if x != 0 and -ord_p(x, p) > f._r_exp(p):
        assert g == -ord_p(x, p)
    if g != 0:
        assert heights._green_finite(f, p, f.eval_exact(x)) == d * g


def test_canonical_height_nonnegative(rng):
    for _ in range(30):
        f = sample(2, 10, rng)
        x = sample_rational(10, rng)
        assert canonical_height(f, x).value >= -1e-12


def test_alg_height_sqrt2_power_map():
    pt = AlgebraicPoint((-2, 0, 1))
    h = canonical_height_alg(MonicPoly.make(2), pt, 6)
    assert h.value == pytest.approx(0.5 * math.log(2), abs=1e-9)


def test_alg_height_golden_ratio_fixed():
    phi = AlgebraicPoint((-1, -1, 1))
    h = canonical_height_alg(MonicPoly.from_text("z^2-1"), phi, 6)
    assert h.exact_zero and h.value == 0.0 and h.err == 0.0


def test_alg_height_self_consistency():
    f = MonicPoly.from_text("z^2+1")
    pt = AlgebraicPoint((-2, 0, 0, 1))  # cube root of 2
    h6 = canonical_height_alg(f, pt, 6)
    h7 = canonical_height_alg(f, pt, 7)
    assert abs(h6.value - h7.value) <= h6.err + h7.err
    assert h7.err < h6.err


def test_alg_height_degree_cap():
    pt = AlgebraicPoint((-2, 0, 0, 1))
    with pytest.raises(DegreeCapExceeded):
        canonical_height_alg(MonicPoly.make(2), pt, 30)


_SMALL = st.builds(F, st.integers(-5, 5), st.integers(1, 5))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    coeffs=st.lists(_SMALL, min_size=2, max_size=3),
    low=st.lists(st.integers(-5, 5), min_size=2, max_size=3),
    lead=st.integers(1, 5),
    n=st.integers(1, 3),
)
def test_alg_height_matches_resultant_mahler_measure(coeffs, low, lead, n):
    # h(f^n(x)) = (1/D) log M(P) for P the primitive integer form of
    # Res_y(m(y), X - f^n(y)), whose roots are f^n at the D conjugates of x.
    import mpmath
    import sympy

    min_poly = low + [lead]
    assume(min_poly[0] != 0 and math.gcd(*min_poly) == 1)
    y, X = sympy.symbols("y X")
    m = sum(c * y**i for i, c in enumerate(min_poly))
    assume(sympy.Poly(m, y).is_irreducible)
    f, D = MonicPoly(tuple(coeffs)), len(min_poly) - 1
    h = canonical_height_alg(f, AlgebraicPoint(tuple(min_poly)), n)
    assume(not h.exact_zero)
    fy = y**f.d + sum(sympy.Rational(c.numerator, c.denominator) * y**i for i, c in enumerate(f.coeffs))
    fn = y
    for _ in range(n):
        fn = sympy.expand(fy.subs(y, fn))
    P = sympy.Poly(sympy.resultant(m, X - fn, y), X).clear_denoms()[1]
    log_m = mpmath.mpf(0)
    with mpmath.workdps(200):
        # M is multiplicative, and the irreducible factors have simple roots
        for q, k in P.factor_list()[1]:
            cs = [int(c) for c in q.all_coeffs()]
            roots = mpmath.polyroots(cs, maxsteps=500, extraprec=400)
            log_m += k * (mpmath.log(abs(cs[0])) + sum(mpmath.log(max(1, abs(r))) for r in roots))
    ref = float(log_m) / D / f.d**n
    assert math.isclose(h.value, ref, rel_tol=1e-12, abs_tol=1e-15), (h.value, ref)


def test_alg_height_of_rational_points(rng):
    for _ in range(20):
        f = sample(int(rng.integers(2, 4)), 10, rng)
        x = sample_rational(10, rng)
        h = canonical_height_alg(f, AlgebraicPoint.from_rational(x), 5)
        assert abs(h.value - canonical_height(f, x).value) <= h.err


def test_alg_height_of_rational_preperiodic_points():
    n = 4
    for f in (CHEB, MonicPoly.from_text("z^2-1"), MonicPoly.from_text("z^2-3/4"),
              MonicPoly.from_text("z^3-z")):
        for x in rational_prep(f):
            orbit = [x]
            while orbit[-1] not in orbit[:-1]:
                orbit.append(f.eval_exact(orbit[-1]))
            h = canonical_height_alg(f, AlgebraicPoint.from_rational(x), n)
            if len(orbit) - 1 <= n:
                assert (h.value, h.err, h.depth, h.exact_zero) == (0.0, 0.0, len(orbit) - 1, True)


def test_alg_height_through_an_iterate_equal_to_zero():
    sqrt2 = AlgebraicPoint((-2, 0, 1))  # sqrt 2 -> 0 -> -2 -> 2 -> 2 under z^2 - 2
    h1 = canonical_height_alg(CHEB, sqrt2, 1)
    assert h1.value == 0.0 and not h1.exact_zero
    h4 = canonical_height_alg(CHEB, sqrt2, 4)
    assert h4.exact_zero and h4.depth == 4


def test_algebraic_point_validation():
    with pytest.raises(ValueError):
        AlgebraicPoint((2, 0, 2))  # not primitive
    with pytest.raises(ValueError):
        AlgebraicPoint((-1, 0, 1))  # z^2 - 1 reducible
    assert AlgebraicPoint.from_rational(F(3, 4)).degree == 1


def test_pairing_bounds_finite_entries():
    # a good-assoc place: exact (1/d)(log M_f + log M_g)
    f = MonicPoly.from_text("z^2+1/5")
    g = MonicPoly.from_text("z^2+(1/7)z+1/11")
    e = pairing_bounds(f, g).entries[0]
    assert e.place == "5" and e.tag == "exact" and e.provenance == "good-assoc"
    assert e.lo == e.hi == pytest.approx(0.5 * math.log(5))
    # a bad place: the interval [0, (1/d)(log M_f + log M_g)]
    e2 = pairing_bounds(MonicPoly.from_text("z^2+1/6"), MonicPoly.from_text("z^2+1/10")).entries[0]
    assert e2.place == "2" and e2.tag == "interval" and e2.provenance == "bad"
    assert e2.lo == 0.0
    assert e2.hi == pytest.approx(0.5 * (math.log(2) + math.log(2)))


def test_global_pairing_self_and_benchmark():
    rep = global_pairing(CHEB, CHEB, 2000)
    assert rep.total_lo == rep.total_hi == 0.0
    rep2 = global_pairing(MonicPoly.make(2), CHEB, 10**4)
    assert 0.30 <= (rep2.total_lo + rep2.total_hi) / 2 <= 0.34
    finite = [e for e in rep2.entries if e.place != "inf"]
    assert all(e.hi == 0.0 for e in finite)
    assert all(e.lo >= 0.0 for e in rep2.entries)


def test_pairings_reject_unequal_degrees():
    # with and without a denominator prime, f or g of the larger degree
    for f, g in (("z^2", "z^3-1"), ("z^2+1/2", "z^3"), ("z^3", "z^2")):
        f, g = MonicPoly.from_text(f), MonicPoly.from_text(g)
        for pairing in (global_pairing, pairing_bounds):
            with pytest.raises(ValueError, match="equal degrees"):
                pairing(f, g)


def test_global_pairing_ordinary_exact_lower(rng):
    # epsilon-ordinary pair: lower endpoint >= sum of exact good-place terms,
    # and the exact identity sum_good = (h(f)+h(g))/d - bad/d - arch/d holds
    # in rational log-prime arithmetic.
    found = 0
    while found < 5:
        f = sample(2, 30, rng, centered=True)
        g = sample(2, 30, rng)
        if g == f:
            continue
        ok, _ = is_ordinary(f, g, 30, 0.2)
        if not ok:
            continue
        found += 1
        rep = pairing_bounds(f, g)
        assert rep.total_lo >= float(rep.finite_exact) - 1e-12
        prof = classify_places(f, g)
        d = f.d
        bad_mass = LogValue.zero()
        for p in prof.bad:
            e_f = max([0] + [-ord_p(c, p) for c in f.coeffs if c != 0])
            e_g = max([0] + [-ord_p(c, p) for c in g.coeffs if c != 0])
            bad_mass = bad_mass + LogValue.of_prime(p, F(e_f + e_g, d))
        arch = (local_profile(f, PlaceQ.arch()).M + local_profile(g, PlaceQ.arch()).M) * F(1, d)
        total = (height(f) + height(g)) * F(1, d)
        assert rep.finite_exact == total - bad_mass - arch


_coeff = st.builds(F, st.integers(-30, 30), st.integers(1, 30))
_pairs_of_one_degree = st.integers(2, 6).flatmap(
    lambda d: st.tuples(*[st.lists(_coeff, min_size=d, max_size=d).map(lambda cs: MonicPoly(tuple(cs)))] * 2)
)


@settings(deadline=None)
@given(_pairs_of_one_degree)
def test_pairing_bounds_identities(pair):
    # Every prime of either place table gives one entry, good-assoc or bad as
    # classify_places says; the endpoints are the exact good-place sum and the
    # height bound (h(f) + h(g))/d + 2.
    f, g = pair
    assume(f != g)
    rep = pairing_bounds(f, g)
    assert rep.total_lo == pytest.approx(float(rep.finite_exact), rel=1e-12, abs=0)
    mean_height = (float(height(f)) + float(height(g))) / f.d
    assert rep.total_hi == pytest.approx(mean_height + 2, rel=1e-12, abs=0)
    prof = classify_places(f, g)
    places = lambda kind: [int(e.place) for e in rep.entries if e.provenance == kind]
    assert places("good-assoc") == sorted(prof.assoc)
    assert places("bad") == list(prof.bad)
    assert len(rep.entries) == len(prof.assoc) + len(prof.bad) + 1


def test_pairing_triangle_inequality(rng):
    for _ in range(5):
        polys = [sample(2, 8, rng) for _ in range(3)]
        if len({p.to_text() for p in polys}) < 3:
            continue
        reps = {}
        for i in range(3):
            for j in range(i + 1, 3):
                reps[(i, j)] = global_pairing(polys[i], polys[j], 2000)
        for (a, b, c) in ((0, 1, 2), (1, 0, 2), (0, 2, 1)):
            lhs = math.sqrt(max(reps[tuple(sorted((a, c)))].total_lo, 0.0))
            rhs = math.sqrt(reps[tuple(sorted((a, b)))].total_hi) + math.sqrt(
                reps[tuple(sorted((b, c)))].total_hi
            )
            assert lhs <= rhs + 1e-9


def test_sandwich_check_examples():
    f = MonicPoly.make(2)
    for rep in sandwich_check(f, f, 10, N=1000):
        assert rep.satisfied
    # adversarial large-coefficient pair
    fbig = MonicPoly.make(2, {0: F(9999, 10000)})
    gbig = MonicPoly.make(2, {1: F(10000, 9999), 0: F(-10000)})
    for rep in sandwich_check(fbig, gbig, 10**4, N=1000):
        assert rep.satisfied


def test_only_global_pairing_takes_an_rng():
    """The archimedean layer draws no random numbers, so no public function
    of it takes a generator.  global_pairing keeps an ignored rng only
    because benchmark/workloads.py calls
    global_pairing(f, g, N, np.random.default_rng(seed)) positionally."""
    takes_rng = [
        f"{module.__name__}.{name}"
        for module in (archimedean, heights)
        for name in module.__all__
        if inspect.isfunction(getattr(module, name))
        and "rng" in inspect.signature(getattr(module, name)).parameters
    ]
    assert takes_rng == ["arithdyn.heights.global_pairing"]
