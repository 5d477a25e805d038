import inspect
import math
from fractions import Fraction as F

import pytest

from arithdyn import archimedean, heights
from arithdyn import (
    AlgebraicPoint,
    LogValue,
    MonicPoly,
    PlaceQ,
    canonical_height,
    canonical_height_alg,
    classify_places,
    equidistribution_bounds,
    fudge_min,
    global_pairing,
    height,
    is_ordinary,
    local_pairing,
    local_profile,
    pairing_bounds,
    sample,
    sample_rational,
    sandwich_check,
    weil_height,
)
from arithdyn.heights import DegreeCapExceeded

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


def test_green_finite_padic_path_differential(rng, monkeypatch):
    # Force the exact-rational shadow off so every step runs through the
    # capped-precision p-adic arithmetic; results must match the default path.
    import arithdyn.heights as hh

    cases = []
    for _ in range(40):
        d = int(rng.integers(2, 4))
        f = sample(d, 6, rng)
        x = sample_rational(6, rng)
        want = {p: hh._green_finite(f, p, x) for p in f.denominator_primes()}
        cases.append((f, x, want))
    monkeypatch.setattr(hh, "_EXACT_BIT_BUDGET", 8)
    for f, x, want in cases:
        for p, q in want.items():
            assert hh._green_finite(f, p, x) == q, (f.to_text(), x, p)


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


def test_algebraic_point_validation():
    with pytest.raises(ValueError):
        AlgebraicPoint((2, 0, 2))  # not primitive
    with pytest.raises(ValueError):
        AlgebraicPoint((-1, 0, 1))  # z^2 - 1 reducible
    assert AlgebraicPoint.from_rational(F(3, 4)).degree == 1


def test_local_pairing_examples():
    f = MonicPoly.from_text("z^2+1/5")
    g = MonicPoly.from_text("z^2+(1/7)z+1/11")
    e = local_pairing(f, g, PlaceQ.finite(5))
    assert e.tag == "exact" and e.lo == pytest.approx(0.5 * math.log(5))
    both_good = local_pairing(MonicPoly.make(2), CHEB, PlaceQ.finite(3))
    assert both_good.tag == "exact" and both_good.hi == 0.0
    e2 = local_pairing(
        MonicPoly.from_text("z^2+1/6"), MonicPoly.from_text("z^2+1/10"), PlaceQ.finite(2)
    )
    assert e2.tag == "interval" and e2.lo == 0.0
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
            e_f = max([F(0)] + [F(-o) for o in f.coeff_ords(p) if o is not None])
            e_g = max([F(0)] + [F(-o) for o in g.coeff_ords(p) if o is not None])
            bad_mass = bad_mass + LogValue.of_prime(p, F(e_f + e_g, d))
        arch = (local_profile(f, PlaceQ.arch()).M + local_profile(g, PlaceQ.arch()).M) * F(1, d)
        total = (height(f) + height(g)) * F(1, d)
        assert rep.finite_exact == total - bad_mass - arch


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


def test_fudge_min_examples():
    assert fudge_min(3, 1, F(1)) == F(1, 4)
    assert fudge_min(3, 2, F(1)) == 0
    assert fudge_min(5, 3, F(1)) == F(1, 12)
    # both branches agree at j = (d-1)/2
    assert fudge_min(5, 2, F(1)) == F(1, 6)
    assert fudge_min(7, 3, F(2)) == F(2, 8)
    with pytest.raises(ValueError):
        fudge_min(3, 0, F(1))
    with pytest.raises(ValueError):
        fudge_min(3, 1, F(-1))


def test_equidistribution_bounds():
    # f = z^2 + 1/4 at p=2: R = 2, A = R^(d-1) = 2 = d, alpha = 1, eps = 1/(dN)
    f = MonicPoly.from_text("z^2+1/4")
    g = MonicPoly.make(2)
    out = equidistribution_bounds(f, g, 100)
    assert out["shape_only"] is True
    assert out["radii_f"]["2"] == pytest.approx(1 / 200)
    assert out["radii_g"] == {"inf": out["radii_g"]["inf"]}  # good everywhere else
    # explicit-good place radius is 1
    out2 = equidistribution_bounds(MonicPoly.from_text("z^3+5z"), g, 100)
    assert all(v == 1.0 for k, v in out2["radii_f"].items() if k != "inf")
    # doubling N roughly halves the shape
    r1 = equidistribution_bounds(f, g, 10**4)["rhs_shape"]
    r2 = equidistribution_bounds(f, g, 2 * 10**4)["rhs_shape"]
    assert 0.4 < r2 / r1 < 0.6
    with pytest.raises(ValueError):
        equidistribution_bounds(f, g, 1)
