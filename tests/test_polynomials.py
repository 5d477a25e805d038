import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arithdyn import (
    LogValue,
    MonicPoly,
    PlaceQ,
    SliceSpec,
    StrataHypothesisError,
    SurveyConfig,
    abs_at,
    classify_case,
    classify_places,
    count_rationals_upto,
    disjoint_certificate,
    height,
    is_ordinary,
    julia_shells,
    local_profile,
    mass_outside_unit,
    radical_stats,
    sample,
    sample_rational,
    strata,
)


def test_parse_and_format():
    f = MonicPoly.from_text("z^3 + (3/4)z + 7")
    assert f.coeffs == (F(7), F(3, 4), F(0))
    assert MonicPoly.from_text(f.to_text()) == f
    assert MonicPoly.from_text("z^2-2").coeffs == (F(-2), F(0))
    assert MonicPoly.from_text("z^2+(1/7)z+1/11").coeffs == (F(1, 11), F(1, 7))
    assert MonicPoly.from_text("z^2 - z").coeffs == (F(0), F(-1))
    with pytest.raises(ValueError):
        MonicPoly.from_text("2z^2 + 1")
    with pytest.raises(ValueError):
        MonicPoly.from_text("z + 1")


def test_json_roundtrip():
    f = MonicPoly.from_text("z^3 + (3/4)z + 7")
    assert MonicPoly.from_json_dict(f.to_json_dict()) == f
    assert f.to_json_dict()["coeffs"][1] == ["3", "4"]


def test_local_profile_examples():
    f = MonicPoly.make(2)
    prof = local_profile(f, PlaceQ.arch())
    assert math.isclose(float(prof.R), math.log(3))
    assert prof.M.is_zero()

    g = MonicPoly.from_text("z^2+1/2")
    p2 = local_profile(g, PlaceQ.finite(2))
    assert p2.reduction == "bad"
    assert float(p2.M) == pytest.approx(math.log(2))
    assert p2.R == LogValue.of_prime(2, F(1, 2))  # R = 2^(1/2)

    h = MonicPoly.from_text("z^3 + 5z")
    p5 = local_profile(h, PlaceQ.finite(5))
    assert p5.reduction == "explicit-good"
    assert p5.M.is_zero()

    # a_1 and a_0 tie for R: |4|^(1/2) = |8|^(1/3) = 2
    t = local_profile(MonicPoly.from_text("z^3 + 4z + 8"), PlaceQ.arch())
    assert t.M == LogValue.from_rational(8)
    assert t.R == LogValue.of_prime(2) + LogValue.of_prime(3)


def test_height_examples():
    assert height(MonicPoly.make(2)).is_zero()
    assert height(MonicPoly.from_text("z^2+1/2")) == LogValue.of_prime(2)
    f = MonicPoly.from_text("z^3 + (3/4)z + 7")
    assert height(f) == LogValue.from_rational(4) + LogValue.from_rational(7)


def test_height_nonnegative_and_box_bound(rng):
    for _ in range(100):
        d = int(rng.integers(2, 6))
        X = int(rng.integers(1, 30))
        f = sample(d, X, rng)
        h = float(height(f))
        assert h >= 0
        assert h <= d * math.log(X) + 1e-9
    # equality iff all coefficients integral-like
    assert float(height(MonicPoly.from_text("z^2 - z"))) == 0.0


def test_is_ordinary_examples():
    f = MonicPoly.from_text("z^2+1/5")
    g = MonicPoly.from_text("z^2+(1/7)z+1/11")
    ok, witness = is_ordinary(f, g, 11, 0.2)
    assert ok and witness is None
    ok, witness = is_ordinary(f, MonicPoly.from_text("z^2+1/5"), 11, 0.2)
    assert not ok and "gcd" in witness
    ok, witness = is_ordinary(MonicPoly.from_text("z^2+2"), MonicPoly.make(2), 4, 0.1)
    assert not ok and "rad" in witness


def test_is_ordinary_preconditions():
    f = MonicPoly.from_text("z^2+z+1")  # not centered
    with pytest.raises(ValueError):
        is_ordinary(f, MonicPoly.make(2), 10, 0.1)
    with pytest.raises(ValueError):
        is_ordinary(MonicPoly.make(2), MonicPoly.from_text("z^2+100"), 10, 0.1)


@pytest.mark.parametrize("eps", [0.3, 0.25, F(1, 4), 0, -0.1, "1/2"])
def test_eps_outside_the_open_quarter_is_rejected(eps):
    """is_ordinary, radical_stats and SurveyConfig share one range, 0 < eps < 1/4."""
    f, g = MonicPoly.from_text("z^2+1/5"), MonicPoly.from_text("z^2+(1/7)z+1/11")
    with pytest.raises(ValueError, match="eps"):
        is_ordinary(f, g, 11, eps)
    with pytest.raises(ValueError, match="eps"):
        radical_stats(20, eps)
    with pytest.raises(ValueError, match="eps"):
        SurveyConfig(d=2, X=11, samples=1, eps=eps)
    assert is_ordinary(f, g, 11, 0.2) == is_ordinary(f, g, 11, "1/5") == (True, None)


def test_classify_places_examples():
    f = MonicPoly.from_text("z^2+1/5")
    g = MonicPoly.from_text("z^2+(1/7)z+1/11")
    prof = classify_places(f, g)
    assert prof.assoc == {5: ("f", 0), 7: ("g", 1), 11: ("g", 0)}
    assert prof.bad == ()
    assert is_ordinary(f, g, 11, 0.2) == (True, None)

    prof2 = classify_places(MonicPoly.from_text("z^2+1/6"), MonicPoly.from_text("z^2+1/10"))
    assert prof2.assoc == {3: ("f", 0), 5: ("g", 0)}
    assert prof2.bad == (2,)

    prof3 = classify_places(MonicPoly.make(2), MonicPoly.make(2))
    assert prof3.assoc == {} and prof3.bad == ()


def test_classify_partition_and_good_reduction(rng):
    for _ in range(100):
        d = int(rng.integers(2, 5))
        f = sample(d, 20, rng, centered=True)
        g = sample(d, 20, rng)
        prof = classify_places(f, g)
        assert set(prof.assoc) | set(prof.bad) == set(f.denominator_primes()) | set(g.denominator_primes())
        assert not (set(prof.assoc) & set(prof.bad))
        for p, (side, j) in prof.assoc.items():
            other = g if side == "f" else f
            assert other.explicit_good_at(p)


def test_sum_assoc_mass_bound(rng):
    # For ordinary pairs each nonzero coefficient's associated places carry
    # log-mass at least (1 - 4 d eps) log X.
    d, X, eps = 2, 1000, F(1, 50)
    found = 0
    while found < 20:
        f = sample(d, X, rng, centered=True)
        g = sample(d, X, rng)
        ok, _ = is_ordinary(f, g, X, eps)
        if not ok:
            continue
        found += 1
        prof = classify_places(f, g)
        bound = (1 - 4 * d * float(eps)) * math.log(X)
        for side, poly in (("f", f), ("g", g)):
            for j, c in enumerate(poly.coeffs):
                if c == 0:
                    continue
                mass = sum(
                    -math.log(p) * _ord(c, p)
                    for p, tag in prof.assoc.items()
                    if tag == (side, j)
                )
                assert mass >= bound - 1e-9


def _ord(c, p):
    from arithdyn.rationals import ord_p

    return ord_p(c, p)


def test_sample_height_one():
    rng = np.random.default_rng(0)
    for _ in range(50):
        f = sample(3, 1, rng)
        assert all(c in (F(-1), F(0), F(1)) for c in f.coeffs)


def test_sample_slice_and_centered():
    rng = np.random.default_rng(1)
    sl = SliceSpec({1: F(0)})
    for _ in range(20):
        f = sample(3, 10, rng, slice=sl)
        assert f.coeffs[1] == 0
    g = sample(4, 10, rng, centered=True)
    assert g.centered
    with pytest.raises(ValueError):
        SliceSpec({0: F(1)})
    with pytest.raises(ValueError):
        sample(3, 10, rng, centered=True, slice=SliceSpec({2: F(1)}))


def test_sample_rational_marginal_chi2():
    # Empirical marginal over the 127-element set {H <= 10} vs uniform.
    rng = np.random.default_rng(123)
    n_cells = count_rationals_upto(10)
    assert n_cells == 127
    N = 10**5
    counts = {}
    for _ in range(N):
        x = sample_rational(10, rng)
        counts[x] = counts.get(x, 0) + 1
    assert len(counts) == n_cells
    expected = N / n_cells
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # dof = 126; mean 126, sd ~ 15.9; allow 5 sigma
    assert chi2 < 126 + 5 * math.sqrt(2 * 126)


# Coefficients whose denominators are products of powers of 2, 3, 5 and 7; zeros
# and integers keep one-large-coefficient shapes common.
_PRIMES = (2, 3, 5, 7)
_den = st.tuples(*[st.integers(0, 2)] * 4).map(
    lambda es: math.prod(p**e for p, e in zip(_PRIMES, es))
)
_coeff = st.one_of(
    st.just(F(0)), st.integers(-20, 20).map(F), st.builds(F, st.integers(-20, 20), _den)
)
_polys = st.integers(2, 5).flatmap(
    lambda d: st.lists(st.lists(_coeff, min_size=d, max_size=d), min_size=2, max_size=2)
).map(lambda css: [MonicPoly(tuple(cs)) for cs in css])


def _large(f, p):
    """(i, log_p |a_i|_p) for the coefficients with |a_i|_p > 1."""
    return [(i, -_ord(c, p)) for i, c in enumerate(f.coeffs) if c != 0 and abs_at(c, PlaceQ(p)) > 1]


def _radii(f, p):
    """The radius support of f's filled Julia set at p, from its definition:
    "ball" with no large coefficient, the log-radii of the strata otherwise,
    and "unknown" where the strata hypothesis fails."""
    if not _large(f, p):
        return "ball"
    try:
        return frozenset(strata(f, PlaceQ(p)).log_radii)
    except StrataHypothesisError:
        return "unknown"


def _supports_disjoint(s, t):
    if "unknown" in (s, t) or s == t == "ball":
        return False
    if "ball" in (s, t):
        return min(t if s == "ball" else s) > 0
    return not (s & t)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_polys)
def test_place_table_consumers_match_coefficient_definitions(polys):
    for f in polys:
        primes = tuple(p for p in _PRIMES if any(c.denominator % p == 0 for c in f.coeffs))
        assert f.denominator_primes() == primes
        total = LogValue.zero()
        for v in [PlaceQ.arch()] + [PlaceQ(p) for p in _PRIMES]:
            M = LogValue.from_rational(max([F(1)] + [abs_at(c, v) for c in f.coeffs]))
            assert local_profile(f, v).M == M
            total = total + M
            if v.is_arch:
                r = LogValue.max(LogValue.zero(), *[
                    LogValue.from_rational(abs(c)) * F(1, f.d - i)
                    for i, c in enumerate(f.coeffs) if c != 0
                ])
                assert local_profile(f, v).R == LogValue.of_prime(3) + r
                continue
            r = max([F(0)] + [F(m, f.d - i) for i, m in _large(f, v.p)])
            assert local_profile(f, v).R == LogValue.of_prime(v.p, r)
            assert mass_outside_unit(f, v) == next((i for i, _ in _large(f, v.p) if i), None)
            try:
                assert julia_shells(f, v) == ("shells", frozenset(strata(f, v).log_radii))
            except StrataHypothesisError:
                assert julia_shells(f, v) == (("ball", None) if f.explicit_good_at(v.p) else ("unknown", None))
        assert height(f) == total
    f, g = polys
    if f != g:
        witness = next((p for p in _PRIMES if _supports_disjoint(_radii(f, p), _radii(g, p))), None)
        cert = disjoint_certificate(f, g)
        assert (cert and cert.p) == witness
        assert (classify_case(f, g) == 1) == (cert is not None)
        prof = classify_places(f, g)
        for p in _PRIMES:
            large = [("f", i) for i, _ in _large(f, p)] + [("g", i) for i, _ in _large(g, p)]
            assert prof.assoc.get(p) == (large[0] if len(large) == 1 else None)
            assert (p in prof.bad) == (len(large) > 1)
