"""Acceptance suite: every exit criterion at its stated size and tolerance,
one pass/fail line per criterion (run with -s to see them live)."""

import math
import time
from contextlib import contextmanager
from fractions import Fraction as F

import numpy as np

import arithdyn as ad
from arithdyn.nonarchimedean import strata_intersection_set, strata_union_set

Z2 = ad.MonicPoly.make(2)
CHEB = ad.MonicPoly.from_text("z^2-2")


@contextmanager
def criterion(k: int, desc: str, budget: float = None):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {k:2d} FAIL - {desc}")
        raise
    dt = time.monotonic() - t0
    print(f"ACCEPTANCE {k:2d} PASS - {desc} ({dt:.1f}s)")
    if budget is not None:
        assert dt < budget, f"criterion {k} exceeded runtime budget {budget}s: {dt:.1f}s"


def closed_form_masses(d, j):
    return (F(d - j, d), F(j * (d - j), d * d), F(j * j, d * d))


def test_criterion_01_strata_exactness():
    with criterion(1, "strata closed forms equal exact stationary vectors (d <= 6)", 1.0):
        for d in range(2, 7):
            for j in range(1, d):
                assert ad.strata_pullback_simulate(d, j) == closed_form_masses(d, j)
                f = ad.MonicPoly.make(d, {j: F(1, 2), 0: F(1)})
                s = ad.strata(f, ad.PlaceQ.finite(2))
                assert s.masses == closed_form_masses(d, j)


def test_criterion_02_zero_energy_identity():
    with criterion(2, "alpha-weighted strata energy is exactly 0 (d <= 6)"):
        for d in range(2, 7):
            for j in range(1, d):
                for m in (1, 2, 7):
                    f = ad.MonicPoly.make(d, {j: F(1, 3**m), 0: F(1)})
                    s = ad.strata(f, ad.PlaceQ.finite(3))
                    assert s.zero_energy_residual() == 0


def test_criterion_03_capacity_table():
    with criterion(3, "capacity table V(S-union), V(S-intersection) symbolic (d <= 6)"):
        for d in range(2, 7):
            for j in range(1, d):
                for m in (1, 4):
                    f = ad.MonicPoly.make(d, {j: F(1, 5**m), 0: F(2)})
                    s = ad.strata(f, ad.PlaceQ.finite(5))
                    assert strata_union_set(s).capacity == F(m, 2 * (d - j))
                    assert strata_intersection_set(s).capacity == F(-m, j)


def test_criterion_04_moment_identity():
    with criterion(4, "moment identity on 50 random pairs at N = 10^5", 300.0):
        rng = np.random.default_rng(2024)
        N = 10**5
        tol = 5 / math.sqrt(N)
        for trial in range(50):
            d = int(rng.integers(2, 6))
            k = int(rng.integers(1, d + 1))
            g = ad.sample(d, 4, rng)
            new_c = ad.sample_rational(4, rng)
            while new_c == g.coeffs[d - k]:
                new_c = ad.sample_rational(4, rng)
            coeffs = dict(enumerate(g.coeffs))
            coeffs[d - k] = new_c
            f = ad.MonicPoly.make(d, coeffs)
            sf = ad.equilibrium_sample(f, N)
            sg = ad.equilibrium_sample(g, N)
            diff = ad.moment(sf, k) - ad.moment(sg, k)
            expect = -F(k, d) * (f.coeffs[d - k] - g.coeffs[d - k])
            assert abs(diff - complex(expect)) <= tol, (f, g, k)


def test_criterion_05_pairing_metric():
    with criterion(5, "self-pairing 0 +- 2 err; triangle inequality on 20 triples"):
        rng = np.random.default_rng(11)
        # self-pairing through the actual sampling machinery
        for f in (Z2, CHEB, ad.MonicPoly.from_text("z^3+(1/2)z+1")):
            ap = ad.arch_pairing(f, f, 4000)
            assert ap.value <= 2 * max(ap.err, 1e-4)
            rep = ad.global_pairing(f, f, 2000)
            assert rep.total_hi <= 2 * 1e-4
        done = 0
        while done < 20:
            polys = [ad.sample(2, 8, rng) for _ in range(3)]
            if len({p.to_text() for p in polys}) < 3:
                continue
            done += 1
            rep = {}
            for i in range(3):
                for j in range(i + 1, 3):
                    rep[(i, j)] = ad.global_pairing(polys[i], polys[j], 2000)
            for a, b, c in ((0, 1, 2), (1, 0, 2), (0, 2, 1)):
                lhs = math.sqrt(max(rep[tuple(sorted((a, c)))].total_lo, 0.0))
                rhs = math.sqrt(rep[tuple(sorted((a, b)))].total_hi) + math.sqrt(
                    rep[tuple(sorted((b, c)))].total_hi
                )
                assert lhs <= rhs + 1e-9


def test_criterion_06_chebyshev_benchmark():
    with criterion(6, "prep(z^2, z^2-2) = {0, 1, -1}; pairing in [0.30, 0.34]", 30.0):
        cert = ad.prep_intersect(Z2, CHEB)
        assert cert.verdict == "intersection"
        assert sorted(p.min_poly for p in cert.points) == [(-1, 1), (0, 1), (1, 1)]
        rng = np.random.default_rng(6)
        rep = ad.global_pairing(Z2, CHEB, 10**4, rng)
        mid = 0.5 * (rep.total_lo + rep.total_hi)
        assert 0.30 <= mid <= 0.34


def test_criterion_07_sandwich_and_holder():
    with criterion(7, "height sandwich on 100 pairs per (d, X); Hoelder on 10^4 pairs x 10 f"):
        rng = np.random.default_rng(77)
        for d in (2, 3, 4):
            for X in (10, 100):
                for _ in range(100):
                    f = ad.sample(d, X, rng, centered=True)
                    g = ad.sample(d, X, rng)
                    for rep in ad.sandwich_check(f, g, X, N=1000):
                        assert rep.satisfied, (f.to_text(), g.to_text(), rep)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            f = ad.sample(d, 10, rng)
            h = ad.holder_constants(f)
            R = math.exp(float(ad.local_profile(f, ad.PlaceQ.arch()).R))
            n = 10**4
            z1 = (rng.random(n) * 2 - 1) * (R + 1) + 1j * (rng.random(n) * 2 - 1) * (R + 1)
            z2 = (rng.random(n) * 2 - 1) * (R + 1) + 1j * (rng.random(n) * 2 - 1) * (R + 1)
            g1 = ad.green_arch_many(f, z1)
            g2 = ad.green_arch_many(f, z2)
            bound = 3 * d * h.M * np.abs(z1 - z2) ** h.alpha
            assert np.all(np.abs(g1 - g2) <= bound + 1e-7)


def test_criterion_08_constants():
    with criterion(8, "ln 2 and C within 1e-4; alpha identity to 1e-12"):
        c = ad.constants()
        assert abs(c["ln2"] - 0.69314) < 1e-4
        assert abs(c["C"] - 0.88532) < 1e-4
        assert c["alpha_identity_residual"] < 1e-12
        assert abs(c["riemann_lower"] - math.log(2) / 2) < 1e-9
        assert abs(c["riemann_upper"] - math.log(2) / 2) < 1e-9


def test_criterion_09_rational_census():
    with criterion(9, "rational census within 2% at X=100, 0.5% at X=1000"):
        zeta2 = math.pi**2 / 6
        for X, tol in ((100, 0.02), (1000, 0.005)):
            expected = 2 * X * X / zeta2
            assert abs(ad.count_rationals_upto(X) - expected) <= tol * expected


def test_criterion_10_statistical_trends():
    with criterion(10, "survey trends: prep means, case-1 frequency, ordinary ladder", 1800.0):
        means = []
        for X in (5, 10, 20):
            cfg = ad.SurveyConfig(d=6, X=X, samples=10**4, seed=0)
            res = ad.survey_average_prep(cfg)
            assert res.failures == 0
            means.append(res.mean)
        assert means[0] >= means[1] >= means[2]
        assert means[2] <= 0.05
        res = ad.survey_average_prep(ad.SurveyConfig(d=3, X=50, samples=10**4, seed=0))
        assert res.case_freq[1] >= 0.9
        ladder = ad.survey_ordinary_ladder(2, 10, 0.2, 4000, seed=0)
        props = [r.proportion for r in ladder]
        assert props[0] < props[1] < props[2]


def test_criterion_11_canonical_heights():
    with criterion(11, "power-map heights exact; certified preperiodic points below 1e-6"):
        rng = np.random.default_rng(111)
        for _ in range(100):
            d = int(rng.integers(2, 4))
            x = ad.sample_rational(50, rng)
            ch = ad.canonical_height(ad.MonicPoly.make(d), x)
            assert abs(ch.value - float(ad.weil_height(x))) <= 1e-12
        # every certified preperiodic point has canonical height <= 1e-6
        polys = [CHEB, Z2, ad.MonicPoly.from_text("z^2-1"),
                 ad.MonicPoly.from_text("z^2 - z"), ad.MonicPoly.from_text("z^2-3/4"),
                 ad.MonicPoly.from_text("z^3 - z")]
        polys += [ad.sample(2, 8, rng) for _ in range(6)]
        checked = 0
        for f in polys:
            for x in ad.rational_prep(f):
                assert ad.canonical_height(f, x).value <= 1e-6
                checked += 1
        assert checked > 10
        cert = ad.prep_intersect(Z2, CHEB)
        for pt in cert.points:
            x = F(-pt.min_poly[0], pt.min_poly[1])
            assert ad.canonical_height(Z2, x).value <= 1e-6
            assert ad.canonical_height(CHEB, x).value <= 1e-6
        # algebraic heights self-consistent across depths
        pt = ad.AlgebraicPoint((-2, 0, 0, 1))
        f = ad.MonicPoly.from_text("z^2+1")
        h6 = ad.canonical_height_alg(f, pt, 6)
        h7 = ad.canonical_height_alg(f, pt, 7)
        assert abs(h6.value - h7.value) <= h6.err + h7.err


def test_criterion_12_disjoint_certificate_soundness():
    with criterion(12, "500 certified-disjoint pairs produce zero matched clusters"):
        rng = np.random.default_rng(12)
        found = 0
        while found < 500:
            d = int(rng.integers(2, 4))
            f = ad.sample(d, 25, rng, centered=True)
            g = ad.sample(d, 25, rng)
            if g == f or ad.disjoint_certificate(f, g) is None:
                continue
            found += 1
            cert = ad.prep_intersect(
                f, g, m_cap=2, n_cap=1, use_certificate=False
            )
            assert cert.matched_clusters == 0, (f.to_text(), g.to_text())
