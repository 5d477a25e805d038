from fractions import Fraction as F

import numpy as np
import pytest

from arithdyn import (
    MonicPoly,
    PlaceQ,
    StrataHypothesisError,
    capacity_union,
    julia_shells,
    mass_outside_unit,
    newton_polygon,
    shells_certify_disjoint,
    strata,
    strata_pullback_simulate,
)
from arithdyn.nonarchimedean import strata_intersection_set, strata_union_set
from arithdyn.rationals import ord_p


def closed_form_masses(d, j):
    return (F(d - j, d), F(j * (d - j), d * d), F(j * j, d * d))


def test_newton_polygon_spec_example():
    # z^3 + z/p - c with |c|_v = 1: points (0,0), (1,-1), (3,0)
    np_ = newton_polygon([F(0), F(-1), None, F(0)], 5)
    assert np_.segments == ((F(-1), 1), (F(1, 2), 2))
    # one root of absolute value p^-1, two of absolute value p^(1/2)
    assert np_.root_abs_values() == [(F(-1), 1), (F(1, 2), 2)]


def test_newton_polygon_unit_roots_and_collinear():
    # z^2 - z: both roots have absolute value 1 (one segment, slope 0)
    np_ = newton_polygon([F(0), F(0), F(0)], 3)
    assert np_.segments == ((F(0), 2),)
    # collinear interior points collapse
    np2 = newton_polygon([F(2), F(1), F(0)], 3)
    assert np2.segments == ((F(-1), 2),)


def test_newton_polygon_split_oracle():
    # Brute force: polynomials with constructed rational roots; the polygon's
    # (slope, length) multiset must equal the roots' |.|_p data.
    rng = np.random.default_rng(5)
    p = 3
    for _ in range(100):
        d = int(rng.integers(2, 6))
        roots = []
        for _ in range(d):
            e = int(rng.integers(-3, 4))
            u = int(rng.choice([1, 2, 4, 5, 7, 8]))  # units mod 3
            sign = int(rng.choice([-1, 1]))
            roots.append(sign * u * F(p) ** e)
        coeffs = [F(1)]
        for r in roots:
            coeffs = [F(0)] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= r * coeffs[i + 1]
        vals = [ord_p(c, p) if c != 0 else None for c in coeffs]
        np_ = newton_polygon(vals, p)
        got = sorted(
            [s for s, l in np_.segments for _ in range(l)]
        )
        want = sorted(-F(ord_p(r, p)) for r in roots)
        assert got == want
        assert sum(l for _, l in np_.segments) + np_.zero_roots == d


def test_newton_polygon_preconditions():
    with pytest.raises(ValueError):
        newton_polygon([F(0), F(1)], 3)  # leading valuation nonzero


def test_strata_examples():
    # d=3, j=1, |a_1|_v = p
    f = MonicPoly.make(3, {1: F(1, 5), 0: F(1)})
    s = strata(f, PlaceQ.finite(5))
    assert s.masses == (F(2, 3), F(2, 9), F(1, 9))
    assert s.log_radii == (F(1, 2), F(-1, 2), F(-1))
    assert s.energies[0] == F(-1, 4)
    # d=2, j=1
    g = MonicPoly.make(2, {1: F(1, 3), 0: F(1)})
    s2 = strata(g, PlaceQ.finite(3))
    assert s2.masses == (F(1, 2), F(1, 4), F(1, 4))
    assert s2.log_radii[1] == 0  # r2 = 1
    # j=0 routes to the single-radius rule |zeta| = |a_0|^(1/d)
    h = MonicPoly.make(3, {0: F(1, 25)})
    s3 = strata(h, PlaceQ.finite(5))
    assert s3.j == 0 and s3.masses == (F(1), F(0), F(0))
    assert s3.log_radii[0] == F(2, 3)


def test_strata_hypothesis_errors():
    two_large = MonicPoly.make(2, {1: F(1, 2), 0: F(1, 2)})
    with pytest.raises(StrataHypothesisError, match="more than one"):
        strata(two_large, PlaceQ.finite(2))
    small_a0 = MonicPoly.make(3, {1: F(1, 5), 0: F(5)})
    with pytest.raises(StrataHypothesisError, match="a_0"):
        strata(small_a0, PlaceQ.finite(5))
    good = MonicPoly.make(2, {0: F(3)})
    with pytest.raises(StrataHypothesisError, match="good reduction"):
        strata(good, PlaceQ.finite(5))
    with pytest.raises(ValueError):
        strata(good, PlaceQ.arch())


def test_stationary_vector_examples():
    assert strata_pullback_simulate(3, 1) == (F(2, 3), F(2, 9), F(1, 9))
    assert strata_pullback_simulate(2, 1) == (F(1, 2), F(1, 4), F(1, 4))


def test_stationary_matches_closed_form_all_d():
    for d in range(2, 7):
        for j in range(1, d):
            assert strata_pullback_simulate(d, j) == closed_form_masses(d, j)


def test_zero_energy_identity_exact():
    for d in range(2, 7):
        for j in range(1, d):
            for m in (1, 2, 5):
                coeffs = {j: F(1, 2**m), 0: F(1)} if j > 0 else {}
                f = MonicPoly.make(d, coeffs)
                s = strata(f, PlaceQ.finite(2))
                assert s.zero_energy_residual() == 0


def test_capacity_union_examples():
    # degenerate: both energies at log s1
    assert capacity_union(F(3), F(3), F(3)) == F(3)
    # invalid energies above log s1
    with pytest.raises(ValueError):
        capacity_union(F(1), F(2), F(0))


def test_capacity_table_all_d():
    for d in range(2, 7):
        for j in range(1, d):
            for m in (1, 3):
                f = MonicPoly.make(d, {j: F(1, 2**m), 0: F(1)})
                s = strata(f, PlaceQ.finite(2))
                cup = strata_union_set(s)
                cap = strata_intersection_set(s)
                assert cup.capacity == F(m, 2 * (d - j))
                assert cap.capacity == -F(m, j)
                assert cup.log_radius == F(m * j, d * d - j * j)


def test_mass_outside_unit_examples():
    g = MonicPoly.from_text("z^2+(1/7)z+3")
    assert mass_outside_unit(g, PlaceQ.finite(7)) == 1
    only_const = MonicPoly.from_text("z^2+1/7")
    assert mass_outside_unit(only_const, PlaceQ.finite(7)) is None
    good = MonicPoly.from_text("z^2-2")
    assert mass_outside_unit(good, PlaceQ.finite(7)) is None


def test_julia_shells_and_certificates():
    v = PlaceQ.finite(2)
    good = MonicPoly.make(2)
    const = MonicPoly.from_text("z^2+1/2")
    const4 = MonicPoly.from_text("z^2+1/4")
    assert julia_shells(good, v) == ("ball", None)
    assert julia_shells(const, v) == ("shells", frozenset({F(1, 2)}))
    assert shells_certify_disjoint(julia_shells(good, v), julia_shells(const, v))
    # distinct shells certify; equal shells do not
    assert shells_certify_disjoint(julia_shells(const, v), julia_shells(const4, v))
    assert not shells_certify_disjoint(julia_shells(const, v), julia_shells(const, v))
    # one-large-j shape has radii inside the unit ball: no certificate vs good
    mid = MonicPoly.make(3, {1: F(1, 2), 0: F(1)})
    assert julia_shells(mid, v) == ("shells", frozenset({F(1, 2), F(-1, 2), F(-1)}))
    assert not shells_certify_disjoint(julia_shells(good, v), julia_shells(mid, v))
    # j = 0 at d = 3: the single radius |a_0|^(1/3)
    assert julia_shells(MonicPoly.make(3, {0: F(1, 4)}), v) == ("shells", frozenset({F(2, 3)}))
    # two large coefficients; j >= 1 with a_0 = 0; j >= 1 with p | a_0
    for shape in ({2: F(1, 2), 0: F(1, 2)}, {1: F(1, 2)}, {1: F(1, 2), 0: F(2)}):
        assert julia_shells(MonicPoly.make(3, shape), v) == ("unknown", None)
