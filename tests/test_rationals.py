import math
from fractions import Fraction as F
from math import gcd

import numpy as np
import pytest
from hypothesis import given, strategies as st

from arithdyn import LogValue, PlaceQ, count_rationals_upto, factorize, weil_height
from arithdyn.rationals import is_prime, ord_p


def trial_division_factor(n):
    """Independent factorization oracle: plain trial division."""
    out = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_weil_height_examples():
    assert math.isclose(float(weil_height(F(3, 4))), math.log(4))
    assert float(weil_height(F(0))) == 0.0
    assert math.isclose(float(weil_height(F(7, 2))), math.log(7))


def test_factorize_matches_trial_division():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(2, 10**6))
        assert factorize(n) == tuple(sorted(trial_division_factor(n).items()))


def test_factorize_pollard_rho_path():
    p, q = 1000003, 1000033
    assert is_prime(p) and is_prime(q)
    assert factorize(p * q) == ((p, 1), (q, 1))


def test_factorize_records_a_prime_cofactor_without_seeding_an_rng(monkeypatch):
    import arithdyn.rationals as rationals

    seeds = []
    random_cls = rationals.random.Random

    def spy(seed):
        seeds.append(seed)
        return random_cls(seed)

    monkeypatch.setattr(rationals.random, "Random", spy)
    assert factorize(2 * 1009) == ((2, 1), (1009, 1))
    assert factorize(7 * 999983) == ((7, 1), (999983, 1))
    assert factorize(1000003) == ((1000003, 1),)
    assert seeds == []
    assert factorize(1000003 * 1000033) == ((1000003, 1), (1000033, 1))
    assert len(seeds) == 1


def test_factorization_invariants():
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))
    assert factorize(1) == ()
    with pytest.raises(ValueError):
        factorize(0)


def test_place_validation():
    with pytest.raises(ValueError):
        PlaceQ.finite(4)
    assert str(PlaceQ.arch()) == "inf"
    assert str(PlaceQ.finite(7)) == "7"


@given(st.integers(-10**6, 10**6).filter(bool), st.integers(1, 10**6))
def test_product_formula_property(a, b):
    # sum_v log|x|_v = 0: log|x| at infinity cancels the finite places exactly
    x = F(a, b)
    primes = trial_division_factor(abs(x.numerator)).keys() | trial_division_factor(x.denominator).keys()
    total = LogValue.from_rational(abs(x))
    for p in primes:
        total = total + LogValue.of_prime(p, -ord_p(x, p))
    assert total == LogValue.zero()


def test_count_rationals_small():
    assert count_rationals_upto(1) == 3
    assert count_rationals_upto(2) == 7  # 0, +-1, +-2, +-1/2
    assert count_rationals_upto(10) == 127


def test_count_rationals_asymptotic():
    zeta2 = math.pi**2 / 6
    for X, tol in ((100, 0.02), (300, 0.01), (1000, 0.005)):
        expected = 2 * X * X / zeta2
        assert abs(count_rationals_upto(X) - expected) <= tol * expected


def test_fraction_canonical_closure():
    rng = np.random.default_rng(4)
    for _ in range(500):
        x = F(int(rng.integers(-99, 100)), int(rng.integers(1, 100)))
        y = F(int(rng.integers(-99, 100)) or 1, int(rng.integers(1, 100)))
        for z in (x + y, x * y, x - y, x / y):
            assert gcd(abs(z.numerator), z.denominator) == 1
            assert z.denominator >= 1


def test_logvalue_arithmetic_and_compare():
    l2 = LogValue.of_prime(2)
    l8 = LogValue.from_rational(8)
    assert l8 == 3 * l2
    assert (l8 - 3 * l2).is_zero()
    a = LogValue.of_prime(2, F(1, 2))
    b = LogValue.of_prime(3, F(1, 3))
    assert math.isclose(float(LogValue.from_rational(F(7, 2))), math.log(3.5))
    j = (a + b).to_json()
    assert j["coeffs"] == {"2": "1/2", "3": "1/3"}
    assert math.isclose(j["float"], 0.5 * math.log(2) + math.log(3) / 3)


def test_logvalue_near_tie_exact_compare():
    # log(1024)/10 vs log(2): exactly equal, must not be decided by float noise
    a = LogValue.from_rational(1024) * F(1, 10)
    b = LogValue.of_prime(2)
    assert a == b and hash(a) == hash(b)
    assert a != b + LogValue.of_prime(3, F(1, 10**30))


def test_ord_p():
    assert ord_p(F(12), 2) == 2
    assert ord_p(F(5, 8), 2) == -3
    with pytest.raises(ValueError):
        ord_p(F(0), 3)


_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=12)
_coeff_dicts = st.dictionaries(st.sampled_from((2, 3, 5, 7, 11)), _fractions, max_size=5)


@st.composite
def _cancelling_pairs(draw):
    """Two coefficient dicts, the second negating some of the first's entries."""
    a, b = draw(_coeff_dicts), draw(_coeff_dicts)
    for p in draw(st.lists(st.sampled_from(sorted(a)), unique=True)) if a else ():
        b[p] = -a[p]
    return a, b


def _plain_sum(*terms):
    """sum of k * coeffs over (k, coeffs) terms in a plain dict, zeros dropped."""
    out = {}
    for k, coeffs in terms:
        for p, q in coeffs.items():
            out[p] = out.get(p, F(0)) + k * q
    return {p: q for p, q in out.items() if q != 0}


@given(_cancelling_pairs(), _fractions)
def test_logvalue_arithmetic_matches_a_plain_dict_sum(pair, k):
    a_c, b_c = pair
    a, b = LogValue(a_c), LogValue(b_c)
    for got, want in (
        (a + b, _plain_sum((1, a_c), (1, b_c))),
        (a - b, _plain_sum((1, a_c), (-1, b_c))),
        (-a, _plain_sum((-1, a_c))),
        (a * k, _plain_sum((k, a_c))),
    ):
        assert got.coeffs == want
        assert all(type(q) is F and q != 0 for q in got.coeffs.values())
    zero = a + (-a)
    assert zero.is_zero() and zero == LogValue.zero()
    assert hash(zero) == hash(LogValue.zero())
