import math
from fractions import Fraction as F

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from arithdyn import (
    MonicPoly,
    canonical_height,
    disjoint_certificate,
    is_rational_preperiodic,
    prep_intersect,
    preperiodic,
    rational_prep,
    sample,
)
from arithdyn.preperiodic import (
    _differences,
    _differences_mod,
    _gcd_lanes,
    _iterates,
    _iterates_mod,
    _lift_quadratic,
    _pair_factors,
    _prime_avoiding,
    _quotient,
    _rational,
    _reduce,
    _roots_mod,
    _shared_points,
)
from conftest import heavy_modules_loaded

Z2 = MonicPoly.make(2)
CHEB = MonicPoly.from_text("z^2-2")
HALF = MonicPoly.from_text("z^2+1/2")


def test_disjoint_certificate_examples():
    assert disjoint_certificate(Z2, HALF).p == 2
    f3 = MonicPoly.from_text("z^2+1/3")
    assert disjoint_certificate(f3, MonicPoly.from_text("z^2+1/3")) is None
    assert disjoint_certificate(Z2, CHEB) is None
    # symmetrized: large constant on the first polynomial also fires
    assert disjoint_certificate(HALF, Z2).p == 2
    # three shells 2^1, 2^0, 2^-1 against the one shell 2^(1/2)
    f = MonicPoly.from_text("z^2+(1/2)z+1")
    assert disjoint_certificate(f, HALF).p == 2
    cert = prep_intersect(f, HALF)
    assert (cert.verdict, cert.witness_place) == ("disjoint", 2)


def test_prep_intersect_chebyshev_benchmark():
    cert = prep_intersect(Z2, CHEB)
    assert cert.verdict == "intersection"
    minpolys = sorted(p.min_poly for p in cert.points)
    assert minpolys == [(-1, 1), (0, 1), (1, 1)]  # roots 1, 0, -1
    assert all(p.hf == 0.0 and p.hg == 0.0 for p in cert.points)


def test_prep_intersect_disjoint_and_errors():
    cert = prep_intersect(Z2, HALF)
    assert cert.verdict == "disjoint" and cert.witness_place == 2
    with pytest.raises(ValueError):
        prep_intersect(Z2, Z2)
    with pytest.raises(ValueError):
        prep_intersect(Z2, CHEB, m_cap=2, n_cap=-1)


def test_prep_intersect_same_julia_flag():
    cert = prep_intersect(Z2, MonicPoly.make(4), m_cap=3, n_cap=2)
    assert cert.suspected_equal
    assert cert.matched_clusters > 8


@pytest.mark.parametrize(
    "f, g, verdict, flag",
    [
        # commuting pairs: power maps, Chebyshev maps, f and f o f
        ("z^2", "z^3", "intersection", True),
        ("z^2", "z^6", "intersection", True),
        ("z^2-2", "z^3-3z", "intersection", True),
        ("z^2-2", "z^6-6z^4+9z^2-2", "intersection", True),
        ("z^3+3z", "z^5+5z^3+5z", "intersection", True),  # both J = i[-2, 2]
        ("z^2+1", "z^4+2z^2+2", "intersection", True),
        # sharing points but not Julia sets
        ("z^2", "z^2-2", "intersection", False),
        ("z^2-z", "z^2-1", "intersection", False),
        ("z^2+1/4", "z^2-3/4", "intersection", False),
        # 36^3 exceeds the degree budget; the flag does not depend on the caps
        ("z^6", "z^36", "inconclusive", True),
    ],
)
def test_suspected_equal_iff_commuting(f, g, verdict, flag):
    cert = prep_intersect(MonicPoly.from_text(f), MonicPoly.from_text(g))
    assert (cert.verdict, cert.suspected_equal) == (verdict, flag)


def test_suspected_equal_iterates_only_to_the_caps(monkeypatch):
    caps = []
    iterates = preperiodic._iterates

    def spy(f, m_cap):
        caps.append(m_cap)
        return iterates(f, m_cap)

    monkeypatch.setattr(preperiodic, "_iterates", spy)
    assert prep_intersect(Z2, MonicPoly.make(4)).suspected_equal
    assert caps and max(caps) <= 3


@pytest.mark.parametrize(
    "f, g, min_polys",
    [
        # 0, +-1 and the golden pair z^2 - z - 1 (a real irrational orbit)
        ("z^2-z", "z^2-1", [(-1, -1, 1), (-1, 1), (0, 1), (1, 1)]),
        # +-1/2 (1/2 a double root of f - z) and +-i sqrt(3)/2
        ("z^2+1/4", "z^2-3/4", [(-1, 2), (1, 2), (3, 0, 4)]),
        # 0, +-1 and e^(+-i pi/3): 4 orbits, 5 points
        ("z^2", "z^2-z", [(-1, 1), (0, 1), (1, -1, 1), (1, 1)]),
        # z^2 + z sends the roots of z^2 + z + 1 to -1 -> 0, a double root of g^3 - g^2
        ("z^2+1", "z^2+z", [(1, 1, 1)]),
        ("z^3-2z-2", "z^3-(1/2)z^2-z+1", [(1, 1)]),
        ("z^3+z", "z^3-z^2+2z-1", [(1, 0, 1), (2, 0, 1)]),
    ],
)
def test_prep_intersect_exact_points(f, g, min_polys):
    cert = prep_intersect(
        MonicPoly.from_text(f), MonicPoly.from_text(g), m_cap=3, n_cap=2, use_certificate=False
    )
    assert cert.verdict == "intersection"
    assert sorted(p.min_poly for p in cert.points) == min_polys
    assert cert.matched_clusters == sum(len(mp) - 1 for mp in min_polys)
    assert all(p.hf == 0.0 and p.hg == 0.0 for p in cert.points)


def test_trivial_screen_does_not_import_sympy():
    # sympy doubles the resident memory of a survey.  Rational points come
    # from roots in GF(p) and quadratic orbits from the lifted gcd mod p;
    # only a common factor left after that may load it.
    code = (
        "import arithdyn as ad\n"
        "M = ad.MonicPoly.from_text\n"
        "c = ad.prep_intersect(M('z^2+1/3'), M('z^2+z+1/3'), use_certificate=False)\n"
        "assert c.verdict == 'intersection' and c.points == (), c\n"
        "c = ad.prep_intersect(M('z^3+(1/3)z'), M('z^3-2z^2-(2/5)z'), use_certificate=False)\n"
        "assert [p.min_poly for p in c.points] == [(0, 1)], c\n"
        "c = ad.prep_intersect(M('z^2+2z'), M('z^2-3z'), use_certificate=False)\n"
        "assert [p.min_poly for p in c.points] == [(0, 1), (1, 1)], c\n"
        "c = ad.prep_intersect(M('z^2-3/4'), M('z^2+(1/2)z-1/2'), use_certificate=False)\n"
        "assert [p.min_poly for p in c.points] == [(-1, 2), (1, 2), (3, 2)], c\n"
    )
    assert "sympy" not in heavy_modules_loaded(code)


def test_quadratic_orbits_do_not_import_sympy():
    # The min polys pinned in test_prep_intersect_exact_points; every
    # irrational orbit among them is quadratic.
    cases = [
        ("z^2", "z^2-z", [(-1, 1), (0, 1), (1, -1, 1), (1, 1)]),
        ("z^2-z", "z^2-1", [(-1, -1, 1), (-1, 1), (0, 1), (1, 1)]),
        ("z^2+1/4", "z^2-3/4", [(-1, 2), (1, 2), (3, 0, 4)]),
        ("z^2+1", "z^2+z", [(1, 1, 1)]),
        ("z^3+z", "z^3-z^2+2z-1", [(1, 0, 1), (2, 0, 1)]),
    ]
    code = "import arithdyn as ad\nM = ad.MonicPoly.from_text\n" + "".join(
        f"c = ad.prep_intersect(M({f!r}), M({g!r}), 3, 2, use_certificate=False)\n"
        f"assert sorted(p.min_poly for p in c.points) == {want!r}, c\n"
        for f, g, want in cases
    )
    assert "sympy" not in heavy_modules_loaded(code)


def test_quadratic_lift_out_of_range_falls_back_to_sympy(monkeypatch):
    # q = z^2 + 40000 z + 1 has a coefficient above floor(sqrt(p/2)) = 32767,
    # so rational reconstruction fails and sympy factors the gcd.
    lifts = []

    def spy(a, b, c, p):
        lifts.append(_lift_quadratic(a, b, c, p))
        return lifts[-1]

    monkeypatch.setattr(preperiodic, "_lift_quadratic", spy)
    q = [F(1), F(40000), F(1)]
    f, g = _fixing(q, [0, 1]), _fixing(q, [1, 1])
    cert = prep_intersect(f, g, 3, 2, use_certificate=False)
    assert sorted(p.min_poly for p in cert.points) == [(1, 40000, 1), (2, 40000, 1)]
    assert lifts and all(x is None for x in lifts)


@pytest.mark.parametrize("common, a, b, c, lifted", [
    # z^2 + z + 1 divides both: it is the gcd
    ([1, 1, 1], [-2, 1], [1, 3], [1, 1, 1], (1, 1, 1)),
    # c lifts to 2z^2 + 1, which divides neither a nor b
    ([1], [1, 0, 1], [2, 0, 1], [pow(2, -1, 2**31 - 1), 0, 1], None),
    # (z - 1)(z - 2) divides both, but its discriminant is a square
    ([2, -3, 1], [5, 1], [7, 1], [2, 2**31 - 4, 1], None),
])
def test_lift_quadratic_proves_or_declines(common, a, b, c, lifted):
    assert _lift_quadratic(_times(common, a), _times(common, b), c, 2**31 - 1) == lifted


_P = 2**31 - 1
_BOUND = math.isqrt(_P // 2)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(-_BOUND, _BOUND), st.integers(1, _BOUND))
def test_rational_reconstruction_round_trip(n, d):
    x = F(n, d)
    assert _rational(x.numerator * pow(x.denominator, -1, _P) % _P, _P) == x


@pytest.mark.parametrize("p", [101, 1009])
def test_rational_reconstruction_finds_the_one_in_range_or_none(p):
    # Every residue mod p, against all n/d with |n|, d <= floor(sqrt(p/2)).
    bound = math.isqrt(p // 2)
    small = {F(n, d) for n in range(-bound, bound + 1) for d in range(1, bound + 1)}
    want = {x.numerator * pow(x.denominator, -1, p) % p: x for x in small}
    assert len(want) == len(small)  # unique, since 2 bound^2 < p
    assert [_rational(r, p) for r in range(p)] == [want.get(r) for r in range(p)]
    assert len(want) < p  # the other residues give None


_coeff = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
_poly = st.integers(2, 3).flatmap(
    lambda d: st.lists(_coeff, min_size=d, max_size=d).map(lambda cs: MonicPoly(tuple(cs)))
)


def _fixing(q, h):
    """z + q h for ascending coefficient lists q and h, both monic."""
    out = [F(0)] * (len(q) + len(h) - 1)
    for i, a in enumerate(q):
        for j, b in enumerate(h):
            out[i + j] += a * b
    out[1] += 1
    return MonicPoly(tuple(out[:-1]))


# Random pairs rarely share a point; z + q h and z + q h' share the roots of q
# as fixed points, which may be irrational, complex or multiple roots.
_pairs = st.one_of(
    st.tuples(_poly, _poly),
    st.builds(
        lambda q, s, t: (_fixing(q + [1], [s, 1]), _fixing(q + [1], [t, 1])),
        st.lists(_coeff, min_size=1, max_size=2),
        _coeff,
        _coeff,
    ),
)


def _min_polys(f, g, m_cap, n_cap):
    cert = prep_intersect(f, g, m_cap, n_cap, use_certificate=False)
    return {p.min_poly for p in cert.points}


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_pairs)
def test_prep_intersect_symmetric(pair):
    f, g = pair
    if f != g:
        assert _min_polys(f, g, 3, 2) == _min_polys(g, f, 3, 2)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_pairs)
def test_prep_intersect_monotone_in_caps(pair):
    f, g = pair
    if f != g:
        assert _min_polys(f, g, 2, 1) <= _min_polys(f, g, 3, 2)



def _then(f, g):
    """f o g as a MonicPoly."""
    acc, G = [F(1)], list(g.coeffs) + [F(1)]
    for c in reversed(f.coeffs):
        acc = _times(acc, G)
        acc[0] += c
    return MonicPoly(tuple(acc[:-1]))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_poly, _poly)
def test_suspected_equal_symmetric_and_exact(f, g):
    def flag(a, b):
        return prep_intersect(a, b, m_cap=1, n_cap=0).suspected_equal

    assert flag(f, _then(f, f)) and flag(_then(f, f), f)
    if f != g:
        assert flag(f, g) == flag(g, f)
        if f.d == g.d:
            assert not flag(f, g)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.lists(_coeff, min_size=1, max_size=2), _coeff, _coeff)
def test_prep_intersect_finds_shared_fixed_points(q, s, t):
    assume(s != t)
    f, g = _fixing(q + [1], [s, 1]), _fixing(q + [1], [t, 1])
    assert disjoint_certificate(f, g) is None
    z = sympy.Symbol("z")
    found = sympy.Poly(1, z, domain="QQ")
    for mp in _min_polys(f, g, 3, 2):
        found *= sympy.Poly(mp[::-1], z, domain="QQ")
    shared = sympy.Poly([1] + q[::-1], z, domain="QQ").sqf_part()
    assert found.rem(shared).is_zero, (f.to_text(), g.to_text())


def _residues(a, p):
    a = [c % p for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def _euclid_mod(a, b, p):
    """Monic gcd over GF(p) by schoolbook Euclid, one coefficient at a time."""
    a, b = _residues(a, p), _residues(b, p)
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            q, s = a[-1] * inv % p, len(a) - len(b)
            a = _residues([c - q * b[i - s] if i >= s else c for i, c in enumerate(a)], p)
        a, b = b, a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


_ints = st.lists(st.integers(-(10**12), 10**12), min_size=1, max_size=9)
_small = st.lists(st.integers(-4, 4), min_size=1, max_size=4)
_lane = st.one_of(
    st.tuples(_ints, _ints),  # mostly unequal degrees
    st.builds(lambda a, c: (a, [c * x for x in a]), _ints, st.integers(-5, 5)),
    st.tuples(_ints, st.integers(-9, 9).map(lambda c: [c])),  # constant lanes
    st.builds(lambda q, a, b: (_times(q + [1], a), _times(q + [1], b)), _small, _small, _small),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(_lane, min_size=1, max_size=8), st.sampled_from([7, 101, 2**31 - 1]))
def test_gcd_lanes_matches_scalar_euclid(lanes, p):
    # Lanes of several degrees D share one call; both operands zero is undefined.
    lanes = [(a, b) for a, b in lanes if _residues(a, p) or _residues(b, p)]
    assert _gcd_lanes(lanes, p) == [_euclid_mod(a, b, p) for a, b in lanes]


def _shared_min_polys(pairs):
    """For each pair (A, B) of two maps' `_differences`, the integer minimal
    polynomials (ascending, primitive, positive leading coefficient) of the
    points preperiodic for both maps at the caps.

    They are the irreducible factors of gcd(prod A, prod B) over Q, i.e. of
    the pairwise gcd(a, b).  A pair coprime modulo a prime p dividing neither
    leading coefficient is coprime over Q (Brown, JACM 1971).  Every (a, b) of
    every pair is screened in one `_gcd_lanes` call modulo the first prime
    below 2^31 that divides no leading coefficient in the list.  This screens
    the exact differences themselves: it is the reference for `_shared_points`,
    which screens them modulo p before building them.
    """
    p = _prime_avoiding(math.prod(c[-1] for A, B in pairs for c in A + B))
    gcds = iter(_gcd_lanes([(a, b) for A, B in pairs for a in A for b in B], p))
    out = []
    for A, B in pairs:
        out.append(sorted(_pair_factors([(a, b, next(gcds)) for a in A for b in B], p)))
    return out


def test_prime_fallback_alone_and_in_a_block():
    # P divides the leading coefficients of f's iterate differences, so the
    # screen falls back to the next prime below it; modulo P the factor
    # P z + P + 1 of the shared point -(P + 1)/P is a unit, and the screen
    # would miss it.
    P = 2**31 - 1
    f = MonicPoly((F(0), 1 + F(1, P)))
    cases = [
        (Z2, (3, 2), [(0, 1), (1, 1)]),
        (MonicPoly((F(-1, P), F(1, P))), (2, 1), [(0, 1), (1, P), (P + 1, P)]),
    ]
    for g, caps, min_polys in cases:
        fg = (_differences(f, *caps), _differences(g, *caps))
        assert any(a[-1] % P == 0 for a in fg[0])
        cheb = (_differences(Z2, *caps), _differences(CHEB, *caps))
        (shared_cheb,) = _shared_min_polys([cheb])
        assert _shared_min_polys([fg]) == [min_polys]
        assert _shared_min_polys([cheb, fg, cheb]) == [shared_cheb, min_polys, shared_cheb]
        cert = prep_intersect(f, g, *caps, use_certificate=False)
        assert sorted(p.min_poly for p in cert.points) == min_polys


_height10 = st.builds(F, st.integers(-10, 10), st.integers(1, 10))
_maps_of_one_degree = st.integers(2, 6).flatmap(
    lambda d: st.lists(
        st.lists(_height10, min_size=d, max_size=d).map(lambda cs: MonicPoly(tuple(cs))),
        min_size=1,
        max_size=3,
    )
)
_caps = st.integers(1, 3).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, min(2, m - 1))))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_maps_of_one_degree, _caps, st.sampled_from([7, 101, 2**31 - 1]))
def test_modular_iterates_reduce_the_exact_ones(maps, caps, p):
    m_cap, n_cap = caps
    assume(all(c.denominator % p for f in maps for c in f.coeffs))
    R = np.array([_reduce(f, p) for f in maps], dtype=np.int64).T
    iterates, diffs = _iterates_mod(R, m_cap, p), _differences_mod(R, m_cap, n_cap, p)
    for j, f in enumerate(maps):
        for (P, E), got in zip(_iterates(f, m_cap), iterates):
            assert [c * pow(E, -1, p) % p for c in P] == got[:, j].tolist()
        for a, got in zip(_differences(f, m_cap, n_cap), diffs):
            unit = a[-1] % p
            assert unit and got[-1, j] == 1
            assert [c % p for c in a] == [unit * c % p for c in got[:, j].tolist()]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 100), min_size=1, max_size=6), st.lists(st.integers(0, 100), max_size=4))
def test_roots_mod_matches_brute_force(roots, cofactor):
    # A product of linear factors, some repeated, times a monic cofactor that
    # may add roots of its own or none.
    p = 101
    c = [1]
    for r in roots:
        c = [x % p for x in _times(c, [-r, 1])]
    c = [x % p for x in _times(c, cofactor + [1])]
    want = sorted(r for r in range(p) if sum(x * r**i for i, x in enumerate(c)) % p == 0)
    assert sorted(_roots_mod(c, p)) == want


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_ints, st.lists(st.integers(-9, 9), min_size=2, max_size=4), st.integers(-3, 3))
def test_quotient_divides_exactly_or_returns_none(q, g, shift):
    assume(g[-1] != 0 and q[-1] != 0 and math.gcd(*g) == 1)
    a = _times(q, g)
    assert _quotient(a, tuple(g)) == q
    # a + shift * z^k, k < deg g, leaves a nonzero remainder
    for k in range(len(g) - 1):
        if shift:
            b = list(a)
            b[k] += shift
            assert _quotient(b, tuple(g)) is None


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_pairs)
def test_modular_screen_matches_the_exact_one(pair):
    f, g = pair
    assume(f != g)
    for caps in ((2, 1), (3, 2)):
        exact = (_differences(f, *caps), _differences(g, *caps))
        assert _shared_points([(f, g)], *caps) == _shared_min_polys([exact])


def test_shared_points_double_rational_and_irrational_roots():
    # f = z + q (z + 1) and g = z + q (z - 1) with q = (z - 1/2)^2 (z + 3)
    # (z^2 - 2) share 1/2, a double root, -3 and +-sqrt(2) as fixed points.
    q = [F(1)]
    for factor in ([F(-1, 2), 1], [F(-1, 2), 1], [F(3), 1], [F(-2), 0, 1]):
        q = _times(q, factor)
    f, g = _fixing(q, [1, 1]), _fixing(q, [-1, 1])
    (found,) = _shared_points([(f, g)], 2, 1)
    assert {(-1, 2), (3, 1), (-2, 0, 1)} <= set(found)
    assert found == _shared_min_polys([(_differences(f, 2, 1), _differences(g, 2, 1))])[0]


def _preperiodic_product(f, m_cap, n_cap):
    """prod (f^m - f^n) over n < m <= m_cap, n <= n_cap, as a sympy Poly over Q."""
    z = sympy.Symbol("z")
    F_ = sympy.Poly([1] + [sympy.Rational(c.numerator, c.denominator) for c in f.coeffs[::-1]], z)
    iterates = [sympy.Poly(z, z, domain="QQ")]
    for _ in range(m_cap):
        iterates.append(F_.compose(iterates[-1]))
    prod = sympy.Poly(1, z, domain="QQ")
    for m in range(1, m_cap + 1):
        for n in range(min(n_cap, m - 1) + 1):
            prod *= iterates[m] - iterates[n]
    return prod


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_pairs)
def test_shared_points_match_the_sympy_gcd_of_the_products(pair):
    # The check of benchmark/reference.py, made without _pair_factors: the
    # min polys are irreducible and their product is the squarefree part of
    # the gcd over Q of the two maps' preperiodic products.
    f, g = pair
    assume(f != g)
    min_polys = _min_polys(f, g, 3, 2)
    z = sympy.Symbol("z")
    found = sympy.Poly(1, z, domain="QQ")
    for mp in min_polys:
        factor = sympy.Poly(mp[::-1], z, domain="QQ")
        assert factor.is_irreducible, mp
        found *= factor
    common = _preperiodic_product(f, 3, 2).gcd(_preperiodic_product(g, 3, 2))
    assert found.monic() == common.sqf_part().monic(), (f.to_text(), g.to_text())


def test_certificate_implies_no_matches(rng):
    # Certified-disjoint pairs must produce zero matched clusters in search.
    checked = 0
    while checked < 25:
        f = sample(2, 25, rng, centered=True)
        g = sample(2, 25, rng)
        if g == f or disjoint_certificate(f, g) is None:
            continue
        cert = prep_intersect(f, g, m_cap=3, n_cap=2, use_certificate=False)
        assert cert.matched_clusters == 0, (f.to_text(), g.to_text())
        checked += 1


def test_rational_prep_examples():
    assert rational_prep(CHEB) == [F(-2), F(-1), F(0), F(1), F(2)]
    assert rational_prep(Z2) == [F(-1), F(0), F(1)]
    assert rational_prep(MonicPoly.from_text("z^2+1")) == []


def test_rational_prep_refuses_a_denominator_bound_above_a_million():
    with pytest.raises(preperiodic.CapExceeded, match="1000003 > 10\\^6"):
        rational_prep(MonicPoly.from_text("z^2+(1/1000003)z"))


def test_rational_prep_forward_invariant(rng):
    for _ in range(10):
        f = sample(2, 6, rng)
        pts = set(rational_prep(f))
        for x in pts:
            assert f.eval_exact(x) in pts


def test_rational_prep_fractional():
    # z^2 - z: rational preperiodic points include 0, 1 and -? check exact walk
    f = MonicPoly.from_text("z^2 - z")
    pts = rational_prep(f)
    assert F(0) in pts and F(1) in pts
    # bad-place polynomial keeps denominators under control
    g = MonicPoly.from_text("z^2-3/4")
    pts2 = rational_prep(g)
    assert F(-1, 2) in pts2 and F(3, 2) in pts2  # -1/2 is fixed; 3/2 maps to it


def test_is_rational_preperiodic_matches_height(rng):
    for _ in range(10):
        f = sample(2, 8, rng)
        for _ in range(5):
            x = F(int(rng.integers(-4, 5)), int(rng.integers(1, 5)))
            pre = is_rational_preperiodic(f, x)
            hval = canonical_height(f, x).value
            if pre:
                assert hval <= 1e-6
            else:
                assert hval > 1e-9
