import os
import subprocess
import sys
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from arithdyn import (
    MonicPoly,
    canonical_height,
    disjoint_certificate,
    is_rational_preperiodic,
    prep_intersect,
    preperiodic_complex,
    rational_prep,
    sample,
)
from arithdyn.preperiodic import CapExceeded

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


def test_preperiodic_complex_power_map():
    clusters = preperiodic_complex(Z2, 3, 2)
    for z, tags in clusters:
        assert abs(abs(z) - 1) < 1e-9 or abs(z) < 1e-9
        for m, n in tags:
            assert 0 <= n < m <= 3


def test_preperiodic_complex_chebyshev_m2_n1():
    clusters = preperiodic_complex(CHEB, 2, 1)
    pts = [z for z, tags in clusters if (2, 1) in tags]
    assert any(abs(z - 2) < 1e-9 for z in pts)
    assert any(abs(z + 1) < 1e-9 for z in pts)


def test_preperiodic_complex_count_bound():
    for m_cap, n_cap in ((2, 1), (3, 2)):
        clusters = preperiodic_complex(Z2, m_cap, n_cap)
        total_roots = sum(len(tags) for _, tags in clusters)
        bound = sum(
            2**m + 2**n for m in range(1, m_cap + 1) for n in range(0, min(n_cap, m - 1) + 1)
        )
        assert total_roots <= bound


def test_preperiodic_complex_degree_budget():
    with pytest.raises(CapExceeded):
        preperiodic_complex(MonicPoly.make(6), 6, 2)


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
    # sympy doubles the resident memory of a survey; only a common factor
    # that is not one rational point may load it.
    code = (
        "import sys, arithdyn as ad\n"
        "M = ad.MonicPoly.from_text\n"
        "c = ad.prep_intersect(M('z^2+1/3'), M('z^2+z+1/3'), use_certificate=False)\n"
        "assert c.verdict == 'intersection' and c.points == (), c\n"
        "c = ad.prep_intersect(M('z^3+(1/3)z'), M('z^3-2z^2-(2/5)z'), use_certificate=False)\n"
        "assert [p.min_poly for p in c.points] == [(0, 1)], c\n"
        "assert 'sympy' not in sys.modules\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)


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
    cert = prep_intersect(f, g, m_cap, n_cap, use_certificate=False, check_suspected_equal=False)
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



@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.lists(_coeff, min_size=1, max_size=2), _coeff, _coeff)
def test_prep_intersect_finds_shared_fixed_points(q, s, t):
    assume(s != t)
    f, g = _fixing(q + [1], [s, 1]), _fixing(q + [1], [t, 1])
    z = sympy.Symbol("z")
    found = sympy.Poly(1, z, domain="QQ")
    for mp in _min_polys(f, g, 3, 2):
        found *= sympy.Poly(mp[::-1], z, domain="QQ")
    shared = sympy.Poly([1] + q[::-1], z, domain="QQ").sqf_part()
    assert found.rem(shared).is_zero, (f.to_text(), g.to_text())


def test_certificate_implies_no_matches(rng):
    # Certified-disjoint pairs must produce zero matched clusters in search.
    checked = 0
    while checked < 25:
        f = sample(2, 25, rng, centered=True)
        g = sample(2, 25, rng)
        if g == f or disjoint_certificate(f, g) is None:
            continue
        cert = prep_intersect(f, g, m_cap=3, n_cap=2, use_certificate=False,
                              check_suspected_equal=False)
        assert cert.matched_clusters == 0, (f.to_text(), g.to_text())
        checked += 1


def test_rational_prep_examples():
    assert rational_prep(CHEB) == [F(-2), F(-1), F(0), F(1), F(2)]
    assert rational_prep(Z2) == [F(-1), F(0), F(1)]
    assert rational_prep(MonicPoly.from_text("z^2+1")) == []


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
