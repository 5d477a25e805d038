import contextlib
import itertools
import math
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from arithdyn import archimedean
from arithdyn import (
    MonicPoly,
    PlaceQ,
    arch_pairing,
    equilibrium_sample,
    global_pairing,
    green_arch,
    green_arch_many,
    holder_constants,
    local_profile,
    moment,
    sample,
)
from arithdyn.archimedean import RootFindingError, _preimages_batch

Z2 = MonicPoly.make(2)
CHEB = MonicPoly.from_text("z^2-2")


def cheb_green(z: complex) -> float:
    """Closed form for z^2 - 2 via the conjugacy z = w + 1/w: G = log|w|."""
    w = (z + np.sqrt(complex(z * z - 4))) / 2
    if abs(w) < 1:
        w = (z - np.sqrt(complex(z * z - 4))) / 2
    return math.log(abs(w))


def test_green_power_map():
    assert green_arch(Z2, 4 + 0j) == pytest.approx(math.log(4), abs=1e-12)
    assert green_arch(Z2, 0.5 + 0j) == 0.0


def test_green_chebyshev_oracle():
    for z in (3 + 0j, 5 + 0j, -4 + 0j, 2.5 + 1.5j, 0.1 + 2.2j):
        assert green_arch(CHEB, z, 1e-12) == pytest.approx(cheb_green(z), abs=1e-9)
    # fixed point is in the filled Julia set
    assert green_arch(CHEB, 2 + 0j) <= 1e-12
    assert green_arch(CHEB, -1 + 0j) <= 1e-12


def test_green_tol_validation():
    with pytest.raises(ValueError):
        green_arch(CHEB, 1j, tol=0.0)


def test_green_functional_equation(rng):
    for _ in range(5):
        f = sample(int(rng.integers(2, 5)), 4, rng)
        tol = 1e-10
        zs = rng.normal(size=20) + 1j * rng.normal(size=20)
        for z in zs:
            g1 = green_arch(f, complex(f(z)), tol)
            g2 = green_arch(f, complex(z), tol)
            assert abs(g1 - f.d * g2) <= tol * (1 + f.d) + 1e-9


def test_green_asymptotics_and_sign(rng):
    for _ in range(5):
        f = sample(int(rng.integers(2, 5)), 6, rng)
        R = math.exp(float(local_profile(f, PlaceQ.arch()).R))
        M = max(1.0, max(abs(float(c)) for c in f.coeffs))
        zs = 10 * R * np.exp(2j * np.pi * rng.random(10))
        vals = green_arch_many(f, zs)
        assert np.all(vals >= 0)
        assert np.all(np.abs(vals - np.log(np.abs(zs))) <= 1.0 * M / R + 1e-6)


def test_holder_constants_examples():
    h = holder_constants(Z2)
    assert h.M == pytest.approx(math.log(7))
    assert h.A == pytest.approx(12.0)
    assert h.alpha == pytest.approx(math.log(2) / math.log(12))
    h1 = holder_constants(MonicPoly.from_text("z^2+1"))
    assert h1.M == pytest.approx(math.log(7)) and h1.A == pytest.approx(12.0)
    # A grows like (R+1)^(d-1)
    big = holder_constants(MonicPoly.make(2, {0: F(100)}))
    assert big.A > h.A and 0 < big.alpha < h.alpha <= 1


def test_holder_inequality(rng):
    for _ in range(3):
        f = sample(int(rng.integers(2, 4)), 5, rng)
        h = holder_constants(f)
        R = math.exp(float(local_profile(f, PlaceQ.arch()).R))
        n = 2000
        z1 = (rng.random(n) * 2 - 1) * (R + 1) + 1j * (rng.random(n) * 2 - 1) * (R + 1)
        z2 = (rng.random(n) * 2 - 1) * (R + 1) + 1j * (rng.random(n) * 2 - 1) * (R + 1)
        g1 = green_arch_many(f, z1)
        g2 = green_arch_many(f, z2)
        bound = 3 * f.d * h.M * np.abs(z1 - z2) ** h.alpha
        assert np.all(np.abs(g1 - g2) <= bound + 1e-7)


def _deep_green(f: MonicPoly, zs: np.ndarray, steps: int) -> np.ndarray:
    """G_f by plain iteration: d^-n log|z_n| at the first n with
    |z_n| > 10^(250/d), and 0 for a point still below that after all the
    given steps (green_arch_many iterated bounded orbits for
    ceil(200 log d) + 60 steps before it stopped at its tolerance depth)."""
    d, cap = f.d, 10.0 ** (250.0 / f.d)
    z = np.array(zs, dtype=complex)
    out = np.zeros(z.shape)
    active = np.ones(z.shape, dtype=bool)
    for n in range(1, steps + 1):
        z[active] = np.polyval(f.float_coeffs(), z[active])
        done = active & (np.abs(z) > cap)
        out[done] = np.log(np.abs(z[done])) * float(d) ** -n
        active &= ~done
        z[~active] = 0.0
    return out


def _in_disc(rng, radius: float, n: int) -> np.ndarray:
    return radius * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))


def _pullback(f: MonicPoly, w: np.ndarray, levels: int) -> np.ndarray:
    """w and one solution of f^k(z) = w for each k <= levels: G(z) = d^-k G(w),
    and the orbit of z stays inside |w| for k steps."""
    pts = [np.asarray(w, dtype=complex)]
    for _ in range(levels):
        pts.append(_preimages_batch(f, pts[-1])[:, 0])
    return np.concatenate(pts)


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_green_many_matches_deep_iteration(rng, tol):
    """Stopping at the tolerance depth n_tol loses at most tol: on the disc
    |z| <= T = max(R, 2M), M = max(1, max |a_i|), which contains the escape
    radius R and can be much wider (z^2 + 100 has R = 30 and T = 200), so
    G reaches about log T; on points whose orbits stay just inside T for k
    steps, where G is largest for a given depth; on preimage-tree points,
    which lie near the Julia set; and on slow escapers, whose orbits leave
    |z| <= R long after n_tol."""
    cases = [(MonicPoly.from_text("z^2+100"), _in_disc(rng, 200.0, 400))]
    for d in range(2, 7):
        for X in (2, 50):
            f = sample(d, X, rng)
            M = max([1.0] + [abs(float(c)) for c in f.coeffs])
            T = max(archimedean._arch_params(f), 2.0 * M)
            edge = 0.999 * T * np.exp(2j * np.pi * rng.random(4))
            cases.append((f, np.concatenate([_in_disc(rng, T, 400), _pullback(f, edge, 50)])))
    f, g = MonicPoly.from_text("z^3-(1/2)z+1"), MonicPoly.from_text("z^2-z-(3/4)")
    tree = np.array([archimedean._arch_params(f) + 1.0], dtype=complex)
    for _ in range(5):
        tree = _preimages_batch(f, tree).reshape(-1)
    cases += [(f, tree), (g, tree)]
    for eps in (1e-2, 1e-3, 1e-4):  # 0 escapes after about pi / sqrt(eps) steps
        c = MonicPoly.make(2, {0: F(1, 4) + F(eps).limit_denominator(10**6)})
        cases.append((c, np.array([0, 0.1, 0.5j, -0.5, 0.49], dtype=complex)))
    for f, zs in cases:
        got = green_arch_many(f, zs, tol)
        assert got.shape == zs.shape and np.all(got >= 0)
        assert np.max(np.abs(got - _deep_green(f, zs, 1000))) <= tol


def test_green_many_power_map_matches_deep_iteration(rng):
    for d in (2, 3, 5):
        f = MonicPoly.make(d)
        zs = np.concatenate([_in_disc(rng, 3.0, 200), np.exp(2j * np.pi * rng.random(20))])
        got = green_arch_many(f, zs.reshape(11, 20))
        assert got.shape == (11, 20)
        assert np.max(np.abs(got.ravel() - _deep_green(f, zs, 1000))) <= 1e-12


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(2, 7).flatmap(
        lambda d: st.lists(st.fractions(-100, 100, max_denominator=30), min_size=d, max_size=d)
    ),
    st.fractions(0, 3, max_denominator=50),
    st.booleans(),
)
def test_escape_radius_bounds(coeffs, scale, negative):
    """The bound behind green_arch_many: with R the profile's escape radius,
    |f(z)| < 1.5 max(|z|, R)^d, and |f(z)| >= |z|^d / 2 >= 1.5 |z| for |z| > R,
    on rational z.  |z| > R = 3 max(1, |a_i|^(1/(d-i))) is decided exactly:
    |z| > 3 and (|z|/3)^(d-i) > |a_i| for every i."""
    d = len(coeffs)
    f = MonicPoly.make(d, dict(enumerate(coeffs)))
    R = archimedean._arch_params(f)
    z = scale * F(R).limit_denominator(100) * (-1 if negative else 1)
    fz = z**d + sum(c * z**i for i, c in enumerate(coeffs))
    assert float(abs(fz)) < 1.5 * max(float(abs(z)), R) ** d * (1 + 1e-12)
    if abs(z) > 3 and all((abs(z) / 3) ** (d - i) > abs(c) for i, c in enumerate(coeffs)):
        assert abs(fz) >= abs(z) ** d / 2 >= F(3, 2) * abs(z)


def test_equilibrium_sample_unit_circle():
    s = equilibrium_sample(Z2, 4000)
    assert s.points.shape == (2**12,)
    assert np.max(np.abs(np.abs(s.points) - 1.0)) < 1e-6
    assert abs(np.mean(s.points)) <= 1e-12


def test_equilibrium_sample_arcsine():
    s = equilibrium_sample(CHEB, 10**4)
    N = 2**14
    assert s.points.shape == (N,)
    assert np.max(np.abs(s.points.imag)) < 1e-6
    x = np.sort(s.points.real)
    assert x[0] >= -2 - 1e-9 and x[-1] <= 2 + 1e-9
    cdf = 0.5 + np.arcsin(np.clip(x / 2, -1, 1)) / np.pi
    emp = np.arange(1, N + 1) / N
    ks = float(np.max(np.abs(cdf - emp)))
    assert ks <= 0.02


def test_equilibrium_sample_inside_R(rng):
    for _ in range(5):
        f = sample(int(rng.integers(2, 5)), 8, rng)
        R = math.exp(float(local_profile(f, PlaceQ.arch()).R))
        s = equilibrium_sample(f, 500)
        assert s.points.shape == ({2: 512, 3: 729, 4: 1024}[f.d],)
        assert np.all(np.abs(s.points) <= R + 1e-6)


def test_sample_csv_export(tmp_path):
    s = equilibrium_sample(Z2, 100)
    path = tmp_path / "pts.csv"
    s.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "re,im" and len(lines) == 2**7 + 1


def test_moment_examples():
    N = 20000
    s = equilibrium_sample(Z2, N)
    assert abs(moment(s, 1)) <= 3 / math.sqrt(N)
    # f = z^2 + bz vs g = z^2, k=1: difference -> -(1/2) b
    b = F(3, 2)
    fb = MonicPoly.make(2, {1: b})
    sb = equilibrium_sample(fb, N)
    assert abs((moment(sb, 1) - moment(s, 1)) - (-float(b) / 2)) <= 5 / math.sqrt(N)
    # f = z^3 + c vs g = z^3, k=3: difference -> -c
    c = F(-7, 4)
    f3 = MonicPoly.make(3, {0: c})
    g3 = MonicPoly.make(3)
    s3 = equilibrium_sample(f3, N)
    t3 = equilibrium_sample(g3, N)
    assert abs((moment(s3, 3) - moment(t3, 3)) - (-float(c))) <= 5 / math.sqrt(N)
    with pytest.raises(ValueError):
        moment(s3, 4)


_small_rationals = st.builds(F, st.integers(-4, 4), st.integers(1, 4))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(2, 5).flatmap(
        lambda d: st.tuples(st.lists(_small_rationals, min_size=d, max_size=d), st.integers(1, d), _small_rationals)
    )
)
def test_equilibrium_sample_moment_differences_are_exact(case):
    """A tree level holds every moment of order k <= d exactly, so two maps
    differing only in a_{d-k} differ in their k-th sample moments by
    exactly -(k/d)(a_{d-k} - b_{d-k}), up to rounding; and the sample is
    deterministic."""
    coeffs, k, b = case
    d = len(coeffs)
    f = MonicPoly(tuple(coeffs))
    g = MonicPoly(tuple(coeffs[: d - k] + [b] + coeffs[d - k + 1 :]))
    sf, sg = equilibrium_sample(f, 1000), equilibrium_sample(g, 1000)
    delta = coeffs[d - k] - b
    diff = moment(sf, k) - moment(sg, k)
    assert abs(diff - complex(-F(k, d) * delta)) <= 1e-9 * (1 + abs(delta))
    assert np.array_equal(equilibrium_sample(f, 1000).points, sf.points)


def test_arch_pairing_self_and_oracle():
    ap = arch_pairing(CHEB, CHEB, 4000)
    assert ap.value >= 0
    assert ap.value <= 3 * max(ap.err, 1e-4)
    ap2 = arch_pairing(Z2, CHEB, 10**4)
    from scipy.integrate import quad

    oracle = (2 / math.pi) * quad(lambda t: math.log(2 * math.cos(t)), 0, math.pi / 3)[0]
    assert abs(ap2.value - oracle) <= max(4 * ap2.err, 0.01)
    # one-sided estimates agree within combined errors
    assert abs(ap2.side_fg - ap2.side_gf) <= 4 * (ap2.err_fg + ap2.err_gf) + 0.01


def test_arch_pairing_upper_bound(rng):
    for _ in range(5):
        d = int(rng.integers(2, 4))
        f = sample(d, 6, rng)
        g = sample(d, 6, rng)
        ap = arch_pairing(f, g, 2000)
        mf = float(local_profile(f, PlaceQ.arch()).M)
        mg = float(local_profile(g, PlaceQ.arch()).M)
        assert ap.value <= (mf + mg) / d + 2 + 0.05


def test_arch_pairing_requires_min_samples():
    with pytest.raises(ValueError):
        arch_pairing(Z2, CHEB, 100)


# --- preimage-tree quadrature -----------------------------------------------


def test_arch_pairing_is_deterministic_and_symmetric():
    f = MonicPoly.from_text("z^3+(1/2)z+1")
    g = MonicPoly.from_text("z^3-2z")
    ap = arch_pairing(f, g, 2000)
    assert arch_pairing(f, g, 2000) == ap
    # tol is keyword-only: a generator passed where rng used to be is refused
    with pytest.raises(TypeError):
        arch_pairing(f, g, 2000, np.random.default_rng(1))
    swapped = arch_pairing(g, f, 2000)
    assert swapped.value == ap.value and swapped.err == ap.err
    assert (swapped.side_fg, swapped.side_gf) == (ap.side_gf, ap.side_fg)


_pairing_cases = st.tuples(st.integers(2, 5), st.sampled_from((2, 10, 100))).flatmap(
    lambda dX: st.lists(
        st.lists(st.builds(F, st.integers(-dX[1], dX[1]), st.integers(1, dX[1])), min_size=dX[0], max_size=dX[0]),
        min_size=2,
        max_size=2,
        unique_by=tuple,
    ).map(lambda cs: (MonicPoly(tuple(cs[0])), MonicPoly(tuple(cs[1]))))
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_pairing_cases)
# E_k of one side moves 1e-5 from level 5 to 6 after only 1e-5 from 4 to 5
@example((MonicPoly.from_text("z^5+(1/2)z^4-z^3-z^2+z-1"), MonicPoly.from_text("z^5+(1/2)z^4-2z^3-z+1")))
def test_arch_pairing_sides_agree_within_errors(pair):
    # int G_f d(mu_g) = int G_g d(mu_f), so the two trees estimate one number
    ap = arch_pairing(*pair, 1000)
    assert ap.value >= 0
    assert abs(ap.side_fg - ap.side_gf) <= ap.err_fg + ap.err_gf


# (f, g, N): the Chebyshev pair converges geometrically, at rate 1/d per
# tree level; the disconnected Julia set of z^2 + 1/2 much faster.
_REGIMES = [
    ("z^2", "z^2-2", 1000),
    ("z^2", "z^2-2", 4000),
    ("z^2+1/2", "z^2+2z+1", 1000),
    ("z^2+1/2", "z^2+2z+1", 4000),
]


@pytest.mark.parametrize("f, g, N", _REGIMES)
def test_global_pairing_interval_holds_deeper_tree(f, g, N):
    f, g = MonicPoly.from_text(f), MonicPoly.from_text(g)
    entry = next(e for e in global_pairing(f, g, N).entries if e.place == "inf")
    deep = arch_pairing(f, g, 2**18).value
    assert entry.lo <= deep <= entry.hi
    if f == Z2:
        from scipy.integrate import quad

        exact = (2 / math.pi) * quad(lambda t: math.log(2 * math.cos(t)), 0, math.pi / 3)[0]
        assert abs(deep - exact) <= 1e-6
        assert entry.lo <= exact <= entry.hi


# --- the preimage solve of inverse iteration --------------------------------


def _companion_roots(f: MonicPoly, t: np.ndarray) -> np.ndarray:
    """Roots of f(w) = t per target from companion-matrix eigenvalues."""
    d = f.d
    comp = np.zeros((t.shape[0], d, d), dtype=complex)
    comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    comp[:, :, d - 1] = [-complex(c) for c in f.coeffs]
    comp[:, 0, d - 1] += t
    return np.linalg.eigvals(comp)


@contextlib.contextmanager
def _closed_forms_only():
    """Fail if the solve falls back to companion-matrix eigenvalues."""
    with mock.patch.object(np.linalg, "eigvals", side_effect=AssertionError("fell back to eigvals")):
        yield


def _relative_residual(f: MonicPoly, roots: np.ndarray, t: np.ndarray) -> np.ndarray:
    return np.abs(f(roots) - t[:, None]) / (1 + np.abs(t[:, None]) + np.abs(roots) ** f.d)


def _multiset_distance(a: np.ndarray, b: np.ndarray) -> float:
    """max |a_i - b_pi(i)| minimized over permutations pi, per row, then max."""
    perms = np.array(list(itertools.permutations(range(a.shape[1]))))
    return float(np.max(np.min(np.max(np.abs(a[:, None, :] - b[:, perms]), axis=2), axis=1)))


_small_coeff = st.builds(F, st.integers(-12, 12), st.integers(1, 6))


def _solver_cases_of_degree(lo: int, hi: int):
    return st.integers(lo, hi).flatmap(
        lambda d: st.tuples(
            st.lists(_small_coeff, min_size=d, max_size=d).map(lambda cs: MonicPoly(tuple(cs))),
            st.lists(st.complex_numbers(max_magnitude=40, allow_nan=False, allow_infinity=False), min_size=1, max_size=4),
        )
    )


_solver_cases = _solver_cases_of_degree(3, 4)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_solver_cases)
def test_preimages_closed_forms_match_companion_eigvals(case):
    f, targets = case
    t = np.array(targets, dtype=complex)
    ref = _companion_roots(f, t)
    with _closed_forms_only():
        roots = _preimages_batch(f, t)
    scale = 1.0 + np.max(np.abs(ref))
    # away from multiple roots, where both solvers are good to ~eps / separation
    gaps = np.abs(ref[:, :, None] - ref[:, None, :]) + np.eye(f.d) * scale
    assume(np.min(gaps) >= 1e-3 * scale)
    assert _multiset_distance(roots, ref) <= 1e-9 * scale
    assert np.allclose(roots.sum(axis=1), -float(f.coeffs[-1]), rtol=0, atol=1e-10 * scale)
    assert np.max(_relative_residual(f, roots, t)) <= 2e-15


_EDGE_CASES = [
    # (f, target, the roots of f(w) = target)
    ("z^3", 0, [0, 0, 0]),  # Cardano's C = 0
    ("z^4", 0, [0, 0, 0, 0]),
    ("z^3+3z^2+3z+5", 4, [-1, -1, -1]),  # (z+1)^3 + 4 at 4: depressed p = q = 0
    ("z^3+3z^2+3z+5", 12, [1, -1 + 2 * np.exp(2j * np.pi / 3), -1 + 2 * np.exp(-2j * np.pi / 3)]),  # p = 0
    ("z^4-5z^2+4", 0, [1, -1, 2, -2]),  # biquadratic: depressed q = 0
    ("z^4-5z^2+4", 4, [0, 0, math.sqrt(5), -math.sqrt(5)]),
    ("z^4-2z^2", -1, [1, 1, -1, -1]),  # biquadratic at its critical values
    ("z^3-3z", 2, [-1, -1, 2]),  # f(c) at f'(c) = 0: double roots
    ("z^3-3z", -2, [1, 1, -2]),
    ("z^3+3z^2", 0, [0, 0, -3]),
    ("z^3+3z^2", 4, [-2, -2, 1]),
    ("z^4+4z", -3, [-1, -1, 1 + 1j * math.sqrt(2), 1 - 1j * math.sqrt(2)]),  # q = 4
    ("z^4-4z^3+6z^2-4z+1", 0, [1, 1, 1, 1]),  # (z-1)^4
]


@pytest.mark.parametrize("text,target,expected", _EDGE_CASES)
def test_preimages_closed_form_edge_cases(text, target, expected):
    f = MonicPoly.from_text(text)
    t = np.array([target], dtype=complex)
    with _closed_forms_only():
        roots = _preimages_batch(f, t)
    exp = np.array([expected], dtype=complex)
    k = max(expected.count(r) for r in expected)  # a k-fold root is good to ~eps^(1/k)
    tol = max(1e-12, 10 * np.finfo(float).eps ** (1 / k))
    assert _multiset_distance(roots, exp) <= tol
    assert _multiset_distance(roots, _companion_roots(f, t)) <= tol
    assert abs(roots.sum() + float(f.coeffs[-1])) <= 1e-12


@pytest.mark.parametrize(
    "text",
    [
        "z^3-3z^2-6z",
        "z^3+(3/2)z^2-6z+2",
        "z^4+2z^3+z+3",
        "z^4-5z^3+(2/3)z^2+4z-(4/3)",
        "z^4+(4/3)z^3-(5/3)z^2-2z+1",
        "z^4-5z^2+(1/1000000000)z+4",  # q near 0: the resolvent has a root near 0
    ],
)
def test_preimages_at_critical_values(text):
    """Targets at critical values give double roots, where f'(w) is rounding
    noise: an unchecked Newton step dividing by it can jump off the root."""
    f = MonicPoly.from_text(text)
    t = f(np.roots(np.polyder(f.float_coeffs())))
    with _closed_forms_only():
        roots = _preimages_batch(f, t)
    assert _multiset_distance(roots, _companion_roots(f, t)) <= 1e-6
    assert np.max(_relative_residual(f, roots, t)) <= 2e-15


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_solver_cases_of_degree(5, 7))
def test_preimages_aberth_matches_companion_eigvals(case):
    """The Aberth solve at d >= 5, eigvals patched to fail, with the
    tolerances of the d = 3, 4 property but for the residual: the roots are
    not polished in f's own coordinates, and those of the depressed
    polynomial, whose coefficients the Taylor shift can make 100 times
    larger than f's, reach relative residuals of about 2e-12 (eigvals
    itself reaches 4e-14 on the same rows)."""
    f, targets = case
    t = np.array(targets, dtype=complex)
    ref = _companion_roots(f, t)
    scale = 1.0 + np.max(np.abs(ref))
    gaps = np.abs(ref[:, :, None] - ref[:, None, :]) + np.eye(f.d) * scale
    assume(np.min(gaps) >= 1e-3 * scale)
    with _closed_forms_only():
        roots = _preimages_batch(f, t)
    assert _multiset_distance(roots, ref) <= 1e-9 * scale
    assert np.allclose(roots.sum(axis=1), -float(f.coeffs[-1]), rtol=0, atol=1e-10 * scale)
    assert np.max(_relative_residual(f, roots, t)) <= 1e-10


@pytest.mark.parametrize("text", ["z^5-5z^3+4z", "z^6-3z^2+1", "z^7-z", "z^5-(5/7)z^3-(4/3)z^2+10z+(9/4)"])
def test_preimages_at_critical_values_past_closed_forms(text):
    """At d >= 5 a critical-value target gives a double root, where the
    Aberth steps converge only linearly and the two Weierstrass discs
    overlap unless rounding has split the root; such rows (z^6 - 3z^2 + 1
    at f(0) = 1) are solved again by eigvals."""
    f = MonicPoly.from_text(text)
    t = f(np.roots(np.polyder(f.float_coeffs())))
    roots = _preimages_batch(f, t)
    assert _multiset_distance(roots, _companion_roots(f, t)) <= 1e-6
    assert np.allclose(roots.sum(axis=1), -float(f.coeffs[-1]), rtol=0, atol=1e-6)
    assert np.max(_relative_residual(f, roots, t)) <= 1e-10


def test_preimages_disc_check_catches_a_duplicated_root(monkeypatch):
    """A row of Aberth roots that repeats one root, and so loses another,
    passes the residual check; the repeated root's Weierstrass discs are
    unbounded, so the row is solved again by eigenvalues."""
    f = MonicPoly.from_text("z^5-(5/7)z^3-(4/3)z^2+10z+(9/4)")
    t = np.linspace(-1, 1, 7).astype(complex)
    aberth, companion = archimedean._aberth, archimedean._companion_roots

    def duplicating(*args):
        y = aberth(*args).copy()
        y[3, 1] = y[3, 0]
        return y

    redone = []

    def counting(f, t):
        redone.append(t.copy())
        return companion(f, t)

    s, c = archimedean._depressed(f)
    pc = np.array([float(x) for x in reversed(c[1:])] + [0.0])
    mutant = duplicating(pc, float(c[0]) - t) + float(s)
    assert archimedean._within_tolerance(f.float_coeffs(), mutant, t).all()
    monkeypatch.setattr(archimedean, "_aberth", duplicating)
    monkeypatch.setattr(archimedean, "_companion_roots", counting)
    roots = _preimages_batch(f, t)
    assert len(redone) == 1 and np.array_equal(redone[0], t[3:4])
    assert _multiset_distance(roots, _companion_roots(f, t)) <= 1e-12 * (1 + np.max(np.abs(roots)))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("bad", [complex(np.nan, 0), complex(0, np.nan), complex(np.inf, 0), complex(-np.inf, 1)])
def test_preimages_reject_non_finite_targets(d, bad):
    f = MonicPoly.make(d, {0: F(1, 3), 1: F(-1)})
    t = np.linspace(-1, 1, 40).astype(complex)
    t[7] = bad
    with pytest.raises(RootFindingError):
        _preimages_batch(f, t)


@pytest.mark.parametrize(
    "text", ["z^2+1000000z+(1/3)", "z^3+1000000z^2+(1/3)", "z^4+100000z^3+(1/3)", "z^5+1000000z^4+(1/3)"]
)
def test_preimages_badly_scaled_rows_fall_back_to_eigvals(text, monkeypatch):
    """Coefficients of very different sizes: the closed forms lose the small
    roots, and the rows that miss the residual check are solved again.  The
    stable quadratic formula keeps every root at d = 2, so no row is."""
    f = MonicPoly.from_text(text)
    t = np.array([0.5 + 0.1j, -2.0, 1e-3j, 1e6, -1e6 + 1e3j])
    redone = []
    companion = archimedean._companion_roots

    def counting(f, t):
        redone.extend(t)
        return companion(f, t)

    monkeypatch.setattr(archimedean, "_companion_roots", counting)
    roots = _preimages_batch(f, t)
    assert (redone == []) == (f.d == 2)
    assert _multiset_distance(roots, _companion_roots(f, t)) <= 1e-9 * (1 + np.max(np.abs(roots)))
    assert np.max(_relative_residual(f, roots, t)) <= 1e-9
    assert equilibrium_sample(f, 500).points.shape == ({2: 512, 3: 729, 4: 1024, 5: 625}[f.d],)


@pytest.mark.parametrize("d,solver", [(3, "_cardano"), (4, "_ferrari"), (5, "_aberth")])
def test_preimages_residual_check_covers_every_row(monkeypatch, d, solver):
    """A wrong root in the last row, which a strided spot check would skip, is
    caught; the row is solved again by eigenvalues, wrong again."""

    def corrupt(module, name):
        solve = getattr(module, name)

        def corrupted(*args):
            roots = solve(*args).copy()
            roots[-1, 0] += 100.0
            return roots

        monkeypatch.setattr(module, name, corrupted)

    corrupt(np.linalg, "eigvals")
    corrupt(archimedean, solver)
    f = MonicPoly.make(d, {0: F(1, 3), 1: F(-1)})
    with pytest.raises(RootFindingError):
        _preimages_batch(f, np.linspace(-1, 1, 63).astype(complex))
