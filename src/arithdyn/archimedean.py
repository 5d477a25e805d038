"""Archimedean dynamics: escape-rate Green's function, equilibrium-measure
samples from the full preimage tree, moments, Hoelder constants, and the
archimedean energy pairing by quadrature over the same tree.

Green's function evaluation is escape-based: once an orbit leaves the ball
that provably contains the filled Julia set, |f(z)| tracks |z|^d up to a
geometrically shrinking correction, so iterating a few more steps and reading
off d^-n log|z_n| gives the value to relative accuracy far below any
requested tolerance.  An orbit still inside the escape radius after n steps
has G at most d^-n times the supremum of G on that disc, so once that
product is below the tolerance the point counts as bounded.

Inverse iteration solves f(w) = t for all d roots of many targets at once:
by the quadratic formula at d = 2, by Cardano's and Ferrari's formulas at
d = 3 and 4, and by the Aberth-Ehrlich iteration at d >= 5, whose rows are
kept only when the roots' Weierstrass inclusion discs are pairwise
disjoint.  Every root is residual-checked, and rows that fail are solved
again by companion-matrix eigenvalues.

One generator (_tree_levels) builds the full preimage tree level by level.
Level n is the pullback d^-n (f^n)^* of the root's mass, which tends to the
equilibrium measure mu_f: equilibrium_sample returns one level, and
arch_pairing averages Green's functions over the last three.  Nothing here
draws random numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

import numpy as np

from .polynomials import MonicPoly, local_profile
from .rationals import PlaceQ

__all__ = [
    "EquilibriumSample",
    "HolderConstants",
    "RootFindingError",
    "green_arch",
    "green_arch_many",
    "equilibrium_sample",
    "moment",
    "holder_constants",
    "arch_pairing",
    "ArchPairing",
]


class RootFindingError(RuntimeError):
    """All-roots solve failed residual checks at some inverse-iteration step."""


def _arch_params(f: MonicPoly) -> float:
    """The profile's R = 3 r, r = max(1, |a_i|^(1/(d-i))), as a float: the
    escape radius at the archimedean place.

    As |a_i| <= r^(d-i), with rho = max(|z|, R) >= 3 r,
    |f(z) - z^d| <= sum_(i<d) r^(d-i) rho^i < rho^d sum_(k>=1) 3^-k = rho^d / 2,
    so |f(z)| < 1.5 rho^d, and for |z| > R, |f(z)| > |z|^d / 2 >= 1.5 |z|
    (|z|^(d-1) > 3): every orbit leaving |z| <= R escapes.
    """
    return math.exp(float(local_profile(f, PlaceQ.arch()).R))


def _is_power_map(f: MonicPoly) -> bool:
    return all(c == 0 for c in f.coeffs)


def green_arch(f: MonicPoly, z: complex, tol: float = 1e-12) -> float:
    """Escape-rate Green's function G_{f,inf}(z) to accuracy tol (green_arch_many)."""
    return float(green_arch_many(f, np.array([z], dtype=complex), tol)[0])


def green_arch_many(f: MonicPoly, zs: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Vectorized green_arch over an array of complex points.

    With R the escape radius of _arch_params, |f(z)| < 1.5 max(|z|, R)^d
    and R >= 3, so L_n = log max(|z_n|, R) has L_{n+1} <= d L_n + log 2,
    and sup G <= log R + log 2 / (d - 1) on the disc |w| <= R; a point with
    |f^n(z)| <= R has G(z) <= d^-n times that.  Each orbit is iterated
    until it passes |z| = 10^(250/d), where d^-n log|z_n| is its value, or
    until the first n >= n_tol that finds it inside R, where it is bounded
    (G = 0); n_tol is one step past the depth that puts the bound below tol.
    Only the points still active are iterated.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    d = f.d
    if _is_power_map(f):
        a = np.abs(np.asarray(zs, dtype=complex))
        with np.errstate(divide="ignore"):
            return np.where(a > 1.0, np.log(np.maximum(a, 1.0)), 0.0)
    R = _arch_params(f)
    bound = math.log(R) + math.log(2.0) / (d - 1)
    n_tol = int(math.ceil((math.log(bound) + math.log(1.0 / tol)) / math.log(d))) + 1
    z_cap = 10.0 ** (250.0 / d)
    coeffs = f.float_coeffs()

    zs = np.asarray(zs, dtype=complex)
    out = np.zeros(zs.size, dtype=float)
    idx = np.arange(zs.size)  # the active points, compacted
    z = zs.ravel()
    for n in range(1, n_tol + 61):
        z = _horner(coeffs, z)
        absz = np.abs(z)
        done = absz > z_cap
        out[idx[done]] = np.log(absz[done]) * (d ** (-float(n)))
        keep = ~done & (absz > R) if n >= n_tol else ~done
        idx, z = idx[keep], z[keep]
        if not idx.size:
            break
    # Stragglers that crossed R but not z_cap get the current estimate.
    out[idx] = np.log(np.maximum(np.abs(z), 1.0)) * (d ** (-float(n)))
    return out.reshape(zs.shape)


@dataclass(frozen=True)
class HolderConstants:
    """Uniform Hoelder data for G_f: |G(z1)-G(z2)| <= 3 d M |z1-z2|^alpha."""

    M: float
    A: float
    alpha: float

    def __post_init__(self):
        if not (self.A > 1 and self.M > 0):
            raise ValueError("need A > 1 and M > 0")


def holder_constants(f: MonicPoly) -> HolderConstants:
    """M = log(2R+1), A = (3d/2)(R+1)^{d-1}, alpha = log d / log A."""
    R = _arch_params(f)
    d = f.d
    M = math.log(2 * R + 1)
    A = 1.5 * d * (R + 1) ** (d - 1)
    return HolderConstants(M=M, A=A, alpha=math.log(d) / math.log(A))


@dataclass(frozen=True)
class EquilibriumSample:
    """One level of the full preimage tree of f, which approximates the
    equilibrium measure at infinity (equilibrium_sample)."""

    points: np.ndarray
    poly: MonicPoly

    def __post_init__(self):
        if self.points.ndim != 1:
            raise ValueError("points must be a flat complex array")

    def to_csv(self, path) -> None:
        arr = np.column_stack([self.points.real, self.points.imag])
        np.savetxt(path, arr, delimiter=",", header="re,im", comments="")


_OMEGA = np.exp(2j * np.pi * np.arange(3) / 3)  # the cube roots of unity


def _depressed(f: MonicPoly) -> Tuple[Fraction, List[Fraction]]:
    """(s, c) with f(y + s) = sum_i c_i y^i exactly; s = -a_{d-1}/d, so c_{d-1} = 0."""
    d = f.d
    s = -f.coeffs[d - 1] / d
    c = list(f.coeffs) + [Fraction(1)]
    for i in range(d):  # Taylor shift by repeated synthetic division
        for j in range(d - 1, i - 1, -1):
            c[j] += s * c[j + 1]
    return s, c


def _quadratic(b, c) -> Tuple[np.ndarray, np.ndarray]:
    """Both roots of y^2 + b y + c, the one of larger modulus first and the
    other as c divided by it, so neither loses digits to cancellation."""
    disc = np.sqrt(b * b - 4.0 * c)
    disc = np.where((np.conj(b) * disc).real >= 0, disc, -disc)
    y1 = -0.5 * (b + disc)
    return y1, np.divide(c, y1, out=np.zeros_like(y1), where=y1 != 0)


def _cardano(p, q) -> np.ndarray:
    """The three roots of y^3 + p y + q per row (Cardano); shape (n, 3).

    With C a cube root of whichever of -q/2 +- sqrt(q^2/4 + p^3/27) has the
    larger modulus, the roots are w^k C - p / (3 w^k C), w = e^(2 pi i / 3).
    That modulus is at least sqrt(|p|^3 / 27), so C = 0 only where p = q = 0,
    whose roots are all 0.
    """
    h = -0.5 * q
    s = np.sqrt(h * h + p**3 / 27.0)
    u3 = np.where((np.conj(h) * s).real >= 0, h + s, h - s)
    C = np.cbrt(np.abs(u3)) * np.exp(1j * np.angle(u3) / 3.0)
    D = np.divide(p / 3.0, C, out=np.zeros_like(C), where=C != 0)
    return C[:, None] * _OMEGA - D[:, None] * _OMEGA.conj()


def _ferrari(p: Fraction, q: Fraction, r: np.ndarray) -> np.ndarray:
    """The four roots of y^4 + p y^2 + q y + r per row (Ferrari); shape (n, 4).

    The branch follows the exact q.  For q = 0 the quartic is a quadratic in
    y^2.  Otherwise the resolvent m^3 + p m^2 + (p^2/4 - r) m - q^2/8 has
    roots multiplying to q^2/8, so its root m of largest modulus is not near
    0, and the quartic splits as
    (y^2 - s y + p/2 + m + q/(2s)) (y^2 + s y + p/2 + m - q/(2s)), s^2 = 2m.
    """
    pf, qf = float(p), float(q)
    if q == 0:
        z1, z2 = _quadratic(pf, r)
        y1, y2 = np.sqrt(z1), np.sqrt(z2)
        return np.stack([y1, -y1, y2, -y2], axis=-1)
    # the resolvent, depressed by m = x - p/3
    ms = _cardano(-pf * pf / 12.0 - r, pf * r / 3.0 - pf**3 / 108.0 - qf * qf / 8.0) - pf / 3.0
    m = np.take_along_axis(ms, np.argmax(np.abs(ms), axis=1)[:, None], axis=1)[:, 0]
    s = np.sqrt(2.0 * m)
    k = 0.5 * qf / s
    return np.stack([*_quadratic(-s, 0.5 * pf + m + k), *_quadratic(s, 0.5 * pf + m - k)], axis=-1)


def _horner(coeffs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The polynomial with descending coefficients coeffs at each w
    (np.polyval, updating one array in place instead of one per step)."""
    v = coeffs[0] * w + coeffs[1]
    for c in coeffs[2:]:
        v *= w
        v += c
    return v


def _newton(coeffs: np.ndarray, w: np.ndarray, t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Two Newton steps on f(w) - t from the roots w, in place; returns
    (w, |f(w) - t|).

    A step is kept only where it does not increase |f(w) - t|, which discards
    the step at f'(w) = 0 and a jump off a multiple root, where f'(w) is
    rounding noise.
    """
    dcoeffs = np.polyder(coeffs)
    F = _horner(coeffs, w) - t
    aF = np.abs(F)
    for _ in range(2):
        with np.errstate(all="ignore"):
            w1 = w - F / _horner(dcoeffs, w)
            F1 = _horner(coeffs, w1) - t
            aF1 = np.abs(F1)
            keep = aF1 <= aF
        for old, new in ((w, w1), (F, F1), (aF, aF1)):
            np.copyto(old, new, where=keep)
    return w, aF


def _aberth(pc: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The d roots of p(y) = pc(y) + r per row, by the Aberth-Ehrlich
    iteration; shape (len(r), d).  pc is a monic polynomial with zero
    constant term, as descending coefficients, and r one constant per row.

    The start is the d-th roots of -r, rotated by a fixed angle (a circle of
    radius 1 where r = 0).  A row leaves the working arrays once every step
    is below 1e-14 |y|; one that has not converged after 60 steps is
    returned as it stands, for the caller's checks to judge.
    """
    d = len(pc) - 1
    dpc = np.polyder(pc)
    rho = np.abs(r) ** (1.0 / d)
    angle = (np.angle(-r)[:, None] + 2.0 * np.pi * np.arange(d)) / d + 0.4
    y = np.where(rho > 0, rho, 1.0)[:, None] * np.exp(1j * angle)
    out = y
    idx = np.arange(r.shape[0])  # the rows still iterating, compacted
    rr = r[:, None]
    with np.errstate(all="ignore"):
        for _ in range(60):
            newton = (_horner(pc, y) + rr) / _horner(dpc, y)
            S = np.zeros_like(y)  # sum over j != i of 1 / (y_i - y_j)
            for j in range(d):
                inv = 1.0 / (y - y[:, j, None])
                inv[:, j] = 0.0
                S += inv
            step = newton / (1.0 - newton * S)
            y = y - step
            done = np.all(np.abs(step) <= 1e-14 * np.abs(y), axis=1)
            out[idx[done]] = y[done]
            keep = ~done
            idx, y, rr = idx[keep], y[keep], rr[keep]
            if not idx.size:
                break
    out[idx] = y
    return out


def _isolated(pc: np.ndarray, r: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per row, whether the Weierstrass discs
    D(y_i, d |p(y_i) / prod_{j != i} (y_i - y_j)|) of p = pc + r, as in
    _aberth, are pairwise disjoint.  The discs' union holds every root of p,
    and each of its connected components as many roots as it has discs, so
    disjoint discs hold one root each: no root of the row is duplicated or
    lost.
    """
    d = y.shape[1]
    prod = np.ones_like(y)
    for j in range(d):
        diff = y - y[:, j, None]
        diff[:, j] = 1.0
        prod *= diff
    with np.errstate(all="ignore"):
        rad = d * np.abs(_horner(pc, y) + r[:, None]) / np.abs(prod)
    ok = np.ones(y.shape[0], dtype=bool)
    for j in range(d):
        apart = np.abs(y - y[:, j, None]) > rad + rad[:, j, None]
        apart[:, j] = True
        ok &= apart.all(axis=1)
    return ok


def _companion_roots(f: MonicPoly, t: np.ndarray) -> np.ndarray:
    """All d solutions of f(w) = t per target, as eigenvalues of companion matrices."""
    d = f.d
    comp = np.zeros((t.shape[0], d, d), dtype=complex)
    idx = np.arange(d - 1)
    comp[:, idx + 1, idx] = 1.0
    for i in range(d):
        comp[:, i, d - 1] = -complex(f.coeffs[i])
    comp[:, 0, d - 1] += t
    return np.linalg.eigvals(comp)


def _within_tolerance(coeffs: np.ndarray, roots: np.ndarray, t: np.ndarray, resid=None) -> np.ndarray:
    """Per root w of f(w) = t, whether |f(w) - t| <= 1e-6 (1 + |t| + |w|^d);
    resid, when given, is |f(w) - t| already computed."""
    tt = t[:, None]
    if resid is None:
        resid = np.abs(_horner(coeffs, roots) - tt)
    return resid <= 1e-6 * (1.0 + np.abs(tt) + np.abs(roots) ** (len(coeffs) - 1))


def _preimages_batch(f: MonicPoly, targets: np.ndarray) -> np.ndarray:
    """All d solutions of f(w) = t for each target t; shape (len(targets), d).

    Solver by degree: the stable quadratic formula at d = 2 (_quadratic);
    Cardano (d = 3) and Ferrari (d = 4) on the depressed polynomial, each
    polished by 2 Newton steps; the Aberth-Ehrlich iteration on the
    depressed polynomial at d >= 5 (_aberth).  Every root w of every row is
    checked for |f(w) - t| <= 1e-6 (1 + |t| + |w|^d), and at d >= 5 a row
    is kept only when its Weierstrass inclusion discs are pairwise disjoint
    (_isolated), which catches a duplicated or lost root that the residual
    cannot see.  The solvers at d >= 3 are not backward stable: with
    coefficients of very different sizes, as in z^3 + 10^6 z^2 + 1/3, they
    lose the small roots, and at a double root the Aberth discs overlap, so
    rows that fail a check are solved again by eigenvalues of companion
    matrices (``np.linalg.eigvals``).  Raises RootFindingError for a
    non-finite target and when a row still fails.
    """
    d = f.d
    t = np.asarray(targets, dtype=complex)
    if not np.all(np.isfinite(t)):
        raise RootFindingError("inverse-iteration target is not finite")
    coeffs = f.float_coeffs()
    resid = None
    if d == 2:
        roots = np.stack(_quadratic(complex(f.coeffs[1]), complex(f.coeffs[0]) - t), axis=-1)
    else:
        s, c = _depressed(f)
        r = float(c[0]) - t
        if d <= 4:
            y = _cardano(float(c[1]), r) if d == 3 else _ferrari(c[2], c[1], r)
            roots, resid = _newton(coeffs, y + float(s), t[:, None])
        else:
            pc = np.array([float(x) for x in reversed(c[1:])] + [0.0])  # f(y + s) - c_0
            y = _aberth(pc, r)
            roots = y + float(s)
    ok = _within_tolerance(coeffs, roots, t, resid).all(axis=1)
    if d >= 5:
        ok &= _isolated(pc, r, y)
    if not ok.all():
        roots[~ok] = _companion_roots(f, t[~ok])
        ok = _within_tolerance(coeffs, roots, t).all(axis=1)
    if not ok.all():
        raise RootFindingError("inverse-iteration root solve failed residual check")
    return roots


def _tree_levels(f: MonicPoly, z: np.ndarray, n: int):
    """Levels 0..n of the full preimage tree of the points z: level k is all
    d^k len(z) solutions w of f^k(w) = t, t in z, each level solved from the
    last at once (_preimages_batch)."""
    yield z
    for _ in range(n):
        z = _preimages_batch(f, z).reshape(-1)
        yield z


def _tree_depth(d: int, N: int) -> int:
    """The first n >= 2 with d^n >= N."""
    n = 2
    while d**n < N:
        n += 1
    return n


def equilibrium_sample(f: MonicPoly, N: int) -> EquilibriumSample:
    """The d^n points of level n of the full preimage tree of one point, for
    the first n >= 2 with d^n >= N.

    The root is reached from b = R + 1 by 20 steps that each take the first
    solution of f(w) = t, so it lies at Green's function d^-20 G(b) and the
    level at d^-(n+20) G(b).  The level is the pullback d^-n (f^n)^* of the
    root's mass, which tends to mu_f (Brolin, Lyubich).  Its moments of
    order k <= d are those of mu_f exactly: the power sums of the roots of
    f(w) = t depend on t only at k = d, and there through t itself, whose
    mean over level n - 1 >= 1 is exact.  Deterministic.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    z = np.array([_arch_params(f) + 1.0], dtype=complex)
    for _ in range(20):
        z = _preimages_batch(f, z)[:, 0]
    for z in _tree_levels(f, z, _tree_depth(f.d, N)):
        pass  # only the last level is kept
    return EquilibriumSample(points=z, poly=f)


def moment(s: EquilibriumSample, k: int) -> complex:
    """Empirical k-th moment (1/N) sum z^k, 1 <= k <= d."""
    if not (1 <= k <= s.poly.d):
        raise ValueError("need 1 <= k <= d")
    return complex(np.mean(s.points**k))


@dataclass(frozen=True)
class ArchPairing:
    """Symmetrized archimedean pairing from preimage-tree quadrature: each
    side averages one map's Green's function over the tree whose levels
    equilibrium_sample returns, built for the other map.

    The errors are convergence estimates read off the last tree levels,
    not certified bounds.
    """

    value: float
    err: float
    side_fg: float  # int G_f d(mu_g), from the preimage tree of g
    side_gf: float
    err_fg: float
    err_gf: float


def _tree_side(f: MonicPoly, g: MonicPoly, N: int, tol: float) -> Tuple[float, float]:
    """(estimate, error) of int G_g d(mu_f) from the full preimage tree of f.

    Level k of the tree is all d^k solutions of f^k(w) = b, b = R + 1; the
    mean E_k of G_g over it tends to the integral at a rate of about d^-k.
    The tree stops at the first level n >= 2 with d^n >= N.  The estimate
    is the half extrapolation step E_n - (E_{n-1} - E_n) / (2(d - 1)): the
    full step is exact when E_k converges geometrically, as for the
    Chebyshev pair, but overshoots where it converges faster, as for
    disconnected Julia sets.  The error is
    max(|E_{n-1} - E_n|, |E_{n-2} - E_{n-1}| / d) / (d - 1) + tol E_n; the
    last step alone can be small by accident where E_k converges unevenly.
    """
    d = f.d
    n = _tree_depth(d, N)
    means = []  # E_{n-2}, E_{n-1}, E_n
    for k, z in enumerate(_tree_levels(f, np.array([_arch_params(f) + 1.0], dtype=complex), n)):
        if k >= n - 2:
            means.append(float(np.mean(green_arch_many(g, z, tol))))
    e2, e1, e0 = means
    err = max(abs(e1 - e0), abs(e2 - e1) / d) / (d - 1) + tol * e0
    return e0 - 0.5 * (e1 - e0) / (d - 1), err


def arch_pairing(f: MonicPoly, g: MonicPoly, N: int, *, tol: float = 1e-10) -> ArchPairing:
    """The archimedean local pairing int G_f d(mu_g), by preimage-tree quadrature.

    Each side averages one map's Green's function over the full preimage
    tree of the other, of at least N nodes (_tree_side).  The value is the
    mean of the two sides, clipped at 0 because G >= 0, and its error the
    mean of their errors.  Deterministic and symmetric in (f, g).  Requires
    N >= 1000.
    """
    if N < 1000:
        raise ValueError("N must be >= 1000")
    m_fg, e_fg = _tree_side(g, f, N, tol)
    m_gf, e_gf = _tree_side(f, g, N, tol)
    return ArchPairing(
        value=max(0.0, 0.5 * (m_fg + m_gf)),
        err=0.5 * (e_fg + e_gf),
        side_fg=m_fg,
        side_gf=m_gf,
        err_fg=e_fg,
        err_gf=e_gf,
    )
