"""Non-archimedean local theory: Newton polygons, the three-radius strata
decomposition of the equilibrium measure at a one-large-coefficient place,
capacities of the special Berkovich sets, and provable radius supports of
filled Julia sets.

All radii and energies at a finite place p are exact rational multiples of
log p and are carried as Fractions (the log p factor is implicit in this
module; callers convert with LogValue.of_prime when mixing places).  Squared
terms, as in the two-strata capacity quotient, carry (log p)^2 and the
quotient restores a plain log p unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .polynomials import MonicPoly
from .rationals import PlaceQ, Rat, ord_p

__all__ = [
    "NewtonPolygon",
    "newton_polygon",
    "StrataMeasure",
    "strata",
    "strata_pullback_simulate",
    "capacity_union",
    "mass_outside_unit",
    "julia_shells",
    "shells_certify_disjoint",
    "BerkSetDescriptor",
    "StrataHypothesisError",
]


class StrataHypothesisError(ValueError):
    """The local shape does not satisfy the one-large-coefficient hypothesis."""


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower convex hull of (i, ord(a_i)); slopes give root absolute values.

    A hull segment of slope s and horizontal length l contributes l roots of
    absolute value p^s (valuation -s with the normalization |p| = 1/p).  Zero
    roots coming from a vanishing constant block are reported separately.
    """

    points: Tuple[Tuple[int, Fraction], ...]
    segments: Tuple[Tuple[Fraction, int], ...]  # (slope, length), slopes strictly increasing
    zero_roots: int
    p: int

    def root_abs_values(self) -> List[Tuple[Fraction, int]]:
        """(exponent s, multiplicity): roots of absolute value p^s; zeros excluded."""
        return [(s, l) for s, l in self.segments]


def newton_polygon(valuations: Sequence[Optional[Rat]], p: int) -> NewtonPolygon:
    """Newton polygon of sum a_i z^i from ord_p data.

    valuations[i] = ord_p(a_i) (length d+1, None for zero coefficients);
    the leading entry must be 0 (monic).
    """
    d = len(valuations) - 1
    if d < 1:
        raise ValueError("need degree >= 1")
    if valuations[d] != 0:
        raise ValueError("leading coefficient must have valuation 0 (monic)")
    pts = [(i, Fraction(v)) for i, v in enumerate(valuations) if v is not None]
    zero_roots = pts[0][0]
    # Monotone lower hull; collinear interior points collapse into one segment.
    hull: List[Tuple[int, Fraction]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x2) >= (pt[1] - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    segments = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = Fraction(y2 - y1, x2 - x1)  # |root| = p^slope, valuation -slope
        segments.append((slope, x2 - x1))
    return NewtonPolygon(tuple(pts), tuple(segments), zero_roots, p)


@dataclass(frozen=True)
class StrataMeasure:
    """Three-radius decomposition of the equilibrium measure at a finite place.

    Units: log-radii and energies are Fractions q meaning q * log p; energy
    values are per-stratum I(mu_i).  The degenerate large-constant case (j=0)
    collapses to a single stratum of full mass and zero energy.
    """

    place: PlaceQ
    d: int
    j: int  # index of the unique large coefficient
    m: Fraction  # log_p |a_j|_v > 0
    log_radii: Tuple[Fraction, Fraction, Fraction]
    masses: Tuple[Fraction, Fraction, Fraction]
    energies: Tuple[Fraction, Fraction, Fraction]

    def zero_energy_residual(self) -> Fraction:
        """alpha-weighted total energy of the decomposition; 0 exactly."""
        a1, a2, a3 = self.masses
        i1, i2, i3 = self.energies
        r1, r2, _ = self.log_radii
        return (
            a1 * a1 * i1
            + a2 * a2 * i2
            + a3 * a3 * i3
            + 2 * a1 * a2 * r1
            + 2 * a1 * a3 * r1
            + 2 * a2 * a3 * r2
        )


def _one_large(f: MonicPoly, p: int) -> Optional[Tuple[int, int, Tuple[Fraction, ...]]]:
    """The one-large-coefficient shape of f at p, read off the place table:
    None if no coefficient is large, (j, m, log-radii) for one large a_j with
    |a_j|_p = p^m and j = 0 or |a_0|_p = 1, else StrataHypothesisError.  The
    radii are m/d (three times) for j = 0, else m/(d-j), (m/j)(1/(d-j) - 1), -m/j.
    """
    large = f._large(p)
    if not large:
        return None
    if len(large) > 1:
        idx = ", ".join(f"a{i}" for i, _ in large)
        raise StrataHypothesisError(f"more than one large coefficient at p={p}: {idx}")
    (j, m), d = large[0], f.d
    if j == 0:
        return 0, m, (Fraction(m, d),) * 3
    a0 = f.coeffs[0]  # not large, so |a_0|_p = 1 unless p divides its numerator
    if a0 == 0 or a0.numerator % p == 0:
        raise StrataHypothesisError(
            f"|a_0|_{p} != 1 (got {'0' if a0 == 0 else 'p^' + str(-ord_p(a0, p))}); "
            "strata hypothesis requires |a_0|_v = 1 when j >= 1"
        )
    return j, m, (Fraction(m, d - j), Fraction(m * (j + 1 - d), j * (d - j)), Fraction(-m, j))


def strata(f: MonicPoly, v: PlaceQ) -> StrataMeasure:
    """Exact strata decomposition at a one-large-coefficient place: the filled
    Julia set meets exactly the radii of `_one_large`, with masses
    ((d-j)/d, j(d-j)/d^2, j^2/d^2) for 1 <= j <= d-1; for j = 0 the single
    radius |a_0|^{1/d} carries full mass and zero energy."""
    if v.is_arch:
        raise ValueError("strata are defined at finite places")
    shape = _one_large(f, v.p)
    if shape is None:
        raise StrataHypothesisError(f"explicit good reduction at p={v.p}: no large coefficient")
    (j, m, radii), d = shape, f.d
    if j == 0:
        one, zero = Fraction(1), Fraction(0)
        return StrataMeasure(v, d, 0, Fraction(m), radii, (one, zero, zero), (zero, zero, zero))
    a1 = Fraction(d - j, d)
    a2 = Fraction(j * (d - j), d * d)
    a3 = Fraction(j * j, d * d)
    i1 = -m * Fraction(j, (d - j) ** 2)
    i2 = -m * (Fraction(1, j) + Fraction(1, (d - j) ** 2))
    i3 = -m * (Fraction(1, j) + Fraction(1, j * j))
    return StrataMeasure(v, d, j, Fraction(m), radii, (a1, a2, a3), (i1, i2, i3))


def strata_pullback_simulate(d: int, j: int) -> Tuple[Fraction, Fraction, Fraction]:
    """Stationary mass vector of the pullback transition on the three strata.

    The pullback of a unit mass on stratum i redistributes with the column
    map (d-j, d-j, d-j; j, 0, 0; 0, j, j)/d; the stationary vector spans the
    one-dimensional nullspace of M - I, an exact sympy DomainMatrix over QQ,
    and normalised to sum 1 it must reproduce the closed-form masses.
    """
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    if not (1 <= j <= d - 1):
        raise ValueError("need 1 <= j <= d-1")
    a, b = QQ(d - j, d), QQ(j, d)
    M = DomainMatrix([[a, a, a], [b, QQ(0), QQ(0)], [QQ(0), b, b]], (3, 3), QQ)
    kernel = (M - DomainMatrix.eye(3, QQ)).nullspace().to_list()
    if len(kernel) != 1:
        raise ArithmeticError("stationary system is degenerate")
    x0, x1, x2 = (Fraction(int(c.numerator), int(c.denominator)) for c in kernel[0])
    total = x0 + x1 + x2
    return (x0 / total, x1 / total, x2 / total)


def capacity_union(s1_log: Rat, I1: Rat, I2: Rat) -> Fraction:
    """Capacity of a two-strata union: (log^2 s1 - I1*I2) / (2 log s1 - I1 - I2).

    Inputs are in units of log p (the numerator carries (log p)^2 and the
    quotient restores log p).  The degenerate case I1 = I2 = log s1 collapses
    to the single-point value log s1.
    """
    c = Fraction(s1_log)
    a = Fraction(I1)
    b = Fraction(I2)
    if a > c or b > c:
        raise ValueError("strata energies cannot exceed log s1")
    den = 2 * c - a - b
    if den == 0:
        return c
    return (c * c - a * b) / den


def mass_outside_unit(g: MonicPoly, v: PlaceQ) -> Optional[int]:
    """Witness index for the 1/d lower mass bound outside D(0, p^{1/d}).

    Returns the smallest 1 <= j <= d-1 with |b_j|_v > 1 (the Newton polygon of
    g - c then has a side of slope >= (1/(d-j)) log|b_j|_v, forcing at least
    d - j of every pullback's roots outside the disk), or None if no such
    index exists.
    """
    if v.is_arch:
        raise ValueError("mass_outside_unit is for finite places")
    return next((j for j, _ in g._large(v.p) if j >= 1), None)


@dataclass(frozen=True)
class BerkSetDescriptor:
    """Compact Berkovich set at one finite place with its exact capacity.

    variant: "unit-disk", "strata-support" (strata_intersection_set) or
    "union-with-point" (strata_union_set).  capacity is a Fraction in units
    of log p (0 for the unit disk).
    """

    variant: str
    capacity: Fraction
    indices: Tuple[int, ...] = ()
    log_radius: Optional[Fraction] = None

    def to_json(self) -> dict:
        out = {"variant": self.variant, "capacity": str(self.capacity)}
        if self.indices:
            out["strata_indices"] = list(self.indices)
        if self.log_radius is not None:
            out["log_radius"] = str(self.log_radius)
        return out


def julia_shells(f: MonicPoly, v: PlaceQ):
    """Provable radius support of the filled Julia set at a finite place.

    Returns ("ball", None) for explicit good reduction (radii within [0, 1]),
    ("shells", {exponents}) when the one-large-coefficient shape pins |zeta|_v
    to finitely many values p^t (the log-radii of `strata`, without its
    measure), and ("unknown", None) where `strata` does not apply.
    """
    if v.is_arch:
        raise ValueError("julia_shells is for finite places")
    try:
        shape = _one_large(f, v.p)
    except StrataHypothesisError:
        return "unknown", None
    return ("ball", None) if shape is None else ("shells", frozenset(shape[2]))


def shells_certify_disjoint(sf, sg) -> bool:
    """Whether two radius supports from julia_shells provably do not meet."""
    kf, df = sf
    kg, dg = sg
    if kf == "unknown" or kg == "unknown":
        return False
    if kf == "ball" and kg == "ball":
        return False
    if kf == "ball":
        return all(t > 0 for t in dg)
    if kg == "ball":
        return all(t > 0 for t in df)
    return not (df & dg)


def strata_union_set(s: StrataMeasure) -> BerkSetDescriptor:
    """S-union at a one-large place: {zeta(0, R)} joined with the outer stratum.

    R = |a_j|^{j/(d^2-j^2)}; the capacity is (1/(2(d-j))) log|a_j|_v.
    """
    if s.j == 0:
        raise StrataHypothesisError("union set needs 1 <= j <= d-1")
    d, j, m = s.d, s.j, s.m
    log_R = m * Fraction(j, d * d - j * j)
    cap = capacity_union(s.log_radii[0], s.energies[0], log_R)
    return BerkSetDescriptor("union-with-point", cap, (1,), log_R)


def strata_intersection_set(s: StrataMeasure) -> BerkSetDescriptor:
    """S-intersection: the two inner strata; capacity -(1/j) log|a_j|_v."""
    if s.j == 0:
        raise StrataHypothesisError("intersection set needs 1 <= j <= d-1")
    cap = capacity_union(s.log_radii[1], s.energies[1], s.energies[2])
    return BerkSetDescriptor("strata-support", cap, (2, 3))
