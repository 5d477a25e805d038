"""Statistical experiment harness: average shared-preperiodic-point counts
over height boxes, genericity proportions, radical sums, adelic Robin
constants, and the two closed-form constants of the height sandwich.

Every survey is driven by a single master seed; per-sample RNG streams are
spawned from it, so runs are bit-reproducible and safely parallelizable.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

log = logging.getLogger(__name__)

from .heights import pairing_bounds
from .nonarchimedean import (
    BerkSetDescriptor,
    StrataHypothesisError,
    mass_outside_unit,
    strata,
    strata_intersection_set,
    strata_union_set,
)
from .polynomials import MonicPoly, SliceSpec, classify_places, height, is_ordinary, sample
from .preperiodic import CapExceeded, disjoint_certificate, prep_intersect
from .rationals import LogValue, PlaceQ, factorize

__all__ = [
    "SurveyConfig",
    "SurveyRow",
    "PrepSurveyResult",
    "OrdinaryResult",
    "AdelicSet",
    "RadicalStats",
    "survey_average_prep",
    "survey_ordinary",
    "survey_ordinary_ladder",
    "radical_stats",
    "build_upper_adelic_set",
    "search_adelic_c",
    "constants",
    "classify_case",
    "ALPHA",
]

ALPHA = (math.sqrt(17.0) - 1.0) / 8.0


@dataclass
class SurveyConfig:
    d: int
    X: int
    samples: int
    eps: float = 0.1
    seed: int = 0
    slice: Optional[SliceSpec] = None
    m_cap: int = 2
    n_cap: int = 1
    out: Optional[str] = None

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("sample count must be >= 1")
        if not (0 < self.eps < 0.25):
            raise ValueError("eps must lie in (0, 1/4)")


def classify_case(f: MonicPoly, g: MonicPoly) -> int:
    """The proof's three-way split, symmetrized over the pair.

    Case 1: `disjoint_certificate` finds a finite place where the two filled
    Julia sets have provably disjoint radius supports (explicit good
    reduction gives the unit ball, the one-large-coefficient shapes pin the
    radii to one or three shells).  Case 2: not case 1, but some finite place
    has one map explicit-good while the other has a large non-constant
    coefficient (a `mass_outside_unit` witness).  Case 3: everything else.
    """
    if disjoint_certificate(f, g) is not None:
        return 1
    for p in sorted(set(f.denominator_primes()) | set(g.denominator_primes())):
        for h, k in ((f, g), (g, f)):
            if not h._large(p) and mass_outside_unit(k, PlaceQ.finite(p)) is not None:
                return 2
    return 3


@dataclass(frozen=True)
class SurveyRow:
    index: int
    f: str
    g: str
    case: int
    shared_count: int
    pairing_lo: float
    pairing_hi: float
    hf: float
    hg: float
    ordinary: bool
    inconclusive: bool


@dataclass(frozen=True)
class PrepSurveyResult:
    rows: Tuple[SurveyRow, ...]
    mean: float
    ci_lo: float
    ci_hi: float
    case_freq: Dict[int, float]
    failures: int
    config: SurveyConfig

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "kind": "prep-survey",
            "d": self.config.d,
            "X": self.config.X,
            "samples": len(self.rows),
            "failures": self.failures,
            "inconclusive": sum(r.inconclusive for r in self.rows),
            "mean_shared": self.mean,
            "ci": [self.ci_lo, self.ci_hi],
            "case_freq": {str(k): v for k, v in sorted(self.case_freq.items())},
        }


_CSV_COLUMNS = (
    "seed-index",
    "f",
    "g",
    "case",
    "shared_count",
    "pairing_lo",
    "pairing_hi",
    "hf",
    "hg",
    "ordinary",
    "inconclusive",
)


def survey_average_prep(cfg: SurveyConfig) -> PrepSurveyResult:
    """Sample pairs from S(X) (or a slice), classify into cases 1/2/3, count
    the shared preperiodic points at the configured caps, and aggregate.

    A sample that raises CapExceeded or ArithmeticError is counted in
    `failures`; any other exception propagates."""
    master = np.random.SeedSequence(cfg.seed)
    children = master.spawn(cfg.samples + 1)
    rows: List[SurveyRow] = []
    failures = 0
    for i in range(cfg.samples):
        rng = np.random.default_rng(children[i])
        try:
            f = sample(cfg.d, cfg.X, rng, centered=True, slice=cfg.slice)
            g = sample(cfg.d, cfg.X, rng, centered=False, slice=cfg.slice)
            while g == f:
                g = sample(cfg.d, cfg.X, rng, centered=False, slice=cfg.slice)
            case = classify_case(f, g)
            assert case in (1, 2, 3) and f != g
            if case == 1:
                shared, inconclusive = 0, False
            else:
                # classify_case has just run the certificate.
                cert = prep_intersect(f, g, cfg.m_cap, cfg.n_cap, use_certificate=False,
                                      check_suspected_equal=False)
                shared = cert.matched_clusters
                inconclusive = cert.verdict == "inconclusive"
            rep = pairing_bounds(f, g)
            ok, _ = is_ordinary(f, g, cfg.X, cfg.eps)
            rows.append(
                SurveyRow(
                    i,
                    f.to_text(),
                    g.to_text(),
                    case,
                    shared,
                    rep.total_lo,
                    rep.total_hi,
                    float(height(f)),
                    float(height(g)),
                    ok,
                    inconclusive,
                )
            )
        except (CapExceeded, ArithmeticError) as exc:
            log.warning("sample %d failed and was excluded: %s", i, exc)
            failures += 1
    counts = np.array([r.shared_count for r in rows], dtype=float)
    mean = float(np.mean(counts)) if len(counts) else float("nan")
    boot_rng = np.random.default_rng(children[-1])
    if len(counts):
        idx = boot_rng.integers(0, len(counts), size=(500, len(counts)))
        means = np.mean(counts[idx], axis=1)
        ci_lo, ci_hi = (float(np.percentile(means, 2.5)), float(np.percentile(means, 97.5)))
    else:
        ci_lo = ci_hi = float("nan")
    n = max(len(rows), 1)
    case_freq = {c: sum(1 for r in rows if r.case == c) / n for c in (1, 2, 3)}
    result = PrepSurveyResult(tuple(rows), mean, ci_lo, ci_hi, case_freq, failures, cfg)
    if cfg.out:
        write_survey_csv(result, cfg.out)
    return result


def write_survey_csv(result: PrepSurveyResult, path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_CSV_COLUMNS)
        for r in result.rows:
            w.writerow(
                [
                    r.index,
                    r.f,
                    r.g,
                    r.case,
                    r.shared_count,
                    f"{r.pairing_lo:.12g}",
                    f"{r.pairing_hi:.12g}",
                    f"{r.hf:.12g}",
                    f"{r.hg:.12g}",
                    int(r.ordinary),
                    int(r.inconclusive),
                ]
            )


@dataclass(frozen=True)
class OrdinaryResult:
    X: int
    proportion: float
    ci_lo: float
    ci_hi: float
    samples: int

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "kind": "ordinary-survey",
            "X": self.X,
            "proportion": self.proportion,
            "ci": [self.ci_lo, self.ci_hi],
            "samples": self.samples,
        }


def survey_ordinary(d: int, X: int, eps, samples: int, seed: int = 0) -> OrdinaryResult:
    """Empirical proportion of generic (epsilon-ordinary) pairs in S(X)."""
    master = np.random.SeedSequence(seed)
    children = master.spawn(samples)
    hits = 0
    for i in range(samples):
        rng = np.random.default_rng(children[i])
        f = sample(d, X, rng, centered=True)
        g = sample(d, X, rng, centered=False)
        ok, _ = is_ordinary(f, g, X, eps)
        hits += ok
    p = hits / samples
    half = 1.96 * math.sqrt(max(p * (1 - p), 1e-12) / samples)
    return OrdinaryResult(X, p, max(0.0, p - half), min(1.0, p + half), samples)


def survey_ordinary_ladder(
    d: int, X: int, eps, samples: int, seed: int = 0, rungs: int = 3
) -> List[OrdinaryResult]:
    """Proportions along X, 2X, 4X, ...; asserts the monotone increase."""
    out = [survey_ordinary(d, X * 2**k, eps, samples, seed + k) for k in range(rungs)]
    for a, b in zip(out, out[1:]):
        if not b.proportion > a.proportion:
            raise AssertionError(
                f"ordinary proportion not increasing: {a.proportion} at X={a.X} "
                f"vs {b.proportion} at X={b.X}"
            )
    return out


@dataclass(frozen=True)
class RadicalStats:
    X: int
    sum_inv_rad: object  # Fraction for small X, float otherwise
    sum_inv_rad_float: float
    smooth_denominators: int
    small_radical_rationals: int
    threshold_exponent: Fraction


def _rad_sieve(X: int) -> np.ndarray:
    rad = np.ones(X + 1, dtype=np.int64)
    is_comp = np.zeros(X + 1, dtype=bool)
    for p in range(2, X + 1):
        if not is_comp[p]:
            rad[p::p] *= p
            is_comp[p * p :: p] = True
    return rad


def radical_stats(X: int, eps=Fraction(1, 5)) -> RadicalStats:
    """Exact/float sum of 1/rad(n) up to X plus small-radical counts.

    small_radical_rationals counts x with H(x) <= X whose denominator has
    radical at most X^(1-2*eps); the comparison is exact in integers.
    """
    if not (1 <= X <= 10**7):
        raise ValueError("X must be in [1, 10^7]")
    from .polynomials import _eps_fraction

    e = _eps_fraction(eps)
    q = 1 - 2 * e
    rad = _rad_sieve(X)
    if X <= 2000:
        s: object = sum(Fraction(1, int(r)) for r in rad[1:])
        s_float = float(s)
    else:
        s = float(np.sum(1.0 / rad[1:].astype(float)))
        s_float = float(s)
    # rad(b) <= X^q  <=>  rad(b)^q.den <= X^q.num, exact (float prefilter)
    rhs = X**q.numerator
    cand = np.nonzero(rad[1:].astype(float) <= X ** float(q) * 1.001)[0] + 1
    small = [int(b) for b in cand if int(rad[b]) ** q.denominator <= rhs]
    count = 0
    for b in small:
        if b == 1:
            count += 2 * X + 1
        else:
            count += 2 * _coprime_count(X, int(rad[b]))
    return RadicalStats(X, s, s_float, len(small), count, q)


def _coprime_count(X: int, radb: int) -> int:
    """#{1 <= a <= X : gcd(a, radb) = 1} by inclusion-exclusion."""
    ps = factorize(radb).primes
    total = 0
    for mask in range(1 << len(ps)):
        m = 1
        bits = 0
        for k, p in enumerate(ps):
            if mask >> k & 1:
                m *= p
                bits += 1
        total += (-1) ** bits * (X // m)
    return total


@dataclass(frozen=True)
class AdelicSet:
    """Place-indexed compact Berkovich sets (default unit disk) with the
    Robin constant V = sum of per-place capacities, carried exactly."""

    entries: Dict[int, BerkSetDescriptor]
    robin: LogValue

    @property
    def robin_float(self) -> float:
        return float(self.robin)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "entries": {str(p): d.to_json() for p, d in sorted(self.entries.items())},
            "robin": self.robin.to_json(),
        }


def build_upper_adelic_set(
    f: MonicPoly, g: MonicPoly, c: float, X: int, eps
) -> AdelicSet:
    """Adelic set driving the height upper bound for a generic pair.

    At a place associated to a coefficient of index j: the strata union set
    when j/d < alpha + c, the unit disk when alpha + c < j/d < 2 alpha, and
    the two inner strata when j/d > 2 alpha (alpha = (sqrt(17)-1)/8).
    Associated places whose local shape fails the strata hypothesis fall back
    to the unit disk.  Rejects non-generic pairs with the violating condition.
    """
    ok, witness = is_ordinary(f, g, X, eps)
    if not ok:
        raise ValueError(f"pair is not epsilon-ordinary: {witness}")
    if not (0 < c < 1 - 2 * ALPHA):
        raise ValueError("parameter c must lie in (0, 1 - 2*alpha)")
    prof = classify_places(f, g)
    entries: Dict[int, BerkSetDescriptor] = {}
    robin = LogValue.zero()
    for p, (side, j) in sorted(prof.assoc.items()):
        poly = f if side == "f" else g
        t = j / poly.d
        if j == 0 or (ALPHA + c) < t < 2 * ALPHA:
            entries[p] = BerkSetDescriptor("unit-disk", Fraction(0))
            continue
        try:
            s = strata(poly, PlaceQ.finite(p))
            desc = strata_union_set(s) if t < ALPHA + c else strata_intersection_set(s)
        except StrataHypothesisError:
            desc = BerkSetDescriptor("unit-disk", Fraction(0))
        entries[p] = desc
        robin = robin + LogValue.of_prime(p, desc.capacity)
    for p in prof.bad:
        entries[p] = BerkSetDescriptor("unit-disk", Fraction(0))
    return AdelicSet(entries, robin)


def search_adelic_c(
    f: MonicPoly, g: MonicPoly, X: int, eps, grid: int = 24
) -> Tuple[float, AdelicSet]:
    """Grid search over the admissible c range for the largest Robin constant."""
    best = None
    c_max = 1 - 2 * ALPHA
    for k in range(1, grid + 1):
        c = c_max * k / (grid + 1)
        a = build_upper_adelic_set(f, g, c, X, eps)
        if best is None or a.robin_float > best[1].robin_float:
            best = (c, a)
    return best


def constants() -> dict:
    """The two endpoint constants of the height sandwich, with the quadrature
    confirmations of the Riemann-sum limits and the alpha cancellation.

    The quadrature is a 20-node Gauss-Legendre rule on each half interval,
    an independent numerical check of the closed form ln 2 / 2."""
    alpha = ALPHA
    C = -math.log(1 - alpha) + alpha
    ln2 = math.log(2.0)
    nodes, weights = np.polynomial.legendre.leggauss(20)
    t = 0.25 * nodes + 0.25  # [-1, 1] -> [0, 1/2]; dt = dx / 4
    lower_lhs = float(np.sum(0.25 * weights / (2.0 * (1.0 - t))))
    upper_lhs = float(np.sum(0.25 * weights / (2.0 * (t + 0.5))))
    # The cancellation used for the Robin constant: (2 alpha)^2 = 1 - alpha,
    # i.e. (1/2) log(1-alpha) = log(2 alpha).
    residual = abs(0.5 * math.log(1 - alpha) - math.log(2 * alpha))
    return {
        "schema": 1,
        "ln2": ln2,
        "C": C,
        "alpha": alpha,
        "riemann_lower": lower_lhs,
        "riemann_upper": upper_lhs,
        "riemann_target": ln2 / 2.0,
        "alpha_identity_residual": residual,
    }
