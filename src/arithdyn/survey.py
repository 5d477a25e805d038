"""Statistical experiment harness: average shared-preperiodic-point counts
over height boxes, genericity proportions, adelic Robin constants, and the
two closed-form constants of the height sandwich.

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
from .polynomials import (
    MonicPoly,
    SliceSpec,
    _eps_fraction,
    classify_places,
    height,
    is_ordinary,
    sample,
)
from .preperiodic import CapExceeded, _shared_points, disjoint_certificate
from .rationals import LogValue, PlaceQ

__all__ = [
    "SurveyConfig",
    "SurveyRow",
    "PrepSurveyResult",
    "OrdinaryResult",
    "AdelicSet",
    "survey_average_prep",
    "survey_ordinary",
    "survey_ordinary_ladder",
    "write_survey_csv",
    "build_upper_adelic_set",
    "search_adelic_c",
    "constants",
    "classify_case",
    "ALPHA",
]

ALPHA = (math.sqrt(17.0) - 1.0) / 8.0
_LADDER_RUNGS = 3
_C_GRID = 24


@dataclass
class SurveyConfig:
    d: int
    X: int
    samples: int
    eps: Fraction = Fraction(1, 10)
    seed: int = 0
    slice: Optional[SliceSpec] = None
    m_cap: int = 2
    n_cap: int = 1

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("sample count must be >= 1")
        self.eps = _eps_fraction(self.eps)
        if self.m_cap < 1 or self.n_cap < 0:
            raise ValueError("caps must satisfy m_cap >= 1 and n_cap >= 0")
        for i, c in (self.slice.fixed if self.slice else {}).items():
            if not 1 <= i <= self.d - 1:
                raise ValueError(f"slice index {i} outside 1..{self.d - 1}")
            if i == self.d - 1 and c != 0:
                raise ValueError("slice fixes a_{d-1} != 0 but f is centered")
            if max(abs(c.numerator), c.denominator) > self.X:
                raise ValueError(f"slice value a_{i} = {c} has height > X = {self.X}")


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


# Non-case-1 pairs screened together by one `_shared_points` call; 50 samples
# at d = 6, X = 5 have about 37 such pairs, so one call screens them all.
_SCREEN_BLOCK = 64

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

    Case 1 pairs share no point.  The other pairs are screened in blocks of
    `_SCREEN_BLOCK`: the iterates of all their maps are composed modulo one
    prime and one lock-step gcd mod p serves the whole block, and only a pair
    whose gcd mod p is not 1 has its exact iterates built.  A pair whose
    iterates exceed the degree budget gives an inconclusive row.  A sample
    that raises ArithmeticError, or CapExceeded outside its iterates, is
    counted in `failures`; any other exception propagates."""
    master = np.random.SeedSequence(cfg.seed)
    children = master.spawn(cfg.samples + 1)
    failed: List[int] = []

    def fail(i: int, exc: Exception) -> None:
        log.warning("sample %d failed and was excluded: %s", i, exc)
        failed.append(i)

    drawn: List[Tuple[int, MonicPoly, MonicPoly, int]] = []
    for i in range(cfg.samples):
        rng = np.random.default_rng(children[i])
        try:
            f = sample(cfg.d, cfg.X, rng, centered=True, slice=cfg.slice)
            g = sample(cfg.d, cfg.X, rng, centered=False, slice=cfg.slice)
            while g == f:
                g = sample(cfg.d, cfg.X, rng, centered=False, slice=cfg.slice)
            case = classify_case(f, g)
            assert case in (1, 2, 3) and f != g
            drawn.append((i, f, g, case))
        except (CapExceeded, ArithmeticError) as exc:
            fail(i, exc)

    # Shared count by sample index, None for an inconclusive row.
    shared: Dict[int, Optional[int]] = {i: 0 for i, _, _, case in drawn if case == 1}
    rest = [(i, f, g) for i, f, g, case in drawn if case != 1]
    m, n = cfg.m_cap, cfg.n_cap
    for start in range(0, len(rest), _SCREEN_BLOCK):
        block = rest[start : start + _SCREEN_BLOCK]
        for (i, _, _), min_polys in zip(block, _shared_points([(f, g) for _, f, g in block], m, n)):
            if isinstance(min_polys, CapExceeded):
                shared[i] = None
            elif isinstance(min_polys, ArithmeticError):
                fail(i, min_polys)
            else:
                shared[i] = sum(len(mp) - 1 for mp in min_polys)

    rows: List[SurveyRow] = []
    for i, f, g, case in drawn:
        if i not in shared:
            continue
        try:
            rep = pairing_bounds(f, g)
            ok, _ = is_ordinary(f, g, cfg.X, cfg.eps)
            rows.append(
                SurveyRow(
                    i,
                    f.to_text(),
                    g.to_text(),
                    case,
                    shared[i] or 0,
                    rep.total_lo,
                    rep.total_hi,
                    float(height(f)),
                    float(height(g)),
                    ok,
                    shared[i] is None,
                )
            )
        except (CapExceeded, ArithmeticError) as exc:
            fail(i, exc)
    failures = len(failed)
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
    return PrepSurveyResult(tuple(rows), mean, ci_lo, ci_hi, case_freq, failures, cfg)


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


def _beta_quantile(q: float, a: int, b: int) -> float:
    """The q-quantile of Beta(a, b), 0 < q < 1: the root of I_x(a, b) = q for
    mpmath's regularised incomplete beta function I, which increases in x.
    Newton steps from the mean; a step that would leave the bracket [lo, hi]
    on which I_x - q changes sign is replaced by bisection."""
    import mpmath

    lo, hi, x = 0.0, 1.0, a / (a + b)
    log_beta = mpmath.log(mpmath.beta(a, b))
    for _ in range(100):
        r = mpmath.betainc(a, b, 0, x, regularized=True) - q
        lo, hi = (x, hi) if r < 0 else (lo, x)
        pdf = mpmath.exp((a - 1) * mpmath.log(x) + (b - 1) * mpmath.log1p(-x) - log_beta)
        step = float(x - r / pdf)
        if abs(step - x) <= 1e-15 * x:
            return step
        x = step if lo < step < hi else (lo + hi) / 2
    return x


def _clopper_pearson(k: int, n: int) -> Tuple[float, float]:
    """The exact (Clopper-Pearson) 95% interval for a proportion with k hits in
    n trials: lo = 0 at k = 0, else the 2.5% quantile of Beta(k, n - k + 1);
    hi = 1 at k = n, else the 97.5% quantile of Beta(k + 1, n - k)."""
    lo = 0.0 if k == 0 else _beta_quantile(0.025, k, n - k + 1)
    hi = 1.0 if k == n else _beta_quantile(0.975, k + 1, n - k)
    return lo, hi


def survey_ordinary(d: int, X: int, eps, samples: int, seed: int = 0) -> OrdinaryResult:
    """Empirical proportion of generic (epsilon-ordinary) pairs in S(X), with
    its exact 95% interval (`_clopper_pearson`)."""
    if samples < 1:
        raise ValueError("sample count must be >= 1")
    master = np.random.SeedSequence(seed)
    children = master.spawn(samples)
    hits = 0
    for i in range(samples):
        rng = np.random.default_rng(children[i])
        f = sample(d, X, rng, centered=True)
        g = sample(d, X, rng, centered=False)
        ok, _ = is_ordinary(f, g, X, eps)
        hits += ok
    return OrdinaryResult(X, hits / samples, *_clopper_pearson(hits, samples), samples)


def survey_ordinary_ladder(
    d: int, X: int, eps, samples: int, seed: int = 0
) -> List[OrdinaryResult]:
    """Proportions at X, 2X, 4X (_LADDER_RUNGS); asserts the monotone increase."""
    out = [survey_ordinary(d, X * 2**k, eps, samples, seed + k) for k in range(_LADDER_RUNGS)]
    for a, b in zip(out, out[1:]):
        if not b.proportion > a.proportion:
            raise AssertionError(
                f"ordinary proportion not increasing: {a.proportion} at X={a.X} "
                f"vs {b.proportion} at X={b.X}"
            )
    return out


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


def search_adelic_c(f: MonicPoly, g: MonicPoly, X: int, eps) -> Tuple[float, AdelicSet]:
    """Largest Robin constant over c = k (1 - 2 alpha) / 25, k = 1..24 (_C_GRID)."""
    best = None
    c_max = 1 - 2 * ALPHA
    for k in range(1, _C_GRID + 1):
        c = c_max * k / (_C_GRID + 1)
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
