"""The benchmark's workloads: inputs made from the seed, rounds of ops that
call arithdyn's public functions, and checks of the outputs against
reference.py.

Every workload runs whole rounds.  A survey round is one fresh batch of
sampled pairs; a pairing or certify round repeats the same list of ops made
once from the seed, so the share of failed ops is fixed by the list and the
outputs of later rounds must equal those of the first.

A workload is made from (arithdyn, seed, reference), where
`reference(fn, *args)` runs a function of reference.py in a separate
process, so that sympy and scipy loaded by the checks never count in this
process's memory.  `run_round(k, step)` returns (attempted, failed,
outputs) and calls `step()` between ops that take seconds, where the runner
samples the machine's speed; `check_round` checks the outputs off the clock.
Only the first round's outputs are kept, so memory does not grow with the
number of rounds a run completes.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Sequence, Tuple

import numpy as np

import reference as ref

# Warm-up inputs do not depend on --seed, so set-up times compare across seeds.
_WARMUP_SEED = 12345

# pairing-mc's sampled pairs do not depend on --seed either: the time of a
# pairing depends on the pair (the d = 5 op of one draw took 7% longer than
# another's on every repeat), so pairs drawn per seed made ops_per_s a
# lottery over pairs.  --seed drives the Monte-Carlo streams.
_PAIRING_PAIRS_SEED = 2

# A pairing's Monte-Carlo estimate leaves its reported [v - 2 se, v + 2 se]
# interval one time in twenty.  The checks allow 5 standard errors, which a
# correct program exceeds with probability below 1e-6 per comparison.
_SE_ALLOWANCE = 5.0


def _sample_coeffs(d: int, X: int, rng, centered: bool) -> List[Fraction]:
    """Uniform coefficients of height <= X (a_{d-1} = 0 when centered)."""
    out = []
    for i in range(d):
        if centered and i == d - 1:
            out.append(Fraction(0))
            continue
        while True:
            a = int(rng.integers(-X, X + 1))
            b = int(rng.integers(1, X + 1))
            if gcd(abs(a), b) == 1:
                out.append(Fraction(a, b))
                break
    return out


def _sample_pair(d: int, X: int, rng) -> Tuple[List[Fraction], List[Fraction]]:
    """(f, g) from P_c(X) x P(X) with f != g."""
    f = _sample_coeffs(d, X, rng, centered=True)
    g = _sample_coeffs(d, X, rng, centered=False)
    while g == f:
        g = _sample_coeffs(d, X, rng, centered=False)
    return f, g


# ---------------------------------------------------------------------------


class SurveyWorkload:
    """`survey_average_prep` at caps (2, 1); an op is one sampled pair."""

    m_cap, n_cap = 2, 1

    def __init__(self, ad, seed: int, reference, d: int, X: int, batch: int, trace_rounds: int):
        self.ad, self.seed, self.reference, self.d, self.X = ad, seed, reference, d, X
        self.batch, self.trace_rounds = batch, trace_rounds

    def _config(self, samples: int, seed: int):
        return self.ad.SurveyConfig(
            d=self.d, X=self.X, samples=samples, seed=seed, m_cap=self.m_cap, n_cap=self.n_cap
        )

    def run_round(self, k: int, step):
        res = self.ad.survey_average_prep(self._config(self.batch, self.seed * 1_000_003 + k))
        # to_json reports neither exceptions per row nor inconclusive rows,
        # so both are counted here.
        return self.batch, res.failures + sum(r.inconclusive for r in res.rows), res

    def check_round(self, k: int, res) -> List[str]:
        errors = []
        if len(res.rows) + res.failures != self.batch:
            errors.append(f"survey seed {res.config.seed}: rows + failures != {self.batch}")
        for r in res.rows:
            if not (0.0 <= r.pairing_lo <= r.pairing_hi):
                errors.append(f"survey row {r.f} | {r.g}: pairing [{r.pairing_lo}, {r.pairing_hi}]")
        rows = [(r.f, r.g, r.case, r.shared_count) for r in res.rows if not r.inconclusive]
        return errors + self.reference(ref.survey_errors, rows, self.m_cap, self.n_cap)


# ---------------------------------------------------------------------------


class PairingWorkload:
    """`global_pairing` at N = 4000, the CLI default; an op is one pairing.

    A round is the Chebyshev pair (z^2, z^2 - 2) and one pair from
    P_c(10) x P(10) at each of d = 2, 3, 4, 5, drawn once with a fixed seed,
    each in both orders; each op's sampler is seeded from --seed.
    """

    N = 4000
    DEGREES = (2, 3, 4, 5)
    trace_rounds = 1

    def __init__(self, ad, seed: int, reference):
        self.ad, self.reference = ad, reference
        rng = np.random.default_rng([_PAIRING_PAIRS_SEED, 2])
        pairs = [([Fraction(0), Fraction(0)], [Fraction(-2), Fraction(0)])]
        pairs += [_sample_pair(d, 10, rng) for d in self.DEGREES]
        self.ops = []
        for i, (f, g) in enumerate(pairs):
            pf, pg = ad.MonicPoly(tuple(f)), ad.MonicPoly(tuple(g))
            self.ops.append((pf, pg, (seed, 3, 2 * i)))
            self.ops.append((pg, pf, (seed, 3, 2 * i + 1)))
        self.first = None

    def run_round(self, k: int, step):
        reps = []
        for i, (f, g, s) in enumerate(self.ops):
            if i:
                step()
            reps.append(self.ad.global_pairing(f, g, self.N, np.random.default_rng(list(s))))
        return len(self.ops), 0, reps

    @staticmethod
    def _arch(rep) -> Tuple[float, float]:
        """(estimate, standard error) of the archimedean entry [max(v - 2 se, 0), v + 2 se]."""
        e = next(e for e in rep.entries if e.place == "inf")
        return e.hi - 2 * e.err, e.err

    def check_round(self, k: int, reps) -> List[str]:
        if self.first is not None:
            same = [(r.total_lo, r.total_hi) for r in reps] == [(r.total_lo, r.total_hi) for r in self.first]
            return [] if same else [f"pairing round {k} differs from round 0 for fixed rng seeds"]
        self.first = first = reps
        errors = []
        for rep in reps:
            if not (0.0 <= rep.total_lo <= rep.total_hi):
                errors.append(f"pairing {rep.f} | {rep.g}: total [{rep.total_lo}, {rep.total_hi}]")
        q, q_err = self.reference(ref.chebyshev_pairing)
        for rep in first[:2]:
            v, se = self._arch(rep)
            if abs(v - q) > _SE_ALLOWANCE * se + q_err:
                errors.append(f"Chebyshev pairing {v} +- {se} misses the quadrature value {q}")
        for i in range(0, len(first), 2):
            a, b = first[i], first[i + 1]
            fin_a = sorted((e.place, e.lo, e.hi) for e in a.entries if e.place != "inf")
            fin_b = sorted((e.place, e.lo, e.hi) for e in b.entries if e.place != "inf")
            (va, sa), (vb, sb) = self._arch(a), self._arch(b)
            if fin_a != fin_b or abs(va - vb) > _SE_ALLOWANCE * (sa + sb):
                errors.append(
                    f"pairing {a.f} | {a.g} = {va} +- {sa} disagrees with the swapped pair {vb} +- {sb}"
                )
        return errors


# ---------------------------------------------------------------------------


def _poly_text(coeffs: Sequence[Fraction]) -> str:
    return "z^%d" % len(coeffs) + "".join(
        f"+({c})z^{i}" for i, c in enumerate(coeffs) if c != 0
    )


def _constructed(q: Sequence[int], h: Sequence[int]) -> List[Fraction]:
    """Coefficients of z + q(z) h(z), ascending lists of integers or Fractions
    with q and h monic, as a monic polynomial's (a_0, ..., a_{d-1})."""
    out = [Fraction(0)] * (len(q) + len(h) - 1)
    for i, a in enumerate(q):
        for j, b in enumerate(h):
            out[i + j] += Fraction(a) * Fraction(b)
    out[1] += 1
    return out[:-1]


_F = Fraction
# (label, f, g, use_certificate, fault named in the README, or None)
_FIXED_CERTIFY = [
    ("z^2 | z^2-2", [_F(0), _F(0)], [_F(-2), _F(0)], True, None),
    ("z^2 | z^2+1/2", [_F(0), _F(0)], [_F(1, 2), _F(0)], True, None),
    ("z^2 | z^2-z", [_F(0), _F(0)], [_F(0), _F(-1)], True, None),
    ("z^2-z | z^2-1", [_F(0), _F(-1)], [_F(-1), _F(0)], True, "real-irrational"),
    ("z^2+1/4 | z^2-3/4", [_F(1, 4), _F(0)], [_F(-3, 4), _F(0)], True, "multiple-root"),
    ("z^2+z/3 | z^2-2z/5", [_F(0), _F(1, 3)], [_F(0), _F(-2, 5)], True, None),
    ("z^2-z/3 | z^2+3z/2", [_F(0), _F(-1, 3)], [_F(0), _F(3, 2)], True, None),
    ("z^3+2z | z^3-z^2+z/2", [_F(0), _F(2), _F(0)], [_F(0), _F(1, 2), _F(-1)], True, None),
]
# f = z + q h, g = z + q h' share the roots of q as fixed points.
_QUADRATICS = {"z^2+1": (1, 0, 1), "z^2+z+1": (1, 1, 1), "z^2+2": (2, 0, 1), "z^2-2": (-2, 0, 1)}
_COFACTORS = {"z | z+1": ((0, 1), (1, 1)), "z+1/2 | z-1": ((_F(1, 2), 1), (-1, 1)),
              "z^2 | z^2+z+1": ((0, 0, 1), (1, 1, 1))}
for _name, _q in _QUADRATICS.items():
    for _hname, (_h, _h2) in _COFACTORS.items():
        _FIXED_CERTIFY.append(
            (
                f"z+q*h | z+q*h' with q = {_name}, h | h' = {_hname}",
                _constructed(_q, _h),
                _constructed(_q, _h2),
                True,
                "real-irrational" if _name == "z^2-2" else None,
            )
        )


class CertifyWorkload:
    """`prep_intersect` at its default caps (3, 2); an op is one certificate.

    A round is the fixed list above plus 8 pairs at d = 2 and 8 at d = 3 of
    height <= 2, sampled from the seed and certified with the disjointness
    certificate off.  Sampled pairs that the reference shows would meet one
    of the two known faults are drawn again: an op that fails only on some
    seeds would make the failed share depend on the seed.
    """

    m_cap, n_cap = 3, 2
    SAMPLED = ((2, 8), (3, 8))
    X = 2
    trace_rounds = 5

    def __init__(self, ad, seed: int, reference):
        self.ad, self.reference = ad, reference
        rng = np.random.default_rng([seed, 4])
        specs = list(_FIXED_CERTIFY)
        self.redrawn = 0
        for d, count in self.SAMPLED:
            for _ in range(count):
                while True:
                    f, g = _sample_pair(d, self.X, rng)
                    if reference(ref.fault_class, f, g, self.m_cap, self.n_cap) is None:
                        break
                    self.redrawn += 1
                specs.append((f"sampled {_poly_text(f)} | {_poly_text(g)}", f, g, False, None))
        self.ops = [
            {
                "label": label,
                "coeffs": (f, g),
                "f": ad.MonicPoly(tuple(f)),
                "g": ad.MonicPoly(tuple(g)),
                "use_cert": use_cert,
                "fault": fault,
            }
            for label, f, g, use_cert, fault in specs
        ]
        self.first = None

    def run_round(self, k: int, step):
        certs = [
            self.ad.prep_intersect(op["f"], op["g"], use_certificate=op["use_cert"]) for op in self.ops
        ]
        return len(self.ops), sum(c.verdict == "inconclusive" for c in certs), certs

    def unexpected(self) -> List[str]:
        """Ops whose failure differs from the README's list of known faults."""
        out = []
        for op, cert in zip(self.ops, self.first or ()):
            if (cert.verdict == "inconclusive") != (op["fault"] is not None):
                out.append(f"{op['label']}: verdict {cert.verdict}, known fault {op['fault']}")
        return out

    def check_round(self, k: int, certs) -> List[str]:
        if self.first is not None:
            same = [c.to_json() for c in certs] == [c.to_json() for c in self.first]
            return [] if same else [f"certify round {k} differs from round 0"]
        self.first = certs
        errors = []
        for op, cert in zip(self.ops, certs):
            min_polys = [p.min_poly for p in cert.points]
            found = self.reference(
                ref.certificate_errors, *op["coeffs"], self.m_cap, self.n_cap,
                min_polys, cert.verdict == "inconclusive",
            )
            found += [
                f"certified {p.min_poly} has heights {p.hf}, {p.hg}"
                for p in cert.points
                if not (p.hf <= 1e-6 and p.hg <= 1e-6)
            ]
            errors += [f"{op['label']}: {e}" for e in found]
        return errors


def _warm_survey(d: int, X: int):
    def warm(ad) -> None:
        ad.survey_average_prep(
            ad.SurveyConfig(d=d, X=X, samples=1, seed=_WARMUP_SEED, m_cap=2, n_cap=1)
        )

    return warm


def _warm_pairing(ad) -> None:
    f, g = ad.MonicPoly.from_text("z^2"), ad.MonicPoly.from_text("z^2-2")
    ad.global_pairing(f, g, PairingWorkload.N, np.random.default_rng(_WARMUP_SEED))


def _warm_certify(ad) -> None:
    # z^2 | z^2-z certifies a quadratic point, so it reaches sympy and mpmath.
    ad.prep_intersect(ad.MonicPoly.from_text("z^2"), ad.MonicPoly.from_text("z^2-z"))


# name -> (make the workload from (arithdyn, seed, reference), its warm-up op)
WORKLOADS = {
    "survey-d6-x5": (
        lambda ad, seed, reference: SurveyWorkload(ad, seed, reference, d=6, X=5, batch=50, trace_rounds=8),
        _warm_survey(6, 5),
    ),
    "survey-d3-x50": (
        lambda ad, seed, reference: SurveyWorkload(ad, seed, reference, d=3, X=50, batch=200, trace_rounds=10),
        _warm_survey(3, 50),
    ),
    "pairing-mc": (PairingWorkload, _warm_pairing),
    "certify": (CertifyWorkload, _warm_certify),
}
